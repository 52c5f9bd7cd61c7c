"""Constraint-respecting splits, and what the validators catch.

Walks through: generating a drifting dataset, summarizing its monthly
class mix, carving a train/test split that honors the three constraints
(training precedes testing; slots are temporally homogeneous; test slots
match the deployment class ratio), then deliberately breaking each
constraint to show the verdicts.
"""

from datetime import date

import numpy as np

from driftlab import (
    DriftSpec,
    Period,
    RatioSpec,
    SplitSpec,
    TemporalSplit,
    generate,
    summarize,
    time_aware_split,
)


def main():
    spec = DriftSpec(months=18, samples_per_month=120, drift_velocity=0.25, family_churn=0.2)
    d = generate(spec, seed=0)
    print(f"dataset: {len(d)} samples, {d.dimensionality} features, "
          f"{d.time_range[0]} .. {d.time_range[1]}")

    s = summarize(d, Period(months=1))
    print("\nmonthly class mix (positives/total):")
    for k in range(s.n_slots):
        total = s.pos_counts[k] + s.neg_counts[k]
        print(f"  {s.slot_starts[k]}  {s.pos_counts[k]:3d}/{total}")

    split_spec = SplitSpec(
        train_window=Period(months=6),
        test_window=Period(months=12),
        slot_width=Period(months=1),
        origin=date(2014, 1, 1),
    )
    split = time_aware_split(d, split_spec, RatioSpec(), seed=0)
    print(f"\nsplit: train={len(split.train)} samples at "
          f"ratio {split.train.positive_ratio:.3f}, {len(split.test_slots)} test slots")

    print("\nvalidators on the constructed split:")
    for name, verdict in split.verdicts.items():
        print(f"  {name}: {'pass' if verdict.passed else 'FAIL'}")

    # Break each constraint on purpose: a split is rows of d, so each broken
    # split below picks other rows of the same stream.
    leaky = TemporalSplit(
        d,
        np.append(split.train_rows, split.slot_rows[5][0]),
        split.slot_rows,
        split.spec,
        split.ratios,
    )
    v = leaky.verdicts["C1"]
    print(f"\nfuture sample in training -> C1 {'pass' if v.passed else 'FAIL'}, "
          f"witness {v.witnesses[0]['train_id']} dated {v.witnesses[0]['train_timestamp']}")

    slot = split.slot_rows[3]
    pos = slot[d.labels[slot] == 1]
    neg = slot[d.labels[slot] == 0][:1]
    ninety = np.sort(np.concatenate([pos, neg]))
    unbalanced = TemporalSplit(
        d,
        split.train_rows,
        tuple(ninety if k == 3 else rows for k, rows in enumerate(split.slot_rows)),
        split.spec,
        split.ratios,
    )
    v = unbalanced.verdicts["C3"]
    bad = [row for row in v.per_slot if not row["pass"]]
    print(f"inflated slot ratio -> C3 {'pass' if v.passed else 'FAIL'}, "
          f"slot {bad[0]['slot']} at ratio {bad[0]['ratio']:.2f} "
          f"outside [{bad[0]['low']}, {bad[0]['high']}]")


if __name__ == "__main__":
    main()
