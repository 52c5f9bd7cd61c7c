"""Performance/cost trade-offs of strategies for delaying time decay.

Runs the four policies over the same drifting stream and prints the
classic trade-off table: labeling cost L (objects whose true labels an
analyst must supply), quarantine cost Q (objects withheld for manual
inspection), and performance P as AUT(F1). Incremental retraining is the
ceiling at maximal cost; uncertainty-sampling active learning buys most
of it back for a few labels per month; rejection spends no labels but
quarantines the shakiest predictions.
"""

from datetime import date

from driftlab import (
    DelayPolicy,
    DriftSpec,
    KNNClassifier,
    Period,
    RatioSpec,
    SplitSpec,
    generate,
    run_policy,
    time_aware_split,
)
from driftlab.delay import initial_scores


def main():
    d = generate(
        DriftSpec(months=20, samples_per_month=200, drift_velocity=0.35), seed=0
    )
    spec = SplitSpec(
        train_window=Period(months=8),
        test_window=Period(months=12),
        slot_width=Period(months=1),
        origin=date(2014, 1, 1),
    )
    split = time_aware_split(d, spec, RatioSpec(), seed=0)
    clf = KNNClassifier(k=5)

    policies = [
        DelayPolicy("none"),
        DelayPolicy("rejection"),
        DelayPolicy("active_learning", al_budget=0.01),
        DelayPolicy("active_learning", al_budget=0.05),
        DelayPolicy("active_learning", al_budget=0.25),
        DelayPolicy("incremental"),
    ]
    # Every policy starts from the same model 0; score the slots with it once.
    scores0 = initial_scores(split, clf, seed=0)
    print(f"{'policy':28s} {'L':>6s} {'Q':>6s}   AUT(F1)")
    for policy in policies:
        res = run_policy(split, clf, policy, seed=0, scores0=scores0)
        print(
            f"{policy.label:28s} {res.labeled:6d} "
            f"{res.quarantined:6d}   {res.aut_f1:.3f}"
        )
    print("\nL is known up front for active learning: per-slot ceil(budget * slot size).")
    print("Single seed shown; rank policies on means over several seeds (see the")
    print("acceptance suite). Under fast drift, mistakes become *confident*, so")
    print("rejection can hurt the kept set; it shines when errors hug the boundary.")


if __name__ == "__main__":
    main()
