"""Time decay, AUT, and how the k-fold number overstates deployed quality.

Trains once on the first six months, scores twelve monthly test slots,
prints the per-slot F1 (point and cumulative), condenses the curve into
AUT, and contrasts that against the time-blind 10-fold score on the same
data: under drift the k-fold figure is the one a paper would report, the
AUT is the one a deployment would experience.
"""

from datetime import date

from driftlab import (
    DriftSpec,
    KNNClassifier,
    Period,
    RatioSpec,
    SplitSpec,
    aut,
    cumulative_estimates,
    derive_seed,
    generate,
    kfold_eval,
    point_estimates,
    slot_series,
    time_aware_split,
)


def main():
    d = generate(
        DriftSpec(months=18, samples_per_month=150, drift_velocity=0.25, family_churn=0.35),
        seed=0,
    )
    spec = SplitSpec(
        train_window=Period(months=6),
        test_window=Period(months=12),
        slot_width=Period(months=1),
        origin=date(2014, 1, 1),
    )
    clf = KNNClassifier(k=5)
    split = time_aware_split(d, spec, RatioSpec(), seed=0)
    model = clf.fit(split.train, derive_seed(0, "demo", "fit"))
    series = slot_series(model, split.test_slots, split.slot_starts)

    pnt = point_estimates(series, "f1")
    cml = cumulative_estimates(series, "f1")
    print("slot  month       F1(point)  F1(cumulative)")
    for k in range(series.n_slots):
        print(f"{k:4d}  {series.slot_starts[k]}  {pnt.values[k]:9.3f}  {cml.values[k]:14.3f}")

    print(f"\nAUT(F1, {series.n_slots}m)      = {aut(pnt):.3f}")
    print(f"AUT_cml(F1, {series.n_slots}m)  = {aut(cml):.3f}   (smoothed; report only as AUT_cml)")

    kf = kfold_eval(d, clf, 10, seed=0)
    print(f"\n10-fold F1 on the same data = {kf.mean_f1:.3f} +/- {kf.std_f1:.3f}")
    print(f"gap (k-fold - AUT)          = {kf.mean_f1 - aut(pnt):.3f}"
          "   <- the optimism a time-blind evaluation buys")


if __name__ == "__main__":
    main()
