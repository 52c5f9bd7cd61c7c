"""Time decay, AUT, and how the k-fold number overstates deployed quality.

Trains once on the first six months, scores twelve monthly test slots,
prints the per-slot F1 (point and cumulative), condenses the curve into
AUT, and contrasts that against the time-blind 10-fold score on the same
data: under drift the k-fold figure is the one a paper would report, the
AUT is the one a deployment would experience.
"""

from datetime import date

import numpy as np

from driftlab import (
    DriftSpec,
    KNNClassifier,
    Period,
    RatioSpec,
    SplitSpec,
    aut,
    confusion_counts,
    cumulative_estimates,
    derive_rng,
    derive_seed,
    generate,
    point_estimates,
    prf1,
    slot_series,
    time_aware_split,
)
from driftlab.classifiers import fit_models
from driftlab.metrics import stratified_folds


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

    # The time-blind k-fold of the ``kfold`` scenario: stratified folds, one fit
    # per fold, each fold scored at its own class ratio.
    folds = stratified_folds(d.labels, 10, derive_rng(0, "kfold"))
    models = fit_models(clf, d, [train for train, _ in folds],
                        [derive_seed(0, "kfold", "fit", i) for i in range(10)])
    fold_f1 = np.array([prf1(confusion_counts(m, d.subset(test)))[2]
                        for m, (_, test) in zip(models, folds)])
    print(f"\n10-fold F1 on the same data = {fold_f1.mean():.3f} +/- {fold_f1.std():.3f}")
    print(f"gap (k-fold - AUT)          = {fold_f1.mean() - aut(pnt):.3f}"
          "   <- the optimism a time-blind evaluation buys")


if __name__ == "__main__":
    main()
