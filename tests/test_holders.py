"""The result holders pickle (results cross the fan-out pipe), are immutable, and validate."""

import pickle
from datetime import date

import pytest

from driftlab.classifiers import KNNClassifier
from driftlab.dataset import Period, summarize
from driftlab.delay import DelayPolicy, run_policy
from driftlab.metrics import Confusion, MetricCurve, SlotSeries, point_estimates
from driftlab.splits import RatioSpec, SplitSpec, time_aware_split
from driftlab.synthgen import DriftSpec, generate
from driftlab.tuning import TuningConfig, tune_phi


@pytest.fixture(scope="module")
def holders():
    """One of each result holder, as the library returns it, by class name."""
    d = generate(DriftSpec(months=12, samples_per_month=60, drift_velocity=0.3), seed=0)
    spec = SplitSpec(train_window=Period(months=6), test_window=Period(months=6),
                     slot_width=Period(months=1), origin=date(2014, 1, 1))
    split = time_aware_split(d, spec, RatioSpec(), seed=0)
    clf = KNNClassifier(k=3)
    run = run_policy(split, clf, DelayPolicy("active_learning", al_budget=0.1), seed=0)
    tuning = tune_phi(split.train, clf, TuningConfig(mu=0.1), spec, seed=0)
    found = [
        summarize(d, Period(months=1)), run, run.series, run.series.confusions[0],
        point_estimates(run.series, "f1"), split,
        split.verdicts["C1"], tuning, tuning.grid[0],
    ]
    return {type(h).__name__: h for h in found}


NAMES = ["DatasetSummary", "DelayRunResult", "SlotSeries", "Confusion", "MetricCurve",
         "TemporalSplit", "ConstraintVerdict", "TuningResult", "GridPoint"]


@pytest.mark.parametrize("name", NAMES)
def test_pickle_round_trip_keeps_type_and_every_value(holders, name):
    blob = pickle.dumps(holders[name], pickle.HIGHEST_PROTOCOL)
    back = pickle.loads(blob)
    assert type(back) is type(holders[name])
    assert pickle.dumps(back, pickle.HIGHEST_PROTOCOL) == blob


@pytest.mark.parametrize("name", NAMES)
def test_assignment_raises_attribute_error(holders, name):
    holder = holders[name]
    field = "d" if name == "TemporalSplit" else holder._fields[0]
    for attr in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(holder, attr, None)
    with pytest.raises(AttributeError):
        delattr(holder, field)


@pytest.mark.parametrize("make, message", [
    (lambda: Confusion(fn=-1), "non-negative"),
    (lambda: SlotSeries((Confusion(),), (date(2014, 1, 1), date(2014, 2, 1))), "disagree"),
    (lambda: SlotSeries((Confusion(),), (date(2014, 1, 1),)), "at least 2 slots"),
    (lambda: SlotSeries((Confusion(),) * 2, (date(2014, 2, 1),) * 2), "strictly increasing"),
    (lambda: MetricCurve("auc", "point", (0.5, 0.5)), "unknown metric"),
    (lambda: MetricCurve("f1", "running", (0.5, 0.5)), "point|cumulative"),
    (lambda: MetricCurve("f1", "point", (0.5, 1.5)), r"\[0, 1\]"),
])
def test_validating_holders_reject_bad_values(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_metric_curve_stores_the_metric_lower_case():
    assert MetricCurve("F1", "point", (0.5, 0.5)).metric == "f1"
