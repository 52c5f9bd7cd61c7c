"""The experiment config schema: :class:`ExperimentConfig` and :func:`parse_config`.

Each config field declares its rule once, as ``dataclasses.field``
metadata (see :func:`driftlab.dataset.rule`); ``_SECTIONS`` maps each
top-level key of a config file to the builder of its fields. Any schema
violation raises :class:`ConfigError`, which the CLI maps to exit code 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date

from .classifiers import Classifier, KNNClassifier, LinearSGDClassifier
from .dataset import check_fields, rule
from .delay import DelayPolicy
from .splits import RatioSpec, SplitSpec
from .synthgen import DriftSpec
from .tuning import TuningConfig

__all__ = ["SCENARIOS", "ConfigError", "ExperimentConfig", "parse_config"]

SCENARIOS = ("realistic", "kfold", "past_testing", "disjoint_class_windows", "bias_grid")


class ConfigError(ValueError):
    """Experiment configuration violates the documented schema."""


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """A parsed config. Each default is what an absent key means."""

    split: SplitSpec
    output_dir: str = field(metadata=rule(str))
    dataset_path: str | None = field(default=None, metadata=rule(str, optional=True))
    dataset_format: str | None = field(default=None, metadata=rule(("csv", "jsonl"), optional=True))
    synthetic: DriftSpec | None = None
    ratios: RatioSpec = RatioSpec()
    classifier: Classifier = LinearSGDClassifier()
    classifier_echo: dict = field(default_factory=lambda: {"kind": "linear_sgd"})
    scenario: str = field(default="realistic", metadata=rule(SCENARIOS))
    tuning: TuningConfig | None = None
    delay_policies: tuple[DelayPolicy, ...] = ()
    seeds: tuple[int, ...] = (0,)
    kfold_k: int = field(default=10, metadata=rule(int, ge=2))
    workers: int = field(default=1, metadata=rule(int, gt=0))

    def __post_init__(self) -> None:
        check_fields(self)
        # ``type(s) is int`` rather than isinstance: a JSON bool is an int subclass.
        if not self.seeds or any(type(s) is not int or not 0 <= s < 2**63 for s in self.seeds):
            raise ValueError(
                f"seeds must be a non-empty list of integers in [0, 2**63), got {list(self.seeds)}"
            )
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError("seeds must be unique")
        labels = [p.label for p in self.delay_policies]
        if len(set(labels)) < len(labels):
            raise ValueError(f"delay policies must be unique, got {labels}")
        if (self.dataset_path is None) == (self.synthetic is None):
            raise ValueError("dataset needs exactly one of 'path' or 'synthetic'")
        if self.synthetic is not None and self.dataset_format is not None:
            raise ValueError("dataset 'format' applies to a 'path' only, not to 'synthetic'")
        if self.scenario == "bias_grid" and self.delay_policies:
            raise ValueError("bias_grid does not combine with a delay policy")
        if self.tuning is not None and self.tuning.sigma_hat != self.ratios.sigma_hat:
            raise ValueError(
                f"tuning.sigma_hat {self.tuning.sigma_hat} differs from "
                f"ratios.sigma_hat {self.ratios.sigma_hat}"
            )
        if any(p.retune_each_step for p in self.delay_policies):
            # Each retune grows the training window by whole slots.
            self.split.train_window.slots_of(self.split.slot_width)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _section(name: str, build):
    """``build()``, with a malformed config section reported as ``bad <name>``.

    A ConfigError raised inside already names its value and passes through.
    """
    try:
        return build()
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name}: {exc}") from None


def _drift_spec(**fields) -> DriftSpec:
    """A DriftSpec whose ``start`` may be an ISO date string."""
    if isinstance(fields.get("start"), str):
        try:
            fields["start"] = date.fromisoformat(fields["start"])
        except ValueError:
            pass  # DriftSpec rejects the string by name
    return DriftSpec(**fields)


def _dataset_fields(blob: dict) -> dict:
    """A file's ``path`` and ``format``, or the ``synthetic`` generator's fields."""
    unknown = set(blob) - {"path", "format", "synthetic"}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    synthetic = blob.get("synthetic")
    if synthetic is not None:
        synthetic = _section("dataset.synthetic", lambda: _drift_spec(**synthetic))
    return {"dataset_path": blob.get("path"), "dataset_format": blob.get("format"),
            "synthetic": synthetic}


def _classifier_fields(blob: dict) -> dict:
    """``kind`` picks the classifier; the other keys are its fields."""
    params = dict(blob)
    kind = params.pop("kind", None)
    if kind not in ("linear_sgd", "knn"):
        raise ValueError(f"kind must be 'linear_sgd' or 'knn', got {kind!r}")
    make = LinearSGDClassifier if kind == "linear_sgd" else KNNClassifier
    return {"classifier": make(**params), "classifier_echo": dict(blob)}


def _delay_policies(al_budget=None, **fields) -> tuple[DelayPolicy, ...]:
    """One policy per budget when ``al_budget`` is a non-empty list."""
    budgets = al_budget if isinstance(al_budget, list) and al_budget else [al_budget]
    return tuple(DelayPolicy(al_budget=b, **fields) for b in budgets)


# Every accepted top-level key, with the builder that turns its value into
# ExperimentConfig fields; a builder's error is reported as ``bad <key>``.
# A key without a builder is the ExperimentConfig field of the same name.
_SECTIONS = {
    "dataset": _dataset_fields,
    "split": lambda v: {"split": SplitSpec.from_dict(v)},
    "ratios": lambda v: {"ratios": RatioSpec(**v)},
    "classifier": _classifier_fields,
    "tuning": lambda v: {"tuning": TuningConfig(**v)},
    "delay": lambda v: {"delay_policies": _delay_policies(**v)},
    "seeds": lambda v: {"seeds": tuple(v)},
    "scenario": None,
    "output_dir": None,
    "kfold_k": None,
    "workers": None,
}


def parse_config(blob: dict) -> ExperimentConfig:
    """Validate and materialize a config dict (see README for the schema)."""
    _require(isinstance(blob, dict), "config root must be an object")
    unknown = set(blob) - set(_SECTIONS)
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    given = {}
    for key, value in blob.items():
        build = _SECTIONS[key]
        given.update(_section(key, lambda: build(value)) if build else {key: value})
    if "tuning" in given and "sigma_hat" not in blob["tuning"]:
        # phi is tuned from the deployment rate up, so an unset sigma_hat is the run's.
        sigma_hat = given.get("ratios", RatioSpec()).sigma_hat
        given["tuning"] = _section("tuning", lambda: replace(given["tuning"], sigma_hat=sigma_hat))
    try:
        return ExperimentConfig(**given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
