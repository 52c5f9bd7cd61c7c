"""Apply each of a fixed list of small mutants and check that the tests kill it.

    python3 tools/mutants.py

Each mutant replaces one piece of text, which must occur exactly once, in one
file of a copy of this checkout made under a temporary directory; the
checkout itself is never edited. ``python -m pytest -x -q`` then runs in the
copy, against the copy's ``src`` and with one fixed Hypothesis seed, so that a
rerun repeats each verdict: first on the mutated module's own test
file, ``tests/test_<stem>.py`` when there is one, and on the whole suite only
if that file passes, so a mutant costs a whole suite run only when its own
tests miss it. A mutant is KILLED when pytest reports a failing test and
SURVIVED when every test of the whole suite passes; any other pytest exit is
an ERROR. Prints one line per mutant and exits 1 unless every mutant is
KILLED. Needs only the standard library besides what the tests need.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, old text, new text, the rule the mutant breaks)
MUTANTS = [
    ("al-picks-reversed", "src/driftlab/delay.py",
     "pool = np.concatenate([pool, picks])",
     "pool = np.concatenate([pool, picks[::-1]])",
     "active learning adds its picks most uncertain first"),
    ("reject-q3-median", "src/driftlab/delay.py",
     "at = (n - 1) * 0.75",
     "at = (n - 1) * 0.5",
     "the rejection threshold is the mistakes' third quartile (test_q3_of_a_few_mistakes)"),
    ("reject-q3-no-lerp", "src/driftlab/delay.py",
     "return b - d * (1 - t) if t >= 0.5 else a + d * t",
     "return a",
     "the third quartile interpolates between its order statistics as numpy does "
     "(test_q3_is_numpys_linear_quantile)"),
    ("incremental-slot-reversed", "src/driftlab/delay.py",
     "pool = np.concatenate([pool, split.slot_rows[i]])",
     "pool = np.concatenate([pool, split.slot_rows[i][::-1]])",
     "incremental adds each slot's rows in slot order"),
    ("reject-at-threshold", "src/driftlab/delay.py",
     "kept = probs > threshold",
     "kept = probs >= threshold",
     "a probability equal to the threshold is quarantined"),
    ("al-count-float", "src/driftlab/delay.py",
     "return -(-int(whole + frac) * slot_size // 10**scale)",
     "return -int(-budget * slot_size // 1)",
     "the labeling count is the ceiling of the exact decimal product"),
    ("incremental-last-slot-unlabeled", "src/driftlab/delay.py",
     "per_slot_labeled[i] = len(slot)",
     "per_slot_labeled[i] = len(slot) if i < n - 1 else 0",
     "incremental labels every test slot, the last one included"),
    ("c1", "src/driftlab/splits.py",
     "passed = bool(t[i] < t[j])",
     "passed = bool(t[i] <= t[j])",
     "C1: training strictly precedes testing"),
    ("c2-right-edge", "src/driftlab/splits.py",
     "outside = (t < edges[k]) | (t >= edges[k + 1])",
     "outside = (t < edges[k]) | (t > edges[k + 1])",
     "C2: a slot's window is half-open"),
    ("c2-left-edge", "src/driftlab/splits.py",
     "outside = (t < edges[k]) | (t >= edges[k + 1])",
     "outside = (t <= edges[k]) | (t >= edges[k + 1])",
     "C2: a slot's first day is inside its window"),
    ("round-half-even", "src/driftlab/splits.py",
     "return int(np.rint(x))",
     "return int(x + 0.5)",
     "enforce_ratio rounds an exact half keep count to even"),
    ("c3-low-edge", "src/driftlab/splits.py",
     "ok = lo <= ratio <= hi",
     "ok = lo < ratio <= hi",
     "C3: the band's low edge is inside"),
    ("c3-high-edge", "src/driftlab/splits.py",
     "ok = lo <= ratio <= hi",
     "ok = lo <= ratio < hi",
     "C3: the band's high edge is inside"),
    ("delay-fit-c1", "src/driftlab/delay.py",
     "require_c1(train, first_day)",
     "pass",
     "C1 holds at every delay fit"),
    ("tune-fit-c1", "src/driftlab/tuning.py",
     "require_c1(proper, starts[0])",
     "pass",
     "C1 holds at the tuning scorer and grid fits"),
    ("sgd-unequal-lengths-stack", "src/driftlab/classifiers.py",
     "while e < len(lengths) and lengths[e] == lengths[i]:",
     "while e < len(lengths) and lengths[e] <= lengths[i]:",
     "lockstep SGD stacks only batches of equal length"),
    ("sgd-one-permutation", "src/driftlab/classifiers.py",
     "order = r.take(rng.permutation(len(r)))",
     'order = r.take(derive_rng(seed, "linear_sgd").permutation(len(r)))',
     "one-model SGD reshuffles its rows every epoch"),
    ("knn-id-tie-descending", "src/driftlab/classifiers.py",
     "order = np.lexsort((self._id_rank[col], exact, row))",
     "order = np.lexsort((-self._id_rank[col], exact, row))",
     "a kNN distance tie goes to the smaller id"),
    ("knn-margin-eps64", "src/driftlab/classifiers.py",
     "eps, tiny = _EPS_TINY[M.dtype]",
     "eps, tiny = _EPS_TINY[np.dtype(float)][0], _EPS_TINY[M.dtype][1]",
     "the kNN candidate margin is sized by the estimate dtype's own eps "
     "(test_float32_cancellation_keeps_the_exact_nearest)"),
    ("knn-f32-always", "src/driftlab/classifiers.py",
     "f32 = _F32_LOW <= S_min and S_max <= _F32_MAX / (self._X.shape[1] + 4)",
     "f32 = True",
     "the kNN estimate is float64 where float32 cannot hold its values "
     "(test_knn_run_does_not_depend_on_feature_scale)"),
    ("knn-f32-no-low-end", "src/driftlab/classifiers.py",
     "f32 = _F32_LOW <= S_min and S_max",
     "f32 = S_max",
     "the kNN estimate is float64 where float32's subnormal steps would swamp "
     "the distances (test_float32_range_ends_keep_exactly_k_candidates[2**-70])"),
    ("subset-negative", "src/driftlab/dataset.py",
     "if idx.min() < 0 or idx.max() >= len(ids):",
     "if idx.max() >= len(ids):",
     "subset rejects a negative row"),
    ("validation-tail-rounded", "src/driftlab/tuning.py",
     "n_val = int(n_slots * cfg.validation_fraction)",
     "n_val = round(n_slots * cfg.validation_fraction)",
     "the validation tail is floor(n_slots * validation_fraction) slots"),
    ("grid-end", "src/driftlab/tuning.py",
     "if phi > 0.5 + 1e-9:",
     "if phi > 0.5:",
     "the phi grid ends on 0.5 despite float round-off"),
    ("tie", "src/driftlab/tuning.py",
     "if area > evaluations[best_j][1] and err <= cfg.e_max:",
     "if area >= evaluations[best_j][1] and err <= cfg.e_max:",
     "an equal validation area keeps the smaller phi"),
    ("select-ceiling-strict", "src/driftlab/tuning.py",
     "if area > evaluations[best_j][1] and err <= cfg.e_max:",
     "if area > evaluations[best_j][1] and err < cfg.e_max:",
     "a grid point whose error equals e_max is selectable "
     "(test_a_point_at_the_error_ceiling_is_selectable)"),
    ("constraint-met-strict", "src/driftlab/tuning.py",
     "constraint_met=achieved_err <= cfg.e_max,",
     "constraint_met=achieved_err < cfg.e_max,",
     "an error equal to e_max meets the constraint "
     "(test_a_point_at_the_error_ceiling_is_selectable)"),
    ("kfold-scenario-bias-folds", "src/driftlab/cli.py",
     '_kfold_row("kfold", "kfold", downsample=False)',
     '_kfold_row("bias_kfold", "kfold", downsample=False)',
     "the kfold scenario draws its folds from its own stream, not the bias row's"),
    ("seedless-test-side-downsampled", "src/driftlab/cli.py",
     "d.subset(t if s is None else enforce_ratio(d, q, t, seed=s))",
     "d.subset(enforce_ratio(d, q, t, seed=s))",
     "a test side without a downsampling seed keeps its own class ratio"),
    ("refresh-reads-kept-mistakes", "src/driftlab/delay.py",
     "probs[(~kept) & (pred != slot.labels)]",
     "probs[pred != slot.labels]",
     "a refreshed threshold learns only from quarantined mistakes "
     "(pinned call knn-rejection-refresh)"),
    ("retune-window-one-short", "src/driftlab/delay.py",
     "slots_of(width) + i + 1",
     "slots_of(width) + i",
     "retune i tunes over the training window grown by i + 1 slots "
     "(pinned call knn-incremental-retune)"),
    ("retune-seed-shared", "src/driftlab/delay.py",
     '"delay", "retune", i)',
     '"delay", "retune", 0)',
     "each retune draws from its own seed stream (pinned call knn-incremental-retune)"),
    ("label-tie-negative", "src/driftlab/classifiers.py",
     "np.asarray(scores) >= 0.5",
     "np.asarray(scores) > 0.5",
     "a score of exactly 0.5 predicts the positive class"),
    ("cache-key-ignores-format", "src/driftlab/dataset.py",
     "np.__version__, format)",
     "np.__version__)",
     "a file read as csv and as jsonl never shares a sidecar entry "
     "(test_formats_never_share_an_entry)"),
    ("cache-key-ignores-parser", "src/driftlab/dataset.py",
     "reader = (_code_digest(), sys.version_info[:2],",
     "reader = (sys.version_info[:2],",
     "a sidecar written by other parse code is parsed again and rewritten "
     "(test_another_parser_reparses_and_rewrites)"),
    ("cache-hit-skips-payload-digest", "src/driftlab/dataset.py",
     "if blob[:32] != key.digest() or hashlib.sha256(payload).digest() != blob[32:64]:",
     "if blob[:32] != key.digest():",
     "a sidecar whose payload digest fails is parsed again and rewritten "
     "(test_damaged_sidecar_reparses_and_is_rewritten)"),
    ("date-any-iso-form", "src/driftlab/dataset.py",
     'if len(text) == 10 and text[4] == "-" == text[7]:',
     "if text:",
     "a timestamp is YYYY-MM-DD on every interpreter (test_timestamp_is_an_iso_day)"),
    ("jsonl-line-any-json", "src/driftlab/dataset.py",
     "if not isinstance(obj, dict):",
     "if False:",
     "a JSONL line must be a JSON object (test_jsonl_line_must_be_an_object)"),
    ("label-bool-accepted", "src/driftlab/dataset.py",
     "(type(value) is int and value in (0, 1))",
     "value in (0, 1)",
     "a label is the int or text 0 or 1, not a bool or float equal to one "
     "(test_ill_formed_outside_input_exit_2)"),
    ("id-any-json", "src/driftlab/dataset.py",
     "if type(value) in (str, int):",
     "if True:",
     "an id is a JSON string or an integer by exact type "
     "(test_jsonl_id_is_a_string_or_an_integer)"),
    ("label-before-cells", "src/driftlab/dataset.py",
     "        try:\n            block[j] = feats",
     "        try:\n            _parse_id(sid), _parse_label(label)\n"
     "        except ValueError as exc:\n"
     '            raise DatasetFormatError(f"line {lineno}: {exc}") from None\n'
     "        try:\n            block[j] = feats",
     "a line's feature cells are checked before its id and label "
     "(test_csv_non_numeric_names_line[1-lines4-3])"),
    ("manifest-label-int", "src/driftlab/splits.py",
     '_parse_label(r["label"])',
     'int(r["label"])',
     "a manifest label is 0 or 1 by the dataset rule "
     "(test_manifest_record_follows_the_dataset_rules)"),
    ("training-size-error-plain", "src/driftlab/classifiers.py",
     "class TrainingSizeError(ConfigError):",
     "class TrainingSizeError(ValueError):",
     "every error but a model's output has an exit-code base "
     "(test_every_error_has_an_exit_code_base)"),
    ("aut-plain-mean", "src/driftlab/metrics.py",
     "return float(np.mean((v[1:] + v[:-1]) / 2.0))",
     "return float(np.mean(v))",
     "AUT is the normalized trapezoid area (test_matches_trapezoid_oracle_and_range)"),
    ("cml-equals-point", "src/driftlab/metrics.py",
     "running = running + c",
     "running = c",
     "a cumulative estimate pools every slot up to its own (test_cumulative_recall_example)"),
    ("plot-header-any", "src/driftlab/cli.py",
     "if (header := next(reader, [])) != columns:",
     "if (header := next(reader, [])) is None:",
     "plotdata reads a run artifact only under its exact header "
     "(test_ill_formed_outside_input_exit_2[plotdata_header_permuted])"),
    ("plot-width-any", "src/driftlab/cli.py",
     "if len(cells) != len(columns):",
     "if False:",
     "plotdata reads a run artifact row only as long as its header "
     "(test_ill_formed_outside_input_exit_2[plotdata_row_short])"),
    ("origin-any-iso-form", "src/driftlab/splits.py",
     'origin=_parse_date(_json_text(blob["origin"])),',
     'origin=date.fromisoformat(blob["origin"]),',
     "a split origin is YYYY-MM-DD on every interpreter (test_origin_is_an_iso_day)"),
]

# Left out of the copy: version control, caches and benchmark work files.
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_work"
)


def mutate(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        raise ValueError(f"{path.name}: {old!r} occurs {count} times, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def run_mutant(work: Path, file: str, old: str, new: str) -> str:
    """KILLED, SURVIVED or ERROR for one mutant, applied in a fresh copy inside ``work``."""
    copy = work / "repo"
    shutil.copytree(ROOT, copy, ignore=IGNORED)
    try:
        mutate(copy / file, old, new)
        path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
        own = Path("tests") / f"test_{Path(file).stem}.py"
        # The module's own test file, then (if it passes) the whole suite.
        for tests in [[str(own)], []] if (copy / own).exists() else [[]]:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--hypothesis-seed=0", *tests],
                cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            if proc.returncode != 0:
                break
        verdicts = {0: "SURVIVED", 1: "KILLED"}
        return verdicts.get(proc.returncode, f"ERROR (pytest exit {proc.returncode})")
    finally:
        shutil.rmtree(copy)


def main() -> int:
    verdicts = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, file, old, new, rule in MUTANTS:
            try:
                verdict = run_mutant(Path(tmp), file, old, new)
            except ValueError as exc:
                verdict = f"ERROR ({exc})"
            verdicts.append(verdict)
            print(f"{verdict:8}  {name}: {rule}", flush=True)
    return 0 if all(v == "KILLED" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
