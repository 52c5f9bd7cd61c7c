"""Benchmark of ``driftlab run`` on three pinned, seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload realistic-sgd --seed 0 --seconds 30 --trace 0

Set-up builds the workload's inputs from ``--seed`` under ``.bench_work/``
and times a fresh ``import driftlab.cli`` (``setup_s``). Then, for
``--seconds``, it runs ``driftlab run`` again and again, each run in a
child forked from a warm interpreter (see ``runner.py``), and checks every
run's outputs outside the timed region. Every end-to-end time is scaled
to a fixed host speed by a reference timed just before and after it (see
``hostspeed.py``); the raw wall times are printed beside them. With
``--trace 1`` it alternates untraced and traced runs and reports the
per-layer metrics instead. The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. See ``README.md`` for the glossary.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("realistic-sgd", "realistic-knn", "bias-grid")

# Samples per month of each workload's 36-month stream; --tiny shrinks all.
SAMPLES_PER_MONTH = {"realistic-sgd": 110, "realistic-knn": 120, "bias-grid": 60}
TINY_SAMPLES_PER_MONTH = 40
MONTHS, DIM = 36, 20
# Mild drift and churn keep the baseline AUT(F1) well away from 0 (about
# 0.6 with kNN) while its seed-to-seed spread stays small.
DRIFT_VELOCITY, FAMILY_CHURN = 0.02, 0.02
SPLIT = {"origin": "2014-01-01", "train_window": "12m", "test_window": "24m", "slot_width": "1m"}
# An error ceiling of 0 keeps phi* at sigma_hat on every seed: the grid
# search still runs in full, but the training pool after it no longer
# changes size with the seed, and with it a run's work (up to 3x otherwise).
TUNING = {"mu": 0.1, "e_max": 0.0}
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s_p50": "s",
    "run_s_tail": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "quality_f1": "F1",
}

PER_LAYER_UNITS = {
    "synthgen.generate.calls": "count",
    "synthgen.generate.s": "s",
    "dataset.load.s": "s",
    "dataset.load.rows_per_s": "1/s",
    "dataset.window.calls": "count",
    "dataset.window.s": "s",
    "dataset.rows_copied": "count",
    "splits.split.s": "s",
    "splits.enforce_ratio.calls": "count",
    "splits.enforce_ratio.s": "s",
    "splits.audit.calls": "count",
    "splits.audit.s": "s",
    "tuning.tune_phi.s": "s",
    "tuning.grid_points": "count",
    "classifiers.fit.calls": "count",
    "classifiers.fit.s": "s",
    "classifiers.fit.row_epochs_per_s": "1/s",
    "classifiers.fit.unique_frac": "ratio",
    "classifiers.scores.calls": "count",
    "classifiers.scores.rows": "count",
    "classifiers.scores.s": "s",
    "classifiers.knn.dist_evals": "count",
    "classifiers.knn.dist_evals_per_s": "1/s",
    "metrics.s": "s",
    "delay.run_policy.calls": "count",
    "delay.retrains": "count",
    "delay.self_s": "s",
    "cli.tasks": "count",
    "cli.pool_speedup": "ratio",
    "cli.write.s": "s",
    "cli.bytes_written": "bytes",
    "trace_overhead_frac": "ratio",
    "trace_coverage_frac": "ratio",
}


class Runner:
    """Client of one ``runner.py`` process."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "runner.py")],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def call(self, argv: list[str], spans: Path | None = None, calibrate: bool = False) -> dict:
        """Run one CLI call; a calibrated call also gets ``norm_s``."""
        request = {
            "argv": argv,
            "spans": None if spans is None else str(spans),
            "calibrate": calibrate,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("benchmark runner exited")
        reply = json.loads(reply)
        if calibrate:
            reply["norm_s"] = hostspeed.normalise(reply["wall_s"], *reply["ref_s"])
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


# ---------------------------------------------------------------------------
# Workload inputs
# ---------------------------------------------------------------------------


def _stream(spm: int) -> dict:
    return {
        "months": MONTHS,
        "samples_per_month": spm,
        "dim": DIM,
        "drift_velocity": DRIFT_VELOCITY,
        "family_churn": FAMILY_CHURN,
    }


def build_inputs(workload: str, seed: int, spm: int, wdir: Path, runner: Runner) -> dict:
    """Write the workload's config (and input file) for ``seed``."""
    config = {"split": SPLIT, "scenario": "realistic", "output_dir": str(wdir / "out")}
    if workload == "realistic-sgd":
        config.update(
            dataset={"synthetic": _stream(spm)},
            classifier={"kind": "linear_sgd"},
            tuning=TUNING,
            delay={"kind": "active_learning", "al_budget": 0.05},
            seeds=[seed],
            workers=1,
        )
    elif workload == "realistic-knn":
        data = wdir / "input.csv"
        argv = ["generate", "--out", str(data), "--seed", str(seed)]
        for key, value in _stream(spm).items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        if runner.call(argv)["exit"] != 0:
            raise RuntimeError("driftlab generate failed during set-up")
        config.update(
            dataset={"path": str(data), "format": "csv"},
            classifier={"kind": "knn", "k": 5},
            tuning=TUNING,
            delay={"kind": "rejection"},
            seeds=[seed],
            workers=1,
        )
    else:
        config.update(
            dataset={"synthetic": _stream(spm)},
            classifier={"kind": "linear_sgd", "epochs": 20},
            scenario="bias_grid",
            seeds=[2 * seed, 2 * seed + 1],
            workers=2,
        )
    path = wdir / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return {
        "config": path,
        "rows": MONTHS * spm * len(config["seeds"]),
        "workers": config["workers"],
    }


def time_setup(repeats: int) -> tuple[float, float]:
    """Median (normalised, raw) time of a fresh interpreter importing driftlab.cli.

    Each import is scaled by the spawn reference timed just before and
    just after it (see ``hostspeed.py``).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, norm = [], []
    before = hostspeed.spawn_reference_s()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import driftlab.cli"], cwd=ROOT, env=env, check=True
        )
        raw.append(time.perf_counter() - start)
        after = hostspeed.spawn_reference_s()
        norm.append(hostspeed.normalise(raw[-1], before, after, hostspeed.SPAWN_NOMINAL_S))
        before = after
    return statistics.median(norm), statistics.median(raw)


# ---------------------------------------------------------------------------
# Output checks (run outside the timed region)
# ---------------------------------------------------------------------------


def digest(out: Path) -> tuple[str, int]:
    """SHA-256 over every output file's name and bytes, and the byte total."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(str(path.relative_to(out)).encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _in_unit(value: str) -> bool:
    return 0.0 <= float(value) <= 1.0


def check_outputs(out: Path, wdir: Path, runner: Runner) -> list[str]:
    """C1-C3 audit of every manifest, L/Q bookkeeping, AUT range."""
    problems = []
    for manifest in sorted(out.glob("split_manifest_seed*.json")):
        argv = ["audit", "--manifest", str(manifest), "--out", str(wdir / "audit_report.json")]
        if runner.call(argv)["exit"] != 0:
            problems.append(f"driftlab audit rejects {manifest.name}")
    for summary in sorted(out.glob("delay_summary_seed*.csv")):
        seed = summary.stem.removeprefix("delay_summary_seed")
        for row in _rows(summary):
            slots = out / f"delay_{row['policy'].replace(':', '_')}_slots_seed{seed}.csv"
            per_slot = _rows(slots) if slots.exists() else []
            labeled = sum(int(r["labeled"]) for r in per_slot)
            rejected = sum(int(r["rejected"]) for r in per_slot)
            if (int(row["L"]), int(row["Q"])) != (labeled, rejected):
                problems.append(f"{summary.name} {row['policy']}: L/Q differ from {slots.name}")
            if not _in_unit(row["AUT_F1"]):
                problems.append(f"{summary.name} {row['policy']}: AUT_F1 outside [0, 1]")
    auts = [
        (path.name, r["value"])
        for path in out.glob("decay_seed*.csv")
        for r in _rows(path)
        if r["slot"] in ("AUT", "AUT_cml")
    ]
    auts += [(p.name, r["aut"]) for p in out.glob("tuning_seed*.csv") for r in _rows(p)]
    if (out / "aggregate.csv").exists():
        auts += [("aggregate.csv", r["aut_mean"]) for r in _rows(out / "aggregate.csv")]
    if (out / "bias_grid.csv").exists():
        auts += [("bias_grid.csv", r["f1"]) for r in _rows(out / "bias_grid.csv")]
    problems += [f"{name}: value {v} outside [0, 1]" for name, v in auts if not _in_unit(v)]
    return problems


def quality(out: Path) -> float:
    """Baseline AUT(F1) point value, or bias_grid's realistic F1 at (0.1, 0.1)."""
    if (out / "bias_grid_summary.csv").exists():
        for r in _rows(out / "bias_grid_summary.csv"):
            if (r["scenario"], float(r["phi"]), float(r["delta"])) == ("realistic", 0.1, 0.1):
                return float(r["mean_f1"])
    for r in _rows(out / "aggregate.csv"):
        if (r["metric"], r["mode"]) == ("f1", "point"):
            return float(r["aut_mean"])
    raise ValueError(f"no quality figure in {out}")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def paired_ratio(order: list[tuple[tuple[int, bool], float]], num, den) -> float:
    """Median ratio of each ``num`` run's time to the latest ``den`` run before it.

    Pairing neighbours in time keeps the host's slow drift out of the ratio.
    """
    ratios, last = [], None
    for kind, t in order:
        if kind == den:
            last = t
        elif kind == num and last is not None:
            ratios.append(t / last)
    return statistics.median(ratios)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Session:
    """One workload's runs: timed, checked, and counted."""

    def __init__(self, inputs: dict, wdir: Path, runner: Runner) -> None:
        self.inputs = inputs
        self.wdir = wdir
        self.runner = runner
        self.out = wdir / "out"
        self.reference: str | None = None
        self.bytes_written = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, workers: int, traced: bool = False) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["run", "--config", str(self.inputs["config"]), "--out", str(self.out)]
        argv += ["--workers", str(workers)]
        spans = self.wdir / "spans.json" if traced else None
        reply = self.runner.call(argv, spans, calibrate=True)
        problems = [] if reply["exit"] == 0 else [f"exit code {reply['exit']}"]
        if not problems:
            sha, size = digest(self.out)
            if self.reference is None:
                self.reference, self.bytes_written = sha, size
            elif sha != self.reference:
                problems.append(f"output bytes differ from the first run (workers={workers})")
            problems += check_outputs(self.out, self.wdir, self.runner)
        if traced and not problems:
            reply["layers"] = layer_metrics(json.loads(spans.read_text(encoding="utf-8")))
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        return reply


def measure(args: argparse.Namespace) -> dict:
    spm = TINY_SAMPLES_PER_MONTH if args.tiny else SAMPLES_PER_MONTH[args.workload]
    wdir = WORK / args.workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    runner = Runner()
    try:
        inputs = build_inputs(args.workload, args.seed, spm, wdir, runner)
        setup_s, setup_raw_s = time_setup(2 if args.tiny else SETUP_REPEATS)
        session = Session(inputs, wdir, runner)
        workers = inputs["workers"]
        warm = session.run(workers)
        if warm["exit"] != 0:
            raise RuntimeError(f"warm-up run failed: {session.problems}")
        quality_f1 = quality(session.out)

        # Each schedule entry is (workers, traced). On a pooled config the
        # untraced serial runs give cli.pool_speedup and the reference for
        # the trace overhead; every serial run follows a pooled one, so both
        # kinds start from the same state of the machine.
        if not args.trace:
            schedule = [(workers, False)]
        elif workers > 1:
            schedule = [(workers, False), (1, False), (workers, False), (1, True)]
        else:
            schedule = [(1, False), (1, True)]
        runs: dict[tuple[int, bool], list[dict]] = {kind: [] for kind in schedule}
        order: list[tuple[tuple[int, bool], float]] = []
        deadline = time.perf_counter() + args.seconds
        last = 0.0
        i = 0
        while i < len(schedule) or time.perf_counter() + last < deadline:
            kind = schedule[i % len(schedule)]
            started = time.perf_counter()
            runs[kind].append(session.run(*kind))
            order.append((kind, runs[kind][-1]["norm_s"]))
            last = time.perf_counter() - started
            i += 1
        if not args.trace and workers > 1:
            session.run(1)  # worker-count determinism: serial bytes must match
    finally:
        runner.close()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
    }
    if not args.trace:
        timed = runs[(workers, False)]
        times = [r["norm_s"] for r in timed]
        p50 = statistics.median(times)
        tail_s, tail_pct = tail(times)
        raw = [r["wall_s"] for r in timed]
        result["samples"] = len(timed)
        result["tail_percentile"] = tail_pct
        result["raw"] = {
            "setup_s": setup_raw_s,
            "run_s_p50": statistics.median(raw),
            "run_s_tail": tail(raw)[0],
            "host_speed": statistics.median(
                hostspeed.REF_NOMINAL_S / statistics.fmean(r["ref_s"]) for r in timed
            ),
        }
        result["metrics"] = {
            "setup_s": setup_s,
            "run_s_p50": p50,
            "run_s_tail": tail_s,
            "samples_per_s": inputs["rows"] / p50,
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in timed) / 1024.0,
            "quality_f1": quality_f1,
        }
        return result

    traced = [r["layers"] for r in runs[(1, True)] if "layers" in r]
    if not traced:
        raise RuntimeError(f"no traced run passed its checks: {session.problems}")
    layers = {key: statistics.median(t[key] for t in traced) for key in traced[0]}
    layers["cli.pool_speedup"] = (
        paired_ratio(order, (1, False), (workers, False)) if workers > 1 else 1.0
    )
    layers["cli.bytes_written"] = session.bytes_written
    layers["trace_overhead_frac"] = paired_ratio(order, (1, True), (1, False)) - 1.0
    result["samples"] = len(traced)
    result["metrics"] = layers
    return result


def report(result: dict, units: dict[str, str]) -> str:
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  nproc {os.cpu_count()}",
        f"samples {result['samples']}" + (
            f"  (run_s_tail is p{result['tail_percentile']:.0f})"
            if "tail_percentile" in result
            else "  (per-layer values are medians over traced runs)"
        ),
    ]
    lines += [f"  {name:34s} {result['metrics'][name]:>16.6g} {unit}" for name, unit in units.items()]
    frac = result["failed"] / result["attempted"]
    lines.append(f"  {'failed_frac':34s} {frac:>16.6g} ratio  ({result['failed']}/{result['attempted']})")
    if "raw" in result:
        raw = result["raw"]
        lines.append(
            f"  raw wall times (host speed {raw['host_speed']:.3f} of nominal): "
            f"setup_s {raw['setup_s']:.4f}  run_s_p50 {raw['run_s_p50']:.4f}  "
            f"run_s_tail {raw['run_s_tail']:.4f}"
        )
    lines += [f"  problem: {p}" for p in result["problems"]]
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }
    return "\n".join(lines) + "\n" + json.dumps(summary)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if not (SRC / "driftlab" / "cli.py").is_file():
        print(f"error: no driftlab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (RuntimeError, ValueError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report(result, PER_LAYER_UNITS if args.trace else END_TO_END_UNITS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
