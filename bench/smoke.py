"""Smoke check of the benchmark itself, at tiny input sizes.

    python3 bench/smoke.py

Runs every workload of ``run.py`` once untraced and once traced with
``--tiny`` and exits 1 unless each run is correct and prints exactly the
metrics BENCHMARK.json names, each with its unit, and unless every entry
point the tracer wraps still exists and was called at least once. A
renamed entry point therefore fails here instead of reading 0 s.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
from run import WORKLOADS  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for module, attr, _ in tracing.TARGETS:
        try:
            tracing.resolve(module, attr)
        except AttributeError as exc:
            failures.append(str(exc))

    called: set[str] = set()
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload]
            argv += ["--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                failures.append(f"{tag}: {result['failed']}/{result['attempted']} runs failed")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                failures.append(f"{tag}: metrics {printed} differ from BENCHMARK.json {expected}")
            if trace:
                spans = json.loads((ROOT / ".bench_work" / workload / "spans.json").read_text())
                called |= {span[1] for span in spans}
            print(f"ok  {tag}", flush=True)

    failures += [
        f"traced entry point {module}.{attr} was never called"
        for module, attr, _ in tracing.TARGETS
        if attr not in called
    ]
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
