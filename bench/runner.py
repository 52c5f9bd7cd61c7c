"""Warm driftlab process that runs one CLI call per forked child.

Reads one JSON request per line on stdin: ``{"argv": [...], "spans": path
or null, "calibrate": bool}``. For each it forks; the child calls
``driftlab.cli.main(argv)`` (with the span recorder installed when
``spans`` names a file, written there on exit) and leaves with main's exit
code. The parent answers with
one JSON line: the child's wall time from fork to reap, its exit code and
its peak RSS, which ``wait4`` reports as the largest among the child and
the pool workers it reaped. With ``calibrate`` it also times the host-speed
kernel (``hostspeed.py``) just before the fork and just after the reap.

Forking from an already-imported interpreter keeps import time out of the
timed run (the benchmark reports it as ``setup_s``), while every run still
starts from the same state: nothing a run caches survives into the next.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback

import driftlab.cli

import hostspeed
import tracing


# A run that hangs is killed and counts as failed; the benchmark must end.
RUN_TIMEOUT_S = 120


def _child(argv: list[str], spans: str | None) -> int:
    signal.alarm(RUN_TIMEOUT_S)
    os.dup2(2, 1)  # the CLI's stdout must not reach the reply pipe
    if spans:
        tracing.install()
    code = driftlab.cli.main(argv)
    if spans:
        tracing.dump(spans)
    return code


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        refs = [hostspeed.reference_s()] if req.get("calibrate") else []
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            code = 70
            try:
                code = _child(req["argv"], req["spans"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except BaseException:  # noqa: BLE001 - report and exit non-zero
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        if refs:
            refs.append(hostspeed.reference_s())
        reply = {
            "wall_s": wall,
            "exit": os.waitstatus_to_exitcode(status),
            "maxrss_kb": usage.ru_maxrss,
            "ref_s": refs,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
