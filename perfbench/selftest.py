"""Self-test of the benchmark's traced run.

Runs the traced run twice per workload with the same seed and --seconds 0,
which times exactly one cycle in the unpatched and in the traced process,
and checks that

* every operation passed its check,
* the deterministic counters are identical between the two runs and nonzero
  where the workload exercises them,
* the median, over operations, of the library layers' self times is within
  the reported tracing overhead, plus TOLERANCE of it, of the untraced median
  operation time, and
* the benchmark's own time inside operations, bench.self_ms, is at most
  BENCH_SHARE of the traced operation time, so that time spent outside every
  traced layer shows.

Run from the root of a checkout; exit code 0 means every check held:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

SEED = 20211
WORKLOADS = ("plan-heavy", "wide-field", "small-calls", "audit")
TOLERANCE = 0.05  # share of the untraced median operation time
BENCH_SHARE = 0.05  # share of the traced mean operation time
DETERMINISTIC = (
    "plc_engine.download_symbols",
    "plc_engine.upload_terms",
    "plc_engine.kept_ratio",
    "audit.paths",
    "audit.views",
)
# Counters each workload must move; the others may read 0.
_ENGINE = DETERMINISTIC[:3]
EXERCISED = {
    "plan-heavy": _ENGINE,
    "wide-field": _ENGINE,
    "small-calls": _ENGINE,
    "audit": ("plc_engine.kept_ratio", "audit.paths", "audit.views"),
}


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, {name: m["value"] for name, m in result["metrics"].items()}


def check(workload):
    problems = []
    first, a = traced_run(workload)
    second, b = traced_run(workload)
    for result in (first, second):
        if not result["correct"]:
            problems.append(f"{result['failed']} of {result['attempted']} operations failed")
    for name in DETERMINISTIC:
        if a[name] != b[name]:
            problems.append(f"{name} differs between runs: {a[name]} != {b[name]}")
    for name in EXERCISED[workload]:
        if not a[name] > 0:
            problems.append(f"{name} is {a[name]}, expected a positive count")
    for m in (a, b):
        untraced = m["bench.untraced_op_p50_ms"]
        allowed = abs(m["bench.trace_overhead_ms"]) + TOLERANCE * untraced
        if abs(m["bench.layers_p50_ms"] - untraced) > allowed:
            problems.append(
                f"layers' self times take {m['bench.layers_p50_ms']:.3f} ms per operation, "
                f"untraced operations {untraced:.3f} ms, more than {allowed:.3f} ms apart"
            )
        if m["bench.self_ms"] > BENCH_SHARE * m["bench.op_mean_ms"]:
            problems.append(
                f"bench.self_ms is {m['bench.self_ms']:.3f} ms of "
                f"{m['bench.op_mean_ms']:.3f} ms per operation"
            )
    counters = ", ".join(f"{name}={a[name]:g}" for name in DETERMINISTIC)
    print(f"{workload}: {'ok' if not problems else 'FAILED'} ({counters})")
    for problem in problems:
        print(f"  {problem}")
    return not problems


def main() -> int:
    results = [check(workload) for workload in WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
