"""One benchmark process: import plclab, warm up, run a closed loop, report.

Run from the root of a checkout, with src on the import path:

    python3 perfbench/worker.py --workload plan-heavy --seed 1 --seconds 10 \
        --mode measure --out .perfbench/result.json

Modes: `setup` stops after the import and one warm-up cycle; `measure`
then runs the timed loop unpatched; `trace` installs the span tracer after
the import and runs the same loop traced. One client sends the next
operation only after the previous one has returned and been checked. The
loop ends at the first cycle boundary after --seconds, so --seconds 0 runs
exactly one cycle. The result, and in trace mode every span, is written to
--out as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import traceback
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

# Failures are counted, not raised; this many are also printed in full.
_SHOWN_FAILURES = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "measure", "trace"])
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


class _Runner:
    """Runs operations one at a time, timing the call and checking the result."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.failures = 0

    def run(self, op, op_id):
        counters, ok, seconds = {}, False, None
        start = perf_counter()
        try:
            if self.tracer is None:
                result = op.call()
            else:
                result = self.tracer.run_op(op_id, op.call)
            seconds = perf_counter() - start
            counters = op.check(result)
            ok = True
        except (Exception, SystemExit) as exc:
            # A wrong result or an exception fails this operation only.
            if seconds is None:
                seconds = perf_counter() - start
            self.failures += 1
            if self.failures <= _SHOWN_FAILURES:
                kind = "check" if isinstance(exc, CheckFailed) else "exception"
                sys.stderr.write(f"operation {op.kind} failed ({kind}): {exc!r}\n")
                traceback.print_exc(file=sys.stderr)
        return [op.kind, seconds, ok, counters]


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    make_ops, cycle, _ = WORKLOADS[args.workload]

    start = perf_counter()
    import plclab
    import plclab.cli_harness  # noqa: F401  (reached as plclab.cli_harness)

    import_s = perf_counter() - start

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)

    scratch = os.path.join(root, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=scratch)
    try:
        ops = make_ops(plclab, random.Random(args.seed), workdir)
        runner = _Runner(tracer)
        warmup = [runner.run(next(ops), None) for _ in range(cycle)]
        result = {
            "import_s": import_s,
            "setup_s": import_s + sum(rec[1] for rec in warmup),
            "warmup": warmup,
        }
        if args.mode != "setup":
            if tracer is not None:
                tracer.spans.clear()
            records = []
            loop_start = perf_counter()
            while True:
                for _ in range(cycle):
                    records.append(runner.run(next(ops), len(records)))
                if perf_counter() - loop_start >= args.seconds:
                    break
            result["ops"] = records
            result["loop_s"] = perf_counter() - loop_start
            result["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            if tracer is not None:
                result["spans"] = tracer.spans
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
