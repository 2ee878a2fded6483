"""plclab benchmark: one workload, one closed-loop client, checked results.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan-heavy --seed 1 --seconds 10 --trace 0

With --trace 0 it runs two set-up-only processes and one measuring process,
each a fresh interpreter, and reports the end-to-end metrics. With --trace 1
it runs one unpatched and one traced process for half the time each, and
reports the per-layer metrics, the tracing overhead among them. Every metric
is printed by name with its unit; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.

Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Each run must end within 180 s; children share this budget.
BUDGET_S = 170.0
SETUP_PROCESSES = 3  # set-ups per run; the measuring process is the last one


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


class _Children:
    """Starts worker processes one after another within the run's budget."""

    def __init__(self, root, args):
        self.root = root
        self.args = args
        self.deadline = monotonic() + BUDGET_S
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env["PYTHONHASHSEED"] = "0"
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.out_dir = os.path.join(root, ".perfbench")
        os.makedirs(self.out_dir, exist_ok=True)

    def run(self, mode, seconds, out_name=None):
        out = os.path.join(self.out_dir, out_name or f"{mode}-{os.getpid()}.json")
        cmd = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", repr(seconds),
            "--mode", mode,
            "--out", out,
        ]
        remaining = self.deadline - monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted before a worker could start")
        try:
            proc = subprocess.run(
                cmd,
                cwd=self.root,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker ran past the time budget")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        if out_name is None:
            os.remove(out)
        return result


def _all_records(results):
    return [rec for res in results for rec in res["warmup"] + res.get("ops", [])]


def _tail(durations, pct):
    """The pct-th percentile by nearest rank, and the samples beyond it."""
    ordered = sorted(durations)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def _end_to_end(setups, measure, tail_pct):
    ops = measure["ops"]
    durations = [rec[1] for rec in ops]
    busy = sum(durations)
    symbols = sum(rec[3].get("symbols", 0) for rec in ops)
    paths = sum(rec[3].get("paths", 0) for rec in ops)
    tail, beyond = _tail(durations, tail_pct)
    metrics = {
        "setup_s": statistics.median(res["setup_s"] for res in setups),
        "ops_per_s": len(ops) / busy,
        "op_p50_ms": 1000.0 * statistics.median(durations),
        "op_tail_ms": 1000.0 * tail,
        "peak_rss_mb": measure["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "ops_per_s": f"{len(ops)} operations over {busy:.3f} s inside the API",
        "op_p50_ms": f"n={len(ops)}",
        "op_tail_ms": f"p{tail_pct}, n={len(ops)}, {beyond} beyond",
    }
    extra = {
        "symbols_per_s": (symbols / busy, "1/s"),
        "audit_paths_per_s": (paths / busy, "1/s"),
    }
    return metrics, notes, extra


def _downloads(records):
    """Exact download per symbol of each shape that downloads."""
    per_shape = {}
    for _, _, _, counters in records:
        for shape, (down, t_len) in counters.get("download", {}).items():
            total = per_shape.setdefault(shape, [0, 0])
            total[0] += down
            total[1] += t_len
    return {shape: Fraction(down, t_len) for shape, (down, t_len) in sorted(per_shape.items())}


def _print_metric(name, value, unit, note=""):
    print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")


def _trace_run(children, args, declared):
    half = args.seconds / 2.0
    plain = children.run("measure", half)
    traced = children.run("trace", half, out_name=f"trace-{args.workload}.json")
    metrics = tracing.layer_metrics(traced["spans"])
    replays = [rec[1] for rec in traced["ops"] if rec[0].startswith("replay-")]
    metrics["cli_harness.replay_ms"] = (
        1000.0 * statistics.mean(replays) if replays else 0.0
    )
    plain_ms = 1000.0 * statistics.median(rec[1] for rec in plain["ops"])
    metrics["plclab.import_s"] = traced["import_s"]
    metrics["bench.untraced_op_p50_ms"] = plain_ms
    metrics["bench.trace_overhead_ms"] = metrics["bench.op_p50_ms"] - plain_ms
    selected = _select(declared, metrics)
    records = _all_records([plain, traced])
    print(f"workload {args.workload}, seed {args.seed}: traced run "
          f"({len(traced['ops'])} traced and {len(plain['ops'])} unpatched operations)")
    for name, (value, unit) in selected.items():
        _print_metric(name, value, unit)
    print(f"  spans written to .perfbench/trace-{args.workload}.json")
    return records, selected


def _plain_run(children, args, declared):
    setups = [children.run("setup", args.seconds) for _ in range(SETUP_PROCESSES - 1)]
    measure = children.run("measure", args.seconds)
    setups.append(measure)
    metrics, notes, extra = _end_to_end(setups, measure, WORKLOADS[args.workload][2])
    selected = _select(declared, metrics)
    records = _all_records(setups)
    failed = sum(1 for rec in records if not rec[2])
    print(f"workload {args.workload}, seed {args.seed}: one closed-loop client, "
          f"{len(measure['ops'])} timed operations in {measure['loop_s']:.2f} s")
    for name, (value, unit) in selected.items():
        _print_metric(name, value, unit, notes.get(name, ""))
    for name, (value, unit) in extra.items():
        _print_metric(name, value, unit)
    _print_metric("error_rate", failed / len(records), "ratio", f"{failed} of {len(records)} operations")
    for shape, per_symbol in _downloads(records).items():
        print(f"  {'download_per_symbol':<36} {str(per_symbol):>14} {'ratio':<6} "
              f"{shape}, checked equal to 1/capacity on every operation")
    return records, selected


def _declared(root):
    """Metric names and units per kind, as BENCHMARK.json declares them."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _select(declared, computed):
    """Every declared metric, with its unit; fails when the two sets differ."""
    if set(declared) != set(computed):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: {sorted(set(declared) ^ set(computed))}"
        )
    return {name: (computed[name], unit) for name, unit in declared.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    package = os.path.join(root, "src", "plclab")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.stderr.write("error: run from the root of a plclab checkout (src/plclab is missing)\n")
        return 2
    # Byte-compile once so that no measured import pays for compilation.
    if not compileall.compile_dir(package, quiet=1):
        sys.stderr.write("error: src/plclab does not compile\n")
        return 2
    children = _Children(root, args)
    try:
        declared = _declared(root)
        if args.trace:
            records, metrics = _trace_run(children, args, declared["per_layer"])
        else:
            records, metrics = _plain_run(children, args, declared["end_to_end"])
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    failed = sum(1 for rec in records if not rec[2])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
