"""Span tracing for the traced run, installed from outside the library.

`install` replaces the public functions of plclab listed in `TRACED` with
wrappers, at every module attribute of the package that holds them, so calls
between plclab's own modules are traced as well as the benchmark's calls.
Each wrapper appends one span [name, start, end, parent, op, counters] to
the tracer's in-memory list; the worker writes the list out when it ends and
`layer_metrics` turns it into per-operation numbers. Untraced runs never
call `install`, so they run the library unpatched.

The layer of a span is its name up to the first dot. A span's self time is
its duration minus the durations of its direct children; calls are nested
on one thread, so the self times of an operation's spans add up to the
duration of its root span exactly.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
from math import comb
from time import perf_counter

ROOT = "bench.op"
COUNT = "bench.count"

LAYERS = (
    "gflinalg",
    "jplc_encoder",
    "iplc_encoder",
    "plc_engine",
    "protocols",
    "reductions",
    "cli_harness",
    "audit",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record):
        record[2] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id, fn):
        """Run one benchmark operation under a root span."""
        self.op = op_id
        record = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(record)
            self.op = None

    def wrap(self, name, fn, counters=None, under=None):
        """Trace calls of fn as spans called name.

        counters(result, args, kwargs) -> dict runs in a child span of its own
        (layer "bench"), so counting never inflates the layer's self time.
        With under set, only calls made directly inside a span whose name
        starts with it are recorded; other calls run untraced.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if under is not None and not (
                self._stack and self.spans[self._stack[-1]][0].startswith(under)
            ):
                return fn(*args, **kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if counters is not None:
                count = self._open(COUNT)
                try:
                    record[5] = counters(result, args, kwargs)
                finally:
                    self._close(count)
            return result

        return traced


# ---------------------------------------------------------------------------
# What is traced. Counters are taken from return values and arguments at the
# layer boundary.

def _query_counts(descriptor, args, kwargs):
    n, m = descriptor.num_servers, descriptor.num_streams
    reps = descriptor.stream_length // n**m
    skeleton = n * reps * sum(comb(m, ell) * (n - 1) ** (ell - 1) for ell in range(1, m + 1))
    return {"kept": descriptor.total_sums(), "skeleton": skeleton}


def _answer_counts(answers, args, kwargs):
    descriptor = args[0]
    return {
        "download": sum(len(block) for server in answers for block in server),
        "upload": sum(
            len(wire_sum)
            for server in descriptor.per_server
            for block in server
            for wire_sum in block
        ),
    }


def _transcript_counts(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _audit_counts(report, args, kwargs):
    return {"paths": report.weight, "views": report.num_views}


# (module, function, span name, counters)
TRACED = (
    ("gflinalg", "row_space_vector_with_support", "gflinalg.support_search", None),
    ("gflinalg", "rank", "gflinalg.rank", None),
    ("jplc_encoder", "build_grs_matrix", "jplc_encoder.build", None),
    ("iplc_encoder", "build_partition_matrix", "iplc_encoder.build", None),
    ("plc_engine", "generate_queries", "plc_engine.generate_queries", _query_counts),
    ("plc_engine", "answer_queries", "plc_engine.answer", _answer_counts),
    ("plc_engine", "reconstruct", "plc_engine.reconstruct", None),
    ("protocols", "run_jplc", "protocols.run_jplc", None),
    ("protocols", "run_iplc", "protocols.run_iplc", None),
    ("protocols", "coded_family_streams", "protocols.streams", None),
    ("reductions", "solve_pir_psi_via_jplc", "reductions.pir_psi", None),
    ("reductions", "solve_pir_si_via_iplc", "reductions.pir_si", None),
    ("reductions", "random_side_info_instance", "reductions.side_info", None),
    ("cli_harness", "main", "cli_harness.main", None),
    ("cli_harness", "write_transcript", "cli_harness.write_transcript", _transcript_counts),
    ("cli_harness", "read_transcript", "cli_harness.read_transcript", None),
    ("audit", "audit_joint_privacy", "audit.joint", _audit_counts),
    ("audit", "audit_individual_privacy", "audit.individual", _audit_counts),
    ("audit", "audit_reduction_marginal", "audit.reduction", _audit_counts),
    ("audit", "certify_engine_privacy", "audit.certify", None),
)


def install(tracer: Tracer) -> None:
    """Patch the traced functions wherever a plclab module refers to them."""
    modules = [
        module
        for name, module in sys.modules.items()
        if module is not None and (name == "plclab" or name.startswith("plclab."))
    ]
    for module_name, attr, span, counters in TRACED:
        original = getattr(sys.modules[f"plclab.{module_name}"], attr)
        wrapper = tracer.wrap(span, original, counters)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    engine = sys.modules["plclab.plc_engine"]
    core = sys.modules["plclab.protocol_core"]
    # PlcInstance validates (and ranks the stack) when it is constructed.
    engine.PlcInstance.__post_init__ = tracer.wrap(
        "plc_engine.instance", engine.PlcInstance.__post_init__
    )
    # Demand.evaluate is the in-run verification when protocols calls it.
    core.Demand.evaluate = tracer.wrap(
        "protocols.verify", core.Demand.evaluate, under="protocols.run_"
    )


# ---------------------------------------------------------------------------
# Aggregation.

def layer_metrics(spans):
    """Per-operation layer numbers from the spans of one traced run.

    Times are mean milliseconds per operation and counts are per operation;
    ratios are taken over the whole run. Spans outside an operation (input
    generation between operations) are left out. bench.op_p50_ms is the
    median operation time and bench.layers_p50_ms the median, over
    operations, of the self times of the library's layers, without the
    benchmark's own time in bench.self_ms.
    """
    self_s = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_s[s[3]] -= s[2] - s[1]
    inclusive, calls, counts = {}, {}, {}
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    op_s, op_layers_s = {}, {}  # per operation: duration, layers' self time
    for s, own in zip(spans, self_s):
        if s[4] is None:
            continue
        name = s[0]
        layer = name.split(".", 1)[0]
        inclusive[name] = inclusive.get(name, 0.0) + (s[2] - s[1])
        calls[name] = calls.get(name, 0) + 1
        for key, value in (s[5] or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + value
        layer_self[layer] += own
        if name == ROOT:
            op_s[s[4]] = s[2] - s[1]
        if layer != "bench":
            op_layers_s[s[4]] = op_layers_s.get(s[4], 0.0) + own
    ops = calls.get(ROOT, 0)
    if ops == 0:
        raise ValueError("the trace holds no operations")

    def ms(name):
        return 1000.0 * inclusive.get(name, 0.0) / ops

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    op_ms = ms(ROOT)
    audit_ms = sum(ms(n) for n in ("audit.joint", "audit.individual", "audit.reduction", "audit.certify"))
    build_ms = ms("jplc_encoder.build") + ms("iplc_encoder.build")
    audit_spans = ("audit.joint", "audit.individual", "audit.reduction")
    writes = calls.get("cli_harness.write_transcript", 0)
    metrics = {
        "gflinalg.support_search_ms": ms("gflinalg.support_search"),
        "gflinalg.support_search_calls": per_op(calls.get("gflinalg.support_search", 0)),
        "gflinalg.rank_ms": ms("gflinalg.rank"),
        "jplc_encoder.build_ms": ms("jplc_encoder.build"),
        "jplc_encoder.builds": per_op(calls.get("jplc_encoder.build", 0)),
        "iplc_encoder.build_ms": ms("iplc_encoder.build"),
        "iplc_encoder.builds": per_op(calls.get("iplc_encoder.build", 0)),
        "plc_engine.instance_ms": ms("plc_engine.instance"),
        "plc_engine.generate_queries_ms": ms("plc_engine.generate_queries"),
        "plc_engine.answer_ms": ms("plc_engine.answer"),
        "plc_engine.reconstruct_ms": ms("plc_engine.reconstruct"),
        "plc_engine.generate_queries_share": ratio(ms("plc_engine.generate_queries"), op_ms),
        "plc_engine.reconstruct_share": ratio(ms("plc_engine.reconstruct"), op_ms),
        "plc_engine.kept_ratio": ratio(
            counts.get(("plc_engine.generate_queries", "kept"), 0),
            counts.get(("plc_engine.generate_queries", "skeleton"), 0),
        ),
        "plc_engine.download_symbols": per_op(counts.get(("plc_engine.answer", "download"), 0)),
        "plc_engine.upload_terms": per_op(counts.get(("plc_engine.answer", "upload"), 0)),
        "protocols.streams_ms": ms("protocols.streams"),
        "protocols.verify_ms": ms("protocols.verify"),
        "cli_harness.transcript_write_ms": ms("cli_harness.write_transcript"),
        "cli_harness.transcript_read_ms": ms("cli_harness.read_transcript"),
        "cli_harness.transcript_bytes": ratio(
            counts.get(("cli_harness.write_transcript", "bytes"), 0), writes
        ),
        "audit.certify_ms": ms("audit.certify"),
        "audit.encoder_share": ratio(build_ms, audit_ms),
        "audit.paths": per_op(sum(counts.get((n, "paths"), 0) for n in audit_spans)),
        "audit.views": per_op(sum(counts.get((n, "views"), 0) for n in audit_spans)),
        "bench.op_mean_ms": op_ms,
        "bench.op_p50_ms": 1000.0 * statistics.median(op_s.values()),
        "bench.layers_p50_ms": 1000.0 * statistics.median(
            op_layers_s.get(op, 0.0) for op in op_s
        ),
        "bench.ops": ops,
    }
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_ms"] = 1000.0 * seconds / ops
    return metrics
