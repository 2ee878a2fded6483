"""The benchmark's workloads: seeded, endless streams of checked operations.

A workload is a generator of `Op`s against the public API of plclab. The
generator draws every input from the workload rng before it yields the
operation, so input generation stays outside the timed call. Operations come
in cycles that visit every shape of the workload once; the worker times only
`Op.call` and then runs `Op.check`, which raises `CheckFailed` on a wrong
result and otherwise returns the operation's work counters.

Why these four: `plan-heavy` is dominated by client-side query planning,
`wide-field` by the encoders' support search, `small-calls` by per-call fixed
costs in the CLI and transcripts, and `audit` by encoder builds and exact
view bookkeeping. Each optimisation named in the ROADMAP moves one of them
and should leave another unchanged.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# Sampled audits draw this many encoder views per call.
AUDIT_SAMPLES = 2000


class CheckFailed(Exception):
    """An operation returned a result that differs from the expected one."""


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def _protocol_op(api, kind, runner, capacity, n, k, d, field, t_len, rng):
    """One verified run of `runner` ("run_jplc" or "run_iplc") on fresh inputs."""
    dataset = api.random_dataset(field, k, t_len, rng)
    demand = api.random_demand(field, k, d, rng)
    op_rng = random.Random(rng.getrandbits(64))

    def call():
        return getattr(api, runner)(n, dataset, demand, op_rng, verify=True)

    def check(run):
        _require(
            tuple(run.recovered) == demand.evaluate(dataset).entries,
            "recovered stream differs from Demand.evaluate",
        )
        downloaded = run.report.downloaded_symbols
        _require(
            downloaded == api.expected_download(run.instance),
            "download differs from expected_download",
        )
        _require(
            Fraction(downloaded, t_len) == 1 / capacity,
            "download per symbol differs from 1/capacity",
        )
        return {"symbols": t_len, "download": {kind: [downloaded, t_len]}}

    return Op(kind, call, check)


def plan_heavy(api, rng, workdir):
    """jplc N=2 K=5 D=2 q=5 T=1024 (M=10): the ROADMAP headline row."""
    field = api.PrimeField(5)
    capacity = api.jplc_capacity(2, 5, 2)
    while True:
        yield _protocol_op(
            api, "jplc-N2K5D2", "run_jplc", capacity, 2, 5, 2, field, 1024, rng
        )


def wide_field(api, rng, workdir):
    """jplc N=3 K=4 D=2 then iplc N=3 K=6 D=2, q=8191 T=729.

    One operation is the pair: the two runs cost about 2:1, and a median
    taken across the two cost modes would jump between them.
    """
    field = api.PrimeField(8191)
    jplc_cap = api.jplc_capacity(3, 4, 2)
    iplc_cap = api.iplc_capacity(3, 6, 2)
    while True:
        jplc = _protocol_op(
            api, "jplc-N3K4D2", "run_jplc", jplc_cap, 3, 4, 2, field, 729, rng
        )
        iplc = _protocol_op(
            api, "iplc-N3K6D2", "run_iplc", iplc_cap, 3, 6, 2, field, 729, rng
        )

        def check(runs, jplc=jplc, iplc=iplc):
            first, second = jplc.check(runs[0]), iplc.check(runs[1])
            return {
                "symbols": first["symbols"] + second["symbols"],
                "download": {**first["download"], **second["download"]},
            }

        yield Op(
            "jplc+iplc-N3",
            lambda jplc=jplc, iplc=iplc: (jplc.call(), iplc.call()),
            check,
        )


# (name, mode arguments, protocol, K, D) of the in-process CLI calls, all at
# N=2 q=3; the reductions fetch one message with one side message (D=2).
SMALL_CALLS = (
    ("jplc", ["--mode", "jplc", "--messages", "3", "--demand-size", "2"], "jplc", 3, 2),
    ("iplc", ["--mode", "iplc", "--messages", "5", "--demand-size", "2"], "iplc", 5, 2),
    ("pir-psi", ["--mode", "pir-psi", "--messages", "3", "--side-count", "1"], "jplc", 3, 2),
    ("pir-si", ["--mode", "pir-si", "--messages", "5", "--side-count", "1"], "iplc", 5, 2),
)


def _fresh(*paths):
    """Remove earlier outputs so a failed call cannot pass on a stale file."""
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def _read_report(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def small_calls(api, rng, workdir):
    """cli_harness.main runs that write a transcript, each followed by a replay."""
    cli = api.cli_harness
    capacities = {
        name: (api.jplc_capacity if proto == "jplc" else api.iplc_capacity)(2, k, d)
        for name, _, proto, k, d in SMALL_CALLS
    }
    while True:
        for name, mode_args, _, _, _ in SMALL_CALLS:
            transcript = os.path.join(workdir, f"{name}.plct")
            report = os.path.join(workdir, f"{name}.json")
            argv = mode_args + [
                "--servers", "2", "--field", "3",
                "--seed", str(rng.randrange(2**31)),
                "--transcript", transcript, "--out", report,
            ]
            capacity = capacities[name]

            def check_run(code, name=name, report=report, capacity=capacity):
                _require(code == 0, f"exit code {code}")
                rep = _read_report(report)
                _require(rep["match"] is True, "recovered stream does not match")
                t_len, downloaded = rep["stream_length"], rep["downloaded_symbols"]
                _require(
                    Fraction(downloaded, t_len) == 1 / capacity,
                    "download per symbol differs from 1/capacity",
                )
                return {"symbols": t_len, "download": {f"cli-{name}": [downloaded, t_len]}}

            _fresh(transcript, report)
            yield Op(f"cli-{name}", lambda argv=argv: cli.main(argv), check_run)

            def check_replay(code, report=report):
                _require(code == 0, f"exit code {code}")
                rep = _read_report(report)
                _require(
                    rep["verified"] is True and rep["mismatch"] is None,
                    f"replay not verified: {rep['mismatch']}",
                )
                return {"symbols": rep["params"]["stream_length"]}

            replay_argv = ["--mode", "replay", "--transcript", transcript, "--out", report]
            _fresh(report)
            yield Op(
                f"replay-{name}", lambda argv=replay_argv: cli.main(argv), check_replay
            )


def _check_audit(exact: bool):
    def check(rep):
        _require(rep.passed, f"audit failed: {rep}")
        if exact:
            _require(
                rep.details["exact_statistic"] == "0",
                f"exact statistic {rep.details['exact_statistic']}",
            )
        return {"paths": rep.weight, "views": rep.num_views}

    return check


def _check_certificate(rep):
    _require(rep.passed, f"certificate failed: {rep.details['failed']}")
    return {}


def audit(api, rng, workdir):
    """Two sampled audits, two exhaustive ones and an engine certificate, N=2."""
    f2, f3, f5 = api.PrimeField(2), api.PrimeField(3), api.PrimeField(5)
    while True:
        r1 = random.Random(rng.getrandbits(64))
        yield Op(
            "individual-sampled",
            lambda r=r1: api.audit_individual_privacy(
                2, 5, 2, f3, rng=r, mode="sampled", samples=AUDIT_SAMPLES
            ),
            _check_audit(exact=False),
        )
        r2 = random.Random(rng.getrandbits(64))
        yield Op(
            "pir-si-sampled",
            lambda r=r2: api.audit_reduction_marginal(
                "pir-si", 2, 5, 1, f3, rng=r, mode="sampled", samples=AUDIT_SAMPLES
            ),
            _check_audit(exact=False),
        )
        yield Op(
            "joint-encoder-exhaustive",
            lambda: api.audit_joint_privacy(2, 3, 2, f3),
            _check_audit(exact=True),
        )
        yield Op(
            "joint-full-exhaustive",
            lambda: api.audit_joint_privacy(2, 2, 1, f2, layer="full"),
            _check_audit(exact=True),
        )
        # An M = C(4,2) = 6 jplc stack, built outside the timed call.
        demand = api.random_demand(f5, 4, 2, rng)
        enc = api.build_grs_matrix(2, demand, 4, f5, random.Random(rng.getrandbits(64)))
        stack = api.MatrixGF([cv.entries for cv in enc.combination_vectors], f5)
        yield Op(
            "certify-M6",
            lambda stack=stack: api.certify_engine_privacy(2, stack, 2**6),
            _check_certificate,
        )


# name -> (generator, operations per cycle, op_tail_ms percentile).
#
# The tail percentile is fixed per workload so that two versions of the code
# are compared at the same percentile however many operations fit in a run.
# Each is the highest that leaves at least ten samples beyond it at the
# fewest operations a 25 s run held at the seed commit (plan-heavy 40,
# audit 55), capped at p95 because p99 on small-calls is decided by a few
# stalls. wide-field holds only 15-17 operations, too few for ten beyond any
# percentile above the median; its p90 has one or two beyond.
WORKLOADS = {
    "plan-heavy": (plan_heavy, 1, 75),
    "wide-field": (wide_field, 1, 90),
    "small-calls": (small_calls, 2 * len(SMALL_CALLS), 95),
    "audit": (audit, 5, 81),
}
