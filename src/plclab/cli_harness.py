"""Command-line front end.

Modes:
  jplc / iplc        run one private-retrieval transcript end to end
  pir-psi / pir-si   run the single-message reductions with side information
  capacity-table     print exact capacity values over a parameter grid
  audit              run a privacy / recoverability / marginal audit
  replay             re-execute a saved transcript and verify it bit-exactly

A JSON report always goes to --out (or stdout). With --format csv the
capacity-table mode additionally writes a CSV table next to --out.

Exit codes: 0 success, 1 usage error, 2 audit failure, 3 invariant
violation (including replay mismatches).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import struct
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .audit import (
    AuditReport,
    audit_individual_privacy,
    audit_joint_privacy,
    audit_recoverability,
    audit_reduction_marginal,
)
from .ffield import PrimeField, is_prime
from .gflinalg import MatrixGF, VectorGF
from .plc_engine import (
    PlcInstance,
    PlcRandomness,
    answer_queries,
    generate_queries,
    reconstruct,
)
from .protocol_core import (
    Dataset,
    Demand,
    iplc_capacity,
    jplc_capacity,
    random_dataset,
)
from .protocols import (
    InvariantViolation,
    coded_family_streams,
    minimum_stream_length,
    run_iplc,
    run_jplc,
)
from .reductions import (
    SideInfoInstance,
    random_side_info_instance,
    solve_pir_psi_via_jplc,
    solve_pir_si_via_iplc,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT_FAILURE = 2
EXIT_INVARIANT = 3

TRANSCRIPT_MAGIC = b"PLCT"
TRANSCRIPT_VERSION = 1
_SECTIONS = (
    "params",
    "dataset",
    "generator",
    "combinations",
    "randomness",
    "queries",
    "answers",
    "recovered",
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def rational_json(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_int_list(text: str, what: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list")


# ---------------------------------------------------------------------------
# Transcript files: magic, version byte, section count byte, then one
# 4-byte big-endian length prefix + canonical JSON payload per section.

def write_transcript(path: str, payload: dict) -> None:
    blob = bytearray()
    blob += TRANSCRIPT_MAGIC
    blob.append(TRANSCRIPT_VERSION)
    blob.append(len(_SECTIONS))
    for name in _SECTIONS:
        data = canonical_json(payload[name]).encode("utf-8")
        blob += struct.pack(">I", len(data))
        blob += data
    with open(path, "wb") as handle:
        handle.write(bytes(blob))


def read_transcript(path: str) -> dict:
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[:4] != TRANSCRIPT_MAGIC:
        raise ValueError("not a transcript file (bad magic)")
    if len(blob) < 6:
        raise ValueError("truncated transcript")
    if blob[4] != TRANSCRIPT_VERSION:
        raise ValueError(f"unsupported transcript version {blob[4]}")
    count = blob[5]
    if count != len(_SECTIONS):
        raise ValueError("unexpected section count")
    offset = 6
    payload = {}
    for name in _SECTIONS:
        if offset + 4 > len(blob):
            raise ValueError("truncated transcript")
        (length,) = struct.unpack_from(">I", blob, offset)
        offset += 4
        if offset + length > len(blob):
            raise ValueError("truncated transcript")
        payload[name] = json.loads(blob[offset : offset + length])
        offset += length
    if offset != len(blob):
        raise ValueError("trailing bytes after final section")
    return payload


def _tuplify(obj):
    if isinstance(obj, list):
        return tuple(_tuplify(item) for item in obj)
    return obj


def _transcript_payload(mode: str, args, dataset: Dataset, run, extra: dict) -> dict:
    demand = run.encoder.demand
    params = {
        "mode": mode,
        "servers": args.servers,
        "messages": dataset.num_streams,
        "demand_size": demand.size,
        "field": dataset.field.q,
        "stream_length": dataset.stream_length,
        "support": list(demand.indices),
        "coefficients": list(demand.coefficients.entries),
    }
    params.update(extra)
    return {
        "params": params,
        "dataset": dataset.x.row_lists(),
        "generator": run.encoder.generator.row_lists(),
        "combinations": [list(cv.entries) for cv in run.encoder.combination_vectors],
        "randomness": {
            "demand_index": run.instance.demand_index,
            "position_map": list(run.randomness.position_map),
            "signs": list(run.randomness.signs),
        },
        "queries": run.descriptor.per_server,
        "answers": run.answers,
        "recovered": list(run.recovered),
    }


# ---------------------------------------------------------------------------
# Mode implementations. Each returns (exit_code, report_dict).

def _require_prime(q: int) -> PrimeField:
    if not is_prime(q):
        raise ValueError(f"--field must be prime, got {q}")
    return PrimeField(q)


def _demand_size(args) -> int:
    if args.support:
        return len(_parse_int_list(args.support, "--support"))
    if args.demand_size is None:
        raise ValueError("either --support or --demand-size is required")
    return args.demand_size


def _make_demand(args, field: PrimeField, k: int, rng: random.Random) -> Demand:
    if args.support:
        indices = _parse_int_list(args.support, "--support")
        if args.coeffs:
            coeff_vals = _parse_int_list(args.coeffs, "--coeffs")
            if len(coeff_vals) != len(indices):
                raise ValueError("--coeffs must match --support in length")
        else:
            coeff_vals = [field.rand_nonzero_int(rng) for _ in indices]
        return Demand(tuple(indices), VectorGF(coeff_vals, field))
    indices = sorted(rng.sample(range(1, k + 1), args.demand_size))
    coeff_vals = [field.rand_nonzero_int(rng) for _ in indices]
    return Demand(tuple(indices), VectorGF(coeff_vals, field))


def _run_mode(args, mode: str) -> Tuple[int, dict]:
    field = _require_prime(args.field)
    rng = random.Random(args.seed)
    runner = run_jplc if mode == "jplc" else run_iplc
    protocol = mode
    t_len = args.t_mult * minimum_stream_length(
        protocol, args.servers, args.messages, _demand_size(args)
    )
    dataset = random_dataset(field, args.messages, t_len, rng)
    demand = _make_demand(args, field, args.messages, rng)
    run = runner(args.servers, dataset, demand, rng, verify=True)
    expected = list(demand.evaluate(dataset).entries)
    capacity = (
        jplc_capacity(args.servers, args.messages, demand.size)
        if mode == "jplc"
        else iplc_capacity(args.servers, args.messages, demand.size)
    )
    report = {
        "mode": mode,
        "servers": args.servers,
        "messages": args.messages,
        "field": field.q,
        "seed": args.seed,
        "stream_length": t_len,
        "support": list(demand.indices),
        "coefficients": list(demand.coefficients.entries),
        "downloaded_symbols": run.report.downloaded_symbols,
        "rate": rational_json(run.report.rate),
        "capacity": rational_json(capacity),
        "achieves_capacity": run.report.rate == capacity,
        "recovered": list(run.recovered),
        "expected": expected,
        "match": list(run.recovered) == expected,
        "transcript": args.transcript,
    }
    if args.transcript:
        write_transcript(
            args.transcript, _transcript_payload(mode, args, dataset, run, {})
        )
    return EXIT_OK, report


def _reduction_mode(args, mode: str) -> Tuple[int, dict]:
    field = _require_prime(args.field)
    rng = random.Random(args.seed)
    solver = solve_pir_psi_via_jplc if mode == "pir-psi" else solve_pir_si_via_iplc
    protocol = "jplc" if mode == "pir-psi" else "iplc"
    if args.side_info:
        explicit_side = tuple(sorted(_parse_int_list(args.side_info, "--side-info")))
        side_count = len(explicit_side)
    elif args.side_count is not None:
        explicit_side = None
        side_count = args.side_count
    else:
        raise ValueError("either --side-info or --side-count is required")
    demand_size = side_count + 1
    t_len = args.t_mult * minimum_stream_length(
        protocol, args.servers, args.messages, demand_size
    )
    dataset = random_dataset(field, args.messages, t_len, rng)
    if explicit_side is not None:
        if args.target is not None:
            target = args.target
        else:
            rest = [i for i in range(1, args.messages + 1) if i not in explicit_side]
            target = rest[rng.randrange(len(rest))]
        values = tuple(dataset.stream(i).entries for i in explicit_side)
        instance = SideInfoInstance(target, explicit_side, values)
    elif args.target is None:
        instance = random_side_info_instance(dataset, side_count, rng)
    else:
        rest = [i for i in range(1, args.messages + 1) if i != args.target]
        side = tuple(sorted(rng.sample(rest, side_count)))
        values = tuple(dataset.stream(i).entries for i in side)
        instance = SideInfoInstance(args.target, side, values)
    result = solver(args.servers, dataset, instance, rng)
    expected = list(dataset.stream(instance.target_index).entries)
    capacity = (
        jplc_capacity(args.servers, args.messages, demand_size)
        if mode == "pir-psi"
        else iplc_capacity(args.servers, args.messages, demand_size)
    )
    report = {
        "mode": mode,
        "servers": args.servers,
        "messages": args.messages,
        "field": field.q,
        "seed": args.seed,
        "stream_length": t_len,
        "target_index": instance.target_index,
        "side_indices": list(instance.side_indices),
        "downloaded_symbols": result.report.downloaded_symbols,
        "rate": rational_json(result.report.rate),
        "capacity": rational_json(capacity),
        "achieves_capacity": result.report.rate == capacity,
        "match": list(result.recovered) == expected,
        "transcript": args.transcript,
    }
    if not report["match"]:
        return EXIT_INVARIANT, report
    if args.transcript:
        extra = {
            "reduction": mode,
            "target_index": instance.target_index,
            "side_indices": list(instance.side_indices),
        }
        write_transcript(
            args.transcript,
            _transcript_payload(protocol, args, dataset, result.run, extra),
        )
    return EXIT_OK, report


def _capacity_mode(args) -> Tuple[int, dict]:
    rows = []
    for k in range(1, args.messages + 1):
        for d in range(1, k + 1):
            row = {
                "messages": k,
                "demand_size": d,
                "jplc": rational_json(jplc_capacity(args.servers, k, d)),
            }
            try:
                row["iplc"] = rational_json(iplc_capacity(args.servers, k, d))
            except ValueError:
                row["iplc"] = None
            rows.append(row)
    report = {"mode": "capacity-table", "servers": args.servers, "rows": rows}
    return EXIT_OK, report


def _capacity_csv(report: dict) -> str:
    lines = ["servers,messages,demand_size,protocol,capacity_num,capacity_den,capacity"]
    for row in report["rows"]:
        for protocol in ("jplc", "iplc"):
            cell = row[protocol]
            if cell is None:
                continue
            value = cell["num"] / cell["den"]
            lines.append(
                f"{report['servers']},{row['messages']},{row['demand_size']},"
                f"{protocol},{cell['num']},{cell['den']},{value:.6f}"
            )
    return "\n".join(lines) + "\n"


def _audit_mode(args) -> Tuple[int, dict]:
    field = _require_prime(args.field)
    rng = random.Random(args.seed)
    kind = args.audit_kind
    sampling = args.audit_sampling
    d = args.demand_size
    if kind in ("joint", "individual") and d is None:
        raise ValueError("--demand-size is required for this audit")
    if kind == "joint":
        rep: AuditReport = audit_joint_privacy(
            args.servers,
            args.messages,
            d,
            field,
            rng=rng,
            layer=args.audit_layer,
            mode=sampling,
            samples=args.samples,
            threshold=args.tv_threshold,
        )
    elif kind == "individual":
        rep = audit_individual_privacy(
            args.servers,
            args.messages,
            d,
            field,
            rng=rng,
            protocol=args.protocol,
            mode=sampling,
            samples=args.samples,
            threshold=args.tv_threshold,
        )
    elif kind in ("pir-psi", "pir-si"):
        side = args.side_count if args.side_count is not None else 1
        rep = audit_reduction_marginal(
            kind,
            args.servers,
            args.messages,
            side,
            field,
            rng=rng,
            mode=sampling,
            samples=args.samples,
            threshold=args.tv_threshold,
        )
    elif kind == "recoverability":
        if d is None:
            raise ValueError("--demand-size is required for this audit")
        rep = audit_recoverability(
            args.protocol,
            args.servers,
            args.messages,
            d,
            field,
            rng,
            trials=args.trials,
            repetitions=args.t_mult,
        )
    else:
        raise ValueError(f"unknown audit kind {kind!r}")
    report = {
        "mode": "audit",
        "kind": rep.kind,
        "layer": rep.layer,
        "sampling": rep.mode,
        "passed": rep.passed,
        "statistic": rep.statistic,
        "threshold": rep.threshold,
        "weight": rep.weight,
        "num_views": rep.num_views,
        "details": {k: v for k, v in rep.details.items()},
        "seed": args.seed,
    }
    return (EXIT_OK if rep.passed else EXIT_AUDIT_FAILURE), report


def _replay_mode(args) -> Tuple[int, dict]:
    if not args.transcript:
        raise ValueError("replay needs --transcript FILE")
    payload = read_transcript(args.transcript)
    params = payload["params"]
    field = _require_prime(params["field"])
    dataset = Dataset(MatrixGF(payload["dataset"], field))
    generator = MatrixGF(payload["generator"], field)
    combos = [VectorGF(row, field) for row in payload["combinations"]]
    stack = MatrixGF(payload["combinations"], field)
    randomness = PlcRandomness(
        tuple(payload["randomness"]["position_map"]),
        tuple(payload["randomness"]["signs"]),
    )
    instance = PlcInstance(
        num_servers=params["servers"],
        combination_matrix=stack,
        demand_index=payload["randomness"]["demand_index"],
        stream_length=params["stream_length"],
    )
    mismatch = None
    descriptor = generate_queries(instance, randomness)
    if _tuplify(payload["queries"]) != descriptor.per_server:
        mismatch = "query descriptor mismatch"
    answers = None
    if mismatch is None:
        streams = coded_family_streams(generator, combos, dataset)
        answers = answer_queries(descriptor, streams)
        if _tuplify(payload["answers"]) != answers:
            mismatch = "answer mismatch"
    if mismatch is None:
        try:
            normalised = reconstruct(descriptor, answers, instance, randomness)
        except ValueError as exc:
            mismatch = f"reconstruction failed: {exc}"
        else:
            v1 = params["coefficients"][0]
            recovered = [(v1 * z) % field.q for z in normalised]
            if recovered != payload["recovered"]:
                mismatch = "reconstruction mismatch"
            else:
                expected = Demand(
                    tuple(params["support"]),
                    VectorGF(params["coefficients"], field),
                ).evaluate(dataset)
                if tuple(recovered) != expected.entries:
                    mismatch = "recovered stream differs from the demand"
    report = {
        "mode": "replay",
        "transcript": args.transcript,
        "verified": mismatch is None,
        "mismatch": mismatch,
        "params": params,
    }
    return (EXIT_OK if mismatch is None else EXIT_INVARIANT), report


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plclab",
        description="Private linear computation over replicated servers.",
    )
    parser.add_argument(
        "--mode",
        required=True,
        choices=[
            "jplc",
            "iplc",
            "pir-psi",
            "pir-si",
            "capacity-table",
            "audit",
            "replay",
        ],
    )
    parser.add_argument("--servers", type=int, default=2, help="N, number of servers")
    parser.add_argument("--messages", type=int, default=3, help="K, number of messages")
    parser.add_argument("--field", type=int, default=3, help="prime field order q")
    parser.add_argument(
        "--support", type=str, default=None, help="demand support, e.g. 1,3"
    )
    parser.add_argument(
        "--coeffs", type=str, default=None, help="demand coefficients, e.g. 1,2"
    )
    parser.add_argument(
        "--demand-size", type=int, default=None, help="D, drawn at random if --support is absent"
    )
    parser.add_argument(
        "--side-info", type=str, default=None, help="side-information indices, e.g. 2,4"
    )
    parser.add_argument(
        "--side-count", type=int, default=None, help="number of random side-information messages"
    )
    parser.add_argument(
        "--target", type=int, default=None, help="reduction target index (random if absent)"
    )
    parser.add_argument(
        "--t-mult", type=int, default=1, help="stream length multiplier over the minimum"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed; falls back to PLCLAB_SEED, then 0",
    )
    parser.add_argument("--trials", type=int, default=50)
    parser.add_argument("--samples", type=int, default=100000)
    parser.add_argument("--out", type=str, default=None, help="write the JSON report here")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument(
        "--audit-kind",
        choices=["joint", "individual", "pir-psi", "pir-si", "recoverability"],
        default="joint",
    )
    parser.add_argument("--audit-layer", choices=["encoder", "full"], default="encoder")
    parser.add_argument(
        "--audit-sampling", choices=["exhaustive", "sampled"], default="exhaustive"
    )
    parser.add_argument(
        "--protocol",
        choices=["jplc", "iplc"],
        default="iplc",
        help="protocol for individual-privacy and recoverability audits",
    )
    parser.add_argument("--tv-threshold", type=float, default=None)
    parser.add_argument(
        "--transcript", type=str, default=None, help="transcript file to write or replay"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = int(os.environ.get("PLCLAB_SEED", "0"))
    try:
        if args.mode in ("jplc", "iplc"):
            code, report = _run_mode(args, args.mode)
        elif args.mode in ("pir-psi", "pir-si"):
            code, report = _reduction_mode(args, args.mode)
        elif args.mode == "capacity-table":
            code, report = _capacity_mode(args)
        elif args.mode == "audit":
            code, report = _audit_mode(args)
        else:
            code, report = _replay_mode(args)
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    text = canonical_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    if args.format == "csv" and args.mode == "capacity-table":
        csv_text = _capacity_csv(report)
        if args.out:
            with open(args.out + ".csv", "w", encoding="utf-8") as handle:
                handle.write(csv_text)
        else:
            sys.stdout.write(csv_text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
