"""Command-line front end.

Modes:
  jplc / iplc        run one private-retrieval transcript end to end
  pir-psi / pir-si   run the single-message reductions with side information
  capacity-table     print exact capacity values over a parameter grid
  audit              run a privacy / recoverability / marginal audit
  replay             re-execute a saved transcript and verify it bit-exactly

A JSON report always goes to --out (or stdout). Only capacity-table takes
--format csv, which additionally writes a CSV table next to --out.

Exit codes: 0 success, 1 usage error, 2 audit failure, 3 invariant
violation (including replay mismatches).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import struct
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .audit import (
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
    random_demand,
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

_RUN_MODES = ("jplc", "iplc", "pir-psi", "pir-si")

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
        try:
            payload[name] = json.loads(blob[offset : offset + length])
        except RecursionError:
            raise ValueError(f"transcript {name} nests too deeply") from None
        offset += length
    if offset != len(blob):
        raise ValueError("trailing bytes after final section")
    return payload


def _tuplify(obj, depth: int, what: str):
    """obj with its lists turned into tuples; they may nest depth deep."""
    if not isinstance(obj, list):
        return obj
    if depth == 0:
        raise ValueError(f"transcript {what} nests too deeply")
    return tuple(_tuplify(item, depth - 1, what) for item in obj)


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


def _support(args) -> Tuple[Optional[List[int]], int]:
    """The --support indices (None when drawn) and the demand size."""
    if args.support:
        indices = _parse_int_list(args.support, "--support")
        return indices, len(indices)
    if args.demand_size is None:
        raise ValueError("either --support or --demand-size is required")
    return None, args.demand_size


def _make_demand(args, indices, field: PrimeField, rng: random.Random) -> Demand:
    if indices is None:
        if args.coeffs:
            raise ValueError("--coeffs needs --support: a drawn demand draws its coefficients")
        return random_demand(field, args.messages, args.demand_size, rng)
    if args.coeffs:
        coeff_vals = _parse_int_list(args.coeffs, "--coeffs")
        if len(coeff_vals) != len(indices):
            raise ValueError("--coeffs must match --support in length")
    else:
        coeff_vals = [field.rand_nonzero_int(rng) for _ in indices]
    return Demand(indices, VectorGF(coeff_vals, field))


def _side_info(args) -> Tuple[Optional[Tuple[int, ...]], int]:
    """The side set (None when drawn) and its size; given indices lie in [1, K]."""
    if args.side_info:
        side = tuple(sorted(_parse_int_list(args.side_info, "--side-info")))
        count = len(side)
    elif args.side_count is not None:
        side, count = None, args.side_count
    else:
        raise ValueError("either --side-info or --side-count is required")
    for i in (side or ()) + (() if args.target is None else (args.target,)):
        if not 1 <= i <= args.messages:
            raise ValueError(f"--side-info and --target must lie in [1, {args.messages}]")
    return side, count


def _side_info_instance(args, side, count, dataset, rng) -> SideInfoInstance:
    k, target = args.messages, args.target
    if side is None and target is None:
        return random_side_info_instance(dataset, count, rng)
    if side is None:
        rest = [i for i in range(1, k + 1) if i != target]
        side = tuple(sorted(rng.sample(rest, count)))
    elif target is None:
        rest = [i for i in range(1, k + 1) if i not in side]
        target = rest[rng.randrange(len(rest))]
    values = tuple(dataset.stream(i).entries for i in side)
    return SideInfoInstance(target, side, values)


def _run_mode(args, mode: str) -> Tuple[int, dict]:
    """A jplc or iplc run; pir-psi and pir-si run them on side information."""
    field = _require_prime(args.field)
    rng = random.Random(args.seed)
    protocol = {"pir-psi": "jplc", "pir-si": "iplc"}.get(mode, mode)
    if protocol != mode:
        side, side_count = _side_info(args)
        demand_size = side_count + 1
    else:
        support, demand_size = _support(args)
    t_len = args.t_mult * minimum_stream_length(
        protocol, args.servers, args.messages, demand_size
    )
    dataset = random_dataset(field, args.messages, t_len, rng)
    report = {
        "mode": mode,
        "servers": args.servers,
        "messages": args.messages,
        "field": field.q,
        "seed": args.seed,
        "stream_length": t_len,
        "transcript": args.transcript,
    }
    extra = {}
    if protocol != mode:
        instance = _side_info_instance(args, side, side_count, dataset, rng)
        solver = solve_pir_psi_via_jplc if mode == "pir-psi" else solve_pir_si_via_iplc
        result = solver(args.servers, dataset, instance, rng)
        run, recovered = result.run, list(result.recovered)
        expected = list(dataset.stream(instance.target_index).entries)
        extra = {
            "target_index": instance.target_index,
            "side_indices": list(instance.side_indices),
        }
        report.update(extra)
        extra["reduction"] = mode
    else:
        demand = _make_demand(args, support, field, rng)
        runner = run_jplc if mode == "jplc" else run_iplc
        run = runner(args.servers, dataset, demand, rng, verify=True)
        recovered = list(run.recovered)
        expected = list(demand.evaluate(dataset).entries)
        report.update(
            support=list(demand.indices),
            coefficients=list(demand.coefficients.entries),
            recovered=recovered,
            expected=expected,
        )
    report.update(
        downloaded_symbols=run.report.downloaded_symbols,
        rate=rational_json(run.report.rate),
        capacity=rational_json(run.report.capacity),
        achieves_capacity=run.report.achieves_capacity,
        match=recovered == expected,
    )
    if not report["match"]:
        return EXIT_INVARIANT, report
    if args.transcript:
        write_transcript(
            args.transcript,
            _transcript_payload(protocol, args, dataset, run, extra),
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
    kind, size = args.audit_kind, args.demand_size
    if args.audit_layer == "full" and kind != "joint":
        raise ValueError(f"--audit-layer full applies to --audit-kind joint only, not {kind}")
    if kind in ("pir-psi", "pir-si"):
        size = 1 if args.side_count is None else args.side_count
    elif size is None:
        raise ValueError("--demand-size is required for this audit")
    shape = (args.servers, args.messages, size, field)
    sampling = dict(
        rng=rng, mode=args.audit_sampling, samples=args.samples, threshold=args.tv_threshold
    )
    if kind == "joint":
        rep = audit_joint_privacy(*shape, layer=args.audit_layer, **sampling)
    elif kind == "individual":
        rep = audit_individual_privacy(*shape, protocol=args.protocol, **sampling)
    elif kind == "recoverability":
        rep = audit_recoverability(
            args.protocol, *shape, rng, trials=args.trials, repetitions=args.t_mult
        )
    else:
        rep = audit_reduction_marginal(kind, *shape, **sampling)
    report = dataclasses.asdict(rep)
    report.update(mode="audit", sampling=rep.mode, seed=args.seed)
    return (EXIT_OK if rep.passed else EXIT_AUDIT_FAILURE), report


def _is_ints(value, depth: int) -> bool:
    """Whether value is an int (depth 0) or lists nested depth deep of ints."""
    if depth == 0:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, list) and all(_is_ints(x, depth - 1) for x in value)


def _ints(value, depth: int, what: str):
    """value, after checking that it is an int (depth 0) or lists nested
    depth deep of ints; a missing entry arrives as None and fails too."""
    if not _is_ints(value, depth):
        kind = "an integer" if depth == 0 else "integers"
        raise ValueError(f"transcript {what} must be {kind}")
    return value


def _replay_mode(args) -> Tuple[int, dict]:
    if not args.transcript:
        raise ValueError("replay needs --transcript FILE")
    payload = read_transcript(args.transcript)
    params, drawn = payload["params"], payload["randomness"]
    if not (isinstance(params, dict) and isinstance(drawn, dict)):
        raise ValueError("transcript params and randomness must be objects")
    field = _require_prime(_ints(params.get("field"), 0, "params.field"))
    dataset = Dataset(MatrixGF(_ints(payload["dataset"], 2, "dataset"), field))
    demand = Demand(
        tuple(_ints(params.get("support"), 1, "params.support")),
        VectorGF(_ints(params.get("coefficients"), 1, "params.coefficients"), field),
    )
    if demand.indices[-1] > dataset.num_streams:
        raise ValueError("transcript params.support exceeds the stream count")
    generator = MatrixGF(_ints(payload["generator"], 2, "generator"), field)
    stack = MatrixGF(_ints(payload["combinations"], 2, "combinations"), field)
    combos = [VectorGF(row, field) for row in stack.rows]
    randomness = PlcRandomness(
        tuple(_ints(drawn.get("position_map"), 1, "randomness.position_map")),
        tuple(_ints(drawn.get("signs"), 1, "randomness.signs")),
    )
    instance = PlcInstance(
        num_servers=_ints(params.get("servers"), 0, "params.servers"),
        combination_matrix=stack,
        demand_index=_ints(drawn.get("demand_index"), 0, "randomness.demand_index"),
        stream_length=_ints(params.get("stream_length"), 0, "params.stream_length"),
    )
    mismatch = None
    descriptor = generate_queries(instance, randomness)
    if _tuplify(payload["queries"], 5, "queries") != descriptor.per_server:
        mismatch = "query descriptor mismatch"
    answers = None
    if mismatch is None:
        streams = coded_family_streams(generator, combos, dataset)
        answers = answer_queries(descriptor, streams)
        if _tuplify(payload["answers"], 3, "answers") != answers:
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
            elif tuple(recovered) != demand.evaluate(dataset).entries:
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
    parser.add_argument(
        "--servers", type=int, default=None, help="N, number of servers (default 2)"
    )
    parser.add_argument(
        "--messages", type=int, default=None, help="K, number of messages (default 3)"
    )
    parser.add_argument(
        "--field", type=int, default=None, help="prime field order q (default 3)"
    )
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
        "--t-mult", type=int, default=None, help="stream length multiplier (default 1)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="RNG seed; falls back to PLCLAB_SEED, then 0",
    )
    parser.add_argument(
        "--trials", type=int, default=None, help="recoverability audit runs (default 50)"
    )
    parser.add_argument(
        "--samples", type=int, default=None,
        help="draws of a sampled audit other than recoverability (default 100000)",
    )
    parser.add_argument("--out", type=str, default=None, help="write the JSON report here")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument(
        "--audit-kind",
        choices=["joint", "individual", "pir-psi", "pir-si", "recoverability"],
        default=None,
        help="audit mode only (default joint)",
    )
    parser.add_argument(
        "--audit-layer", choices=["encoder", "full"], default=None,
        help="audit mode only (default encoder); full adds each server's queries "
        "to the view; joint audits only, exhaustive only, since sampled query "
        "views almost never repeat",
    )
    parser.add_argument(
        "--audit-sampling", choices=["exhaustive", "sampled"], default=None,
        help="audit mode only (default exhaustive)",
    )
    parser.add_argument(
        "--protocol",
        choices=["jplc", "iplc"],
        default=None,
        help="protocol of --audit-kind individual and recoverability only (default iplc)",
    )
    parser.add_argument("--tv-threshold", type=float, default=None, help="audit pass bound")
    parser.add_argument(
        "--transcript", type=str, default=None, help="transcript file to write or replay"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    audit = args.mode == "audit"
    kind = args.audit_kind or "joint"
    privacy = audit and kind != "recoverability"
    runs = args.mode in _RUN_MODES
    draws = runs or audit
    demand = args.mode in ("jplc", "iplc")
    side = args.mode in ("pir-psi", "pir-si")
    side_audit = audit and kind in ("pir-psi", "pir-si")
    try:
        # Options of one mode or audit: each takes its default where it
        # applies, and is refused where the chosen run would ignore it.
        for flag, applies, default in (
            ("servers", args.mode != "replay", 2),
            ("messages", args.mode != "replay", 3),
            ("audit_kind", audit, "joint"),
            ("audit_layer", audit, "encoder"),
            ("audit_sampling", audit, "exhaustive"),
            ("field", draws, 3),
            ("seed", draws, None),
            ("support", demand, None),
            ("coeffs", demand, None),
            ("demand_size", (demand and not args.support) or (audit and not side_audit), None),
            ("side_info", side, None),
            ("side_count", (side and not args.side_info) or side_audit, None),
            ("target", side, None),
            ("protocol", audit and kind in ("individual", "recoverability"), "iplc"),
            ("samples", privacy and args.audit_sampling == "sampled", 100_000),
            ("trials", audit and kind == "recoverability", 50),
            ("tv_threshold", privacy, None),
            ("t_mult", runs or (audit and not privacy), 1),
            ("transcript", runs or args.mode == "replay", None),
        ):
            if getattr(args, flag) is None:
                setattr(args, flag, default)
            elif not applies:
                run = f"the {args.audit_sampling} {kind} audit" if audit else f"--mode {args.mode}"
                raise ValueError(f"--{flag.replace('_', '-')} is ignored by {run}")
        if args.seed is None and draws:
            args.seed = int(os.environ.get("PLCLAB_SEED", "0"))
        for flag in ("servers", "messages", "t_mult"):
            if getattr(args, flag) < 1:
                raise ValueError(f"--{flag.replace('_', '-')} must be at least 1")
        if args.format == "csv" and args.mode != "capacity-table":
            raise ValueError("--format csv applies to capacity-table only")
        if runs:
            code, report = _run_mode(args, args.mode)
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
    if args.format == "csv":
        csv_text = _capacity_csv(report)
        if args.out:
            with open(args.out + ".csv", "w", encoding="utf-8") as handle:
                handle.write(csv_text)
        else:
            sys.stdout.write(csv_text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
