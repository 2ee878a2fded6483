"""Replicated-server linear retrieval engine.

The engine downloads one stream out of a public family of M coded streams
from N replicating servers without revealing which one. Each coded stream k
is a known combination C_k (a row vector over F_q^J) of J underlying coded
streams, and the target index k* stays hidden because every server sees the
same query shape no matter which k* drove it.

Queries are organised in rounds. A round-one sum asks for a single symbol; a
round-ell sum mixes one symbol from each of ell distinct streams, with signs
alternating over the sum's interference part. New symbols of the target are
always paired against interference the user already obtained from the other
servers in the previous round, which is what lets every downloaded symbol
carry fresh information about the target.

Three layers separate the canonical structure from what a server sees: a
uniformly random bijection tau relabels symbol positions, uniformly random
signs s_v flip each position's contribution, and every sum is scaled so that
its first coefficient reads +1. Sums that are linear consequences of other
sums (given the public stack C) are trimmed client-side before the query is
sent; the trim is what brings the download down to the capacity point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from .ffield import PrimeField
from .gflinalg import MatrixGF, rank
from .protocol_core import RateReport, Rational


@dataclass(frozen=True)
class PlcInstance:
    """Everything the engine needs for one retrieval.

    combination_matrix stacks the public vectors C_1..C_M as rows (M x J,
    full column rank). demand_index is the hidden k*. stream_length T must be
    a multiple of num_servers ** M; the quotient is the repetition count.
    """

    num_servers: int
    combination_matrix: MatrixGF
    demand_index: int
    stream_length: int

    def __post_init__(self):
        n, m = self.num_servers, self.combination_matrix.nrows
        if n < 1:
            raise ValueError("need at least one server")
        if m < 1:
            raise ValueError("need at least one coded stream")
        if not 1 <= self.demand_index <= m:
            raise ValueError("demand index out of range")
        if rank(self.combination_matrix) != self.combination_matrix.ncols:
            raise ValueError("combination stack must have full column rank")
        block = n**m
        if self.stream_length < 1 or self.stream_length % block != 0:
            raise ValueError(
                f"stream length must be a positive multiple of N^M = {block}"
            )

    @property
    def num_streams(self) -> int:
        return self.combination_matrix.nrows

    @property
    def num_rows(self) -> int:
        return self.combination_matrix.ncols

    @property
    def repetitions(self) -> int:
        return self.stream_length // self.num_servers**self.num_streams

    @property
    def field(self) -> PrimeField:
        return self.combination_matrix.field


@dataclass(frozen=True)
class PlcRandomness:
    """User-private randomisation: a position bijection and per-position signs.

    position_map[v-1] is the served position of engine position v; signs hold
    +1 or -1 per engine position.
    """

    position_map: Tuple[int, ...]
    signs: Tuple[int, ...]

    def __post_init__(self):
        t = len(self.position_map)
        if sorted(self.position_map) != list(range(1, t + 1)):
            raise ValueError("position map must be a bijection of 1..T")
        if len(self.signs) != t or any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1/-1, one per position")


def random_plc_randomness(stream_length: int, rng: random.Random) -> PlcRandomness:
    perm = list(range(1, stream_length + 1))
    rng.shuffle(perm)
    signs = tuple(rng.choice((1, -1)) for _ in range(stream_length))
    return PlcRandomness(tuple(perm), signs)


def identity_plc_randomness(stream_length: int) -> PlcRandomness:
    return PlcRandomness(
        tuple(range(1, stream_length + 1)), (1,) * stream_length
    )


@dataclass(frozen=True)
class QueryDescriptor:
    """Serialised queries, one tuple of round blocks per server.

    A sum is a tuple of (stream, position, coefficient) terms, one per
    distinct stream, sorted by stream; a block collects all sums of one round
    in canonical (sorted) order. This is the exact view a server receives.
    """

    num_servers: int
    num_streams: int
    stream_length: int
    field_order: int
    per_server: Tuple[Tuple[Tuple[tuple, ...], ...], ...]

    def server_view(self, server: int) -> Tuple[Tuple[tuple, ...], ...]:
        return self.per_server[server - 1]

    def total_sums(self) -> int:
        return sum(
            len(block) for server in self.per_server for block in server
        )

    def block_layout(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(
            tuple(len(block) for block in server) for server in self.per_server
        )


AnswerSet = Tuple[Tuple[Tuple[int, ...], ...], ...]


# ---------------------------------------------------------------------------
# Canonical structure: position tables and sum templates.

class _SumTemplate:
    __slots__ = ("server", "order", "rep", "subset", "coord", "terms", "side")

    def __init__(self, server, order, rep, subset, coord, terms, side):
        self.server = server
        self.order = order
        self.rep = rep
        self.subset = subset
        self.coord = coord
        self.terms = terms  # ((stream, engine_position, eps), ...) by stream
        self.side = side    # None, or (source_server, source_coord)


class _Skeleton:
    __slots__ = ("num_servers", "num_streams", "reps", "theta", "val", "sums")

    def __init__(self, num_servers, num_streams, reps, theta, val, sums):
        self.num_servers = num_servers
        self.num_streams = num_streams
        self.reps = reps
        self.theta = theta
        self.val = val
        self.sums = sums


_SKELETON_CACHE: Dict[tuple, _Skeleton] = {}


def _other_servers(server: int, num_servers: int) -> List[int]:
    return [n for n in range(1, num_servers + 1) if n != server]


def _sign_pattern(s: tuple, theta: int) -> Dict[int, int]:
    """Sign of each stream's term in the sum over subset s: alternating over
    the interference part, (-1)^(ell-1) on the target."""
    rest = [x for x in s if x != theta]
    eps_of = {x: (-1) ** i for i, x in enumerate(rest)}
    if theta in s:
        eps_of[theta] = (-1) ** (len(s) - 1)
    return eps_of


def _build_skeleton(num_servers: int, num_streams: int, reps: int, theta: int) -> _Skeleton:
    key = (num_servers, num_streams, reps, theta)
    hit = _SKELETON_CACHE.get(key)
    if hit is not None:
        return hit
    n, m = num_servers, num_streams
    streams = range(1, m + 1)
    val: Dict[tuple, Tuple[int, ...]] = {}
    sums: List[_SumTemplate] = []
    for rep in range(reps):
        counter = rep * n**m
        for ell in range(1, m + 1):
            slot_count = (n - 1) ** (ell - 1)
            # Position tables for the (ell-1)-subsets, in fresh-counter order:
            # server-major, subsets lexicographic. Tables containing the
            # target inherit the other servers' previous-round positions
            # instead of consuming fresh ones.
            for server in range(1, n + 1):
                for u in combinations(streams, ell - 1):
                    if theta in u:
                        src = tuple(u_x for u_x in u if u_x != theta)
                        inherited = []
                        for n2 in _other_servers(server, n):
                            inherited.extend(val[(rep, n2, src)])
                        val[(rep, server, u)] = tuple(inherited)
                    else:
                        val[(rep, server, u)] = tuple(
                            range(counter + 1, counter + 1 + slot_count)
                        )
                        counter += slot_count
            # One sum per server, ell-subset and coordinate.
            sub_slot = (n - 1) ** (ell - 2) if ell >= 2 else 0
            for server in range(1, n + 1):
                others = _other_servers(server, n)
                for s in combinations(streams, ell):
                    eps_of = _sign_pattern(s, theta)
                    for coord in range(slot_count):
                        terms = tuple(
                            (
                                x,
                                val[(rep, server, tuple(y for y in s if y != x))][coord],
                                eps_of[x],
                            )
                            for x in s
                        )
                        side = None
                        if theta in s and ell >= 2:
                            side = (others[coord // sub_slot], coord % sub_slot)
                        sums.append(
                            _SumTemplate(server, ell, rep, s, coord, terms, side)
                        )
    skel = _Skeleton(n, m, reps, theta, val, sums)
    _SKELETON_CACHE[key] = skel
    return skel


# ---------------------------------------------------------------------------
# Trimming: which sums are linear consequences of the others.

def _trim_tables(instance: PlcInstance):
    """Per round: kept subsets, and for each dropped subset the coefficients
    expressing its sum through kept sums at the same server and coordinate.

    The dependency pattern does not involve positions, so one table per round
    covers every server, repetition and coordinate.
    """
    field = instance.field
    q = field.q
    m = instance.num_streams
    theta = instance.demand_index
    c_rows = instance.combination_matrix.rows
    j_dim = instance.num_rows
    kept: Dict[int, List[tuple]] = {}
    drops: Dict[int, Dict[tuple, Tuple[tuple, ...]]] = {}
    streams = range(1, m + 1)
    for ell in range(1, m + 1):
        pivots = []  # (lead_key, row_dict, expr_dict over kept subsets)
        kept_ell: List[tuple] = []
        drops_ell: Dict[tuple, Tuple[tuple, ...]] = {}
        for s in combinations(streams, ell):
            eps_of = _sign_pattern(s, theta)
            row: Dict[tuple, int] = {}
            for x in s:
                u = tuple(y for y in s if y != x)
                e = eps_of[x] % q
                for j in range(j_dim):
                    coeff = (e * c_rows[x - 1][j]) % q
                    if coeff:
                        row[(u, j)] = coeff
            expr: Dict[tuple, int] = {s: 1}
            for lead_key, p_row, p_expr in pivots:
                f = row.get(lead_key, 0)
                if not f:
                    continue
                for k_, v_ in p_row.items():
                    nv = (row.get(k_, 0) - f * v_) % q
                    if nv:
                        row[k_] = nv
                    elif k_ in row:
                        del row[k_]
                for k_, v_ in p_expr.items():
                    nv = (expr.get(k_, 0) - f * v_) % q
                    if nv:
                        expr[k_] = nv
                    elif k_ in expr:
                        del expr[k_]
            if row:
                lead_key = min(row)
                inv = field.inv(row[lead_key])
                row = {k_: (v_ * inv) % q for k_, v_ in row.items()}
                expr = {k_: (v_ * inv) % q for k_, v_ in expr.items()}
                pivots.append((lead_key, row, expr))
                kept_ell.append(s)
            else:
                # 0 = sum expr[t] * sum_t with expr[s] = 1, so the dropped
                # sum expands as minus the rest.
                combo = tuple(
                    (t, (-v_) % q) for t, v_ in sorted(expr.items()) if t != s
                )
                drops_ell[s] = combo
        kept[ell] = kept_ell
        drops[ell] = drops_ell
    return kept, drops


# ---------------------------------------------------------------------------
# Serialisation: bake the user randomness in and normalise.

def _sign_to_field(sign: int, q: int) -> int:
    return 1 if sign == 1 else (q - 1) % q


def _bake(template: _SumTemplate, randomness: PlcRandomness, q: int):
    """Serialise one sum; returns (wire_sum, lead_coeff_before_normalising)."""
    baked = []
    for stream, pos, eps in template.terms:
        coeff = (_sign_to_field(randomness.signs[pos - 1], q) * (eps % q)) % q
        baked.append((stream, randomness.position_map[pos - 1], coeff))
    baked.sort()
    lead = baked[0][2]
    if lead != 1:
        inv = pow(lead, q - 2, q)
        baked = [(st, p, (cf * inv) % q) for st, p, cf in baked]
    return tuple(baked), lead


def _annotated_blocks(instance: PlcInstance, randomness: PlcRandomness):
    """Kept sums, serialised and canonically ordered, with their templates.

    Returns the skeleton, blocks[server-1][ell-1] = list of (wire_sum,
    template, lead), and the trim's drop table.
    """
    n = instance.num_servers
    m = instance.num_streams
    q = instance.field.q
    skel = _build_skeleton(n, m, instance.repetitions, instance.demand_index)
    kept, drops = _trim_tables(instance)
    kept_sets = {ell: set(v) for ell, v in kept.items()}
    blocks = [[[] for _ in range(m)] for _ in range(n)]
    for tmpl in skel.sums:
        if tmpl.subset not in kept_sets[tmpl.order]:
            continue
        wire, lead = _bake(tmpl, randomness, q)
        blocks[tmpl.server - 1][tmpl.order - 1].append((wire, tmpl, lead))
    for server_blocks in blocks:
        for block in server_blocks:
            block.sort(key=lambda item: item[0])
    return skel, blocks, drops


def generate_queries(
    instance: PlcInstance, randomness: PlcRandomness
) -> QueryDescriptor:
    """Serialise the per-server queries; all randomisation lives in
    `randomness`."""
    if len(randomness.position_map) != instance.stream_length:
        raise ValueError("randomness sized for a different stream length")
    _, blocks, _ = _annotated_blocks(instance, randomness)
    per_server = tuple(
        tuple(tuple(wire for wire, _, _ in block) for block in server_blocks)
        for server_blocks in blocks
    )
    return QueryDescriptor(
        num_servers=instance.num_servers,
        num_streams=instance.num_streams,
        stream_length=instance.stream_length,
        field_order=instance.field.q,
        per_server=per_server,
    )


def relabel_streams(
    streams: Sequence[Sequence[int]],
    randomness: PlcRandomness,
    field: PrimeField,
) -> List[List[int]]:
    """Apply the engine's position/sign layer to actual streams.

    Returns streams in engine position space: out[k][v-1] is
    s_v * stream_k[tau(v)].
    """
    q = field.q
    tau = randomness.position_map
    signs = randomness.signs
    out = []
    for row in streams:
        out.append(
            [
                (_sign_to_field(signs[v], q) * row[tau[v] - 1]) % q
                for v in range(len(tau))
            ]
        )
    return out


def answer_queries(
    descriptor: QueryDescriptor, streams: Sequence[Sequence[int]]
) -> AnswerSet:
    """Evaluate every server's sums against the replicated streams.

    streams[k-1] holds stream k in served position space. Every server gets
    the same stream contents; only the sums differ. Descriptors arrive from
    outside, so every term is checked: stream in [1, M], position in [1, T],
    coefficient in [0, q), and no sum is empty.
    """
    q = descriptor.field_order
    m, t_len = descriptor.num_streams, descriptor.stream_length
    if len(streams) != m:
        raise ValueError("stream count differs from descriptor")
    if any(len(row) != t_len for row in streams):
        raise ValueError("stream length differs from descriptor")
    answers = []
    for server_blocks in descriptor.per_server:
        server_answers = []
        for block in server_blocks:
            vals = []
            for wire_sum in block:
                if not wire_sum:
                    raise ValueError("descriptor holds an empty sum")
                acc = 0
                for stream, pos, coeff in wire_sum:
                    if not (
                        1 <= stream <= m and 1 <= pos <= t_len and 0 <= coeff < q
                    ):
                        raise ValueError(
                            f"descriptor term {(stream, pos, coeff)} out of range"
                        )
                    acc += coeff * streams[stream - 1][pos - 1]
                vals.append(acc % q)
            server_answers.append(tuple(vals))
        answers.append(tuple(server_answers))
    return tuple(answers)


def reconstruct(
    descriptor: QueryDescriptor,
    answers: AnswerSet,
    instance: PlcInstance,
    randomness: PlcRandomness,
) -> List[int]:
    """Recover the k*-stream (in served position space) from the answers.

    The descriptor is re-derived from instance and randomness and must match;
    a mismatch means the transcript was tampered with or the inputs are
    inconsistent.
    """
    field = instance.field
    q = field.q
    skel, blocks, drops = _annotated_blocks(instance, randomness)
    rebuilt = tuple(
        tuple(tuple(wire for wire, _, _ in block) for block in server_blocks)
        for server_blocks in blocks
    )
    if rebuilt != descriptor.per_server:
        raise ValueError("descriptor does not match instance and randomness")

    # Un-normalised sum values in engine pattern space, for kept sums.
    values: Dict[tuple, int] = {}
    for server_idx, server_blocks in enumerate(blocks):
        for ell_idx, block in enumerate(server_blocks):
            got = answers[server_idx][ell_idx]
            if len(got) != len(block):
                raise ValueError("answer shape differs from descriptor")
            for (_, tmpl, lead), ans in zip(block, got):
                key = (tmpl.server, tmpl.rep, tmpl.subset, tmpl.coord)
                values[key] = (lead * ans) % q

    # Expand the trimmed sums from the kept ones.
    n = instance.num_servers
    m = instance.num_streams
    for ell in range(1, m + 1):
        drops_ell = drops[ell]
        if not drops_ell:
            continue
        slot_count = (n - 1) ** (ell - 1)
        for rep in range(instance.repetitions):
            for server in range(1, n + 1):
                for coord in range(slot_count):
                    for s, combo in drops_ell.items():
                        acc = 0
                        for t, lam in combo:
                            acc += lam * values[(server, rep, t, coord)]
                        values[(server, rep, s, coord)] = acc % q

    # Peel the target's fresh symbols round by round.
    theta = instance.demand_index
    r_sign = {ell: _sign_to_field((-1) ** (ell - 1), q) for ell in range(1, m + 1)}
    theta_engine: Dict[int, int] = {}
    for tmpl_subset_len in range(1, m + 1):
        ell = tmpl_subset_len
        slot_count = (n - 1) ** (ell - 1)
        for s in combinations(range(1, m + 1), ell):
            if theta not in s:
                continue
            rest = tuple(x for x in s if x != theta)
            for rep in range(instance.repetitions):
                for server in range(1, n + 1):
                    fresh = skel.val[(rep, server, rest)]
                    others = _other_servers(server, n)
                    sub_slot = (n - 1) ** (ell - 2) if ell >= 2 else 0
                    for coord in range(slot_count):
                        total = values[(server, rep, s, coord)]
                        if ell >= 2:
                            src_server = others[coord // sub_slot]
                            src_coord = coord % sub_slot
                            total = (
                                total - values[(src_server, rep, rest, src_coord)]
                            ) % q
                        theta_engine[fresh[coord]] = (r_sign[ell] * total) % q

    if len(theta_engine) != instance.stream_length:
        raise ValueError("target coverage incomplete")
    out = [0] * instance.stream_length
    for v, baked in theta_engine.items():
        pos = randomness.position_map[v - 1]
        out[pos - 1] = (_sign_to_field(randomness.signs[v - 1], q) * baked) % q
    return out


def download_report(descriptor: QueryDescriptor, capacity: Rational) -> RateReport:
    downloaded = descriptor.total_sums()
    return RateReport(
        stream_length=descriptor.stream_length,
        field_order=descriptor.field_order,
        downloaded_symbols=downloaded,
        rate=Fraction(descriptor.stream_length, downloaded),
        capacity=capacity,
    )


def expected_download(instance: PlcInstance) -> int:
    """Closed-form total download for a full-column-rank stack: the trimmed
    engine downloads T * sum_{i<J} N^-i symbols across all servers."""
    n = instance.num_servers
    j_dim = instance.num_rows
    t_len = instance.stream_length
    total = Fraction(t_len) * sum(Fraction(1, n**i) for i in range(j_dim))
    assert total.denominator == 1
    return int(total)
