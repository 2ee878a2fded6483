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
sent; the trim is what brings the download down to the capacity point. It
follows Sun & Jafar, "The Capacity of Private Computation" (arXiv:1710.11098):
with B the first rows of C that form a basis, a round's sum is kept exactly
when its subset meets B, whatever the target. The trim is computed once per
row-normalised stack and carried over to each stack and target: the target
enters only through signs and the row scales through one factor per subset.

Everything but the user randomness (templates, trim, reconstruction tables)
is a `QueryPlan`, built once per instance. The randomness is baked into the
plan once per (instance, randomness) pair: `reconstruct` checks the
descriptor against the serialisation `generate_queries` made, and reuses it.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from .ffield import PrimeField
from .gflinalg import MatrixGF, _rref, rank
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

    @cached_property
    def plan(self) -> "QueryPlan":
        """The query plan, built on first use and kept for the instance's
        lifetime."""
        return _build_plan(self)


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

    def total_sums(self) -> int:
        return sum(
            len(block) for server in self.per_server for block in server
        )


AnswerSet = Tuple[Tuple[Tuple[int, ...], ...], ...]


# ---------------------------------------------------------------------------
# Canonical structure: position tables and sum templates.

class _SumTemplate:
    __slots__ = ("server", "order", "subset", "index", "terms")

    def __init__(self, server, order, subset, index, terms):
        self.server = server
        self.order = order
        self.subset = subset
        self.index = index  # position in the skeleton's list of sums
        self.terms = terms  # ((stream, 0-based engine position, eps), ...) by stream


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


@lru_cache(maxsize=32)
def _build_skeleton(num_servers: int, num_streams: int, reps: int, theta: int):
    """Every sum's template, and how reconstruction indexes and peels them.

    Engine positions are 0-based here. first[(rep, server, subset)] is the
    index of the subset's coordinate-0 sum; its other coordinates follow it.
    peel holds four columns with one entry per fresh position v of the
    target, (v, sum, source, sign): the target's engine symbol at v is
    sign * (sum - source), where source is the other server's previous-round
    sum over the same interference, or -1 in round one, which has none. The
    columns are int arrays, a quarter of the memory of a tuple per entry.
    """
    n, m = num_servers, num_streams
    streams = range(1, m + 1)
    val: Dict[tuple, Tuple[int, ...]] = {}
    sums: List[_SumTemplate] = []
    first: Dict[tuple, int] = {}
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
                            range(counter, counter + slot_count)
                        )
                        counter += slot_count
            # One sum per server, ell-subset and coordinate.
            for server in range(1, n + 1):
                for s in combinations(streams, ell):
                    eps_of = _sign_pattern(s, theta)
                    first[(rep, server, s)] = len(sums)
                    for coord in range(slot_count):
                        terms = tuple(
                            (
                                x,
                                val[(rep, server, tuple(y for y in s if y != x))][coord],
                                eps_of[x],
                            )
                            for x in s
                        )
                        sums.append(_SumTemplate(server, ell, s, len(sums), terms))
    peel = tuple(array("q") for _ in range(4))
    for (rep, server, s), at in first.items():
        if theta not in s:
            continue
        ell = len(s)
        rest = tuple(x for x in s if x != theta)
        sign = (-1) ** (ell - 1)
        others = _other_servers(server, n)
        sub_slot = (n - 1) ** (ell - 2) if ell >= 2 else 0
        for coord, v in enumerate(val[(rep, server, rest)]):
            src = -1
            if ell >= 2:
                src_server = others[coord // sub_slot]
                src = first[(rep, src_server, rest)] + coord % sub_slot
            for column, value in zip(peel, (v, at + coord, src, sign)):
                column.append(value)
    return sums, first, peel


# ---------------------------------------------------------------------------
# Trimming: which sums are linear consequences of the others.

def _wedge(stack: MatrixGF, theta: int):
    """The trim for target theta, with subsets as bitmasks (bit x-1 for
    stream x).

    The closed form of Sun & Jafar, "The Capacity of Private Computation"
    (arXiv:1710.11098): let B be the first rows of C that form a basis. A
    round-ell sum is kept exactly when its subset meets B. For x outside B
    write C_x = sum_b beta_xb C_b; for a subset s of B's complement the wedge
    of (e_x - sum_b beta_xb e_b) over x in s, with theta ordered last as in
    `_sign_pattern`, lies in the kernel of the round's sum map. Its e_s
    coefficient is 1 and every other term meets B, so it expands the dropped
    sum through kept ones.

    Returns (basis, drops): basis is B's bitmask, and drops lists, round by
    round, each dropped subset s with the (t, coefficient) pairs expressing
    its sum through the kept sums t, in no particular order.
    """
    q, m = stack.field.q, stack.nrows
    rref, pivots = _rref(stack.transpose().rows, q)
    basis = sum(1 << p for p in pivots)
    # Bit r of a rank mask stands for the stream of rank r + 1, theta last, so
    # the wedge order is numeric: ranks below theta keep their stream, the
    # ranks from theta to m - 1 stand for the next stream, and rank m is theta.
    label = [x for x in range(1, m + 1) if x != theta] + [theta]
    bit_of = {x: r for r, x in enumerate(label)}
    below = (1 << (theta - 1)) - 1
    between = (1 << (m - 1)) - 1 - below

    def streams(r: int) -> int:
        return r & below | (r & between) << 1 | (r >> (m - 1)) << (theta - 1)

    # vec[i] = e_x - sum_b beta_xb e_b for the i-th stream x outside B by rank.
    vec = [
        [(bit_of[x], 1)]
        + [(bit_of[p + 1], -row[x - 1]) for row, p in zip(rref, pivots) if row[x - 1]]
        for x in label
        if not basis >> (x - 1) & 1
    ]
    drops = []
    wedges: Dict[tuple, Dict[int, int]] = {(): {0: 1}}
    for ell in range(1, len(vec) + 1):
        grown = {}
        for s in combinations(range(len(vec)), ell):
            # wedge(s) = wedge(s minus its last stream) ^ vec[last stream]; the
            # reorder sign is the parity of t's streams above y.
            w: Dict[int, int] = {}
            for t, c in wedges[s[:-1]].items():
                for y, a in vec[s[-1]]:
                    if not t >> y & 1:
                        key = t | 1 << y
                        ca = -c * a if (t >> y).bit_count() & 1 else c * a
                        w[key] = w.get(key, 0) + ca
            w = {t: c % q for t, c in w.items() if c % q}
            grown[s] = w
            head = sum(1 << vec[i][0][0] for i in s)
            drops.append((
                streams(head),
                [(streams(t), -c % q) for t, c in w.items() if t != head],
            ))
        wedges = grown
    return basis, drops


@lru_cache(maxsize=4)
def _subsets(m: int) -> Tuple[tuple, ...]:
    """Every subset of streams 1..m as a sorted tuple, indexed by bitmask."""
    subsets = [()]
    for x in range(1, m + 1):
        subsets += [s + (x,) for s in subsets]
    return tuple(subsets)


@lru_cache(maxsize=8)
def _kept(m: int, basis: int) -> Dict[int, List[tuple]]:
    """Per round, the subsets that meet B, in lexicographic order."""
    return {
        ell: [s for s in combinations(range(1, m + 1), ell)
              if any(basis >> (x - 1) & 1 for x in s)]
        for ell in range(1, m + 1)
    }


def _compact(values, bound: int) -> array:
    """values as an array of the narrowest unsigned type that holds bound."""
    code = next(c for c in "BHIQ" if bound >> 8 * array(c).itemsize == 0)
    return array(code, values)


# Entries of the trim cache. A normalised jplc stack is fixed by the
# evaluation point of each column, so plan-heavy (K=5) draws 5! = 120 of them;
# at M=10 and q=7 a full cache holds about 1 MB.
_TRIM_CACHE_SIZE = 128


@lru_cache(maxsize=_TRIM_CACHE_SIZE)
def _normalised_trim(stack: MatrixGF):
    """The trim of a row-normalised stack in natural order (theta = M), as
    flat int arrays: (basis, keys, offsets, terms, coefficients).

    keys holds each dropped subset's bitmask, round by round; the terms of
    keys[i] are terms[offsets[i]:offsets[i + 1]], in lexicographic order of
    their subsets, with the matching coefficients.
    """
    q, m = stack.field.q, stack.nrows
    basis, drops = _wedge(stack, m)
    subsets = _subsets(m)
    keys, offsets, terms, coeffs = [], [0], [], []
    for s, combo in drops:
        keys.append(s)
        for t, c in sorted(combo, key=lambda tc: subsets[tc[0]]):
            terms.append(t)
            coeffs.append(c)
        offsets.append(len(terms))
    full = (1 << m) - 1
    return (
        basis,
        _compact(keys, full),
        _compact(offsets, len(terms)),
        _compact(terms, full),
        _compact(coeffs, q - 1),
    )


def _trim_tables(stack: MatrixGF, theta: int):
    """Per round: kept subsets, and for each dropped subset the coefficients
    expressing its sum through kept sums at the same server and coordinate.

    The trim (see `_wedge`) is cached once per row-normalised stack, in
    natural order, and carried over to (stack, theta) here. Take C = Lambda C'
    with C' row-normalised and lambda_x the lead of row x (1 for a zero row).
    The kept sets depend on B alone, which row scales leave unchanged. The
    coefficient of each dropped s on a kept t is multiplied by
    sigma(s) sigma(t) lambda_s / lambda_t, where lambda_s is the product of
    the lambda_x over x in s and sigma(s) = (-1)^|{z in s : z > theta}| when
    theta is in s, 1 otherwise: the sign that moves theta to the end. The
    pattern does not involve positions, so one table per round covers every
    server, repetition and coordinate. Kept lists are shared between calls,
    so callers only read them.
    """
    field = stack.field
    q, m = field.q, stack.nrows
    leads = [next((v for v in row if v), 1) for row in stack.rows]
    invs = [pow(v, q - 2, q) for v in leads]
    normalised = MatrixGF(
        [[v * inv % q for v in row] for row, inv in zip(stack.rows, invs)], field
    )
    basis, keys, offsets, terms, coeffs = _normalised_trim(normalised)
    # scale[x] = sigma(x) lambda_x and unscale[x] = sigma(x) / lambda_x for
    # every subset bitmask x, each from x minus its lowest stream. Only that
    # stream being theta changes sigma.
    scale, unscale = [1] * (1 << m), [1] * (1 << m)
    for x in range(1, 1 << m):
        low = x & -x
        i = low.bit_length() - 1
        up, down = scale[x ^ low] * leads[i] % q, unscale[x ^ low] * invs[i] % q
        if i == theta - 1 and (x >> theta).bit_count() & 1:
            up, down = q - up, q - down
        scale[x], unscale[x] = up, down
    subsets = _subsets(m)
    drops: Dict[int, Dict[tuple, Tuple[tuple, ...]]] = {
        ell: {} for ell in range(1, m + 1)
    }
    for i, s in enumerate(keys):
        f = scale[s]
        at, end = offsets[i], offsets[i + 1]
        drops[s.bit_count()][subsets[s]] = tuple(
            (subsets[t], c * f * unscale[t] % q)
            for t, c in zip(terms[at:end], coeffs[at:end])
        )
    return _kept(m, basis), drops


# ---------------------------------------------------------------------------
# The query plan: everything about the queries but the user randomness.

@dataclass(frozen=True, eq=False)
class QueryPlan:
    """The randomness-free part of one retrieval.

    kept[server-1][ell-1] holds the templates of the round's sums that
    survive the trim, in skeleton order. drops is the trim's table expanding
    every dropped sum through kept ones. first and peel come from the
    skeleton (see `_build_skeleton`), and num_sums counts its sums, kept or
    dropped. Callers only read it.
    """

    kept: Tuple[Tuple[Tuple[_SumTemplate, ...], ...], ...]
    drops: Dict[int, Dict[tuple, Tuple[tuple, ...]]]
    first: Dict[tuple, int]
    peel: Tuple[array, array, array, array]
    num_sums: int


def _build_plan(instance: PlcInstance) -> QueryPlan:
    n, m = instance.num_servers, instance.num_streams
    theta = instance.demand_index
    sums, first, peel = _build_skeleton(n, m, instance.repetitions, theta)
    kept, drops = _trim_tables(instance.combination_matrix, theta)
    kept_sets = {ell: set(v) for ell, v in kept.items()}
    blocks = [[[] for _ in range(m)] for _ in range(n)]
    for tmpl in sums:
        if tmpl.subset in kept_sets[tmpl.order]:
            blocks[tmpl.server - 1][tmpl.order - 1].append(tmpl)
    kept_blocks = tuple(tuple(map(tuple, server)) for server in blocks)
    return QueryPlan(kept_blocks, drops, first, peel, len(sums))


# ---------------------------------------------------------------------------
# Serialisation: bake the user randomness in and normalise.

def _bake(terms, tau, signs, q: int):
    """Serialise one sum's terms; returns (wire_sum, lead before scaling).

    Every coefficient s_v * eps is +1 or -1, so scaling the lead to 1 keeps
    the terms whose sign equals the lead's and negates the others. Terms are
    already sorted, since each stream appears once, in ascending order.
    """
    lead = signs[terms[0][1]] * terms[0][2]
    neg = q - 1
    wire = []
    for stream, pos, eps in terms:
        wire.append((stream, tau[pos], 1 if signs[pos] * eps == lead else neg))
    return tuple(wire), 1 if lead == 1 else neg


@lru_cache(maxsize=1)
def _serialise(instance: PlcInstance, randomness: PlcRandomness):
    """The plan's kept sums with the randomness baked in, each block in
    canonical order.

    Returns per_server, the wire blocks of the descriptor, and notes, which
    holds per block the (skeleton index, lead) of each sum in the same
    order. One entry: `reconstruct` reuses the serialisation that
    `generate_queries` just made for the same instance and randomness. The
    cache hands the same blocks to every caller, so callers only read them.
    """
    if len(randomness.position_map) != instance.stream_length:
        raise ValueError("randomness sized for a different stream length")
    q = instance.field.q
    tau, signs = randomness.position_map, randomness.signs
    by_wire = itemgetter(0)
    per_server, notes = [], []
    for server_kept in instance.plan.kept:
        wires, server_notes = [], []
        for templates in server_kept:
            baked = []
            for tmpl in templates:
                wire, lead = _bake(tmpl.terms, tau, signs, q)
                baked.append((wire, (tmpl.index, lead)))
            baked.sort(key=by_wire)
            block_wires, block_notes = zip(*baked) if baked else ((), ())
            wires.append(block_wires)
            server_notes.append(block_notes)
        per_server.append(tuple(wires))
        notes.append(tuple(server_notes))
    return tuple(per_server), tuple(notes)


def generate_queries(
    instance: PlcInstance, randomness: PlcRandomness
) -> QueryDescriptor:
    """Serialise the per-server queries; all randomisation lives in
    `randomness`."""
    per_server, _ = _serialise(instance, randomness)
    return QueryDescriptor(
        num_servers=instance.num_servers,
        num_streams=instance.num_streams,
        stream_length=instance.stream_length,
        field_order=instance.field.q,
        per_server=per_server,
    )


def answer_queries(
    descriptor: QueryDescriptor, streams: Sequence[Sequence[int]]
) -> AnswerSet:
    """Evaluate every server's sums against the replicated streams.

    streams[k-1] holds stream k in served position space. Every server gets
    the same stream contents; only the sums differ. Descriptors arrive from
    outside, so every term is checked: stream in [1, M], position in [1, T],
    coefficient in [0, q), streams strictly increasing within a sum, and no
    sum is empty.
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
                prev = 0
                for stream, pos, coeff in wire_sum:
                    if not (
                        prev < stream <= m and 1 <= pos <= t_len and 0 <= coeff < q
                    ):
                        raise ValueError(
                            f"descriptor term {(stream, pos, coeff)} out of range"
                            " or out of order"
                        )
                    prev = stream
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

    The descriptor must match the serialisation of instance and randomness,
    taken from the cache that `generate_queries` filled for the same pair
    (or made afresh); a mismatch means the transcript was tampered with or
    the inputs are inconsistent.
    """
    q = instance.field.q
    per_server, notes = _serialise(instance, randomness)
    if per_server != descriptor.per_server:
        raise ValueError("descriptor does not match instance and randomness")
    plan = instance.plan
    if len(plan.peel[0]) != instance.stream_length:
        raise ValueError("target coverage incomplete")

    # Un-normalised sum values in engine pattern space, by skeleton index.
    values = [0] * plan.num_sums
    for server_idx, server_notes in enumerate(notes):
        for ell_idx, block in enumerate(server_notes):
            got = answers[server_idx][ell_idx]
            if len(got) != len(block):
                raise ValueError("answer shape differs from descriptor")
            for (at, lead), ans in zip(block, got):
                values[at] = (lead * ans) % q

    # Expand the trimmed sums from the kept ones.
    n = instance.num_servers
    first = plan.first
    for ell, drops_ell in plan.drops.items():
        slot_count = (n - 1) ** (ell - 1)
        for rep in range(instance.repetitions):
            for server in range(1, n + 1):
                for s, combo in drops_ell.items():
                    at = first[(rep, server, s)]
                    terms = [(first[(rep, server, t)], lam) for t, lam in combo]
                    for coord in range(slot_count):
                        acc = 0
                        for t, lam in terms:
                            acc += lam * values[t + coord]
                        values[at + coord] = acc % q

    # Peel the target's fresh symbols and undo the randomness.
    tau, signs = randomness.position_map, randomness.signs
    out = [0] * instance.stream_length
    for v, at, src, sign in zip(*plan.peel):
        total = values[at] - values[src] if src >= 0 else values[at]
        out[tau[v] - 1] = (sign * signs[v] * total) % q
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
