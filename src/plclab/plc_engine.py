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

The scheme is one block of N^M positions, repeated T / N^M times. Everything
but the user randomness is a `QueryPlan` for one repetition, built once per
instance from tables that are built once per shape and shared:

- per (N, M): the sums, built for target M, each distinct term one tuple
  that every sum holding it shares, with their subset groups, first indices
  and peel columns, indexed through int arrays. The scheme treats every
  stream alike but the target, so the sums for any other target are those
  for M with the streams renamed: the others keep their order and the
  target takes M's place. A target keeps only the renaming and one int
  array of first indices under it, and `_bake` moves the target's term to
  its rank while it renames the terms.
- per (N, M, target, B): which sums survive the trim, as int arrays.
- per row-normalised stack: the trim's coefficients, beside a pattern of
  which subsets expand which that every stack of a shape shares.
- per run: the stack's row leads, which `reconstruct` turns into one factor
  per trimmed term.

Repetition r is an offset: r N^M on positions and r times the sums per
repetition on sum indices. `generate_queries` bakes the randomness into the
plan and keeps that serialisation on the instance, beside the plan:
`reconstruct` checks the descriptor against it and reuses it. So nothing of
a run outlives its instance.
"""

from __future__ import annotations

import random
import weakref
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations
from math import comb
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
    Beside the cached plan, the instance keeps the serialisation of its last
    `generate_queries` call.
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
    +1 or -1 per engine position. Every entry is an int: a float or a bool
    that compares equal to one is refused, since it would reach the
    descriptor or the recovered stream.
    """

    position_map: Tuple[int, ...]
    signs: Tuple[int, ...]

    def __post_init__(self):
        tau, signs = self.position_map, self.signs
        if not {*map(type, tau), *map(type, signs)} <= {int}:
            raise ValueError("position map and signs must hold ints")
        # T distinct ints in [1, T] are a bijection of 1..T.
        t = len(tau)
        if t and (len(set(tau)) != t or min(tau) != 1 or max(tau) != t):
            raise ValueError("position map must be a bijection of 1..T")
        if len(signs) != t or not set(signs) <= {1, -1}:
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
# Canonical structure: one repetition's position tables and sums.

def _other_servers(server: int, num_servers: int) -> List[int]:
    return [n for n in range(1, num_servers + 1) if n != server]


@lru_cache(maxsize=16)
def _build_skeleton(num_servers: int, num_streams: int):
    """One repetition's sums for target theta = M, grouped by subset, and how
    reconstruction indexes and peels them. Every other target reads this
    skeleton under a renaming of its streams (see `_target_index`).

    The scheme repeats one block of N^M engine positions; repetition r reads
    position v + r N^M and sum i + r len(sums). Positions are 0-based.
    sums[i] is a tuple of (stream, position, eps) terms, by stream. Subsets
    are bitmasks, bit x-1 standing for stream x. first[(server-1) 2^M + mask]
    is the index of the subset's first sum at that server: its (N-1)^(ell-1)
    sums, one per coordinate, are sums[first:first + (N-1)^(ell-1)].
    groups[server-1][ell-1] is a pair of arrays, the round's subset masks in
    lexicographic order of subsets (one array shared by every server) and
    their first indices. peel holds four columns with one entry per fresh
    position v of the target, (v, sum, source, sign): the target's engine
    symbol at v is sign * (sum - source), where source is the other server's
    previous-round sum over the same interference, or -1 in round one, which
    has none. The indexes and columns are int arrays, a fraction of the
    memory of tuples and tuple-keyed dicts.

    A sum over a subset with the target is its peel source's sum plus the
    target's term: both read the same inherited positions for the
    interference, with the same signs. So it shares the source's term
    tuples, and the positions tables that contain the target are never
    built. Each distinct term is one tuple object.
    """
    n, m = num_servers, num_streams
    streams = range(1, m + 1)
    top = 1 << (m - 1)
    total = n * sum(comb(m, ell) * (n - 1) ** (ell - 1) for ell in streams)
    sums: List[tuple] = []
    first = _compact([0], total) * (n << m)
    groups = [[] for _ in range(n)]
    peel = tuple(array("q") for _ in range(4))
    # start[(server, u)]: the first fresh position of the table of an
    # (ell-1)-subset u without the target, allocated in fresh-counter order:
    # server-major, subsets lexicographic. A table with the target only
    # repeats other servers' positions, which its sums take from their peel
    # source instead.
    start: Dict[Tuple[int, tuple], int] = {}
    counter = 0
    for ell in streams:
        slot_count = (n - 1) ** (ell - 1)
        sub_slot = (n - 1) ** (ell - 2) if ell >= 2 else 0
        for server in range(1, n + 1):
            for u in combinations(range(1, m), ell - 1):
                start[(server, u)] = counter
                counter += slot_count
        # One sum per server, ell-subset and coordinate. Signs alternate over
        # the interference part and put (-1)^(ell-1) on the target; with the
        # target last they alternate over the whole subset.
        subsets = list(combinations(streams, ell))
        masks = _compact((sum(1 << (x - 1) for x in s) for s in subsets), (1 << m) - 1)
        signs = [(-1) ** i for i in range(ell)]
        for server in range(1, n + 1):
            others = _other_servers(server, n)
            base = (server - 1) << m
            ats = _compact((), total)
            for s, mask in zip(subsets, masks):
                at = first[base | mask] = len(sums)
                ats.append(at)
                if s[-1] != m:
                    tables = [start[(server, s[:i] + s[i + 1 :])] for i in range(ell)]
                    for coord in range(slot_count):
                        sums.append(tuple([
                            (x, v + coord, eps) for x, v, eps in zip(s, tables, signs)
                        ]))
                    continue
                v = start[(server, s[:-1])]
                for coord in range(slot_count):
                    term = (m, v + coord, signs[-1])
                    if ell == 1:
                        src = -1
                        sums.append((term,))
                    else:
                        src = first[(others[coord // sub_slot] - 1) << m | mask ^ top]
                        src += coord % sub_slot
                        sums.append((*sums[src], term))
                    for column, value in zip(peel, (v + coord, at + coord, src, signs[-1])):
                        column.append(value)
            groups[server - 1].append((masks, ats))
    return tuple(sums), tuple(map(tuple, groups)), first, peel


@lru_cache(maxsize=32)
def _target_index(num_servers: int, num_streams: int, theta: int):
    """(label, first) for target theta, read off the theta = M skeleton: its
    sums, groups and peel serve every target unchanged.

    The scheme singles out no stream but the target. Let phi map [M] minus
    theta onto [M-1] in order and theta to M. Fresh positions go to the
    subsets that avoid the target in lexicographic order, which phi keeps; a
    table whose subset holds the target concatenates the other servers'
    tables without it; signs alternate over the interference in stream
    order and put (-1)^(ell-1) on the target. So the skeleton for theta is
    the one for M with stream phi(x) renamed x: the sum at (server, mask,
    coord) is M's sum at (server, phi(mask), coord), its target term moved
    from last to its rank in the subset, and the peel is M's own.

    label[x] is the stream that M's stream x stands for, and first[(server-1)
    2^M + mask] is the skeleton index of the first sum of subset mask, in
    theta's labels, at that server: the skeleton's first read through phi.
    The theta = M tables are the skeleton's own.
    """
    first = _build_skeleton(num_servers, num_streams)[2]
    m = num_streams
    if theta == m:
        return tuple(range(m + 1)), first
    label = (0, *range(1, theta), *range(theta + 1, m + 1), theta)
    # phi[mask] for every bitmask: streams below theta stay, those above move
    # down one, theta becomes M.
    phi = [0]
    for x in range(1, m + 1):
        bit = 1 << (m - 1 if x == theta else x - 1 - (x > theta))
        phi += [image | bit for image in phi]
    moved = array(first.typecode, [
        first[base | image] for base in range(0, num_servers << m, 1 << m) for image in phi
    ])
    return label, moved


@lru_cache(maxsize=32)
def _kept(num_servers: int, num_streams: int, theta: int, basis: int):
    """The skeleton indices of the sums that survive the trim for target
    theta and basis mask B, in the order `_serialise` bakes them.

    kept[server-1] is a pair (ones, rounds). ones is an int array with round
    one's indices, where no term moves, and rounds[ell-2] holds round ell's
    block as pairs (rank, indices): rank is the place among their ell terms
    that the sums' target term moves to from last, -1 when it stays last,
    and indices an int array. A subset's group is kept whole, exactly when
    it meets B; which groups meet B depends on the stack only through B. The
    arrays take a few bytes per kept sum, and one entry serves every run of
    the target and basis.
    """
    n, m = num_servers, num_streams
    sums, groups = _build_skeleton(n, m)[:2]
    first = _target_index(n, m, theta)[1]
    bit, below = 1 << (theta - 1), (1 << (theta - 1)) - 1
    kept = []
    for server, rounds in enumerate(groups):
        base = server << m
        blocks = []
        for ell, (masks, _) in enumerate(rounds):
            count = (n - 1) ** ell
            parts: Dict[int, List[int]] = {}
            for mask in masks:
                if mask & basis:
                    rank = (mask & below).bit_count() if mask & bit else ell
                    at = first[base | mask]
                    rank = -1 if rank == ell else rank
                    parts.setdefault(rank, []).extend(range(at, at + count))
            blocks.append(tuple(
                (rank, _compact(ats, len(sums))) for rank, ats in sorted(parts.items())
            ))
        ones = blocks[0][0][1] if blocks[0] else _compact((), 0)
        kept.append((ones, tuple(blocks[1:])))
    return tuple(kept)


# ---------------------------------------------------------------------------
# Trimming: which sums are linear consequences of the others.

def _wedge(stack: MatrixGF, theta: int):
    """The trim for target theta, with subsets as bitmasks (bit x-1 for
    stream x).

    The closed form of Sun & Jafar, "The Capacity of Private Computation"
    (arXiv:1710.11098): let B be the first rows of C that form a basis. A
    round-ell sum is kept exactly when its subset meets B. For x outside B
    write C_x = sum_b beta_xb C_b; for a subset s of B's complement the wedge
    of (e_x - sum_b beta_xb e_b) over x in s, with theta ordered last as the
    sums' signs order it (see `_target_index`), lies in the kernel of the
    round's sum map. Its e_s coefficient is 1 and every other term meets B,
    so it expands the dropped sum through kept ones.

    Returns (basis, drops): basis is B's bitmask, and drops maps each dropped
    subset s, round by round, to the (t, coefficient) pairs expressing its
    sum through the kept sums t, in no particular order.
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
    drops: Dict[int, Tuple[Tuple[int, int], ...]] = {}
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
            drops[streams(head)] = tuple(
                (streams(t), -c % q) for t, c in w.items() if t != head
            )
        wedges = grown
    return basis, drops


def _compact(values, bound: int) -> array:
    """values as an array of the narrowest unsigned type that holds bound."""
    code = next(c for c in "BHIQ" if bound >> 8 * array(c).itemsize == 0)
    return array(code, values)


# Entries of the trim cache. A normalised jplc stack is fixed by the
# evaluation point of each column, so plan-heavy (K=5) draws 5! = 120 of them;
# they share one pattern, so a full cache holds their coefficients.
_TRIM_CACHE_SIZE = 128


@dataclass(frozen=True, eq=False)
class _TrimPattern:
    """Which kept subsets expand each dropped one, for one normalised stack:
    the same for every stack of a shape.

    basis is B's bitmask. keys holds each dropped subset's bitmask, round by
    round; the kept subsets that expand keys[i] are terms[offsets[i]:
    offsets[i + 1]], in the wedge's order.
    """

    basis: int
    keys: array
    offsets: array
    terms: array


# Patterns by content, so that the stacks of one shape share one. An entry
# lives as long as a cached trim holds its pattern.
_PATTERNS: "weakref.WeakValueDictionary[int, _TrimPattern]" = weakref.WeakValueDictionary()


def _intern(pattern: _TrimPattern) -> _TrimPattern:
    """The held pattern with this content, or this one, now held."""
    content = (pattern.basis, pattern.keys, pattern.offsets, pattern.terms)
    key = hash((pattern.basis, *(a.tobytes() for a in content[1:])))
    held = _PATTERNS.get(key)
    if held is not None and (held.basis, held.keys, held.offsets, held.terms) == content:
        return held
    _PATTERNS[key] = pattern
    return pattern


@lru_cache(maxsize=_TRIM_CACHE_SIZE)
def _normalised_trim(stack: MatrixGF):
    """The trim of a row-normalised stack in natural order (theta = M):
    (pattern, coefficients), the `_TrimPattern` shared by every stack with
    the same one, and an int array with the coefficient of each of its
    terms.
    """
    q, m = stack.field.q, stack.nrows
    basis, drops = _wedge(stack, m)
    offsets, terms, coeffs = [0], [], []
    for combo in drops.values():
        for t, c in combo:
            terms.append(t)
            coeffs.append(c)
        offsets.append(len(terms))
    full = (1 << m) - 1
    pattern = _TrimPattern(
        basis,
        _compact(drops.keys(), full),
        _compact(offsets, len(terms)),
        _compact(terms, full),
    )
    return _intern(pattern), _compact(coeffs, q - 1)


def _subset_products(values, theta: int, q: int) -> List[int]:
    """sigma(x) times the product of values[y - 1] over y in x, for every
    subset bitmask x, where sigma(x) = (-1)^|{z in x : z > theta}| when theta
    is in x, 1 otherwise. Built a stream at a time: adding stream z > theta
    to x flips sigma exactly when theta is in x."""
    table = [1]
    half = 1 << (theta - 1)
    for z, v in enumerate(values, 1):
        if z <= theta:
            table += [t * v % q for t in table]
        else:
            flip = ([v] * half + [q - v] * half) * (len(table) // (2 * half))
            table += [t * f % q for t, f in zip(table, flip)]
    return table


def _trim_tables(instance: PlcInstance):
    """The trim for the instance's stack and target, as flat arrays: (basis,
    keys, offsets, terms, lams). The sum of each dropped subset keys[i] is
    the sum over j in [offsets[i], offsets[i + 1]) of lams[j] times the sum
    of kept subset terms[j], at the same server and coordinate. A subset is
    kept exactly when it meets B.

    The plan holds the trim of its row-normalised stack, in natural order,
    and this carries it over to (stack, theta), one run at a time. Take C =
    Lambda C' with C' row-normalised and lambda_x the lead of row x (1 for a
    zero row). B is unchanged by row scales. The coefficient of each dropped
    s on a kept t is multiplied by sigma(s) sigma(t) lambda_s / lambda_t,
    where lambda_s is the product of the lambda_x over x in s and sigma(s) is
    the sign that moves theta to the end (see `_subset_products`). The
    pattern does not involve positions, so one table covers every server,
    repetition and coordinate.
    """
    q, plan = instance.field.q, instance.plan
    pattern, coeffs = plan.trim
    theta = instance.demand_index
    scale = _subset_products(plan.leads, theta, q)
    unscale = _subset_products([pow(v, -1, q) for v in plan.leads], theta, q)
    terms, offsets = pattern.terms, pattern.offsets
    lams: List[int] = []
    for s, at, end in zip(pattern.keys, offsets, offsets[1:]):
        f = scale[s]
        lams += [c * f * unscale[t] % q for t, c in zip(terms[at:end], coeffs[at:end])]
    return pattern.basis, pattern.keys, offsets, terms, lams


# ---------------------------------------------------------------------------
# The query plan: everything about the queries but the user randomness.

@dataclass(frozen=True, eq=False)
class QueryPlan:
    """The randomness-free part of one retrieval, for one repetition.

    Everything here but trim and leads is shared: sums, groups and peel are
    the theta = M skeleton's, built once per (N, M) (see `_build_skeleton`),
    label and first are the target's, built once per (N, M, theta) (see
    `_target_index`), and kept once per (N, M, theta, B) (see `_kept`). Sum
    indices are the skeleton's: sums[i] holds its term tuples under M's
    stream labels, label[x] is the stream that M's stream x stands for, and
    `terms` reads a sum back in those labels. first[(server-1) 2^M + mask]
    is the index of the first sum of subset mask, in the target's labels, at
    that server. trim is the row-normalised stack's cached (pattern,
    coefficients), and leads the stack's row leads, which carry it over to
    this stack and target (see `_trim_tables`). Callers only read it.
    """

    label: Tuple[int, ...]
    sums: Tuple[tuple, ...]
    groups: tuple
    first: array
    peel: Tuple[array, array, array, array]
    kept: tuple
    trim: Tuple[_TrimPattern, array]
    leads: Tuple[int, ...]

    def terms(self, i: int) -> tuple:
        """Sum i as (stream, position, eps) terms under the streams' own
        labels, sorted by stream."""
        label = self.label
        return tuple(sorted((label[x], v, eps) for x, v, eps in self.sums[i]))

    @cached_property
    def kept_terms(self) -> Tuple[List[tuple], ...]:
        """Per server, its kept sums as `terms` reads them, by round,
        coordinate and subset: each place holds the same (round, subset,
        coordinate) for every target. Built when first asked for; a run
        never asks."""
        basis, first = self.trim[0].basis, self.first
        shift = len(self.label) - 1
        out = []
        for server, rounds in enumerate(self.groups):
            base = server << shift
            read: List[tuple] = []
            for ell, (masks, _) in enumerate(rounds):
                firsts = [first[base | mask] for mask in masks if mask & basis]
                count = (len(self.groups) - 1) ** ell
                read += [self.terms(at + c) for c in range(count) for at in firsts]
            out.append(read)
        return tuple(out)


def _build_plan(instance: PlcInstance) -> QueryPlan:
    n, m, theta = instance.num_servers, instance.num_streams, instance.demand_index
    stack = instance.combination_matrix
    q = stack.field.q
    leads = tuple([next((v for v in row if v), 1) for row in stack.rows])
    invs = [pow(v, -1, q) for v in leads]
    normalised = MatrixGF.of_reduced(
        [[v * inv % q for v in row] for row, inv in zip(stack.rows, invs)], stack.field
    )
    trim = _normalised_trim(normalised)
    sums, groups, _, peel = _build_skeleton(n, m)
    label, first = _target_index(n, m, theta)
    kept = _kept(n, m, theta, trim[0].basis)
    return QueryPlan(label, sums, groups, first, peel, kept, trim, leads)


# ---------------------------------------------------------------------------
# Serialisation: bake the user randomness in and normalise.

def _bake(terms, rank: int, at: int, label, tau, signs, neg: int, width: int):
    """Serialise the sum with index at and these terms; returns (key,
    wire_sum, note).

    The terms carry the skeleton's stream labels, in its order, and label
    renames them for the plan's target (see `_target_index`). Under the new
    labels the order holds but for the target's term, the last: rank is the
    place it moves to, or -1 when it stays. Each stream appears once, so the
    wire sum comes out sorted. Every coefficient s_v * eps is +1 or -1, so
    scaling the lead to 1 keeps the terms whose sign equals the lead's and
    puts neg = q - 1 on the others. The note is at when the lead was +1, and
    ~at (that is -at - 1) when it was -1 and the answer must be negated back.
    key is the lead's stream times width plus its served position: no two
    sums of a block share a lead's stream and position, so the key orders a
    block as the wire sums do.
    """
    x, v, eps = terms[-1] if rank == 0 else terms[0]
    lead = signs[v] * eps
    wire = []
    for stream, pos, eps in terms:
        wire.append((label[stream], tau[pos], 1 if signs[pos] * eps == lead else neg))
    if rank >= 0:
        wire.insert(rank, wire.pop())
    return label[x] * width + tau[v], tuple(wire), at if lead == 1 else ~at


_BY_KEY = itemgetter(0)


def _serialise(instance: PlcInstance, randomness: PlcRandomness):
    """The plan's kept sums, in every repetition, with the randomness baked
    in, each block in canonical order.

    Repetition r bakes the plan's sums against the r-th N^M slice of tau and
    the signs. Returns per_server, the wire blocks of the descriptor, and
    notes, an int array with one entry per wire sum, block after block in
    the descriptor's order: each sum's `_bake` note, on its index, sum i of
    repetition r having index i + r len(sums).
    """
    if len(randomness.position_map) != instance.stream_length:
        raise ValueError("randomness sized for a different stream length")
    plan = instance.plan
    sums, size, label = plan.sums, len(plan.sums), plan.label
    tau, signs = randomness.position_map, randomness.signs
    neg, width = instance.field.q - 1, len(tau) + 1
    block = len(plan.peel[0])  # N^M: the target's peel covers every position
    # Repetition 0 reads the whole tuples: its positions all lie below N^M.
    copies = [(0, tau, signs)]
    for v in range(block, len(tau), block):
        copies.append((len(copies) * size, tau[v : v + block], signs[v : v + block]))
    per_server, notes = [], array("q")
    for ones, rounds in plan.kept:
        wires = []
        for parts in (None, *rounds):
            if parts is None:
                # Round one's sums are single terms, each its own lead: they
                # bake inline, which at small T saves most calls to `_bake`.
                baked = []
                for offset, tau_r, signs_r in copies:
                    for i in ones:
                        ((x, v, eps),) = sums[i]
                        x, p, at = label[x], tau_r[v], offset + i
                        note = at if signs_r[v] * eps == 1 else ~at
                        baked.append((x * width + p, ((x, p, 1),), note))
            else:
                baked = [
                    _bake(sums[i], rank, offset + i, label, tau_r, signs_r, neg, width)
                    for offset, tau_r, signs_r in copies
                    for rank, kept in parts
                    for i in kept
                ]
            baked.sort(key=_BY_KEY)
            _, block_wires, block_notes = zip(*baked) if baked else ((), (), ())
            wires.append(block_wires)
            notes.extend(block_notes)
        per_server.append(tuple(wires))
    return tuple(per_server), notes


def generate_queries(
    instance: PlcInstance, randomness: PlcRandomness
) -> QueryDescriptor:
    """Serialise the per-server queries; all randomisation lives in
    `randomness`.

    The serialisation is kept on the instance, beside its plan, with the
    randomness it was baked from, for `reconstruct` to reuse. So it lives as
    long as the instance, and the next call on the instance replaces it."""
    per_server, notes = _serialise(instance, randomness)
    vars(instance)["_serialisation"] = randomness, per_server, notes
    return QueryDescriptor(
        num_servers=instance.num_servers,
        num_streams=instance.num_streams,
        stream_length=instance.stream_length,
        field_order=instance.field.q,
        per_server=per_server,
    )


def _bad_term(term) -> ValueError:
    return ValueError(f"descriptor term {term!r} out of range or out of order")


def _not_int(terms) -> ValueError:
    """The error for sums that did not evaluate to ints: the first of terms
    that is not three ints, or else the streams' symbols."""
    for term in terms:
        if type(term) is not tuple or tuple(map(type, term)) != (int, int, int):
            return _bad_term(term)
    return ValueError("stream symbols must be ints")


def answer_queries(
    descriptor: QueryDescriptor, streams: Sequence[Sequence[int]]
) -> AnswerSet:
    """Evaluate every server's sums against the replicated streams.

    streams[k-1] holds stream k in served position space. Every server gets
    the same stream contents; only the sums differ. Descriptors arrive from
    outside, so every term is checked: three ints, stream in [1, M],
    position in [1, T], coefficient in [0, q), streams strictly increasing
    within a sum, and no sum is empty. A term that is not three ints fails
    its indexing or leaves an answer that is not an int, which is checked
    once per block.
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
                try:
                    for stream, pos, coeff in wire_sum:
                        if not (
                            prev < stream <= m and 1 <= pos <= t_len and 0 <= coeff < q
                        ):
                            raise _bad_term((stream, pos, coeff))
                        prev = stream
                        acc += coeff * streams[stream - 1][pos - 1]
                except TypeError:
                    raise _not_int(wire_sum) from None
                vals.append(acc % q)
            # One check per block: a sum of ints is an int.
            if type(sum(vals)) is not int:
                raise _not_int(chain.from_iterable(block))
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

    The descriptor must match the serialisation of instance and randomness:
    the one `generate_queries` kept on the instance, when it was made for
    this randomness, or else one baked afresh. A mismatch means the
    transcript was tampered with or the inputs are inconsistent.
    """
    q = instance.field.q
    held = vars(instance).get("_serialisation")
    if held is not None and held[0] == randomness:
        _, per_server, notes = held
    else:
        per_server, notes = _serialise(instance, randomness)
    if per_server != descriptor.per_server:
        raise ValueError("descriptor does not match instance and randomness")
    plan = instance.plan
    n, block = instance.num_servers, instance.num_servers**instance.num_streams
    if len(plan.peel[0]) != block:
        raise ValueError("target coverage incomplete")

    # Un-normalised sum values in engine pattern space, by sum index. The
    # answers come from outside, so their shape and entries are checked.
    size = len(plan.sums)
    values = [0] * (size * instance.repetitions)
    if len(answers) != len(per_server):
        raise ValueError("answer set must hold one tuple per server")
    for blocks, server_answers in zip(per_server, answers):
        if len(server_answers) != len(blocks):
            raise ValueError("answer set must hold one block per round")
        if any(len(got) != len(block) for block, got in zip(blocks, server_answers)):
            raise ValueError("answer shape differs from descriptor")
    for at, ans in zip(notes, chain.from_iterable(chain.from_iterable(answers))):
        if type(ans) is not int or not 0 <= ans < q:
            raise ValueError(f"answer {ans!r} is not an int in [0, q)")
        if at < 0:
            values[~at] = -ans % q
        else:
            values[at] = ans

    # Expand the trimmed sums from the kept ones. A dropped subset and the
    # kept ones that expand it lie in one round, and at every server a
    # round's sums sit at one shift from server 1's.
    _, keys, offsets, terms, lams = _trim_tables(instance)
    first = plan.first
    reps = range(0, len(values), size)
    bases = range(0, n << instance.num_streams, 1 << instance.num_streams)
    for s, at, end in zip(keys, offsets, offsets[1:]):
        slot_count = (n - 1) ** (s.bit_count() - 1)
        pairs = list(zip(map(first.__getitem__, terms[at:end]), lams[at:end]))
        into = first[s]
        for base in bases:
            shift = first[base | s] - into
            for offset in reps:
                for coord in range(offset + shift, offset + shift + slot_count):
                    acc = 0
                    for t, lam in pairs:
                        acc += lam * values[t + coord]
                    values[into + coord] = acc % q

    # Peel the target's fresh symbols and undo the randomness.
    tau, signs = randomness.position_map, randomness.signs
    out = [0] * instance.stream_length
    for offset, base in zip(reps, range(0, instance.stream_length, block)):
        for v, at, src, sign in zip(*plan.peel):
            at += offset
            total = values[at] - values[src + offset] if src >= 0 else values[at]
            v += base
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
    if total.denominator != 1:
        raise ValueError(f"download {total} is not a whole number of symbols")
    return int(total)
