"""Individual-privacy encoder.

Partitions the K streams into coded groups. When D divides K the generator is
block diagonal with K/D rows; otherwise, writing R for K mod D (required to
divide D), the generator keeps n = (K - R)/D - 1 plain rows and adds two rows
that interleave the remaining D + R columns in m = D/R + 1 segments, aligned
so that every way of dropping one segment is again a row-space support of
size D.

The demand hides one stream index inside each coded group it touches, never
the whole demand pattern at once: that is the individual privacy guarantee,
and it is what the selection probabilities below are tuned for. A demand is
planted either inside one plain row (algorithm 1, probability n D / K) or on
one of the aligned supports (algorithm 2, probability (D + R) / K), so that
every stream index ends up in the demanded support with probability D / K.
The route only chooses which template support the demand fills: its D slots
carry the demand, and the other K - D slots draw free coefficients.

Everything but sigma, the free alphas and pi depends only on (K, D, q), so
it lives in a per-shape table built once: the points w_i = m - i, the slot ->
segment map, the template supports, the exact route probability, and for
each demand index its free slots, its planted slots' gains and its
combination. A build only draws and fills.

Each support's combination has a closed form, and so has its row-space
vector U = C . G: plain row i has C = e_i, so U is G's row i; the aligned
support that drops segment t has C = w_t e_(n+1) - e_(n+2), and since the two
aligned rows carry a and w_i a on segment i, U = w_t row(n+1) - row(n+2) is
(w_t - w_i) a there and vanishes exactly on segment t. Nor does the rank
need an elimination: `check_full_rank` reads it off the code's structure.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from .ffield import PrimeField
from .gflinalg import MatrixGF, VectorGF
from .jplc_encoder import check_full_rank, check_planted_demand, leading_one
from .protocol_core import Demand


@dataclass(frozen=True)
class IplcEncoderOutput:
    generator: MatrixGF
    supports: Tuple[Tuple[int, ...], ...]
    template_supports: Tuple[Tuple[int, ...], ...]
    row_space_vectors: Tuple[VectorGF, ...]
    combination_vectors: Tuple[VectorGF, ...]
    demand_index: int
    algorithm_used: Optional[int]
    block_index: int
    alphas: Tuple[int, ...]  # by template slot
    demand: Demand
    field: PrimeField


def partition_shape(num_streams: int, demand_size: int) -> Tuple[int, int, int]:
    """(R, n, m) for the partition code; raises when the shape is unsupported.

    R = K mod D. For R = 0 the returned (n, m) are (K/D, 0). Otherwise R must
    divide D; then n counts the plain rows and m the aligned segments.
    """
    k, d = num_streams, demand_size
    if not 1 <= d <= k:
        raise ValueError("demand size must lie in [1, K]")
    r = k % d
    if r == 0:
        return 0, k // d, 0
    if d % r != 0:
        raise ValueError(
            f"no supported code shape for K={k}, D={d}: K mod D = {r} "
            "must be 0 or divide D"
        )
    n = (k - r) // d - 1
    m = d // r + 1
    return r, n, m


def algorithm_probabilities(num_streams: int, demand_size: int) -> Tuple[Fraction, Fraction]:
    """Exact selection probabilities of the two planting routes."""
    r, n, m = partition_shape(num_streams, demand_size)
    if r == 0:
        return Fraction(1), Fraction(0)
    p1 = Fraction(n * demand_size, num_streams)
    p2 = Fraction(demand_size + r, num_streams)
    if p1 + p2 != 1:
        raise ValueError(f"route probabilities {p1} and {p2} do not sum to one")
    return p1, p2


class _ExactProbability(Fraction):
    """An exact rational probability that `random() < p` tests in one float
    comparison.

    For a float x and the smallest float c >= p, x < p exactly when x < c:
    x < p <= c gives x < c, and a float below c lies below p, or it would be
    a float >= p smaller than c. Any other comparison is Fraction's, and an
    exact walk (the audit's `_Walk`) still reads the rational p.
    """

    __slots__ = ("_ceiling",)

    def __new__(cls, numerator=0, denominator=None):
        self = super().__new__(cls, numerator, denominator)
        c = float(self)  # correctly rounded, so c is p or a neighbour of p
        self._ceiling = c if Fraction(c) >= self else math.nextafter(c, math.inf)
        return self

    def __gt__(self, other):  # `x < p` for a float x lands here
        if type(other) is float:
            return other < self._ceiling
        return super().__gt__(other)


class _Shape(NamedTuple):
    """What a partition code of one (K, D, q) fixes before any draw."""

    r: int  # the three numbers of `partition_shape`
    n: int
    m: int
    omegas: Tuple[int, ...]  # w_i = m - i on aligned segment i
    segment: Tuple[int, ...]  # by slot: 0 on the plain rows, i on segment i
    template: Tuple[Tuple[int, ...], ...]
    p1: Optional[_ExactProbability]  # route 1's nD/K; None when D | K
    # By demand index: the slots outside its template support, the gain of
    # each of its planted slots, and its combination C.
    free: Tuple[Tuple[int, ...], ...]
    gains: Tuple[Tuple[int, ...], ...]
    combinations: Tuple[Tuple[int, ...], ...]


@lru_cache(maxsize=64)
def _shape_table(k: int, d: int, q: int) -> _Shape:
    r, n, m = partition_shape(k, d)
    omegas = tuple(m - i for i in range(1, m + 1))
    segment = (0,) * (n * d) + tuple(i for i in range(1, m + 1) for _ in range(r))
    # Support i <= n is plain row i; support n + m - t + 1 drops segment t,
    # so the aligned supports come by dropped segment, descending.
    dropped = [0] * n + list(range(m, 0, -1))
    template = tuple(
        tuple(range((i - 1) * d + 1, i * d + 1)) if t == 0
        else tuple(s for s in range(n * d + 1, k + 1) if segment[s - 1] != t)
        for i, t in enumerate(dropped, 1)
    )
    # A planted slot of segment i takes gain 1 / (w_t - w_i), so that the
    # combination dropping segment t reads the demand there; 1 when plain.
    gains = tuple(
        tuple(
            pow((omegas[t - 1] - omegas[segment[s - 1] - 1]) % q, q - 2, q) if t else 1
            for s in support
        )
        for support, t in zip(template, dropped)
    )
    rows = n + (2 if r else 0)
    combinations = tuple(
        tuple(int(j == i) for j in range(rows)) if t == 0
        else (0,) * n + (omegas[t - 1], q - 1)
        for i, t in enumerate(dropped)
    )
    return _Shape(
        r, n, m, omegas, segment, template,
        _ExactProbability(n * d, k) if r else None,
        tuple(tuple(sorted(set(range(1, k + 1)).difference(t))) for t in template),
        gains,
        combinations,
    )


def build_partition_matrix(
    demand: Demand,
    num_streams: int,
    field: PrimeField,
    rng: random.Random,
) -> IplcEncoderOutput:
    """n plain rows, plus two aligned rows when K mod D is nonzero.

    When D divides K the code is block diagonal: n = K/D plain rows, no
    aligned rows, and the demand is always planted in a plain row. The route
    and its block only choose which template support the demand fills; the
    rest of the build is the same on every route.
    Every draw comes from rng, in this order: the route (or, when D | K, the
    block), sigma, the route's block, the free alphas in slot order, then pi.
    Everything else comes from the per-shape table and the closed forms in
    the module docstring.
    """
    k = num_streams
    d = demand.size
    if demand.field is not field and demand.field != field:
        raise ValueError("demand and encoder fields differ")
    q = field.q
    shape = _shape_table(k, d, q)  # raises as `partition_shape` does
    r, n, m = shape.r, shape.n, shape.m
    if demand.indices[-1] > k:
        raise ValueError("demand index exceeds stream count")
    if q < m:
        raise ValueError(
            f"field order {q} is too small: the aligned rows need "
            f"{m} distinct mixing points"
        )

    if r == 0:  # D | K draws its block before sigma; seeded runs rely on it
        algorithm = None
        block = rng.randrange(1, n + 1)
    else:  # exact p1 = nD/K: exhaustive audits branch on it
        algorithm = 1 if rng.random() < shape.p1 else 2
    sigma = list(range(1, d + 1))
    rng.shuffle(sigma)
    if algorithm is not None:
        block = rng.randrange(1, (n if algorithm == 1 else m) + 1)
    demand_index = n + m - block + 1 if algorithm == 2 else block
    free = shape.free[demand_index - 1]

    # Every free slot draws a nonzero alpha, in slot order: K - D of them on
    # every route. Planted slot j takes v_(sigma_j) times its gain, and pi
    # sends it to stream W_(sigma_j); the free slots, in order, go to a
    # shuffle of the undemanded streams.
    alphas = [0] * k
    for s in free:
        alphas[s - 1] = field.rand_nonzero_int(rng)
    v = demand.coefficients.entries
    pi = [0] * k
    planted = zip(shape.template[demand_index - 1], sigma, shape.gains[demand_index - 1])
    for s, j, gain in planted:
        alphas[s - 1] = v[j - 1] * gain % q
        pi[s - 1] = demand.indices[j - 1]
    demanded = set(demand.indices)
    streams = [i for i in range(1, k + 1) if i not in demanded]
    rng.shuffle(streams)
    for s, stream in zip(free, streams):
        pi[s - 1] = stream
    check_full_rank(alphas, shape.omegas)

    # Plain slot s fills row ceil(s / D); aligned slot s of segment i fills
    # the two aligned rows with a and w_i a. U is G's row on a plain support,
    # and w_t row(n+1) - row(n+2) on the one that drops segment t = m, ..., 1.
    rows = [[0] * k for _ in range(n + (2 if r else 0))]
    for s in range(n * d):
        rows[s // d][pi[s] - 1] = alphas[s]
    aligned = []
    if r:
        top, bottom = rows[n], rows[n + 1]
        for s in range(n * d, k):
            col = pi[s] - 1
            top[col] = alphas[s]
            bottom[col] = alphas[s] * shape.omegas[shape.segment[s] - 1] % q
        aligned = [
            [(w * a - b) % q for a, b in zip(top, bottom)] for w in reversed(shape.omegas)
        ]
    g = MatrixGF.of_reduced(rows, field)
    supports = tuple([tuple(sorted([pi[c - 1] for c in s])) for s in shape.template])
    u_list, c_list = leading_one(
        field, supports, [*g.rows[:n], *aligned], shape.combinations
    )
    # Filled without the frozen dataclass __init__ and its one
    # object.__setattr__ per field; equality and repr read the same fields.
    out = object.__new__(IplcEncoderOutput)
    vars(out).update(
        generator=g,
        supports=supports,
        template_supports=shape.template,
        row_space_vectors=u_list,
        combination_vectors=c_list,
        demand_index=demand_index,
        algorithm_used=algorithm,
        block_index=block,
        alphas=tuple(alphas),
        demand=demand,
        field=field,
    )
    check_planted_demand(out)
    return out
