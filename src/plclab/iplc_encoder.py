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

Each support's combination has a closed form: plain row i is C = e_i, and the
aligned support that drops segment t is C = w_t e_(n+1) - e_(n+2), since the
two aligned rows carry a and w_i a on segment i, so C . G is (w_t - w_i) a
there and vanishes exactly on segment t.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .ffield import PrimeField
from .gflinalg import MatrixGF, VectorGF, rank
from .jplc_encoder import check_planted_demand, scaled_combinations
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


def _template_supports(
    k: int, d: int, r: int, n: int, m: int
) -> Tuple[Tuple[int, ...], ...]:
    full = [tuple(range((i - 1) * d + 1, i * d + 1)) for i in range(1, n + 1)]
    aligned_cols = list(range(n * d + 1, n * d + m * r + 1))
    aligned = []
    for t in range(m, 0, -1):  # ordered by dropped segment, descending
        drop = set(range(n * d + (t - 1) * r + 1, n * d + t * r + 1))
        aligned.append(tuple(c for c in aligned_cols if c not in drop))
    return tuple(full + aligned)


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
    """
    k = num_streams
    d = demand.size
    if demand.field != field:
        raise ValueError("demand and encoder fields differ")
    r, n, m = partition_shape(k, d)
    if demand.indices[-1] > k:
        raise ValueError("demand index exceeds stream count")
    q = field.q
    if q < m:
        raise ValueError(
            f"field order {q} is too small: the aligned rows need "
            f"{m} distinct mixing points"
        )
    omegas = tuple(m - i for i in range(1, m + 1))  # omega_i = m - i
    # The segment of each slot: 0 on the plain rows, i on aligned segment i.
    segment = [0] * (n * d) + [i for i in range(1, m + 1) for _ in range(r)]

    if r == 0:  # D | K draws its block before sigma; seeded runs rely on it
        algorithm = None
        block = rng.randrange(1, n + 1)
    else:  # exact p1 = nD/K: exhaustive audits branch on it
        algorithm = 1 if rng.random() < Fraction(n * d, k) else 2
    sigma = list(range(1, d + 1))
    rng.shuffle(sigma)
    if algorithm is not None:
        block = rng.randrange(1, (n if algorithm == 1 else m) + 1)
    demand_index = n + m - block + 1 if algorithm == 2 else block
    template = _template_supports(k, d, r, n, m)
    planted = dict(zip(template[demand_index - 1], sigma))  # slot -> sigma_j

    # Planted slot j takes v_(sigma_j) g, where g is 1 on a plain slot and
    # 1 / (omega_block - omega_i) on aligned segment i, so the combination
    # that drops segment `block` reads v there. Every other slot draws a
    # free nonzero alpha, in slot order: K - D of them on every route.
    v = demand.coefficients.entries
    gain = {0: 1}
    alphas = []
    for s, i in enumerate(segment, 1):
        if s not in planted:
            alphas.append(field.rand_nonzero_int(rng))
            continue
        if i not in gain:
            gain[i] = field.inv((omegas[block - 1] - omegas[i - 1]) % q)
        alphas.append(v[planted[s] - 1] * gain[i] % q)

    # pi sends planted slot j to stream W_(sigma_j) and the free slots, in
    # order, to a shuffle of the undemanded streams.
    pi = [0] * k
    for s, j in planted.items():
        pi[s - 1] = demand.indices[j - 1]
    demanded = set(demand.indices)
    streams = [i for i in range(1, k + 1) if i not in demanded]
    rng.shuffle(streams)
    free = (s for s in range(1, k + 1) if s not in planted)
    for s, stream in zip(free, streams):
        pi[s - 1] = stream

    # Plain slot s fills row ceil(s / D); aligned slot s of segment i fills
    # the two aligned rows with a and omega_i a.
    rows = [[0] * k for _ in range(n + (2 if r else 0))]
    for s, (a, i) in enumerate(zip(alphas, segment), 1):
        col = pi[s - 1] - 1
        if i:
            rows[n][col] = a
            rows[n + 1][col] = a * omegas[i - 1] % q
        else:
            rows[(s - 1) // d][col] = a
    g = MatrixGF(rows, field)
    if rank(g) != len(rows):
        raise ValueError(f"generator rank is below its {len(rows)} rows")

    supports = tuple(tuple(sorted(pi[c - 1] for c in s)) for s in template)
    plain = [[int(i == row) for i in range(len(rows))] for row in range(n)]
    aligned = [[0] * n + [omegas[t - 1], -1] for t in range(m, 0, -1)]
    u_list, c_list = scaled_combinations(g, supports, plain + aligned)
    out = IplcEncoderOutput(
        generator=g,
        supports=supports,
        template_supports=template,
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
