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

Each support's combination has a closed form: plain row i is C = e_i, and the
aligned support that drops segment t is C = w_t e_(n+1) - e_(n+2), since the
two aligned rows carry a and w_i a on segment i, so C . G is (w_t - w_i) a
there and vanishes exactly on segment t.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

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
    pi: Tuple[int, ...]
    sigma: Tuple[int, ...]
    algorithm_used: Optional[int]
    block_index: int
    omegas: Optional[Tuple[int, ...]]
    alphas: Dict[Tuple[int, int], int]
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


def free_alpha_positions(
    num_streams: int,
    demand_size: int,
    algorithm: Optional[int],
    block_index: int,
) -> Tuple[Tuple[int, int], ...]:
    """The (row_or_segment, position) keys whose coefficients are drawn
    freely rather than derived from the demand, in draw order."""
    r, n, m = partition_shape(num_streams, demand_size)
    d = demand_size
    full = [(i, j) for i in range(1, n + 1) for j in range(1, d + 1)]
    segs = [(n + i, j) for i in range(1, m + 1) for j in range(1, r + 1)]
    if r == 0 or algorithm == 1:
        return tuple([p for p in full if p[0] != block_index] + segs)
    if algorithm == 2:
        return tuple(full + [(n + block_index, j) for j in range(1, r + 1)])
    raise ValueError("algorithm must be 1 or 2 when K mod D is nonzero")


def planted_slot_map(
    demand: Demand,
    num_streams: int,
    sigma: Tuple[int, ...],
    algorithm: Optional[int],
    block_index: int,
) -> Dict[int, int]:
    """Which template slot must map to which demanded stream under pi."""
    d = demand.size
    r, n, m = partition_shape(num_streams, d)
    if r == 0 or algorithm == 1:
        return {
            (block_index - 1) * d + j: demand.indices[sigma[j - 1] - 1]
            for j in range(1, d + 1)
        }
    if algorithm == 2:
        out = {}
        for j in range(1, (block_index - 1) * r + 1):
            out[n * d + j] = demand.indices[sigma[j - 1] - 1]
        for j in range((block_index - 1) * r + 1, d + 1):
            out[n * d + r + j] = demand.indices[sigma[j - 1] - 1]
        return out
    raise ValueError("algorithm must be 1 or 2 when K mod D is nonzero")


def _complete_pi(k, constrained, rng):
    """Extend the planted slot -> stream assignments to a full bijection."""
    free_slots = [s for s in range(1, k + 1) if s not in constrained]
    used = set(constrained.values())
    free_streams = [i for i in range(1, k + 1) if i not in used]
    rng.shuffle(free_streams)
    pi = [0] * k
    for slot, stream in constrained.items():
        pi[slot - 1] = stream
    for slot, stream in zip(free_slots, free_streams):
        pi[slot - 1] = stream
    return tuple(pi)


def build_partition_matrix(
    demand: Demand,
    num_streams: int,
    field: PrimeField,
    rng: random.Random,
) -> IplcEncoderOutput:
    """n plain rows, plus two aligned rows when K mod D is nonzero.

    When D divides K the code is block diagonal: n = K/D plain rows, no
    aligned rows, and the demand is always planted in a plain row.
    Every draw comes from rng, in this order: the route (or, when D | K, the
    block), sigma, the route's block, the free alphas, then pi.
    """
    k = num_streams
    d = demand.size
    if demand.field != field:
        raise ValueError("demand and encoder fields differ")
    r, n, m = partition_shape(k, d)
    if demand.indices[-1] > k:
        raise ValueError("demand index exceeds stream count")
    if field.q < m:
        raise ValueError(
            f"field order {field.q} is too small: the aligned rows need "
            f"{m} distinct mixing points"
        )
    omegas = tuple(m - i for i in range(1, m + 1)) if r else None  # omega_i = m - i

    if r == 0:  # D | K draws its block before sigma; seeded runs rely on it
        algorithm = None
        block = rng.randrange(1, n + 1)
    else:
        p1, _ = algorithm_probabilities(k, d)
        algorithm = 1 if rng.random() < p1 else 2  # exact p1: exhaustive audits branch on it

    perm = list(range(1, d + 1))
    rng.shuffle(perm)
    sigma = tuple(perm)
    v = demand.coefficients.entries
    if algorithm is not None:
        block = rng.randrange(1, (n if algorithm == 1 else m) + 1)
    free = free_alpha_positions(k, d, algorithm, block)
    alphas = {key: field.rand_nonzero_int(rng) for key in free}
    if algorithm == 2:
        for i in range(1, m + 1):
            if i == block:
                continue
            gap_inv = field.inv((omegas[block - 1] - omegas[i - 1]) % field.q)
            for j in range(1, r + 1):
                pos = (i - 1) * r + j if i < block else (i - 2) * r + j
                alphas[(n + i, j)] = (v[sigma[pos - 1] - 1] * gap_inv) % field.q
        demand_index = n + (m - block + 1)
    else:
        for j in range(1, d + 1):
            alphas[(block, j)] = v[sigma[j - 1] - 1]
        demand_index = block
    constrained = planted_slot_map(demand, k, sigma, algorithm, block)
    pi = _complete_pi(k, constrained, rng)

    rows = [[0] * k for _ in range(n + (2 if r else 0))]
    for i in range(1, n + 1):
        for j in range(1, d + 1):
            rows[i - 1][pi[(i - 1) * d + j - 1] - 1] = alphas[(i, j)]
    for i in range(1, m + 1):
        w_i = omegas[i - 1]
        for j in range(1, r + 1):
            slot = n * d + (i - 1) * r + j
            a = alphas[(n + i, j)]
            rows[n][pi[slot - 1] - 1] = a
            rows[n + 1][pi[slot - 1] - 1] = (a * w_i) % field.q
    g = MatrixGF(rows, field)
    if rank(g) != len(rows):
        raise ValueError(f"generator rank is below its {len(rows)} rows")

    template = _template_supports(k, d, r, n, m)
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
        pi=pi,
        sigma=sigma,
        algorithm_used=algorithm,
        block_index=block,
        omegas=omegas,
        alphas=alphas,
        demand=demand,
        field=field,
    )
    check_planted_demand(out)
    return out
