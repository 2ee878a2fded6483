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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .ffield import PrimeField
from .gflinalg import MatrixGF, VectorGF, rank
from .jplc_encoder import derive_combination_vectors
from .protocol_core import Demand


@dataclass(frozen=True)
class IplcDraws:
    """Optional overrides for the encoder's random draws.

    algorithm picks the planting route in the K mod D != 0 case. block_index
    is i* (algorithm 1 and the D | K case) or the dropped-segment index
    (algorithm 2). sigma is the coefficient-slot permutation of [D]. pi is the
    full column permutation (slot -> stream), which must respect the planted
    demand columns. free_alphas maps (row_or_segment, position) to the values
    of the freely drawn coefficients; derived coefficients are computed, not
    drawn.
    """

    algorithm: Optional[int] = None
    block_index: Optional[int] = None
    sigma: Optional[Tuple[int, ...]] = None
    pi: Optional[Tuple[int, ...]] = None
    free_alphas: Optional[Dict[Tuple[int, int], int]] = None


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
    assert p1 + p2 == 1
    return p1, p2


def _template_supports_r0(k: int, d: int) -> Tuple[Tuple[int, ...], ...]:
    return tuple(
        tuple(range((i - 1) * d + 1, i * d + 1)) for i in range(1, k // d + 1)
    )


def _template_supports_rdivd(
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
    if r == 0:
        return tuple(
            (i, j) for i in range(1, n + 1) if i != block_index
            for j in range(1, d + 1)
        )
    full = [(i, j) for i in range(1, n + 1) for j in range(1, d + 1)]
    segs = [(n + i, j) for i in range(1, m + 1) for j in range(1, r + 1)]
    if algorithm == 1:
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


def _draw_free_alphas(field, rng, free_positions, overrides):
    alphas = {}
    for key in free_positions:
        if overrides and key in overrides:
            v = overrides[key] % field.q
            if v == 0:
                raise ValueError(f"alpha override at {key} must be nonzero")
            alphas[key] = v
        else:
            alphas[key] = field.rand_nonzero_int(rng)
    return alphas


def _complete_pi(k, constrained, rng, pi_override):
    """Extend the planted slot -> stream assignments to a full bijection."""
    if pi_override is not None:
        pi = tuple(pi_override)
        if sorted(pi) != list(range(1, k + 1)):
            raise ValueError("pi must be a permutation of 1..K")
        for slot, stream in constrained.items():
            if pi[slot - 1] != stream:
                raise ValueError(
                    f"pi override breaks the planted demand at slot {slot}"
                )
        return pi
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


def _sigma(d, rng, override):
    if override is not None:
        sig = tuple(override)
        if sorted(sig) != list(range(1, d + 1)):
            raise ValueError("sigma must be a permutation of 1..D")
        return sig
    perm = list(range(1, d + 1))
    rng.shuffle(perm)
    return tuple(perm)


def build_partition_matrix_r0(
    demand: Demand,
    num_streams: int,
    field: PrimeField,
    rng: random.Random,
    draws: Optional[IplcDraws] = None,
) -> IplcEncoderOutput:
    """D | K case: one block-diagonal row per group of D streams."""
    k = num_streams
    d = demand.size
    r, blocks, _ = partition_shape(k, d)
    if r != 0:
        raise ValueError("use the aligned builder when K mod D is nonzero")
    if demand.indices[-1] > k:
        raise ValueError("demand index exceeds stream count")

    if draws is not None and draws.block_index is not None:
        i_star = draws.block_index
        if not 1 <= i_star <= blocks:
            raise ValueError("block index out of range")
    else:
        i_star = rng.randrange(1, blocks + 1)
    sigma = _sigma(d, rng, draws.sigma if draws else None)

    free = free_alpha_positions(k, d, None, i_star)
    alphas = _draw_free_alphas(field, rng, free, draws.free_alphas if draws else None)
    for j in range(1, d + 1):
        alphas[(i_star, j)] = demand.coefficients.entries[sigma[j - 1] - 1]

    constrained = planted_slot_map(demand, k, sigma, None, i_star)
    pi = _complete_pi(k, constrained, rng, draws.pi if draws else None)

    rows = [[0] * k for _ in range(blocks)]
    for i in range(1, blocks + 1):
        for j in range(1, d + 1):
            rows[i - 1][pi[(i - 1) * d + j - 1] - 1] = alphas[(i, j)]
    g = MatrixGF(rows, field)
    assert rank(g) == blocks

    template = _template_supports_r0(k, d)
    supports = tuple(
        tuple(sorted(pi[c - 1] for c in s)) for s in template
    )
    u_list, c_list = derive_combination_vectors(g, supports)
    out = IplcEncoderOutput(
        generator=g,
        supports=supports,
        template_supports=template,
        row_space_vectors=u_list,
        combination_vectors=c_list,
        demand_index=i_star,
        pi=pi,
        sigma=sigma,
        algorithm_used=None,
        block_index=i_star,
        omegas=None,
        alphas=alphas,
        demand=demand,
        field=field,
    )
    _check_planted(out)
    return out


def build_partition_matrix_rdivd(
    demand: Demand,
    num_streams: int,
    field: PrimeField,
    rng: random.Random,
    draws: Optional[IplcDraws] = None,
) -> IplcEncoderOutput:
    """K mod D nonzero case: n plain rows plus two aligned rows."""
    k = num_streams
    d = demand.size
    r, n, m = partition_shape(k, d)
    if r == 0:
        raise ValueError("use the block-diagonal builder when D divides K")
    if demand.indices[-1] > k:
        raise ValueError("demand index exceeds stream count")
    if field.q < m:
        raise ValueError(
            f"field order {field.q} is too small: the aligned rows need "
            f"{m} distinct mixing points"
        )
    omegas = tuple(m - i for i in range(1, m + 1))  # omega_i = m - i

    if draws is not None and draws.algorithm is not None:
        algorithm = draws.algorithm
        if algorithm not in (1, 2):
            raise ValueError("algorithm must be 1 or 2")
        if algorithm == 1 and n == 0:
            raise ValueError("algorithm 1 needs at least one plain row")
    else:
        p1, _ = algorithm_probabilities(k, d)
        algorithm = 1 if rng.random() < float(p1) else 2

    sigma = _sigma(d, rng, draws.sigma if draws else None)
    v = demand.coefficients.entries

    if algorithm == 1:
        if draws is not None and draws.block_index is not None:
            i_star = draws.block_index
            if not 1 <= i_star <= n:
                raise ValueError("plain-row index out of range")
        else:
            i_star = rng.randrange(1, n + 1)
        free = free_alpha_positions(k, d, 1, i_star)
        alphas = _draw_free_alphas(
            field, rng, free, draws.free_alphas if draws else None
        )
        for j in range(1, d + 1):
            alphas[(i_star, j)] = v[sigma[j - 1] - 1]
        constrained = planted_slot_map(demand, k, sigma, 1, i_star)
        demand_index = i_star
    else:
        if draws is not None and draws.block_index is not None:
            i_sub = draws.block_index
            if not 1 <= i_sub <= m:
                raise ValueError("segment index out of range")
        else:
            i_sub = rng.randrange(1, m + 1)
        free = free_alpha_positions(k, d, 2, i_sub)
        alphas = _draw_free_alphas(
            field, rng, free, draws.free_alphas if draws else None
        )
        for i in range(1, m + 1):
            if i == i_sub:
                continue
            gap_inv = field.inv((omegas[i_sub - 1] - omegas[i - 1]) % field.q)
            for j in range(1, r + 1):
                pos = (i - 1) * r + j if i < i_sub else (i - 2) * r + j
                alphas[(n + i, j)] = (v[sigma[pos - 1] - 1] * gap_inv) % field.q
        constrained = planted_slot_map(demand, k, sigma, 2, i_sub)
        i_star = i_sub
        demand_index = n + (m - i_sub + 1)

    pi = _complete_pi(k, constrained, rng, draws.pi if draws else None)

    rows = [[0] * k for _ in range(n + 2)]
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
    assert rank(g) == n + 2

    template = _template_supports_rdivd(k, d, r, n, m)
    supports = tuple(tuple(sorted(pi[c - 1] for c in s)) for s in template)
    u_list, c_list = derive_combination_vectors(g, supports)
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
        block_index=i_star,
        omegas=omegas,
        alphas=alphas,
        demand=demand,
        field=field,
    )
    _check_planted(out)
    return out


def build_partition_matrix(
    demand: Demand,
    num_streams: int,
    field: PrimeField,
    rng: random.Random,
    draws: Optional[IplcDraws] = None,
) -> IplcEncoderOutput:
    """Dispatch to the block-diagonal or aligned builder by K mod D."""
    r, _, _ = partition_shape(num_streams, demand.size)
    if r == 0:
        return build_partition_matrix_r0(demand, num_streams, field, rng, draws)
    return build_partition_matrix_rdivd(demand, num_streams, field, rng, draws)


def _check_planted(out: IplcEncoderOutput) -> None:
    """The combination at the demand index must be the demand, up to the
    leading-one normalisation factor 1/v_1."""
    demand = out.demand
    field = out.field
    k_star = out.demand_index
    assert out.supports[k_star - 1] == demand.indices
    u = out.row_space_vectors[k_star - 1]
    v1_inv = field.inv(demand.coefficients.entries[0])
    for idx, v in zip(demand.indices, demand.coefficients.entries):
        assert u.entries[idx - 1] == (v1_inv * v) % field.q
