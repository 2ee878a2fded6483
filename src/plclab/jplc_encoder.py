"""Joint-privacy encoder.

Builds the specialised generalised Reed-Solomon generator matrix whose row
space contains, for every size-D subset of the K streams, exactly one coded
combination supported on that subset. The demand (W, V) is planted so that
the combination supported on W evaluates to a nonzero multiple of V . X_W,
while the matrix itself is distributed independently of the demand.

Two randomisation layers make that work: the evaluation points 0..K-1 are
assigned to column slots by a uniformly random bijection, and each coded
combination is normalised to leading coefficient one before leaving the
encoder. The caller rescales the recovered stream by v_1 afterwards.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence, Tuple

from .ffield import PrimeField
from .gflinalg import MatrixGF, VectorGF, rank, row_space_vector_with_support
from .protocol_core import Demand


@dataclass(frozen=True)
class JplcDraws:
    """Optional overrides for the encoder's random draws.

    omega_assignment gives the evaluation point of each column slot j (it must
    be a permutation of 0..K-1); padding gives the nonzero coefficients the
    encoder invents for the K-D streams outside the demand.
    """

    omega_assignment: Optional[Tuple[int, ...]] = None
    padding: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class JplcEncoderOutput:
    generator: MatrixGF
    supports: Tuple[Tuple[int, ...], ...]
    row_space_vectors: Tuple[VectorGF, ...]
    combination_vectors: Tuple[VectorGF, ...]
    demand_index: int
    pi: Tuple[int, ...]
    omegas: Tuple[int, ...]
    padding_coeffs: Tuple[int, ...]
    demand: Demand
    field: PrimeField


def enumerate_supports(num_streams: int, demand_size: int) -> Tuple[Tuple[int, ...], ...]:
    """All size-D subsets of [K] in lexicographic order."""
    return tuple(combinations(range(1, num_streams + 1), demand_size))


def derive_combination_vectors(
    g: MatrixGF, supports: Sequence[Tuple[int, ...]]
) -> Tuple[Tuple[VectorGF, ...], Tuple[VectorGF, ...]]:
    """For each support, the unique leading-one row-space vector U_k on it and
    the coefficients C_k with C_k . G = U_k."""
    u_list = []
    c_list = []
    for s in supports:
        found = row_space_vector_with_support(g, s, 1)
        if found is None:
            raise ValueError(f"row space has no vector with support {s}")
        u, c = found
        u_list.append(u)
        c_list.append(c)
    return tuple(u_list), tuple(c_list)


def build_grs_matrix(
    num_servers: int,
    demand: Demand,
    num_streams: int,
    field: PrimeField,
    rng: random.Random,
    draws: Optional[JplcDraws] = None,
) -> JplcEncoderOutput:
    """Build the joint-privacy generator matrix for one demand.

    num_servers only gates validation (the matrix itself is server-count
    independent); the retrieval engine consumes the output alongside N.
    """
    k = num_streams
    d = demand.size
    if demand.field != field:
        raise ValueError("demand and encoder fields differ")
    if num_servers < 1:
        raise ValueError("need at least one server")
    if d > k:
        raise ValueError("demand size exceeds stream count")
    if demand.indices[-1] > k:
        raise ValueError("demand index exceeds stream count")
    if field.q < k:
        raise ValueError(
            f"field order {field.q} is too small: need q >= K = {k} distinct "
            "evaluation points"
        )
    j_rows = k - d + 1
    w = demand.indices
    complement = tuple(i for i in range(1, k + 1) if i not in set(w))
    pi = w + complement

    if draws is not None and draws.omega_assignment is not None:
        omegas = tuple(draws.omega_assignment)
        if sorted(omegas) != list(range(k)):
            raise ValueError("omega assignment must be a permutation of 0..K-1")
    else:
        pool = list(range(k))
        rng.shuffle(pool)
        omegas = tuple(pool)

    if draws is not None and draws.padding is not None:
        padding = tuple(v % field.q for v in draws.padding)
        if len(padding) != k - d or any(v == 0 for v in padding):
            raise ValueError("padding must supply K-D nonzero coefficients")
    else:
        padding = tuple(field.rand_nonzero_int(rng) for _ in range(k - d))

    coeffs = tuple(demand.coefficients.entries) + padding

    alphas = []
    for slot in range(1, k + 1):
        w_j = omegas[slot - 1]
        if slot <= d:
            prod = 1
            for other in range(d + 1, k + 1):
                prod = (prod * (w_j - omegas[other - 1])) % field.q
        else:
            prod = 1
            for other in range(1, k + 1):
                if other != slot:
                    prod = (prod * (w_j - omegas[other - 1])) % field.q
        alpha = (coeffs[slot - 1] * field.inv(prod)) % field.q
        assert alpha != 0
        alphas.append(alpha)

    rows = [[0] * k for _ in range(j_rows)]
    for slot in range(1, k + 1):
        col = pi[slot - 1] - 1
        w_j = omegas[slot - 1]
        power = 1
        for i in range(j_rows):
            rows[i][col] = (alphas[slot - 1] * power) % field.q
            power = (power * w_j) % field.q
    g = MatrixGF(rows, field)
    assert rank(g) == j_rows

    supports = enumerate_supports(k, d)
    u_list, c_list = derive_combination_vectors(g, supports)
    demand_index = supports.index(w) + 1

    # The planted combination must match the demand up to the leading-one
    # normalisation, whose factor is the inverse of v_1.
    v1_inv = field.inv(demand.coefficients.entries[0])
    u_star = u_list[demand_index - 1]
    for idx, v in zip(w, demand.coefficients.entries):
        assert u_star.entries[idx - 1] == (v1_inv * v) % field.q

    return JplcEncoderOutput(
        generator=g,
        supports=supports,
        row_space_vectors=u_list,
        combination_vectors=c_list,
        demand_index=demand_index,
        pi=pi,
        omegas=omegas,
        padding_coeffs=padding,
        demand=demand,
        field=field,
    )
