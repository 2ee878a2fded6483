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

Column j of G is alpha_j (1, w_j, ..., w_j^(J-1)) with J = K - D + 1, so the
combination on a support S has the closed form C_S = the coefficients of the
monic P_S(x) = prod_{j not in S} (x - w_j), lowest degree first: column j of
C_S . G is alpha_j P_S(w_j), which vanishes exactly outside S.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, compress, count
from operator import mul
from typing import Iterable, Sequence, Tuple

from .ffield import PrimeField
from .gflinalg import MatrixGF, VectorGF, rank
from .protocol_core import Demand


@dataclass(frozen=True)
class JplcEncoderOutput:
    generator: MatrixGF
    supports: Tuple[Tuple[int, ...], ...]
    row_space_vectors: Tuple[VectorGF, ...]
    combination_vectors: Tuple[VectorGF, ...]
    demand_index: int
    demand: Demand
    field: PrimeField


def enumerate_supports(num_streams: int, demand_size: int) -> Tuple[Tuple[int, ...], ...]:
    """All size-D subsets of [K] in lexicographic order."""
    return tuple(combinations(range(1, num_streams + 1), demand_size))


def scaled_combinations(
    g: MatrixGF,
    supports: Sequence[Tuple[int, ...]],
    coefficients: Sequence[Sequence[int]],
) -> Tuple[Tuple[VectorGF, ...], Tuple[VectorGF, ...]]:
    """`leading_one` of U_S = C_S . G and C_S, for each support S and its
    closed-form coefficients C_S, which may be any ints."""
    q = g.field.q
    cols = tuple(zip(*g.rows))
    coefficients = [[x % q for x in c] for c in coefficients]
    products = ([sum(map(mul, c, col)) % q for col in cols] for c in coefficients)
    return leading_one(g.field, supports, products, coefficients)


def leading_one(
    field: PrimeField,
    supports: Sequence[Tuple[int, ...]],
    vectors: Iterable[Sequence[int]],
    coefficients: Sequence[Sequence[int]],
) -> Tuple[Tuple[VectorGF, ...], Tuple[VectorGF, ...]]:
    """Each support's row-space vector U_S = C_S . G and its C_S, given as
    ints reduced into [0, q), both scaled so that U_S leads with one.

    Raises ValueError unless U_S is supported on exactly S.
    """
    q = field.q
    wrap = VectorGF.of_reduced
    u_list = []
    c_list = []
    for s, u, c in zip(supports, vectors, coefficients, strict=True):
        if tuple(compress(count(1), u)) != s:
            raise ValueError(f"row space has no vector with support {s}")
        lead_inv = pow(u[s[0] - 1], q - 2, q)  # nonzero: it leads the support
        if lead_inv != 1:
            u = [lead_inv * x % q for x in u]
            c = [lead_inv * x % q for x in c]
        u_list.append(wrap(u, field))
        c_list.append(wrap(c, field))
    return tuple(u_list), tuple(c_list)


def check_planted_demand(out) -> None:
    """The combination at the demand index of either encoder's output must be
    the demand, up to the leading-one normalisation factor 1/v_1."""
    demand = out.demand
    q = out.field.q
    if out.supports[out.demand_index - 1] != demand.indices:
        raise ValueError(
            f"support {out.demand_index} is not the demanded {demand.indices}"
        )
    u_star = out.row_space_vectors[out.demand_index - 1]
    v1_inv = out.field.inv(demand.coefficients.entries[0])
    for idx, v in zip(demand.indices, demand.coefficients.entries):
        if u_star.entries[idx - 1] != (v1_inv * v) % q:
            raise ValueError(f"combination at stream {idx} is not the demand's")


def _vanishing_poly(col_omega, s, q):
    """Coefficients, lowest degree first, of prod_{j not in S} (x - w_j)."""
    inside = set(s)
    poly = [1]
    for j, w in enumerate(col_omega, 1):
        if j not in inside:
            poly = [
                (lo - w * hi) % q for lo, hi in zip([0] + poly, poly + [0])
            ]
    return poly


def build_grs_matrix(
    num_servers: int,
    demand: Demand,
    num_streams: int,
    field: PrimeField,
    rng: random.Random,
) -> JplcEncoderOutput:
    """Build the joint-privacy generator matrix for one demand.

    num_servers only gates validation (the matrix itself is server-count
    independent); the retrieval engine consumes the output alongside N.
    Every draw comes from rng: the omega assignment, then the padding.
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

    pool = list(range(k))
    rng.shuffle(pool)
    omegas = tuple(pool)
    padding = tuple(field.rand_nonzero_int(rng) for _ in range(k - d))

    coeffs = tuple(demand.coefficients.entries) + padding

    rows = [[0] * k for _ in range(j_rows)]
    col_omega = [0] * k
    for slot in range(1, k + 1):
        w_j = omegas[slot - 1]
        # Demand slots divide out only the padding slots' points.
        others = range(d + 1, k + 1) if slot <= d else range(1, k + 1)
        prod = 1
        for other in others:
            if other != slot:
                prod = (prod * (w_j - omegas[other - 1])) % field.q
        alpha = (coeffs[slot - 1] * field.inv(prod)) % field.q
        if alpha == 0:
            raise ValueError(f"column multiplier of slot {slot} is zero")
        col = pi[slot - 1] - 1
        col_omega[col] = w_j
        power = 1
        for i in range(j_rows):
            rows[i][col] = (alpha * power) % field.q
            power = (power * w_j) % field.q
    g = MatrixGF(rows, field)
    if rank(g) != j_rows:
        raise ValueError(f"generator rank is below its {j_rows} rows")

    supports = enumerate_supports(k, d)
    u_list, c_list = scaled_combinations(
        g, supports, [_vanishing_poly(col_omega, s, field.q) for s in supports]
    )
    out = JplcEncoderOutput(
        generator=g,
        supports=supports,
        row_space_vectors=u_list,
        combination_vectors=c_list,
        demand_index=supports.index(w) + 1,
        demand=demand,
        field=field,
    )
    check_planted_demand(out)
    return out
