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
C_S . G is alpha_j P_S(w_j), which vanishes exactly outside S. So U_S is read
off the points: alpha_j prod_{i not in S} (w_j - w_i) on S, 0 outside. Nor
does the rank need an elimination: `check_full_rank` reads it off the points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, compress, count
from typing import Iterable, Sequence, Tuple

from .ffield import PrimeField
from .gflinalg import MatrixGF, VectorGF
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


def check_full_rank(alphas: Sequence[int], omegas: Sequence[int]) -> None:
    """Raise ValueError unless the generator built from these reduced slot
    multipliers and points has full row rank; nonzero alphas and distinct
    points suffice, for either encoder.

    GRS: the J = K - D + 1 <= K rows hold alpha_j w_j^r, so any J columns are
    an invertible Vandermonde block times the diagonal of their alphas; the
    points are a shuffle of 0..K-1 and q >= K, so they are distinct.
    Partition: pi is a bijection, so plain row i is nonzero on exactly its D
    columns, and no other row touches them; the two aligned rows share their
    columns only with each other. Take c . G = 0. On a column of plain row i
    only row i is nonzero, with entry alpha != 0, so c_i = 0. The aligned
    rows hold (a, w_i a) on segment i, and m = D/R + 1 >= 3, so two slots on
    segments i != j give the 2x2 minor a_i a_j (w_j - w_i), which is
    nonzero; so c_(n+1) = c_(n+2) = 0.
    """
    if 0 in alphas:
        slot = list(alphas).index(0) + 1
        raise ValueError(f"generator rank is below its rows: slot {slot} has multiplier 0")
    if len(set(omegas)) != len(omegas):
        raise ValueError("generator rank is below its rows: aligned points repeat")


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
    q = field.q
    if q < k:
        raise ValueError(
            f"field order {q} is too small: need q >= K = {k} distinct "
            "evaluation points"
        )
    w = demand.indices
    pi = w + tuple(i for i in range(1, k + 1) if i not in w)
    omegas = list(range(k))
    rng.shuffle(omegas)
    padding = tuple(field.rand_nonzero_int(rng) for _ in range(k - d))
    coeffs = demand.coefficients.entries + padding

    alphas = []
    for i, w_i in enumerate(omegas):
        # Demand slots divide out only the padding slots' points.
        prod = 1
        for o in range(d if i < d else 0, k):
            if o != i:
                prod = prod * (w_i - omegas[o]) % q
        alphas.append(coeffs[i] * field.inv(prod) % q)
    check_full_rank(alphas, omegas)

    # Slot i goes to column pi_i; row r of G is alpha_j w_j^r on column j.
    alpha, point = [0] * k, [0] * k
    for stream, a, w_i in zip(pi, alphas, omegas):
        alpha[stream - 1] = a
        point[stream - 1] = w_i
    rows = [alpha]
    for _ in range(k - d):
        rows.append([a * x % q for a, x in zip(rows[-1], point)])
    g = MatrixGF.of_reduced(rows, field)

    # The roots of P_S are the points outside S. U_S is alpha_j P_S(w_j) on
    # S and 0 outside; C_S is P_S's coefficients.
    supports = enumerate_supports(k, d)
    vectors, coefficients = [], []
    for s in supports:
        roots = [x for j, x in enumerate(point, 1) if j not in s]
        u, c = [0] * k, [1]
        for j in s:
            u_j, x = alpha[j - 1], point[j - 1]
            for r in roots:
                u_j = u_j * (x - r) % q
            u[j - 1] = u_j
        for r in roots:
            c = [(lo - r * hi) % q for lo, hi in zip([0] + c, c + [0])]
        vectors.append(u)
        coefficients.append(c)
    u_list, c_list = leading_one(field, supports, vectors, coefficients)
    out = JplcEncoderOutput(
        g, supports, u_list, c_list, supports.index(w) + 1, demand, field
    )
    check_planted_demand(out)
    return out
