"""The GRS code built the long way on every call.

This is the construction as the scheme states it: G is filled column by
column, each support's combination C_S (the coefficients of the monic
vanishing polynomial of the points outside S) is multiplied through G, and
the generator's rank is computed by elimination. The library reads U_S and
the rank off closed forms; the tests compare its outputs, and the rng's
state after each build, against this oracle.
"""

from operator import mul

from plclab.gflinalg import MatrixGF, rank
from plclab.jplc_encoder import (
    JplcEncoderOutput,
    check_planted_demand,
    enumerate_supports,
    leading_one,
)


def scaled_combinations(g, supports, coefficients):
    """`leading_one` of U_S = C_S . G and C_S, for each support S and its
    coefficients C_S, which may be any ints."""
    q = g.field.q
    cols = tuple(zip(*g.rows))
    coefficients = [[x % q for x in c] for c in coefficients]
    products = ([sum(map(mul, c, col)) % q for col in cols] for c in coefficients)
    return leading_one(g.field, supports, products, coefficients)


def _vanishing_poly(col_omega, s, q):
    """Coefficients, lowest degree first, of prod_{j not in S} (x - w_j)."""
    inside = set(s)
    poly = [1]
    for j, w in enumerate(col_omega, 1):
        if j not in inside:
            poly = [(lo - w * hi) % q for lo, hi in zip([0] + poly, poly + [0])]
    return poly


def build_grs_matrix(num_servers, demand, num_streams, field, rng):
    """The library's `build_grs_matrix`, with the same draws in the same
    order: the omega assignment, then the padding."""
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
