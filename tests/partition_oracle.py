"""The partition code built from scratch on every call.

This is the construction as the scheme states it: the template supports, the
segment gains and the exact route probability are derived anew, each plain
support's combination e_i is multiplied through G, and the generator's rank
is computed by elimination. The library reads all of that from a per-shape
table and closed forms; the tests compare its outputs, and the rng's state
after each build, against this oracle.
"""

from fractions import Fraction

from plclab.gflinalg import MatrixGF, rank
from plclab.iplc_encoder import IplcEncoderOutput, partition_shape
from plclab.jplc_encoder import check_planted_demand

from grs_oracle import scaled_combinations


def template_supports(k, d, r, n, m):
    full = [tuple(range((i - 1) * d + 1, i * d + 1)) for i in range(1, n + 1)]
    aligned_cols = list(range(n * d + 1, n * d + m * r + 1))
    aligned = []
    for t in range(m, 0, -1):  # ordered by dropped segment, descending
        drop = set(range(n * d + (t - 1) * r + 1, n * d + t * r + 1))
        aligned.append(tuple(c for c in aligned_cols if c not in drop))
    return tuple(full + aligned)


def build_partition_matrix(demand, num_streams, field, rng):
    """The library's `build_partition_matrix`, with the same draws in the
    same order: the route (or, when D | K, the block), sigma, the route's
    block, the free alphas in slot order, then pi."""
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

    if r == 0:
        algorithm = None
        block = rng.randrange(1, n + 1)
    else:
        algorithm = 1 if rng.random() < Fraction(n * d, k) else 2
    sigma = list(range(1, d + 1))
    rng.shuffle(sigma)
    if algorithm is not None:
        block = rng.randrange(1, (n if algorithm == 1 else m) + 1)
    demand_index = n + m - block + 1 if algorithm == 2 else block
    template = template_supports(k, d, r, n, m)
    planted = dict(zip(template[demand_index - 1], sigma))  # slot -> sigma_j

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

    pi = [0] * k
    for s, j in planted.items():
        pi[s - 1] = demand.indices[j - 1]
    demanded = set(demand.indices)
    streams = [i for i in range(1, k + 1) if i not in demanded]
    rng.shuffle(streams)
    free = (s for s in range(1, k + 1) if s not in planted)
    for s, stream in zip(free, streams):
        pi[s - 1] = stream

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
