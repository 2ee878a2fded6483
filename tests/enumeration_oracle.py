"""Hand-written enumerations of every encoder run, kept as the oracle that the
audit's walk over the encoders' own draws is tested against.

Each yields (weight, demand, encoder output) for one demanded support, the
weight being the run's probability given that support; the demand
coefficients are part of the enumeration.
"""

import math
from fractions import Fraction
from itertools import permutations, product

from plclab.gflinalg import VectorGF
from plclab.iplc_encoder import (
    algorithm_probabilities,
    build_partition_matrix,
    partition_shape,
)
from plclab.jplc_encoder import build_grs_matrix
from plclab.protocol_core import Demand

from pinned_rng import PinnedRandom

# The route draw takes algorithm 1 below p1; p1 < 1 whenever a route is drawn.
_ROUTE_PIN = {1: 0.0, 2: math.nextafter(1.0, 0.0)}


def enumerate_jplc_paths(support, num_servers, num_streams, field):
    k, d, q = num_streams, len(support), field.q
    base = (
        Fraction(1, (q - 1) ** d)
        * Fraction(1, (q - 1) ** (k - d))
        * Fraction(1, math.factorial(k))
    )
    for v_vals in product(range(1, q), repeat=d):
        demand = Demand(support, VectorGF(v_vals, field))
        for padding in product(range(1, q), repeat=k - d):
            for omega in permutations(range(k)):
                draws = PinnedRandom(shuffle=[omega], randrange=padding)
                enc = build_grs_matrix(num_servers, demand, k, field, draws)
                draws.check_consumed()
                yield base, demand, enc


def enumerate_iplc_paths(support, num_streams, field):
    k, d, q = num_streams, len(support), field.q
    r, n, m = partition_shape(k, d)
    v_weight = Fraction(1, (q - 1) ** d)
    # Planting route, its probability and its block count; a route with no
    # blocks (algorithm 2 when D | K, algorithm 1 when n = 0) yields no path.
    # Every route plants the demand on D slots: the K - D others draw free
    # alphas, and the undemanded streams fill them.
    p1, p2 = algorithm_probabilities(k, d)
    branches = [(1, p1, n), (2, p2, m)]
    free_streams = [i for i in range(1, k + 1) if i not in support]
    for v_vals in product(range(1, q), repeat=d):
        demand = Demand(support, VectorGF(v_vals, field))
        for alg, p_alg, block_count in branches:
            for block in range(1, block_count + 1):
                w = (
                    v_weight
                    * p_alg
                    * Fraction(1, block_count)
                    * Fraction(1, math.factorial(d))
                    * Fraction(1, math.factorial(k - d))
                    * Fraction(1, (q - 1) ** (k - d))
                )
                for sigma in permutations(range(1, d + 1)):
                    for stream_perm in permutations(free_streams):
                        for alpha_vals in product(range(1, q), repeat=k - d):
                            draws = PinnedRandom(
                                random=[_ROUTE_PIN[alg]] if r else [],
                                randrange=[block, *alpha_vals],
                                shuffle=[sigma, stream_perm],
                            )
                            enc = build_partition_matrix(demand, k, field, draws)
                            draws.check_consumed()
                            yield w, demand, enc
