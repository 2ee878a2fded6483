import math
import random
from fractions import Fraction
from itertools import count

import pytest

from plclab import audit, iplc_encoder
from plclab.ffield import PrimeField, is_prime
from plclab.gflinalg import MatrixGF, VectorGF, rank, row_space_vector_with_support, vec_mat
from plclab.iplc_encoder import (
    algorithm_probabilities,
    build_partition_matrix,
    check_full_rank,
    partition_shape,
)
from plclab.jplc_encoder import leading_one
from plclab.protocol_core import Demand, random_dataset, random_demand
from plclab.protocols import minimum_stream_length, run_iplc

import partition_oracle
from kernel_oracle import derive_combination_vectors
from pinned_rng import PinnedRandom

F3 = PrimeField(3)


def _golden_encoder():
    """N=2, K=5, D=2, q=3, demand X_1 + 2 X_3, with pinned draws.

    The pinned path places the demand in the aligned rows (second
    algorithm), aligned segment 1, with sigma = (2, 1) and the stream
    assignment pi sending slots (1..5) to streams (4, 2, 5, 3, 1).
    """
    demand = Demand((1, 3), VectorGF([1, 2], F3))
    # 0.9 is not below p1 = 2/5; the free alphas are 1, 2, 1; the unplanted
    # slots 1, 2, 3 take streams 4, 2, 5.
    draws = PinnedRandom(
        random=[0.9], randrange=[1, 1, 2, 1], shuffle=[(2, 1), (4, 2, 5)]
    )
    enc = build_partition_matrix(demand, 5, F3, draws)
    draws.check_consumed()
    return enc


def test_golden_generator_matrix():
    enc = _golden_encoder()
    assert enc.generator.rows == (
        (0, 2, 0, 1, 0),
        (2, 0, 2, 0, 1),
        (0, 0, 2, 0, 2),
    )


def test_golden_template_and_actual_supports():
    enc = _golden_encoder()
    assert enc.template_supports == ((1, 2), (3, 4), (3, 5), (4, 5))
    assert enc.supports == ((2, 4), (3, 5), (1, 5), (1, 3))


def test_golden_demand_index():
    enc = _golden_encoder()
    assert enc.demand_index == 4
    assert enc.supports[enc.demand_index - 1] == (1, 3)


def test_golden_derived_alphas():
    # The two aligned-row entries outside the free segment follow from the
    # alignment weights (omega_1, -1) applied to the free column pair.
    enc = _golden_encoder()
    assert enc.alphas[3] == 2  # slot 4, aligned segment 2
    assert enc.alphas[4] == 2  # slot 5, aligned segment 3


def test_golden_combination_row_for_demand():
    # Z_4 = 2 Y_2 + Y_3: the demanded combination uses rows 2 and 3 of G.
    enc = _golden_encoder()
    c4 = enc.combination_vectors[3]
    assert vec_mat(c4, enc.generator).entries == (1, 0, 2, 0, 0)


def test_partition_shape_cases():
    assert partition_shape(6, 2) == (0, 3, 0)
    assert partition_shape(5, 2) == (1, 1, 3)
    assert partition_shape(7, 3) == (1, 1, 4)
    assert partition_shape(8, 2) == (0, 4, 0)
    assert partition_shape(9, 6) == (3, 0, 3)


def test_partition_shape_invalid_rejected():
    # K=8, D=3 leaves remainder 2, which does not divide 3.
    with pytest.raises(ValueError):
        partition_shape(8, 3)
    with pytest.raises(ValueError):
        build_partition_matrix(
            Demand((1, 2, 3), VectorGF([1, 1, 1], PrimeField(5))),
            8,
            PrimeField(5),
            random.Random(0),
        )


def test_algorithm_probabilities_sum_to_one():
    for k, d in [(5, 2), (7, 3), (9, 2), (10, 4)]:
        r = k % d
        if r != 0 and d % r != 0:
            continue
        p1, p2 = algorithm_probabilities(k, d)
        assert p1 + p2 == 1
        assert p1 >= 0 and p2 > 0


def test_algorithm_probabilities_match_block_counts():
    # (K=5, D=2): one full row of width two, three aligned-template rows.
    p1, p2 = algorithm_probabilities(5, 2)
    assert p1 == Fraction(2, 5)
    assert p2 == Fraction(3, 5)


def _route_shapes():
    """Every supported (K, D) with K <= 10 that has two routes (D does not
    divide K)."""
    for k in range(1, 11):
        for d in range(1, k + 1):
            if k % d and d % (k % d) == 0:
                yield k, d


@pytest.mark.parametrize("k, d", list(_route_shapes()))
def test_route_comparison_is_exact(k, d):
    """`random() < p1` on a float, through the table's one float comparison,
    decides exactly as the rational comparison does, and an exact walk still
    reads the rational p1 and still refuses a float."""
    _, n, _ = partition_shape(k, d)
    exact = Fraction(n * d, k)
    p1 = iplc_encoder._shape_table(k, d, 11).p1  # 11 >= m for every K <= 10
    assert p1 == exact and p1 == algorithm_probabilities(k, d)[0]
    f = float(exact)
    rng = random.Random(100 * k + d)
    xs = [f, math.nextafter(f, -math.inf), math.nextafter(f, math.inf), 0.0,
          math.nextafter(1.0, 0.0)] + [rng.random() for _ in range(1000)]
    for x in xs:
        assert (x < p1) == (Fraction(x) < exact), x
    walked = list(audit._outcomes(lambda r: r.random() < p1))
    assert walked == [(w, b) for w, b in ((exact, True), (1 - exact, False)) if w]
    with pytest.raises(TypeError, match="exact probability"):
        list(audit._outcomes(lambda r: r.random() < float(p1)))


def test_block_diagonal_case_r0():
    rng = random.Random(5)
    demand = Demand((1, 4), VectorGF([2, 1], F3))
    for _ in range(20):
        enc = build_partition_matrix(demand, 6, F3, rng)
        g = enc.generator
        assert g.nrows == 3
        assert rank(g) == 3
        # each row touches exactly one width-2 segment of the permuted slots
        for row in g.rows:
            assert sum(1 for x in row if x != 0) == 2
        assert enc.supports[enc.demand_index - 1] == (1, 4)


def test_planted_demand_across_random_draws():
    rng = random.Random(11)
    for k, d in [(4, 2), (5, 2), (6, 2), (6, 3), (7, 3)]:
        field = PrimeField(7)
        for _ in range(15):
            w = tuple(sorted(rng.sample(range(1, k + 1), d)))
            v = VectorGF([field.rand_nonzero_int(rng) for _ in w], field)
            demand = Demand(w, v)
            enc = build_partition_matrix(demand, k, field, rng)
            u_star = enc.row_space_vectors[enc.demand_index - 1]
            v1_inv = field.inv(v.entries[0])
            expect = {i: v1_inv * c % field.q for i, c in zip(w, v.entries)}
            for col in range(1, k + 1):
                assert u_star.entries[col - 1] == expect.get(col, 0)


def test_field_too_small_for_alignment():
    demand = Demand((1, 3), VectorGF([1, 1], PrimeField(2)))
    with pytest.raises(ValueError):
        build_partition_matrix(demand, 5, PrimeField(2), random.Random(0))


def _route(rng, algorithm, block=None):
    """rng with the planting route pinned (None when D | K draws none), and
    the block too when given; every other draw comes from rng. Algorithm 1
    pins 0.0, below every p1 > 0; algorithm 2 pins 0.999, above every p1 of
    the shapes below."""
    return PinnedRandom(
        rng,
        random=[] if algorithm is None else [0.0 if algorithm == 1 else 0.999],
        randrange=[] if block is None else [block],
    )


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_kernel_solve_matches_support_search(q):
    """The encoder's combination vectors are exactly what the brute-force
    support search returns, on every plain and aligned support, under both
    algorithms."""
    field = PrimeField(q)
    rng = random.Random(q)
    for k, d in [(2, 1), (4, 2), (6, 3), (5, 2), (7, 2), (7, 3)]:
        r, _, m = partition_shape(k, d)
        if q < m:
            continue
        for algorithm in (None,) if r == 0 else (1, 2):
            for _ in range(3):
                demand = random_demand(field, k, d, rng)
                draws = _route(rng, algorithm)
                enc = build_partition_matrix(demand, k, field, draws)
                draws.check_consumed()
                assert enc.algorithm_used == algorithm
                g = enc.generator
                found = [row_space_vector_with_support(g, s) for s in enc.supports]
                assert (enc.row_space_vectors, enc.combination_vectors) == (
                    tuple(u for u, _ in found),
                    tuple(c for _, c in found),
                )


@pytest.mark.parametrize(
    "q, k, d",
    [
        (q, k, d)
        for q in (2, 3, 5, 7, 2**61 - 1)
        for k, d in [(2, 1), (4, 2), (6, 3), (6, 2), (5, 2), (7, 2), (7, 3), (9, 6)]
        if q >= partition_shape(k, d)[2]  # the aligned rows need m points
    ],
)
def test_closed_form_matches_kernel_oracle(q, k, d):
    """Plain rows and aligned pairs equal the kernel solve's combinations on
    every support, for every algorithm and every block pinned in turn."""
    field = PrimeField(q)
    rng = random.Random(q * k + d)
    r, n, m = partition_shape(k, d)
    routes = [(None, n)] if r == 0 else [(1, n), (2, m)]
    for algorithm, blocks in routes:
        for block in range(1, blocks + 1):
            for _ in range(2):
                demand = random_demand(field, k, d, rng)
                draws = _route(rng, algorithm, block)
                enc = build_partition_matrix(demand, k, field, draws)
                draws.check_consumed()
                assert (enc.algorithm_used, enc.block_index) == (algorithm, block)
                assert (
                    enc.row_space_vectors,
                    enc.combination_vectors,
                ) == derive_combination_vectors(enc.generator, enc.supports)


def test_aligned_combination_with_another_omega_is_rejected():
    """Mixing the aligned pair at the wrong point leaves the dropped segment
    nonzero, and the support check refuses it."""
    enc = _golden_encoder()  # n = 1, m = 3, omegas (2, 1, 0)
    good = [u.entries for u in enc.row_space_vectors]
    coefficients = [c.entries for c in enc.combination_vectors]
    assert leading_one(F3, enc.supports, good, coefficients) == (
        enc.row_space_vectors,
        enc.combination_vectors,
    )
    # Support 2 drops segment m = 3 (omega 0); mix it at omega_1 = 2 instead.
    mixed = VectorGF([0, 2, 2], F3)  # 2 row(2) - row(3)
    wrong = good[:1] + [vec_mat(mixed, enc.generator).entries] + good[2:]
    coefficients[1] = mixed.entries
    with pytest.raises(ValueError, match="no vector with support"):
        leading_one(F3, enc.supports, wrong, coefficients)


@pytest.mark.parametrize("q", [2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("n", [2, 3])
def test_run_iplc_verifies_at_large_q(q, n):
    field = PrimeField(q)
    rng = random.Random(n)
    k, d = 5, 2
    dataset = random_dataset(field, k, minimum_stream_length("iplc", n, k, d), rng)
    demand = random_demand(field, k, d, rng)
    run = run_iplc(n, dataset, demand, rng, verify=True)
    assert tuple(run.recovered) == demand.evaluate(dataset).entries


def test_demand_from_another_field_is_rejected():
    """The encoder, like the joint one, refuses a demand over another field,
    and so does a run through it."""
    demand = Demand((1, 3), VectorGF([1, 2], PrimeField(5)))
    with pytest.raises(ValueError, match="demand and encoder fields differ"):
        build_partition_matrix(demand, 5, F3, random.Random(0))
    dataset = random_dataset(F3, 5, minimum_stream_length("iplc", 2, 5, 2), random.Random(1))
    with pytest.raises(ValueError, match="demand and encoder fields differ"):
        run_iplc(2, dataset, demand, random.Random(0))


def _oracle_shapes():
    """Every supported (K, D, q) with K <= 10, at the smallest prime q >= m
    and at q = 5 and 7 where those reach m."""
    for k in range(1, 11):
        for d in range(1, k + 1):
            try:
                _, _, m = partition_shape(k, d)
            except ValueError:
                continue
            smallest = next(p for p in count(max(m, 2)) if is_prime(p))
            for q in sorted({smallest, 5, 7}):
                if q >= m:
                    yield k, d, q


def _same_as_oracle(demand, k, field, rng, oracle_rng):
    """Build with the library and the oracle on two rngs in one state; the
    outputs, field by field, and the rngs' end states must agree."""
    enc = build_partition_matrix(demand, k, field, rng)
    ref = partition_oracle.build_partition_matrix(demand, k, field, oracle_rng)
    assert enc == ref
    g = enc.generator
    assert (g.nrows, g.ncols) == (ref.generator.nrows, ref.generator.ncols)
    assert rank(g) == g.nrows
    return enc


@pytest.mark.parametrize("k, d, q", list(_oracle_shapes()))
def test_table_build_matches_the_oracle(k, d, q):
    """200 drawn seeds, then every route and block pinned in turn."""
    field = PrimeField(q)
    for seed in range(200):
        demand = random_demand(field, k, d, random.Random(-seed))
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        _same_as_oracle(demand, k, field, rng, oracle_rng)
        assert rng.getstate() == oracle_rng.getstate()
    r, n, m = partition_shape(k, d)
    routes = [(None, n)] if r == 0 else [(2, m)] + ([(1, n)] if n else [])
    for algorithm, blocks in routes:
        pin = [] if algorithm is None else [0.0 if algorithm == 1 else math.nextafter(1.0, 0.0)]
        for block in range(1, blocks + 1):
            demand = random_demand(field, k, d, random.Random(block))
            draws = [
                PinnedRandom(random.Random(block), random=pin, randrange=[block])
                for _ in range(2)
            ]
            enc = _same_as_oracle(demand, k, field, *draws)
            assert (enc.algorithm_used, enc.block_index) == (algorithm, block)
            for pinned in draws:
                pinned.check_consumed()
            assert draws[0].rest.getstate() == draws[1].rest.getstate()


def test_zero_multiplier_is_a_deficient_generator():
    """With D = 1 a plain row is one multiplier: zeroing it zeroes the row."""
    demand = Demand((1,), VectorGF([1], F3))
    enc = build_partition_matrix(demand, 2, F3, random.Random(0))
    check_full_rank(enc.alphas, ())
    rows = [list(row) for row in enc.generator.rows]
    rows[0] = [0, 0]
    assert rank(MatrixGF(rows, F3)) == 1
    with pytest.raises(ValueError, match="slot 1 has multiplier 0"):
        check_full_rank((0,) + enc.alphas[1:], ())


def test_repeated_aligned_points_are_a_deficient_generator(monkeypatch):
    """With one point on every segment the second aligned row is a multiple
    of the first; the build refuses such a table before filling G."""
    enc = _golden_encoder()  # n = 1, m = 3, omegas (2, 1, 0)
    check_full_rank(enc.alphas, (2, 1, 0))
    rows = [list(row) for row in enc.generator.rows]
    rows[2] = rows[1]  # w_i = 1 on every segment
    assert rank(MatrixGF(rows, F3)) == 2
    with pytest.raises(ValueError, match="aligned points repeat"):
        check_full_rank(enc.alphas, (1, 1, 1))
    table = iplc_encoder._shape_table
    monkeypatch.setattr(
        iplc_encoder, "_shape_table",
        lambda k, d, q: table(k, d, q)._replace(omegas=(1, 1, 1)),
    )
    with pytest.raises(ValueError, match="generator rank is below its rows"):
        build_partition_matrix(enc.demand, 5, F3, random.Random(0))
