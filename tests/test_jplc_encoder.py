import dataclasses
import os
import random
import subprocess
import sys
from itertools import combinations, count
from pathlib import Path

import pytest

from plclab.ffield import PrimeField, is_prime
from plclab.gflinalg import (
    MatrixGF,
    VectorGF,
    rank,
    row_space_vector_with_support,
    vec_mat,
)
from plclab.jplc_encoder import (
    build_grs_matrix,
    check_full_rank,
    check_planted_demand,
    enumerate_supports,
    leading_one,
)
from plclab.protocol_core import Demand, random_dataset, random_demand
from plclab.protocols import minimum_stream_length, run_jplc

import grs_oracle
from kernel_oracle import derive_combination_vectors
from pinned_rng import PinnedRandom

F3 = PrimeField(3)


def _golden_encoder():
    """N=2, K=3, D=2, q=3, demand X_1 + 2 X_3, with pinned draws: evaluation
    points (0, 1, 2) in slot order and padding coefficient 1."""
    demand = Demand((1, 3), VectorGF([1, 2], F3))
    draws = PinnedRandom(shuffle=[(0, 1, 2)], randrange=[1])
    enc = build_grs_matrix(2, demand, 3, F3, draws)
    draws.check_consumed()
    return enc


def test_golden_generator_matrix():
    enc = _golden_encoder()
    assert enc.generator.rows == ((1, 2, 1), (0, 1, 1))


def test_golden_row_space_vectors():
    enc = _golden_encoder()
    assert [u.entries for u in enc.row_space_vectors] == [
        (1, 1, 0),
        (1, 0, 2),
        (0, 1, 1),
    ]


def test_golden_combination_vectors():
    enc = _golden_encoder()
    assert [c.entries for c in enc.combination_vectors] == [
        (1, 2),
        (1, 1),
        (0, 1),
    ]


def test_golden_demand_index_and_supports():
    enc = _golden_encoder()
    assert enc.supports == ((1, 2), (1, 3), (2, 3))
    assert enc.demand_index == 2
    assert enc.supports[enc.demand_index - 1] == (1, 3)


def test_enumerate_supports_lexicographic():
    assert enumerate_supports(4, 2) == (
        (1, 2),
        (1, 3),
        (1, 4),
        (2, 3),
        (2, 4),
        (3, 4),
    )


def test_generator_has_full_rank_and_planted_demand():
    """Every draw must plant U_{k*} proportional to the demand on W."""
    rng = random.Random(7)
    for k in range(2, 6):
        field = PrimeField(7)
        for d in range(1, k + 1):
            for _ in range(10):
                w = tuple(sorted(rng.sample(range(1, k + 1), d)))
                v = VectorGF([field.rand_nonzero_int(rng) for _ in w], field)
                demand = Demand(w, v)
                enc = build_grs_matrix(2, demand, k, field, rng)
                g = enc.generator
                assert rank(g) == k - d + 1
                u_star = enc.row_space_vectors[enc.demand_index - 1]
                v1_inv = field.inv(v.entries[0])
                expect = {
                    i: v1_inv * c % field.q for i, c in zip(w, v.entries)
                }
                for col in range(1, k + 1):
                    got = u_star.entries[col - 1]
                    assert got == expect.get(col, 0)


def test_every_support_has_unique_row_space_vector():
    rng = random.Random(3)
    demand = Demand((2, 4), VectorGF([1, 1], PrimeField(5)))
    enc = build_grs_matrix(2, demand, 4, PrimeField(5), rng)
    for s, u, c in zip(enc.supports, enc.row_space_vectors, enc.combination_vectors):
        assert tuple(i + 1 for i, x in enumerate(u.entries) if x != 0) == s
        assert vec_mat(c, enc.generator).entries == u.entries
        assert u.entries[s[0] - 1] == 1  # leading entry pinned to one


def test_field_too_small_rejected():
    demand = Demand((1, 2), VectorGF([1, 1], F3))
    with pytest.raises(ValueError):
        build_grs_matrix(2, demand, 4, F3, random.Random(0))


def test_derive_combination_vectors_requires_all_supports():
    g = MatrixGF([[1, 0, 0], [0, 1, 0]], F3)
    with pytest.raises(ValueError):
        derive_combination_vectors(g, tuple(combinations(range(1, 4), 2)))


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_kernel_solve_matches_support_search(q):
    """The encoder's combination vectors are exactly what the brute-force
    support search returns, on every support of every generator drawn."""
    field = PrimeField(q)
    rng = random.Random(q)
    for k in range(1, min(q, 5) + 1):
        for d in range(1, k + 1):
            for _ in range(3):
                demand = random_demand(field, k, d, rng)
                enc = build_grs_matrix(2, demand, k, field, rng)
                found = [
                    row_space_vector_with_support(enc.generator, s)
                    for s in enc.supports
                ]
                assert (enc.row_space_vectors, enc.combination_vectors) == (
                    tuple(u for u, _ in found),
                    tuple(c for _, c in found),
                )


@pytest.mark.parametrize("q", [2, 3, 5, 7, 2**61 - 1])
def test_closed_form_matches_kernel_oracle(q):
    """The vanishing-polynomial combinations equal the kernel solve's on every
    support, for every shape the field admits and every demand size."""
    field = PrimeField(q)
    rng = random.Random(q)
    for k in range(1, min(q, 6) + 1):
        for d in range(1, k + 1):
            for _ in range(3):
                demand = random_demand(field, k, d, rng)
                enc = build_grs_matrix(2, demand, k, field, rng)
                assert enc.supports == enumerate_supports(k, d)
                assert (
                    enc.row_space_vectors,
                    enc.combination_vectors,
                ) == derive_combination_vectors(enc.generator, enc.supports)


def test_wrong_combination_is_rejected():
    """A polynomial that misses one of the outside roots leaves U nonzero
    outside the support, and the support check refuses it."""
    enc = _golden_encoder()
    good = [u.entries for u in enc.row_space_vectors]
    coefficients = [c.entries for c in enc.combination_vectors]
    assert leading_one(F3, enc.supports, good, coefficients) == (
        enc.row_space_vectors,
        enc.combination_vectors,
    )
    x = VectorGF([1, 0], F3)  # x in place of x - w_3
    wrong = [good[0], vec_mat(x, enc.generator).entries, good[2]]
    coefficients[1] = x.entries
    with pytest.raises(ValueError, match=r"no vector with support \(1, 3\)"):
        leading_one(F3, enc.supports, wrong, coefficients)


def _grs(alphas, points, rows, field):
    return MatrixGF(
        [[a * x**r % field.q for a, x in zip(alphas, points)] for r in range(rows)], field
    )


def test_zero_multiplier_or_repeated_point_is_a_deficient_generator():
    """With D = 1 the GRS generator is square: a zero alpha zeroes a column
    and a repeated point repeats one, and the structural check refuses both."""
    f5 = PrimeField(5)
    alphas, points = (1, 2, 3), (0, 1, 2)
    check_full_rank(alphas, points)
    assert rank(_grs(alphas, points, 3, f5)) == 3
    for bad_alphas, bad_points in [((1, 0, 3), points), (alphas, (0, 1, 1))]:
        assert rank(_grs(bad_alphas, bad_points, 3, f5)) == 2
        with pytest.raises(ValueError, match="generator rank is below its rows"):
            check_full_rank(bad_alphas, bad_points)


def _grs_oracle_shapes():
    """Every 1 <= D <= K <= 8 at the smallest prime q >= K, and at 11 and 13."""
    for k in range(1, 9):
        smallest = next(p for p in count(max(k, 2)) if is_prime(p))
        for d in range(1, k + 1):
            for q in sorted({smallest, 11, 13}):
                yield k, d, q


@pytest.mark.parametrize("k, d, q", list(_grs_oracle_shapes()))
def test_grs_build_matches_the_oracle(k, d, q):
    """Every output field and the rng's end state equal the oracle's, which
    multiplies each C_S through G and computes the rank by elimination."""
    field = PrimeField(q)
    for seed in range(40):
        demand = random_demand(field, k, d, random.Random(-seed))
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        enc = build_grs_matrix(2, demand, k, field, rng)
        ref = grs_oracle.build_grs_matrix(2, demand, k, field, oracle_rng)
        for f in dataclasses.fields(enc):
            assert getattr(enc, f.name) == getattr(ref, f.name), f.name
        assert rng.getstate() == oracle_rng.getstate()


def test_planted_demand_check_rejects_shifted_index():
    enc = _golden_encoder()
    bad = dataclasses.replace(enc, demand_index=enc.demand_index % 3 + 1)
    with pytest.raises(ValueError, match="is not the demanded"):
        check_planted_demand(bad)


def test_planted_demand_check_survives_optimised_mode():
    """Under python -O bare asserts vanish; the planted-demand check must
    still refuse an output whose demand index points at another support."""
    script = (
        "import dataclasses, random\n"
        "from plclab import Demand, PrimeField, VectorGF\n"
        "from plclab.jplc_encoder import build_grs_matrix, check_planted_demand\n"
        "f = PrimeField(3)\n"
        "enc = build_grs_matrix(2, Demand((1, 3), VectorGF([1, 2], f)), 3, f, "
        "random.Random(0))\n"
        "bad = dataclasses.replace(enc, demand_index=enc.demand_index % 3 + 1)\n"
        "try:\n"
        "    check_planted_demand(bad)\n"
        "except ValueError:\n"
        "    print('rejected')\n"
        "else:\n"
        "    print('accepted')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                      env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"


@pytest.mark.parametrize("q", [2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("n", [2, 3])
def test_run_jplc_verifies_at_large_q(q, n):
    field = PrimeField(q)
    rng = random.Random(n)
    k, d = 3, 2
    dataset = random_dataset(field, k, minimum_stream_length("jplc", n, k, d), rng)
    demand = random_demand(field, k, d, rng)
    run = run_jplc(n, dataset, demand, rng, verify=True)
    assert tuple(run.recovered) == demand.evaluate(dataset).entries
