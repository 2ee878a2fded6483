import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plclab.ffield import PrimeField
from plclab.gflinalg import MatrixGF, VectorGF
from plclab.iplc_encoder import partition_shape
from plclab.plc_engine import expected_download
from plclab.protocol_core import (
    Dataset,
    Demand,
    iplc_capacity,
    jplc_capacity,
    random_dataset,
    random_demand,
)
from plclab.protocols import (
    InvariantViolation,
    coded_family_streams,
    family_size,
    minimum_stream_length,
    run_iplc,
    run_jplc,
)

F3 = PrimeField(3)


def test_family_size_values():
    assert family_size("jplc", 3, 2) == 3
    assert family_size("jplc", 4, 2) == 6
    assert family_size("iplc", 6, 2) == 3
    assert family_size("iplc", 5, 2) == 4
    with pytest.raises(ValueError):
        family_size("other", 3, 2)


def test_minimum_stream_length():
    assert minimum_stream_length("jplc", 2, 3, 2) == 8
    assert minimum_stream_length("iplc", 2, 5, 2) == 16
    assert minimum_stream_length("iplc", 3, 6, 2) == 27


def test_minimum_stream_length_refuses_oversize_shapes():
    """N^M up to 2^16 is allowed; past it the shape is refused, and at
    K = 40, D = 20 (M = C(40, 20)) without forming N^M."""
    assert minimum_stream_length("jplc", 2, 6, 2) == 2**15
    assert minimum_stream_length("iplc", 2, 32, 2) == 2**16
    for args in [("iplc", 2, 34, 2), ("iplc", 3, 40, 2), ("jplc", 2, 8, 4), ("jplc", 2, 40, 20)]:
        with pytest.raises(ValueError, match="exceeds 65536"):
            minimum_stream_length(*args)


@pytest.mark.parametrize("d", [-1, 0, 4])
def test_demand_size_outside_one_to_k_is_refused(d):
    with pytest.raises(ValueError, match=r"demand size must lie in \[1, K\]"):
        family_size("jplc", 3, d)
    with pytest.raises(ValueError, match=r"demand size must lie in \[1, K\]"):
        random_demand(F3, 3, d, random.Random(0))


def test_run_jplc_end_to_end():
    rng = random.Random(0)
    ds = random_dataset(F3, 3, 8, rng)
    demand = Demand((2, 3), VectorGF([2, 1], F3))
    result = run_jplc(2, ds, demand, rng, verify=True)
    assert tuple(result.recovered) == demand.evaluate(ds).entries
    assert result.report.rate == jplc_capacity(2, 3, 2)
    assert result.report.downloaded_symbols == 12


def test_run_iplc_end_to_end():
    rng = random.Random(1)
    ds = random_dataset(F3, 5, 16, rng)
    demand = Demand((2, 5), VectorGF([1, 1], F3))
    result = run_iplc(2, ds, demand, rng, verify=True)
    assert tuple(result.recovered) == demand.evaluate(ds).entries
    assert result.report.rate == iplc_capacity(2, 5, 2)
    assert result.report.downloaded_symbols == 28


def test_run_rejects_bad_stream_length():
    rng = random.Random(2)
    ds = random_dataset(F3, 3, 9, rng)  # 9 is not a multiple of 2^3
    demand = Demand((1, 2), VectorGF([1, 1], F3))
    with pytest.raises(ValueError):
        run_jplc(2, ds, demand, rng)


def test_demand_family_contains_planted_stream():
    rng = random.Random(3)
    ds = random_dataset(F3, 3, 8, rng)
    demand = Demand((1, 3), VectorGF([1, 2], F3))
    result = run_jplc(2, ds, demand, rng)
    streams = coded_family_streams(
        result.encoder.generator, result.encoder.combination_vectors, ds
    )
    v1 = demand.coefficients.entries[0]
    k_star = result.encoder.demand_index
    target = demand.evaluate(ds).entries
    assert tuple((v1 * z) % 3 for z in streams[k_star - 1]) == target


def test_coded_family_streams_exact_at_large_q():
    """Products of entries near 2^61 overflow a machine word; streams stay
    exact: (q-1) * 3 * (q-1) = 3 mod q."""
    q = 2**61 - 1
    f = PrimeField(q)
    ds = Dataset(MatrixGF([[q - 1] * 2] * 3, f))
    g = MatrixGF([[q - 1] * 3], f)
    assert coded_family_streams(g, [VectorGF([1], f)], ds) == [[3, 3]]


def test_repetitions_scale_download():
    rng = random.Random(4)
    ds = random_dataset(F3, 3, 24, rng)  # three repetitions of N^M = 8
    demand = Demand((1, 2), VectorGF([1, 1], F3))
    result = run_jplc(2, ds, demand, rng, verify=True)
    assert result.report.downloaded_symbols == 36
    assert result.report.rate == jplc_capacity(2, 3, 2)


def test_invariant_violation_is_assertion_family():
    assert issubclass(InvariantViolation, AssertionError)


@pytest.mark.parametrize("seed", range(5))
def test_jplc_many_seeds_verify(seed):
    rng = random.Random(seed)
    field = PrimeField(5)
    ds = random_dataset(field, 4, 2**6, rng)
    demand = Demand((1, 4), VectorGF([3, 2], field))
    result = run_jplc(2, ds, demand, rng, verify=True)
    assert result.report.rate == jplc_capacity(2, 4, 2)


def _encoder_accepts(protocol, k, d, q):
    """jplc needs q >= K evaluation points; iplc needs a partition shape and,
    when D does not divide K, q >= m mixing points."""
    if protocol == "jplc":
        return q >= k
    try:
        _, _, m = partition_shape(k, d)
    except ValueError:
        return False
    return q >= m


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    st.sampled_from(("jplc", "iplc")),
    st.sampled_from((2, 3, 5, 7, 2**61 - 1)),
    st.integers(1, 3),
    st.data(),
)
def test_whole_runs_recover_at_capacity(protocol, q, n, data):
    """Whole verified runs over small shapes download exactly the closed form
    and reach capacity."""
    k = data.draw(st.integers(1, 5))
    d = data.draw(st.integers(1, k))
    assume(_encoder_accepts(protocol, k, d, q))
    t_len = minimum_stream_length(protocol, n, k, d)
    assume(t_len <= 256)
    t_len *= data.draw(st.integers(1, 2))
    field = PrimeField(q)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    dataset = random_dataset(field, k, t_len, rng)
    demand = random_demand(field, k, d, rng)
    runner = run_jplc if protocol == "jplc" else run_iplc
    run = runner(n, dataset, demand, rng, verify=True)
    assert tuple(run.recovered) == demand.evaluate(dataset).entries
    assert run.report.downloaded_symbols == expected_download(run.instance)
    assert run.report.achieves_capacity
