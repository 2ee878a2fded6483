import math
import random
from fractions import Fraction

import pytest

from plclab.ffield import PrimeField
from plclab.gflinalg import MatrixGF, VectorGF
from plclab.protocol_core import (
    Dataset,
    Demand,
    RateReport,
    iplc_capacity,
    jplc_capacity,
    jplt_bounds,
    plc_capacity_full_support_family,
    random_dataset,
    random_demand,
)

F3 = PrimeField(3)


def _geometric_capacity(n, top):
    """Oracle route: sum the geometric series with Fraction arithmetic."""
    total = Fraction(0)
    for i in range(top + 1):
        total += Fraction(1, n**i) if n > 0 else Fraction(1)
    return 1 / total


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_jplc_capacity_matches_series(n):
    for k in range(1, 9):
        for d in range(1, k + 1):
            assert jplc_capacity(n, k, d) == _geometric_capacity(n, k - d)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_iplc_capacity_matches_series(n):
    for k in range(1, 9):
        for d in range(1, k + 1):
            r = k % d
            if r == 0 or d % r == 0:
                expected = _geometric_capacity(n, math.ceil(k / d) - 1)
                assert iplc_capacity(n, k, d) == expected
            else:
                with pytest.raises(ValueError):
                    iplc_capacity(n, k, d)


def test_single_server_degenerates():
    # With one server both capacities lose the geometric decay.
    assert jplc_capacity(1, 7, 3) == Fraction(1, 5)
    assert iplc_capacity(1, 7, 7) == Fraction(1, 1)
    assert iplc_capacity(1, 8, 2) == Fraction(1, 4)


def test_capacities_are_exact_fractions():
    c = jplc_capacity(2, 3, 2)
    assert isinstance(c, Fraction)
    assert c == Fraction(2, 3)
    assert iplc_capacity(2, 5, 2) == Fraction(4, 7)


def test_jplt_bounds_upper_requires_divisibility():
    up, low = jplt_bounds(2, 6, 2, 2)  # L=2 divides K-D=4
    assert up == _geometric_capacity(2, 2)
    assert low == _geometric_capacity(2, 6 - 2 + 2 - 1)
    up2, low2 = jplt_bounds(2, 6, 2, 3)  # 3 does not divide 4
    assert up2 is None
    assert low2 == _geometric_capacity(2, 6 - 2 + 3 - 1)


def test_jplt_bounds_zero_slack():
    up, low = jplt_bounds(3, 4, 4, 2)
    assert up == Fraction(1, 1)
    assert low <= up


def test_full_support_family_capacity():
    assert plc_capacity_full_support_family(2, 4) == _geometric_capacity(2, 3)
    assert plc_capacity_full_support_family(1, 4) == Fraction(1, 4)


def test_demand_sorts_indices_with_coefficients():
    d = Demand((3, 1), VectorGF([2, 1], F3))
    assert d.indices == (1, 3)
    assert d.coefficients.entries == (1, 2)
    assert d.size == 2


def test_demand_rejects_bad_input():
    with pytest.raises(ValueError, match="demand indices must be distinct"):
        Demand((1, 1), VectorGF([1, 2], F3))
    with pytest.raises(ValueError, match="demand indices are 1-based"):
        Demand((0, 2), VectorGF([1, 2], F3))
    with pytest.raises(ValueError, match="demand coefficients must be nonzero"):
        Demand((1, 2), VectorGF([1, 0], F3))
    with pytest.raises(ValueError, match="demand must touch at least one stream"):
        Demand((), VectorGF([], F3))
    with pytest.raises(ValueError, match="index and coefficient counts differ"):
        Demand((1, 2, 3), VectorGF([1, 2], F3))


def test_demand_evaluate_is_direct_combination():
    ds = Dataset(MatrixGF([[1, 2, 0], [0, 1, 1], [2, 0, 2]], F3))
    d = Demand((1, 3), VectorGF([1, 2], F3))
    out = d.evaluate(ds)
    assert out.entries == ((1 + 4) % 3, 2 % 3, (0 + 4) % 3)


def test_random_demand_respects_size_and_nonzero():
    rng = random.Random(0)
    for _ in range(50):
        d = random_demand(F3, 5, 2, rng)
        assert len(d.indices) == 2
        assert all(1 <= i <= 5 for i in d.indices)
        assert all(c != 0 for c in d.coefficients.entries)


def test_dataset_shape_and_streams():
    ds = random_dataset(F3, 4, 6, random.Random(1))
    assert ds.num_streams == 4
    assert ds.stream_length == 6
    assert len(ds.stream(2).entries) == 6


def test_rate_report_bits_and_capacity_flag():
    rep = RateReport(
        stream_length=8,
        field_order=3,
        downloaded_symbols=12,
        rate=Fraction(2, 3),
        capacity=Fraction(2, 3),
    )
    assert rep.achieves_capacity
