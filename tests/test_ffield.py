import pytest

from plclab.ffield import (
    FieldElement,
    FieldMismatchError,
    PrimeField,
    is_prime,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-2, 32):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)
    assert is_prime(1000003)
    assert not is_prime(1000001)  # 101 * 9901


def test_field_requires_prime():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
def test_field_axioms_exhaustive(q):
    """Check the field laws by brute force over all element pairs."""
    f = PrimeField(q)
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == (a + b) % q
            assert f.sub(a, b) == (a - b) % q
            assert f.mul(a, b) == (a * b) % q
    for a in range(1, q):
        inv = f.inv(a)
        assert f.mul(a, inv) == 1


def test_inverse_of_zero_raises():
    f = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_pow_matches_repeated_multiplication():
    f = PrimeField(11)
    for a in range(11):
        acc = 1
        for e in range(8):
            assert f.pow(a, e) == acc
            acc = f.mul(acc, a)


def test_element_operators():
    f = PrimeField(5)
    a = f(3)
    b = f(4)
    assert int(a + b) == 2
    assert int(a - b) == 4
    assert int(a * b) == 2
    assert int(-a) == 2
    assert int(a / b) == int(a * b.inverse())
    assert a == 3 and b != 3
    assert int(a**3) == 2
    assert bool(f(0)) is False and bool(a) is True


def test_element_coerces_ints():
    f = PrimeField(5)
    a = f(3)
    assert int(a + 4) == 2
    assert int(4 + a) == 2
    assert int(a * 2) == 1
    assert int(2 - a) == 4


def test_cross_field_operations_rejected():
    a = PrimeField(5)(2)
    b = PrimeField(7)(2)
    with pytest.raises(FieldMismatchError):
        _ = a + b


def test_fields_equal_by_order():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert hash(PrimeField(5)) == hash(PrimeField(5))


def test_field_is_immutable():
    f = PrimeField(5)
    with pytest.raises(AttributeError):
        f.q = 7


def test_element_repr_roundtrip_info():
    e = FieldElement(3, PrimeField(7))
    assert "7" in repr(e) and "3" in repr(e)
