import pytest

from plclab.ffield import PrimeField, is_prime


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


def test_field_cap_names_the_primality_limit():
    assert PrimeField(2**61 - 1).q == 2**61 - 1
    with pytest.raises(ValueError, match="Miller-Rabin"):
        PrimeField(2**64 - 59)  # the largest 64-bit prime


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13])
def test_field_axioms_exhaustive(q):
    """Check the inverse law by brute force over every nonzero element."""
    f = PrimeField(q)
    for a in range(1, q):
        inv = f.inv(a)
        assert a * inv % q == 1


def test_inverse_of_zero_raises():
    f = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_fields_equal_by_order():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert hash(PrimeField(5)) == hash(PrimeField(5))


def test_field_is_immutable():
    f = PrimeField(5)
    with pytest.raises(AttributeError):
        f.q = 7
