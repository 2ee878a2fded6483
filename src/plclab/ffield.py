"""Prime-field arithmetic.

Everything downstream (matrices, encoders, the retrieval engine) computes over
GF(q) for a prime q. Values are plain integers in [0, q); a PrimeField object
carries the modulus, inverts, and draws nonzero values. Callers add and multiply
ints and reduce mod q themselves.

All randomness is drawn from a caller-supplied random.Random so that every
transcript is reproducible from its seed.
"""

from __future__ import annotations

import random

_MAX_MODULUS = (1 << 63) - 1

# Witness set that makes Miller-Rabin deterministic below 2^64; is_prime is
# exact only there, which is why PrimeField caps the modulus.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field GF(q); inv takes and returns plain ints."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or isinstance(q, bool):
            raise ValueError(f"modulus must be an integer, got {q!r}")
        if q > _MAX_MODULUS:
            raise ValueError(
                f"modulus {q} exceeds 2^63 - 1: the Miller-Rabin witness set "
                "proves primality only below 2^64"
            )
        if not is_prime(q):
            raise ValueError(f"modulus must be prime, got {q}")
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeField is immutable")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"GF({self.q})"

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        return pow(a, self.q - 2, self.q)

    def rand_nonzero_int(self, rng: random.Random) -> int:
        return rng.randrange(1, self.q)
