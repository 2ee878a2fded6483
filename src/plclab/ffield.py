"""Prime-field arithmetic.

Everything downstream (matrices, encoders, the retrieval engine) computes over
GF(q) for a prime q. Values are plain integers in [0, q); a PrimeField object
carries the modulus and performs the arithmetic. FieldElement is a thin wrapper
that adds operator syntax for code where convenience matters more than speed.

All randomness is drawn from a caller-supplied random.Random so that every
transcript is reproducible from its seed.
"""

from __future__ import annotations

import random

_MAX_MODULUS = (1 << 63) - 1

# Witness set that makes Miller-Rabin deterministic for all 64-bit integers.
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


class FieldMismatchError(ValueError):
    """Raised when elements of different fields meet in one operation."""


class PrimeField:
    """The prime field GF(q).

    Integer-level methods (add, sub, mul, neg, inv) take and return plain ints
    already reduced mod q; they are the fast path used by the matrix layer and
    the protocol engines.
    """

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or isinstance(q, bool):
            raise ValueError(f"modulus must be an integer, got {q!r}")
        if q > _MAX_MODULUS:
            raise ValueError(f"modulus {q} does not fit a 64-bit machine word")
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

    # -- integer-level arithmetic -------------------------------------------

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def neg(self, a: int) -> int:
        return (-a) % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError(f"0 has no inverse in {self!r}")
        return pow(a, self.q - 2, self.q)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return pow(self.inv(a), -e, self.q)
        return pow(a, e, self.q)

    def reduce(self, a: int) -> int:
        return a % self.q

    # -- element construction -----------------------------------------------

    def element(self, value: int) -> "FieldElement":
        return FieldElement(value % self.q, self)

    def __call__(self, value: int) -> "FieldElement":
        return self.element(value)

    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    def one(self) -> "FieldElement":
        return FieldElement(1 % self.q, self)

    def elements(self):
        """Iterate over all q elements in value order."""
        for v in range(self.q):
            yield FieldElement(v, self)

    # -- random draws ---------------------------------------------------------

    def rand_int(self, rng: random.Random) -> int:
        return rng.randrange(self.q)

    def rand_nonzero_int(self, rng: random.Random) -> int:
        return rng.randrange(1, self.q)


class FieldElement:
    """A single value of a PrimeField, with operator overloads.

    Mixed-field operations raise FieldMismatchError. Plain ints on either side
    of an operator are reduced into the element's own field first.
    """

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        object.__setattr__(self, "value", value % field.q)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field.q != self.field.q:
                raise FieldMismatchError(
                    f"cannot mix GF({self.field.q}) and GF({other.field.q})"
                )
            return other.value
        if isinstance(other, int):
            return other % self.field.q
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement((self.value + v) % self.field.q, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement((self.value - v) % self.field.q, self.field)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement((v - self.value) % self.field.q, self.field)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement((self.value * v) % self.field.q, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement((-self.value) % self.field.q, self.field)

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(
            (self.value * self.field.inv(v)) % self.field.q, self.field
        )

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FieldElement(
            (v * self.field.inv(self.value)) % self.field.q, self.field
        )

    def __pow__(self, e: int):
        return FieldElement(self.field.pow(self.value, e), self.field)

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field.inv(self.value), self.field)

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field.q == other.field.q and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.q
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.field.q))

    def __int__(self):
        return self.value

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"F{self.field.q}({self.value})"

