"""Dense exact linear algebra over prime fields.

Matrices and vectors store reduced integers, which keeps the elimination
loops cheap. Indices exposed to callers follow the protocol convention:
stream and column positions are 1-based, supports are sorted tuples of
1-based column indices.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Optional, Sequence, Tuple

from .ffield import PrimeField


def _as_int(x, field: PrimeField) -> int:
    if type(x) is int:
        return x % field.q
    if isinstance(x, int) and not isinstance(x, bool):
        return x % field.q
    raise TypeError(f"matrix entries must be ints, got {x!r}")


class VectorGF:
    """An immutable row vector over GF(q)."""

    __slots__ = ("field", "entries")

    def __init__(self, entries: Iterable, field: PrimeField):
        object.__setattr__(
            self, "entries", tuple(_as_int(x, field) for x in entries)
        )
        object.__setattr__(self, "field", field)

    @classmethod
    def of_reduced(cls, entries: Iterable[int], field: PrimeField) -> "VectorGF":
        """Wrap ints the caller has already reduced into [0, q), unchecked."""
        v = object.__new__(cls)
        _set_entries(v, tuple(entries))
        _set_field(v, field)
        return v

    def __setattr__(self, name, value):
        raise AttributeError("VectorGF is immutable")

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        if isinstance(other, VectorGF):
            return self.field == other.field and self.entries == other.entries
        if isinstance(other, (tuple, list)):
            return self.entries == tuple(v % self.field.q for v in other)
        return NotImplemented

    def __hash__(self):
        return hash((self.entries, self.field.q))

    def __repr__(self):
        return f"VectorGF({list(self.entries)}, GF({self.field.q}))"

    def scale(self, c) -> "VectorGF":
        c = _as_int(c, self.field)
        q = self.field.q
        return VectorGF([(c * v) % q for v in self.entries], self.field)


# The slots' own setters, which skip object.__setattr__'s lookup by name:
# encoders wrap two vectors per support through of_reduced.
_set_entries = VectorGF.entries.__set__
_set_field = VectorGF.field.__set__


def support(v) -> Tuple[int, ...]:
    """1-based indices of the nonzero coordinates, ascending."""
    entries = v.entries if isinstance(v, VectorGF) else tuple(v)
    return tuple(i + 1 for i, x in enumerate(entries) if x != 0)


class MatrixGF:
    """An immutable dense matrix over GF(q)."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable], field: PrimeField):
        rr = tuple(tuple(_as_int(x, field) for x in row) for row in rows)
        if rr:
            w = len(rr[0])
            if any(len(r) != w for r in rr):
                raise ValueError("ragged rows")
        else:
            w = 0
        object.__setattr__(self, "rows", rr)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nrows", len(rr))
        object.__setattr__(self, "ncols", w)

    @classmethod
    def of_reduced(cls, rows: Iterable[Iterable[int]], field: PrimeField) -> "MatrixGF":
        """Wrap rows of equal length, of ints the caller has already reduced
        into [0, q), unchecked."""
        a = object.__new__(cls)
        rr = tuple(map(tuple, rows))
        object.__setattr__(a, "rows", rr)
        object.__setattr__(a, "field", field)
        object.__setattr__(a, "nrows", len(rr))
        object.__setattr__(a, "ncols", len(rr[0]) if rr else 0)
        return a

    def __setattr__(self, name, value):
        raise AttributeError("MatrixGF is immutable")

    def __eq__(self, other):
        if isinstance(other, MatrixGF):
            return self.field == other.field and self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.field.q))

    def __repr__(self):
        return f"MatrixGF({[list(r) for r in self.rows]}, GF({self.field.q}))"

    def row(self, i: int) -> VectorGF:
        """Row i, 1-based."""
        if not 1 <= i <= self.nrows:
            raise IndexError(f"row {i} outside [1, {self.nrows}]")
        return VectorGF(self.rows[i - 1], self.field)

    def transpose(self) -> "MatrixGF":
        return MatrixGF(zip(*self.rows) if self.rows else [], self.field)

    def row_lists(self):
        return [list(r) for r in self.rows]


def vec_mat(v: VectorGF, a: MatrixGF) -> VectorGF:
    if a.field != v.field or a.nrows != len(v):
        raise ValueError("shape or field mismatch")
    q = a.field.q
    out = [0] * a.ncols
    for c, row in zip(v.entries, a.rows):
        if c == 0:
            continue
        for j, x in enumerate(row):
            out[j] = (out[j] + c * x) % q
    return VectorGF(out, a.field)


def _rref(rows, q):
    """In-place style reduced row echelon form on a list of lists.

    Returns (rref_rows, pivot_column_indices), both 0-based internally.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] % q != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        rows[r] = [(x * inv) % q for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % q != 0:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(a: MatrixGF) -> int:
    _, pivots = _rref(a.rows, a.field.q)
    return len(pivots)


def nullspace_basis(a: MatrixGF):
    """Basis of {x : a x^T = 0}, as a list of VectorGF."""
    q = a.field.q
    rows, pivots = _rref(a.rows, q)
    n = a.ncols
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for r_i, p in enumerate(pivots):
            vec[p] = (-rows[r_i][f]) % q
        basis.append(VectorGF(vec, a.field))
    return basis


def row_space_vector_with_support(
    g: MatrixGF, s: Sequence[int]
) -> Optional[Tuple[VectorGF, VectorGF]]:
    """Find a row-space vector of G whose support is exactly S.

    S is a collection of 1-based column indices. The vector is normalised so
    that its first (lowest-index) nonzero coordinate is one. When the row
    space holds such a vector it is returned together with the unique
    coefficient vector C with C . G = U; when none exists the result is None.
    Should several projectively distinct candidates exist (never the case for
    the generator matrices built here), the lexicographically least entry
    tuple is returned to keep the answer deterministic.
    """
    field = g.field
    q = field.q
    s_set = set(s)
    if not s_set:
        return None
    if any(j < 1 or j > g.ncols for j in s_set):
        raise ValueError("support index out of range")
    outside = [j - 1 for j in range(1, g.ncols + 1) if j not in s_set]
    # Coefficient vectors c with (c . G) zero outside S form the nullspace of
    # the restriction of G to the outside columns (acting from the left).
    if outside:
        basis = nullspace_basis(MatrixGF([[row[j] for row in g.rows] for j in outside], field))
    else:
        basis = [
            VectorGF([1 if i == k else 0 for i in range(g.nrows)], field)
            for k in range(g.nrows)
        ]
    first = min(s_set) - 1
    best = None
    # The nullspace is tiny in every use here, so scanning all combinations
    # is affordable and keeps exact-support selection simple. The zero
    # combination (the only one of an empty basis) fails the support test.
    for coeffs in product(range(q), repeat=len(basis)):
        c_vec = [0] * g.nrows
        for c, b in zip(coeffs, basis):
            for i, x in enumerate(b.entries):
                c_vec[i] = (c_vec[i] + c * x) % q
        u = vec_mat(VectorGF(c_vec, field), g)
        if set(support(u)) != s_set:
            continue
        scale = field.inv(u.entries[first])
        cand = (u.scale(scale).entries, tuple((scale * x) % q for x in c_vec))
        if best is None or cand < best:
            best = cand
    if best is None:
        return None
    return VectorGF(best[0], field), VectorGF(best[1], field)


def row_space_members(g: MatrixGF):
    """Yield every vector in the row space of G (q^nrows combinations)."""
    field = g.field
    q = field.q
    for coeffs in product(range(q), repeat=g.nrows):
        yield vec_mat(VectorGF(coeffs, field), g)
