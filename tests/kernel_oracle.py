"""The generic left-kernel solve for combination vectors, kept as the oracle
that the encoders' closed forms are tested against."""

from typing import Sequence, Tuple

from plclab.gflinalg import MatrixGF, VectorGF, nullspace_basis, support, vec_mat


def derive_combination_vectors(
    g: MatrixGF, supports: Sequence[Tuple[int, ...]]
) -> Tuple[Tuple[VectorGF, ...], Tuple[VectorGF, ...]]:
    """For each support, the unique leading-one row-space vector U_k on it and
    the coefficients C_k with C_k . G = U_k.

    C_k spans the left kernel of G restricted to the columns outside the
    support. Anything but a one-dimensional kernel is a ValueError.
    """
    field = g.field
    u_list = []
    c_list = []
    for s in supports:
        inside = set(s)
        # A zero row keeps the kernel's width when the support is every column.
        outside = [
            col for j, col in enumerate(zip(*g.rows), 1) if j not in inside
        ] or [[0] * g.nrows]
        basis = nullspace_basis(MatrixGF(outside, field))
        if len(basis) != 1:
            raise ValueError(
                f"row space has {len(basis)} independent vectors vanishing "
                f"outside {s}, not one"
            )
        c = basis[0]
        u = vec_mat(c, g)
        if support(u) != tuple(s):
            raise ValueError(f"row space has no vector with support {s}")
        lead_inv = field.inv(u.entries[s[0] - 1])
        u_list.append(u.scale(lead_inv))
        c_list.append(c.scale(lead_inv))
    return tuple(u_list), tuple(c_list)
