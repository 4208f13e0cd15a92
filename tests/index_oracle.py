"""Coefficients of lattice vectors in a basis, and the index they give.

An oracle for the tests, independent of the pivot readout of
``qlat.exact_linalg.sublattice_index``: it solves for the coefficients of
T's columns in a Hermite basis of L, by forward substitution and the
Hermite transform, and takes [L : T] from the Smith form of those
coefficients (``quotient_structure``).
"""

from operator import mul

from qlat import (
    IntMatrix,
    PreconditionError,
    hermite_normal_form,
    hnf_basis,
    quotient_structure,
)


def integral_coefficients(basis, targets):
    """The integer C with basis @ C == targets.

    ``basis`` must have independent columns.  With basis @ U == H in
    Hermite form, each target t is solved as H·y = t by forward
    substitution on the pivot rows of H, and C = U·y.  Raises
    PreconditionError when the columns are dependent, when a target lies
    outside their rational span, or when its coordinates are not all
    integers.
    """
    if basis.rows != targets.rows:
        raise PreconditionError("ambient dimension mismatch")
    r = basis.cols
    H, U = hermite_normal_form(basis)
    if r and not any(row[r - 1] for row in H.entries):
        raise PreconditionError("basis columns are dependent")
    # column j of H is zero above its pivot
    pivots = [next(i for i, row in enumerate(H.entries) if row[j]) for j in range(r)]
    Y = []
    for t in targets.columns():
        y = []
        for j, i in enumerate(pivots):
            row = H.entries[i]
            q, rem = divmod(t[i] - sum(map(mul, row, y)), row[j])
            if rem:
                break
            y.append(q)
        if len(y) < r or H.mul_vector(y) != t:
            if hnf_basis(basis.hstack(targets)).cols > r:
                raise PreconditionError("target vectors lie outside the span")
            raise PreconditionError("target vectors are not integral in the basis")
        Y.append(y)
    return U @ IntMatrix.from_columns(Y, rows=r)


def smith_index(L, T):
    """[L : T] as the order of Z^r / C, C the coefficients of T in L.

    None when T ⊄ L, and 0 when the quotient is infinite, as
    ``sublattice_index`` reports them.
    """
    B = hnf_basis(L)
    try:
        C = integral_coefficients(B, T)
    except PreconditionError:
        return None
    q = quotient_structure(B.cols, C)
    return q.order() if q.is_finite else 0
