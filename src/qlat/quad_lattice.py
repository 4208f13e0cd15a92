"""Integral quadratic lattices presented by an upper-triangular half-Gram.

A lattice of rank n is Z^n equipped with the quadratic form
``Q(x) = x^T · U · x`` for an upper-triangular integer matrix U (the
*half-Gram*).  The associated bilinear form is ``B = U + U^T``, so
``[x, y] = Q(x + y) - Q(x) - Q(y)`` and diagonal Gram entries are even:
every lattice in this presentation is an even lattice.

The standard constructors build the hyperbolic plane, the E8 lattice, the
rank-22 lattice H³ ⊕ E8², rank-one forms, and direct sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import PreconditionError
from .exact_linalg import (
    AbelianQuotient,
    IntMatrix,
    hnf_basis,
    integer_kernel,
    quotient_structure,
)
from .modp import check_prime

__all__ = [
    "QuadLattice",
    "Sublattice",
    "quad_value",
    "bilinear_value",
    "is_self_dual_at",
    "signature",
    "orthogonal_complement",
    "discriminant_group",
    "restricted_lattice",
    "basis_half_gram",
    "hyperbolic_plane",
    "e8_lattice",
    "k3_lattice",
    "rank_one",
    "direct_sum",
]


@dataclass(frozen=True)
class QuadLattice:
    """Even integral lattice given by an upper-triangular half-Gram matrix."""

    half_gram: IntMatrix

    def __post_init__(self) -> None:
        hg = IntMatrix.from_rows(self.half_gram)
        object.__setattr__(self, "half_gram", hg)
        if hg.rows != hg.cols:
            raise PreconditionError("half-Gram matrix must be square")
        if not hg.is_upper_triangular():
            raise PreconditionError("half-Gram matrix must be upper triangular")

    @property
    def rank(self) -> int:
        return self.half_gram.rows

    def gram(self) -> IntMatrix:
        """The Gram matrix U + Uᵀ of the bilinear form, computed once per lattice."""
        return self._gram

    @cached_property
    def _gram(self) -> IntMatrix:
        U = self.half_gram.entries
        return IntMatrix.from_rows([[a + b for a, b in zip(row, col)] for row, col in zip(U, zip(*U))])

    @cached_property
    def _gram_det(self) -> int:
        return self.gram().det()

    @cached_property
    def _reductions(self) -> dict:
        """N/pN per prime p, kept by :func:`qlat.padic_lattice.reduction`."""
        return {}

    @cached_property
    def _neighbors(self) -> dict:
        """The p-neighbors per prime p, kept by :func:`qlat.padic_lattice.enumerate_neighbors`."""
        return {}

    def q(self, x: Sequence[int]) -> int:
        return quad_value(self, x)

    def b(self, x: Sequence[int], y: Sequence[int]) -> int:
        return bilinear_value(self, x, y)


@dataclass(frozen=True)
class Sublattice:
    """A finite-index-free subgroup of a lattice, given by basis columns."""

    ambient: QuadLattice
    basis: IntMatrix

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", IntMatrix.from_rows(self.basis))
        if self.basis.rows != self.ambient.rank:
            raise PreconditionError("sublattice basis has wrong ambient dimension")
        if self.basis.cols and self.basis.rank() != self.basis.cols:
            raise PreconditionError("sublattice basis columns are dependent")

    @property
    def rank(self) -> int:
        return self.basis.cols


def quad_value(L: QuadLattice, x: Sequence[int]) -> int:
    """Q(x) = x^T · half_gram · x."""
    U = L.half_gram
    if len(x) != L.rank:
        raise PreconditionError("vector length does not match lattice rank")
    total = 0
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = U.entries[i]
        total += xi * sum(row[j] * x[j] for j in range(i, len(x)))
    return total


def bilinear_value(L: QuadLattice, x: Sequence[int], y: Sequence[int]) -> int:
    """[x, y] = Q(x+y) - Q(x) - Q(y), computed as x^T (U + U^T) y."""
    B = L.gram()
    if len(x) != L.rank or len(y) != L.rank:
        raise PreconditionError("vector length does not match lattice rank")
    return sum(xi * sum(B.entries[i][j] * y[j] for j in range(len(y))) for i, xi in enumerate(x))


def is_self_dual_at(L: QuadLattice, p: int) -> bool:
    """True iff the Gram determinant is a unit mod p (dual = lattice at p)."""
    check_prime(p)
    return L._gram_det % p != 0


def signature(L: QuadLattice) -> tuple[int, int]:
    """(positive, negative) inertia indices of the Gram form over Q.

    Raises for a degenerate form.  Computed by congruence over Z: split
    off a nonzero diagonal entry d and replace the rest by
    sign(d)·(d·a_ij − a_ik·a_jk), which is |d| times its Schur complement,
    divided by the gcd of its entries.  With no nonzero diagonal entry,
    x_i ↦ x_i + x_j for some a_ij ≠ 0 makes a_ii = 2·a_ij; a block with
    every entry 0 is the radical of a degenerate form.
    """
    a = [list(row) for row in L.gram().entries]
    pos = neg = 0
    while a:
        k = next((i for i, row in enumerate(a) if row[i]), None)
        if k is None:
            ij = next(((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x), None)
            if ij is None:
                raise PreconditionError("signature of a degenerate form")
            k, j = ij
            a[k] = [x + y for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] += row[j]
        d = a[k][k]
        if d > 0:
            pos, s = pos + 1, 1
        else:
            neg, s = neg + 1, -1
        col = [row[k] for row in a]
        del col[k], a[k]
        a = [[s * (d * x - ci * cj) for x, cj in zip(row[:k] + row[k + 1:], col)] for row, ci in zip(a, col)]
        g = math.gcd(*(x for row in a for x in row))
        if g > 1:
            a = [[x // g for x in row] for row in a]
    return pos, neg


def orthogonal_complement(L: QuadLattice, S: Sublattice) -> Sublattice:
    """The saturated sublattice {x : [x, s] = 0 for all s in S}."""
    if S.ambient != L:
        raise PreconditionError("sublattice belongs to a different lattice")
    M = S.basis.transpose() @ L.gram()
    return Sublattice(L, hnf_basis(integer_kernel(M)))


def discriminant_group(L: QuadLattice) -> AbelianQuotient:
    """The finite group L^vee / L, i.e. Z^n / (Gram column span)."""
    if L.gram().det() == 0:
        raise PreconditionError("discriminant group of a degenerate lattice")
    return quotient_structure(L.rank, L.gram())


def basis_half_gram(
    L: QuadLattice, cols: Sequence[Sequence[int]], d: int = 1
) -> tuple[tuple[int, ...], ...] | None:
    """The half-Gram of Q/d on the vectors ``cols`` of L, as a tuple of rows.

    Entry (i, j) is [s_i, s_j]/d above the diagonal and Q(s_i)/d on it.
    Only the upper triangle of Sᵀ·B·S is formed, through the nonzero
    entries of each column.  Returns None as soon as an entry is not an
    integer, i.e. when Q/d is not integral on the span of ``cols``.
    """
    n = L.rank
    if any(len(c) != n for c in cols):
        raise PreconditionError("vector length does not match lattice rank")
    B = L.gram().entries
    nz = [[(r, x) for r, x in enumerate(c) if x] for c in cols]
    bs = []  # B·s_j, as B is symmetric a sum of its rows
    for s in nz:
        acc = [0] * n
        for r, x in s:
            acc = [a + x * b for a, b in zip(acc, B[r])]
        bs.append(acc)
    rows = []
    for i, s in enumerate(nz):
        g = [sum([x * b[r] for r, x in s]) for b in bs[i:]]
        g[0] //= 2  # s_iᵀ·B·s_i = 2·Q(s_i)
        if any(x % d for x in g):
            return None
        rows.append((0,) * i + tuple([x // d for x in g]))
    return tuple(rows)


def restricted_lattice(S: Sublattice) -> QuadLattice:
    """The sublattice as an abstract lattice in its own basis coordinates:
    the half-Gram of Q on its basis (:func:`basis_half_gram`)."""
    return QuadLattice(basis_half_gram(S.ambient, S.basis.columns()))


# ---------------------------------------------------------------------------
# standard lattices
# ---------------------------------------------------------------------------


def hyperbolic_plane() -> QuadLattice:
    """The hyperbolic plane H: Q(x, y) = x*y."""
    return QuadLattice(IntMatrix.from_rows([[0, 1], [0, 0]]))


def e8_lattice() -> QuadLattice:
    """The E8 root lattice (Gram determinant 1, diagonal entries 2).

    Basis ordered along the chain 0-1-2-3-4-5-6 with node 7 attached to
    node 4 (arm lengths 4, 2, 1 from the branch vertex).
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]
    hg = [[0] * 8 for _ in range(8)]
    for i in range(8):
        hg[i][i] = 1  # Q(e_i) = 1 gives Gram diagonal 2
    for i, j in edges:
        hg[min(i, j)][max(i, j)] = -1
    return QuadLattice(IntMatrix.from_rows(hg))


def rank_one(m: int) -> QuadLattice:
    """Rank-one lattice with Q(e) = m (Gram (2m)); m must be nonzero."""
    if m == 0:
        raise PreconditionError("rank-one lattice needs a nonzero form value")
    return QuadLattice(IntMatrix.from_rows([[m]]))


def direct_sum(*lattices: QuadLattice) -> QuadLattice:
    """Orthogonal direct sum, blocks in argument order."""
    if not lattices:
        raise PreconditionError("direct sum of no lattices")
    total = sum(L.rank for L in lattices)
    hg = [[0] * total for _ in range(total)]
    offset = 0
    for L in lattices:
        U = L.half_gram
        for i in range(L.rank):
            for j in range(L.rank):
                hg[offset + i][offset + j] = U.entries[i][j]
        offset += L.rank
    return QuadLattice(IntMatrix.from_rows(hg))


def k3_lattice() -> QuadLattice:
    """H ⊕ H ⊕ H ⊕ E8 ⊕ E8 (rank 22, unimodular)."""
    H = hyperbolic_plane()
    E8 = e8_lattice()
    return direct_sum(H, H, H, E8, E8)
