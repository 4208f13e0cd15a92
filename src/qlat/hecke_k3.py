"""Polarized K3 lattices and prime-degree polarization change.

The central construction: inside the rank-22 lattice H³ ⊕ E8², fix the
first hyperbolic plane with basis (e, f) and the degree-d polarization
class ξ = e + d·f (so Q(ξ) = d).  Rescaling that plane by
(e, f) ↦ (p·e, p⁻¹·f) is an isometry of quadratic spaces over Q that
preserves the lattice's Gram matrix — the rescaled basis is again a basis
of an abstract copy of the same lattice — but moves the polarization class
to ξ' = p(e + d·f), which in the rescaled basis has coordinates
(1, p²·d, 0, ..., 0) and degree Q(ξ') = p²·d.

Around this sit minimal pairs (a sublattice of prime index) and the
shrinking construction ``shrink_fiber``, which transports a minimal pair
through the p-neighbor correspondence.  Its inverse is
``padic_lattice.recover_lattice`` on the same W: growing from W̃ alone is
many-valued, since W̃ can have several integral index-p enlargements and
each is met by a different neighbor of a fiber member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError
from .exact_linalg import IntMatrix
from .modp import MAX_PROJ_POINTS, check_int, check_prime, is_prime
from .padic_lattice import PLattice, shrink_set
from .quad_lattice import (
    QuadLattice,
    Sublattice,
    basis_half_gram,
    k3_lattice,
    quad_value,
    signature,
)

__all__ = [
    "MinimalPair",
    "PolarizedK3Lattice",
    "k3_isogeny",
    "shrink_fiber",
]


@dataclass(frozen=True)
class MinimalPair:
    """A positive-definite lattice Λ with a sublattice Λ̃ of prime index.

    ``tilde_basis`` holds the Λ-coordinates of a basis of Λ̃ (columns).
    It is square, so the index [Λ : Λ̃] is the absolute value of its
    determinant; a group of prime order is cyclic, so a prime determinant
    is the same as a single prime elementary divisor.
    """

    lattice: QuadLattice
    tilde_basis: IntMatrix

    def __post_init__(self) -> None:
        r = self.lattice.rank
        object.__setattr__(self, "tilde_basis", IntMatrix.from_rows(self.tilde_basis))
        tb = self.tilde_basis
        if tb.rows != r or tb.cols != r:
            raise PreconditionError("index sublattice basis must be square of full rank")
        pos, neg = signature(self.lattice)
        if neg != 0 or pos != r:
            raise PreconditionError("lattice of a minimal pair must be positive definite")
        if not is_prime(self.index):
            raise PreconditionError("sublattice index must be a single prime")

    @property
    def index(self) -> int:
        """The prime index [Λ : Λ̃], |det| of ``tilde_basis``."""
        return abs(self.tilde_basis.det())


@dataclass(frozen=True)
class PolarizedK3Lattice:
    """The even unimodular rank-22 lattice with a primitive class ξ, Q(ξ) > 0."""

    lattice: QuadLattice
    xi: tuple[int, ...]

    def __post_init__(self) -> None:
        xi = check_int(*self.xi)
        object.__setattr__(self, "xi", xi)
        if self.lattice.rank != 22:
            raise PreconditionError("polarized lattice must have rank 22")
        if abs(self.lattice.gram().det()) != 1:
            raise PreconditionError("polarized lattice must be unimodular")
        if len(xi) != 22:
            raise PreconditionError("polarization class has wrong length")
        if math.gcd(*xi) != 1:
            raise PreconditionError("polarization class must be primitive")
        if quad_value(self.lattice, xi) <= 0:
            raise PreconditionError("polarization degree must be positive")

    @property
    def degree(self) -> int:
        return quad_value(self.lattice, self.xi)


def k3_isogeny(d: int, p: int) -> PolarizedK3Lattice:
    """Change a degree-d K3 polarization into a degree p²·d one.

    Returns the K3 lattice together with ξ' = (1, p²d, 0, ..., 0), the
    image of ξ = e + d·f under the plane rescaling (e, f) ↦ (pe, p⁻¹f)
    expressed in the rescaled basis.  The rescaled basis has the same Gram
    matrix, which is why the output lattice is again the standard one; the
    class ξ' is primitive with Q(ξ') = p²d, and its orthogonal complement
    has discriminant group Z/2p²d.
    """
    if d < 1:
        raise PreconditionError("polarization degree must be positive")
    check_prime(p)
    L = k3_lattice()
    xi = (1, p * p * d) + (0,) * (L.rank - 2)
    return PolarizedK3Lattice(L, xi)


def shrink_fiber(
    N: QuadLattice,
    embedding: IntMatrix,
    pair: MinimalPair,
    max_points: int = MAX_PROJ_POINTS,
) -> tuple[PLattice, ...]:
    """Neighbors of N whose intersection with span(Λ) is the shrunk Λ̃.

    ``embedding`` columns give an isometric embedding of the pair's
    lattice Λ onto a direct summand W of N; the neighbor prime is the
    pair's index.  Delegates the fiber computation to the typed-line
    construction ``shrink_set``, whose preconditions hold the
    direct-summand check and the one rank bound,
    2·rank(Λ) ≤ rank(N) - 3.
    """
    embedding = IntMatrix.from_rows(embedding)
    lam = pair.lattice
    p = pair.index
    r = lam.rank
    if embedding.rows != N.rank or embedding.cols != r:
        raise PreconditionError("embedding matrix has wrong shape")
    # the half-Grams agree entry by entry; the first mismatch, row by row,
    # names the form it breaks
    hg = basis_half_gram(N, embedding.columns())
    for i, (row, want) in enumerate(zip(hg, lam.half_gram.entries)):
        j = next((j for j in range(i, r) if row[j] != want[j]), None)
        if j == i:
            raise PreconditionError("embedding does not preserve the quadratic form")
        if j is not None:
            raise PreconditionError("embedding does not preserve the bilinear form")
    W = Sublattice(N, embedding)
    Wt = Sublattice(N, embedding @ pair.tilde_basis)
    return shrink_set(N, W, Wt, p, max_points)

