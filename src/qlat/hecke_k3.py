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
fiber/uniqueness constructions that transport a shrunk sublattice pair
through the p-neighbor correspondence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvariantViolationError, PreconditionError
from .exact_linalg import IntMatrix, hnf_basis, saturate
from .modp import MAX_PROJ_POINTS, check_int, check_prime, is_prime
from .padic_lattice import PLattice, neighbors_of, shrink_set
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
    "grow_unique",
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
    lattice Λ onto a direct summand of N, with
    rank(Λ) ≤ (rank(N) - 4)/2; the neighbor prime is the pair's index.
    Delegates the fiber computation to the typed-line construction, whose
    preconditions include the direct-summand check.
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
    if 2 * r > N.rank - 4:
        raise PreconditionError("pair rank too large for the ambient lattice")
    W = Sublattice(N, embedding)
    Wt = Sublattice(N, embedding @ pair.tilde_basis)
    return shrink_set(N, W, Wt, p, max_points)


def grow_unique(
    Nt: PLattice, tilde_embedding: IntMatrix, max_points: int = MAX_PROJ_POINTS
) -> PLattice:
    """The unique neighbor of Ñ meeting span(Λ̃) in an index-p enlargement.

    ``tilde_embedding`` embeds Λ̃ onto a direct summand W̃ = image(Λ̃) of Ñ
    (ambient integer coordinates).  The neighbors L of Ñ are filtered on
    L ∩ span(W̃) being an index-p superlattice of W̃, and exactly one may
    survive; any other count raises InvariantViolationError.  Only the
    isotropic lines of Ñ/pÑ in the reduction of W̃ are swept, and only
    their neighbors are built (``neighbors_of(..., line_within=W̃)``), so
    ``max_points`` bounds the projective points of that span, at most
    p^rank(W̃), not those of Ñ/pÑ.

    That condition is necessary.  Proof: let L be the neighbor at the line
    ℓ, and W′ = L ∩ span(W̃) an index-p enlargement of W̃.  As below,
    pW′ ⊂ W̃.  Take w′ ∈ W′ ∖ W̃.  W̃ is saturated in Ñ, so w′ ∉ Ñ and
    p·w′ ∉ pÑ.  But p·w′ lies in pL, whose image in Ñ/pÑ is ℓ, so the
    reduction of p·w′ ∈ W̃ spans ℓ.

    The filter is ``L.span_excess(W̃) == 1``.  Proof: L and Ñ are
    p-neighbors, so pL ⊂ Ñ, and W̃ is saturated in Ñ, so
    p·(L ∩ span W̃) ⊂ Ñ ∩ span W̃ = W̃, i.e. L ∩ span(W̃) ⊂ p⁻¹W̃.  If
    W̃ ⊂ L, then (L ∩ span W̃)/W̃ ≅ ker(W̃/pW̃ → L/pL) through
    multiplication by p, so L ∩ span(W̃) is an index-p enlargement of W̃
    exactly when W̃ ⊂ L and that kernel is a line.
    """
    tilde_embedding = IntMatrix.from_rows(tilde_embedding)
    N, p = Nt.ambient, Nt.p
    n = N.rank
    if tilde_embedding.rows != n:
        raise PreconditionError("embedding matrix has wrong ambient dimension")
    rt = tilde_embedding.cols
    if rt == 0:
        raise PreconditionError("embedded sublattice must be nonzero")
    if 2 * rt > n - 4:
        raise PreconditionError("embedded rank too large for the ambient lattice")
    Wt = hnf_basis(tilde_embedding)
    if Wt.cols != rt:
        raise PreconditionError("embedding columns are dependent")
    # membership and direct-summand check inside Ñ, in Ñ's coordinates
    coeffs = [Nt.coordinates(w) for w in Wt.columns()]
    if None in coeffs:
        raise PreconditionError("embedded sublattice must lie in Ñ")
    _, summand = saturate(n, IntMatrix.from_columns(coeffs))
    if not summand:
        raise PreconditionError("embedded sublattice is not a direct summand")
    wcols = Wt.columns()
    survivors = [
        L for L in neighbors_of(Nt, max_points, line_within=wcols) if L.span_excess(wcols) == 1
    ]
    if len(survivors) != 1:
        raise InvariantViolationError(
            f"expected a unique enlargement, found {len(survivors)}"
        )
    return survivors[0]
