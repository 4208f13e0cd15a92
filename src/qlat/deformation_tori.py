"""Character-lattice arithmetic for formal tori.

A formal torus is recorded by its character lattice, optionally carrying a
three-block weight decomposition (multiplicities of the weights -1, 0, +1
of a cocharacter acting on it).

The finite-quotient computation ``cokernel_M`` analyses, for a direct
summand W of the weight-decomposed Z^{1+b+1}, the cokernel M of

    z ↦ ((z with last coordinate · p) + W,  (z with first coordinate · p) + λ⁻¹W̃)

where W̃ = {w ∈ W : last coordinate ≡ 0 mod p} and λ⁻¹ multiplies the
first coordinate by p and divides the last by p.  Its structural claims —
the first comparison map embeds with image of index exactly p, the second
is an isomorphism — are computed exactly, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvariantViolationError, PreconditionError
from .exact_linalg import (
    AbelianQuotient,
    IntMatrix,
    hnf_basis,
    kernel_mod_p,
    lattice_intersection,
    lattices_equal,
    quotient_structure,
    saturate,
)
from .modp import check_prime

__all__ = ["CharLattice", "cokernel_M"]


@dataclass(frozen=True)
class CharLattice:
    """Character lattice of a formal torus, with optional weight blocks.

    ``weights``, when present, lists the multiplicities (a, b, c) of the
    weights (-1, 0, +1); they must sum to the rank.
    """

    rank: int
    weights: tuple[int, int, int] | None = None

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise PreconditionError("negative rank")
        if self.weights is not None:
            w = tuple(int(x) for x in self.weights)
            object.__setattr__(self, "weights", w)
            if len(w) != 3 or any(x < 0 for x in w):
                raise PreconditionError("weight multiplicities must be three counts")
            if sum(w) != self.rank:
                raise PreconditionError("weight multiplicities must sum to the rank")


def _stack(top: IntMatrix, bottom: IntMatrix) -> IntMatrix:
    if top.cols != bottom.cols:
        raise PreconditionError("column mismatch in vertical stack")
    return IntMatrix.from_rows(list(top.entries) + list(bottom.entries))


def cokernel_M(
    split: CharLattice, W_gens: IntMatrix, p: int
) -> tuple[AbelianQuotient, int, bool]:
    """Cokernel M of z ↦ (αz + W, βz + λ⁻¹W̃) with its two comparison maps.

    Here the weight decomposition must be (1, b, 1); α multiplies the last
    (weight +1) coordinate by p, β the first (weight -1) coordinate;
    W̃ = {w ∈ W : last coordinate ≡ 0 mod p}; λ⁻¹ scales the first
    coordinate by p and divides the last by p (always possible on W̃).

    Returns ``(M, inj1_index, iso2)`` where ``inj1_index`` is the index in
    M of the image of V⁰/W under x ↦ (x, 0) and ``iso2`` reports whether
    y ↦ (0, y) induces an isomorphism V⁰/λ⁻¹W̃ → M.  The first map failing
    to be injective would falsify the structure theorem and raises
    InvariantViolationError.

    Preconditions: W a direct summand whose projection to the last
    coordinate is onto (the nondegeneracy condition); without it the
    index-p claim has no content.
    """
    check_prime(p)
    if split.weights is None or split.weights[0] != 1 or split.weights[2] != 1:
        raise PreconditionError("weight decomposition must be (1, b, 1)")
    n = split.rank
    if not isinstance(W_gens, IntMatrix):
        W_gens = IntMatrix.from_rows(W_gens)
    if W_gens.rows != n:
        raise PreconditionError("generators live in the wrong rank")
    W = hnf_basis(W_gens)
    k = W.cols
    if k == 0:
        raise PreconditionError("W must be nonzero")
    _, summand = saturate(n, W)
    if not summand:
        raise PreconditionError("W must be a direct summand")
    last = [W.entries[n - 1][j] for j in range(k)]
    if math.gcd(*last) % p == 0:
        raise PreconditionError("W must project onto the weight-(+1) coordinate")
    # W̃ = kernel of (last coordinate mod p) inside W, in coefficients
    Wt = W @ kernel_mod_p(last, p)
    # λ⁻¹ on W̃: multiply the first coordinate by p, divide the last by p
    lam_rows = []
    for i in range(n):
        row = Wt.entries[i]
        if i == 0:
            lam_rows.append([p * x for x in row])
        elif i == n - 1:
            if any(x % p for x in row):
                raise InvariantViolationError("shrunk lattice not divisible at weight +1")
            lam_rows.append([x // p for x in row])
        else:
            lam_rows.append(list(row))
    lamWt = IntMatrix.from_rows(lam_rows)
    alpha = [[p if (i == j == n - 1) else (1 if i == j else 0) for j in range(n)] for i in range(n)]
    beta = [[p if (i == j == 0) else (1 if i == j else 0) for j in range(n)] for i in range(n)]
    graph = _stack(IntMatrix.from_rows(alpha), IntMatrix.from_rows(beta))
    zero_nk = IntMatrix.zero(n, W.cols)
    zero_nl = IntMatrix.zero(n, lamWt.cols)
    rel = hnf_basis(graph.hstack(_stack(W, zero_nk)).hstack(_stack(zero_nl, lamWt)))
    M = quotient_structure(2 * n, rel)
    ident = IntMatrix.identity(n)
    top_block = _stack(ident, IntMatrix.zero(n, n))
    bottom_block = _stack(IntMatrix.zero(n, n), ident)
    # first comparison map: V⁰/W → M, x ↦ (x, 0)
    K1 = lattice_intersection(rel, top_block)
    K1_top = hnf_basis(K1.take_rows(range(n)))
    if not lattices_equal(K1_top, W):
        raise InvariantViolationError("first comparison map is not injective")
    coker1 = quotient_structure(2 * n, rel.hstack(top_block))
    if not coker1.is_finite:
        raise InvariantViolationError("first comparison map has infinite coindex")
    inj1_index = coker1.order()
    # second comparison map: V⁰/λ⁻¹W̃ → M, y ↦ (0, y)
    K2 = lattice_intersection(rel, bottom_block)
    K2_bottom = hnf_basis(K2.take_rows(range(n, 2 * n)))
    inj2 = lattices_equal(K2_bottom, hnf_basis(lamWt))
    surj2 = quotient_structure(2 * n, rel.hstack(bottom_block)).is_trivial
    return M, inj1_index, inj2 and surj2
