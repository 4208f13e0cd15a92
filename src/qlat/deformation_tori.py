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
    quotient_structure,
    saturate,
    split_hnf,
)
from .modp import check_int, check_prime

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
        check_int(self.rank)
        if self.rank < 0:
            raise PreconditionError("negative rank")
        if self.weights is not None:
            w = check_int(*self.weights)
            object.__setattr__(self, "weights", w)
            if len(w) != 3 or any(x < 0 for x in w):
                raise PreconditionError("weight multiplicities must be three counts")
            if sum(w) != self.rank:
                raise PreconditionError("weight multiplicities must sum to the rank")


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

    Both maps are read off ``split_hnf`` at row n of two Hermite bases of
    the relations, the second with the halves of Z^{2n} swapped.  The
    swapped tail is W iff the first map is injective, and its coindex is
    the product of the swapped head's pivots, finite iff that head has n
    columns; the second map is onto iff the head is the identity and
    injective iff the tail is λ⁻¹W̃.  M is the Smith form of the relations.

    Preconditions: W a direct summand whose projection to the last
    coordinate is onto (the nondegeneracy condition); without it the
    index-p claim has no content.
    """
    check_prime(p)
    if split.weights is None or split.weights[0] != 1 or split.weights[2] != 1:
        raise PreconditionError("weight decomposition must be (1, b, 1)")
    n = split.rank
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
    if any(x % p for x in Wt.entries[n - 1]):
        raise InvariantViolationError("shrunk lattice not divisible at weight +1")
    # λ⁻¹ on W̃: multiply the first coordinate by p, divide the last by p
    lamWt = [(p * w[0],) + w[1:-1] + (w[-1] // p,) for w in Wt.columns()]
    # the relations (αz, βz) for z = e_j, (w, 0) and (0, λ⁻¹w̃), as columns of Z^{2n}
    zero, e = (0,) * n, IntMatrix.identity(n).entries
    # α and β on the unit vectors: α scales the last one by p, β the first
    alpha, beta = e[:-1] + (zero[:-1] + (p,),), ((p,) + zero[1:],) + e[1:]
    rel = [a + b for a, b in zip(alpha, beta)] + [w + zero for w in W.columns()]
    rel += [zero + w for w in lamWt]
    H = hnf_basis(IntMatrix.from_columns(rel))
    M = quotient_structure(2 * n, H)
    # first comparison map: V⁰/W → M, x ↦ (x, 0), read off the swapped halves
    swapped = hnf_basis(IntMatrix.from_columns([c[n:] + c[:n] for c in rel]))
    bottom_proj, top_meet = split_hnf(swapped, n)
    if top_meet != W:
        raise InvariantViolationError("first comparison map is not injective")
    if bottom_proj.cols != n:
        raise InvariantViolationError("first comparison map has infinite coindex")
    inj1_index = math.prod(bottom_proj.entries[i][i] for i in range(n))
    # second comparison map: V⁰/λ⁻¹W̃ → M, y ↦ (0, y)
    top_proj, bottom_meet = split_hnf(H, n)
    injective2 = bottom_meet == hnf_basis(IntMatrix.from_columns(lamWt))
    return M, inj1_index, injective2 and top_proj == IntMatrix.identity(n)
