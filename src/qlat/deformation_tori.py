"""Character-lattice arithmetic for formal tori and diagonalizable kernels.

A formal torus is recorded by its character lattice, optionally carrying a
three-block weight decomposition (multiplicities of the weights -1, 0, +1
of a cocharacter acting on it).  A diagonalizable kernel — the kernel of a
map of tori T¹ × T⁰ → T cut out by a pair of integral diagonal character
matrices ψ¹, ψ⁰ — is presented by the cokernel Z^{2r} / im(χ ↦ (ψ¹χ, -ψ⁰χ))
together with the elementary-divisor lists of the two projection maps.

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

__all__ = [
    "CharLattice",
    "DiagGroupKernel",
    "serre_tate_torus",
    "qisog_kernel_char",
    "tgm_kernel",
    "cokernel_M",
]


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


@dataclass(frozen=True)
class DiagGroupKernel:
    """Kernel of a map of tori cut out by diagonal character matrices.

    ``presentation`` is the character group of the kernel, presented as
    Z^{2r} modulo the graph relations; ``source_divisors`` and
    ``target_divisors`` are the diagonal entries of ψ⁰ resp. ψ¹ in block
    order — the elementary divisors of the character maps of the two
    projections.  All torsion is p-primary.
    """

    p: int
    presentation: AbelianQuotient
    source_divisors: tuple[int, ...]
    target_divisors: tuple[int, ...]

    def __post_init__(self) -> None:
        check_prime(self.p)
        for divisors in (self.source_divisors, self.target_divisors, self.presentation.torsion):
            for d in divisors:
                if d < 1 or (d > 1 and not _is_p_power(d, self.p)):
                    raise PreconditionError("divisors must be powers of p")


def _is_p_power(d: int, p: int) -> bool:
    while d % p == 0:
        d //= p
    return d == 1


def serre_tate_torus(h1: int, h0: int) -> CharLattice:
    """Character lattice of the deformation torus attached to two heights:
    rank h1·h0, no weight decomposition.
    """
    if h1 < 0 or h0 < 0:
        raise PreconditionError("heights must be nonnegative")
    return CharLattice(h1 * h0)


def _diag_kernel(p: int, psi1: list[int], psi0: list[int]) -> DiagGroupKernel:
    """Assemble the kernel data for character matrices diag(psi1), diag(psi0),
    cross-checking the blockwise divisor lists against the honestly computed
    projection cokernels.
    """
    r = len(psi1)
    cols = []
    for i in range(r):
        col = [0] * (2 * r)
        col[i] = psi1[i]
        col[r + i] = -psi0[i]
        cols.append(col)
    rel = IntMatrix.from_columns(cols, rows=2 * r)
    presentation = quotient_structure(2 * r, rel)
    # honest check: the projection cokernels' orders equal the divisor products
    first = IntMatrix.from_columns(
        [[1 if i == j else 0 for i in range(2 * r)] for j in range(r)], rows=2 * r
    )
    second = IntMatrix.from_columns(
        [[1 if i == r + j else 0 for i in range(2 * r)] for j in range(r)], rows=2 * r
    )
    coker_source = quotient_structure(2 * r, rel.hstack(first))
    coker_target = quotient_structure(2 * r, rel.hstack(second))
    if coker_source.order() != math.prod(psi0) or coker_target.order() != math.prod(psi1):
        raise InvariantViolationError("projection cokernels disagree with block divisors")
    return DiagGroupKernel(p, presentation, tuple(psi0), tuple(psi1))


def qisog_kernel_char(split: CharLattice, p: int) -> DiagGroupKernel:
    """Kernel of the quasi-isogeny pair of torus maps on a weight-split
    lattice: character matrices ψ¹ = diag(p·1_a, 1_b, 1_c) and
    ψ⁰ = diag(1_a, 1_b, p·1_c).

    The weight-(-1) block is the graph {(x, x^p)} and the weight-(+1)
    block the graph {(x^p, x)}; correspondingly the source projection has
    elementary divisor p exactly c times and the target projection exactly
    a times.
    """
    if split.weights is None:
        raise PreconditionError("weight decomposition required")
    check_prime(p)
    a, b, c = split.weights
    psi1 = [p] * a + [1] * b + [1] * c
    psi0 = [1] * a + [1] * b + [p] * c
    return _diag_kernel(p, psi1, psi0)


def tgm_kernel(m_weights, split: CharLattice, p: int) -> DiagGroupKernel:
    """Kernel for an isogeny-scaling element acting blockwise by p-powers.

    ``m_weights`` lists the p-adic valuation of the scalar by which the
    element acts on each weight block (three entries for a weight-split
    lattice, one for an unsplit one); negative valuations are allowed.
    The element is split into the coprime integral pair
    ψ¹ = p^{max(-v, 0)}, ψ⁰ = p^{max(v, 0)} on each block, so both
    projections are injective on characters with finite p-power cokernel.
    """
    check_prime(p)
    vals = list(m_weights)
    blocks = list(split.weights) if split.weights is not None else [split.rank]
    if len(vals) != len(blocks):
        raise PreconditionError(
            f"expected {len(blocks)} block valuations, got {len(vals)}"
        )
    for v in vals:
        if not isinstance(v, int) or isinstance(v, bool):
            raise PreconditionError("block scalars must be integral powers of p")
    psi1: list[int] = []
    psi0: list[int] = []
    for v, mult in zip(vals, blocks):
        psi1.extend([p ** max(-v, 0)] * mult)
        psi0.extend([p ** max(v, 0)] * mult)
    return _diag_kernel(p, psi1, psi0)


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
