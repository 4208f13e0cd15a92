"""Self-dual p-power-commensurable lattices and the isotropic-line correspondence.

Fix an even lattice N = Z^n that is self-dual at a prime p.  Inside
N[1/p] the lattices commensurable with N at p that are again self-dual
and exchange index p with N in both directions ("p-neighbors") correspond
bijectively to isotropic lines of the reduction N/pN.  This module builds
both directions of that correspondence explicitly:

* ``lattice_from_line`` forms  Ñ = Z·(v/p) + {x ∈ N : [x, v] ≡ 0 mod p}
  for any lift v of an isotropic line ⟨v̄⟩ with Q(v) ≡ 0 mod p².  It
  writes the Hermite basis of pÑ down in closed form, as the kernel
  (``kernel_mod_p``) of φ(x) = ([x, v]/p) mod p on M = Z·v̄ + pZⁿ; φ is
  read off v̄ alone, so no lift is formed and no integer elimination runs.
* ``line_from_lattice`` recovers the line as the image of pÑ ∩ N in N/pN.

On top of the correspondence sit the typed-line filters (genericity with
respect to a sublattice W), the shrinking construction mapping a minimal
pair (W, W̃) to a fiber of neighbors, its brute-force double-check, and
the uniqueness-based inverse ``recover_lattice``.

Rational lattices are represented by :class:`PLattice`: an integer matrix
of numerator columns together with a power k, the lattice being spanned by
p^{-k} times the columns.  The representation is canonical (Hermite form,
minimal power), so dataclass equality is lattice equality.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from . import modp
from .errors import InvariantViolationError, PreconditionError
from .exact_linalg import (
    IntMatrix,
    hnf_basis,
    is_square_hnf,
    kernel_mod_p,
    lattices_equal,
    saturate,
    sublattice_in_span,
    sublattice_index,
)
from .fp_quadratic import (
    FpQuadSpace,
    ProjLine,
    enumerate_isotropic_lines,
    isotropic_lines_in,
    perp_basis,
)
from .modp import MAX_PROJ_POINTS
from .quad_lattice import (
    QuadLattice,
    Sublattice,
    basis_half_gram,
    is_self_dual_at,
    quad_value,
    restricted_lattice,
)

__all__ = [
    "PLattice",
    "reduction",
    "hensel_lift_line",
    "lattice_from_line",
    "line_from_lattice",
    "enumerate_neighbors",
    "neighbors_of",
    "plattice_quadlattice",
    "plattice_sort_key",
    "w_generic_lines",
    "shrink_set",
    "shrink_set_bruteforce",
    "recover_lattice",
]


@dataclass(frozen=True)
class PLattice:
    """A lattice p^{-power} · (column span) inside ambient coordinates.

    Canonical form: the numerator basis is the full-rank Hermite basis and
    ``power`` is minimal (if power > 0, not every entry is divisible by
    p), so equal lattices compare equal as dataclasses.  ``power = 0`` and
    the identity basis is the ambient lattice itself.

    A numerator basis that is already a square canonical Hermite basis
    (:func:`~qlat.exact_linalg.is_square_hnf`) is kept as given; any other
    is re-normalized by ``hnf_basis``.  Removing a common factor p keeps a
    Hermite basis canonical, so that step needs no second normalization.

    ``_half_gram`` is the half-Gram of Q/p^(2·power) on the canonical
    numerator basis, formed on first use and kept: the lattice is frozen,
    so the kept form stays the form of its fields, and equality, hashing
    and ``repr`` do not see it.
    """

    ambient: QuadLattice
    p: int
    power: int
    numerator_basis: IntMatrix

    def __post_init__(self) -> None:
        modp.check_int(self.p, self.power)
        if self.power < 0:
            raise PreconditionError("negative power in lattice denominator")
        n = self.ambient.rank
        numer = self.numerator_basis
        if not is_square_hnf(numer):
            numer = hnf_basis(numer)
        if numer.cols != n or numer.rows != n:
            raise PreconditionError("lattice basis must have full rank")
        power, p = self.power, self.p
        while power > 0 and all(x % p == 0 for row in numer.entries for x in row):
            numer = IntMatrix.from_rows([[x // p for x in row] for row in numer.entries])
            power -= 1
        object.__setattr__(self, "numerator_basis", numer)
        object.__setattr__(self, "power", power)

    @property
    def rank(self) -> int:
        return self.ambient.rank

    @cached_property
    def _half_gram(self) -> tuple[tuple[int, ...], ...] | None:
        """Q/p^(2·power) on the basis, or None when not integral (see the class)."""
        return basis_half_gram(self.ambient, self.numerator_basis.columns(), self.scale_denominator() ** 2)

    def scale_denominator(self) -> int:
        return self.p**self.power

    def coordinates(self, v: tuple[int, ...]) -> list[int] | None:
        """Coordinates of a vector of the ambient Z^n in this lattice's basis.

        Returns None when v does not lie in the lattice.  The numerator
        basis S is lower triangular, so S·c = p^power·v is solved exactly by
        forward substitution.
        """
        d = self.scale_denominator()
        c: list[int] = []
        for i, row in enumerate(self.numerator_basis.entries):
            q, r = divmod(d * v[i] - sum(map(mul, row, c)), row[i])
            if r:
                return None
            c.append(q)
        return c

    def span_excess(self, cols: list[tuple[int, ...]]) -> int | None:
        """dim ker(W/pW → L/pL) for the basis columns of a lattice W ⊂ Z^n.

        Returns None when some column does not lie in this lattice L, and
        otherwise ``len(cols)`` minus the rank mod p of the columns'
        coordinates (:meth:`coordinates`).  A kernel vector is a w ∈ W ∖ pW
        with w ∈ pL, that is w/p ∈ L ∩ span(W) ∖ W; so for W ⊂ L with
        L ∩ span(W) ⊂ p⁻¹W the excess e gives [L ∩ span(W) : W] = p^e.
        """
        coords = []
        for w in cols:
            c = self.coordinates(w)
            if c is None:
                return None
            coords.append(c)
        return len(cols) - modp.rank(coords, self.p)


def plattice_sort_key(L: PLattice):
    return (L.power, L.numerator_basis.entries)


def plattice_quadlattice(L: PLattice) -> QuadLattice:
    """The lattice as an abstract even lattice in its own coordinates.

    Its half-Gram is that of Q/d on the numerator basis, d = p^(2·power)
    (:func:`~qlat.quad_lattice.basis_half_gram`); PreconditionError unless
    every entry is an integer, i.e. unless Q is integral on the lattice.
    The lattice forms that half-Gram once and keeps it (``_half_gram``), so
    a neighbor that :func:`lattice_from_line` has certified, or whose line
    :func:`line_from_lattice` has read, is not formed again.
    """
    if L._half_gram is None:
        raise PreconditionError("lattice quadratic form is not integral")
    return QuadLattice(L._half_gram)


# ---------------------------------------------------------------------------
# reduction and Hensel lifting
# ---------------------------------------------------------------------------


def reduction(N: QuadLattice, p: int) -> FpQuadSpace:
    """The quadratic space N/pN over F_p, built once per lattice and prime.

    The space is kept on N, so every caller with the same N and p shares
    one space and its per-space invariants; a p that is not prime raises
    on every call and is never kept.
    """
    spaces = N._reductions
    V = spaces.get(p)
    if V is None:
        V = spaces[p] = FpQuadSpace(p, N.half_gram.entries)  # checks p before reducing
    return V


def _check_line(N: QuadLattice, line: ProjLine) -> int:
    p = line.space.p
    if line.space != reduction(N, p):
        raise PreconditionError("line does not live in the reduction of the lattice")
    return p


def hensel_lift_line(N: QuadLattice, line: ProjLine) -> tuple[int, ...]:
    """Lift an isotropic line to v with Q(v) ≡ 0 mod p², v mod p spanning it.

    One Newton step along a fixed basis direction pairing to a unit with
    v;  requires the line to be isotropic and to pair nontrivially with
    the lattice (it must avoid the radical of the reduction — otherwise
    the point is singular and no correction direction exists).
    """
    p = _check_line(N, line)
    if not line.is_isotropic():
        raise PreconditionError("line is not isotropic")
    v = list(line.generator)
    brow = [sum(map(mul, row, v)) % p for row in N.gram().entries]  # [v, e_i] mod p
    idx = next((i for i, x in enumerate(brow) if x), None)
    if idx is None:
        raise PreconditionError("singular point: line pairs trivially with the lattice")
    # Q(v + p·t·e_idx) ≡ Q(v) + p·t·[v, e_idx] mod p², and p | Q(v)
    t = (-(quad_value(N, v) // p) * pow(brow[idx], -1, p)) % p
    v[idx] += p * t
    return tuple(a % p**2 for a in v)


# ---------------------------------------------------------------------------
# the line <-> lattice correspondence
# ---------------------------------------------------------------------------


def lattice_from_line(N: QuadLattice, line: ProjLine) -> PLattice:
    """The self-dual p-neighbor attached to an isotropic line.

    With v a lift satisfying Q(v) ≡ 0 mod p², the lattice is
    Ñ = Z·(v/p) + {x ∈ N : [x, v] ≡ 0 mod p}.  Its numerator is
    pÑ = {x ∈ Zⁿ : x mod p ∈ F_p·v̄ and [x, v] ≡ 0 mod p²}, for v̄ the
    line's normalized generator, so it does not depend on the choice of
    admissible lift.

    pÑ is the kernel of φ(x) = ([x, v]/p) mod p on M = Z·v̄ + pZⁿ, whose
    canonical basis C has v̄ in the column of v̄'s leading 1 and p·e_j in
    every other column j.  No lift is formed: φ(p·e_j) = [e_j, v̄] mod p,
    and for v = v̄ + p·w with Q(v) ≡ 0 mod p², [v̄, v] = 2Q(v̄) + p·[v̄, w]
    ≡ Q(v̄) mod p², so φ(v̄) = (Q(v̄)/p) mod p.
    :func:`~qlat.exact_linalg.kernel_mod_p` of φ(C) combines C's columns
    into a lower triangular basis of pÑ with pivots in {1, p, p²}; reducing
    the entries left of each pivot, top row first, gives its canonical
    Hermite basis S.  S is checked before returning: its pivot product is
    pⁿ (self-dual), and the half-Gram of Q/p² on it, which the returned
    lattice forms and keeps (``PLattice._half_gram``), is integral, so Ñ
    is integral and even.
    """
    p = _check_line(N, line)
    if not is_self_dual_at(N, p):
        raise PreconditionError("lattice is not self-dual at p")
    if not line.is_isotropic():
        raise PreconditionError("line is not isotropic")
    n = N.rank
    vbar = line.generator
    i0 = next(i for i, x in enumerate(vbar) if x)
    B = N.gram().entries
    phi = [sum(map(mul, g, vbar)) % p for g in B]  # φ(p·e_j)
    phi[i0] = quad_value(N, vbar) // p % p  # φ(v̄)
    C = [[0] * n for _ in range(n)]  # columns of M's basis
    for j in range(n):
        C[j][j] = p
    C[i0] = list(vbar)
    K = kernel_mod_p(phi, p).entries
    k = next((i for i in range(n) if K[i][i] != 1), None)
    cols = C[:]
    if k is not None:
        ck = C[k]
        for j, a in enumerate(K[k][:k]):
            if a:
                cols[j] = [x + a * y for x, y in zip(C[j], ck)]
        cols[k] = [p * y for y in ck]
    # a column operation at pivot i touches only rows ≥ i
    for i in range(1, n):
        ci = cols[i]
        d = ci[i]
        for j in range(i):
            q = cols[j][i] // d
            if q:
                cj = cols[j]
                cols[j] = cj[:i] + [x - q * y for x, y in zip(cj[i:], ci[i:])]
    if math.prod(c[i] for i, c in enumerate(cols)) != p**n:
        raise InvariantViolationError("neighbor lattice is not self-dual (determinant)")
    Nt = PLattice(N, p, 1, IntMatrix.from_columns(cols))
    if Nt._half_gram is None:
        raise InvariantViolationError("neighbor lattice is not integral")
    return Nt


def line_from_lattice(Nt: PLattice) -> ProjLine:
    """The isotropic line recovered from a p-neighbor:  image of pÑ ∩ N.

    Validates that the input genuinely is a p-neighbor of its ambient
    lattice (index p in both directions, integral, even, self-dual); the
    ambient lattice itself and lattices further away than one p-step are
    rejected.  Integrality is read off the half-Gram the lattice keeps
    (``PLattice._half_gram``): a neighbor from :func:`lattice_from_line` is
    not certified a second time, and one rebuilt from its basis forms it
    once, here.
    """
    N, p = Nt.ambient, Nt.p
    if not is_self_dual_at(N, p):
        raise PreconditionError("ambient lattice is not self-dual at p")
    if Nt.power != 1:
        raise PreconditionError("lattice is not a p-neighbor of the ambient lattice")
    S = Nt.numerator_basis
    n = N.rank
    # a PLattice numerator is a square canonical Hermite basis
    if math.prod(S.entries[i][i] for i in range(n)) != p**n:
        raise PreconditionError("lattice is not self-dual (determinant)")
    if Nt._half_gram is None:
        raise PreconditionError("lattice quadratic form is not integral")
    V = reduction(N, p)
    red = [[x % p for x in col] for col in S.columns()]
    if modp.rank(red, p) != 1:
        raise PreconditionError("lattice does not exchange index p with the ambient")
    gen = next(rowvec for rowvec in red if any(e % p for e in rowvec))
    line = ProjLine(V, tuple(gen))
    if not line.is_isotropic():
        raise InvariantViolationError("recovered line is not isotropic")
    return line


def enumerate_neighbors(
    N: QuadLattice, p: int, max_points: int = MAX_PROJ_POINTS
) -> tuple[PLattice, ...]:
    """All p-neighbors of N, one per isotropic line of the reduction, sorted."""
    return neighbors_of(PLattice(N, p, 0, IntMatrix.identity(N.rank)), max_points)


def neighbors_of(
    L: PLattice,
    max_points: int = MAX_PROJ_POINTS,
    line_within: Sequence[tuple[int, ...]] | None = None,
) -> tuple[PLattice, ...]:
    """All p-neighbors of an arbitrary self-dual lattice in N[1/p].

    Computed in the lattice's own coordinates and mapped back, so the
    ambient representation stays exact; the ambient lattice itself (power
    0, identity basis) is its own coordinates, and its neighbors are built
    directly.  The ambient lattice N appears among the neighbors of any
    neighbor of N.

    ``line_within`` holds vectors of L in ambient coordinates.  When it is
    given, only the neighbors whose line in L/pL lies in the span of the
    vectors' reductions mod pL are built, and only that span is swept
    (``isotropic_lines_in``): ``max_points`` bounds the span's projective
    points, not those of L/pL.  A vector outside L raises
    PreconditionError.  Without it every isotropic line of L/pL is swept
    under the guard.
    """
    p, S = L.p, L.numerator_basis
    own = L.power == 0 and S == IntMatrix.identity(L.rank)
    Lq = L.ambient if own else plattice_quadlattice(L)
    if not is_self_dual_at(Lq, p):
        raise PreconditionError("lattice is not self-dual at p")
    V = reduction(Lq, p)
    if line_within is None:
        lines = enumerate_isotropic_lines(V, max_points)
    else:
        coords = []
        for x in line_within:
            c = L.coordinates(x)
            if c is None:
                raise PreconditionError("vector does not lie in the lattice")
            coords.append(c)
        lines = isotropic_lines_in(V, coords, max_points)
    out = [lattice_from_line(Lq, line) for line in lines]
    if not own:
        out = [PLattice(L.ambient, p, L.power + 1, S @ Nt.numerator_basis) for Nt in out]
    return tuple(sorted(out, key=plattice_sort_key))


# ---------------------------------------------------------------------------
# typed (W-generic) lines and the shrinking construction
# ---------------------------------------------------------------------------


def w_generic_lines(
    N: QuadLattice,
    W: Sublattice,
    p: int,
    U: Sublattice | None = None,
    max_points: int = MAX_PROJ_POINTS,
) -> tuple[ProjLine, ...]:
    """Isotropic lines generic for W (and exactly typed for U when given).

    A line ⟨v̄⟩ qualifies when (i) v̄ does not lie in the reduction of W,
    (ii) some w in W pairs with v̄ nontrivially, and — when U is given —
    (iii) every u in U pairs with v̄ trivially.  For W = 0 conditions (i)
    and (ii) are vacuous.  ``shrink_set`` passes the W̃ of a minimal pair as
    U (see ``_shrink_preconditions``).

    Condition (iii) is met by sweeping only U^⊥ mod p
    (``isotropic_lines_in``), so when U is given ``max_points`` bounds the
    projective points of U^⊥, otherwise those of N/pN.
    """
    if W.ambient != N or (U is not None and U.ambient != N):
        raise PreconditionError("sublattice belongs to a different lattice")
    V = reduction(N, p)
    if U is None:
        lines = enumerate_isotropic_lines(V, max_points)
    else:
        lines = isotropic_lines_in(V, perp_basis(V, U.basis.columns()), max_points)
    if W.rank == 0:
        return lines
    Wred = [[x % p for x in W.basis.column(j)] for j in range(W.rank)]
    w_rank = modp.rank(Wred, p)
    wb_rows = [modp.mat_vec(V.gram(), w, p) for w in Wred]  # B is symmetric
    out = []
    for line in lines:
        v = line.generator
        if modp.rank(Wred + [v], p) == w_rank:
            continue  # v lies in the reduction of W
        if all(sum(map(mul, r, v)) % p == 0 for r in wb_rows):
            continue  # W pairs trivially with v
        out.append(line)
    return tuple(out)


def _shrink_preconditions(N: QuadLattice, W: Sublattice, Wt: Sublattice, p: int) -> None:
    """Validate a minimal pair (W, W̃); W̃ is then its own type subgroup.

    For p prime, index exactly p forces the elementary divisors of W̃ in W
    to be [1, …, 1, p]: W has a basis a_1, …, a_r with W̃ = U ⊕ Z·p·a_r,
    U = span(a_1, …, a_{r-1}).  Condition (iii) of ``w_generic_lines``
    sees its U only through pairings mod p, and p·a_r pairs to 0 mod p, so
    W̃ gives the same lines as U.  Containment W̃ ⊂ W and the index
    [W : W̃] are read off the pivots of Hermite bases
    (``sublattice_index``).
    """
    if not is_self_dual_at(N, p):
        raise PreconditionError("lattice is not self-dual at p")
    if W.ambient != N or Wt.ambient != N:
        raise PreconditionError("sublattice belongs to a different lattice")
    r = W.rank
    if r == 0:
        raise PreconditionError("W must be nonzero")
    _, summand = saturate(N.rank, W.basis)
    if not summand:
        raise PreconditionError("W is not a direct summand")
    if 2 * r > N.rank - 3:
        raise PreconditionError("W has rank too large for the construction")
    if restricted_lattice(W).gram().det() == 0:
        raise PreconditionError("form restricted to W is degenerate")
    index = sublattice_index(W.basis, Wt.basis)
    if index is None:
        raise PreconditionError("W̃ must lie in W")
    if index != p:
        raise PreconditionError("W̃ must have index exactly p in W")


def shrink_set(
    N: QuadLattice,
    W: Sublattice,
    Wt: Sublattice,
    p: int,
    max_points: int = MAX_PROJ_POINTS,
) -> tuple[PLattice, ...]:
    """Neighbors Ñ with Ñ ∩ span(W) = W̃, by the typed-line construction.

    Preconditions: N self-dual at p, W a nondegenerate direct summand with
    2·rank(W) ≤ rank(N) - 3, and W̃ ⊂ W of index exactly p.  The fiber is
    computed as the neighbor lattices of the W-generic lines whose type
    subgroup matches the pair; ``shrink_set_bruteforce`` computes the same
    set by filtering all neighbors and exists as an independent check.
    """
    _shrink_preconditions(N, W, Wt, p)
    lines = w_generic_lines(N, W, p, Wt, max_points)
    out = [lattice_from_line(N, line) for line in lines]
    return tuple(sorted(out, key=plattice_sort_key))


def shrink_set_bruteforce(
    N: QuadLattice,
    W: Sublattice,
    Wt: Sublattice,
    p: int,
    max_points: int = MAX_PROJ_POINTS,
) -> tuple[PLattice, ...]:
    """The same fiber as :func:`shrink_set`, by exhaustive filtering.

    Enumerates every p-neighbor of N and keeps those whose intersection
    with span(W) equals W̃.  Independent of the typed-line route.
    """
    _shrink_preconditions(N, W, Wt, p)
    out = []
    for Nt in enumerate_neighbors(N, p, max_points):
        T = sublattice_in_span(Nt.numerator_basis, W.basis)
        # Ñ ∩ span(W) = p^{-1}·T; compare against W̃ as integer lattices
        if lattices_equal(T, Wt.basis.scale(p)):
            out.append(Nt)
    return tuple(sorted(out, key=plattice_sort_key))


def recover_lattice(Nt: PLattice, W: Sublattice) -> PLattice:
    """The unique p-neighbor L of Ñ with L ∩ span(W) = W.

    Preconditions: W is a direct summand of the ambient lattice and
    Ñ ∩ span(W) lies in W with index exactly p (in particular Ñ itself,
    whose intersection is all of W, is rejected); the intersection comes
    from ``sublattice_in_span`` and its index from the pivots of Hermite
    bases (``sublattice_index``).  Builds the neighbor of each isotropic
    line of Ñ/pÑ that passes a necessary condition, filters those on the
    intersection condition, and insists on exactly one survivor — any
    other count falsifies the uniqueness this package is built around and
    raises InvariantViolationError.

    The necessary condition: the neighbor L at the line ℓ of Ñ/pÑ can
    contain W only if ℓ is the span of the reductions of p·w, w ∈ W, mod
    pÑ (``neighbors_of(..., line_within=p·W)``).  Proof: pL ⊂ Ñ, and its
    image in Ñ/pÑ is ℓ.  If W ⊂ L, each p·w lies in pL, so its reduction
    lies in ℓ.  The map w ↦ p·w mod pÑ has kernel W ∩ Ñ = W̃ ⊃ pW, so its
    image is W/W̃ ≅ Z/p: a line, which must then be ℓ.  So the sweep
    visits one projective point, needs no size guard, and at most one
    lattice is built.

    The filter is exact: L ∩ span(W) = W iff W ⊂ L and W/pW → L/pL is
    injective, i.e. ``L.span_excess(W) == 0``.  Proof: W is saturated in
    N and L ⊂ N[1/p], so (L ∩ span W)/W is a finite p-group, and it is
    nonzero iff some w ∈ W ∖ pW lies in pL.
    """
    N, p = Nt.ambient, Nt.p
    if W.ambient != N:
        raise PreconditionError("sublattice belongs to a different lattice")
    _, summand = saturate(N.rank, W.basis)
    if not summand:
        raise PreconditionError("W is not a direct summand")
    T = sublattice_in_span(Nt.numerator_basis, W.basis)
    idx = sublattice_index(W.basis.scale(Nt.scale_denominator()), T)
    if idx is None:
        raise PreconditionError("intersection with span(W) must lie in W")
    if idx != p:
        raise PreconditionError(
            f"intersection with span(W) has index {idx} in W, expected {p}"
        )
    wcols = W.basis.columns()
    pw = [tuple(p * x for x in w) for w in wcols]
    survivors = [
        L for L in neighbors_of(Nt, line_within=pw) if L.span_excess(wcols) == 0
    ]
    if len(survivors) != 1:
        raise InvariantViolationError(
            f"expected a unique recovery candidate, found {len(survivors)}"
        )
    return survivors[0]

