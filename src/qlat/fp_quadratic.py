"""Quadratic spaces over prime fields F_p, including p = 2.

A space is presented by an upper-triangular half-Gram matrix mod p:
``Q(x) = x^T U x`` and ``B = U + U^T``, so the theory is uniform in the
characteristic — at p = 2 the quadratic form carries strictly more
information than the (alternating) bilinear form.

Provided here, and nowhere else: the form on a tuple (``half_gram_on``,
its Gram type), the orthogonal complement (``perp_basis``), the Witt
decomposition and the closed forms read off its type (``so_order``,
``closed_form_line_count``).  Also isotropic-line enumeration (of V, or
of a subspace under the restricted form), reflections and Eichler
transvections, the Dickson invariant, Witt-style extension of subspace
isometries to special isometries, reflection factorization with spinor
norms (odd p), and orbits of isotropic lines under the special
isometries fixing a subspace pointwise, certified by ``witt_extension``.

Constructions, not searches
---------------------------
Only the enumerations of isotropic lines sweep projective points, under
their ``max_points`` guard.  Everything else is built: for odd p one
Gram–Schmidt, ``_orthogonal_basis``, gives the diagonal from which
``find_isotropic_vector`` reads an isotropic vector and along which
``reflection_factorization`` peels off g, at any p and dimension.

Per-space invariants
--------------------
An ``FpQuadSpace`` is frozen, so whatever depends only on it is computed
at most once and kept on the instance: the Gram matrix, nondegeneracy,
the Witt decomposition, and for ``witt_extension`` and
``stabilizer_orbit`` one record per tuple met so far, holding its Gram
type, one map from the root of that type to it, the columns of that
map's inverse once the tuple has been a source, and the canonical tuple
itself, with the root per Gram type and the witnesses validated so far.
A tuple's rank and Gram type are thus computed once per space, and a
caller's tuple equal to a recorded one is found as given, with no
normalization.  No group is materialized.
Equality, hashing and ``repr`` see only ``p`` and ``half_gram``; two equal
spaces built apart compute the same values independently.

Canonical vector order
----------------------
Normalized projective representatives (leading nonzero coordinate 1) are
ordered by (position of the leading 1, then the coordinate tuple).  The
first nonzero vector in this order is (1, 0, ..., 0).  All "smallest" and
"sorted" guarantees in this module refer to that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import mul
from typing import Iterable, Iterator, Sequence

from . import kernels, modp
from .errors import InvariantViolationError, PreconditionError
from .modp import MAX_PROJ_POINTS

__all__ = [
    "FpQuadSpace",
    "FpIsometry",
    "ProjLine",
    "find_isotropic_vector",
    "witt_decomposition",
    "half_gram_on",
    "perp_basis",
    "isotropic_generators",
    "enumerate_isotropic_lines",
    "isotropic_lines_in",
    "reflection",
    "dickson_invariant",
    "witt_extension",
    "reflection_factorization",
    "spinor_norm",
    "stabilizer_orbit",
    "so_order",
    "closed_form_line_count",
    "line_sort_key",
]

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def _sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a mod p (odd p), or None if a is a nonsquare."""
    a %= p
    if a == 0:
        return 0
    if modp.legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli–Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = next(z for z in range(2, p) if modp.legendre(z, p) == -1)
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = (t2 * t2) % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, (b * b) % p
        t, r = (t * c) % p, (r * b) % p
    return r


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FpQuadSpace:
    """Quadratic space over F_p given by an upper-triangular half-Gram.

    Invariants that depend only on the space and the tuple records of
    ``witt_extension`` are computed once and kept on the instance (see the
    module docstring); equality, hashing and ``repr`` see only ``p`` and
    ``half_gram``.
    """

    p: int
    half_gram: Matrix

    def __post_init__(self) -> None:
        modp.check_prime(self.p)
        rows = modp.int_tuples(self.half_gram, "half-Gram matrix must be square")
        hg = tuple(tuple(x % self.p for x in row) for row in rows)
        n = len(hg)
        if hg and len(hg[0]) != n:
            raise PreconditionError("half-Gram matrix must be square")
        for i in range(n):
            if any(hg[i][j] for j in range(i)):
                raise PreconditionError("half-Gram matrix must be upper triangular")
        object.__setattr__(self, "half_gram", hg)

    @property
    def dim(self) -> int:
        return len(self.half_gram)

    def gram(self) -> Matrix:
        return self._gram

    def q(self, v: Sequence[int]) -> int:
        # row i of the upper-triangular half-Gram is zero left of column i
        return sum(
            vi * sum(map(mul, row, v)) for vi, row in zip(v, self.half_gram) if vi
        ) % self.p

    def b(self, x: Sequence[int], y: Sequence[int]) -> int:
        return sum(
            xi * sum(map(mul, row, y)) for xi, row in zip(x, self._gram) if xi
        ) % self.p

    def is_nondegenerate(self) -> bool:
        """True iff the bilinear form B has zero radical."""
        return self._nondegenerate

    @cached_property
    def _gram(self) -> Matrix:
        hg, n = self.half_gram, self.dim
        return tuple(
            tuple((hg[i][j] + hg[j][i]) % self.p for j in range(n)) for i in range(n)
        )

    @cached_property
    def _nondegenerate(self) -> bool:
        return modp.det(self._gram, self.p) != 0

    @cached_property
    def _witt(self) -> WittDecomposition:
        return _witt_decomposition(self)

    @cached_property
    def _witt_cache(self) -> dict:
        """What ``witt_extension`` and ``stabilizer_orbit`` keep on the space.

        ``types``: per Gram type of tuple, ``(key, root, flip)``;
        ``tuples``: per tuple S recorded so far, ``[key, m, parity, cols,
        S]`` with key the type's own key object (the form on S,
        ``half_gram_on``), m a map root → S of Dickson parity ``parity``
        (see ``_witt_record``) and cols the columns of m⁻¹, kept once S has
        been a source, else None; ``witnesses``: each witness matrix built
        so far, mapped to its validated ``FpIsometry``.
        """
        return {"types": {}, "tuples": {}, "witnesses": {}}


@dataclass(frozen=True, init=False)
class ProjLine:
    """A line in F_p^n, stored by its normalized generator.

    The generator's leading nonzero coordinate is 1; two ProjLine values
    are equal iff they are the same line of the same space.
    ``ProjLine(space, v)`` is the public constructor: it checks v as
    ``_vectors`` does and normalizes it.  The kernels' outputs are already
    normalized tuples of ints in [0, p), and their callers here pass
    ``_trusted=True`` to skip that work.
    """

    space: FpQuadSpace
    generator: Vector

    def __init__(self, space: FpQuadSpace, generator: Sequence[int], _trusted: bool = False) -> None:
        if not _trusted:
            p = space.p
            (v,) = _vectors(space, [generator], "line generator has wrong dimension")
            lead = next((i for i, x in enumerate(v) if x), None)
            if lead is None:
                raise PreconditionError("zero vector spans no line")
            inv = modp.inv_mod(v[lead], p)
            generator = tuple((x * inv) % p for x in v)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "generator", generator)

    def is_isotropic(self) -> bool:
        return self.space.q(self.generator) == 0


def line_sort_key(line: ProjLine) -> tuple[int, Vector]:
    return kernels.proj_key(line.generator)


@dataclass(frozen=True)
class FpIsometry:
    """An isometry of a quadratic space, stored as a matrix acting on columns."""

    space: FpQuadSpace
    matrix: Matrix

    def __post_init__(self) -> None:
        V = self.space
        n = V.dim
        m = _vectors(V, self.matrix, "isometry matrix has wrong shape")
        if len(m) != n:
            raise PreconditionError("isometry matrix has wrong shape")
        object.__setattr__(self, "matrix", m)
        if self.det() == 0:
            raise PreconditionError("isometry matrix is singular")
        form, hg = _half_gram(V, tuple(zip(*m))), V.half_gram  # hg: the form on the unit vectors
        if form != hg:  # the first column that differs names the error, its Q-value first
            j = next(j for j in range(n) if any(form[i][j] != hg[i][j] for i in range(j + 1)))
            kind = "quadratic" if form[j][j] != hg[j][j] else "bilinear"
            raise PreconditionError(f"matrix does not preserve the {kind} form")

    def apply(self, v: Sequence[int]) -> Vector:
        return modp.mat_vec(self.matrix, v, self.space.p)

    def __matmul__(self, other: "FpIsometry") -> "FpIsometry":
        if other.space != self.space:
            raise PreconditionError("isometries of different spaces")
        return FpIsometry(self.space, modp.mat_mul(self.matrix, other.matrix, self.space.p))

    def det(self) -> int:
        return self._det

    def dickson(self) -> int:
        return self._dickson

    @cached_property
    def _det(self) -> int:
        return modp.det(self.matrix, self.space.p)

    @cached_property
    def _dickson(self) -> int:
        return dickson_invariant(self.space, self.matrix)

    def is_special(self) -> bool:
        if self.space.p == 2:
            return self.dickson() == 0
        return self.det() == 1


# ---------------------------------------------------------------------------
# isotropic vectors, Witt decomposition
# ---------------------------------------------------------------------------


def _vectors(V: FpQuadSpace, vectors: Iterable[Sequence[int]], wrong_length: str) -> Matrix:
    """The one reduction of caller vectors mod p, checked by ``modp.int_tuples``.

    PreconditionError(wrong_length) unless each vector has V.dim entries.
    """
    p, n = V.p, V.dim
    rows = modp.int_tuples(vectors, wrong_length)
    if rows and len(rows[0]) != n:
        raise PreconditionError(wrong_length)
    return tuple([tuple([x % p for x in v]) for v in rows])


def _span_basis(V: FpQuadSpace, basis: Iterable[Sequence[int]], wrong_length: str) -> list[Vector]:
    """The nonzero rows of the rref of the caller's ``basis``, checked by ``_vectors``."""
    rows, pivots = modp.rref(_vectors(V, basis, wrong_length), V.p)
    return [tuple(r) for r in rows[: len(pivots)]]


def _combine(basis: Sequence[Vector], coeffs: Sequence[int], p: int) -> Vector:
    n = len(basis[0])
    return tuple(
        sum(c * b[i] for c, b in zip(coeffs, basis)) % p for i in range(n)
    )


def find_isotropic_vector(V: FpQuadSpace) -> Vector | None:
    """A normalized nonzero vector with Q(v) = 0, or None if there is none.

    Read off the form, with no walk over projective points.  A basis vector
    e_i with Q(e_i) = 0 comes first.  Otherwise, at p = 2 the other
    half-Gram entries decide (``_isotropic_from_half_gram``), and for odd p
    the diagonal of ``_orthogonal_basis``.  A radical vector is isotropic.
    With three anisotropic w_i, Q(x w_0 + y w_1 + w_2) = 0 asks for y^2 =
    (-a_2 - a_0 x^2) / a_1: as x runs over F_p the right side takes
    (p + 1)/2 values, which must meet the (p + 1)/2 squares (0 included),
    so the scan with Legendre tests ends (Chevalley–Warning).  With two,
    x w_0 + w_1 is isotropic iff -a_1/a_0 is a square; a line is
    anisotropic.
    """
    p, n = V.p, V.dim
    for i in range(n):
        if V.half_gram[i][i] == 0:
            return tuple(int(k == i) for k in range(n))
    if p == 2:
        return _isotropic_from_half_gram(V)
    diag = list(islice(_orthogonal_basis(V), 3))
    for w, a in diag:
        if a == 0:
            return ProjLine(V, w).generator
    if len(diag) == 2:
        (w0, a0), (w1, a1) = diag
        x = _sqrt_mod(-a1 * modp.inv_mod(a0, p), p)
        if x is None:
            return None
        return ProjLine(V, _combine([w0, w1], (x, 1), p)).generator
    if len(diag) < 2:
        return None
    (w0, a0), (w1, a1), (w2, a2) = diag
    inv1 = modp.inv_mod(a1, p)
    for x in range(p):
        y = _sqrt_mod((-a2 - a0 * x * x) * inv1, p)
        if y is not None:
            return ProjLine(V, _combine([w0, w1, w2], (x, y, 1), p)).generator
    raise InvariantViolationError("ternary form over F_p without an isotropic vector")


def _isotropic_from_half_gram(V: FpQuadSpace) -> Vector | None:
    """An isotropic vector over F_2 read off the half-Gram U, or None.

    For U with every U_ii = Q(e_i) = 1: Q(e_i + e_j) = 1 + 1 + U_ij, and
    when every entry above the diagonal is 1 too, Q(e_0 + e_1 + e_2) = 6 =
    0.  So unless n <= 2 and the form is x^2 (+ xy + y^2), one of these
    vectors is isotropic; those small forms are anisotropic.
    """
    n, U = V.dim, V.half_gram
    for i in range(n):
        for j in range(i + 1, n):
            if U[i][j] == 0:  # Q(e_i + e_j) = 1 + 1 + 0
                return tuple(int(k in (i, j)) for k in range(n))
    if n >= 3:
        return tuple(int(k < 3) for k in range(n))
    return None


def _orthogonal_basis(V: FpQuadSpace) -> Iterator[tuple[Vector, int]]:
    """An orthogonal basis of V (odd p), as pairs (w, Q(w)), the radical last.

    Gram–Schmidt from the unit vectors.  The pivot w is a remaining vector
    with Q(w) != 0, or else u + t for remaining u, t with B(u, t) != 0: then
    Q(u) = Q(t) = 0, so Q(u + t) = B(u, t) != 0, and w takes the place of u.
    Every other remaining vector x becomes x - (B(x, w)/2Q(w)) w, which is
    orthogonal to w.  Once every remaining vector is isotropic and they
    pair trivially, B vanishes on their span, which is orthogonal to the
    pivots, so they span the radical and come last with Q = 0.
    """
    p, n = V.p, V.dim
    B = V.gram()
    rest = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    while rest:
        i = next((i for i, u in enumerate(rest) if V.q(u)), None)
        if i is None:
            i, j = next(
                ((i, j) for i, u in enumerate(rest) for j in range(i + 1, len(rest))
                 if V.b(u, rest[j])),
                (None, None),
            )
            if i is None:
                break
            rest[i] = tuple((x + y) % p for x, y in zip(rest[i], rest[j]))
        w = rest.pop(i)
        a = V.q(w)
        bw = modp.mat_vec(B, w, p)
        c = modp.inv_mod(2 * a, p)
        for k, u in enumerate(rest):
            t = sum(map(mul, bw, u)) * c % p
            rest[k] = tuple((x - t * y) % p for x, y in zip(u, w))
        yield w, a
    for u in rest:
        yield u, 0


def half_gram_on(V: FpQuadSpace, basis: Iterable[Sequence[int]]) -> Matrix:
    """The form of V on the tuple ``basis``, read through ``_vectors``: its Gram type."""
    return _half_gram(V, _vectors(V, basis, "subspace basis vector has wrong dimension"))


def _half_gram(V: FpQuadSpace, S: Sequence[Vector]) -> Matrix:
    """The form of V on a tuple S that ``_vectors`` has read: Q(s_i) on the diagonal,
    B(s_i, s_j) above it, mod p; one B·s_j per s_j, j ≥ 1, so O(k·n²) for k vectors."""
    p = V.p
    bs = [modp.mat_vec(V.gram(), s, p) for s in S[1:]]
    return tuple([
        tuple([0] * i + [V.q(s)] + [sum(map(mul, s, b)) % p for b in bs[i:]])
        for i, s in enumerate(S)
    ])


def perp_basis(V: FpQuadSpace, basis: Iterable[Sequence[int]]) -> list[Vector]:
    """A basis of span(basis)^⊥ mod p: the kernel of the pairing rows B·w of
    ``basis`` read through ``_vectors`` (``modp.kernel_basis``)."""
    W = _vectors(V, basis, "subspace basis vector has wrong dimension")
    return modp.kernel_basis([modp.mat_vec(V.gram(), w, V.p) for w in W], V.p, V.dim)


WittDecomposition = tuple[
    tuple[tuple[Vector, Vector], ...], tuple[Vector, ...], tuple[Vector, ...]
]


def witt_decomposition(V: FpQuadSpace) -> WittDecomposition:
    """Split V into hyperbolic pairs, an anisotropic part, and the radical.

    Returns ``(pairs, anisotropic_basis, radical_basis)`` where each pair
    (u, v) satisfies Q(u) = Q(v) = 0, [u, v] = 1, all blocks are mutually
    orthogonal, the restriction of Q to the anisotropic basis has no
    nonzero isotropic vector, and ``radical_basis`` spans ker B.  The Witt
    index is ``len(pairs)``.  Computed once per instance of V.
    """
    return V._witt


def _witt_decomposition(V: FpQuadSpace) -> WittDecomposition:
    p, n = V.p, V.dim
    rad = list(modp.kernel_basis(V.gram(), p, n))
    # e_i lies in rad + span(e_j : j < i) iff some radical vector has its last
    # nonzero entry at i: a pivot of the radical's rref with coordinates reversed
    ends = {n - 1 - c for c in modp.rref([r[::-1] for r in rad], p)[1]}
    comp = [tuple(1 if k == i else 0 for k in range(n)) for i in range(n) if i not in ends]
    pairs: list[tuple[Vector, Vector]] = []
    work = comp
    while work:
        Vs = FpQuadSpace(p, _half_gram(V, work))
        u_s = find_isotropic_vector(Vs)
        if u_s is None:
            break
        bu = modp.mat_vec(Vs.gram(), u_s, p)
        j = next(i for i, x in enumerate(bu) if x)  # exists: B nondeg on work
        c_inv = modp.inv_mod(bu[j], p)
        w_s = tuple((c_inv if k == j else 0) for k in range(len(work)))
        qw = Vs.q(w_s)
        v_s = tuple((w_s[k] - qw * u_s[k]) % p for k in range(len(work)))
        pairs.append((_combine(work, u_s, p), _combine(work, v_s, p)))
        work = [_combine(work, c, p) for c in perp_basis(Vs, [u_s, v_s])]
    return tuple(pairs), tuple(work), tuple(rad)


def isotropic_generators(V: FpQuadSpace, max_points: int = MAX_PROJ_POINTS) -> list[Vector]:
    """The normalized generators of V's isotropic lines, in canonical order.

    The kernel's tuples as they are, with no ``ProjLine`` built around
    them; SizeGuardError if V has more than ``max_points`` projective
    points.
    """
    return kernels.isotropic_lines(V.p, V.dim, V.half_gram, max_points)


def enumerate_isotropic_lines(
    V: FpQuadSpace, max_points: int = MAX_PROJ_POINTS
) -> tuple[ProjLine, ...]:
    """All isotropic lines of V, sorted in canonical order."""
    return tuple([ProjLine(V, v, _trusted=True) for v in isotropic_generators(V, max_points)])


def isotropic_lines_in(
    V: FpQuadSpace, basis: Sequence[Sequence[int]], max_points: int = MAX_PROJ_POINTS
) -> tuple[ProjLine, ...]:
    """The isotropic lines of V inside span(basis), sorted in canonical order.

    Sweeps only the span, under the guard: the lines of Q restricted to
    the nonzero rows R of the rref of ``basis``, mapped by c ↦ Σ c_i·R_i.
    R_i is 1 at pivot i, 0 left of it and at the other pivots, so the
    image of a normalized c is normalized, and two images first differ at
    the pivot of the first i where their c differ, by c_i: the map keeps
    the canonical order.
    """
    p = V.p
    R = _span_basis(V, basis, "subspace basis vector has wrong dimension")
    if not R:
        return ()
    coeffs = isotropic_generators(FpQuadSpace(p, _half_gram(V, R)), max_points)
    return tuple([ProjLine(V, _combine(R, c, p), _trusted=True) for c in coeffs])


# ---------------------------------------------------------------------------
# reflections, transvections, Dickson invariant
# ---------------------------------------------------------------------------


def reflection(V: FpQuadSpace, v: Sequence[int]) -> FpIsometry:
    """The reflection (orthogonal transvection for p = 2) in v:
    ``x -> x - ([x, v]/Q(v)) v``.  Requires Q(v) != 0; at p = 2 also
    requires B(v, ·) nonzero, otherwise the formula degenerates to the
    identity.
    """
    p = V.p
    (v,) = _vectors(V, [v], "reflection vector has wrong dimension")
    qv = V.q(v)
    if qv == 0:
        raise PreconditionError("reflection vector must be anisotropic")
    if p == 2 and not any(modp.mat_vec(V.gram(), v, p)):
        raise PreconditionError("reflection vector pairs trivially with the space")
    return FpIsometry(V, _reflection_matrix(V, v))


def _reflection_matrix(V: FpQuadSpace, v: Vector) -> Matrix:
    """The matrix of ``x -> x - ([x, v]/Q(v)) v``, for Q(v) != 0."""
    p = V.p
    bv = modp.mat_vec(V.gram(), v, p)
    inv = modp.inv_mod(V.q(v), p)
    return tuple([
        tuple([((i == j) - c * b) % p for j, b in enumerate(bv)])
        for i, c in enumerate([inv * x for x in v])
    ])


def _eichler_matrix(V: FpQuadSpace, u: Vector, w: Vector) -> Matrix:
    """The matrix of E_{u,w}, for Q(u) = 0 and [u, w] = 0."""
    p = V.p
    B = V.gram()
    bu = modp.mat_vec(B, u, p)
    bw = modp.mat_vec(B, w, p)
    qw = V.q(w)
    # entry (i, j) is δ_ij + B(u, e_j)·(w_i − Q(w)·u_i) − B(w, e_j)·u_i
    return tuple([
        tuple([((i == j) + a * s - c * t) % p for j, (s, t) in enumerate(zip(bu, bw))])
        for i, (a, c) in enumerate(zip([wi - qw * ui for wi, ui in zip(w, u)], u))
    ])


def dickson_invariant(V: FpQuadSpace, matrix: Matrix) -> int:
    """The Dickson invariant of g, computed as rank(g - 1) mod 2.

    For a nondegenerate bilinear form this is the Dickson invariant in
    every characteristic; its kernel is the special orthogonal group (for
    odd p the invariant agrees with det parity).
    """
    p, n = V.p, V.dim
    m = _vectors(V, matrix, "isometry matrix has wrong shape")
    if len(m) != n:
        raise PreconditionError("isometry matrix has wrong shape")
    delta = [[(m[i][j] - (i == j)) % p for j in range(n)] for i in range(n)]
    return modp.rank(delta, p) % 2


# ---------------------------------------------------------------------------
# group orders
# ---------------------------------------------------------------------------


def _witt_type(V: FpQuadSpace, degenerate: str) -> tuple[int, int]:
    """(k, ε) of nondegenerate V off its Witt decomposition: ε = 0 for dim
    2k + 1, and for dim 2k ε = 1 if V is split, -1 if not."""
    pairs, aniso, rad = witt_decomposition(V)
    if rad:
        raise PreconditionError(degenerate)
    if len(aniso) > 2:
        raise InvariantViolationError("anisotropic kernel of dimension > 2 over F_p")
    return len(pairs) + (len(aniso) == 2), (1, 0, -1)[len(aniso)]


def so_order(V: FpQuadSpace) -> int:
    """|SO(V)(F_p)| for nondegenerate V, by the closed product formulas.

    For dim 2k+1: p^{k^2} * prod_{i=1..k} (p^{2i} - 1).  For dim 2k of
    type ε: p^{k(k-1)} (p^k - ε) prod_{i=1..k-1} (p^{2i} - 1).
    """
    p = V.p
    k, eps = _witt_type(V, "group order requires a nondegenerate bilinear form")
    if not eps or not k:  # dimension 0 takes the odd formula's empty product
        return p ** (k * k) * math.prod(p ** (2 * i) - 1 for i in range(1, k + 1))
    return p ** (k * (k - 1)) * (p**k - eps) * math.prod(p ** (2 * i) - 1 for i in range(1, k))


def closed_form_line_count(V: FpQuadSpace) -> int:
    """Number of isotropic lines of a nondegenerate space, in closed form.

    For dim 2k+1: (p^{2k} - 1)/(p - 1).  For dim 2k of type ε:
    (p^{k-1} + ε)(p^k - ε)/(p - 1).
    """
    p = V.p
    k, eps = _witt_type(V, "count formula requires a nondegenerate space")
    if not eps or not k:  # dimension 0 takes the odd formula's 0
        return (p ** (2 * k) - 1) // (p - 1)
    return (p ** (k - 1) + eps) * (p**k - eps) // (p - 1)


# ---------------------------------------------------------------------------
# Witt extension of isometries
# ---------------------------------------------------------------------------


def _anisotropic_in(V: FpQuadSpace, basis: Sequence[Vector]) -> Vector | None:
    """An anisotropic vector of span(basis), or None if the span is totally singular.

    Tries the basis vectors, then sums of pairs: if Q(a) = Q(b) = 0 then
    Q(a + b) = B(a, b), so if all are isotropic, Q vanishes on the span.
    """
    for a in basis:
        if V.q(a):
            return a
    for i, a in enumerate(basis):
        for b in basis[i + 1 :]:
            if V.b(a, b):
                return tuple((x + y) % V.p for x, y in zip(a, b))
    return None


def _witt_map(V: FpQuadSpace, X: Sequence[Vector], Y: Sequence[Vector]) -> tuple[Matrix, int]:
    """An isometry g of V with g(x_j) = y_j for every j, and its Dickson parity.

    V is nondegenerate, X and Y are independent with equal Gram data.  This
    is Witt's theorem proved constructively (Taylor, *The Geometry of the
    Classical Groups*, 1992), one vector at a time.  Once g maps x_i to y_i
    for i < j, let x = g(x_j), U = span(y_i : i < j) and z = x − y_j.  Then
    B(z, y_i) = B(x_j, x_i) − B(y_j, y_i) = 0, so z ⊥ U, and B(x, z) = Q(z)
    as Q(x) = Q(y_j).  One step h fixing U sends x to y_j; g becomes h·g:

    * Q(z) ≠ 0: the reflection in z, as x − (B(x, z)/Q(z)) z = y_j (at
      p = 2 B(z, ·) ≠ 0 since V is nondegenerate).  Parity 1.
    * Q(z) = 0 and x ∉ U + ⟨z⟩: since V is nondegenerate some w ⊥ U, z has
      B(x, w) = 1, and the Eichler transvection E_{z,w}, which fixes U,
      sends x to x − B(x, w) z = y_j because B(x, z) = 0.  Parity 0.
    * Otherwise x = u + c·z with u ∈ U.  Neither x nor y_j = u + (c − 1)z
      lies in U, so c ∉ {0, 1} and p is odd.  As z ∉ U, some z* ⊥ U has
      B(z, z*) = 1; z* − Q(z*) z is isotropic, so take z* isotropic, and
      then c = B(x, z*).  The step scales z by λ = (c − 1)/c and z* by
      1/λ and fixes ⟨z, z*⟩^⊥ ⊇ U; it sends x to u + cλ·z = y_j, has
      determinant 1 and rank(h − 1) = 2.  Parity 0.

    g starts as no matrix at all: the first step is g itself, and no
    identity is built or multiplied unless no step runs (X = Y, say), when
    the identity is returned.
    """
    p, n = V.p, V.dim
    B = V.gram()
    g, parity = None, 0
    u_rows: list[Vector] = []  # w ⊥ U iff every row pairs to 0 with w
    for xj, yj in zip(X, Y):
        x = xj if g is None else modp.mat_vec(g, xj, p)
        z = tuple([(a - b) % p for a, b in zip(x, yj)])
        if any(z):
            bz = modp.mat_vec(B, z, p)
            if V.q(z):
                step, parity = _reflection_matrix(V, z), parity ^ 1
            else:
                w = next((w for w in modp.kernel_basis(u_rows + [bz], p, n) if V.b(x, w)), None)
                if w is not None:
                    c = modp.inv_mod(V.b(x, w), p)
                    step = _eichler_matrix(V, z, tuple([c * t % p for t in w]))
                else:
                    w = next(w for w in modp.kernel_basis(u_rows, p, n) if V.b(z, w))
                    w = tuple([modp.inv_mod(V.b(z, w), p) * t % p for t in w])
                    qw = V.q(w)
                    zs = tuple([(a - qw * b) % p for a, b in zip(w, z)])
                    c = V.b(x, zs)
                    lam = (c - 1) * modp.inv_mod(c, p) % p
                    a, b = lam - 1, modp.inv_mod(lam, p) - 1
                    bzs = modp.mat_vec(B, zs, p)
                    step = tuple(tuple(((i == j) + a * z[i] * bzs[j] + b * zs[i] * bz[j]) % p
                                       for j in range(n)) for i in range(n))
            g = step if g is None else modp.mat_mul(step, g, p)
        u_rows.append(modp.mat_vec(B, yj, p))
    return (modp.identity(n) if g is None else g), parity


def _witt_record(V: FpQuadSpace, S: tuple[Vector, ...], key) -> list:
    """Record independent S of Gram type ``key`` as ``[key, m, parity, None, S]``.

    The first tuple of a type becomes its root, and the type's entry keeps
    ``(key, root, flip)`` with ``flip`` the reflection in an anisotropic
    vector of root^⊥ (``_anisotropic_in``), or None.  m is ``_witt_map`` of
    root → S times ``flip`` if that is odd: ``flip`` fixes the root, so the
    product is an even map root → S.  Every record of a type holds the
    entry's key object; the fourth slot is the columns of m⁻¹ once S has
    been a source, and the last is S itself, the canonical tuple that a
    caller's equal tuple stands for.
    """
    cache, p = V._witt_cache, V.p
    entry = cache["types"].get(key)
    if entry is None:
        a = _anisotropic_in(V, perp_basis(V, S))
        entry = cache["types"][key] = (key, S, None if a is None else _reflection_matrix(V, a))
    key, root, flip = entry
    m, parity = _witt_map(V, root, S)
    if parity and flip is not None:
        m, parity = modp.mat_mul(m, flip, p), 0
    record = cache["tuples"][S] = [key, m, parity, None, S]
    return record


def _record_of(records: dict, basis) -> list | None:
    """The record of the tuple ``basis`` equals as given, or None."""
    try:
        record = records.get(basis)
    except TypeError:  # unhashable, such as a list
        return None
    if record is not None and basis is not record[4]:  # True and 1.0 equal 1
        for row in basis:
            modp.check_int(*row)
    return record


def witt_extension(
    V: FpQuadSpace,
    w1_basis: Sequence[Sequence[int]],
    w2_basis: Sequence[Sequence[int]],
) -> FpIsometry:
    """Extend an isometry between subspaces to a special isometry of V.

    ``w1_basis`` and ``w2_basis`` are bases (lists of vectors) of two
    subspaces, and the isometry sends the j-th vector of the first to the
    j-th vector of the second.  Requires: nondegenerate V, independent
    bases, and the Gram data of the two tuples must match.

    The space keeps one record per tuple S met here (``_witt_record``): its
    Gram type and one map root → S of that type, even unless no map is.
    The record is made once S has passed its rank check and the Gram data
    of the call match, so a later call with S skips both computations, and
    a dependent tuple is never recorded.  Each basis is first looked up as
    given among the recorded tuples, before any normalization: a hit means
    it equals a recorded canonical tuple entry by entry, and the call goes
    on with that recorded tuple once the entries pass ``modp.check_int``.
    A basis that misses, or cannot be hashed (a list, say), is reduced mod
    p and checked as ever, X before Y is looked up; one that equals its
    reduction (a tuple of int tuples in [0, p)) is kept as given, so the
    tuple recorded is the caller's own and passing it again is a hit by
    identity, with no entry check.  The witness is m_Y · m_X⁻¹, formed
    from the columns of m_X⁻¹ that X's record keeps once X has been a
    source; each witness matrix is validated once per space and kept in a
    table, and every call checks that it is special and sends x_j to y_j.

    Returns g in SO(V) with g(x_j) = y_j for every basis vector; raises
    InvariantViolationError if no special isometry exists, which is when
    m_X and m_Y differ in parity.  Proof (every p): one of them is odd, so
    the type has no ``flip``: root^⊥ is totally singular, and so is its
    image X^⊥, hence X^⊥ ⊂ X.  Let h fix X pointwise and φ = h − 1.  Then
    B(φv, x) = B(hv, hx) − B(v, x) = 0, so φ maps V into X^⊥ ⊂ X, and
    Q(φv) = 0 gives B(v, φv) = Q(hv) − Q(v) − Q(φv) = 0: (v, w) ↦ B(v, φw)
    is alternating, of rank rank(φ) since B is nondegenerate.  So rank(h −
    1) is even and every such h is special.  A special g mapping X to Y
    would make m_Y⁻¹ · g · m_X such an h for the root, of parity 1.
    Cross-ruling Lagrangians of a split space are one case of this.
    """
    p, n = V.p, V.dim
    if not V.is_nondegenerate():
        raise PreconditionError("Witt extension requires a nondegenerate space")
    records = V._witt_cache["tuples"]
    wrong = "subspace basis vector has wrong dimension"
    rx = _record_of(records, w1_basis)
    X = _vectors(V, w1_basis, wrong) if rx is None else rx[4]
    if rx is None and X == w1_basis:
        X = w1_basis
    ry = _record_of(records, w2_basis)
    Y = _vectors(V, w2_basis, wrong) if ry is None else ry[4]
    if ry is None and Y == w2_basis:
        Y = w2_basis
    k = len(X)
    if len(Y) != k:
        raise PreconditionError("subspace bases have different sizes")
    same = Y == X
    if rx is None:
        rx = records.get(X)
    if ry is None:
        ry = rx if same else records.get(Y)
    if rx is None and k and modp.rank(X, p) != k:
        raise PreconditionError("first subspace basis is dependent")
    if ry is None and not same and k and modp.rank(Y, p) != k:
        raise PreconditionError("second subspace basis is dependent")
    kx = _half_gram(V, X) if rx is None else rx[0]
    ky = kx if same else (_half_gram(V, Y) if ry is None else ry[0])
    if kx != ky:  # a difference in the Q-values comes first
        kind = "quadratic" if any(kx[i][i] != ky[i][i] for i in range(k)) else "bilinear"
        raise PreconditionError(f"map does not preserve the {kind} form")
    if k == 0:
        return FpIsometry(V, modp.identity(n))
    if rx is None:
        rx = _witt_record(V, X, kx)
    if ry is None:
        ry = rx if same else _witt_record(V, Y, ky)
    if rx[2] != ry[2]:
        raise InvariantViolationError("isometric tuples lie in different special-orthogonal orbits")
    cols = rx[3]
    if cols is None:
        cols = rx[3] = tuple(zip(*modp.inverse(rx[1], p)))
    m = tuple([tuple([sum(map(mul, row, col)) % p for col in cols]) for row in ry[1]])
    witnesses = V._witt_cache["witnesses"]
    iso = witnesses.get(m)
    if iso is None:
        iso = FpIsometry(V, m)
        witnesses[iso.matrix] = iso
    if not iso.is_special():
        raise InvariantViolationError("witness is not special")
    for xj, yj in zip(X, Y):
        if iso.apply(xj) != yj:
            raise InvariantViolationError("witness does not extend the given map")
    return iso


# ---------------------------------------------------------------------------
# reflection factorization and spinor norm (odd p)
# ---------------------------------------------------------------------------


def reflection_factorization(V: FpQuadSpace, g: FpIsometry | Matrix) -> list[Vector]:
    """Vectors v_1, ..., v_k with g = τ_{v_1} ∘ ... ∘ τ_{v_k} (odd p).

    Constructive Cartan–Dieudonné along ``_orthogonal_basis``, at most
    2·dim reflections.  h starts as g and is left-multiplied by reflections.
    Once h fixes the basis vectors before w, and hw != w, let d = hw - w.
    Since Q(hw) = Q(w), B(hw, d) = Q(d).  If Q(d) != 0,
    τ_d sends hw to hw - d = w.  Otherwise s = hw + w has Q(s) = 4Q(w) -
    Q(d) != 0 and B(hw, s) = Q(s), so τ_w ∘ τ_s sends hw to -w and then to
    w.  For an earlier basis vector w', B(hw, w') = B(hw, hw') = B(w, w')
    = 0, so d, s and w are orthogonal to w' and the steps fix it.  At the
    end h must be the identity.
    """
    p = V.p
    if p == 2:
        raise PreconditionError("reflection factorization implemented for odd p only")
    if not V.is_nondegenerate():
        raise PreconditionError("factorization requires a nondegenerate space")
    h = FpIsometry(V, g.matrix if isinstance(g, FpIsometry) else g).matrix
    out: list[Vector] = []
    for w, _ in _orthogonal_basis(V):
        hw = modp.mat_vec(h, w, p)
        if hw == w:
            continue
        d = tuple((a - b) % p for a, b in zip(hw, w))
        # τ_s applied first, then τ_w
        steps = [d] if V.q(d) else [tuple((a + b) % p for a, b in zip(hw, w)), w]
        for v in steps:
            out.append(v)
            h = modp.mat_mul(_reflection_matrix(V, v), h, p)
    if h != modp.identity(V.dim):
        raise InvariantViolationError("reflections along an orthogonal basis left g unfactored")
    return out


def spinor_norm(V: FpQuadSpace, g: FpIsometry | Matrix) -> int:
    """Spinor norm of g in F_p^× / squares, as +1 (trivial) or -1 (odd p).

    Computed from a reflection factorization: the class of the product of
    Q-values of the reflection vectors.  The identity has norm +1.
    """
    vectors = reflection_factorization(V, g)
    m = g.matrix if isinstance(g, FpIsometry) else g
    total = 1
    for v in vectors:
        total = (total * V.q(v)) % V.p
    # parity consistency: det = (-1)^(number of reflections)
    det = modp.det(m, V.p)
    expected = (V.p - 1) if len(vectors) % 2 else 1
    if det != expected:
        raise InvariantViolationError("reflection count parity disagrees with det")
    return modp.legendre(total, V.p)


# ---------------------------------------------------------------------------
# stabilizer orbits of isotropic lines
# ---------------------------------------------------------------------------


def stabilizer_orbit(
    V: FpQuadSpace,
    w_basis: Sequence[Sequence[int]],
    seed: ProjLine,
    universe: Iterable[ProjLine],
) -> tuple[ProjLine, ...]:
    """The lines of ``universe`` in the orbit of ``seed`` under SO_W, sorted canonically.

    SO_W is the group of special isometries of V that fix span(W)
    pointwise.  Let v₀ generate the seed.  By Witt's theorem (V
    nondegenerate) an isometry of V fixing W sends v₀ to λv exactly when
    w ↦ w, v₀ ↦ λv is an isometry of W + ⟨v₀⟩ onto W + ⟨λv⟩: v is isotropic
    and outside W̄ (if v₀ lies in W̄, SO_W fixes it and only its own line
    qualifies), and λv pairs with the rref basis of W as v₀ does.  Such an
    isometry can be chosen special exactly when the Witt records of the two
    tuples (``_witt_record``) have the same parity.  λ is free only when
    v₀ ⊥ W, and then its choice does not matter: scaling v by λ and an
    isotropic partner of v in W^⊥ by 1/λ is special and fixes W.  Each
    member is certified by ``witt_extension`` of W + [v₀] onto W + [λv].
    """
    p = V.p
    if not V.is_nondegenerate():
        raise PreconditionError("stabilizer orbits require a nondegenerate space")
    if seed.space != V:
        raise PreconditionError("seed line belongs to a different space")
    if not seed.is_isotropic():
        raise PreconditionError("seed line must be isotropic")
    lines = set(universe)
    if any(line.space != V for line in lines):
        raise PreconditionError("universe line belongs to a different space")
    W = _span_basis(V, w_basis, "W vector has wrong dimension")
    v0, k = seed.generator, len(W)
    if modp.rank(W + [v0], p) == k:
        return (seed,) if seed in lines else ()
    pairings = [modp.mat_vec(V.gram(), w, p) for w in W]
    target = [sum(map(mul, r, v0)) % p for r in pairings]
    i = next((i for i, t in enumerate(target) if t), None)
    records = V._witt_cache["tuples"]
    X = tuple(W + [v0])
    parity = (records.get(X) or _witt_record(V, X, _half_gram(V, X)))[2]
    orbit = []
    for line in lines:
        v = line.generator
        if V.q(v) or modp.rank(W + [v], p) == k:
            continue
        pair = [sum(map(mul, r, v)) % p for r in pairings]
        lam = 1 if i is None or not pair[i] else target[i] * modp.inv_mod(pair[i], p) % p
        if [lam * x % p for x in pair] != target:
            continue
        Y = tuple(W + [tuple([lam * x % p for x in v])])
        if (records.get(Y) or _witt_record(V, Y, _half_gram(V, Y)))[2] != parity:
            continue
        witt_extension(V, X, Y)
        orbit.append(line)
    return tuple(sorted(orbit, key=line_sort_key))
