"""Exact integer linear algebra.

Everything here runs over arbitrary-precision integers, with no rational
arithmetic, so results are exact: the Hermite normal form with its
unimodular transform, the Smith normal form, integer kernels, quotient
structure of Z^n by a generating set, saturation, the index of a
sublattice and the index-p lattice {x : r·x ≡ 0 mod p} in closed form.
Every normal form comes from the one Hermite eliminator, which reduces
rows on their leading coordinates and carries any further coordinates
along: the transform rides in rows stacked with the identity, and kernels
are read off it; ranks, memberships and indices come off the pivots of
Hermite bases, and projections and meets off ``split_hnf``; the Smith
form comes from alternating Hermite forms of a matrix and its transpose;
and ``IntMatrix.det`` is the sign of the eliminator's row operations times
the diagonal it leaves.  The Smith form serves only ``quotient_structure``.

Conventions
-----------
* Matrices are immutable, row-major :class:`IntMatrix` values.
* Lattices and subgroups of Z^n are presented by the *columns* of a matrix.
* The Hermite normal form used throughout is column-style: ``M @ T == H``
  with ``T`` unimodular, pivots positive, entries to the left of a pivot
  reduced into ``[0, pivot)``, zero columns trailing.  Two column spans are
  equal iff their ``hnf_basis`` matrices are equal, which is the canonical
  equality test used by the rest of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from .errors import PreconditionError
from .modp import check_int, int_tuples

__all__ = [
    "IntMatrix",
    "AbelianQuotient",
    "smith_normal_form",
    "hermite_normal_form",
    "hnf_basis",
    "is_square_hnf",
    "kernel_mod_p",
    "lattices_equal",
    "integer_kernel",
    "quotient_structure",
    "saturate",
    "split_hnf",
    "sublattice_in_span",
    "sublattice_index",
]


@dataclass(frozen=True, init=False)
class IntMatrix:
    """Immutable integer matrix (row-major tuple of row tuples).

    ``IntMatrix(entries)`` and the factories ``from_rows`` and
    ``from_columns`` are the public constructors; all three reject ragged
    input and entries that are not ``int`` (``bool`` included) with
    PreconditionError (``modp.int_tuples``), and convert nothing, and
    ``from_rows`` returns an ``IntMatrix`` as it is.  The arithmetic below
    builds matrices whose entries are already ints and passes ``_trusted=True``
    to skip the per-entry check.  A matrix with no rows keeps its column
    count ``cols`` (default 0), which its entries cannot record.
    """

    entries: tuple[tuple[int, ...], ...]
    cols: int

    def __init__(
        self, entries: Iterable[Iterable[int]], _trusted: bool = False, cols: int = 0
    ) -> None:
        if not _trusted:
            entries = int_tuples(entries, "ragged rows in matrix")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "cols", len(entries[0]) if entries else cols)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rows(rows: "IntMatrix | Iterable[Iterable[int]]") -> "IntMatrix":
        return rows if isinstance(rows, IntMatrix) else IntMatrix(rows)

    @staticmethod
    def from_columns(cols: Iterable[Iterable[int]], rows: int | None = None) -> "IntMatrix":
        cols = int_tuples(cols, "ragged columns")
        if not cols and rows is None:
            raise PreconditionError("row count required for a matrix with no columns")
        return _from_columns(cols, rows)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), _trusted=True
        )

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(((0,) * cols,) * rows, _trusted=True, cols=cols)

    # -- shape and access ---------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.entries)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        if not self.entries:
            return [()] * self.cols
        return list(zip(*self.entries))

    def take_columns(self, indices: Sequence[int]) -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(r[j] for j in indices) for r in self.entries), _trusted=True, cols=len(indices)
        )

    # -- arithmetic ----------------------------------------------------

    def transpose(self) -> "IntMatrix":
        if not self.entries:
            return IntMatrix.zero(self.cols, 0)
        return IntMatrix(tuple(zip(*self.entries)), _trusted=True, cols=self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise PreconditionError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = _columns(other)
        return IntMatrix(
            tuple([tuple([sum(map(mul, row, col)) for col in ot]) for row in self.entries]),
            _trusted=True,
            cols=other.cols,
        )

    def mul_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if self.cols != len(v):
            raise PreconditionError("vector length mismatch")
        return tuple(sum(map(mul, row, v)) for row in self.entries)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(c * x for x in r) for r in self.entries), _trusted=True, cols=self.cols)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise PreconditionError("row count mismatch in hstack")
        return IntMatrix(
            tuple(a + b for a, b in zip(self.entries, other.entries)),
            _trusted=True,
            cols=self.cols + other.cols,
        )

    def is_upper_triangular(self) -> bool:
        return all(self.entries[i][j] == 0 for i in range(self.rows) for j in range(min(i, self.cols)))

    def det(self) -> int:
        """Determinant: the sign of ``_row_hnf``'s row operations times the
        diagonal of the echelon rows it leaves (zero below full rank)."""
        n = self.rows
        if n != self.cols:
            raise PreconditionError("determinant of a non-square matrix")
        A = [list(r) for r in self.entries]
        return _row_hnf(A, n) * math.prod(A[i][i] for i in range(n))

    def rank(self) -> int:
        return hnf_basis(self).cols

    @cached_property
    def _annihilator(self) -> "IntMatrix":
        """Basis of the integral covectors vanishing on the column span.

        Formed on first use and kept, the way ``PLattice`` keeps its form:
        the matrix is frozen, so the kept basis stays that of its entries,
        and equality, hashing and ``repr`` do not see it.  ``saturate`` and
        ``sublattice_in_span`` read it, so a sublattice basis that both
        meet many times is eliminated once.
        """
        return integer_kernel(self.transpose())


@dataclass(frozen=True)
class AbelianQuotient:
    """Isomorphism type of a finitely generated abelian group.

    ``free_rank`` copies of Z plus cyclic factors Z/d for each d in
    ``torsion`` (each d > 1, ascending divisibility chain d1 | d2 | ...).
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        check_int(self.free_rank)
        if self.free_rank < 0:
            raise PreconditionError("negative free rank")
        object.__setattr__(self, "torsion", check_int(*self.torsion))
        for d in self.torsion:
            if d <= 1:
                raise PreconditionError("torsion entries must exceed 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise PreconditionError("torsion must form a divisibility chain")

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        if not self.is_finite:
            raise PreconditionError("infinite group has no order")
        return math.prod(self.torsion) if self.torsion else 1


# ---------------------------------------------------------------------------
# construction and arithmetic helpers
# ---------------------------------------------------------------------------


def _from_columns(cols: Sequence[Sequence[int]], rows: int) -> IntMatrix:
    """The matrix with these int columns, unchecked; ``rows`` sets its shape when there are none."""
    if not cols:
        return IntMatrix.zero(rows, 0)
    return IntMatrix(tuple(zip(*cols)), _trusted=True, cols=len(cols))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b == g == gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _columns(M: IntMatrix) -> list[tuple[int, ...]]:
    """The columns of M, also when M has no rows."""
    return list(zip(*M.entries)) if M.entries else [()] * M.cols


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------


def _row_hnf(A: list[list[int]], m: int) -> int:
    """Row-style Hermite normal form of A in place, eliminating on the first m coordinates.

    Each row operation applies to the whole row, so any coordinates past m
    ride along: rows (a_i, e_i) end as (h_i, t_i) with h_i = Σ_j t_ij·a_j.
    Rows are updated in place where one row gains a multiple of another:
    on short rows the indexed loop beats building a new row.

    Returns the determinant ±1 of the row operations: an exchange of two
    rows or a negated pivot row gives −1, a row addition or gcd step 1.
    """
    n = len(A)
    sign = 1
    pivot_row = 0
    for col in range(m):
        if pivot_row == n:
            break
        nz = [i for i in range(pivot_row, n) if A[i][col] != 0]
        if not nz:
            continue
        if nz[0] != pivot_row:
            A[pivot_row], A[nz[0]] = A[nz[0]], A[pivot_row]
            sign = -sign
        for i in range(pivot_row + 1, n):
            while A[i][col] != 0:
                P, R = A[pivot_row], A[i]
                d, x = P[col], R[col]
                if x % d == 0:
                    c = x // d
                    for k in range(len(R)):
                        R[k] -= c * P[k]
                else:
                    # (P, R) <- (s·P + u·R, a·P + b·R), of determinant s·b − u·a = 1
                    g, s, u = _xgcd(d, x)
                    a, b = -(x // g), d // g
                    A[pivot_row] = [s * y + u * z for y, z in zip(P, R)]
                    A[i] = [a * y + b * z for y, z in zip(P, R)]
        P = A[pivot_row]
        if P[col] < 0:
            A[pivot_row] = P = [-x for x in P]
            sign = -sign
        d = P[col]
        for i in range(pivot_row):
            q = A[i][col] // d  # floor division reduces into [0, d)
            if q:
                R = A[i]
                for k in range(len(R)):
                    R[k] -= q * P[k]
        pivot_row += 1
    return sign


def hermite_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form: returns (H, T) with M @ T == H.

    T is unimodular.  H is the canonical column form: each nonzero column
    has a positive pivot, entries to the left of a pivot in its row lie in
    ``[0, pivot)``, and zero columns come last.  M is stacked over the
    identity and eliminated on M's rows only, so H is the top block of the
    result and T the bottom one.
    """
    m, zero = M.rows, [0] * M.cols
    # row j of A is column j of the stack: M's column j over e_j
    A = [list(c) + zero[:j] + [1] + zero[j + 1:] for j, c in enumerate(_columns(M))]
    _row_hnf(A, m)
    return _from_columns([c[:m] for c in A], m), _from_columns([c[m:] for c in A], M.cols)


def hnf_basis(M: IntMatrix) -> IntMatrix:
    """Canonical basis of the column span of M (nonzero HNF columns).

    Equal column spans produce equal results, so this is the lattice
    equality normal form.  Same form as :func:`hermite_normal_form`, without
    building the transform.
    """
    A = [list(c) for c in _columns(M)]
    _row_hnf(A, M.rows)
    return _from_columns([c for c in A if any(c)], M.rows)


def smith_normal_form(M: IntMatrix) -> IntMatrix:
    """Smith normal form D of M: M's shape, diagonal d1 | d2 | ..., zeros trailing.

    Alternates Hermite forms of the matrix and of its transpose, each with
    its zero rows dropped, until only the diagonal is left (Kannan and
    Bachem, 1979); the row operations of both sides keep the elementary
    divisors.  Replacing each pair (d_i, d_j), i < j, by (gcd, lcm) then
    makes the diagonal a divisibility chain.
    """
    A = [list(r) for r in M.entries]
    while True:
        _row_hnf(A, len(A[0]) if A else 0)
        A = [r for r in A if any(r)]
        # row i of the echelon form is zero left of column i
        if not any(any(r[i + 1:]) for i, r in enumerate(A)):
            break
        A = [list(c) for c in zip(*A)]
    d = [r[i] for i, r in enumerate(A)]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = math.gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    D = [[0] * M.cols for _ in range(M.rows)]
    for i, x in enumerate(d):
        D[i][i] = x
    return IntMatrix(tuple(map(tuple, D)), _trusted=True, cols=M.cols)


def is_square_hnf(M: IntMatrix) -> bool:
    """True iff M is square and already the canonical basis ``hnf_basis(M)``.

    That is: lower triangular, positive pivots on the diagonal, and every
    entry left of a pivot in ``[0, pivot)``.  Such a matrix has full rank
    and its determinant is the product of its pivots.
    """
    n = M.rows
    if M.cols != n:
        return False
    for i, row in enumerate(M.entries):
        d, left = row[i], row[:i]
        if d <= 0 or any(row[i + 1:]) or (left and (min(left) < 0 or max(left) >= d)):
            return False
    return True


def kernel_mod_p(row: Sequence[int], p: int) -> IntMatrix:
    """Column Hermite basis of {x ∈ Z^n : row·x ≡ 0 mod p}, p prime.

    Closed form: with k the last index where ``row`` has a unit entry,
    column j < k is e_j + ((-r_j / r_k) mod p)·e_k, column k is p·e_k, and
    every other column is e_j.  This is already the canonical
    ``hnf_basis`` of the lattice, of index p in Z^n; the identity when
    ``row`` vanishes mod p.
    """
    n = len(row)
    k = next((i for i in reversed(range(n)) if row[i] % p), None)
    zero = (0,) * n
    rows = [zero[:i] + (1,) + zero[i + 1:] for i in range(n)]
    if k is not None:
        inv = pow(row[k], -1, p)
        rows[k] = tuple([(-x * inv) % p for x in row[:k]]) + (p,) + zero[k + 1:]
    return IntMatrix(tuple(rows), _trusted=True)


def lattices_equal(A: IntMatrix, B: IntMatrix) -> bool:
    """True iff the columns of A and B span the same subgroup of Z^n."""
    if A.rows != B.rows:
        return False
    return hnf_basis(A) == hnf_basis(B)


def integer_kernel(M: IntMatrix) -> IntMatrix:
    """Basis of {x in Z^m : M @ x == 0} (a saturated subgroup of Z^m).

    With M @ T == H in Hermite form and r the rank, M·(T·y) = H·y vanishes
    exactly when the first r entries of y do, so the trailing m - r columns
    of the unimodular T are a basis.
    """
    H, T = hermite_normal_form(M)
    r = sum(1 for col in _columns(H) if any(col))
    return T.take_columns(range(r, M.cols))


def _pivot_product(H: IntMatrix) -> int:
    """Product of the pivots of a Hermite basis; each column is zero above its pivot."""
    return math.prod(next(x for x in c if x) for c in _columns(H))


def sublattice_index(L: IntMatrix, T: IntMatrix) -> int | None:
    """The index [L : T] of the column span of T in that of L.

    Returns None when T ⊄ L, and 0 when T has smaller rank, so that the
    index is infinite.  T ⊂ L exactly when adjoining T's columns leaves
    ``hnf_basis(L)`` unchanged.  Then two Hermite bases of one rational
    span pivot in the same rows, and on those rows they are triangular, so
    the index is the ratio of their pivot products.
    """
    H = hnf_basis(L)
    if hnf_basis(L.hstack(T)) != H:
        return None
    HT = hnf_basis(T)
    return 0 if HT.cols < H.cols else _pivot_product(HT) // _pivot_product(H)


def split_hnf(H: IntMatrix, k: int) -> tuple[IntMatrix, IntMatrix]:
    """Split a canonical column Hermite basis H at row k.

    Returns ``(head, tail)``: the first k rows of the columns pivoting
    there, a canonical basis of the span's projection onto the first k
    coordinates, and the other rows of the rest, one of the span's meet
    with the last ``H.rows - k`` coordinates.  H is echelon, so the rest
    vanish on the first k coordinates; and in a combination the first
    column used puts c·pivot in its pivot row, where later columns vanish,
    so a combination vanishing there uses the rest alone.  Each half keeps
    H's positive pivots and reduced entries left of them, so each is its
    own ``hnf_basis``.
    """
    cols = _columns(H)
    t = sum(1 for c in cols if any(c[:k]))
    head = _from_columns([c[:k] for c in cols[:t]], k)
    return head, _from_columns([c[k:] for c in cols[t:]], H.rows - k)


# ---------------------------------------------------------------------------
# quotients and saturation
# ---------------------------------------------------------------------------


def quotient_structure(ambient_rank: int, gens: IntMatrix) -> AbelianQuotient:
    """Isomorphism type of Z^ambient_rank / (column span of gens)."""
    if gens.rows != ambient_rank:
        raise PreconditionError(
            f"generators live in Z^{gens.rows}, expected Z^{ambient_rank}"
        )
    D = smith_normal_form(gens)
    divisors = [D.entries[i][i] for i in range(min(D.rows, D.cols)) if D.entries[i][i] != 0]
    free = ambient_rank - len(divisors)
    torsion = tuple(d for d in divisors if d > 1)
    return AbelianQuotient(free, torsion)


def saturate(ambient_rank: int, gens: IntMatrix) -> tuple[IntMatrix, bool]:
    """Saturation of the column span inside Z^ambient_rank.

    Returns ``(basis, is_direct_summand)`` where ``basis`` is the canonical
    (HNF) basis of ``(span ⊗ Q) ∩ Z^n``, the integer kernel of the span's
    integral annihilator (which ``gens`` forms once and keeps), and
    ``is_direct_summand`` is True iff the span already equals its
    saturation (``hnf_basis(gens) == basis``).
    """
    if gens.rows != ambient_rank:
        raise PreconditionError("ambient rank mismatch")
    if gens.cols == 0:
        return IntMatrix.zero(ambient_rank, 0), True
    ann = gens._annihilator  # covectors vanishing on the span
    basis = hnf_basis(integer_kernel(ann.transpose()))
    return basis, hnf_basis(gens) == basis


def sublattice_in_span(basis: IntMatrix, span_gens: IntMatrix) -> IntMatrix:
    """Canonical basis of {x in span_Z(basis) : x in span_Q(span_gens)}.

    ``basis`` must have full column rank.  The rational span of
    ``span_gens`` is cut out by its integral annihilator A, which
    ``span_gens`` forms once and keeps (``saturate`` reads it too), so the
    result is exact: the span of the columns (Aᵀ·b, b), b in ``basis``,
    meets the last n coordinates in the answer, read off its Hermite basis
    by :func:`split_hnf`.  That Hermite basis has as many columns as
    ``basis`` has rank, which checks the precondition.
    """
    if basis.rows != span_gens.rows:
        raise PreconditionError("ambient dimension mismatch")
    ann = span_gens._annihilator  # covectors vanishing on the span
    top = ann.transpose() @ basis
    H = hnf_basis(IntMatrix(top.entries + basis.entries, _trusted=True, cols=basis.cols))
    if H.cols != basis.cols:
        raise PreconditionError("basis matrix does not have full column rank")
    return split_hnf(H, ann.cols)[1]
