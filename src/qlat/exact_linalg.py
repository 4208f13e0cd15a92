"""Exact integer linear algebra.

Everything here runs over arbitrary-precision integers, with no rational
arithmetic, so results are exact: the Hermite normal form with its
unimodular transform, the Smith normal form, integer kernels, quotient
structure of Z^n by a generating set, saturation and the index-p lattice
{x : r·x ≡ 0 mod p} in closed form.  Every normal form comes from the one
Hermite eliminator: solves, ranks and kernels from it and its transform,
the Smith form from alternating Hermite forms of a matrix and its
transpose.  The Smith form serves only ``quotient_structure``.

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
from operator import mul
from typing import Iterable, Sequence

from .errors import PreconditionError

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
    "integral_coefficients",
    "quotient_structure",
    "saturate",
    "sublattice_in_span",
]


@dataclass(frozen=True, init=False)
class IntMatrix:
    """Immutable integer matrix (row-major tuple of row tuples).

    ``IntMatrix(entries)`` is the public constructor and rejects ragged
    rows and entries that are not ``int`` (``bool`` included).  The
    factories and the arithmetic below build matrices whose entries are
    already ints and pass ``_trusted=True`` to skip the per-entry check.
    A matrix with no rows keeps its column count ``cols`` (default 0),
    which its entries cannot record.
    """

    entries: tuple[tuple[int, ...], ...]
    cols: int

    def __init__(
        self, entries: Iterable[Iterable[int]], _trusted: bool = False, cols: int = 0
    ) -> None:
        if not _trusted:
            entries = tuple(tuple(r) for r in entries)
            if len({len(r) for r in entries}) > 1:
                raise PreconditionError("ragged rows in matrix")
            for row in entries:
                for x in row:
                    if not isinstance(x, int) or isinstance(x, bool):
                        raise PreconditionError(f"non-integer entry {x!r}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "cols", len(entries[0]) if entries else cols)

    # -- construction -------------------------------------------------

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMatrix":
        entries = tuple(tuple(map(int, r)) for r in rows)
        if len({len(r) for r in entries}) > 1:
            raise PreconditionError("ragged rows in matrix")
        return IntMatrix(entries, _trusted=True)

    @staticmethod
    def from_columns(cols: Iterable[Iterable[int]], rows: int | None = None) -> "IntMatrix":
        cols = [tuple(map(int, c)) for c in cols]
        if not cols:
            if rows is None:
                raise PreconditionError("row count required for a matrix with no columns")
            return IntMatrix.zero(rows, 0)
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise PreconditionError("ragged columns")
        return IntMatrix(tuple(zip(*cols)), _trusted=True, cols=len(cols))

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

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

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
        """Determinant by fraction-free Bareiss elimination."""
        n = self.rows
        if n != self.cols:
            raise PreconditionError("determinant of a non-square matrix")
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def rank(self) -> int:
        return hnf_basis(self).cols


@dataclass(frozen=True)
class AbelianQuotient:
    """Isomorphism type of a finitely generated abelian group.

    ``free_rank`` copies of Z plus cyclic factors Z/d for each d in
    ``torsion`` (each d > 1, ascending divisibility chain d1 | d2 | ...).
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise PreconditionError("negative free rank")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for d in self.torsion:
            if d <= 1:
                raise PreconditionError("torsion entries must exceed 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise PreconditionError("torsion must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        if not self.is_finite:
            raise PreconditionError("infinite group has no order")
        return math.prod(self.torsion) if self.torsion else 1


# ---------------------------------------------------------------------------
# elementary row operations with transform tracking
# ---------------------------------------------------------------------------


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


def _swap_rows(A: list[list[int]], U: list[list[int]], i: int, j: int) -> None:
    A[i], A[j] = A[j], A[i]
    U[i], U[j] = U[j], U[i]


def _add_row(A: list[list[int]], U: list[list[int]], i: int, j: int, c: int) -> None:
    # row_i += c * row_j, in place: on short rows the indexed loop beats
    # building a new row; the transform rows are empty when none is tracked
    Ai, Aj = A[i], A[j]
    for k in range(len(Ai)):
        Ai[k] += c * Aj[k]
    Ui = U[i]
    if Ui:
        Uj = U[j]
        for k in range(len(Ui)):
            Ui[k] += c * Uj[k]


def _negate_row(A: list[list[int]], U: list[list[int]], i: int) -> None:
    A[i] = [-x for x in A[i]]
    U[i] = [-x for x in U[i]]


def _two_row_transform(
    A: list[list[int]], U: list[list[int]], i: int, j: int, a: int, b: int, c: int, d: int
) -> None:
    # (row_i, row_j) <- (a*row_i + b*row_j, c*row_i + d*row_j); ad - bc = +-1
    for M in (A, U):
        ri, rj = M[i], M[j]
        M[i] = [a * x + b * y for x, y in zip(ri, rj)]
        M[j] = [c * x + d * y for x, y in zip(ri, rj)]


def _columns(M: IntMatrix) -> list[tuple[int, ...]]:
    """The columns of M, also when M has no rows."""
    return list(zip(*M.entries)) if M.entries else [()] * M.cols


def _ident_list(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------


def _row_hnf(A: list[list[int]], U: list[list[int]]) -> None:
    """Row-style Hermite normal form of A in place, applying each row operation to U.

    Passing rows of width 0 for U skips the transform at almost no cost.
    """
    n = len(A)
    m = len(A[0]) if A else 0
    pivot_row = 0
    for col in range(m):
        if pivot_row == n:
            break
        nz = [i for i in range(pivot_row, n) if A[i][col] != 0]
        if not nz:
            continue
        _swap_rows(A, U, pivot_row, nz[0])
        for i in range(pivot_row + 1, n):
            while A[i][col] != 0:
                d, x = A[pivot_row][col], A[i][col]
                if x % d == 0:
                    _add_row(A, U, i, pivot_row, -(x // d))
                else:
                    g, s, u = _xgcd(d, x)
                    _two_row_transform(A, U, pivot_row, i, s, u, -(x // g), d // g)
        if A[pivot_row][col] < 0:
            _negate_row(A, U, pivot_row)
        d = A[pivot_row][col]
        for i in range(pivot_row):
            q = A[i][col] // d  # floor division reduces into [0, d)
            if q:
                _add_row(A, U, i, pivot_row, -q)
        pivot_row += 1


def hermite_normal_form(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form: returns (H, T) with M @ T == H.

    T is unimodular.  H is the canonical column form: each nonzero column
    has a positive pivot, entries to the left of a pivot in its row lie in
    ``[0, pivot)``, and zero columns come last.
    """
    if M.cols == 0:
        return M, IntMatrix.identity(0)
    A = [list(c) for c in _columns(M)]
    U = _ident_list(M.cols)
    _row_hnf(A, U)
    # the rows of A are the columns of H
    return IntMatrix.from_columns(A, rows=M.rows), IntMatrix.from_columns(U)


def hnf_basis(M: IntMatrix) -> IntMatrix:
    """Canonical basis of the column span of M (nonzero HNF columns).

    Equal column spans produce equal results, so this is the lattice
    equality normal form.  Same form as :func:`hermite_normal_form`, without
    building the transform.
    """
    if M.cols == 0:
        return M
    A = [list(c) for c in _columns(M)]
    _row_hnf(A, [[] for _ in A])
    return IntMatrix.from_columns([c for c in A if any(c)], rows=M.rows)


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
        _row_hnf(A, [[] for _ in A])
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


def integral_coefficients(basis: IntMatrix, targets: IntMatrix) -> IntMatrix:
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
        y: list[int] = []
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


# ---------------------------------------------------------------------------
# quotients and saturation
# ---------------------------------------------------------------------------


def quotient_structure(ambient_rank: int, gens: IntMatrix) -> AbelianQuotient:
    """Isomorphism type of Z^ambient_rank / (column span of gens)."""
    if gens.rows != ambient_rank:
        raise PreconditionError(
            f"generators live in Z^{gens.rows}, expected Z^{ambient_rank}"
        )
    if gens.cols == 0:
        return AbelianQuotient(ambient_rank, ())
    D = smith_normal_form(gens)
    divisors = [D.entries[i][i] for i in range(min(D.rows, D.cols)) if D.entries[i][i] != 0]
    free = ambient_rank - len(divisors)
    torsion = tuple(d for d in divisors if d > 1)
    return AbelianQuotient(free, torsion)


def saturate(ambient_rank: int, gens: IntMatrix) -> tuple[IntMatrix, bool]:
    """Saturation of the column span inside Z^ambient_rank.

    Returns ``(basis, is_direct_summand)`` where ``basis`` is the canonical
    (HNF) basis of ``(span ⊗ Q) ∩ Z^n``, the integer kernel of the span's
    integral annihilator, and ``is_direct_summand`` is True iff the span
    already equals its saturation (``hnf_basis(gens) == basis``).
    """
    if gens.rows != ambient_rank:
        raise PreconditionError("ambient rank mismatch")
    if gens.cols == 0:
        return IntMatrix.zero(ambient_rank, 0), True
    ann = integer_kernel(gens.transpose())  # covectors vanishing on the span
    basis = hnf_basis(integer_kernel(ann.transpose()))
    return basis, hnf_basis(gens) == basis


def sublattice_in_span(basis: IntMatrix, span_gens: IntMatrix) -> IntMatrix:
    """Canonical basis of {x in span_Z(basis) : x in span_Q(span_gens)}.

    ``basis`` must have full column rank.  The rational span of
    ``span_gens`` is cut out by its integral annihilator, so the result is
    exact.
    """
    if basis.rows != span_gens.rows:
        raise PreconditionError("ambient dimension mismatch")
    if basis.cols and basis.rank() != basis.cols:
        raise PreconditionError("basis matrix does not have full column rank")
    if span_gens.cols == 0:
        return IntMatrix.zero(basis.rows, 0)
    ann = integer_kernel(span_gens.transpose())  # covectors vanishing on the span
    if ann.cols == 0:
        return hnf_basis(basis)
    K = integer_kernel(ann.transpose() @ basis)
    return hnf_basis(basis @ K)
