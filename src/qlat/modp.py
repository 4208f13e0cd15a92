"""Linear algebra and primality over the prime field F_p.

This module is the single home of the mod-p primitives the rest of the
package is built on: row reduction, rank, kernels, determinants, matrix
products, linear solves and inverses, Legendre symbols and the primality
test, together with the enumeration guard every command defaults to.
The one pivot search is the forward elimination ``_echelon``: ``rank``,
``det`` and ``rref`` read it, and ``kernel_basis``, ``solve`` and
``inverse`` read ``rref``.

Vectors are sequences of ints and matrices are sequences of rows.  Inputs
may hold any ints; every function reduces them mod p before it works, and
every result has entries in [0, p).

The package's one integer check lives here too: ``check_int`` for caller
values and ``int_tuples`` for caller matrices.  Anything but an ``int``
(3.0, ``Fraction(3)``, ``"3"``), and a ``bool``, is rejected with
PreconditionError, never truncated.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Iterable, Sequence

from .errors import InvariantViolationError, PreconditionError, SizeGuardError

__all__ = [
    "MAX_PROJ_POINTS",
    "check_int",
    "int_tuples",
    "identity",
    "inv_mod",
    "mat_vec",
    "mat_mul",
    "rref",
    "rank",
    "kernel_basis",
    "solve",
    "inverse",
    "det",
    "legendre",
    "is_prime",
    "check_prime",
    "MILLER_RABIN_BOUND",
]

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]

#: default bound on the projective points an enumeration may visit
MAX_PROJ_POINTS = 10**7


def check_int(*values: object, message: str | None = None) -> tuple[int, ...]:
    """``values``, each checked to be an int; a bool is not.

    Raises PreconditionError(``message``), by default "non-integer entry x".
    """
    for x in values:
        # a plain int passes on the first test, so the common case costs one
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
            raise PreconditionError(message or f"non-integer entry {x!r}")
    return values


def int_tuples(rows: Iterable[Iterable[int]], ragged: str) -> Matrix:
    """``rows`` as tuples, checked to share one length (else ``ragged``) and by ``check_int``."""
    rows = tuple([tuple(r) for r in rows])
    if len({len(r) for r in rows}) > 1:
        raise PreconditionError(ragged)
    for row in rows:
        check_int(*row)
    return rows


def identity(n: int) -> Matrix:
    """The n×n identity matrix."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def inv_mod(a: int, p: int) -> int:
    """The inverse of a unit a mod p."""
    return pow(a % p, -1, p)


def mat_vec(M: Sequence[Sequence[int]], v: Sequence[int], p: int) -> Vector:
    """M·v mod p."""
    return tuple([sum(map(mul, row, v)) % p for row in M])


def mat_mul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]], p: int) -> Matrix:
    """A·B mod p."""
    Bt = tuple(zip(*B))
    return tuple([tuple([sum(map(mul, row, col)) % p for col in Bt]) for row in A])


def _echelon(rows: Iterable[Sequence[int]], p: int) -> tuple[list[list[int]], list[int], int]:
    """Forward elimination mod p: ``(m, pivots, swaps)``, m in row echelon form.

    Reduces mod p once, clears only below each pivot, stops once every row
    holds a pivot, and counts in ``swaps`` the exchanges of distinct rows.
    """
    m = [[x % p for x in r] for r in rows]
    pivots: list[int] = []
    swaps = 0
    n_rows = len(m)
    if not n_rows:
        return m, pivots, swaps
    r = 0
    for c in range(len(m[0])):
        for piv in range(r, n_rows):
            if m[piv][c]:
                break
        else:
            continue
        row = m[piv]
        if piv != r:
            m[piv] = m[r]
            m[r] = row
            swaps += 1
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
        inv = pow(row[c], -1, p)
        for i in range(r, n_rows):
            f = m[i][c]
            if f:
                f = f * inv % p
                m[i] = [(x - f * y) % p for x, y in zip(m[i], row)]
    return m, pivots, swaps


def rref(rows: Iterable[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p and its pivot columns.

    Returns ``(m, pivots)``: ``m`` has as many rows as the input, its first
    ``len(pivots)`` rows carry a leading 1 in the pivot columns (zero
    elsewhere in those columns), and the remaining rows are zero: ``_echelon``
    with each pivot row scaled to 1 and cleared above it, last pivot first.
    """
    m, pivots, _ = _echelon(rows, p)
    for r in reversed(range(len(pivots))):
        c, row = pivots[r], m[r]
        if row[c] != 1:
            inv = pow(row[c], -1, p)
            row = m[r] = [(x * inv) % p for x in row]
        for i in range(r):
            f = m[i][c]
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], row)]
    return m, pivots


def rank(rows: Iterable[Sequence[int]], p: int) -> int:
    """Rank mod p of the matrix with the given rows: the pivots of ``_echelon``."""
    return len(_echelon(rows, p)[1])


def kernel_basis(rows: Iterable[Sequence[int]], p: int, n_cols: int) -> list[Vector]:
    """A basis of {x in F_p^n_cols : row·x = 0 for every row}, one vector per free column."""
    m, pivots = rref(rows, p)
    pivot_set = set(pivots)
    basis = []
    for fc in range(n_cols):
        if fc in pivot_set:
            continue
        v = [0] * n_cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-m[r][fc]) % p
        basis.append(tuple(v))
    return basis


def solve(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]], p: int) -> Matrix:
    """The X with A·X = B mod p, for A of full column rank.

    Raises PreconditionError if A does not have full column rank and
    InvariantViolationError if the system is inconsistent.
    """
    n_rows = len(A)
    r = len(A[0]) if A else 0
    k = len(B[0]) if B else 0
    m, pivots = rref([list(A[i]) + list(B[i]) for i in range(n_rows)], p)
    if pivots[:r] != list(range(r)):
        raise PreconditionError("coefficient matrix does not have full column rank")
    if len(pivots) > r:
        raise InvariantViolationError("inconsistent linear system")
    X = [[0] * k for _ in range(r)]
    for row_idx, pc in enumerate(pivots):
        X[pc] = m[row_idx][r:]
    return tuple(tuple(row) for row in X)


def inverse(M: Sequence[Sequence[int]], p: int) -> Matrix:
    """M⁻¹ mod p; raises PreconditionError if M is singular mod p."""
    return solve(M, identity(len(M)), p)


def det(rows: Sequence[Sequence[int]], p: int) -> int:
    """Determinant mod p of a square matrix: 0 below full rank, else the
    diagonal product of ``_echelon``, negated for an odd number of swaps.
    A row whose length is not the number of rows raises PreconditionError."""
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise PreconditionError("determinant of a non-square matrix")
    m, pivots, swaps = _echelon(rows, p)
    if len(pivots) < len(m):
        return 0
    return (-1) ** swaps * math.prod(row[i] for i, row in enumerate(m)) % p


def legendre(a: int, p: int) -> int:
    """The Legendre symbol (a/p) for odd prime p: 0, 1 or -1."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# Miller–Rabin with the first thirteen prime bases is exact below this
# bound (Sorenson and Webster, Math. Comp. 86 (2017), 985–1003).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """True iff n is prime; exact for every n below ``MILLER_RABIN_BOUND``.

    Trial division by the primes up to 41 settles every n below 43²;
    beyond that a strong-probable-prime test to each of those primes as
    base decides.  A base that witnesses compositeness proves it for any
    n.  At or above the bound, an n that passes every base cannot be
    proved prime this way, and SizeGuardError is raised.  An n that is not
    an int fails ``check_int``.
    """
    check_int(n)
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MILLER_RABIN_BOUND:
        raise SizeGuardError(
            f"cannot decide whether {n} is prime: the primality test is exact "
            f"only below {MILLER_RABIN_BOUND}"
        )
    return True


def check_prime(p: int) -> None:
    """Raise PreconditionError unless p is prime."""
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
