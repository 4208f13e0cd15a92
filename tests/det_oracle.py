"""Integer determinants by two routes independent of the Hermite eliminator.

An oracle for the tests of ``IntMatrix.det``: ``bareiss_det`` is
fraction-free Bareiss elimination, each step an exact division by the
previous pivot, and ``leibniz_det`` is the sum over permutations, for
small matrices.  Both take a square matrix as a sequence of rows.
"""

from itertools import permutations
from math import prod


def bareiss_det(rows):
    """Determinant by fraction-free Bareiss elimination; 1 for 0 × 0."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
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


def leibniz_det(rows):
    """Determinant as the signed sum over the permutations of the columns."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total
