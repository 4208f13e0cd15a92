"""Brute-force enumeration of the isometries of a small quadratic space.

An oracle for the tests, independent of the generators and the Witt
construction of ``qlat.fp_quadratic``: it backtracks over the columns of
a matrix, taking column j among the vectors with Q = Q(e_j) that pair
with the earlier columns as e_j does.
"""

from itertools import product

from qlat import modp


def all_isometries_bruteforce(V):
    """Every isometry matrix of V, by backtracking over columns (tiny spaces)."""
    p, n = V.p, V.dim
    B = V.gram()
    by_q = {}
    for v in product(range(p), repeat=n):
        by_q.setdefault(V.q(v), []).append(v)
    out = []
    cols = []

    def extend(j):
        if j == n:
            m = tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))
            if modp.det(m, p) != 0:
                out.append(m)
            return
        for v in by_q.get(V.half_gram[j][j] % p, ()):
            if all(V.b(cols[i], v) == B[i][j] for i in range(j)):
                cols.append(v)
                extend(j + 1)
                cols.pop()

    extend(0)
    return out
