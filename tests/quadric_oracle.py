"""Points of a quadric over F_p, counted by evaluating Q anew at each vector.

An oracle for the tests of ``qlat.verify``'s brute-force line count: it
evaluates ``FpQuadSpace.q`` at every vector of F_p^n, O(n²) per vector,
where the suite's scan carries Q along the prefixes of the vectors.
"""

from itertools import product

from qlat import InvariantViolationError


def value_counts(V):
    """Entry c is the number of vectors x of F_p^n with Q(x) = c."""
    counts = [0] * V.p
    for v in product(range(V.p), repeat=V.dim):
        counts[V.q(v)] += 1
    return counts


def line_count(V):
    """Isotropic lines of V: its nonzero zeros of Q, divided by p − 1."""
    p, n = V.p, V.dim
    points = sum(1 for v in product(range(p), repeat=n) if any(v) and V.q(v) == 0)
    if points % (p - 1):
        raise InvariantViolationError("isotropic point count not divisible by p - 1")
    return points // (p - 1)
