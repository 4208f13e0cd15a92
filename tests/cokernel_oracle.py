"""The cokernel M and its comparison maps by lattice intersection.

An oracle for the tests, independent of the Hermite-basis split that
``qlat.deformation_tori.cokernel_M`` reads both maps off: it stacks the
relation blocks as matrices, intersects their span with each coordinate
block through an integer kernel, and takes each coindex from a Smith form.
It also draws instances the way ``qlat verify cokernel-m`` does.
"""

import random

from qlat import (
    AbelianQuotient,
    IntMatrix,
    PreconditionError,
    hnf_basis,
    integer_kernel,
    quotient_structure,
    saturate,
)
from qlat.exact_linalg import kernel_mod_p


def lattice_intersection(A, B):
    """Canonical basis of (column span of A) ∩ (column span of B) in Z^n.

    Both inputs must have full column rank.  The intersection of two
    subgroups of Z^n presented this way is again free; the result may have
    fewer columns (down to zero) than either input.
    """
    if A.rows != B.rows:
        raise PreconditionError("ambient dimension mismatch")
    for name, M in (("first", A), ("second", B)):
        if M.cols and M.rank() != M.cols:
            raise PreconditionError(f"{name} basis matrix does not have full column rank")
    if A.cols == 0 or B.cols == 0:
        return IntMatrix.zero(A.rows, 0)
    K = integer_kernel(A.hstack(B.scale(-1)))
    X = IntMatrix(K.entries[: A.cols], cols=K.cols)
    return hnf_basis(A @ X)


def _stack(top, bottom):
    return IntMatrix.from_rows(list(top.entries) + list(bottom.entries))


def _rows(M, indices):
    return IntMatrix([M.entries[i] for i in indices], cols=M.cols)


def meet_and_coindex(rel, n, block):
    """Intersect rel ⊂ Z^{2n} with coordinate block 0 (top) or 1 (bottom).

    Returns that block's part of the intersection and Z^{2n} modulo rel
    plus the block, isomorphic to Z^n modulo rel's projection to the other
    block.
    """
    ident, zero = IntMatrix.identity(n), IntMatrix.zero(n, n)
    basis = _stack(ident, zero) if block == 0 else _stack(zero, ident)
    meet = lattice_intersection(rel, basis)
    part = hnf_basis(_rows(meet, range(block * n, (block + 1) * n)))
    return part, quotient_structure(2 * n, rel.hstack(basis))


def cokernel_by_intersection(split, W_gens, p):
    """``(M, inj1_index, iso2)`` of ``qlat.cokernel_M`` for valid inputs.

    W̃ is computed as the library computes it, from ``kernel_mod_p`` of
    this module, so a test can substitute the same wrong W̃ in both.
    """
    n = split.rank
    W = hnf_basis(W_gens)
    last = list(W.entries[n - 1])
    Wt = W @ kernel_mod_p(last, p)
    lam_rows = [[p * x for x in Wt.entries[0]]]
    lam_rows += [list(r) for r in Wt.entries[1 : n - 1]]
    lam_rows.append([x // p for x in Wt.entries[n - 1]])
    lamWt = IntMatrix.from_rows(lam_rows)
    alpha = [[p if (i == j == n - 1) else (1 if i == j else 0) for j in range(n)] for i in range(n)]
    beta = [[p if (i == j == 0) else (1 if i == j else 0) for j in range(n)] for i in range(n)]
    graph = _stack(IntMatrix.from_rows(alpha), IntMatrix.from_rows(beta))
    top = _stack(W, IntMatrix.zero(n, W.cols))
    bottom = _stack(IntMatrix.zero(n, lamWt.cols), lamWt)
    rel = hnf_basis(graph.hstack(top).hstack(bottom))
    M = quotient_structure(2 * n, rel)
    K1_top, coker1 = meet_and_coindex(rel, n, 0)
    assert K1_top == W, "first comparison map is not injective"
    assert coker1.is_finite, "first comparison map has infinite coindex"
    K2_bottom, coker2 = meet_and_coindex(rel, n, 1)
    return M, coker1.order(), K2_bottom == hnf_basis(lamWt) and coker2 == AbelianQuotient(0, ())


def suite_instances(primes, max_rank, seed, count=200):
    """``count`` instances (p, b, W) drawn as ``qlat verify cokernel-m`` draws them."""
    max_b = max_rank - 2
    rng = random.Random(seed)
    items = []
    for _ in range(count):
        p = primes[rng.randrange(len(primes))]
        b = rng.randint(0, max_b)
        n = b + 2
        while True:
            k = rng.randint(1, n)
            raw = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)])
            basis, _ = saturate(n, raw)
            if basis.cols and any(x % p for x in basis.entries[n - 1]):
                break
        items.append((p, b, basis))
    return items
