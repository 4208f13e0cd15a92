"""Linear algebra and primality over F_p against brute-force oracles."""

from itertools import permutations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlat import InvariantViolationError, PreconditionError, SizeGuardError, modp


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if modp.is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to every prime base up to 23
        (2**61 - 1) * (2**31 - 1),  # beyond the exact bound, but a base witnesses it
        10**400 + 1,
    ],
)
def test_is_prime_rejects_composites(n):
    assert not modp.is_prime(n)
    with pytest.raises(PreconditionError, match=f"^{n} is not prime$"):
        modp.check_prime(n)


@pytest.mark.parametrize("n", [10**18 + 3, 2**61 - 1, 1000000000000037])
def test_is_prime_accepts_large_primes(n):
    assert modp.is_prime(n)
    modp.check_prime(n)


def test_is_prime_refuses_an_unprovable_candidate():
    mersenne = 2**89 - 1  # prime, above the bound where the bases are proven
    assert mersenne >= modp.MILLER_RABIN_BOUND
    with pytest.raises(SizeGuardError, match=str(modp.MILLER_RABIN_BOUND)):
        modp.is_prime(mersenne)


# ---------------------------------------------------------------------------
# linear algebra on small matrices, against enumeration
# ---------------------------------------------------------------------------


@st.composite
def matrices(draw, square=False):
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(0, 4))
    cols = rows if square else draw(st.integers(1, 4))
    entries = st.integers(-12, 12)
    return p, [[draw(entries) for _ in range(cols)] for _ in range(rows)]


def _row_space(rows, p, n_cols):
    """Every F_p-combination of the rows, as a set of reduced vectors."""
    return {
        tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(n_cols))
        for coeffs in product(range(p), repeat=len(rows))
    }


@settings(derandomize=True, deadline=None, max_examples=150)
@given(matrices())
def test_rank_rref_and_kernel(case):
    p, rows = case
    n_cols = len(rows[0]) if rows else 1
    span = _row_space(rows, p, n_cols)
    r = modp.rank(rows, p)
    assert p**r == len(span)
    m, pivots = modp.rref(rows, p)
    assert len(pivots) == r
    assert {tuple(row) for row in m[:r]} <= span
    for i, c in enumerate(pivots):
        assert [row[c] for row in m] == [int(k == i) for k in range(len(m))]
    assert all(not any(row) for row in m[r:])
    kernel = modp.kernel_basis(rows, p, n_cols)
    assert len(kernel) == n_cols - r
    assert modp.rank(kernel, p) == len(kernel)
    for v in kernel:
        assert modp.mat_vec(rows, v, p) == (0,) * len(rows)


def _leibniz(rows, p):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total % p


@settings(derandomize=True, deadline=None, max_examples=150)
@given(matrices(square=True))
def test_det_inverse_and_solve(case):
    p, rows = case
    n = len(rows)
    d = modp.det(rows, p)
    assert d == _leibniz(rows, p)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    if d == 0:
        with pytest.raises(PreconditionError):
            modp.inverse(rows, p)
        return
    inv = modp.inverse(rows, p)
    assert modp.mat_mul(rows, inv, p) == ident
    assert modp.mat_mul(inv, rows, p) == ident
    B = [[(i * 7 + j) % p for j in range(2)] for i in range(n)]
    X = modp.solve(rows, B, p)
    assert modp.mat_mul(rows, X, p) == tuple(tuple(row) for row in B)


def test_solve_rejects_an_inconsistent_system():
    with pytest.raises(InvariantViolationError):
        modp.solve([[1], [1]], [[0], [1]], 3)


def test_legendre_symbol():
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for a in range(-p, 2 * p):
            expected = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert modp.legendre(a, p) == expected
