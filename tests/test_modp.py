"""Linear algebra and primality over F_p against brute-force oracles, and
the package's one integer check at every entry point that takes integers."""

import random
from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlat import (
    AbelianQuotient,
    CharLattice,
    FpIsometry,
    FpQuadSpace,
    IntMatrix,
    InvariantViolationError,
    PLattice,
    PolarizedK3Lattice,
    PreconditionError,
    ProjLine,
    SizeGuardError,
    enumerate_isotropic_lines,
    hyperbolic_plane,
    k3_lattice,
    modp,
    reflection,
    reflection_factorization,
    run_suite,
    serialize,
    stabilizer_orbit,
    verify,
    witt_extension,
)
from qlat.fp_quadratic import dickson_invariant, isotropic_lines_in


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


# ---------------------------------------------------------------------------
# the one integer check, at every entry point that takes integers
# ---------------------------------------------------------------------------

H = hyperbolic_plane()
V = FpQuadSpace(3, ((0, 1), (0, 0)))  # H mod 3
SEED = ProjLine(V, (1, 0))
SCALED = {"ambient": {"half_gram": [[0, 1], [0, 0]]}, "p": 3, "power": 1, "numerator_basis": [[1, 0], [0, 1]]}

# entry point -> (its call with x, an int x it takes, its message for a non-integer x,
# None for "non-integer entry x")
INTEGER_ENTRY_POINTS = {
    "IntMatrix": (lambda x: IntMatrix(((1, x),)), 0, None),
    "IntMatrix.from_rows": (lambda x: IntMatrix.from_rows([[x, 0]]), 0, None),
    "IntMatrix.from_columns": (lambda x: IntMatrix.from_columns([[x, 0]]), 0, None),
    "FpQuadSpace.p": (lambda x: FpQuadSpace(x, ((0, 1), (0, 0))), 3, None),
    "FpQuadSpace.half_gram": (lambda x: FpQuadSpace(3, ((x, 1), (0, 0))), 1, None),
    "is_prime": (modp.is_prime, 3, None),
    "check_prime": (modp.check_prime, 3, None),
    "run_suite.primes": (lambda x: run_suite("spinor-surjectivity", primes=[x], max_rank=4), 3, None),
    "AbelianQuotient.free_rank": (lambda x: AbelianQuotient(x, (2,)), 1, None),
    "AbelianQuotient.torsion": (lambda x: AbelianQuotient(0, (x,)), 3, None),
    "CharLattice.rank": (lambda x: CharLattice(x, (1, 1, 1)), 3, None),
    "CharLattice.weights": (lambda x: CharLattice(3, (1, x, 1)), 1, None),
    "PolarizedK3Lattice.xi": (lambda x: PolarizedK3Lattice(k3_lattice(), (1, x) + (0,) * 20), 1, None),
    "PLattice.p": (lambda x: PLattice(H, x, 1, IntMatrix.identity(2)), 3, None),
    "PLattice.power": (lambda x: PLattice(H, 3, x, IntMatrix.identity(2)), 1, None),
    "lattice document rank": (
        lambda x: serialize.lattice_from_dict({"half_gram": [[0, 1], [0, 0]], "rank": x}),
        2,
        "declared rank disagrees with the matrix",
    ),
    "scaled-lattice p": (
        lambda x: serialize.plattice_from_dict({**SCALED, "p": x}), 3, "scaled-lattice p must be an integer"
    ),
    "scaled-lattice power": (
        lambda x: serialize.plattice_from_dict({**SCALED, "power": x}),
        1,
        "scaled-lattice power must be an integer",
    ),
    "item weights": (
        lambda x: verify._shares_by_weight([1, x], 2), 1, "item weights must be positive integers"
    ),
    "ProjLine": (lambda x: ProjLine(V, (x, 1)), 1, None),
    "FpIsometry": (lambda x: FpIsometry(V, ((x, 0), (0, 1))), 1, None),
    "witt_extension": (lambda x: witt_extension(V, [(x, 0)], [(1, 0)]), 1, None),
    # hashable bases: True equals the recorded (1, 0) and is looked up first
    "witt_extension tuples": (lambda x: witt_extension(V, ((1, 0),), ((x, 0),)), 1, None),
    "reflection": (lambda x: reflection(V, (x, 1)), 1, None),
    "dickson_invariant": (lambda x: dickson_invariant(V, ((x, 0), (0, 1))), 1, None),
    "reflection_factorization": (lambda x: reflection_factorization(V, ((x, 0), (0, 1))), 1, None),
    "isotropic_lines_in": (lambda x: isotropic_lines_in(V, [(x, 1)]), 1, None),
    "stabilizer_orbit": (
        lambda x: stabilizer_orbit(V, [(x, 1)], SEED, enumerate_isotropic_lines(V)), 1, None
    ),
}


@pytest.mark.parametrize("bad", [1.5, 2.0, True, Fraction(3), "3", None], ids=repr)
@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRY_POINTS))
def test_every_entry_point_rejects_a_non_integer(entry, bad):
    call, good, message = INTEGER_ENTRY_POINTS[entry]
    call(good)  # so the type of x is the only fault below
    with pytest.raises(PreconditionError) as caught:
        call(bad)
    assert str(caught.value) == (message or f"non-integer entry {bad!r}")


def test_int_tuples_checks_the_shape_before_the_entries():
    assert modp.int_tuples([[1, -2], (3, 10**30)], "ragged") == ((1, -2), (3, 10**30))
    assert modp.int_tuples([], "ragged") == ()
    with pytest.raises(PreconditionError, match="^ragged$"):
        modp.int_tuples([[1, 2], [1.5]], "ragged")


# ---------------------------------------------------------------------------
# the one forward elimination, against brute force
# ---------------------------------------------------------------------------


def _seeded_matrices(p, seed):
    """The empty, zero-column and zero matrices, then seeded matrices of every
    shape up to 4 × 4 (wide and tall), of every rank they can have."""
    rng = random.Random(seed)
    cases = [[], [[]], [[], []], [[0, 0, 0]], [[0, 0], [0, 0], [0, 0]]]
    for n_rows in range(1, 5):
        for n_cols in range(1, 5):
            for k in range(min(n_rows, n_cols) + 1):
                for _ in range(3):
                    A = [[rng.randrange(p) for _ in range(k)] for _ in range(n_rows)]
                    B = [[rng.randrange(p) for _ in range(n_cols)] for _ in range(k)]
                    cases.append([
                        [sum(A[i][t] * B[t][j] for t in range(k)) + p * rng.randint(-2, 2)
                         for j in range(n_cols)]
                        for i in range(n_rows)
                    ])
    return cases


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_counts_the_row_space(p):
    for rows in _seeded_matrices(p, p):
        n_cols = len(rows[0]) if rows else 1
        r = modp.rank(rows, p)
        assert p**r == len(_row_space(rows, p, n_cols)), rows
        assert r == len(modp._echelon(rows, p)[1])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_echelon_and_rref_keep_the_row_space_in_their_shapes(p):
    for rows in _seeded_matrices(p, p + 10):
        n_cols = len(rows[0]) if rows else 0
        span = _row_space(rows, p, n_cols)
        e, e_pivots, swaps = modp._echelon(rows, p)
        m, pivots = modp.rref(rows, p)
        assert pivots == e_pivots == sorted(set(pivots)) and swaps >= 0
        r = len(pivots)
        for out in (e, m):
            assert len(out) == len(rows)
            assert all(0 <= x < p for row in out for x in row)
            assert all(not any(row) for row in out[r:])
            assert _row_space(out, p, n_cols) == span
        for i, c in enumerate(pivots):
            assert e[i][c] and not any(e[i][:c])
            assert not any(m[i][:c])
            assert [row[c] for row in m] == [int(k == i) for k in range(len(m))]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_det_matches_leibniz_and_the_echelon_diagonal(p):
    square = [rows for rows in _seeded_matrices(p, p + 20) if len(rows) == len(rows[0] if rows else [])]
    square += [list(map(list, (r[:2], r[2:]))) for r in product(range(min(p, 3)), repeat=4)]
    for rows in square:
        d = modp.det(rows, p)
        assert d == _leibniz(rows, p), rows
        m, pivots, swaps = modp._echelon(rows, p)
        if d:
            assert (-1) ** swaps * prod(row[i] for i, row in enumerate(m)) % p == d
        else:
            assert len(pivots) < len(rows)
    assert {modp.det(rows, p) for rows in square} == set(range(p))
