"""Exact integer linear algebra: normal forms, quotients, saturation."""

import math
import random
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlat import (
    AbelianQuotient,
    IntMatrix,
    PreconditionError,
    hermite_normal_form,
    hnf_basis,
    integer_kernel,
    lattices_equal,
    quotient_structure,
    saturate,
    smith_normal_form,
    sublattice_in_span,
)
from qlat import exact_linalg
from qlat.exact_linalg import is_square_hnf, sublattice_index

from cokernel_oracle import lattice_intersection
from index_oracle import integral_coefficients, smith_index

small_entries = st.integers(min_value=-9, max_value=9)


def matrices(rows, cols):
    return st.lists(
        st.lists(small_entries, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(IntMatrix.from_rows)


# ---------------------------------------------------------------------------
# IntMatrix basics
# ---------------------------------------------------------------------------


def test_matrix_construction_and_accessors():
    M = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (M.rows, M.cols) == (2, 3)
    assert M.entries[1] == (4, 5, 6)
    assert M.column(2) == (3, 6)
    assert M.transpose().entries == ((1, 4), (2, 5), (3, 6))
    assert IntMatrix.from_columns([(1, 4), (2, 5), (3, 6)]) == M
    assert M.mul_vector((1, 1, 1)) == (6, 15)
    assert (M @ IntMatrix.identity(3)) == M


@pytest.mark.parametrize("bad", [0.5, Fraction(3, 2), True], ids=["float", "fraction", "bool"])
def test_every_constructor_rejects_non_integer_entries(bad):
    for build in (IntMatrix, IntMatrix.from_rows, IntMatrix.from_columns):
        with pytest.raises(PreconditionError, match=f"^non-integer entry {re.escape(repr(bad))}$"):
            build([[1, bad], [0, 2]])
    with pytest.raises(PreconditionError, match="^ragged columns$"):
        IntMatrix.from_columns([[1, 2], [3]])
    assert IntMatrix.from_columns([[1, 2], [3, 4]]) == IntMatrix([[1, 3], [2, 4]])


def test_matrix_without_rows_keeps_its_column_count():
    Z = IntMatrix.zero(0, 3)
    assert (Z.rows, Z.cols) == (0, 3)
    assert Z != IntMatrix.zero(0, 0)
    assert (Z.transpose().rows, Z.transpose().cols) == (3, 0)
    T = IntMatrix.zero(3, 0).transpose()
    assert (T.rows, T.cols) == (0, 3)
    assert T.transpose() == IntMatrix.zero(3, 0)
    assert IntMatrix.zero(3, 0) @ Z == IntMatrix.zero(3, 3)
    assert (Z.take_columns([0, 2]).cols, Z.hstack(Z).cols) == (2, 6)


def test_matrix_rejects_bad_input():
    with pytest.raises(PreconditionError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(PreconditionError):
        IntMatrix(((1, 2.5),))
    with pytest.raises(PreconditionError):
        IntMatrix.from_columns([], rows=None)
    with pytest.raises(PreconditionError):
        IntMatrix(((1, True),))
    with pytest.raises(PreconditionError):
        IntMatrix.from_columns([(1, 2), (3,)])


def test_determinant_small_cases():
    assert IntMatrix.identity(4).det() == 1
    assert IntMatrix.from_rows([[2, 0], [0, 3]]).det() == 6
    assert IntMatrix.from_rows([[0, 1], [1, 0]]).det() == -1
    assert IntMatrix.zero(3, 3).det() == 0


def test_abelian_quotient_validation():
    q = AbelianQuotient(0, (2, 6))
    assert q.order() == 12 and q.is_finite and q != AbelianQuotient(0, ())
    with pytest.raises(PreconditionError):
        AbelianQuotient(0, (3, 4))  # no divisibility chain
    with pytest.raises(PreconditionError):
        AbelianQuotient(0, (1,))
    with pytest.raises(PreconditionError):
        AbelianQuotient(1, ()).order()


@pytest.mark.parametrize("bad", [2.7, Fraction(4, 1), True], ids=["float", "fraction", "bool"])
def test_abelian_quotient_rejects_non_integer_torsion(bad):
    # truncating 2.7 would give the torsion (2,)
    with pytest.raises(PreconditionError, match=f"^non-integer entry {re.escape(repr(bad))}$"):
        AbelianQuotient(0, (bad,))
    assert AbelianQuotient(0, [2, 4]).torsion == (2, 4)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _determinantal_factors(M):
    """Nonzero invariant factors of M from its determinantal divisors.

    d_k is the gcd of the k×k minors (each by Bareiss ``IntMatrix.det``),
    and the k-th invariant factor is d_k / d_(k-1); the count is the rank.
    No Hermite elimination is involved.
    """
    factors, prev = [], 1
    for k in range(1, min(M.rows, M.cols) + 1):
        g = 0
        for rows in combinations(range(M.rows), k):
            for cols in combinations(range(M.cols), k):
                minor = IntMatrix([[M.entries[i][j] for j in cols] for i in rows])
                g = math.gcd(g, minor.det())
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def _snf_diagonal(M):
    D = smith_normal_form(M)
    assert (D.rows, D.cols) == (M.rows, M.cols)
    return [D.entries[i][i] for i in range(min(D.rows, D.cols))]


def test_snf_identity_is_identity():
    assert smith_normal_form(IntMatrix.identity(3)) == IntMatrix.identity(3)


def test_snf_diag_2_3_gives_1_6():
    M = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert smith_normal_form(M) == IntMatrix.from_rows([[1, 0], [0, 6]])
    assert _determinantal_factors(M) == [1, 6]


def test_snf_zero_matrix():
    assert smith_normal_form(IntMatrix.zero(2, 2)) == IntMatrix.zero(2, 2)
    assert _determinantal_factors(IntMatrix.zero(2, 2)) == []


def test_snf_of_empty_shapes_and_an_off_diagonal_unit():
    assert smith_normal_form(IntMatrix.zero(0, 3)) == IntMatrix.zero(0, 3)
    assert smith_normal_form(IntMatrix.zero(3, 0)) == IntMatrix.zero(3, 0)
    assert smith_normal_form(IntMatrix.from_rows([[0, 1]])) == IntMatrix.from_rows([[1, 0]])


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_snf_reconstruction_and_divisibility(r, c, data):
    M = data.draw(matrices(r, c))
    D = smith_normal_form(M)
    diag = [D.entries[i][i] for i in range(min(r, c))]
    for i in range(r):
        for j in range(c):
            if i != j:
                assert D.entries[i][j] == 0
    nonzero = [d for d in diag if d]
    assert all(d > 0 for d in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))
    if r == c:
        assert abs(D.det()) == abs(M.det())


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_snf_matches_determinantal_divisors(r, c, data):
    M = data.draw(matrices(r, c)) if r else IntMatrix.zero(0, c)
    factors = _determinantal_factors(M)
    assert _snf_diagonal(M) == factors + [0] * (min(r, c) - len(factors))


# ---------------------------------------------------------------------------
# Hermite normal form
# ---------------------------------------------------------------------------


def test_hnf_identity():
    H, T = hermite_normal_form(IntMatrix.identity(3))
    assert H == IntMatrix.identity(3)


def test_hnf_gcd_column():
    M = IntMatrix.from_columns([(2, 0), (3, 0)])
    H = hnf_basis(M)
    assert H.entries == ((1,), (0,))


def test_hnf_already_canonical():
    M = IntMatrix.from_rows([[5, 0], [0, 5]])
    assert hnf_basis(M) == M


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_hnf_transform_and_span(r, c, data):
    M = data.draw(matrices(r, c))
    H, T = hermite_normal_form(M)
    assert abs(T.det()) == 1
    assert M @ T == H
    # the column span is unchanged: stacking adds nothing to either side
    assert lattices_equal(hnf_basis(M), hnf_basis(M.hstack(H)))


@settings(derandomize=True, deadline=None, max_examples=120)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_hnf_basis_matches_transform_route(r, c, data):
    M = data.draw(matrices(r, c))
    H, _ = hermite_normal_form(M)
    nonzero = [j for j in range(H.cols) if any(H.column(j))]
    assert hnf_basis(M) == H.take_columns(nonzero)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(1, 5), st.data())
def test_square_hnf_check_accepts_every_full_rank_hnf(n, data):
    M = data.draw(matrices(n, n))
    H = hnf_basis(M)
    assert is_square_hnf(H) == (M.det() != 0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 5), st.data())
def test_square_hnf_check_accepts_only_its_own_hnf(n, data):
    # near-canonical matrices: lower-triangular pattern, entries around the
    # pivot range, and now and then a stray entry above the diagonal
    rows = []
    for i in range(n):
        pivot = data.draw(st.integers(-1, 4))
        row = [data.draw(st.integers(-1, max(pivot, 1))) for _ in range(i)] + [pivot]
        row += [data.draw(st.sampled_from([0, 0, 0, 1])) for _ in range(n - i - 1)]
        rows.append(row)
    M = IntMatrix.from_rows(rows)
    if is_square_hnf(M):
        assert hnf_basis(M) == M
        assert M.det() == math.prod(M.entries[i][i] for i in range(n))
    else:
        assert hnf_basis(M) != M


def test_square_hnf_check_rejects_shapes_and_reduced_entries():
    assert is_square_hnf(IntMatrix.identity(3))
    assert is_square_hnf(IntMatrix.from_rows([[3, 0], [2, 5]]))
    assert not is_square_hnf(IntMatrix.from_rows([[3, 0], [5, 5]]))  # 5 ∉ [0, 5)
    assert not is_square_hnf(IntMatrix.from_rows([[3, 0], [-1, 5]]))
    assert not is_square_hnf(IntMatrix.from_rows([[3, 1], [0, 5]]))  # not lower triangular
    assert not is_square_hnf(IntMatrix.from_rows([[-3, 0], [0, 5]]))
    assert not is_square_hnf(IntMatrix.from_columns([(1, 0)]))


def test_lattices_equal_detects_proper_sublattice():
    A = IntMatrix.identity(2)
    B = IntMatrix.from_rows([[2, 0], [0, 1]])
    assert lattices_equal(A, A)
    assert not lattices_equal(A, B)


# ---------------------------------------------------------------------------
# quotient structure
# ---------------------------------------------------------------------------


def _brute_coset_count(n, gens: IntMatrix) -> int:
    """Independent coset count of a full-rank sublattice of Z^n via a box."""
    d = abs(hnf_basis(gens).det())
    assert d != 0
    basis = hnf_basis(gens)

    def member(v):
        # Cramer's rule: basis @ x = v has integral solution?
        det = basis.det()
        cols = basis.columns()
        for j in range(n):
            repl = IntMatrix.from_columns(
                [v if t == j else cols[t] for t in range(n)]
            )
            if repl.det() % det:
                return False
        return True

    reps = []
    for v in product(range(d), repeat=n):
        if not any(member(tuple(x - y for x, y in zip(v, r))) for r in reps):
            reps.append(v)
    return len(reps)


def test_quotient_identity_is_trivial():
    assert quotient_structure(3, IntMatrix.identity(3)) == AbelianQuotient(0, ())


def test_quotient_single_prime_column():
    for p in (2, 3, 5):
        q = quotient_structure(1, IntMatrix.from_rows([[p]]))
        assert q.free_rank == 0 and q.torsion == (p,)
        assert q.order() == _brute_coset_count(1, IntMatrix.from_rows([[p]]))


def test_quotient_diag_2_6():
    gens = IntMatrix.from_rows([[2, 0], [0, 6]])
    q = quotient_structure(2, gens)
    assert q.torsion == (2, 6)
    assert q.order() == 12 == _brute_coset_count(2, gens)


def test_quotient_nondiagonal_matches_brute_force():
    gens = IntMatrix.from_rows([[2, 1], [0, 3]])
    q = quotient_structure(2, gens)
    assert q.order() == _brute_coset_count(2, gens) == 6


def test_quotient_with_free_part():
    q = quotient_structure(2, IntMatrix.from_columns([(2, 0)], rows=2))
    assert q.free_rank == 1 and q.torsion == (2,)


# ---------------------------------------------------------------------------
# saturation
# ---------------------------------------------------------------------------


def test_saturate_unimodular_is_summand():
    sat, summand = saturate(2, IntMatrix.from_rows([[1, 1], [0, 1]]))
    assert summand


def test_saturate_scaled_column():
    sat, summand = saturate(2, IntMatrix.from_columns([(2, 0)], rows=2))
    assert not summand
    assert lattices_equal(sat, IntMatrix.from_columns([(1, 0)], rows=2))


def test_saturate_unit_divisor_column():
    _, summand = saturate(2, IntMatrix.from_columns([(1, 2)], rows=2))
    assert summand


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_saturate_idempotent(n, k, data):
    gens = data.draw(matrices(n, min(k, n)))
    sat, _ = saturate(n, gens)
    again, summand_flag = saturate(n, sat)
    assert lattices_equal(sat, again)
    if sat.cols:
        assert summand_flag  # a saturation is always a direct summand


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_saturate_matches_determinantal_divisors(n, k, data):
    gens = data.draw(matrices(n, k))
    factors = _determinantal_factors(gens)
    sat, summand = saturate(n, gens)
    assert sat.cols == len(factors)
    assert summand == all(f == 1 for f in factors)
    # a full-column-rank basis spans a saturated subgroup iff its maximal minors are coprime
    assert _determinantal_factors(sat) == [1] * sat.cols
    if sat.cols:
        assert sat @ integral_coefficients(sat, gens) == gens


def test_a_span_s_annihilator_is_formed_once_per_matrix_and_read_by_both(monkeypatch):
    real, kernels = exact_linalg.integer_kernel, []

    def counting(M):
        kernels.append(M)
        return real(M)

    monkeypatch.setattr(exact_linalg, "integer_kernel", counting)
    W = IntMatrix.from_columns([(1, 2, 0, 0), (0, 2, 2, 0)])
    basis = IntMatrix.from_columns([(2, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1)])
    sat, summand = saturate(4, W)  # the annihilator and the saturation's kernel
    assert len(kernels) == 2 and not summand
    meet = sublattice_in_span(basis, W)  # reads the kept annihilator
    assert len(kernels) == 2
    assert saturate(4, W) == (sat, summand) and len(kernels) == 3
    # a fresh copy of the same entries forms its own, with the same results
    fresh = IntMatrix(W.entries)
    assert sublattice_in_span(basis, fresh) == meet and len(kernels) == 4
    assert saturate(4, fresh) == (sat, summand) and len(kernels) == 5
    # the basis spans {x : x_1 ≡ x_2 mod 2}, and (1, 2, 0, 0) − (0, 2, 2, 0)/2 lies in it
    assert lattices_equal(meet, IntMatrix.from_columns([(1, 1, -1, 0), (0, 2, 2, 0)]))
    # the kept basis is no field: equality, hashing and repr do not see it
    assert fresh == W and hash(fresh) == hash(W) and repr(fresh) == repr(IntMatrix(W.entries))


# ---------------------------------------------------------------------------
# lattice intersection (the oracle of tests/cokernel_oracle.py)
# ---------------------------------------------------------------------------


def test_intersection_identity():
    I2 = IntMatrix.identity(2)
    assert lattices_equal(lattice_intersection(I2, I2), I2)


def test_intersection_diag_lattices():
    A = IntMatrix.from_rows([[2, 0], [0, 1]])
    B = IntMatrix.from_rows([[1, 0], [0, 2]])
    got = lattice_intersection(A, B)
    assert lattices_equal(got, IntMatrix.from_rows([[2, 0], [0, 2]]))


def test_intersection_transverse_lines_is_zero():
    A = IntMatrix.from_columns([(1, 1)], rows=2)
    B = IntMatrix.from_columns([(1, -1)], rows=2)
    got = lattice_intersection(A, B)
    assert got.cols == 0


def test_intersection_rejects_dependent_basis():
    bad = IntMatrix.from_columns([(1, 1), (2, 2)])
    with pytest.raises(PreconditionError):
        lattice_intersection(bad, IntMatrix.identity(2))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.data())
def test_intersection_commutative_and_contained(data):
    A = data.draw(matrices(2, 2).filter(lambda m: m.det() != 0))
    B = data.draw(matrices(2, 2).filter(lambda m: m.det() != 0))
    AB = lattice_intersection(A, B)
    BA = lattice_intersection(B, A)
    assert lattices_equal(AB, BA)
    # containment: adjoining the intersection to either lattice changes nothing
    for M in (A, B):
        assert lattices_equal(hnf_basis(M.hstack(AB)), hnf_basis(M))


# ---------------------------------------------------------------------------
# kernels, coefficients (the oracle of tests/index_oracle.py) and indices
# ---------------------------------------------------------------------------


def test_integer_kernel_of_projection():
    M = IntMatrix.from_rows([[1, 0, 2]])
    K = integer_kernel(M)
    assert K.cols == 2
    for col in K.columns():
        assert M.mul_vector(col) == (0,)


def test_integer_kernel_of_a_matrix_without_rows_is_everything():
    assert integer_kernel(IntMatrix.zero(0, 3)) == IntMatrix.identity(3)


def test_integral_coefficients_solves_or_names_the_obstruction():
    basis = IntMatrix.from_rows([[2, 0], [1, 1], [0, 0]])
    C = IntMatrix.from_rows([[1, -2], [4, 0]])
    assert integral_coefficients(basis, basis @ C) == C
    with pytest.raises(PreconditionError, match="^basis columns are dependent$"):
        integral_coefficients(IntMatrix.from_rows([[1, 2], [1, 2], [0, 0]]), basis)
    with pytest.raises(PreconditionError, match="^ambient dimension mismatch$"):
        integral_coefficients(basis, C)
    with pytest.raises(PreconditionError, match="^target vectors lie outside the span$"):
        integral_coefficients(basis, IntMatrix.from_columns([[0, 0, 1]]))
    with pytest.raises(PreconditionError, match="^target vectors are not integral in the basis$"):
        integral_coefficients(basis, IntMatrix.from_columns([[1, 0, 0]]))


def _index_pairs(rng, count):
    """Seeded (L, T) in Z^n: T = L·C, at times with one column moved off L."""
    for _ in range(count):
        n, k = rng.randint(1, 5), rng.randint(0, 4)
        L = IntMatrix([[rng.randint(-4, 4) for _ in range(k)] for _ in range(n)], cols=k)
        m = rng.randint(0, k + 1)
        C = IntMatrix([[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)], cols=m)
        T = [list(c) for c in (L @ C).columns()]
        if T and rng.random() < 0.4:
            T[0][rng.randrange(n)] += rng.randint(1, 3)
        yield L, IntMatrix.from_columns(T, rows=n)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sublattice_index_matches_the_smith_index(seed):
    outcomes = set()
    for L, T in _index_pairs(random.Random(seed), 150):
        index = sublattice_index(L, T)
        assert index == smith_index(L, T), (L, T)
        outcomes.add("outside" if index is None else "infinite" if index == 0 else "finite")
        if index is not None and index > 1:
            outcomes.add("proper")
    assert outcomes == {"outside", "infinite", "finite", "proper"}


def test_sublattice_index_reads_pivots():
    L = IntMatrix.from_rows([[1, 0], [2, 3], [0, 0]])
    assert sublattice_index(L, L.scale(5)) == 25
    assert sublattice_index(L, IntMatrix.from_columns([(1, 2, 0), (0, 6, 0)])) == 2
    assert sublattice_index(L, IntMatrix.from_columns([(0, 3, 0)])) == 0
    assert sublattice_index(L, IntMatrix.from_columns([(0, 1, 0)])) is None
    assert sublattice_index(L, IntMatrix.from_columns([(0, 0, 1)])) is None


# ---------------------------------------------------------------------------
# the Hermite eliminator against oracles that do not use it
# ---------------------------------------------------------------------------


def _determinantal_rank(M):
    return len(_determinantal_factors(M))


def _cramer_class(basis, targets):
    """Error class of basis @ C == targets by Cramer's rule on the normal equations.

    With G = BᵀB (invertible for independent columns) and d = det G, the
    rational coordinates of t are x_j = det(G with column j replaced by
    Bᵀt)/d; t lies in the span iff B·(d·x) == d·t.
    """
    G = basis.transpose() @ basis
    d = G.det()
    gcols = G.columns()
    integral = True
    for t in targets.columns():
        bt = basis.transpose().mul_vector(t)
        dx = [
            IntMatrix.from_columns([bt if i == j else gcols[i] for i in range(G.cols)]).det()
            for j in range(G.cols)
        ]
        if basis.mul_vector(dx) != tuple(d * x for x in t):
            return "outside the span"
        integral = integral and all(x % d == 0 for x in dx)
    return None if integral else "not integral"


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(1, 4), st.data())
def test_integral_coefficients_recovers_drawn_coefficients(n, data):
    r = data.draw(st.integers(1, n))
    B = data.draw(matrices(n, r).filter(lambda m: (m.transpose() @ m).det() != 0))
    C = data.draw(matrices(r, data.draw(st.integers(0, 3))))
    assert integral_coefficients(B, B @ C) == C


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 4), st.data())
def test_integral_coefficients_error_class_matches_cramer(n, data):
    r = data.draw(st.integers(1, n))
    B = data.draw(matrices(n, r).filter(lambda m: (m.transpose() @ m).det() != 0))
    # a sublattice of span(B) of index up to 27, so integral targets of B
    # are often not integral in the basis
    D = IntMatrix.from_rows(
        [
            [data.draw(st.integers(-2, 2)) if j > i else data.draw(st.integers(1, 3)) if j == i else 0
             for j in range(r)]
            for i in range(r)
        ]
    )
    basis = B @ D
    cols = []
    for _ in range(data.draw(st.integers(1, 3))):
        t = B.mul_vector(data.draw(st.lists(small_entries, min_size=r, max_size=r)))
        if data.draw(st.booleans()):
            t = tuple(a + b for a, b in zip(t, data.draw(st.lists(small_entries, min_size=n, max_size=n))))
        cols.append(t)
    targets = IntMatrix.from_columns(cols)
    expected = _cramer_class(basis, targets)
    if expected is None:
        assert basis @ integral_coefficients(basis, targets) == targets
    else:
        with pytest.raises(PreconditionError, match=expected):
            integral_coefficients(basis, targets)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_integer_kernel_is_a_saturated_kernel_of_snf_size(n, m, data):
    M = data.draw(matrices(n, m))
    K = integer_kernel(M)
    assert K.cols == m - _determinantal_rank(M)
    if K.cols:
        assert M @ K == IntMatrix.zero(n, K.cols)
        assert saturate(m, K)[1]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_rank_matches_snf(n, m, data):
    M = data.draw(matrices(n, m))
    assert M.rank() == _determinantal_rank(M)


# ---------------------------------------------------------------------------
# the determinant from the Hermite eliminator
# ---------------------------------------------------------------------------


def _seeded_integer_matrices(seed, count, max_n=7):
    """Seeded square matrices up to ``max_n`` × ``max_n``, about a third of
    them singular (a product through a smaller dimension)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        k = n if rng.random() < 0.66 else rng.randint(0, n - 1)
        A = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(n)]
        B = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        yield [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(n)] for i in range(n)]


def test_integer_det_matches_bareiss_and_reads_the_hermite_eliminator(monkeypatch):
    from qlat import e8_lattice, k3_lattice
    from qlat import exact_linalg

    from det_oracle import bareiss_det

    real, calls = exact_linalg._row_hnf, []

    def counted(A, m):
        calls.append(m)
        return real(A, m)

    monkeypatch.setattr(exact_linalg, "_row_hnf", counted)
    cases = list(_seeded_integer_matrices(0, 600))
    cases += [k3_lattice().gram().entries, e8_lattice().gram().entries, [[0, 1], [1, 0]], [[-3]]]
    signs = set()
    for rows in cases:
        d = IntMatrix.from_rows(rows).det()
        assert d == bareiss_det(rows), rows
        signs.add((d > 0) - (d < 0))
    assert signs == {-1, 0, 1}
    assert IntMatrix.from_rows(k3_lattice().gram().entries).det() == -1
    assert IntMatrix(()).det() == 1
    assert len(calls) == len(cases) + 2
    for M in (IntMatrix.zero(2, 3), IntMatrix.zero(3, 2), IntMatrix.zero(0, 2), IntMatrix.zero(2, 0)):
        with pytest.raises(PreconditionError, match="^determinant of a non-square matrix$"):
            M.det()


def test_row_hnf_returns_the_determinant_of_its_row_operations():
    """Rows (a_i, e_i) end as (h_i, t_i), so T = (t_ij) is the product of the
    row operations and ``_row_hnf`` returns det T, ±1."""
    from qlat.exact_linalg import _row_hnf

    from det_oracle import leibniz_det

    seen = set()
    for rows in _seeded_integer_matrices(1, 400, max_n=5):
        n = len(rows)
        for m_cols in (n, n - 1):  # square, and one column short of it
            A = [list(r[:m_cols]) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
            sign = _row_hnf(A, m_cols)
            assert sign == leibniz_det([r[m_cols:] for r in A]) and sign in (1, -1)
            seen.add(sign)
    assert seen == {1, -1}
