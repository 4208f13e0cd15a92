"""Integral quadratic lattices: forms, signatures, complements, constructors."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlat import (
    AbelianQuotient,
    IntMatrix,
    PreconditionError,
    QuadLattice,
    Sublattice,
    basis_half_gram,
    bilinear_value,
    direct_sum,
    discriminant_group,
    e8_lattice,
    hyperbolic_plane,
    is_self_dual_at,
    k3_lattice,
    orthogonal_complement,
    quad_value,
    rank_one,
    restricted_lattice,
    saturate,
    signature,
)

H = hyperbolic_plane()
E8 = e8_lattice()
K3 = k3_lattice()


# ---------------------------------------------------------------------------
# form evaluation
# ---------------------------------------------------------------------------


def test_hyperbolic_basis_values():
    assert quad_value(H, (1, 0)) == 0
    assert quad_value(H, (0, 1)) == 0
    assert bilinear_value(H, (1, 0), (0, 1)) == 1


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(-20, 20), st.integers(-20, 20))
def test_hyperbolic_form_is_ab(a, b):
    assert quad_value(H, (a, b)) == a * b


@pytest.mark.parametrize("bad", [0.5, Fraction(3, 2), True], ids=["float", "fraction", "bool"])
def test_lattices_reject_non_integer_entries(bad):
    # truncating each entry to an int would give a lattice: [[0, 1], [0, 0]] for 0.5
    message = f"^non-integer entry {re.escape(repr(bad))}$"
    with pytest.raises(PreconditionError, match=message):
        QuadLattice([[bad, 1], [0, 0]])
    with pytest.raises(PreconditionError, match=message):
        QuadLattice([[bad]])
    with pytest.raises(PreconditionError, match=message):
        Sublattice(H, [[1], [bad]])


def test_zero_vector_has_zero_value():
    for L in (H, E8, K3, rank_one(7)):
        assert quad_value(L, (0,) * L.rank) == 0


def test_dimension_mismatch_rejected():
    with pytest.raises(PreconditionError):
        quad_value(H, (1, 2, 3))
    with pytest.raises(PreconditionError):
        bilinear_value(H, (1, 0), (1,))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_bilinear_identity(data):
    L = data.draw(st.sampled_from([H, E8, rank_one(3), direct_sum(H, rank_one(-2))]))
    vec = st.lists(st.integers(-8, 8), min_size=L.rank, max_size=L.rank)
    x = data.draw(vec)
    y = data.draw(vec)
    assert quad_value(L, [a + b for a, b in zip(x, y)]) - quad_value(
        L, x
    ) - quad_value(L, y) == bilinear_value(L, x, y)


def test_gram_diagonal_is_even():
    for L in (H, E8, K3, rank_one(5), QuadLattice(H.half_gram.scale(3))):
        G = L.gram()
        assert all(G.entries[i][i] % 2 == 0 for i in range(L.rank))
        assert G.transpose() == G


# ---------------------------------------------------------------------------
# self-duality
# ---------------------------------------------------------------------------


def test_hyperbolic_self_dual_everywhere():
    for p in (2, 3, 5, 7):
        assert is_self_dual_at(H, p)


def test_e8_self_dual_everywhere():
    assert E8.gram().det() == 1
    for p in (2, 3, 5, 7):
        assert is_self_dual_at(E8, p)


def test_rank_one_fails_at_divisors():
    for d in (1, 2, 3, 6):
        L = rank_one(d)
        for p in (2, 3, 5):
            assert is_self_dual_at(L, p) == (2 * d % p != 0)


# ---------------------------------------------------------------------------
# signature
# ---------------------------------------------------------------------------


def test_signatures_of_standard_lattices():
    assert signature(H) == (1, 1)
    assert signature(E8) == (8, 0)
    assert signature(K3) == (19, 3)
    assert signature(rank_one(-4)) == (0, 1)


def test_signature_rejects_degenerate():
    degenerate = QuadLattice(IntMatrix.from_rows([[0, 0], [0, 0]]))
    with pytest.raises(PreconditionError):
        signature(degenerate)


def _descartes_signature(gram):
    """(positive, negative) eigenvalue counts of a symmetric integer matrix, or
    None when it is singular.  Descartes' rule of signs on the characteristic
    polynomial, computed by Faddeev–LeVerrier, is exact since every root is
    real."""
    n = len(gram)
    c = [0] * n + [1]  # c[k] is the coefficient of x^k in det(x·I - A)
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [
            [sum(gram[i][t] * M[t][j] for t in range(n)) + (c[n - k + 1] if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        c[n - k] = -sum(gram[i][t] * M[t][i] for i in range(n) for t in range(n)) // k
    if c[0] == 0:
        return None

    def changes(coeffs):
        signs = [x > 0 for x in coeffs if x]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return changes(c), changes([x * (-1) ** k for k, x in enumerate(c)])


def test_signature_matches_descartes_rule_on_the_characteristic_polynomial():
    rng = random.Random(11)
    forms = [direct_sum(H, H), QuadLattice([[0, 1, 1], [0, 0, 1], [0, 0, 0]])]
    for n in range(10):
        for _ in range(30):
            hollow = rng.random() < 0.3  # every diagonal entry 0
            forms.append(QuadLattice([
                [0 if j < i or (hollow and i == j) else rng.randint(-3, 3) for j in range(n)]
                for i in range(n)
            ]))
        # degenerate: the form of r < n vectors, S·D·Sᵀ
        r = rng.randrange(n) if n else 0
        S = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
        D = [rng.choice([-2, -1, 1, 3]) for _ in range(r)]
        G = [[sum(S[i][t] * D[t] * S[j][t] for t in range(r)) for j in range(n)] for i in range(n)]
        forms.append(QuadLattice([[G[i][j] if i == j else 2 * G[i][j] if j > i else 0 for j in range(n)] for i in range(n)]))
    degenerate = 0
    for L in forms:
        expected = _descartes_signature(L.gram().entries)
        if expected is None:
            degenerate += 1
            with pytest.raises(PreconditionError, match="^signature of a degenerate form$"):
                signature(L)
        else:
            assert signature(L) == expected, L.half_gram.entries
    assert degenerate > 10 and len(forms) - degenerate > 200


def _random_unimodular(n, rng):
    T = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for t in range(n):
            T[t][j] += c * T[t][i]
    return IntMatrix.from_rows(T)


def _change_basis(L, T):
    G = T.transpose() @ L.gram() @ T
    n = L.rank
    half = [
        [
            G.entries[i][i] // 2
            if i == j
            else (G.entries[i][j] if j > i else 0)
            for j in range(n)
        ]
        for i in range(n)
    ]
    return QuadLattice(IntMatrix.from_rows(half))


def test_signature_invariant_under_unimodular_change():
    rng = random.Random(7)
    for L in (H, direct_sum(H, rank_one(3)), E8):
        expected = signature(L)
        for _ in range(5):
            T = _random_unimodular(L.rank, rng)
            assert abs(T.det()) == 1
            assert signature(_change_basis(L, T)) == expected


# ---------------------------------------------------------------------------
# complements and discriminant groups
# ---------------------------------------------------------------------------


def test_complement_of_first_plane_in_h_h():
    L = direct_sum(H, H)
    S = Sublattice(L, IntMatrix.from_columns([(1, 0, 0, 0), (0, 1, 0, 0)]))
    C = orthogonal_complement(L, S)
    assert lattice_cols(C) == [(0, 0, 1, 0), (0, 0, 0, 1)]


def test_complement_of_the_zero_sublattice_is_the_whole_lattice():
    L = direct_sum(H, H)
    C = orthogonal_complement(L, Sublattice(L, IntMatrix.zero(4, 0)))
    assert C.basis == IntMatrix.identity(4)


def lattice_cols(S):
    return S.basis.columns()


def test_complement_of_polarization_vector():
    # xi = e - d*f on the first plane of the rank-22 unimodular lattice
    for d, torsion in ((1, (2,)), (2, (4,))):
        xi = (1, -d) + (0,) * 20
        S = Sublattice(K3, IntMatrix.from_columns([xi]))
        C = orthogonal_complement(K3, S)
        assert C.rank == 21
        assert signature(restricted_lattice(C)) == (19, 2)
        assert discriminant_group(restricted_lattice(C)).torsion == torsion
        _, summand = saturate(22, C.basis)
        assert summand


def test_discriminant_groups():
    assert discriminant_group(H) == AbelianQuotient(0, ())
    assert discriminant_group(E8) == AbelianQuotient(0, ())
    assert discriminant_group(K3) == AbelianQuotient(0, ())
    for d in (1, 2, 5):
        assert discriminant_group(rank_one(d)).torsion == (2 * d,)


def test_discriminant_order_equals_det():
    for L in (rank_one(3), direct_sum(rank_one(1), rank_one(2)), QuadLattice(H.half_gram.scale(2))):
        assert discriminant_group(L).order() == abs(L.gram().det())


def test_restricted_lattice_restricts_form():
    L = direct_sum(H, H)
    S = Sublattice(L, IntMatrix.from_columns([(1, 1, 0, 0), (0, 0, 1, 1)]))
    R = restricted_lattice(S)
    assert R.gram().entries == ((2, 0), (0, 2))
    assert quad_value(R, (1, 0)) == quad_value(L, (1, 1, 0, 0))


# ---------------------------------------------------------------------------
# the form on a basis against the dense product Sᵀ·B·S
# ---------------------------------------------------------------------------


def _dense_half_gram(L, cols, d):
    """Oracle: G = Sᵀ·B·S as two dense products, read as the half-Gram of
    Q/d (G_ij/d above the diagonal, G_ii/2/d on it), or None."""
    S = IntMatrix.from_columns(cols, rows=L.rank)
    G = (S.transpose() @ L.gram() @ S).entries
    k = len(cols)
    hg = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            x = G[i][i] // 2 if j == i else G[i][j]
            if x % d:
                return None
            hg[i][j] = x // d
    return tuple(map(tuple, hg))


def _column_sets(L, p, seed):
    """Seeded column sets of L: small entries, multiples of p and of p²
    (so that d = p² and p⁴ can divide), zero columns, and the empty set."""
    rng = random.Random(seed)
    n = L.rank
    sets = [[], [(0,) * n], [(0,) * n] * 3]
    for k in (1, 2, 3, 5):
        for scale in (1, p, p * p):
            for _ in range(4):
                cols = [tuple(scale * rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
                if rng.random() < 0.3:
                    cols[rng.randrange(k)] = (0,) * n
                sets.append(cols)
        # one column not a multiple of p among multiples of p²
        cols = [tuple(p * p * rng.randint(-2, 2) for _ in range(n)) for _ in range(k)]
        cols[-1] = tuple(rng.randint(-2, 2) for _ in range(n))
        sets.append(cols)
    return sets


@pytest.mark.parametrize("name, L", [("H⊥E8", direct_sum(H, E8)), ("K3", K3)])
@pytest.mark.parametrize("p", [2, 3])
def test_basis_half_gram_matches_the_dense_product(name, L, p):
    outcomes = {d: set() for d in (1, p * p, p**4)}
    for seed in range(3):
        for cols in _column_sets(L, p, seed):
            for d in outcomes:
                hg = basis_half_gram(L, cols, d)
                want = _dense_half_gram(L, cols, d)
                assert hg == want, (cols, d)
                outcomes[d].add(hg is None)
    assert outcomes[1] == {False}
    assert outcomes[p * p] == outcomes[p**4] == {False, True}


@pytest.mark.parametrize("p", [2, 3])
def test_basis_half_gram_returns_none_at_the_first_fractional_entry(p):
    HE8 = direct_sum(H, E8)
    e = IntMatrix.identity(HE8.rank).columns()
    # off the diagonal only: Q(p·e1) = Q(f1) = 0, [p·e1, f1] = p
    assert basis_half_gram(HE8, [tuple(p * x for x in e[0]), e[1]], p * p) is None
    # on the diagonal only: Q(p·r) = p² for an E8 root r, and [p·r, p·e1] = 0
    pr = tuple(p * x for x in e[2])
    assert basis_half_gram(HE8, [tuple(p * x for x in e[0]), pr], p * p) == ((0, 0), (0, 1))
    assert basis_half_gram(HE8, [tuple(p * x for x in e[0]), pr], p**4) is None
    assert basis_half_gram(HE8, [], p * p) == ()
    assert basis_half_gram(HE8, [(0,) * HE8.rank] * 2, p**4) == ((0, 0), (0, 0))


def test_basis_half_gram_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(PreconditionError, match="vector length does not match lattice rank"):
        basis_half_gram(H, [(1, 0), (1, 0, 0)])


def test_sublattice_rejects_dependent_columns():
    with pytest.raises(PreconditionError):
        Sublattice(H, IntMatrix.from_columns([(1, 0), (2, 0)]))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_k3_lattice_shape():
    assert K3.rank == 22
    assert abs(K3.gram().det()) == 1


def test_e8_shape():
    assert E8.rank == 8
    # basis vectors are roots: Q = 1, bilinear square 2
    assert all(quad_value(E8, col) == 1 for col in IntMatrix.identity(8).columns())


def test_rank_one_rejects_zero():
    with pytest.raises(PreconditionError):
        rank_one(0)


def test_half_gram_must_be_upper_triangular():
    with pytest.raises(PreconditionError):
        QuadLattice(IntMatrix.from_rows([[0, 0], [1, 0]]))
    with pytest.raises(PreconditionError):
        QuadLattice(IntMatrix.from_rows([[1, 2, 3]]))
