"""Quadratic spaces over F_p: decomposition, quadrics, witnesses, spinor norms."""

import math
import random
import re
import sys
import time
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlat import (
    FpIsometry,
    FpQuadSpace,
    InvariantViolationError,
    PreconditionError,
    ProjLine,
    SizeGuardError,
    dickson_invariant,
    enumerate_isotropic_lines,
    find_isotropic_vector,
    isotropic_generators,
    k3_lattice,
    line_sort_key,
    reduction,
    reflection,
    reflection_factorization,
    so_order,
    spinor_norm,
    stabilizer_orbit,
    witt_decomposition,
    witt_extension,
)
from qlat import kernels, modp
from qlat.fp_quadratic import (
    _eichler_matrix,
    _reflection_matrix,
    _witt_map,
    closed_form_line_count,
    half_gram_on,
    isotropic_lines_in,
    perp_basis,
)
from isometry_oracle import all_isometries_bruteforce


def hyperbolic(p, m):
    """H^m over F_p as an upper-triangular half-Gram."""
    n = 2 * m
    half = [[0] * n for _ in range(n)]
    for i in range(m):
        half[2 * i][2 * i + 1] = 1
    return FpQuadSpace(p, tuple(tuple(r) for r in half))


def diag_space(p, *qs):
    n = len(qs)
    half = [[qs[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return FpQuadSpace(p, tuple(tuple(r) for r in half))


@pytest.mark.parametrize(
    "rows, bad",
    [(((1.9, True), (0, Fraction(7, 2))), 1.9), (((1, 0), (0, Fraction(7, 2))), Fraction(7, 2)),
     (((1, True), (0, 1)), True)],
    ids=["float", "fraction", "bool"],
)
def test_a_space_rejects_non_integer_entries(rows, bad):
    # truncating ((1.9, True), (0, 7/2)) would give the half-Gram ((1, 1), (0, 0))
    with pytest.raises(PreconditionError, match=f"^non-integer entry {re.escape(repr(bad))}$"):
        FpQuadSpace(3, rows)
    assert FpQuadSpace(3, [[4, -1], [0, 3]]).half_gram == ((1, 2), (0, 0))


# ---------------------------------------------------------------------------
# isotropic vectors
# ---------------------------------------------------------------------------


def test_find_isotropic_vector_on_h():
    assert find_isotropic_vector(hyperbolic(3, 1)) == (1, 0)


def test_find_isotropic_vector_anisotropic_plane():
    assert find_isotropic_vector(diag_space(3, 1, 1)) is None


def test_find_isotropic_vector_conic():
    V = diag_space(3, 1, 1, 1)
    v = find_isotropic_vector(V)
    assert v == (1, 1, 1)
    assert V.q(v) == 0


LARGE_P = 1000003  # prime, 3 mod 4; its projective plane exceeds the search guard
LARGE_P_NONSQUARE = 2  # since LARGE_P is 3 mod 8


def _assert_normalized_isotropic(V, v):
    assert v is not None and any(v) and V.q(v) == 0
    assert next(x for x in v if x) == 1


def test_isotropic_vector_beyond_the_exhaustive_guard():
    p = LARGE_P
    assert pow(LARGE_P_NONSQUARE, (p - 1) // 2, p) == p - 1
    V = diag_space(p, 1, 1, 1)
    _assert_normalized_isotropic(V, find_isotropic_vector(V))
    assert so_order(V) == p * (p * p - 1)


@pytest.mark.parametrize(
    "qs, witt_index, aniso_dim",
    [
        ((1, 1, 1, 1), 2, 0),  # discriminant 1 is a square: split
        ((1, 1, 1, LARGE_P_NONSQUARE), 1, 2),  # nonsquare discriminant: non-split
        ((1, 1, 1, 1, 1), 2, 1),
    ],
)
def test_witt_types_beyond_the_exhaustive_guard(qs, witt_index, aniso_dim):
    from qlat.verify import closed_form_line_count

    p = LARGE_P
    V = diag_space(p, *qs)
    pairs, aniso, rad = witt_decomposition(V)
    assert (len(pairs), len(aniso), rad) == (witt_index, aniso_dim, ())
    _check_witt(V, pairs, aniso, rad)
    lines, order = {
        (2, 0): ((p + 1) ** 2, p**2 * (p**2 - 1) ** 2),
        (1, 2): (p**2 + 1, p**2 * (p**2 + 1) * (p**2 - 1)),
        (2, 1): (p**3 + p**2 + p + 1, p**4 * (p**2 - 1) * (p**4 - 1)),
    }[witt_index, aniso_dim]
    assert closed_form_line_count(V) == lines
    assert so_order(V) == order


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 6), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
)
def test_isotropic_vector_agrees_with_exhaustive_search(p, rows):
    n = len(rows)
    V = FpQuadSpace(p, [[rows[i][j] if j >= i else 0 for j in range(n)] for i in range(n)])
    exists = any(V.q(v) == 0 for v in kernels.proj_reps(p, n))
    v = find_isotropic_vector(V)
    assert (v is not None) == exists
    if v is not None:
        _assert_normalized_isotropic(V, v)


# ---------------------------------------------------------------------------
# Witt decomposition
# ---------------------------------------------------------------------------


def _check_witt(V, pairs, aniso, rad):
    blocks = [u for pair in pairs for u in pair] + list(aniso) + list(rad)
    span_rank = len({tuple(r) for r in _rref(blocks, V.p)})
    for u, v in pairs:
        assert V.q(u) == 0 and V.q(v) == 0 and V.b(u, v) == 1
    for i, x in enumerate(blocks):
        pass
    # blockwise orthogonality
    flat_pairs = [u for pair in pairs for u in pair]
    for i, (u, v) in enumerate(pairs):
        for j, (u2, v2) in enumerate(pairs):
            if i != j:
                for a in (u, v):
                    for b in (u2, v2):
                        assert V.b(a, b) == 0
        for a in (u, v):
            for w in aniso:
                assert V.b(a, w) == 0
    return len(blocks)


def _rref(rows, p):
    rows = [list(r) for r in rows]
    out = []
    for r in rows:
        for o in out:
            lead = next(i for i, x in enumerate(o) if x)
            if r[lead]:
                c = r[lead] * pow(o[lead], -1, p)
                r = [(a - c * b) % p for a, b in zip(r, o)]
        if any(r):
            out.append([x % p for x in r])
    return out


def test_witt_h_h():
    V = hyperbolic(3, 2)
    pairs, aniso, rad = witt_decomposition(V)
    assert len(pairs) == 2 and aniso == () and rad == ()
    assert _check_witt(V, pairs, aniso, rad) == 4


def test_witt_conic_f3():
    V = diag_space(3, 1, 1, 1)
    pairs, aniso, rad = witt_decomposition(V)
    assert len(pairs) == 1 and len(aniso) == 1 and rad == ()
    _check_witt(V, pairs, aniso, rad)
    # the anisotropic kernel really is anisotropic
    (w,) = aniso
    for c in range(1, 3):
        assert V.q([c * x % 3 for x in w]) != 0


def test_witt_char2_square_line():
    V = diag_space(2, 1)
    pairs, aniso, rad = witt_decomposition(V)
    assert pairs == () and len(rad) == 1


# ---------------------------------------------------------------------------
# isotropic line enumeration
# ---------------------------------------------------------------------------


def test_lines_of_h():
    V = hyperbolic(2, 1)
    lines = enumerate_isotropic_lines(V)
    assert [l.generator for l in lines] == [(1, 0), (0, 1)]
    assert isotropic_generators(V) == [(1, 0), (0, 1)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lines_of_h2_squared_count(p):
    assert len(enumerate_isotropic_lines(hyperbolic(p, 2))) == (p + 1) ** 2


def test_lines_of_conic_f3():
    assert len(enumerate_isotropic_lines(diag_space(3, 1, 1, 1))) == 4


def test_lines_are_canonically_sorted_and_deterministic():
    V = hyperbolic(3, 2)
    lines = enumerate_isotropic_lines(V)
    assert list(lines) == sorted(lines, key=line_sort_key)
    assert lines == enumerate_isotropic_lines(V)


def test_line_guard():
    V = hyperbolic(5, 3)
    with pytest.raises(SizeGuardError):
        enumerate_isotropic_lines(V, max_points=10)
    with pytest.raises(SizeGuardError):
        isotropic_generators(V, max_points=10)


def _span_bases(p, rng):
    """Bases of spans in H⊥H⊥H: fixed ones, then seeded ones of 0–6 vectors.

    ⟨e1, e2, e3⟩ is totally singular, ⟨e1, e2, f2⟩ degenerate with radical
    ⟨e1⟩, ⟨e1 + f1, e2 + f2⟩ is x² + y² (degenerate at p = 2), and
    (f1, f1, f2) is a dependent basis.
    """
    e = [tuple(int(k == i) for k in range(6)) for i in range(6)]  # e1, f1, e2, f2, e3, f3
    yield []
    yield [e[0], e[2], e[4]]
    yield [e[0], e[2], e[3]]
    yield [tuple(a + b for a, b in zip(e[0], e[1])), tuple(a + b for a, b in zip(e[2], e[3]))]
    yield [e[1], e[1], e[3]]
    yield e
    for k in range(7):
        for _ in range(4):
            yield [tuple(rng.randrange(p) for _ in range(6)) for _ in range(k)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_isotropic_lines_in_matches_the_filtered_full_sweep(p):
    V = hyperbolic(p, 3)
    every = enumerate_isotropic_lines(V)
    for basis in _span_bases(p, random.Random(p)):
        r = modp.rank(basis, p)
        inside = tuple(l for l in every if modp.rank([*basis, l.generator], p) == r)
        got = isotropic_lines_in(V, basis, max_points=(p**r - 1) // (p - 1))
        assert got == inside, basis
    with pytest.raises(SizeGuardError):
        isotropic_lines_in(V, [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)], max_points=p)


def test_projline_normalization():
    V = hyperbolic(5, 1)
    assert ProjLine(V, (2, 3)).generator == ProjLine(V, (4, 6)).generator
    with pytest.raises(PreconditionError):
        ProjLine(V, (0, 0))


# ---------------------------------------------------------------------------
# Witt extension
# ---------------------------------------------------------------------------


def test_extension_of_identity_is_identity():
    V = hyperbolic(3, 2)
    g = witt_extension(V, [(1, 0, 0, 0)], [(1, 0, 0, 0)])
    assert g.matrix == tuple(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
    )


def test_extension_between_isotropic_lines_f3():
    V = hyperbolic(3, 2)
    e1, e2 = (1, 0, 0, 0), (0, 0, 1, 0)
    g = witt_extension(V, [e1], [e2])
    assert g.apply(e1) == e2
    assert g.is_special()


def test_extension_char2_unit_vector():
    V = hyperbolic(2, 2)
    u1, u2 = (1, 1, 0, 0), (0, 0, 1, 1)  # both have Q = 1
    g = witt_extension(V, [u1], [u2])
    assert g.apply(u1) == u2
    assert g.is_special()


def test_extension_rejects_non_isometry():
    V = hyperbolic(3, 2)
    with pytest.raises(PreconditionError):
        witt_extension(V, [(1, 0, 0, 0)], [(1, 1, 0, 0)])  # Q: 0 vs 1


def test_extension_onto_a_reordered_basis():
    V = hyperbolic(3, 3)
    W1 = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)]
    W2 = [(0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)]
    # the W1 basis goes to (second basis vector, first basis vector) of W2
    g = witt_extension(V, W1, [W2[1], W2[0]])
    assert g.apply(W1[0]) == W2[1]
    assert g.apply(W1[1]) == W2[0]
    assert g.is_special()


def test_cross_ruling_lagrangian_has_no_special_witness():
    """Maximal totally isotropic planes of a split 4-space fall into two
    families; a map across families genuinely admits no special witness."""
    V = hyperbolic(2, 2)
    e1, f1, e2, f2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    with pytest.raises(InvariantViolationError):
        witt_extension(V, [e1, e2], [e1, f2])  # intersection dim 1: crossed


def test_same_ruling_lagrangian_extends():
    V = hyperbolic(2, 2)
    e1, f1, e2, f2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    g = witt_extension(V, [e1, e2], [f1, f2])  # disjoint spans: same family
    assert g.apply(e1) == f1 and g.apply(e2) == f2
    assert g.is_special()


def test_ruling_lookup_not_poisoned_by_earlier_seed():
    """Regression: the cached orbit index must be rebuilt for a query tuple
    from the other family, not report a spurious obstruction."""
    V = hyperbolic(2, 2)
    e1, f1, e2, f2 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    # first query seeds the type's index with a tuple from one family
    witt_extension(V, [e1, e2], [e1, e2])
    # (e1, f2) spans a plane in the other family; (e2, f1) is in that same
    # family (the spans are disjoint), so this extension must succeed
    g = witt_extension(V, [e1, f2], [e2, f1])
    assert g.apply((1, 0, 0, 0)) == (0, 0, 1, 0)
    assert g.is_special()


def test_cross_ruling_parity_over_f3():
    V = hyperbolic(3, 2)
    e1, e2, f2 = (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    with pytest.raises(InvariantViolationError):
        witt_extension(V, [e1, e2], [e1, f2])


@pytest.mark.parametrize("p", [2, 3])
def test_rulings_of_a_large_split_space_are_decided_before_any_tree(p):
    # |O(V)| is 24,261,120 for H⊥H⊥H over F_3; the parities of two direct
    # maps decide a cross-ruling image without enumerating any of it
    V = hyperbolic(p, 3)
    e1, f1, e2, f2, e3, f3 = (tuple(int(i == j) for i in range(6)) for j in range(6))
    X = [e1, e2, e3]
    start = time.perf_counter()
    with pytest.raises(InvariantViolationError, match="different special-orthogonal orbits"):
        witt_extension(V, X, [e1, e2, f3])  # the spans meet in a plane
    assert time.perf_counter() - start < 1.0
    for Y in ([f1, f2, e3], [e2, e1, e3], [e1, f2, f3]):  # meets of even codimension
        g = witt_extension(V, X, Y)
        assert g.is_special() and [g.apply(x) for x in X] == Y
        assert g == FpIsometry(V, g.matrix)


# ---------------------------------------------------------------------------
# reflections, transvections, Dickson invariant
# ---------------------------------------------------------------------------


def test_reflection_formula_on_h():
    V = hyperbolic(3, 1)
    tau = reflection(V, (1, 1))  # Q(e+f) = 1
    assert tau.apply((1, 0)) == (0, 2)  # e -> -f mod 3


def test_reflection_rejects_isotropic_vector():
    with pytest.raises(PreconditionError):
        reflection(hyperbolic(3, 1), (1, 0))


def test_transvection_fixes_its_vector_and_is_special():
    V = hyperbolic(3, 2)
    u, w = (1, 0, 0, 0), (0, 0, 1, 0)
    E = FpIsometry(V, _eichler_matrix(V, u, w))
    assert E.apply(u) == u
    assert E.is_special()


def test_composite_of_two_reflections_is_special():
    V = hyperbolic(3, 2)
    g = reflection(V, (1, 1, 0, 0)) @ reflection(V, (0, 0, 1, 1))
    assert g.is_special()
    assert not reflection(V, (1, 1, 0, 0)).is_special()


def test_dickson_values_char2():
    V = hyperbolic(2, 2)
    ident = tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4))
    assert dickson_invariant(V, ident) == 0
    tau = reflection(V, (1, 1, 0, 0))
    assert dickson_invariant(V, tau.matrix) == 1


def test_isometry_validation():
    V = hyperbolic(3, 1)
    with pytest.raises(PreconditionError):
        FpIsometry(V, ((1, 1), (0, 1)))  # shears e+f to the e side: not isometric


# ---------------------------------------------------------------------------
# spinor norm
# ---------------------------------------------------------------------------


def test_spinor_norm_of_identity_is_trivial():
    V = hyperbolic(3, 2)
    ident = FpIsometry(V, tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4)))
    assert spinor_norm(V, ident) == 1


def test_spinor_norm_of_reflection_is_its_value():
    V = hyperbolic(3, 1)
    assert spinor_norm(V, reflection(V, (1, 1))) == 1  # Q = 1, a square
    assert spinor_norm(V, reflection(V, (1, 2))) == -1  # Q = 2, non-square mod 3


def test_spinor_norm_of_minus_identity_on_h_f3():
    V = hyperbolic(3, 1)
    minus = FpIsometry(V, ((2, 0), (0, 2)))
    assert spinor_norm(V, minus) == -1


def test_spinor_norm_rejects_char2():
    V = hyperbolic(2, 1)
    with pytest.raises(PreconditionError):
        spinor_norm(V, FpIsometry(V, ((1, 0), (0, 1))))


def test_spinor_norm_multiplicative():
    V = hyperbolic(5, 2)
    rng = random.Random(11)
    aniso = [
        v
        for v in [(a, b, c, d) for a in range(5) for b in range(5) for c in range(5) for d in range(5)]
        if V.q(v) != 0
    ]
    for _ in range(100):
        g = reflection(V, rng.choice(aniso)) @ reflection(V, rng.choice(aniso))
        h = reflection(V, rng.choice(aniso)) @ reflection(V, rng.choice(aniso))
        assert spinor_norm(V, g @ h) == spinor_norm(V, g) * spinor_norm(V, h)


def test_reflection_factorization_reconstructs():
    V = hyperbolic(3, 2)
    g = (
        reflection(V, (1, 1, 0, 0))
        @ reflection(V, (0, 0, 1, 2))
        @ reflection(V, (1, 1, 1, 0))
    )
    vs = reflection_factorization(V, g)
    acc = FpIsometry(V, tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4)))
    for v in vs:
        acc = acc @ reflection(V, v)
    assert acc.matrix == g.matrix
    assert len(vs) <= 2 * V.dim


def _legendre_product(V, vectors):
    return math.prod(modp.legendre(V.q(v), V.p) for v in vectors)


def test_spinor_norm_answers_promptly_on_large_spaces():
    # a projective scan of these spaces would walk 10^10 or more points
    rng = random.Random(0)
    for V in (diag_space(LARGE_P, 1, 1, 1), reduction(k3_lattice(), 3), reduction(k3_lattice(), LARGE_P)):
        vectors = []
        while len(vectors) < 3:
            v = tuple(rng.randrange(V.p) for _ in range(V.dim))
            if V.q(v):
                vectors.append(v)
        for count in (1, 2, 3):
            g = reflection(V, vectors[0])
            for v in vectors[1:count]:
                g = g @ reflection(V, v)
            start = time.perf_counter()
            assert spinor_norm(V, g) == _legendre_product(V, vectors[:count])
            assert time.perf_counter() - start < 1.0
        assert reflection_factorization(V, modp.identity(V.dim)) == []


def _random_nondegenerate_space(p, n, rng):
    while True:
        V = FpQuadSpace(p, [[rng.randrange(p) if j >= i else 0 for j in range(n)] for i in range(n)])
        if V.is_nondegenerate():
            return V


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_reflection_factorization_differential(p):
    rng = random.Random(p)
    for trial in range(60):
        # on H⊥H every basis vector is isotropic, so the first pivot is a sum u + t
        V = hyperbolic(p, 2) if trial % 4 == 0 else _random_nondegenerate_space(p, rng.randint(2, 6), rng)
        n = V.dim
        vectors = [
            next(v for v in iter(lambda: tuple(rng.randrange(p) for _ in range(n)), None) if V.q(v))
            for _ in range(rng.randint(0, 2 * n))
        ]
        g = modp.identity(n)
        for v in vectors:
            g = modp.mat_mul(g, reflection(V, v).matrix, p)
        vs = reflection_factorization(V, g)
        acc = modp.identity(n)
        for v in vs:
            acc = modp.mat_mul(acc, reflection(V, v).matrix, p)
        assert acc == g
        assert len(vs) <= 2 * n
        assert spinor_norm(V, g) == _legendre_product(V, vectors)


# ---------------------------------------------------------------------------
# group orders and orbits
# ---------------------------------------------------------------------------


def test_so_orders_match_brute_force():
    cases = [
        (hyperbolic(2, 1), 1),
        (hyperbolic(3, 1), 2),
        (hyperbolic(2, 2), 36),
        (diag_space(3, 1, 1, 1), 24),
        (diag_space(3, 1, 1), 4),  # anisotropic norm form of F_9
    ]
    for V, expected in cases:
        assert so_order(V) == expected
        brute = all_isometries_bruteforce(V)
        assert sum(FpIsometry(V, g).is_special() for g in brute) == expected


def test_stabilizer_orbit_trivial_universe():
    V = hyperbolic(2, 3)
    lines = enumerate_isotropic_lines(V)
    seed = lines[0]
    orbit = stabilizer_orbit(V, [(1, 1, 0, 0, 0, 0)], seed, (seed,))
    assert orbit == (seed,)


def test_stabilizer_orbit_rejects_anisotropic_seed():
    V = hyperbolic(3, 2)
    bad = ProjLine(V, (1, 1, 0, 0))  # Q = 1
    with pytest.raises(PreconditionError):
        stabilizer_orbit(V, [(1, 1, 0, 0)], bad, enumerate_isotropic_lines(V))


def test_stabilizer_orbit_rejects_inputs_outside_its_space():
    V = hyperbolic(3, 2)
    lines = enumerate_isotropic_lines(V)
    stranger = enumerate_isotropic_lines(hyperbolic(3, 3))[0]
    with pytest.raises(PreconditionError, match="universe line"):
        stabilizer_orbit(V, [(1, 1, 0, 0)], lines[0], lines + (stranger,))
    with pytest.raises(PreconditionError, match="W vector has wrong dimension"):
        stabilizer_orbit(V, [(1, 1, 0)], lines[0], lines)
    odd = FpQuadSpace(2, ((0, 1, 0), (0, 0, 0), (0, 0, 1)))  # H ⊥ ⟨x²⟩: B is degenerate
    seed = enumerate_isotropic_lines(odd)[0]
    with pytest.raises(PreconditionError, match="nondegenerate"):
        stabilizer_orbit(odd, [], seed, [seed])


@pytest.mark.parametrize(
    "call",
    [
        lambda V: witt_extension(V, [(1, 0, 0)], [(0, 0, 1)]),
        lambda V: witt_extension(V, [(1, 0, 0, 0, 5)], [(1, 0, 0, 0, 0)]),
        lambda V: reflection(V, (1, 1, 0)),
        lambda V: isotropic_lines_in(V, [(1, 0, 0)]),
    ],
    ids=["witt-short", "witt-long", "reflection", "lines-in"],
)
def test_vectors_of_the_wrong_length_are_input_errors(call):
    with pytest.raises(PreconditionError, match="has wrong dimension"):
        call(hyperbolic(3, 2))


def _stabilizer_generators_with_repeats(V, W):
    """The reflections and Eichler transvections fixing W, repeats kept."""
    p, n = V.p, V.dim
    B = V.gram()
    perp = modp.kernel_basis([modp.mat_vec(B, w, p) for w in W], p, n)
    gens, iso_dirs = [], []
    for coeffs in kernels.proj_reps(p, len(perp)):
        v = tuple(sum(c * b[i] for c, b in zip(coeffs, perp)) % p for i in range(n))
        if V.q(v) == 0:
            iso_dirs.append(v)
        elif p != 2 or any(modp.mat_vec(B, v, p)):
            gens.append(reflection(V, v).matrix)
    for u in iso_dirs:
        rows = [modp.mat_vec(B, w, p) for w in W] + [modp.mat_vec(B, u, p)]
        for w in modp.kernel_basis(rows, p, n):
            E = FpIsometry(V, _eichler_matrix(V, u, w)).matrix
            if E != modp.identity(n):
                gens.append(E)
    return gens


@pytest.mark.parametrize("p", [2, 3])
def test_stabilizer_orbit_matches_the_list_with_repeats(p):
    """The Witt-certified SO_W-orbit is the breadth-first orbit under the
    reflections and transvections fixing W.  Here the two groups have the
    same orbits: W + ⟨v⟩ has rank 2 in dimension 6, so its complement is
    not totally singular and holds the vector of a reflection that fixes W
    and v: composed with it, an odd isometry fixing W and mapping v₀ to v
    becomes an even one."""
    V = hyperbolic(p, 3)
    W = [(1, 1, 0, 0, 0, 0)]
    repeated = _stabilizer_generators_with_repeats(V, W)
    assert len(set(repeated)) < len(repeated)
    lines = enumerate_isotropic_lines(V)
    for seed in (lines[0], lines[len(lines) // 2], lines[-1]):
        orbit = stabilizer_orbit(V, W, seed, lines)
        expected = kernels.line_orbit(repeated, seed.generator, p, modp.MAX_PROJ_POINTS)
        assert [line.generator for line in orbit] == expected


def _old_orthogonal_generators(V):
    """The reflections in the anisotropic vectors of V and, at p = 2, the
    Eichler transvections: a generating set of O(V) (Cartan–Dieudonné;
    Dieudonné at p = 2)."""
    p, n = V.p, V.dim
    gens = {}
    for v in kernels.proj_reps(p, n):
        if V.q(v) != 0:
            try:
                gens[reflection(V, v).matrix] = None
            except PreconditionError:
                continue
    if p == 2:
        B = V.gram()
        for u in kernels.proj_reps(p, n):
            if V.q(u) != 0:
                continue
            for w in modp.kernel_basis([modp.mat_vec(B, u, p)], p, n):
                E = FpIsometry(V, _eichler_matrix(V, u, w))
                if E.matrix != modp.identity(n):
                    gens[E.matrix] = None
    return list(gens)


def _even_subgroup_generators(V, gens):
    """Generators of the special elements of the group ``gens`` generate.

    These have index at most 2.  With r one odd generator (if any), the
    Schreier generators are the even s, their conjugates r·s·r⁻¹, and
    s·r⁻¹ and r·s for each odd s.
    """
    p = V.p
    odd = [g for g in gens if not FpIsometry(V, g).is_special()]
    even = [g for g in gens if g not in odd]
    if not odd:
        return even
    r, r_inv = odd[0], modp.inverse(odd[0], p)
    return (
        even
        + [modp.mat_mul(modp.mat_mul(r, s, p), r_inv, p) for s in even]
        + [modp.mat_mul(s, r_inv, p) for s in odd]
        + [modp.mat_mul(r, s, p) for s in odd]
    )


def _orbit_partition(gens, V):
    p = V.p
    left = {line.generator for line in enumerate_isotropic_lines(V)}
    orbits = set()
    while left:
        seed = min(left, key=kernels.proj_key)
        orbit = frozenset(kernels.line_orbit(gens, seed, p, modp.MAX_PROJ_POINTS) if gens else [seed])
        orbits.add(orbit)
        left -= orbit
    return orbits


def _stabilizer_partition(V, W):
    """The isotropic lines of V split into ``stabilizer_orbit`` orbits."""
    lines = enumerate_isotropic_lines(V)
    left, orbits = set(lines), set()
    while left:
        seed = min(left, key=line_sort_key)
        orbit = stabilizer_orbit(V, W, seed, lines)
        assert seed in orbit
        orbits.add(frozenset(line.generator for line in orbit))
        left -= set(orbit)
    return orbits


SEVEN_W = pytest.mark.parametrize(
    "W",
    [
        [],
        [(1, 1, 0, 0)],  # anisotropic line: W^⊥ nondegenerate
        [(1, 0, 0, 0)],  # isotropic line: W^⊥ degenerate
        [(1, 0, 0, 0), (0, 1, 0, 0)],  # hyperbolic plane
        [(1, 1, 0, 0), (0, 0, 1, 1)],  # plane with an anisotropic vector basis
        [(1, 0, 0, 0), (0, 0, 1, 1)],  # degenerate plane, not totally isotropic
        [(1, 0, 0, 0), (0, 0, 1, 0)],  # totally isotropic plane
    ],
    ids=["rank0", "aniso-line", "iso-line", "hyperbolic", "aniso-plane", "degenerate", "isotropic"],
)


@SEVEN_W
@pytest.mark.parametrize("p", [2, 3, 5])
def test_builder_orbits_match_the_list_with_repeats(p, W):
    """The orbits ``stabilizer_orbit`` builds on H ⊥ H are those of the
    special elements of the group the reflections and transvections fixing
    W generate."""
    V = hyperbolic(p, 2)
    gens = _even_subgroup_generators(V, _stabilizer_generators_with_repeats(V, W))
    assert _stabilizer_partition(V, W) == _orbit_partition(gens, V)


@lru_cache(maxsize=None)
def _isometries_of_h2(p):
    return all_isometries_bruteforce(hyperbolic(p, 2))


@SEVEN_W
@pytest.mark.parametrize("p", [2, 3])
def test_stabilizer_orbit_is_the_brute_force_orbit(p, W):
    """Over every projective point as the universe, anisotropic ones
    included, the orbit of each isotropic seed is its orbit under the
    brute-force group of special isometries fixing W pointwise."""
    V = hyperbolic(p, 2)
    fixing = [
        g
        for g in _isometries_of_h2(p)
        if all(modp.mat_vec(g, w, p) == w for w in W) and FpIsometry(V, g).is_special()
    ]
    universe = [ProjLine(V, v) for v in kernels.proj_reps(p, V.dim)]
    for seed in enumerate_isotropic_lines(V):
        brute = {ProjLine(V, modp.mat_vec(g, seed.generator, p)) for g in fixing}
        assert stabilizer_orbit(V, W, seed, universe) == tuple(sorted(brute, key=line_sort_key))


@pytest.mark.parametrize("p, size", [(2, 4), (3, 9), (5, 25)])
def test_stabilizer_orbit_is_an_orbit_of_special_isometries(p, size):
    """In H ⊥ H ⊥ H with W = ⟨e1, e2⟩ the isotropic lines ⟨v⟩ with v ⊥ W
    and v ∉ W are ⟨w + e3⟩ and ⟨w + f3⟩ for w ∈ W: 2p² lines, one orbit of
    the isometries fixing W.  W + ⟨e3⟩ and W + ⟨f3⟩ are Lagrangians of
    different rulings, so no special isometry maps one onto the other, and
    the orbit of ⟨e3⟩ under SO_W is its p² lines ⟨w + e3⟩."""
    V = hyperbolic(p, 3)
    e1, f1, e2, f2, e3, f3 = _standard_basis(6)
    W = [e1, e2]
    orbit = stabilizer_orbit(V, W, ProjLine(V, e3), enumerate_isotropic_lines(V))
    assert len(orbit) == size
    assert set(orbit) == {
        ProjLine(V, [a * x + b * y + z for x, y, z in zip(e1, e2, e3)])
        for a in range(p)
        for b in range(p)
    }
    with pytest.raises(InvariantViolationError, match="different special-orthogonal orbits"):
        witt_extension(V, W + [e3], W + [f3])


@pytest.mark.parametrize(
    "p, W, seed",
    [
        (2, [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)], (0, 0, 0, 0, 1, 0)),
        (3, [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)], (0, 0, 0, 0, 1, 0)),
        (2, [(1, 1, 0, 0, 0, 0)], (0, 0, 1, 0, 0, 0)),
        (3, [(1, 2, 0, 0, 0, 0)], (0, 0, 1, 0, 0, 0)),
        (3, [(1, 0, 0, 0, 0, 0)], (0, 1, 0, 0, 0, 0)),
    ],
    ids=["lagrangian-p2", "lagrangian-p3", "aniso-p2", "aniso-p3", "paired-p3"],
)
def test_every_orbit_member_is_certified_by_a_special_witness(monkeypatch, p, W, seed):
    """Each member but the seed is certified by one ``witt_extension`` call
    of W + [v₀] onto W + [λv], whose witness is special, fixes W and sends
    v₀ to λv with ⟨λv⟩ the member."""
    from qlat import fp_quadratic

    V = hyperbolic(p, 3)
    calls, extension = [], fp_quadratic.witt_extension

    def recording(V, X, Y):
        g = extension(V, X, Y)
        calls.append((tuple(X), tuple(Y), g))
        return g

    monkeypatch.setattr(fp_quadratic, "witt_extension", recording)
    seed = ProjLine(V, seed)
    orbit = stabilizer_orbit(V, W, seed, enumerate_isotropic_lines(V))
    v0, certified = seed.generator, {}
    for X, Y, g in calls:
        assert X[-1] == v0 and X[:-1] == Y[:-1]
        assert modp.rank(list(W) + list(X[:-1]), p) == len(X) - 1 == len(W)
        assert g.is_special()
        assert all(g.apply(w) == w for w in W) and g.apply(v0) == Y[-1]
        certified[ProjLine(V, Y[-1])] = g
    assert len(calls) == len(certified)
    assert set(orbit) - {seed} <= set(certified) <= set(orbit)


@pytest.mark.parametrize("p", [2, 3])
def test_typed_lines_of_the_k3_lattice_form_one_orbit(p):
    """Twenty seeded lines ⟨v⟩ of K3 mod p with Q(v) = 0 and B(e1 + f1, v)
    nonzero lie in one orbit of the isometries fixing e1 + f1."""
    V = reduction(k3_lattice(), p)
    w = (1, 1) + (0,) * 20
    rng = random.Random(p)
    lines = set()
    while len(lines) < 20:
        v = [rng.randrange(p) for _ in range(V.dim)]
        if V.q(v) == 0 and V.b(w, v):
            lines.add(ProjLine(V, v))
    lines = tuple(sorted(lines, key=line_sort_key))
    start = time.perf_counter()
    assert stabilizer_orbit(V, [w], lines[0], lines) == lines
    assert time.perf_counter() - start < 1.0


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.sampled_from([2, 3]), st.integers(1, 2))
def test_isometries_preserve_line_counts(p, m):
    V = hyperbolic(p, m + 1)
    lines = enumerate_isotropic_lines(V)
    rng = random.Random(p * 10 + m)
    vecs = [
        v
        for v in [tuple(rng.randrange(p) for _ in range(V.dim)) for _ in range(40)]
        if V.q(v) != 0
    ]
    if not vecs:
        return
    tau = reflection(V, vecs[0])
    imgs = {ProjLine(V, tau.apply(l.generator)) for l in lines}
    assert imgs == set(lines)


# ---------------------------------------------------------------------------
# invariants kept on the space instance
# ---------------------------------------------------------------------------


def _spaces(*prime_dims):
    """The suites' nondegenerate spaces for each (p, max dim), as parameters."""
    from qlat.verify import _nondegenerate_spaces

    return [
        pytest.param(V, id=f"{name}-p{p}")
        for p, d in prime_dims
        for name, V in _nondegenerate_spaces(p, d)
    ]


@pytest.mark.parametrize("V", _spaces((2, 6), (3, 6), (5, 6)))
def test_memoized_invariants_match_a_fresh_space(V):
    untouched = FpQuadSpace(V.p, V.half_gram)
    assert repr(untouched) == repr(V)
    first = (witt_decomposition(V), so_order(V), V.gram())
    assert witt_decomposition(V) is first[0]
    assert so_order(V) == first[1]  # a closed formula, not kept on the space
    assert V.gram() is first[2]
    fresh = FpQuadSpace(V.p, V.half_gram)
    assert (witt_decomposition(fresh), so_order(fresh), fresh.gram()) == first
    assert fresh == V == untouched
    assert hash(fresh) == hash(V) == hash(untouched)
    assert repr(fresh) == repr(V) == repr(untouched)


def test_no_module_level_caches():
    from qlat import fp_quadratic

    assert not hasattr(fp_quadratic, "_GROUP_CACHE")
    assert not hasattr(fp_quadratic, "_gram_rows")
    for name, value in vars(fp_quadratic).items():
        if name.startswith("__"):
            continue
        assert not hasattr(value, "cache_info"), name
        assert not isinstance(value, (dict, list, set)), name


@pytest.mark.parametrize("p", [2, 3])
def test_witness_from_a_cached_group_is_a_brute_force_isometry(p):
    V = hyperbolic(p, 2)
    brute = all_isometries_bruteforce(V)
    special = {g for g in brute if FpIsometry(V, g).is_special()}
    assert len(brute) == 2 * so_order(V) == 2 * len(special)
    for q in range(2):
        vectors = [
            v for v in product(range(p), repeat=4) if any(v) and V.q(v) == q
        ]
        X = (vectors[0],)
        witt_extension(V, X, X)  # makes X the root of its Gram type
        assert len(V._witt_cache["types"]) == q + 1
        for y in vectors:
            g = witt_extension(V, X, (y,))
            assert g.matrix in special
            assert g.apply(X[0]) == y
    assert len(V._witt_cache["types"]) == 2


# ---------------------------------------------------------------------------
# the generators of O(V)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("V", _spaces((2, 4), (3, 4), (5, 3)))
def test_orthogonal_generators_generate_the_orthogonal_group(V):
    gens = _old_orthogonal_generators(V)
    assert len(kernels.group_closure(gens, V.p, 10**6)) == 2 * so_order(V)


@pytest.mark.parametrize("V", _spaces((2, 4), (3, 4), (5, 3)))
def test_builder_without_w_is_the_old_witt_extension_list(V):
    """With W = 0 the orbits ``stabilizer_orbit`` builds are those of SO(V),
    generated from the generators of O(V) that ``witt_extension`` once
    listed.  In dimension 2 each isotropic line is an orbit of its own."""
    gens = _even_subgroup_generators(V, _old_orthogonal_generators(V))
    assert _stabilizer_partition(V, []) == _orbit_partition(gens, V)


def _gram_data(V, T):
    return tuple(V.q(t) for t in T), tuple(V.b(a, b) for i, a in enumerate(T) for b in T[i + 1:])


def _bases_of_every_subspace(p, n, k):
    """One basis of every k-dimensional subspace of F_p^n: the canonical
    basis, or for 2k > n the kernel of each (n − k)-dimensional row space."""
    from qlat.verify import _subspace_bases

    if 2 * k <= n:
        return list(_subspace_bases(p, n, k))
    return [tuple(modp.kernel_basis(rows, p, n)) for rows in _subspace_bases(p, n, n - k)]


@pytest.mark.parametrize(
    "V, has_cross_ruling_pairs",
    [(hyperbolic(2, 2), True), (hyperbolic(3, 2), True), (diag_space(3, 1, 1, 1), False)],
    ids=["H2-p2", "H2-p3", "diag111-p3"],
)
def test_extension_exists_exactly_when_a_special_isometry_does(V, has_cross_ruling_pairs):
    """X runs over one basis of every subspace of dimension 1 <= k <= dim.
    For k <= 2, Y runs over every independent tuple with the same Gram
    data; for k >= 3, over a seeded draw of 32 of the images of X under the
    brute-force isometries.  A witness comes back exactly when a brute-force special
    isometry maps X to Y, and InvariantViolationError is raised otherwise.
    Up to codimension 2 both outcomes occur where the space has
    cross-ruling pairs; at codimension 0 the one map is the isometry itself,
    so both occur on every space."""
    p, n = V.p, V.dim
    vectors = [v for v in product(range(p), repeat=n) if any(v)]
    images, reachers = [], []
    for g in all_isometries_bruteforce(V):
        img = {v: tuple(sum(a * b for a, b in zip(row, v)) % p for row in g) for v in vectors}
        images.append(img)
        if FpIsometry(V, g).is_special():
            reachers.append(img)
    outcomes = {k: set() for k in range(1, n + 1)}
    rng = random.Random(n * p)
    for k in outcomes:
        by_gram = {}
        if k <= 2:
            for Y in product(vectors, repeat=k):
                if modp.rank(Y, p) == k:
                    by_gram.setdefault(_gram_data(V, Y), []).append(Y)
        for X in _bases_of_every_subspace(p, n, k):
            reachable = {tuple(img[x] for x in X) for img in reachers}
            if k <= 2:
                targets = by_gram[_gram_data(V, X)]
            else:
                targets = sorted({tuple(img[x] for x in X) for img in images})
                targets = rng.sample(targets, min(32, len(targets)))
            for Y in targets:
                try:
                    g = witt_extension(V, X, Y)
                except InvariantViolationError:
                    assert Y not in reachable, (X, Y)
                    outcomes[k].add("none")
                    continue
                assert Y in reachable, (X, Y)
                assert g.is_special() and [g.apply(x) for x in X] == list(Y)
                outcomes[k].add("witness")
    assert set().union(*(outcomes[k] for k in range(1, n - 1))) == (
        {"witness", "none"} if has_cross_ruling_pairs else {"witness"}
    )
    assert outcomes[n] == {"witness", "none"}


@pytest.mark.parametrize(
    "V, X, Y",
    [
        (diag_space(3, 1, 1, 1, 1, 1), [(1, 0, 0, 0, 0)], [(1, 1, 1, 1, 0)]),
        (
            diag_space(3, 1, 1, 1, 1, 1),
            [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)],
            [(1, 1, 1, 1, 0), (1, 1, 1, 0, 1)],
        ),
        (hyperbolic(2, 3), [(1, 1, 0, 0, 0, 0)], [(1, 1, 1, 1, 1, 1)]),
        (
            hyperbolic(2, 3),
            [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)],
            [(0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 1, 0)],
        ),
    ],
    ids=["diag5-p3-k1", "diag5-p3-k2", "H3-p2-k1", "H3-p2-k2"],
)
def test_extension_on_spaces_whose_group_is_large(V, X, Y):
    # O(V) has 103,680 elements for diag(1,1,1,1,1) over F_3 and 2·|SO| =
    # 1,451,520 for H⊥H⊥H over F_2; no route may materialize it
    start = time.perf_counter()
    g = witt_extension(V, X, Y)
    assert time.perf_counter() - start < 5.0
    assert g.is_special()
    assert [g.apply(x) for x in X] == [tuple(y) for y in Y]
    assert g == FpIsometry(V, g.matrix)


def _standard_basis(n):
    return [tuple(int(i == j) for i in range(n)) for j in range(n)]


def test_former_orbit_search_cases_return_witnesses_at_once():
    # O(V) has about 7·10^19 elements for H⊥H⊥H⊥H over F_5 and 24,261,120
    # for H⊥H⊥H over F_3; a witness must be built without visiting its orbits
    e1, _, e2, _, e3, _, _, _ = _standard_basis(8)
    s1, t1, s2, t2, s3, t3 = _standard_basis(6)
    for V, X, Y in [
        (hyperbolic(5, 4), [e1], [e3]),
        (hyperbolic(3, 3), [s1, s2, s3], [t3, t1, s2]),
    ]:
        start = time.perf_counter()
        g = witt_extension(V, X, Y)
        assert time.perf_counter() - start < 1.0
        assert g == FpIsometry(V, g.matrix)
        assert g.is_special() and [g.apply(x) for x in X] == Y


def test_a_subspace_containing_its_complement_forbids_odd_maps():
    # X^⊥ = <e1, e2> lies in X although X is not a Lagrangian: every
    # isometry fixing X pointwise is special, so an odd map of X has no
    # special extension and an even one has
    V = FpQuadSpace(3, ((0, 1, 0, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, 1)))
    e1, _, e2, _, u = _standard_basis(5)
    X = [e1, e2, u]
    tau, sigma = reflection(V, (1, 1, 0, 0, 0)), reflection(V, (0, 0, 1, 1, 0))
    start = time.perf_counter()
    with pytest.raises(InvariantViolationError, match="different special-orthogonal orbits"):
        witt_extension(V, X, [tau.apply(x) for x in X])
    assert time.perf_counter() - start < 1.0
    Y = [(sigma @ tau).apply(x) for x in X]
    g = witt_extension(V, X, Y)
    assert g.is_special() and [g.apply(x) for x in X] == Y


def _reflection_product(V, rng, count):
    g = modp.identity(V.dim)
    for _ in range(count):
        v = next(v for v in iter(lambda: tuple(rng.randrange(V.p) for _ in range(V.dim)), None) if V.q(v))
        g = modp.mat_mul(reflection(V, v).matrix, g, V.p)
    return g


def _totally_singular_complement(V, Y):
    perp = modp.kernel_basis([modp.mat_vec(V.gram(), y, V.p) for y in Y], V.p, V.dim)
    return all(V.q(a) == 0 for a in perp) and all(V.b(a, b) == 0 for a in perp for b in perp)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_seeded_extensions_in_dimension_8(p):
    from qlat.verify import _nondegenerate_spaces

    rng = random.Random(p)
    if p == 2:  # diagonal forms are degenerate at p = 2
        nonsplit = next(V for name, V in _nondegenerate_spaces(2, 8) if name == "nonsplit-8")
        spaces = (hyperbolic(p, 4), nonsplit)
    else:
        spaces = (hyperbolic(p, 4), diag_space(p, *(rng.randrange(1, p) for _ in range(8))))
    outcomes = set()
    for trial in range(100):
        V = spaces[trial % 2]
        k = rng.randint(1, 6)
        if trial % 2 == 0:  # images of standard basis vectors: isotropic and hyperbolic
            g1 = _reflection_product(V, rng, 3)
            X = [tuple(row[i] for row in g1) for i in sorted(rng.sample(range(8), k))]
        else:
            X = [tuple(rng.randrange(p) for _ in range(8)) for _ in range(k)]
            if modp.rank(X, p) < k:
                continue
        g0 = _reflection_product(V, rng, rng.randint(1, 4))
        Y = [modp.mat_vec(g0, x, p) for x in X]
        m, parity = _witt_map(V, X, Y)
        assert m == FpIsometry(V, m).matrix and parity == dickson_invariant(V, m)
        assert [modp.mat_vec(m, x, p) for x in X] == Y
        try:
            g = witt_extension(V, X, Y)
        except InvariantViolationError:
            assert dickson_invariant(V, g0) == 1 and _totally_singular_complement(V, Y)
            outcomes.add("none")
            continue
        assert not (dickson_invariant(V, g0) and _totally_singular_complement(V, Y))
        assert g == FpIsometry(V, g.matrix)
        assert g.is_special() and [g.apply(x) for x in X] == Y
        outcomes.add("witness")
    assert outcomes == {"witness", "none"}


# ---------------------------------------------------------------------------
# the table of validated witnesses kept on the space instance
# ---------------------------------------------------------------------------


def _witt_queries(V, k):
    """Every (X, Y) with X the first k standard basis vectors, Y isometric."""
    p, n = V.p, V.dim
    X = tuple(tuple(1 if i == j else 0 for i in range(n)) for j in range(k))
    vectors = [v for v in product(range(p), repeat=n) if any(v)]
    for Y in product(vectors, repeat=k):
        if all(V.q(y) == V.q(x) for x, y in zip(X, Y)) and all(
            V.b(Y[i], Y[j]) == V.b(X[i], X[j]) for i in range(k) for j in range(i)
        ):
            yield X, Y


@pytest.mark.parametrize("p", [2, 3])
def test_witness_table_holds_validated_special_isometries(p):
    V = hyperbolic(p, 2)
    returned = []
    for X, Y in _witt_queries(V, 1):
        returned.append(witt_extension(V, X, Y))
    table = V._witt_cache["witnesses"]
    assert len(table) >= 2
    for g in returned:
        assert table[g.matrix] is g
    for key, g in table.items():
        assert g.matrix is key
        assert g == FpIsometry(V, [list(row) for row in key])
        assert g.is_special()


def test_witness_table_returns_the_identical_object():
    V = hyperbolic(3, 2)
    X, Y = ((1, 0, 0, 0),), ((0, 0, 1, 0),)
    first = witt_extension(V, X, Y)
    size = len(V._witt_cache["witnesses"])
    again = witt_extension(V, [list(X[0])], [list(Y[0])])
    assert again is first
    assert len(V._witt_cache["witnesses"]) == size


@pytest.mark.parametrize("p", [2, 3])
def test_a_failed_extension_stores_no_witness(p):
    V = hyperbolic(p, 2)
    e1, e2, f2 = (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    witt_extension(V, [e1, e2], [e1, e2])
    before = dict(V._witt_cache["witnesses"])
    with pytest.raises(InvariantViolationError):
        witt_extension(V, [e1, e2], [e1, f2])  # across rulings
    assert V._witt_cache["witnesses"] == before


def test_suite_validates_each_witness_once(monkeypatch):
    from qlat import verify

    extension = verify.witt_extension
    post_init = FpIsometry.__post_init__
    spaces = {}
    counts = {"calls": 0, "witness validations": 0}
    inside = [False]

    def counted_extension(V, X, Y):
        if not X:  # the identity, before the cache is consulted
            return extension(V, X, Y)
        spaces[id(V)] = V
        counts["calls"] += 1
        inside[0] = True
        try:
            return extension(V, X, Y)
        finally:
            inside[0] = False

    def counted(self):
        post_init(self)
        if inside[0]:
            counts["witness validations"] += 1

    monkeypatch.setattr(verify, "witt_extension", counted_extension)
    monkeypatch.setattr(FpIsometry, "__post_init__", counted)
    monkeypatch.setattr(verify, "_usable_cores", lambda: 1)  # the counts live in this process
    report = verify.run_suite("witt-extension", primes=(2, 3), max_rank=3)
    assert report.failures == 0
    witnesses = sum(len(V._witt_cache["witnesses"]) for V in spaces.values())
    assert counts["witness validations"] == witnesses
    assert 0 < witnesses < counts["calls"]


# ---------------------------------------------------------------------------
# the row table of the current source
# ---------------------------------------------------------------------------


def _row_table_spaces(p):
    """H⊥H and the non-split space of dimension 4 over F_p."""
    from qlat.verify import _nondegenerate_spaces

    nonsplit = [V for name, V in _nondegenerate_spaces(p, 4) if name in ("nonsplit-4", "diag-4-nonsq")]
    return [hyperbolic(p, 2)] + nonsplit


def _source_runs(V):
    """(X, Ys) for X the first two canonical bases of each Gram type of
    dimension 1 or 2, and Ys every independent tuple with the Gram data of X."""
    return _source_runs_of(V.p, V.half_gram)


@lru_cache(maxsize=None)
def _source_runs_of(p, half_gram):
    from qlat.verify import _subspace_bases

    V = FpQuadSpace(p, half_gram)
    n = V.dim
    vectors = [v for v in product(range(p), repeat=n) if any(v)]
    runs = []
    for k in (1, 2):
        images = {}
        for Y in product(vectors, repeat=k):
            if modp.rank(Y, p) == k:
                images.setdefault(_gram_data(V, Y), []).append(Y)
        sources = {}
        for X in _subspace_bases(p, n, k):
            sources.setdefault(_gram_data(V, X), []).append(X)
        runs += [(X, images[key]) for key, Xs in sources.items() for X in Xs[:2]]
    return runs


def _extensions(V, X, Ys):
    """The witness of each (X, Y) that has one, and the Ys that have it."""
    out = []
    for Y in Ys:
        try:
            out.append((Y, witt_extension(V, X, Y)))
        except InvariantViolationError:  # across the rulings of two Lagrangians
            pass
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_every_witness_is_m_y_times_the_inverse_of_m_x(p):
    for V in _row_table_spaces(p):
        records = V._witt_cache["tuples"]
        for X, Ys in _source_runs(V):
            extensions = _extensions(V, X, Ys)
            inverse = modp.inverse(records[X][1], p)
            for Y, g in extensions:
                assert g.matrix == modp.mat_mul(records[Y][1], inverse, p)


@pytest.mark.parametrize("p", [2, 3])
def test_each_source_row_product_is_formed_once_per_run(monkeypatch, p):
    """A run is the calls with one source X in a row; a source met again
    after another starts a new run and forms its products again."""
    from qlat import fp_quadratic

    product_of, formed = fp_quadratic._row_product, {}
    source = [None]

    def counted(row, cols, q):
        formed[source[0], row] = formed.get((source[0], row), 0) + 1
        return product_of(row, cols, q)

    monkeypatch.setattr(fp_quadratic, "_row_product", counted)
    for V in _row_table_spaces(p):
        formed.clear()
        records = V._witt_cache["tuples"]
        runs = _source_runs(V)
        runs += runs[:1]  # the first source again, after every other
        expected = {}
        for X, Ys in runs:
            source[0] = (id(V), X)
            rows = {r for Y, _ in _extensions(V, X, Ys) for r in records[Y][1]}
            for r in rows:
                expected[source[0], r] = expected.get((source[0], r), 0) + 1
            assert V._witt_cache["rows"][0] is records[X]
        assert max(expected.values()) == 2  # the first source's second run
        assert formed == expected


@pytest.mark.parametrize("p", [2, 3])
def test_the_row_table_holds_at_most_the_nonzero_vectors(p):
    for V in _row_table_spaces(p):
        cache, bound = V._witt_cache, p**V.dim - 1
        assert cache["rows"] == (None, {})
        for X, Ys in _source_runs(V):
            for Y in Ys:
                try:
                    witt_extension(V, X, Y)
                except InvariantViolationError:
                    pass
                held, table = cache["rows"]
                assert len(table) <= bound
                assert all(any(r) and any(w) for r, w in table.items())
        assert held is cache["tuples"][X]


def _zero_first_product(monkeypatch):
    """Make the first row product ``witt_extension`` forms the zero row."""
    from qlat import fp_quadratic

    product_of, calls = fp_quadratic._row_product, [0]

    def corrupt(row, cols, p):
        calls[0] += 1
        if calls[0] == 1:
            return (0,) * len(cols)
        return product_of(row, cols, p)

    monkeypatch.setattr(fp_quadratic, "_row_product", corrupt)


@pytest.mark.parametrize("p", [2, 3])
def test_a_corrupt_witness_is_an_invariant_violation(monkeypatch, p):
    _zero_first_product(monkeypatch)
    V = hyperbolic(p, 2)
    X, Y = ((1, 0, 0, 0),), ((0, 0, 1, 0),)
    with pytest.raises(InvariantViolationError, match="^witness fails validation: isometry matrix is singular$"):
        witt_extension(V, X, Y)
    assert V._witt_cache["witnesses"] == {}
    with pytest.raises(InvariantViolationError):  # the corrupt entry stays in the table
        witt_extension(V, X, Y)


def test_a_corrupt_table_entry_fails_verify_witt_extension(monkeypatch, capsys):
    import json

    from qlat import verify
    from qlat.cli import main

    _zero_first_product(monkeypatch)
    monkeypatch.setattr(verify, "_usable_cores", lambda: 1)  # one process forms one entry
    assert main(["verify", "witt-extension", "--p", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["failures"] >= 1
    assert {d["actual"] for d in report["details"]} == {
        "InvariantViolationError: witness fails validation: isometry matrix is singular"
    }


# ---------------------------------------------------------------------------
# the per-tuple records kept on the space instance
# ---------------------------------------------------------------------------


def test_suite_checks_each_tuple_once_per_space(monkeypatch):
    """Each distinct tuple gets one Gram-type computation and at most one
    rank check per space; every record of a type holds the type's key.

    A Gram type is the form on the tuple (``_half_gram``, the core of
    ``half_gram_on``) as ``witt_extension`` or ``_witt_record`` computes
    it; the same function serves ``FpIsometry`` and the Witt
    decomposition, which are not counted.
    """
    from qlat import fp_quadratic, verify

    extension, form_on, rank = verify.witt_extension, fp_quadratic._half_gram, modp.rank
    current, spaces = [None], {}
    keys, ranks = {}, {}

    def counted_extension(V, X, Y):
        current[0] = spaces[id(V)] = V
        return extension(V, X, Y)

    def counted_key(V, vectors):
        if sys._getframe(1).f_code.co_name in ("witt_extension", "_witt_record"):
            keys[id(V), tuple(vectors)] = keys.get((id(V), tuple(vectors)), 0) + 1
        return form_on(V, vectors)

    def counted_rank(rows, p):
        if isinstance(rows, tuple):  # a tuple checked by witt_extension
            ranks[id(current[0]), rows] = ranks.get((id(current[0]), rows), 0) + 1
        return rank(rows, p)

    monkeypatch.setattr(verify, "witt_extension", counted_extension)
    monkeypatch.setattr(fp_quadratic, "_half_gram", counted_key)
    monkeypatch.setattr(modp, "rank", counted_rank)
    monkeypatch.setattr(verify, "_usable_cores", lambda: 1)
    report = verify.run_suite("witt-extension", primes=(2, 3), max_rank=3)
    assert report.failures == 0 and report.instances > len(keys)
    assert set(keys.values()) == {1} and set(ranks.values()) == {1}
    assert set(ranks) <= set(keys)
    for V in spaces.values():
        cache = V._witt_cache
        assert set(cache) == {"types", "tuples", "rows", "witnesses"}
        assert {(id(V), S) for S in cache["tuples"]} <= set(keys)
        for key, entry in cache["types"].items():
            assert len(entry) == 3 and entry[0] == key  # (key, root, flip): no maps
        for key, m, parity, _, _ in cache["tuples"].values():
            assert key is cache["types"][key][0]


def _recorded_space(p):
    """H⊥H with (e1, e2), (e1 + f1, e2) and (e1, f1) recorded: three Gram types."""
    V = hyperbolic(p, 2)
    e1, f1, e2, _ = _standard_basis(4)
    X, Yq, Yb = (e1, e2), (tuple((a + b) % p for a, b in zip(e1, f1)), e2), (e1, f1)
    for S in (X, Yq, Yb):
        witt_extension(V, S, S)
    assert {X, Yq, Yb} <= set(V._witt_cache["tuples"])
    return V, X, Yq, Yb


@pytest.mark.parametrize("p", [2, 3])
def test_recorded_tuples_are_still_checked(p):
    V, X, Yq, Yb = _recorded_space(p)
    witnesses, records = dict(V._witt_cache["witnesses"]), dict(V._witt_cache["tuples"])
    for first, second, message in [
        (X, (X[0], X[0]), "second subspace basis is dependent"),
        (X, Yq, "map does not preserve the quadratic form"),
        (Yq, X, "map does not preserve the quadratic form"),
        (X, Yb, "map does not preserve the bilinear form"),
        (Yb, X, "map does not preserve the bilinear form"),
    ]:
        with pytest.raises(PreconditionError, match=message):
            witt_extension(V, first, second)
    assert V._witt_cache["witnesses"] == witnesses
    assert V._witt_cache["tuples"] == records


@pytest.mark.parametrize("p", [2, 3])
def test_a_dependent_tuple_is_rejected_every_time(p):
    V, X, _, _ = _recorded_space(p)
    dependent = (X[0], X[0])
    for _ in range(2):
        with pytest.raises(PreconditionError, match="first subspace basis is dependent"):
            witt_extension(V, dependent, X)
        with pytest.raises(PreconditionError, match="second subspace basis is dependent"):
            witt_extension(V, X, dependent)
    assert dependent not in V._witt_cache["tuples"]


# ---------------------------------------------------------------------------
# the record lookup on the caller's tuple
# ---------------------------------------------------------------------------


def _forms(T, p):
    """T as given, as lists, as a tuple of lists, with entries moved by ±p,
    and with bool entries (T's entries are 0 or 1), which equal T's."""
    return {
        "canonical": tuple(T),
        "lists": [list(t) for t in T],
        "list-rows": tuple(list(t) for t in T),
        "shifted": tuple(tuple(x - p if j % 2 else x + p for j, x in enumerate(t)) for t in T),
        "bools": tuple(tuple(bool(x) for x in t) for t in T),
    }


def _unchecked(*values, message=None):
    raise AssertionError("a recorded tuple was checked again")


def _canonical_records(V):
    for S, record in V._witt_cache["tuples"].items():
        assert record[4] is S
        assert all(type(x) is int and 0 <= x < V.p for s in S for x in s)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "X, Y",
    [
        (((1, 0, 0, 0), (0, 0, 1, 0)), ((0, 1, 0, 0), (0, 0, 0, 1))),
        (((1, 1, 0, 0), (0, 0, 1, 0)), ((0, 0, 1, 1), (1, 0, 0, 0))),
        (((1, 1, 0, 0),), ((0, 0, 1, 1),)),
    ],
    ids=["lagrangians", "anisotropic-first", "anisotropic-line"],
)
def test_every_form_of_a_pair_gets_the_same_witness(monkeypatch, p, X, Y):
    reference = witt_extension(hyperbolic(p, 2), X, Y).matrix
    shared = hyperbolic(p, 2)
    first = witt_extension(shared, X, Y)
    forms_x, forms_y = _forms(X, p), _forms(Y, p)
    for name, fx in forms_x.items():
        fy = forms_y[name]
        fresh = hyperbolic(p, 2)
        if name == "bools":  # equal to recorded tuples, yet rejected on every space
            for V in (fresh, shared):
                with pytest.raises(PreconditionError, match=r"^non-integer entry True$"):
                    witt_extension(V, fx, fy)
            assert not fresh._witt_cache["tuples"]
            continue
        assert witt_extension(fresh, fx, fy).matrix == reference, name
        assert witt_extension(fresh, fx, fy).matrix == reference, name  # now recorded
        _canonical_records(fresh)
        assert witt_extension(shared, fx, fy) is first, name
        assert witt_extension(shared, fx, fy).matrix == reference, name
    recorded = {S: S for S in shared._witt_cache["tuples"]}
    with monkeypatch.context() as m:
        m.setattr(modp, "check_int", _unchecked)
        assert witt_extension(shared, recorded[X], recorded[Y]) is first
    _canonical_records(shared)


def test_rejected_forms_raise_as_ever_also_once_their_tuples_are_recorded():
    p = 3
    e1, f1, e2, _ = _standard_basis(4)
    h1 = tuple((a + b) % p for a, b in zip(e1, f1))
    long = (e1 + (0,),)
    cases = [
        (long, (e1,), PreconditionError, "subspace basis vector has wrong dimension"),
        ((e1,), long, PreconditionError, "subspace basis vector has wrong dimension"),
        ((e1,), (e1, e2), PreconditionError, "subspace bases have different sizes"),
        ((e1, e1), (e1, e2), PreconditionError, "first subspace basis is dependent"),
        ((e1, e2), (e2, e2), PreconditionError, "second subspace basis is dependent"),
        ((e1,), (h1,), PreconditionError, "map does not preserve the quadratic form"),
        ((e1, e2), (e1, f1), PreconditionError, "map does not preserve the bilinear form"),
        ((e1, e2), (e1, (0, 0, 0, 1)), InvariantViolationError,
         "isometric tuples lie in different special-orthogonal orbits"),
    ]
    V = hyperbolic(p, 2)

    def check_all():
        for X, Y, error, message in cases:
            for nx, fx in _forms(X, p).items():
                for ny, fy in _forms(Y, p).items():
                    # X is checked whole before Y, so only X's own error comes first
                    bad = fx if nx == "bools" else fy if ny == "bools" and X is not long else None
                    want = (error, message) if bad is None else (
                        PreconditionError, f"non-integer entry {bad[0][0]!r}")
                    with pytest.raises(want[0]) as caught:
                        witt_extension(V, fx, fy)
                    assert type(caught.value) is want[0] and str(caught.value) == want[1], (nx, ny)

    check_all()
    for X, Y, _, _ in cases:
        for S in (X, Y):
            if all(len(s) == 4 for s in S) and modp.rank(S, p) == len(S):
                witt_extension(V, S, S)
    assert {(e1,), (e1, e2), (h1,), (e1, f1)} <= set(V._witt_cache["tuples"])
    check_all()
    _canonical_records(V)


# ---------------------------------------------------------------------------
# _witt_map and its steps
# ---------------------------------------------------------------------------


def _dim4_spaces(p):
    """The split and the non-split space of dimension 4 over F_p."""
    from qlat.verify import _nondegenerate_spaces

    return [V for _, V in _nondegenerate_spaces(p, 4) if V.dim == 4]


@pytest.mark.parametrize("p", [2, 3])
def test_witt_map_starts_from_no_matrix(monkeypatch, p):
    """A tuple onto itself takes no step and is the identity; a 1-tuple
    takes at most one step, which is the map itself: neither multiplies."""

    def refuse(*args):
        raise AssertionError("modp.mat_mul ran")

    spaces = _dim4_spaces(p)
    assert len(spaces) == 2
    monkeypatch.setattr(modp, "mat_mul", refuse)
    for V in spaces:
        vectors = [v for v in product(range(p), repeat=4) if any(v)]
        for X in [(v,) for v in vectors] + _bases_of_every_subspace(p, 4, 2):
            assert _witt_map(V, X, X) == (modp.identity(4), 0)
        for x in vectors:
            for y in vectors:
                if V.q(x) == V.q(y):
                    m, parity = _witt_map(V, (x,), (y,))
                    assert modp.mat_vec(m, x, p) == y
                    assert parity == dickson_invariant(V, FpIsometry(V, m).matrix)


@pytest.mark.parametrize("p", [2, 3])
def test_reflection_and_eichler_matrices_follow_their_formulas(p):
    """Column j is the image of e_j: x − (B(x, v)/Q(v))·v for the reflection
    in v, and x + B(x, u)·w − B(x, w)·u − Q(w)·B(x, u)·u for E_{u,w}."""
    n = 4
    basis = _standard_basis(n)
    vectors = [v for v in product(range(p), repeat=n) if any(v)]
    for V in _dim4_spaces(p):
        for v in vectors:
            if not V.q(v):
                continue
            inv = modp.inv_mod(V.q(v), p)
            tau = _reflection_matrix(V, v)
            for j, x in enumerate(basis):
                image = [(x[i] - V.b(x, v) * inv * v[i]) % p for i in range(n)]
                assert [tau[i][j] for i in range(n)] == image
        for u in vectors:
            if V.q(u):
                continue
            for w in vectors:
                if V.b(u, w):
                    continue
                E = _eichler_matrix(V, u, w)
                for j, x in enumerate(basis):
                    bxu, bxw = V.b(x, u), V.b(x, w)
                    image = [(x[i] + bxu * w[i] - bxw * u[i] - V.q(w) * bxu * u[i]) % p
                             for i in range(n)]
                    assert [E[i][j] for i in range(n)] == image


# ---------------------------------------------------------------------------
# the form on a tuple, the orthogonal complement and the Witt type
# ---------------------------------------------------------------------------


def _geometry_spaces(p):
    """The zero forms of dim 0–4, seeded forms of dim 1–4 (degenerate or
    not), and in each dim 1–4 a seeded diagonal form whose last entry is 0,
    so with a radical.  At p = 2 a diagonal form has B = 0: the whole space
    is its radical, and Q is nonzero on it."""
    rng = random.Random(31 * p)
    spaces = [FpQuadSpace(p, [[0] * n for _ in range(n)]) for n in range(5)]
    for n in range(1, 5):
        for _ in range(6):
            spaces.append(FpQuadSpace(
                p, [[rng.randrange(p) if j >= i else 0 for j in range(n)] for i in range(n)]
            ))
        spaces.append(FpQuadSpace(
            p, [[rng.randrange(1, p) if i == j < n - 1 else 0 for j in range(n)] for i in range(n)]
        ))
    return spaces


def _seeded_tuples(V, rng):
    """Seeded tuples of every size 0 … dim + 1, entries moved by multiples of p."""
    p, n = V.p, V.dim
    return [
        tuple(tuple(rng.randrange(p) + p * rng.randint(-2, 2) for _ in range(n)) for _ in range(k))
        for k in range(n + 2)
        for _ in range(3)
    ]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_half_gram_on_is_the_form_on_the_tuple(p):
    rng = random.Random(p)
    for V in _geometry_spaces(p):
        for S in _seeded_tuples(V, rng):
            form = half_gram_on(V, S)
            k = len(S)
            assert len(form) == k and all(len(row) == k for row in form)
            for i in range(k):
                assert form[i][i] == V.q(S[i]) == V.q([x % p for x in S[i]])
                for j in range(k):
                    assert form[i][j] == (V.b(S[i], S[j]) if i < j else 0 if i > j else V.q(S[i]))
            assert half_gram_on(V, [list(s) for s in S]) == form
    assert half_gram_on(FpQuadSpace(p, ()), []) == ()
    # the half-Gram of a space is the form on its unit vectors
    for V in _geometry_spaces(p):
        assert half_gram_on(V, modp.identity(V.dim)) == V.half_gram


@pytest.mark.parametrize("p", [2, 3, 5])
def test_perp_basis_is_the_orthogonal_complement_by_brute_force(p):
    rng = random.Random(100 + p)
    for V in _geometry_spaces(p):
        n = V.dim
        vectors = list(product(range(p), repeat=n))
        for W in _seeded_tuples(V, rng):
            perp = perp_basis(V, W)
            rows = [modp.mat_vec(V.gram(), [x % p for x in w], p) for w in W]
            brute = {x for x in vectors if all(V.b(w, x) == 0 for w in W)}
            assert len(brute) == p ** (n - modp.rank(rows, p))
            assert len(perp) == n - modp.rank(rows, p) and modp.rank(perp, p) == len(perp)
            span = {
                tuple(sum(c * u[i] for c, u in zip(cs, perp)) % p for i in range(n))
                for cs in product(range(p), repeat=len(perp))
            }
            assert span == brute  # p^(n - rank) vectors, each pairing to zero with W
    assert perp_basis(FpQuadSpace(p, ()), []) == []


@pytest.mark.parametrize("p", [2, 3, 5])
def test_witt_type_closed_forms_keep_their_degenerate_space_messages(p):
    for V in _geometry_spaces(p):
        if V.is_nondegenerate():
            lines = len(enumerate_isotropic_lines(V))
            assert closed_form_line_count(V) == lines
            assert so_order(V) >= 1
            continue
        with pytest.raises(PreconditionError) as exc:
            so_order(V)
        assert str(exc.value) == "group order requires a nondegenerate bilinear form"
        with pytest.raises(PreconditionError) as exc:
            closed_form_line_count(V)
        assert str(exc.value) == "count formula requires a nondegenerate space"
    empty = FpQuadSpace(p, ())
    assert (so_order(empty), closed_form_line_count(empty)) == (1, 0)


def _degenerate_spaces(p, seed):
    """Seeded spaces of dim 1–5 whose form factors through F_p^k, k < dim,
    by seeded columns: the kernel of that map lies in the radical."""
    rng = random.Random(seed)
    for n in range(1, 6):
        for k in range(n):
            for _ in range(4):
                U = FpQuadSpace(p, [[rng.randrange(p) if j >= i else 0 for j in range(k)] for i in range(k)])
                cols = [tuple(rng.randrange(p) for _ in range(k)) for _ in range(n)]
                yield FpQuadSpace(p, [
                    [0] * i + [U.q(cols[i])] + [U.b(cols[i], cols[j]) for j in range(i + 1, n)]
                    for i in range(n)
                ])


def _greedy_complement(V):
    """The unit vectors e_i, in order, that raise the rank of the radical and
    the e_j kept so far: the complement the Witt decomposition once built."""
    p, n = V.p, V.dim
    stack = list(modp.kernel_basis(V.gram(), p, n))
    comp = []
    for i in range(n):
        e = tuple(1 if k == i else 0 for k in range(n))
        if modp.rank(stack + [e], p) > len(stack):
            stack.append(e)
            comp.append(e)
    return comp


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_radical_complement_is_the_greedy_one_with_no_rank_call(monkeypatch, p):
    from qlat import fp_quadratic

    spaces = list(_degenerate_spaces(p, p))
    greedy = [_greedy_complement(V) for V in spaces]
    assert all(not V.is_nondegenerate() for V in spaces)
    assert {0, 2, 4} <= {len(c) for c in greedy}  # B has even rank at p = 2

    def refuse(rows, p):
        raise AssertionError("the Witt decomposition counted a rank")

    half_gram, first = fp_quadratic._half_gram, []

    def recording(V, S):
        first.append(list(S))
        return half_gram(V, S)

    monkeypatch.setattr(modp, "rank", refuse)
    monkeypatch.setattr(fp_quadratic, "_half_gram", recording)
    for V, comp in zip(spaces, greedy):
        first.clear()
        pairs, aniso, rad = fp_quadratic._witt_decomposition(V)
        assert first[:1] == ([comp] if comp else []), V.half_gram
        assert 2 * len(pairs) + len(aniso) == len(comp)
        assert list(rad) == modp.kernel_basis(V.gram(), p, V.dim)


def test_every_record_hit_of_the_suite_is_by_identity(monkeypatch):
    """The suite hands ``witt_extension`` each X as the equal tuple among its
    images, and a canonical tuple is recorded as the caller's own object, so
    a hit never pays the entry check."""
    from qlat import fp_quadratic, verify

    record_of, hits = fp_quadratic._record_of, []

    def recording(records, basis):
        record = record_of(records, basis)
        if record is not None:
            hits.append(record[4] is basis)
        return record

    monkeypatch.setattr(fp_quadratic, "_record_of", recording)
    monkeypatch.setattr(verify, "_usable_cores", lambda: 1)
    report = verify.run_suite("witt-extension", primes=(2, 3), max_rank=3)
    assert report.failures == 0 and report.instances > 0
    assert hits and all(hits)
    V = hyperbolic(3, 2)
    X, Y = ((1, 0, 0, 0),), ((0, 0, 1, 0),)
    witt_extension(V, X, Y)
    assert V._witt_cache["tuples"][X][4] is X and V._witt_cache["tuples"][Y][4] is Y
    assert V._witt_cache["tuples"][((1, 0, 0, 0),)][4] is X
    witt_extension(V, [[4, 0, 0, 0]], Y)  # a list is reduced, never kept
    assert all(type(S) is tuple for S in V._witt_cache["tuples"])
