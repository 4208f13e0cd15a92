"""The compiled and pure-Python enumeration kernels must agree exactly.

Skipped unless the extension is built; the cases that need only the pure
kernels live in ``test_kernels_py.py``.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlat import _kernels_py as pure
from qlat import kernels

compiled = pytest.importorskip("qlat._speedups")

H = ((0, 1), (0, 0))
H2 = ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0))
CONIC = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
ANISO2 = ((1, 1), (0, 1))  # x^2 + xy + y^2, anisotropic over F_2


@pytest.mark.parametrize(
    "p,n,half_gram,count",
    [
        (2, 2, H, 2),
        (3, 2, H, 2),
        (5, 2, H, 2),
        (2, 4, H2, 9),       # (p+1)^2
        (3, 4, H2, 16),
        (3, 3, CONIC, 4),
        (2, 2, ANISO2, 0),
    ],
)
def test_isotropic_line_counts(p, n, half_gram, count):
    lines = compiled.isotropic_lines(p, n, half_gram, 10**6)
    assert len(lines) == count


@pytest.mark.parametrize(
    "p,n,half_gram",
    [(2, 2, H), (3, 2, H), (5, 2, H), (2, 4, H2), (3, 4, H2), (3, 3, CONIC)],
)
def test_isotropic_lines_identical(p, n, half_gram):
    assert pure.isotropic_lines(p, n, half_gram, 10**6) == compiled.isotropic_lines(
        p, n, half_gram, 10**6
    )


def test_isotropic_lines_sorted_lead_first():
    lines = compiled.isotropic_lines(2, 2, H, 10**6)
    assert lines == [(1, 0), (0, 1)]


@pytest.mark.parametrize(
    "p,k,n,half_gram",
    [(2, 2, 2, H), (3, 2, 2, H), (2, 2, 3, CONIC), (3, 2, 3, CONIC), (5, 2, 2, H)],
)
def test_quadric_points_identical(p, k, n, half_gram):
    assert pure.quadric_points_mod(p, k, n, half_gram, 10**7) == compiled.quadric_points_mod(
        p, k, n, half_gram, 10**7
    )


def test_quadric_points_on_plane_mod_four():
    pts = compiled.quadric_points_mod(2, 2, 2, H, 10**6)
    # all normalized (head ≡ 0 mod 2 before the leading 1) with xy ≡ 0 mod 4
    assert all(v[0] % 4 in (0, 1, 2) for v in pts)
    assert all((v[0] * v[1]) % 4 == 0 for v in pts)
    assert pts == sorted(pts, key=pure.proj_key)


@pytest.mark.parametrize(
    "gens,p",
    [
        ([((0, 1), (1, 0))], 2),
        ([((0, 1), (1, 0)), ((2, 0), (0, 2))], 3),
        ([((1, 1), (0, 1)), ((1, 0), (1, 1))], 3),  # generates SL_2(F_3), order 24
    ],
)
def test_group_closure_identical(gens, p):
    a = pure.group_closure(gens, p, 10**6)
    b = compiled.group_closure(gens, p, 10**6)
    assert a == b
    ident = tuple(tuple(1 if i == j else 0 for j in range(len(gens[0]))) for i in range(len(gens[0])))
    assert a[0] == ident


@pytest.mark.parametrize("p,seed", [(3, (1, 0)), (3, (1, 1)), (5, (0, 1))])
def test_line_orbit_identical(p, seed):
    gens = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    a = pure.line_orbit(gens, seed, p, 10**6)
    b = compiled.line_orbit(gens, seed, p, 10**6)
    assert a == b
    assert a == sorted(a, key=pure.proj_key)
    assert len(a) == p + 1  # SL_2 is transitive on the projective line


@pytest.mark.parametrize(
    "p,n,half_gram,full,special",
    [
        (2, 2, H, 2, 1),
        (3, 2, H, 4, 2),
        (2, 4, H2, 72, 36),
        (3, 3, CONIC, 48, 24),
    ],
)
def test_brute_isometry_counts(p, n, half_gram, full, special):
    assert compiled.brute_isometry_count(p, n, half_gram, False, 10**7) == full
    assert compiled.brute_isometry_count(p, n, half_gram, True, 10**7) == special


def test_brute_isometry_large_case_needs_bigger_limit():
    with pytest.raises(ValueError):
        compiled.brute_isometry_count(3, 4, H2, False, 10**6)  # 3^16 > 10^6
    assert compiled.brute_isometry_count(3, 4, H2, False, 10**8) == 1152
    assert compiled.brute_isometry_count(3, 4, H2, True, 10**8) == 576


def test_size_guards_raise():
    with pytest.raises(ValueError):
        compiled.isotropic_lines(5, 12, tuple(tuple(0 for _ in range(12)) for _ in range(12)), 10**3)
    with pytest.raises(ValueError):
        compiled.quadric_points_mod(5, 3, 4, ((0,) * 4,) * 4, 10**3)
    with pytest.raises(ValueError):
        compiled.group_closure([((1, 1), (0, 1)), ((1, 0), (1, 1))], 13, 100)


# primes on either side of the overflow bound 3·(q - 1)³ < 2⁶³ of n = 2:
# the facade runs the first two compiled and the last two pure
NEAR_BOUND = [1454071, 1454081, 1454099, 1454119]


@settings(derandomize=True, deadline=None, max_examples=12)
@given(st.sampled_from(NEAR_BOUND), st.lists(st.integers(0, 2**40), min_size=3, max_size=3))
@example(1454081, [-1, -1, -1])
@example(1454099, [-1, -1, -1])
def test_facade_exact_near_overflow_bound(p, entries):
    a, b, c = (x % p for x in entries)
    half_gram = ((a, b), (0, c))
    assert kernels.isotropic_lines(p, 2, half_gram, 10**7) == pure.isotropic_lines(
        p, 2, half_gram, 10**7
    )


@pytest.mark.parametrize("p", [1201, 1213])
def test_facade_quadric_points_exact_near_overflow_bound(p):
    q = p * p
    half_gram = ((q - 1, q - 1), (0, q - 1))
    assert kernels.quadric_points_mod(p, 2, 2, half_gram, 10**7) == pure.quadric_points_mod(
        p, 2, 2, half_gram, 10**7
    )
