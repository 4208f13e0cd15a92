"""The enumeration kernels of ``qlat.kernels`` against brute-force oracles."""

from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlat import FpIsometry, FpQuadSpace, ProjLine, SizeGuardError, enumerate_isotropic_lines, kernels
from isometry_oracle import all_isometries_bruteforce

H = ((0, 1), (0, 0))
H2 = ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0))
CONIC = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
ANISO2 = ((1, 1), (0, 1))  # x^2 + xy + y^2, anisotropic over F_2


def test_facade_exposes_a_backend():
    assert kernels.backend_name() == "pure-python"


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
    lines = kernels.isotropic_lines(p, n, half_gram, 10**6)
    assert len(lines) == count


def test_isotropic_lines_sorted_lead_first():
    lines = kernels.isotropic_lines(2, 2, H, 10**6)
    assert lines == [(1, 0), (0, 1)]


def test_quadric_points_on_plane_mod_four():
    pts = kernels.quadric_points_mod(2, 2, 2, H, 10**6)
    # all normalized (head ≡ 0 mod 2 before the leading 1) with xy ≡ 0 mod 4
    assert all(v[0] % 4 in (0, 1, 2) for v in pts)
    assert all((v[0] * v[1]) % 4 == 0 for v in pts)
    assert pts == sorted(pts, key=kernels.proj_key)


def test_group_closure_order_sl2_f3():
    gens = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    assert len(kernels.group_closure(gens, 3, 10**6)) == 24


@pytest.mark.parametrize("p,seed", [(3, (1, 0)), (3, (1, 1)), (5, (0, 1))])
def test_line_orbit_is_whole_projective_line(p, seed):
    gens = [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    orbit = kernels.line_orbit(gens, seed, p, 10**6)
    assert orbit == sorted(orbit, key=kernels.proj_key)
    assert len(orbit) == p + 1  # SL_2 is transitive on the projective line


@pytest.mark.parametrize(
    "p,n,half_gram,full,special",
    [
        (2, 2, H, 2, 1),
        (3, 2, H, 4, 2),
        (2, 4, H2, 72, 36),
        (3, 3, CONIC, 48, 24),
        (3, 4, H2, 1152, 576),
    ],
)
def test_brute_isometry_counts(p, n, half_gram, full, special):
    V = FpQuadSpace(p, half_gram)
    isometries = all_isometries_bruteforce(V)
    assert len(isometries) == full
    assert sum(FpIsometry(V, g).is_special() for g in isometries) == special


def test_enumeration_guards_raise_size_guard_errors():
    # the guard's own class where it trips, so no caller has to translate it
    zero = ((0,) * 4,) * 4
    with pytest.raises(SizeGuardError, match=r"^projective space has 156 points, exceeds limit 100$"):
        kernels.isotropic_lines(5, 4, zero, 100)
    with pytest.raises(SizeGuardError, match=r"^19500 normalized vectors mod 25, exceeds limit 100$"):
        kernels.quadric_points_mod(5, 2, 4, zero, 100)


def test_size_guards_raise():
    with pytest.raises(ValueError):
        kernels.isotropic_lines(5, 12, tuple(tuple(0 for _ in range(12)) for _ in range(12)), 10**3)
    with pytest.raises(ValueError):
        kernels.quadric_points_mod(5, 3, 4, ((0,) * 4,) * 4, 10**3)
    with pytest.raises(ValueError):
        kernels.group_closure([((1, 1), (0, 1)), ((1, 0), (1, 1))], 13, 100)


def test_proj_reps_canonical_order():
    reps = list(kernels.proj_reps(3, 3))
    assert len(reps) == 13
    assert reps == sorted(reps, key=kernels.proj_key)
    assert reps[0] == (1, 0, 0) and reps[-1] == (0, 0, 1)


# ---------------------------------------------------------------------------
# the prefix sweep against a brute-force oracle
# ---------------------------------------------------------------------------


def _q(half_gram, v, modulus):
    """Q(v) = sum_{i<=j} h_ij v_i v_j, read from scratch."""
    n = len(v)
    return sum(half_gram[i][j] * v[i] * v[j] for i in range(n) for j in range(i, n)) % modulus


def _canonical(v):
    return (next(i for i, x in enumerate(v) if x), v)


def _normalized(p, modulus, n):
    """Every v in (Z/modulus)^n whose first unit coordinate is 1 (p | each earlier one)."""
    out = []
    for v in product(range(modulus), repeat=n):
        lead = next((i for i, x in enumerate(v) if x % p), None)
        if lead is not None and v[lead] == 1:
            out.append(v)
    return out


def _oracle(p, k, half_gram):
    modulus = p**k
    reps = _normalized(p, modulus, len(half_gram))
    return sorted((v for v in reps if _q(half_gram, v, modulus) == 0), key=_canonical), len(reps)


# largest n per (p, k) that keeps the oracle's box small
_MAX_N = {(2, 1): 5, (3, 1): 5, (5, 1): 5, (7, 1): 5, (2, 2): 5, (3, 2): 4, (5, 2): 3, (7, 2): 2}


@st.composite
def _forms(draw, k):
    """(p, half_gram) with entries of any size, sometimes degenerate.

    Entries below the diagonal are noise the kernels must ignore; zeroed
    coordinates make the form degenerate, and the last diagonal entry is
    often zero so that the last coordinate enters Q linearly or not at all.
    """
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, _MAX_N[(p, k)]))
    q = p**k
    rows = [[draw(st.integers(-q, 2 * q)) for _ in range(n)] for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for j in range(n):
            rows[i][j] = rows[j][i] = 0
    if draw(st.booleans()):
        rows[n - 1][n - 1] = 0
    return p, tuple(tuple(r) for r in rows)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_forms(k=1))
@example((2, ((0, 1), (0, 0))))
@example((7, ((0,) * 5,) * 5))
@example((3, ((1, 2, 0), (0, 1, 1), (0, 0, 0))))
@example((5, ((3,),)))
# the root table: many prefixes share one (a, b) key (b ≡ 0, a a sum of squares)
@example((3, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))))
# c ≡ 0: the last coordinate enters linearly
@example((5, ((1, 0, 2), (0, 1, 3), (0, 0, 5))))
# c ≡ b ≡ 0 with a ≡ 0 on every prefix: every y is a root
@example((7, ((7, 14, 0), (0, 0, 0), (0, 0, 7))))
# c ≡ b ≡ 0 with a ≢ 0 on every prefix of a nonzero head, at p = 2: no y is a root
@example((2, ((1, 1, 0), (0, 1, 2), (0, 0, 4))))
def test_isotropic_lines_match_oracle(form):
    p, half_gram = form
    n = len(half_gram)
    expected, count = _oracle(p, 1, half_gram)
    assert count == (p**n - 1) // (p - 1)
    lines = kernels.isotropic_lines(p, n, half_gram, count)
    assert lines == expected
    # the sweep's own order is canonical: no sort happens after it
    assert lines == sorted(lines, key=kernels.proj_key)
    with pytest.raises(ValueError):
        kernels.isotropic_lines(p, n, half_gram, count - 1)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_forms(k=2))
@example((2, ((0, 1), (0, 0))))
@example((3, ((1, 0, 0), (0, 1, 0), (0, 0, 0))))
@example((7, ((0, 0), (0, 0))))
@example((5, ((3,),)))
# the root table: many prefixes share one (a, b) key (b ≡ 0, a a sum of squares)
@example((2, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))))
# c ≡ 0 mod p²: the last coordinate enters linearly
@example((5, ((1, 0, 2), (0, 1, 3), (0, 0, 25))))
# c ≡ b ≡ 0 with a ≡ 0 on every prefix: every y is a root
@example((3, ((9, 18, 0), (0, 0, 9), (0, 0, 0))))
# c ≡ b ≡ 0 with a odd on every prefix of a unit head, at p = 2: no y is a root
@example((2, ((1, 1, 0), (0, 1, 4), (0, 0, 8))))
# a form whose entries are multiples of p but not of p², last diagonal c ≡ p
@example((3, ((1, 0, 3), (0, 1, 6), (0, 0, 3))))
def test_quadric_points_mod_match_oracle(form):
    p, half_gram = form
    n = len(half_gram)
    expected, count = _oracle(p, 2, half_gram)
    assert kernels.quadric_points_mod(p, 2, n, half_gram, count) == expected
    with pytest.raises(ValueError):
        kernels.quadric_points_mod(p, 2, n, half_gram, count - 1)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_forms(k=1))
def test_enumerated_lines_equal_public_projlines(form):
    p, rows = form
    n = len(rows)
    V = FpQuadSpace(p, tuple(tuple(rows[i][j] if j >= i else 0 for j in range(n)) for i in range(n)))
    lines = enumerate_isotropic_lines(V)
    assert len(lines) == len(_oracle(p, 1, V.half_gram)[0])
    for line in lines:
        public = ProjLine(V, line.generator)
        assert line == public and hash(line) == hash(public)
        assert all(type(x) is int for x in line.generator)
        assert line.is_isotropic()


def test_kernels_exact_at_large_moduli():
    # x² − y² at p = 4,000,037 has two isotropic lines
    p = 4000037
    assert kernels.isotropic_lines(p, 2, ((1, 0), (0, p - 1)), 10**7) == [(1, 1), (1, p - 1)]
    # xy mod p², whose normalized zeros are the two coordinate lines
    for p in (1201, 1213):
        assert kernels.quadric_points_mod(p, 2, 2, H, 10**7) == [(1, 0), (0, 1)]
    # every entry p² − 1 ≡ −1, so Q = −(x² + xy + y²) mod p²: for p ≡ 1 mod 3
    # the roots of y² + y + 1 mod p lift uniquely, giving two points (1, y)
    for p in (1201, 1213):
        q = p * p
        half_gram = ((q - 1, q - 1), (0, q - 1))
        pts = kernels.quadric_points_mod(p, 2, 2, half_gram, 10**7)
        assert len(pts) == 2
        assert all(v[0] == 1 and (1 + v[1] + v[1] ** 2) % q == 0 for v in pts)
