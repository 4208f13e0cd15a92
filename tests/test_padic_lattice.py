"""The line ↔ self-dual-lattice correspondence and its shrink/recover laws."""

import math
import random
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlat import (
    IntMatrix,
    InvariantViolationError,
    PLattice,
    PreconditionError,
    ProjLine,
    Sublattice,
    direct_sum,
    e8_lattice,
    enumerate_isotropic_lines,
    enumerate_neighbors,
    hensel_lift_line,
    hnf_basis,
    hyperbolic_plane,
    k3_lattice,
    lattice_from_line,
    lattices_equal,
    line_from_lattice,
    neighbors_of,
    plattice_quadlattice,
    quad_value,
    rank_one,
    recover_lattice,
    reduction,
    saturate,
    shrink_set,
    shrink_set_bruteforce,
    smith_normal_form,
    sublattice_in_span,
    w_generic_lines,
)
import qlat.exact_linalg as exact_linalg
import qlat.padic_lattice as padic_lattice
from qlat.exact_linalg import kernel_mod_p
from qlat.fp_quadratic import isotropic_lines_in
from qlat.kernels import proj_reps
from qlat.quad_lattice import basis_half_gram

from index_oracle import integral_coefficients

H = hyperbolic_plane()
H2 = direct_sum(H, H)
H3 = direct_sum(H, H, H)
E8 = e8_lattice()
HE8 = direct_sum(H, E8)


def ambient(N, p):
    return PLattice(N, p, 0, IntMatrix.identity(N.rank))


# ---------------------------------------------------------------------------
# reduction and lifting
# ---------------------------------------------------------------------------


def test_reduction_of_h_mod_3():
    V = reduction(H, 3)
    assert (V.p, V.dim) == (3, 2)
    assert V.half_gram == ((0, 1), (0, 0))
    assert V.is_nondegenerate()


def test_reduction_of_rank_one_is_degenerate():
    for p in (2, 3):
        V = reduction(rank_one(p), p)
        assert not V.is_nondegenerate()


def test_reduction_of_e8_mod_2_nondegenerate():
    from qlat import e8_lattice

    assert reduction(e8_lattice(), 2).is_nondegenerate()


def test_hensel_lift_exact_line():
    line = ProjLine(reduction(H, 3), (1, 0))
    v = hensel_lift_line(H, line)
    assert v[0] % 3 == 1 and v[1] % 3 == 0
    assert quad_value(H, v) % 9 == 0


def test_hensel_lift_conic_over_z3():
    N = direct_sum(rank_one(1), rank_one(1), rank_one(1))
    line = ProjLine(reduction(N, 3), (1, 1, 1))
    v = hensel_lift_line(N, line)
    assert all(x % 3 == y for x, y in zip(v, (1, 1, 1)))
    assert quad_value(N, v) % 9 == 0


def test_hensel_lift_rejects_radical_line():
    N = rank_one(1)
    line = ProjLine(reduction(N, 2), (1,))
    with pytest.raises(PreconditionError):
        hensel_lift_line(N, line)


# ---------------------------------------------------------------------------
# the correspondence
# ---------------------------------------------------------------------------


def test_lattice_from_line_on_h():
    for p in (2, 3, 5):
        line = ProjLine(reduction(H, p), (1, 0))
        Nt = lattice_from_line(H, line)
        expected = PLattice(H, p, 1, IntMatrix.from_columns([(1, 0), (0, p * p)]))
        assert Nt == expected


def test_lattice_from_line_on_h2():
    p = 2
    line = ProjLine(reduction(H2, p), (1, 0, 0, 0))
    Nt = lattice_from_line(H2, line)
    cols = [(1, 0, 0, 0), (0, p * p, 0, 0), (0, 0, p, 0), (0, 0, 0, p)]
    assert Nt == PLattice(H2, p, 1, IntMatrix.from_columns(cols))


def test_neighbor_grams_are_self_dual():
    for N, p in ((H, 3), (H2, 2), (H2, 5)):
        for Nt in enumerate_neighbors(N, p):
            det = plattice_quadlattice(Nt).gram().det()
            num = abs(det)
            scale = Nt.scale_denominator() ** (2 * N.rank)
            # Gram of the numerator basis: det = ±scale × p-unit
            assert num % p != 0 or (num // math.gcd(num, scale)) % p != 0


def test_round_trips_on_h2():
    p = 3
    V = reduction(H2, p)
    for line in enumerate_isotropic_lines(V):
        Nt = lattice_from_line(H2, line)
        assert line_from_lattice(Nt) == line
    for Nt in enumerate_neighbors(H2, p):
        assert lattice_from_line(H2, line_from_lattice(Nt)) == Nt


def test_neighbor_counts():
    assert len(enumerate_neighbors(H, 3)) == 2
    assert len(enumerate_neighbors(H2, 2)) == 9
    assert len(enumerate_neighbors(H3, 2)) == 35


def test_line_from_ambient_lattice_rejected():
    with pytest.raises(PreconditionError):
        line_from_lattice(ambient(H, 3))


def test_line_from_lattice_rejects_an_odd_lattice():
    # v = e1 + 2f1 has Q(v) = 2: Ñ = Z·v/2 + {x : [x, v] ≡ 0 mod 2} is
    # integral and self-dual with the right index, but Q(v/2) = 1/2
    p, v = 2, (1, 2, 0, 0)
    Nt = PLattice(H2, p, 1, IntMatrix.from_columns([v]).hstack(kernel_mod_p([2, 1, 0, 0], p).scale(p)))
    assert abs(Nt.numerator_basis.det()) == p**4
    with pytest.raises(PreconditionError, match="quadratic form is not integral"):
        plattice_quadlattice(Nt)
    with pytest.raises(PreconditionError, match="quadratic form is not integral"):
        line_from_lattice(Nt)


@pytest.mark.parametrize("pivots", [(1, 2, 2, 2), (1, 4, 4, 2)])
def test_line_from_lattice_rejects_a_wrong_determinant(pivots):
    # power 1 and canonical, but the pivot product is 2^3 or 2^5, not 2^4
    Nt = PLattice(H2, 2, 1, IntMatrix.from_rows(
        [[d if i == j else 0 for j in range(4)] for i, d in enumerate(pivots)]
    ))
    assert Nt.power == 1
    with pytest.raises(PreconditionError, match=r"not self-dual \(determinant\)"):
        line_from_lattice(Nt)


@pytest.mark.parametrize("N, p", [(H3, 3), (HE8, 2)], ids=["H3-p3", "HE8-p2"])
def test_the_neighbor_form_is_formed_once_across_phi_and_psi(monkeypatch, N, p):
    real, calls = padic_lattice.basis_half_gram, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(padic_lattice, "basis_half_gram", counting)
    lines = enumerate_isotropic_lines(reduction(N, p))
    neighbors = [lattice_from_line(N, line) for line in lines]
    assert [line_from_lattice(Nt) for Nt in neighbors] == list(lines)
    forms = [plattice_quadlattice(Nt) for Nt in neighbors]
    assert len(calls) == len(lines)
    # rebuilt from its basis, a neighbor forms its form once, in ψ, and keeps it
    rebuilt = [PLattice(N, p, 1, Nt.numerator_basis) for Nt in neighbors]
    assert rebuilt == neighbors
    assert [line_from_lattice(Nt) for Nt in rebuilt] == list(lines)
    assert [plattice_quadlattice(Nt) for Nt in rebuilt] == forms
    assert len(calls) == 2 * len(lines)


def test_line_from_a_lattice_rebuilt_from_a_basis_still_rejects_a_non_integral_form():
    # the neighbor of H mod 3 at the line (1, 0) has pÑ = Z·(1, 0) + Z·(0, 9);
    # moving (1, 0) to (1, 1) keeps the Hermite shape, the determinant 3² and
    # the index, but Q((1, 1)/3) = 1/9
    p = 3
    Nt = lattice_from_line(H, ProjLine(reduction(H, p), (1, 0)))
    assert Nt.numerator_basis == IntMatrix.from_rows([[1, 0], [0, 9]])
    rebuilt = PLattice(H, p, 1, Nt.numerator_basis)
    assert line_from_lattice(rebuilt) == line_from_lattice(Nt)
    moved = PLattice(H, p, 1, IntMatrix.from_rows([[1, 0], [1, 9]]))
    assert moved.numerator_basis == IntMatrix.from_rows([[1, 0], [1, 9]]) and moved.power == 1
    with pytest.raises(PreconditionError, match="^lattice quadratic form is not integral$"):
        line_from_lattice(moved)


def test_a_renormalized_or_rebuilt_lattice_keeps_the_form_on_its_canonical_basis():
    """A neighbor, and the same lattice given by a reordered basis, by its
    basis times p at a higher power or by its basis again, each keep the
    half-Gram of Q/p² on the canonical basis, formed once; a lattice on
    which Q is not integral keeps None."""
    p = 2
    assert PLattice(H2, p, 0, IntMatrix.identity(4))._half_gram == H2.half_gram.entries
    for Nt in enumerate_neighbors(H2, p):
        want = basis_half_gram(H2, Nt.numerator_basis.columns(), p * p)
        assert want is not None
        again = PLattice(H2, p, 1, IntMatrix.from_columns(Nt.numerator_basis.columns()[::-1]))
        doubled = PLattice(H2, p, 2, Nt.numerator_basis.scale(p))
        rebuilt = PLattice(H2, p, 1, Nt.numerator_basis)
        for L in (Nt, again, doubled, rebuilt):
            assert L == Nt and L.numerator_basis == Nt.numerator_basis and L.power == 1
            assert L._half_gram == want and L._half_gram is L._half_gram
            assert plattice_quadlattice(L) == plattice_quadlattice(Nt)
    moved = PLattice(H, 3, 1, IntMatrix.from_rows([[1, 0], [1, 9]]))
    assert moved._half_gram is None


def test_neighbors_of_ambient_match_enumeration():
    """The ambient lattice's neighbors, built directly, are those the
    general route computes in the lattice's own coordinates and maps back."""
    for N, p in ((H, 3), (H2, 2), (H2, 3), (H3, 2)):
        L = ambient(N, p)
        Lq = plattice_quadlattice(L)
        mapped_back = {
            PLattice(N, p, 1, L.numerator_basis @ lattice_from_line(Lq, line).numerator_basis)
            for line in enumerate_isotropic_lines(reduction(Lq, p))
        }
        got = neighbors_of(L)
        assert got == enumerate_neighbors(N, p)
        assert set(got) == mapped_back and len(got) == len(mapped_back)


def test_plattice_canonicalization():
    scaled = PLattice(H, 2, 1, IntMatrix.from_rows([[2, 0], [0, 2]]))
    assert scaled == ambient(H, 2)
    assert scaled.power == 0
    with pytest.raises(PreconditionError):
        PLattice(H, 2, -1, IntMatrix.identity(2))
    with pytest.raises(PreconditionError):
        PLattice(H, 2, 0, IntMatrix.from_columns([(1, 0)], rows=2))


def test_plattice_membership():
    line = ProjLine(reduction(H, 2), (1, 0))
    Nt = lattice_from_line(H, line)
    assert Nt.coordinates((1, 0)) is not None  # e = 2 * (e/2)
    assert Nt.coordinates((0, 1)) is None  # f only enters via 2f


# ---------------------------------------------------------------------------
# W-generic lines
# ---------------------------------------------------------------------------


def test_rank_zero_w_admits_all_lines():
    W0 = Sublattice(H, IntMatrix.zero(2, 0))
    lines = w_generic_lines(H, W0, 3)
    assert len(lines) == 2


def test_rank_zero_w_still_types_the_lines_by_u():
    W0 = Sublattice(H2, IntMatrix.zero(4, 0))
    U = Sublattice(H2, IntMatrix.from_columns([(1, 0, 0, 0)]))
    assert len(w_generic_lines(H2, W0, 3)) == 16
    lines = w_generic_lines(H2, W0, 3, U)
    # [e1, v] = v_f1, so the lines orthogonal to e1 are those with v_f1 = 0
    assert lines == tuple(l for l in enumerate_isotropic_lines(reduction(H2, 3)) if l.generator[1] == 0)
    assert len(lines) == 7


def test_w_generic_lines_match_manual_filter():
    p = 2
    W = Sublattice(H3, IntMatrix.from_columns([(1, 1, 0, 0, 0, 0)]))
    got = w_generic_lines(H3, W, p)
    V = reduction(H3, p)
    manual = []
    w_normalized = ProjLine(V, (1, 1, 0, 0, 0, 0)).generator
    for line in enumerate_isotropic_lines(V):
        v = line.generator
        pairing = (v[0] + v[1]) % p  # [e1+f1, v] = v_e1 + v_f1
        if v != w_normalized and pairing != 0:
            manual.append(line)
    assert list(got) == manual
    assert 0 < len(got) < 35


def test_typed_fibers_partition_generic_set():
    p = 3
    W = Sublattice(
        H3, IntMatrix.from_columns([(1, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)])
    )
    untyped = set(w_generic_lines(H3, W, p))
    # hyperplanes of W mod p: four lines in P(W*) -> four possible U
    covered = set()
    reps = [
        [(1, 1, 0, 0, 0, 0)],
        [(0, 0, 1, 0, 0, 0)],
        [(1, 1, 3, 0, 0, 0)],  # e1+f1 + 3*e2 is an H3-basis rewrite of U
        [(1, 1, 1, 0, 0, 0)],
        [(1, 1, 2, 0, 0, 0)],
    ]
    fibers = []
    for cols in reps[:2] + reps[3:]:
        U = Sublattice(H3, IntMatrix.from_columns(cols))
        fiber = set(w_generic_lines(H3, W, p, U))
        fibers.append(fiber)
        covered |= fiber
    assert covered == untyped
    total = sum(len(f) for f in fibers)
    assert total == len(untyped)  # fibers are disjoint


H4 = direct_sum(H, H, H, H)


@pytest.mark.parametrize(
    "cols",
    [
        [(1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0, 0)],
        [(1, 0, 0, 0, 0, 0, 0, 0), (0, 0, 1, 2, 1, 0, 0, 0)],
    ],
    ids=["anisotropic-basis", "isotropic-vector"],
)
@pytest.mark.parametrize("p", [2, 3])
def test_tilde_types_rank_two_lines_like_the_snf_subgroup(p, cols):
    W = Sublattice(H4, IntMatrix.from_columns(cols))
    assert saturate(8, W.basis)[1]
    for rep in proj_reps(p, 2):
        Wt = Sublattice(H4, W.basis @ kernel_mod_p(rep, p))
        # the exact-type subgroup U of W = U ⊕ Z·a with W̃ = U ⊕ Z·p·a: in
        # W's coordinates W̃ is kernel_mod_p(rep, p), whose unit-diagonal
        # column spans U and whose other column is p·a
        K = integral_coefficients(W.basis, Wt.basis)
        assert K == kernel_mod_p(rep, p)
        assert smith_normal_form(K) == IntMatrix.from_rows([[1, 0], [0, p]])
        units = [j for j in range(2) if K.entries[j][j] == 1]
        assert len(units) == 1
        U = Sublattice(H4, (W.basis @ K).take_columns(units))
        assert w_generic_lines(H4, W, p, Wt) == w_generic_lines(H4, W, p, U)


# ---------------------------------------------------------------------------
# shrink and recover
# ---------------------------------------------------------------------------


def _w_and_tilde(N, col, p):
    W = Sublattice(N, IntMatrix.from_columns([col]))
    Wt = Sublattice(N, IntMatrix.from_columns([tuple(p * x for x in col)]))
    return W, Wt


@pytest.mark.parametrize("p", [2, 3])
def test_shrink_set_two_paths_agree(p):
    W, Wt = _w_and_tilde(H3, (1, 1, 0, 0, 0, 0), p)
    typed = shrink_set(H3, W, Wt, p)
    brute = shrink_set_bruteforce(H3, W, Wt, p)
    assert set(typed) == set(brute)
    assert len(typed) > 0


def test_shrink_rejects_oversized_w():
    W, Wt = _w_and_tilde(H2, (1, 1, 0, 0), 3)
    with pytest.raises(PreconditionError):
        shrink_set(H2, W, Wt, 3)


def test_shrink_rejects_wrong_index():
    W = Sublattice(H3, IntMatrix.from_columns([(1, 1, 0, 0, 0, 0)]))
    with pytest.raises(PreconditionError):
        shrink_set(H3, W, W, 2)  # index 1, not p


def test_shrink_rejects_a_tilde_lattice_outside_w():
    W = Sublattice(H3, IntMatrix.from_columns([(1, 1, 0, 0, 0, 0)]))
    Wt = Sublattice(H3, IntMatrix.from_columns([(2, 0, 0, 0, 0, 0)]))
    with pytest.raises(PreconditionError, match="^W̃ must lie in W$"):
        shrink_set(H3, W, Wt, 2)


def test_recover_rejects_an_intersection_outside_w():
    # Ñ = Z^6 + Z·w/2 meets span(W) in Z·w/2, beyond W = Z·w
    w = IntMatrix.from_columns([(1, 1, 0, 0, 0, 0)])
    Nt = PLattice(H3, 2, 1, IntMatrix.identity(6).scale(2).hstack(w))
    W = Sublattice(H3, w)
    with pytest.raises(PreconditionError, match=r"^intersection with span\(W\) must lie in W$"):
        recover_lattice(Nt, W)


def test_recover_round_trip():
    p = 2
    W, Wt = _w_and_tilde(H3, (1, 1, 0, 0, 0, 0), p)
    members = shrink_set(H3, W, Wt, p)
    N0 = ambient(H3, p)
    for Nt in members:
        assert recover_lattice(Nt, W) == N0


def test_recover_rejects_undiminished_lattice():
    W = Sublattice(H3, IntMatrix.from_columns([(1, 1, 0, 0, 0, 0)]))
    with pytest.raises(PreconditionError):
        recover_lattice(ambient(H3, 2), W)


def test_recover_rejects_non_summand():
    W = Sublattice(H3, IntMatrix.from_columns([(2, 2, 0, 0, 0, 0)]))
    Nt = enumerate_neighbors(H3, 2)[0]
    with pytest.raises(PreconditionError):
        recover_lattice(Nt, W)


# ---------------------------------------------------------------------------
# fast paths against the general routes
# ---------------------------------------------------------------------------


def _kernel_lift(row, p):
    """Integer lift of the mod-p kernel of ``row``, pivoting on its first unit."""
    n = len(row)
    idx = next((i for i, x in enumerate(row) if x % p), None)
    if idx is None:
        return IntMatrix.identity(n)
    inv = pow(row[idx], -1, p)
    cols = []
    for i in range(n):
        if i != idx:
            e = [0] * n
            e[i] = 1
            e[idx] = (-row[i] * inv) % p
            cols.append(e)
    return IntMatrix.from_columns(cols, rows=n)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 7), st.data())
def test_closed_form_kernel_basis_matches_hnf(p, n, data):
    row = data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    K = _kernel_lift(row, p)
    assert kernel_mod_p(row, p) == hnf_basis(K.hstack(IntMatrix.identity(n).scale(p)))


def _recover_inputs(N, W, p):
    """Neighbors Ñ of N whose meet with span(W) lies in W with index p.

    These are the lattices recover_lattice accepts; for W of rank 2 in
    H⊥H⊥H they are not a shrink_set fiber (the rank is too large for it).
    """
    pW = W.basis.scale(p)
    gram_pW = (pW.transpose() @ pW).det()
    out = []
    for Nt in enumerate_neighbors(N, p):
        T = sublattice_in_span(Nt.numerator_basis, W.basis)  # p·(Ñ ∩ span W)
        if (
            T.cols == W.rank
            and lattices_equal(pW.hstack(T), pW)
            and (T.transpose() @ T).det() == p * p * gram_pW
        ):
            out.append(Nt)
    return out


def _assert_criterion_matches_oracle(members, W):
    wcols = W.basis.columns()
    for Nt in members:
        kept = 0
        for L in neighbors_of(Nt):
            oracle = lattices_equal(
                sublattice_in_span(L.numerator_basis, W.basis),
                W.basis.scale(L.scale_denominator()),
            )
            assert (L.span_excess(wcols) == 0) == oracle
            kept += oracle
        assert kept == 1


@pytest.mark.parametrize("p", [2, 3])
def test_recover_criterion_matches_intersection_rank_one(p):
    W, Wt = _w_and_tilde(H3, (1, 1, 0, 0, 0, 0), p)
    members = shrink_set(H3, W, Wt, p)
    assert members
    _assert_criterion_matches_oracle(members, W)


@pytest.mark.parametrize("p", [2, 3])
def test_recover_criterion_matches_intersection_rank_two(p):
    W = Sublattice(H3, IntMatrix.from_columns([(1, 1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0)]))
    members = _recover_inputs(H3, W, p)
    assert members
    _assert_criterion_matches_oracle(members, W)


def _line_filter_inputs(p):
    """(W, members) for W of rank 1 (a shrink_set fiber) and of rank 2."""
    W1, Wt1 = _w_and_tilde(H3, (1, 1, 0, 0, 0, 0), p)
    W2 = Sublattice(H3, IntMatrix.from_columns([(1, 1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0)]))
    return [(W1, shrink_set(H3, W1, Wt1, p)), (W2, _recover_inputs(H3, W2, p))]


@pytest.mark.parametrize("p", [2, 3])
def test_line_filter_keeps_the_full_sweep_survivor(p):
    """The filtered sweep of recover_lattice against the full sweep.

    The oracle builds every neighbor and keeps those with
    ``span_excess(W) == 0``; on these members that criterion equals
    L ∩ span(W) = W compared as integer lattices
    (``test_recover_criterion_matches_intersection_rank_one/two``).  The
    filter must build the survivor, and recover_lattice must return it.
    """
    for W, members in _line_filter_inputs(p):
        assert members
        wcols = W.basis.columns()
        pw = [tuple(p * x for x in w) for w in wcols]
        for Nt in members:
            kept = [L for L in neighbors_of(Nt) if L.span_excess(wcols) == 0]
            assert len(kept) == 1
            assert set(kept) <= set(neighbors_of(Nt, line_within=pw))
            assert recover_lattice(Nt, W) == kept[0]


@pytest.mark.parametrize("p", [2, 3])
def test_recover_lattice_builds_one_lattice_per_call(p, monkeypatch):
    import qlat.padic_lattice as padic

    built = []
    real = padic.lattice_from_line

    def counting(N, line):
        built.append(line)
        return real(N, line)

    monkeypatch.setattr(padic, "lattice_from_line", counting)
    for W, members in _line_filter_inputs(p):
        for Nt in members:
            before = len(built)
            recover_lattice(Nt, W)
            assert len(built) == before + 1


@pytest.mark.parametrize("p", [2, 3])
def test_line_filter_keeps_the_lines_in_a_plane(p):
    """A span of rank 2: the p + 1 isotropic lines of ⟨e1, e2⟩ in H⊥H⊥H."""
    N0 = ambient(H3, p)
    plane = [(1, 0, 1, 0, 0, 0), (1, 0, 2, 0, 0, 0), (p, 0, 0, p, 0, 0)]
    inside = [
        L for L in neighbors_of(N0)
        if not any(line_from_lattice(L).generator[i] for i in (1, 3, 4, 5))
    ]
    assert len(inside) == p + 1
    assert neighbors_of(N0, line_within=plane) == tuple(inside)


def test_line_filter_rejects_a_vector_outside_the_lattice():
    Nt = enumerate_neighbors(H3, 2)[0]
    outside = next(
        e for e in IntMatrix.identity(6).columns() if Nt.coordinates(e) is None
    )
    with pytest.raises(PreconditionError, match="does not lie in the lattice"):
        neighbors_of(Nt, line_within=[outside])


def test_lines_are_checked_against_the_reduction_kept_per_prime():
    N = direct_sum(H, H)
    V3 = reduction(N, 3)
    assert reduction(N, 3) is V3
    assert reduction(N, 5) is reduction(N, 5)
    assert reduction(N, 5) != V3
    assert (V3.p, reduction(N, 5).p) == (3, 5)
    assert reduction(direct_sum(H, H), 3) == V3  # equal lattices, equal spaces
    line = enumerate_isotropic_lines(V3)[0]
    Nt = lattice_from_line(N, line)
    assert Nt.p == 3
    assert line_from_lattice(Nt).space is V3
    other = direct_sum(H, rank_one(1), rank_one(-1))  # same rank, another form mod 3
    assert reduction(other, 3).dim == V3.dim
    with pytest.raises(PreconditionError, match="line does not live in the reduction"):
        lattice_from_line(other, line)
    for _ in range(2):
        for q in (0, 1, 4, 9):
            with pytest.raises(PreconditionError, match="is not prime"):
                reduction(N, q)
    assert sorted(N._reductions) == [3, 5]  # a rejected p is never kept


# ---------------------------------------------------------------------------
# the closed-form neighbor basis against the Hermite route it replaced
# ---------------------------------------------------------------------------


def _neighbor_basis_by_hnf(N, line):
    """pÑ = Z·v + p·L_v as ``hnf_basis([v | p·kernel_mod_p(r, p)])``, r = B·v mod p."""
    p = line.space.p
    v = hensel_lift_line(N, line)
    r = [sum(map(mul, g, v)) % p for g in N.gram().entries]
    return hnf_basis(IntMatrix.from_columns([v]).hstack(kernel_mod_p(r, p).scale(p)))


def _spread(lines, cap):
    """Every (len // cap)-th line of the sorted sweep: all of them below 2·cap."""
    return lines[:: max(1, len(lines) // cap)]


def _k3_lines(p, count):
    """``count`` seeded isotropic lines of K3 mod p: one from each seeded span
    of three random vectors that holds any."""
    V = reduction(k3_lattice(), p)
    rng = random.Random(p)
    lines = []
    while len(lines) < count:
        span = [[rng.randrange(p) for _ in range(V.dim)] for _ in range(3)]
        found = isotropic_lines_in(V, span)
        if found:
            lines.append(rng.choice(found))
    return lines


LATTICES = {"H": H, "H2": H2, "H3": H3, "E8": E8, "HE8": HE8}


@pytest.mark.parametrize(
    "name, p, cap",
    [(name, p, None) for name in ("H", "H2", "H3") for p in (2, 3, 5)]
    + [(name, p, 300) for name in ("E8", "HE8") for p in (2, 3)],
)
def test_closed_form_neighbor_matches_the_hermite_route(name, p, cap):
    N = LATTICES[name]
    lines = enumerate_isotropic_lines(reduction(N, p))
    if cap is not None:
        lines = _spread(lines, cap)
    for line in lines:
        Nt = lattice_from_line(N, line)
        assert (Nt.power, Nt.numerator_basis) == (1, _neighbor_basis_by_hnf(N, line)), line


@pytest.mark.parametrize("p", [2, 3])
def test_closed_form_neighbor_matches_the_hermite_route_on_k3(p):
    K3 = k3_lattice()
    for line in _k3_lines(p, 100):
        Nt = lattice_from_line(K3, line)
        assert (Nt.power, Nt.numerator_basis) == (1, _neighbor_basis_by_hnf(K3, line))


@pytest.mark.parametrize("name, p", [("H3", 2), ("H3", 3), ("HE8", 2), ("E8", 5)])
def test_neighbor_checks_reject_an_unlifted_line(name, p, monkeypatch):
    """With φ(v̄) read as [v̄, v̄]/p = 2Q(v̄)/p, as from the bare generator in
    place of a lift (Q(v̄) ≢ 0 mod p²), the lattice built is not a self-dual
    neighbor: the output checks must say so."""
    N = LATTICES[name]
    lines = [
        line for line in _spread(enumerate_isotropic_lines(reduction(N, p)), 300)
        if quad_value(N, line.generator) % (p * p)
    ]
    assert lines
    monkeypatch.setattr(padic_lattice, "quad_value", lambda N, x: 2 * quad_value(N, x))
    for line in lines:
        with pytest.raises(InvariantViolationError, match="neighbor lattice is not (integral|even)"):
            lattice_from_line(N, line)


def test_lattice_from_line_runs_no_hermite_elimination(monkeypatch):
    """Every basis comes out canonical, so ``PLattice`` renormalizes none.

    A few lines of E8 (two at p = 2, two at p = 3) and of H⊥E8 mod 2 need
    the reduction left of a pivot; in the sums of H none does.
    """
    def refuse(A, U):
        raise AssertionError("a Hermite elimination ran")

    cases = [(N, p, enumerate_isotropic_lines(reduction(N, p))) for N, p in ((E8, 2), (E8, 3), (HE8, 2))]
    monkeypatch.setattr(exact_linalg, "_row_hnf", refuse)
    for N, p, lines in cases:
        for line in lines:
            assert lattice_from_line(N, line).power == 1


@pytest.mark.parametrize("name, p", [("H3", 3), ("HE8", 2), ("E8", 3)])
def test_lattice_from_line_forms_no_lift(name, p, monkeypatch):
    """φ is read off the line's generator alone: with ``hensel_lift_line``
    refused, every neighbor still equals the Hermite route's, which lifts."""
    N = LATTICES[name]
    lines = _spread(enumerate_isotropic_lines(reduction(N, p)), 200)
    want = [_neighbor_basis_by_hnf(N, line) for line in lines]

    def refuse(N, line):
        raise AssertionError("a lift was formed")

    monkeypatch.setattr(padic_lattice, "hensel_lift_line", refuse)
    assert [lattice_from_line(N, line).numerator_basis for line in lines] == want
    off = next(v for v in product(range(p), repeat=N.rank) if any(v) and quad_value(N, v) % p)
    with pytest.raises(PreconditionError, match="^line is not isotropic$"):
        lattice_from_line(N, ProjLine(reduction(N, p), off))
