"""Minimal pairs, the polarization-change lattice, and fiber round trips."""

import re
import time
from fractions import Fraction
from itertools import product
from operator import mul

import pytest

from qlat import (
    IntMatrix,
    MinimalPair,
    PLattice,
    PolarizedK3Lattice,
    PreconditionError,
    ProjLine,
    QuadLattice,
    SizeGuardError,
    Sublattice,
    direct_sum,
    discriminant_group,
    hnf_basis,
    hyperbolic_plane,
    k3_isogeny,
    k3_lattice,
    lattice_from_line,
    lattices_equal,
    neighbors_of,
    orthogonal_complement,
    quad_value,
    rank_one,
    recover_lattice,
    reduction,
    restricted_lattice,
    shrink_fiber,
    shrink_set,
    shrink_set_bruteforce,
    signature,
    sublattice_in_span,
)
from qlat.exact_linalg import kernel_mod_p
from qlat.kernels import proj_reps
from qlat.modp import check_prime

H3 = direct_sum(hyperbolic_plane(), hyperbolic_plane(), hyperbolic_plane())


def enumerate_index_p_sublattices(L, p, max_count=10**6):
    """All minimal pairs of L at p: one per nonzero functional L → F_p up
    to scaling, so (p^r - 1)/(p - 1) of them, in ``proj_reps`` order, each
    with the canonical (column-HNF) basis of the functional's kernel
    lattice (:func:`~qlat.exact_linalg.kernel_mod_p`).
    """
    r = L.rank
    pos, neg = signature(L)
    if neg != 0 or pos != r:
        raise PreconditionError("index-p enumeration expects a positive-definite lattice")
    check_prime(p)
    count = (p**r - 1) // (p - 1)
    if count > max_count:
        raise SizeGuardError(f"{count} sublattices exceeds the guard {max_count}")
    return tuple(MinimalPair(L, kernel_mod_p(rep, p)) for rep in proj_reps(p, r))


# ---------------------------------------------------------------------------
# minimal pairs
# ---------------------------------------------------------------------------


def test_minimal_pair_index():
    pair = MinimalPair(rank_one(1), IntMatrix.from_rows([[3]]))
    assert pair.index == 3


def test_minimal_pair_rejects_composite_index():
    with pytest.raises(PreconditionError):
        MinimalPair(rank_one(1), IntMatrix.from_rows([[4]]))


def test_minimal_pair_requires_positive_definite():
    with pytest.raises(PreconditionError):
        MinimalPair(hyperbolic_plane(), IntMatrix.from_rows([[2, 0], [0, 1]]))


@pytest.mark.parametrize(
    "rank,p",
    [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (3, 5), (2, 5)],
)
def test_index_p_sublattice_counts(rank, p):
    lam = direct_sum(*[rank_one(1)] * rank) if rank > 1 else rank_one(1)
    pairs = enumerate_index_p_sublattices(lam, p)
    assert len(pairs) == (p**rank - 1) // (p - 1)
    assert len({pair.tilde_basis for pair in pairs}) == len(pairs)
    for pair in pairs:
        assert pair.index == p


@pytest.mark.parametrize("rank,p", [(2, 2), (3, 3), (2, 5)])
def test_index_p_sublattices_are_the_kernels_of_the_functionals(rank, p):
    lam = direct_sum(*[rank_one(1)] * rank)
    pairs = enumerate_index_p_sublattices(lam, p)
    for rep, pair in zip(proj_reps(p, rank), pairs):
        kernel = [v for v in product(range(p), repeat=rank) if sum(map(mul, rep, v)) % p == 0]
        gens = IntMatrix.from_columns(kernel, rows=rank).hstack(IntMatrix.identity(rank).scale(p))
        assert pair.tilde_basis == hnf_basis(gens)


def test_rank_one_unique_sublattice():
    (pair,) = enumerate_index_p_sublattices(rank_one(1), 5)
    assert pair.tilde_basis.entries == ((5,),)


# ---------------------------------------------------------------------------
# polarization change
# ---------------------------------------------------------------------------


def test_degree_one_p_two():
    pol = k3_isogeny(1, 2)
    assert pol.degree == 4
    assert pol.xi == (1, 4) + (0,) * 20


def test_discriminant_of_complement():
    pol = k3_isogeny(3, 2)
    S = Sublattice(pol.lattice, IntMatrix.from_columns([pol.xi]))
    C = restricted_lattice(orthogonal_complement(pol.lattice, S))
    assert discriminant_group(C).torsion == (24,)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_isogeny_laws(d, p):
    pol = k3_isogeny(d, p)
    L = pol.lattice
    assert abs(L.gram().det()) == 1
    assert all(L.gram().entries[i][i] % 2 == 0 for i in range(22))
    assert signature(L) == signature(k3_lattice())
    assert pol.degree == p * p * d
    assert quad_value(L, pol.xi) == p * p * d


def test_twofold_application_scales_by_p4():
    d, p = 2, 3
    once = k3_isogeny(d, p)
    twice = k3_isogeny(once.degree, p)
    assert twice.degree == p**4 * d


def test_isogeny_rejects_bad_input():
    with pytest.raises(PreconditionError):
        k3_isogeny(0, 2)
    with pytest.raises(PreconditionError):
        k3_isogeny(1, 4)


# ---------------------------------------------------------------------------
# shrink fiber and unique recovery
# ---------------------------------------------------------------------------


def _embedding_column():
    return IntMatrix.from_columns([(1, 1, 0, 0, 0, 0)])


def _pair(p):
    return MinimalPair(rank_one(1), IntMatrix.from_rows([[p]]))


@pytest.mark.parametrize("p", [2, 3])
def test_shrink_fiber_delegates_to_shrink_set(p):
    emb = _embedding_column()
    fiber = shrink_fiber(H3, emb, _pair(p))
    W = Sublattice(H3, emb)
    Wt = Sublattice(H3, emb.scale(p))
    assert set(fiber) == set(shrink_set(H3, W, Wt, p))
    assert len(fiber) > 0


def test_shrink_fiber_rejects_non_summand():
    emb = IntMatrix.from_columns([(2, 2, 0, 0, 0, 0)])
    with pytest.raises(PreconditionError):
        shrink_fiber(H3, emb, _pair(2))


def test_shrink_fiber_rejects_form_mismatch():
    pair = MinimalPair(rank_one(2), IntMatrix.from_rows([[2]]))
    with pytest.raises(PreconditionError):
        shrink_fiber(H3, _embedding_column(), pair)  # Q(e1+f1) = 1, not 2


H4 = direct_sum(*[hyperbolic_plane()] * 4)
A2_PAIR = MinimalPair(QuadLattice([[1, 1], [0, 1]]), IntMatrix.from_rows([[1, 0], [0, 2]]))


@pytest.mark.parametrize(
    "cols, form",
    [
        # Q(a) = Q(b) = 1, but [a, b] = 0 where λ has 1: off the diagonal alone
        (((1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0, 0)), "bilinear"),
        # [a, b] = 0 ≠ 1 comes before Q(b) = 2 ≠ 1, row by row
        (((1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0, 0, 0)), "bilinear"),
        # Q(a) = 2 ≠ 1 comes before [a, b] = 0 ≠ 1
        (((1, 2, 0, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0, 0)), "quadratic"),
    ],
)
def test_shrink_fiber_names_the_first_mismatch_row_by_row(cols, form):
    with pytest.raises(PreconditionError, match=f"^embedding does not preserve the {form} form$"):
        shrink_fiber(H4, IntMatrix.from_columns(cols), A2_PAIR)


def test_shrink_fiber_accepts_an_isometric_rank_two_embedding():
    emb = IntMatrix.from_columns([(1, 1, 0, 0, 0, 0, 0, 0), (1, 0, 1, 1, 0, 0, 0, 0)])
    W, Wt = Sublattice(H4, emb), Sublattice(H4, emb @ A2_PAIR.tilde_basis)
    fiber = shrink_fiber(H4, emb, A2_PAIR)
    assert fiber == shrink_set(H4, W, Wt, 2)
    assert fiber


def test_shrink_fiber_rejects_oversized_pair():
    H2 = direct_sum(hyperbolic_plane(), hyperbolic_plane())
    emb = IntMatrix.from_columns([(1, 1, 0, 0)])
    with pytest.raises(PreconditionError):
        shrink_fiber(H2, emb, _pair(2))


# H³ ⊥ ⟨1⟩ has odd rank n = 7, where 2·rank(W) ≤ n - 3 admits a rank-2 W
# that 2·rank(W) ≤ n - 4 would refuse
H3_ONE = direct_sum(H3, rank_one(1))


def test_the_rank_bound_admits_its_odd_rank_edge():
    emb = IntMatrix.from_columns([(1, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1)])
    pair = MinimalPair(QuadLattice([[1, 0], [0, 1]]), IntMatrix.from_rows([[1, 0], [0, 3]]))
    W, Wt = Sublattice(H3_ONE, emb), Sublattice(H3_ONE, emb @ pair.tilde_basis)
    fiber = shrink_fiber(H3_ONE, emb, pair)
    assert len(fiber) == 90
    assert fiber == shrink_set(H3_ONE, W, Wt, 3) == shrink_set_bruteforce(H3_ONE, W, Wt, 3)
    N0 = PLattice(H3_ONE, 3, 0, IntMatrix.identity(7))
    assert all(recover_lattice(Nt, W) == N0 for Nt in fiber)


def test_one_rank_past_the_bound_is_rejected():
    emb = IntMatrix.from_columns(
        [(1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1)]
    )
    unit_form = QuadLattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    pair = MinimalPair(unit_form, IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 3]]))
    W, Wt = Sublattice(H3_ONE, emb), Sublattice(H3_ONE, emb @ pair.tilde_basis)
    message = "^W has rank too large for the construction$"
    with pytest.raises(PreconditionError, match=message):
        shrink_set(H3_ONE, W, Wt, 3)
    with pytest.raises(PreconditionError, match=message):
        shrink_fiber(H3_ONE, emb, pair)


@pytest.mark.parametrize("p", [2, 3])
def test_grow_recovers_ambient_from_every_member(p):
    emb = _embedding_column()
    W = Sublattice(H3, emb)
    N0 = PLattice(H3, p, 0, IntMatrix.identity(6))
    fiber = shrink_fiber(H3, emb, _pair(p))
    grown = {recover_lattice(Nt, W) for Nt in fiber}
    assert grown == {N0}


def _meets_span_in_an_enlargement(L, Wt, p):
    """L ∩ span(W̃) is one of the index-p enlargements p⁻¹(pW̃ + Z·x) of W̃.

    One candidate per line ⟨x⟩ of W̃/pW̃, compared as integer lattices.
    """
    T = sublattice_in_span(L.numerator_basis, Wt)  # p^power · (L ∩ span W̃)
    for rep in proj_reps(p, Wt.cols):
        cand = hnf_basis(Wt.scale(p).hstack(IntMatrix.from_columns([Wt.mul_vector(rep)])))
        if lattices_equal(T.scale(p), cand.scale(L.scale_denominator())):
            return True
    return False


@pytest.mark.parametrize("p", [2, 3])
def test_grow_criterion_matches_enlargement_filter(p):
    emb = _embedding_column()
    Wt = hnf_basis(emb @ _pair(p).tilde_basis)
    wcols = Wt.columns()
    for Nt in shrink_fiber(H3, emb, _pair(p)):
        kept = 0
        for L in neighbors_of(Nt):
            oracle = _meets_span_in_an_enlargement(L, Wt, p)
            assert (L.span_excess(wcols) == 1) == oracle
            kept += oracle
        assert kept == 1


@pytest.mark.parametrize("p", [2, 3])
def test_grow_line_filter_keeps_the_full_sweep_survivor(p):
    """The one-point sweep of recover_lattice, on the embedding
    ``shrink_fiber`` takes, against the full sweep.

    The oracle builds every neighbor and keeps those with
    ``span_excess(W) == 0``, that is L ∩ span(W) = W.
    """
    emb = _embedding_column()
    W = Sublattice(H3, emb)
    wcols = W.basis.columns()
    pw = [tuple(p * x for x in w) for w in wcols]
    for Nt in shrink_fiber(H3, emb, _pair(p)):
        kept = [L for L in neighbors_of(Nt) if L.span_excess(wcols) == 0]
        assert len(kept) == 1
        assert set(kept) <= set(neighbors_of(Nt, line_within=pw))
        assert recover_lattice(Nt, W) == kept[0]


def _k3_hecke_step(p):
    """K3 lattice N, W = ⟨e1 + f1⟩, and the neighbor Ñ at the typed line ⟨e1 + e2⟩."""
    N = k3_lattice()
    w = (1, 1) + (0,) * 20
    v = (1, 0, 1) + (0,) * 19
    return N, Sublattice(N, IntMatrix.from_columns([w])), lattice_from_line(N, ProjLine(reduction(N, p), v))


@pytest.mark.parametrize("p", [2, 3])
def test_recover_lattice_at_the_k3_rank(p):
    N, W, Nt = _k3_hecke_step(p)
    start = time.perf_counter()
    assert recover_lattice(Nt, W) == PLattice(N, p, 0, IntMatrix.identity(22))
    assert time.perf_counter() - start < 1.0


def test_grow_rejects_dependent_embedding():
    fiber = shrink_fiber(H3, _embedding_column(), _pair(2))
    bad = IntMatrix.from_columns([(2, 2, 0, 0, 0, 0), (4, 4, 0, 0, 0, 0)])
    with pytest.raises(PreconditionError, match="^sublattice basis columns are dependent$"):
        recover_lattice(fiber[0], Sublattice(H3, bad))


def test_grow_rejects_an_embedding_of_w_tilde():
    # W̃ = 2·W lies in every fiber member, but it is no direct summand
    emb = _embedding_column()
    fiber = shrink_fiber(H3, emb, _pair(2))
    with pytest.raises(PreconditionError, match="^W is not a direct summand$"):
        recover_lattice(fiber[0], Sublattice(H3, emb.scale(2)))


@pytest.mark.parametrize(
    "xi, bad",
    [((1, 4.9) + (0,) * 20, 4.9), ((1, Fraction(3, 2)) + (0,) * 20, Fraction(3, 2)),
     ((True, 1) + (0,) * 20, True)],
    ids=["float", "fraction", "bool"],
)
def test_a_polarization_class_rejects_non_integer_entries(xi, bad):
    # truncating 4.9 to 4 would make (1, 4, 0, …) a class of degree 4
    with pytest.raises(PreconditionError, match=f"^non-integer entry {re.escape(repr(bad))}$"):
        PolarizedK3Lattice(k3_lattice(), xi)
    assert PolarizedK3Lattice(k3_lattice(), (1, 4) + (0,) * 20).xi == (1, 4) + (0,) * 20


@pytest.mark.parametrize("bad", [0.5, Fraction(3, 2), True], ids=["float", "fraction", "bool"])
def test_pairs_and_embeddings_reject_non_integer_entries(bad):
    message = f"^non-integer entry {re.escape(repr(bad))}$"
    with pytest.raises(PreconditionError, match=message):
        MinimalPair(A2_PAIR.lattice, [[1, bad], [0, 2]])
    rows = [[1], [bad], [0], [0], [0], [0]]
    with pytest.raises(PreconditionError, match=message):
        shrink_fiber(H3, rows, _pair(2))
    fiber = shrink_fiber(H3, _embedding_column(), _pair(2))
    with pytest.raises(PreconditionError, match=message):
        recover_lattice(fiber[0], Sublattice(H3, rows))
