"""Character lattices and the cokernel invariants."""

import math
import random
import re
from fractions import Fraction

import pytest

import cokernel_oracle
from cokernel_oracle import cokernel_by_intersection, meet_and_coindex, suite_instances
from qlat import (
    CharLattice,
    IntMatrix,
    PreconditionError,
    cokernel_M,
    deformation_tori,
    hnf_basis,
    lattices_equal,
    quotient_structure,
    saturate,
)
from qlat.exact_linalg import split_hnf


# ---------------------------------------------------------------------------
# character lattices
# ---------------------------------------------------------------------------


def test_char_lattice_weight_validation():
    T = CharLattice(4, weights=(1, 2, 1))
    assert T.weights == (1, 2, 1)
    with pytest.raises(PreconditionError):
        CharLattice(-1)
    with pytest.raises(PreconditionError):
        CharLattice(3, weights=(1, 1))
    with pytest.raises(PreconditionError):
        CharLattice(3, weights=(1, 1, 2))  # must sum to the rank


# ---------------------------------------------------------------------------
# cokernel invariants
# ---------------------------------------------------------------------------


def test_cokernel_small_case():
    split = CharLattice(3, weights=(1, 1, 1))
    M, inj1_index, iso2 = cokernel_M(split, IntMatrix.from_columns([(0, 0, 1)]), 2)
    assert inj1_index == 2
    assert iso2 is True


def test_cokernel_rank_two_middle_block():
    split = CharLattice(4, weights=(1, 2, 1))
    M, inj1_index, iso2 = cokernel_M(split, IntMatrix.from_columns([(1, 1, 0, 1)]), 3)
    assert inj1_index == 3
    assert iso2 is True


def test_cokernel_higher_rank_summand():
    split = CharLattice(4, weights=(1, 2, 1))
    gens = IntMatrix.from_columns([(0, 1, 0, 1), (0, 0, 1, 0)])
    M, inj1_index, iso2 = cokernel_M(split, gens, 2)
    assert inj1_index == 2
    assert iso2 is True


def test_cokernel_rejects_degenerate_projection():
    split = CharLattice(3, weights=(1, 1, 1))
    with pytest.raises(PreconditionError):
        cokernel_M(split, IntMatrix.from_columns([(1, 0, 0)]), 2)


def test_cokernel_rejects_non_summand():
    split = CharLattice(3, weights=(1, 1, 1))
    with pytest.raises(PreconditionError):
        cokernel_M(split, IntMatrix.from_columns([(0, 0, 2)]), 2)


def test_cokernel_rejects_wrong_weights():
    with pytest.raises(PreconditionError):
        cokernel_M(
            CharLattice(4, weights=(2, 1, 1)),
            IntMatrix.from_columns([(0, 0, 0, 1)]),
            2,
        )


@pytest.mark.parametrize(
    "weights, bad",
    [((1.0, True, 1), 1.0), ((1, Fraction(3, 2), 1), Fraction(3, 2)), ((1, True, 1), True)],
    ids=["float", "fraction", "bool"],
)
def test_char_lattice_rejects_non_integer_weights(weights, bad):
    # truncating (1.0, True, 1) would give the weights (1, 1, 1)
    with pytest.raises(PreconditionError, match=f"^non-integer entry {re.escape(repr(bad))}$"):
        CharLattice(3, weights=weights)


@pytest.mark.parametrize("bad", [0.5, Fraction(3, 2), True], ids=["float", "fraction", "bool"])
def test_cokernel_rejects_non_integer_generators(bad):
    # truncating 0.5 to 0 would make this the valid W = Z·e_3
    with pytest.raises(PreconditionError, match=f"^non-integer entry {re.escape(repr(bad))}$"):
        cokernel_M(CharLattice(3, weights=(1, 1, 1)), [[0], [bad], [1]], 2)


@pytest.mark.parametrize("b", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_cokernel_index_always_p(b, p):
    split = CharLattice(b + 2, weights=(1, b, 1))
    gen = tuple([1] * (b + 1) + [1])
    M, inj1_index, iso2 = cokernel_M(split, IntMatrix.from_columns([gen]), p)
    assert inj1_index == p
    assert iso2 is True


# ---------------------------------------------------------------------------
# the Hermite-basis readout against the intersection oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_cokernel_M_matches_the_intersection_route(seed):
    instances = suite_instances((2, 3, 5, 7), 10, seed, count=100)
    assert {b + 2 for _, b, _ in instances} == set(range(2, 11))
    assert {p for p, _, _ in instances} == {2, 3, 5, 7}
    for p, b, W in instances:
        split = CharLattice(b + 2, (1, b, 1))
        assert cokernel_M(split, W, p) == cokernel_by_intersection(split, W, p), (p, W)


def _random_relations(rng, n):
    """A seeded 2n-row matrix; its top block has rank below n about half the time."""
    m = rng.randint(1, 2 * n + 2)
    bottom = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
    if rng.random() < 0.5:
        top = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
    else:
        # each top half a combination of r < n fixed vectors
        vectors = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n - 1))]
        coeffs = [[rng.randint(-2, 2) for _ in vectors] for _ in range(m)]
        top = [[sum(c * v[i] for c, v in zip(cs, vectors)) for cs in coeffs] for i in range(n)]
    return IntMatrix.from_rows(top + bottom)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_reads_the_projection_and_the_meet(seed):
    rng = random.Random(seed)
    heads_full = set()
    tails_equal = set()
    for _ in range(80):
        n = rng.randint(1, 5)
        A = _random_relations(rng, n)
        H = hnf_basis(A)
        head, tail = split_hnf(H, n)
        assert head == hnf_basis(IntMatrix(A.entries[:n], cols=A.cols))
        assert tail == hnf_basis(tail)
        # the meet with the bottom block, and Z^{2n} / (rel + bottom) ≅ Z^n / head
        meet, coindex = meet_and_coindex(H, n, 1)
        assert tail == meet
        assert quotient_structure(n, head) == coindex
        heads_full.add(head.cols == n)
        if head.cols == n:
            assert coindex.order() == math.prod(head.entries[i][i] for i in range(n))
        # compared with a given W, the tail says what the oracle says
        others = [tail, tail.scale(2), saturate(n, IntMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(2)] for _ in range(n)]))[0]]
        for W in others:
            equal = tail == hnf_basis(W)
            assert equal == lattices_equal(meet, W)
            tails_equal.add(equal)
    assert heads_full == {True, False}
    assert tails_equal == {True, False}


def test_iso2_false_when_the_shrunk_lattice_is_too_small(monkeypatch):
    # W̃ = p²·W in place of the index-p sublattice: λ⁻¹W̃ is p times too small
    def wrong_kernel(row, p):
        return IntMatrix.identity(len(row)).scale(p * p)

    monkeypatch.setattr(deformation_tori, "kernel_mod_p", wrong_kernel)
    monkeypatch.setattr(cokernel_oracle, "kernel_mod_p", wrong_kernel)
    split = CharLattice(4, weights=(1, 2, 1))
    W = IntMatrix.from_columns([(1, 1, 0, 1)])
    M, inj1_index, iso2 = cokernel_M(split, W, 3)
    assert (inj1_index, iso2) == (3, False)
    assert (M, inj1_index, iso2) == cokernel_by_intersection(split, W, 3)


@pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
def test_a_scaled_head_pivot_changes_both_comparison_maps(monkeypatch, position):
    """Each head pivot counts: in ``inj1_index`` and in the onto half of ``iso2``.

    Scaling one pivot of every head ``split_hnf`` returns by p shrinks both
    projections: the first map's coindex becomes p² and the second map is
    no longer onto.  The last pivot is 1 on every valid input, so only
    this substitution shows that it enters the product.
    """
    def scaling_by(p):
        def scaled(H, k):
            head, tail = split_hnf(H, k)
            cols = [list(c) for c in head.columns()]
            col = cols[position]
            i = next(i for i, x in enumerate(col) if x)
            col[i] *= p
            return IntMatrix.from_columns(cols, rows=k), tail

        return scaled

    for p, b, W in suite_instances((2, 3, 5), 6, 0, count=12):
        split = CharLattice(b + 2, (1, b, 1))
        M, inj1_index, iso2 = cokernel_M(split, W, p)
        assert (inj1_index, iso2) == (p, True)
        with monkeypatch.context() as patch:
            patch.setattr(deformation_tori, "split_hnf", scaling_by(p))
            assert cokernel_M(split, W, p) == (M, p * p, False), (p, W)
