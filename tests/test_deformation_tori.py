"""Character lattices and the cokernel invariants."""

import pytest

from qlat import CharLattice, IntMatrix, PreconditionError, cokernel_M


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


@pytest.mark.parametrize("b", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_cokernel_index_always_p(b, p):
    split = CharLattice(b + 2, weights=(1, b, 1))
    gen = tuple([1] * (b + 1) + [1])
    M, inj1_index, iso2 = cokernel_M(split, IntMatrix.from_columns([gen]), p)
    assert inj1_index == p
    assert iso2 is True
