"""JSON round trips for every document shape, plus lattice-name parsing."""

import json

import pytest

from qlat import (
    AbelianQuotient,
    IntMatrix,
    MinimalPair,
    PLattice,
    PreconditionError,
    direct_sum,
    e8_lattice,
    hyperbolic_plane,
    k3_isogeny,
    k3_lattice,
    rank_one,
)
from qlat.serialize import (
    lattice_from_dict,
    lattice_to_dict,
    load_lattice_arg,
    load_matrix_arg,
    load_pair_arg,
    load_plattice_arg,
    matrix_from_rows,
    matrix_to_rows,
    pair_from_dict,
    parse_lattice_name,
    plattice_from_dict,
    plattice_to_dict,
    polarized_to_dict,
    quotient_to_dict,
)

H = hyperbolic_plane()
H2 = direct_sum(H, H)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_matrix_round_trip():
    M = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert matrix_from_rows(matrix_to_rows(M)) == M


def test_matrix_rejects_non_integers():
    with pytest.raises(PreconditionError):
        matrix_from_rows([[1, 2.5]])
    with pytest.raises(PreconditionError):
        matrix_from_rows([[True]])
    with pytest.raises(PreconditionError):
        matrix_from_rows("nope")


@pytest.mark.parametrize("L", [H, H2, e8_lattice(), k3_lattice(), rank_one(-3)])
def test_lattice_round_trip(L):
    doc = lattice_to_dict(L)
    assert set(doc) == {"rank", "half_gram"}
    assert lattice_from_dict(doc) == L
    assert json.loads(json.dumps(doc)) == doc  # JSON-clean


def test_lattice_dict_rank_cross_check():
    doc = lattice_to_dict(H)
    doc["rank"] = 3
    with pytest.raises(PreconditionError):
        lattice_from_dict(doc)
    with pytest.raises(PreconditionError):
        lattice_from_dict({"rank": 2})


def test_plattice_round_trip():
    N = PLattice(H2, 3, 1, IntMatrix.from_columns([(1, 0, 0, 0), (0, 9, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]))
    doc = plattice_to_dict(N)
    assert set(doc) == {"ambient", "p", "power", "numerator_basis"}
    assert plattice_from_dict(doc) == N
    assert json.loads(json.dumps(doc)) == doc


def test_plattice_dict_requires_all_keys():
    doc = plattice_to_dict(PLattice(H, 2, 0, IntMatrix.identity(2)))
    del doc["power"]
    with pytest.raises(PreconditionError):
        plattice_from_dict(doc)


def test_pair_round_trip():
    pair = MinimalPair(rank_one(1), IntMatrix.from_rows([[2]]))
    doc = {"lambda": {"rank": 1, "half_gram": [[1]]}, "tilde_basis": [[2]]}
    back = pair_from_dict(doc)
    assert back.lattice == pair.lattice
    assert back.tilde_basis == pair.tilde_basis


def test_polarized_dict_shape():
    pol = k3_isogeny(1, 2)
    doc = polarized_to_dict(pol)
    assert set(doc) == {"lattice", "xi"}
    assert doc["xi"][:2] == [1, 4]
    assert lattice_from_dict(doc["lattice"]).rank == 22


def test_quotient_dict_shape():
    q = AbelianQuotient(free_rank=1, torsion=(2, 6))
    assert quotient_to_dict(q) == {"free_rank": 1, "torsion": [2, 6]}


# ---------------------------------------------------------------------------
# name parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,expected",
    [
        ("H", H),
        ("h", H),
        ("H⊥H", H2),
        ("H+H", H2),
        ("  H + H ", H2),
        ("E8", e8_lattice()),
        ("K3", k3_lattice()),
        ("rank1(5)", rank_one(5)),
        ("rank1(-2)", rank_one(-2)),
        ("H⊥rank1(3)", direct_sum(H, rank_one(3))),
        ("H⊥H⊥H", direct_sum(H, H, H)),
    ],
)
def test_parse_lattice_name(name, expected):
    assert parse_lattice_name(name) == expected


@pytest.mark.parametrize(
    "bad", ["", "⊥", "H⊥Q", "rank1()", "rank1(2.5)", "A2", "H,H", "E8⊥", "H⊥⊥H", "+H", "H+ +H"]
)
def test_parse_rejects_unknown_names(bad):
    with pytest.raises(PreconditionError):
        parse_lattice_name(bad)


# ---------------------------------------------------------------------------
# CLI argument loading
# ---------------------------------------------------------------------------


def test_load_lattice_arg_accepts_name_file_and_inline(tmp_path):
    assert load_lattice_arg("H⊥H") == H2
    doc = lattice_to_dict(H2)
    path = tmp_path / "lattice.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_lattice_arg(str(path)) == H2
    assert load_lattice_arg(json.dumps(doc)) == H2


def test_load_matrix_arg_inline_and_wrapped(tmp_path):
    M = IntMatrix.from_rows([[1, 0], [0, 1]])
    assert load_matrix_arg("[[1,0],[0,1]]") == M
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [[1, 0], [0, 1]]}), encoding="utf-8")
    assert load_matrix_arg(str(path)) == M
    with pytest.raises(PreconditionError):
        load_matrix_arg("not-json")


def test_load_plattice_and_pair_args(tmp_path):
    N = PLattice(H, 2, 0, IntMatrix.identity(2))
    npath = tmp_path / "n.json"
    npath.write_text(json.dumps(plattice_to_dict(N)), encoding="utf-8")
    assert load_plattice_arg(str(npath)) == N
    with pytest.raises(PreconditionError):
        load_plattice_arg("H")

    pair = MinimalPair(rank_one(1), IntMatrix.from_rows([[3]]))
    ppath = tmp_path / "pair.json"
    pair_doc = {"lambda": {"rank": 1, "half_gram": [[1]]}, "tilde_basis": [[3]]}
    ppath.write_text(json.dumps(pair_doc), encoding="utf-8")
    loaded = load_pair_arg(str(ppath))
    assert loaded.lattice == pair.lattice and loaded.tilde_basis == pair.tilde_basis
    with pytest.raises(PreconditionError):
        load_pair_arg("42‑pair")


def test_inline_json_syntax_error_is_a_precondition_error():
    with pytest.raises(PreconditionError):
        load_lattice_arg("{broken json")
