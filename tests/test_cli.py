"""End-to-end command-line behavior: documents, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlat import SizeGuardError
from qlat.cli import _WRITE_CHARS, _emit, main
from qlat.verify import VerifyReport

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, f"exit {rc}, stderr: {err}"
    return json.loads(out)


def canonical(out):
    """``out`` re-encoded the way every command must write its document."""
    return json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# inspection commands
# ---------------------------------------------------------------------------


def test_lattice_info(capsys):
    doc = run_json(capsys, "lattice", "info", "H⊥H")
    assert doc["rank"] == 4
    assert doc["signature"] == [2, 2]
    assert abs(doc["det"]) == 1
    assert doc["discriminant_group"] == {"free_rank": 0, "torsion": []}
    assert 2 in doc["self_dual_primes"] and 47 in doc["self_dual_primes"]


def test_lattice_info_rank_one(capsys):
    doc = run_json(capsys, "lattice", "info", "rank1(3)", "--prime-bound", "10")
    assert doc["rank"] == 1
    assert doc["det"] == 6
    assert doc["self_dual_primes"] == [5, 7]
    assert doc["discriminant_group"]["torsion"] == [6]


def test_lattice_info_prime_bound_guard(capsys):
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "lattice", "info", "H", "--prime-bound", "10000000")
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (2, "")
    assert err == "error: --prime-bound 10000000 exceeds the guard 1000000 (no flag raises it)\n"


def test_quadric_lines_count(capsys):
    doc = run_json(capsys, "quadric", "lines", "H⊥H", "--p", "3")
    assert doc["p"] == 3
    assert doc["count"] == 16
    assert len(doc["lines"]) == 16
    assert doc["lines"][0] == [1, 0, 0, 0]


def test_neighbors_count(capsys):
    doc = run_json(capsys, "neighbors", "H", "--p", "3")
    assert doc["p"] == 3
    assert doc["count"] == 2
    for entry in doc["neighbors"]:
        assert entry["p"] == 3
        assert entry["power"] == 1


def test_k3_isogeny_degree(capsys):
    doc = run_json(capsys, "k3-isogeny", "--d", "1", "--p", "2")
    assert doc["degree"] == 4
    assert doc["xi"][:2] == [1, 4]
    assert doc["lattice"]["rank"] == 22


# ---------------------------------------------------------------------------
# shrink / grow round trip through files
# ---------------------------------------------------------------------------


@pytest.fixture
def shrink_args(tmp_path):
    emb = tmp_path / "embedding.json"
    emb.write_text(json.dumps([[1], [1], [0], [0], [0], [0]]), encoding="utf-8")
    pair = tmp_path / "pair.json"
    pair.write_text(
        json.dumps(
            {"lambda": {"rank": 1, "half_gram": [[1]]}, "tilde_basis": [[2]]}
        ),
        encoding="utf-8",
    )
    return str(emb), str(pair)


def test_shrink_then_grow_round_trip(capsys, tmp_path, shrink_args):
    emb, pair = shrink_args
    doc = run_json(capsys, "shrink", "H⊥H⊥H", emb, pair, "--p", "2")
    assert doc["p"] == 2
    assert doc["count"] >= 1
    member = tmp_path / "member.json"
    member.write_text(json.dumps(doc["fiber"][0]), encoding="utf-8")
    tilde = tmp_path / "tilde.json"
    tilde.write_text(json.dumps([[2], [2], [0], [0], [0], [0]]), encoding="utf-8")
    grown = run_json(capsys, "grow", str(member), str(tilde), "--p", "2")
    assert grown["p"] == 2
    assert grown["lattice"]["power"] == 0
    basis = grown["lattice"]["numerator_basis"]
    assert basis == [[1 if i == j else 0 for j in range(6)] for i in range(6)]


def test_shrink_rejects_mismatched_prime(capsys, shrink_args):
    emb, pair = shrink_args
    rc, out, err = run_cli(capsys, "shrink", "H⊥H⊥H", emb, pair, "--p", "3")
    assert rc == 2
    assert "does not match" in err
    assert out == ""


def test_shrink_rejects_a_non_summand_embedding(capsys, tmp_path):
    # 2·(e1 + f1) preserves the form of λ = [[4]] but spans a non-saturated line
    emb = json.dumps([[2], [2], [0], [0], [0], [0]])
    pair = tmp_path / "pair.json"
    pair.write_text(
        json.dumps({"lambda": {"rank": 1, "half_gram": [[4]]}, "tilde_basis": [[2]]}),
        encoding="utf-8",
    )
    rc, out, err = run_cli(capsys, "shrink", "H⊥H⊥H", emb, str(pair))
    assert (rc, out) == (2, "")
    assert err == "error: W is not a direct summand\n"


def test_grow_rejects_mismatched_prime(capsys, tmp_path, shrink_args):
    emb, pair = shrink_args
    doc = run_json(capsys, "shrink", "H⊥H⊥H", emb, pair)
    member = tmp_path / "member.json"
    member.write_text(json.dumps(doc["fiber"][0]), encoding="utf-8")
    tilde = tmp_path / "tilde.json"
    tilde.write_text(json.dumps([[2], [2], [0], [0], [0], [0]]), encoding="utf-8")
    rc, out, err = run_cli(capsys, "grow", str(member), str(tilde), "--p", "5")
    assert rc == 2
    assert "does not match" in err


# ---------------------------------------------------------------------------
# the document writer: byte-identical to json.dumps(sort_keys, indent=2)
# ---------------------------------------------------------------------------


class RecordingStdout:
    """Stands in for stdout and keeps each write separately."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def emitted(doc):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _emit(doc)
    return out.getvalue()


_ints = st.integers(-5, 5) | st.integers(-(10**30), 10**30) | st.sampled_from(
    [10**4299, -(10**4300 - 1)]  # 4300 digits, the most the default limit allows
)
_scalars = (
    _ints
    | st.booleans()
    | st.none()
    | st.floats()
    | st.text(max_size=8)
)
_rows = st.integers(1, 4).flatmap(
    lambda w: st.lists(st.lists(_ints, min_size=w, max_size=w), max_size=6)
)
_mixed = st.lists(st.one_of(st.integers(-3, 3), st.booleans()), max_size=6)
_leaves = _scalars | _rows | _rows.map(lambda rows: tuple(map(tuple, rows))) | _mixed
_documents = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(_documents)
def test_writer_matches_json_dumps(doc):
    assert emitted(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


class _Sign(IntEnum):
    MINUS = -1


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        {"\u22a5\u00e9": {}, "": [[], ()]},
        [[1, 2], [3]],
        [[1, True], [0, 2]],
        [True, 1, False],
        [[[1, 2], [3, 4]], ((5,), (6,))],
        {"s": "\x00\x1f\"\\\u22a5\U0001f600", "f": [1.5, float("nan"), -float("inf")]},
        [[1, 2, 3], [4, 5, 6]],
        ((1, 2), (3, 4), (5, 6)),
        [(1, 2), [3, 4]],
        [[7, -8, 9]],
        [[1], [-2], [3]],
        [[1, _Sign.MINUS], [2, 3]],
        [(2**64 + 1, -(2**70)), (-1, 0), (-(2**64), 2**200)],
        [{"basis": [[1, 0], [0, 1]], "p": 2}, {"basis": [(2, 1), (0, 3)], "p": 2}],
    ],
    ids=["empty-dict", "empty-list", "unicode-keys", "unequal-rows", "bool-in-row",
         "bool-in-list", "nested-rows", "strings-floats", "list-rows", "tuple-rows",
         "list-and-tuple-rows", "single-row", "rows-of-one", "int-enum-in-rows",
         "big-and-negative-rows", "rows-in-dict-in-list"],
)
def test_writer_matches_json_dumps_on_edge_cases(doc):
    assert emitted(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "doc,fast",
    [
        ([[1, 2], [3, 4]], True),
        ([(1, 2), [3, 4]], True),
        ([[1, _Sign.MINUS], [2, 3]], False),
        ([[1, True], [0, 2]], False),
        ([[1, 2], [3]], False),
        ([[], []], False),
    ],
    ids=["int-rows", "mixed-row-types", "int-enum", "bool", "ragged", "empty-rows"],
)
def test_writer_row_fast_path_takes_plain_int_rows_only(monkeypatch, doc, fast):
    import qlat.cli

    seen = []
    encode = qlat.cli._int_rows

    def recording(rows, *args):
        seen.append(rows)
        return encode(rows, *args)

    monkeypatch.setattr(qlat.cli, "_int_rows", recording)
    assert emitted(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert seen == ([doc] if fast else [])


def test_writer_streams_a_long_document():
    doc = {"count": 20000, "lines": [(i, -i, 0) for i in range(20000)]}
    out = RecordingStdout()
    with contextlib.redirect_stdout(out):
        _emit(doc)
    whole = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert "".join(out.writes) == whole
    assert len(out.writes) > 1
    assert max(map(len, out.writes)) < len(whole)
    assert max(map(len, out.writes)) <= 2 * _WRITE_CHARS


@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "info", "H⊥E8"],
        ["quadric", "lines", "H⊥H", "--p", "3"],
        ["neighbors", "H", "--p", "3"],
        ["k3-isogeny", "--d", "1", "--p", "2"],
        ["verify", "lang-counts", "--p", "2"],
    ],
    ids=["lattice-info", "quadric-lines", "neighbors", "k3-isogeny", "verify"],
)
def test_every_command_writes_canonical_json(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    assert out == canonical(out)


def test_shrink_and_grow_write_canonical_json(capsys, tmp_path, shrink_args):
    emb, pair = shrink_args
    rc, out, err = run_cli(capsys, "shrink", "H⊥H⊥H", emb, pair, "--p", "2")
    assert rc == 0, err
    assert out == canonical(out)
    member = tmp_path / "member.json"
    member.write_text(json.dumps(json.loads(out)["fiber"][0]), encoding="utf-8")
    rc, out, err = run_cli(capsys, "grow", str(member), "[[2],[2],[0],[0],[0],[0]]", "--p", "2")
    assert rc == 0, err
    assert out == canonical(out)


def test_python_dash_m_runs_the_cli(capsys):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qlat", "lattice", "info", "H"],
        env=env, capture_output=True, timeout=60,
    )
    rc, out, _ = run_cli(capsys, "lattice", "info", "H")
    assert (proc.returncode, rc) == (0, 0), proc.stderr
    assert proc.stdout == out.encode()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_bad_lattice_name_is_input_error(capsys):
    rc, out, err = run_cli(capsys, "lattice", "info", "D4")
    assert rc == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("name", ["E8⊥", "H⊥⊥H", "+H"])
def test_lattice_name_with_an_empty_component_is_input_error(capsys, name):
    rc, out, err = run_cli(capsys, "lattice", "info", name)
    assert rc == 2
    assert err == f"error: lattice name {name!r} has an empty component\n"
    assert out == ""


def test_missing_file_is_input_error(capsys, tmp_path):
    rc, out, err = run_cli(capsys, "grow", str(tmp_path / "nope.json"), "[[1],[1]]")
    assert rc == 2


def test_undecodable_file_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    rc, out, err = run_cli(capsys, "lattice", "info", str(bad))
    assert rc == 2
    assert err.startswith(f"error: invalid JSON in {bad}:")
    assert out == ""


@pytest.mark.parametrize("p", ["0", "-3", "9"])
def test_verify_rejects_a_non_prime(capsys, p):
    rc, out, err = run_cli(capsys, "verify", "spinor-surjectivity", "--p", p, "--max-rank", "2")
    assert rc == 2
    assert err.splitlines()[-1] == f"error: {p} is not prime"
    assert out == ""


def test_composite_prime_is_input_error(capsys):
    rc, out, err = run_cli(capsys, "quadric", "lines", "H", "--p", "4")
    assert rc == 2


HUGE = str(10**400 + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["quadric", "lines", "H", "--p", HUGE],
        ["k3-isogeny", "--d", "1", "--p", HUGE],
        ["verify", "k3-degree", "--p", HUGE],
    ],
    ids=["quadric", "k3-isogeny", "verify"],
)
def test_huge_composite_prime_is_one_error_line(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    # verify names its suite on stderr first; the error itself is one line
    assert err.endswith(f"\nerror: {HUGE} is not prime\n") or err == f"error: {HUGE} is not prime\n"
    assert err.count("error:") == 1 and "Traceback" not in err


def test_large_prime_is_decided_at_once(capsys):
    # 10**18 + 3 is prime; its p + 1 isotropic lines of H exceed the guard
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "quadric", "lines", "H", "--p", str(10**18 + 3))
    assert (rc, out) == (2, "")
    assert err.startswith("error: projective space has")
    rc, out, err = run_cli(capsys, "k3-isogeny", "--d", "1", "--p", "1000000000000037")
    assert rc == 0
    assert time.perf_counter() - start < 5.0


def test_size_guard_is_input_error(capsys):
    rc, out, err = run_cli(capsys, "quadric", "lines", "K3", "--p", "5", "--max-points", "100")
    assert rc == 2
    assert "error:" in err


def test_verify_size_guard_is_input_error(capsys):
    rc, out, err = run_cli(capsys, "verify", "lang-counts", "--max-points", "10")
    assert rc == 2
    assert err.splitlines()[-1].startswith("error:")
    assert "exceeds limit 10" in err
    assert "Traceback" not in err
    assert out == ""


# every command that takes --max-points; the parser rejects the guard before
# it reads any other argument, so the documents need not be valid
_GUARDED_COMMANDS = {
    "quadric lines": ["quadric", "lines", "H⊥H", "--p", "3"],
    "neighbors": ["neighbors", "H⊥H", "--p", "3"],
    "shrink": ["shrink", "H⊥H⊥H", "[[1], [1], [0], [0], [0], [0]]", "{}"],
    "grow": ["grow", "{}", "[[2], [2], [0], [0], [0], [0]]"],
    "verify": ["verify", "cokernel-m"],
}


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("command", sorted(_GUARDED_COMMANDS))
def test_max_points_below_one_is_rejected_by_the_parser(capsys, command, value):
    with pytest.raises(SystemExit) as exc:
        main(_GUARDED_COMMANDS[command] + ["--max-points", value])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.splitlines()[-1].endswith(
        f"error: argument --max-points: must be at least 1, not {value}"
    )
    assert "Traceback" not in err


def test_max_points_below_one_exits_two_from_a_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qlat", "verify", "cokernel-m", "--max-points", "-3"],
        env=env, capture_output=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert b"argument --max-points: must be at least 1, not -3" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_max_points_keeps_the_parser_message_for_a_non_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quadric", "lines", "H", "--p", "3", "--max-points", "ten"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.splitlines()[-1].endswith("error: argument --max-points: invalid int value: 'ten'")


@pytest.mark.parametrize("bad", ["1.5", "true"])
@pytest.mark.parametrize("where", ["lattice", "embedding"])
def test_a_non_integer_json_matrix_entry_is_input_error(capsys, tmp_path, where, bad):
    if where == "lattice":
        argv = ["lattice", "info", '{"half_gram": [[2, %s], [0, 2]]}' % bad]
    else:
        member = tmp_path / "member.json"
        member.write_text(json.dumps({
            "ambient": {"rank": 2, "half_gram": [[0, 1], [0, 0]]},
            "p": 3,
            "power": 1,
            "numerator_basis": [[1, 0], [0, 9]],
        }), encoding="utf-8")
        argv = ["grow", str(member), "[[1], [%s]]" % bad]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == f"error: non-integer entry {json.loads(bad)!r}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value", [("p", "three"), ("p", 2.5), ("power", None), ("power", [1])]
)
def test_non_integer_scaled_lattice_field_is_input_error(capsys, tmp_path, key, value):
    doc = {
        "ambient": {"rank": 2, "half_gram": [[0, 1], [0, 0]]},
        "p": 3,
        "power": 1,
        "numerator_basis": [[1, 0], [0, 1]],
    }
    doc[key] = value
    member = tmp_path / "member.json"
    member.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, err = run_cli(capsys, "grow", str(member), "[[1],[0]]")
    assert rc == 2
    assert err == f"error: scaled-lattice {key} must be an integer\n"
    assert out == ""


@pytest.mark.parametrize("rank", ["2.0", "true", "\"2\""])
def test_a_non_integer_declared_rank_is_input_error(capsys, rank):
    doc = '{"half_gram": [[0, 1], [0, 0]], "rank": %s}' % rank
    rc, out, err = run_cli(capsys, "lattice", "info", doc)
    assert (rc, out) == (2, "")
    assert err == "error: declared rank disagrees with the matrix\n"


def test_neighbor_checks_keep_their_error_classes(capsys, tmp_path, monkeypatch):
    """Q not integral on a given scaled lattice is an input error (exit 2);
    a neighbor the library built failing its own check is an invariant
    violation (exit 1)."""
    import qlat.padic_lattice

    hg = [[0] * 6 for _ in range(6)]
    for i in (0, 2, 4):
        hg[i][i + 1] = 1  # H⊥H⊥H
    numer = [[2 if i == j == 0 else int(i == j) for j in range(6)] for i in range(6)]
    doc = {"ambient": {"rank": 6, "half_gram": hg}, "p": 2, "power": 1, "numerator_basis": numer}
    member = tmp_path / "member.json"
    member.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, err = run_cli(capsys, "grow", str(member), "[[1],[0],[0],[0],[0],[0]]")
    assert (rc, out, err) == (2, "", "error: lattice quadratic form is not integral\n")
    # φ(v̄) read as [v̄, v̄]/p, as from an unlifted line
    quad_value = qlat.padic_lattice.quad_value
    monkeypatch.setattr(qlat.padic_lattice, "quad_value", lambda N, x: 2 * quad_value(N, x))
    rc, out, err = run_cli(capsys, "neighbors", "H⊥H⊥H", "--p", "2")
    assert (rc, out) == (1, "")
    assert re.fullmatch(r"invariant violated: neighbor lattice is not (integral|even)\n", err)


def test_non_object_documents_are_input_errors(capsys, tmp_path):
    five = tmp_path / "five.json"
    five.write_text("5", encoding="utf-8")
    rc, out, err = run_cli(capsys, "grow", str(five), "[[1],[0]]")
    assert (rc, err) == (2, "error: scaled-lattice document must be a JSON object\n")
    emb = "[[1],[1],[0],[0],[0],[0]]"
    rc, out, err = run_cli(capsys, "shrink", "H⊥H⊥H", emb, str(five))
    assert (rc, err) == (2, "error: minimal-pair document must be a JSON object\n")


# ---------------------------------------------------------------------------
# verification suites through the CLI
# ---------------------------------------------------------------------------


def test_verify_success_shape(capsys):
    doc = run_json(capsys, "verify", "k3-degree", "--p", "2")
    assert doc["suite"] == "k3-degree"
    assert doc["failures"] == 0
    assert doc["instances"] > 0
    assert isinstance(doc["details"], list)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "nice-cochar", "--p", "3", "--max-rank", "5"],
        ["verify", "witt-extension", "--p", "2", "--max-rank", "1"],
        ["verify", "cokernel-m", "--max-rank", "1"],
        ["verify", "k3-degree", "--max-rank", "21"],
    ],
    ids=["nice-cochar", "witt-extension", "cokernel-m", "k3-degree"],
)
def test_verify_selecting_no_instance_is_input_error(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"error: suite {argv[1]} selected no instance for these parameters"
    )


@pytest.mark.parametrize(
    "suite, top",
    [
        ("witt-extension", 4),
        ("neighbor-bijection", 6),
        ("nice-cochar", 6),
        ("lang-counts", 6),
        ("spinor-surjectivity", 6),
        ("cokernel-m", 10),
        ("k3-degree", 22),
    ],
)
def test_verify_max_rank_past_the_suite_range_is_input_error(capsys, suite, top):
    rc, out, err = run_cli(capsys, "verify", suite, "--max-rank", str(top + 1))
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == f"error: suite {suite} checks ranks up to {top}, not {top + 1}"


@pytest.mark.parametrize(
    "argv, tuples, bound",
    [
        (["--p", "5", "--max-rank", "4"], 12494593, 10000000),
        (["--p", "3", "--max-points", "50000"], 93889, 50000),
    ],
    ids=["p5-rank4-default-guard", "p3-lowered-guard"],
)
def test_verify_witt_extension_guards_its_sweep(capsys, argv, tuples, bound):
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, "verify", "witt-extension", *argv)
    assert time.perf_counter() - start < 10.0
    assert (rc, out) == (2, "")
    last = err.splitlines()[-1]
    assert f"up to {tuples} tuples, past the guard {bound}" in last
    assert "--max-points" in last


def test_verify_witt_extension_guard_trip_is_input_error(capsys, monkeypatch):
    import qlat.verify as verify_module

    def guarded(V, X, Y):
        raise SizeGuardError("orbit exceeds the guard 7")

    monkeypatch.setattr(verify_module, "witt_extension", guarded)
    rc, out, err = run_cli(capsys, "verify", "witt-extension", "--p", "2")
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == "error: orbit exceeds the guard 7"


def test_verify_witt_extension_guard_trip_in_a_child_share_exits_2(capsys, monkeypatch):
    import multiprocessing

    import qlat.verify as verify_module

    caller, extension = os.getpid(), verify_module.witt_extension

    def guarded_in_children(V, X, Y):
        if os.getpid() != caller:
            raise SizeGuardError("orbit exceeds the guard 7")
        return extension(V, X, Y)

    monkeypatch.setattr(verify_module, "witt_extension", guarded_in_children)
    monkeypatch.setattr(verify_module, "_usable_cores", lambda: 2)
    rc, out, err = run_cli(capsys, "verify", "witt-extension", "--p", "2")
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == "error: orbit exceeds the guard 7"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cores, banner", [(1, "1 process"), (2, "2 processes")])
def test_verify_banner_names_the_processes(capsys, monkeypatch, cores, banner):
    import qlat.verify as verify_module

    monkeypatch.setattr(verify_module, "_usable_cores", lambda: cores)
    rc, _, err = run_cli(capsys, "verify", "witt-extension", "--p", "2")
    assert rc == 0
    assert err.splitlines()[0] == (
        f"running suite witt-extension [backend: pure-python, {banner}]"
    )
    rc, _, err = run_cli(capsys, "verify", "lang-counts", "--p", "2")
    assert rc == 0
    assert err.splitlines()[0] == f"running suite lang-counts [backend: pure-python, {banner}]"


def _verify_stdout_under(capsys, monkeypatch, counts, *argv):
    import qlat.verify as verify_module

    outs = []
    for cores in counts:
        monkeypatch.setattr(verify_module, "_usable_cores", lambda: cores)
        rc, out, _ = run_cli(capsys, "verify", *argv)
        assert rc == 0
        outs.append(out)
    return outs


def test_verify_witt_extension_stdout_does_not_depend_on_the_cores(capsys, monkeypatch):
    outs = _verify_stdout_under(
        capsys, monkeypatch, (1, 2), "witt-extension", "--p", "3", "--max-rank", "3"
    )
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["instances"] > 0


@pytest.mark.parametrize("suite", ["nice-cochar", "neighbor-bijection"])
def test_verify_dealt_suite_stdout_does_not_depend_on_the_cores(capsys, monkeypatch, suite):
    outs = _verify_stdout_under(capsys, monkeypatch, (1, 2), suite, "--p", "2")
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["instances"] > 0


def test_verify_guard_trip_in_a_child_share_of_a_dealt_suite_exits_2(capsys, monkeypatch):
    import multiprocessing

    import qlat.verify as verify_module

    caller, isogeny = os.getpid(), verify_module.k3_isogeny

    def guarded_in_children(d, p):
        if os.getpid() != caller:
            raise SizeGuardError("isogeny exceeds the guard 7")
        return isogeny(d, p)

    monkeypatch.setattr(verify_module, "k3_isogeny", guarded_in_children)
    monkeypatch.setattr(verify_module, "_usable_cores", lambda: 2)
    rc, out, err = run_cli(capsys, "verify", "k3-degree", "--p", "2")
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1] == "error: isogeny exceeds the guard 7"
    assert multiprocessing.active_children() == []


def test_verify_stderr_names_backend(capsys):
    rc, out, err = run_cli(capsys, "verify", "lang-counts", "--p", "2")
    assert rc == 0
    assert "running suite lang-counts" in err
    assert "backend:" in err


def test_verify_reports_its_rate_on_stderr_only(capsys):
    rc, out, err = run_cli(capsys, "verify", "spinor-surjectivity")
    assert rc == 0
    # the stdout of this suite before the rate line was added
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "07b4d2556e779fdaf625518f2ca5b0d2ee7081d1c47297a2f53ca0bc0818562e"
    )
    assert re.fullmatch(
        r"suite spinor-surjectivity: 12 instances in \d+\.\d\d s"
        r" \(\d+\.\d instances/s, (1 process|\d+ processes)\)",
        err.splitlines()[-1],
    )


@pytest.mark.parametrize(
    "argv, ran",
    [
        ((), "12 instances in .* 2 processes"),
        (("--p", "3", "--max-rank", "4"), "1 instances in .* 1 process"),
    ],
    ids=["12-instances", "1-instance"],
)
def test_verify_closing_line_names_the_processes_that_ran(capsys, monkeypatch, argv, ran):
    import qlat.verify as verify_module

    monkeypatch.setattr(verify_module, "_usable_cores", lambda: 2)
    rc, _, err = run_cli(capsys, "verify", "spinor-surjectivity", *argv)
    assert rc == 0
    first, last = err.splitlines()[0], err.splitlines()[-1]
    assert first == "running suite spinor-surjectivity [backend: pure-python, 2 processes]"
    assert re.fullmatch(rf"suite spinor-surjectivity: {ran}\)", last)


def test_verify_unknown_suite_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_deterministic_output(capsys):
    rc1, out1, _ = run_cli(capsys, "verify", "cokernel-m", "--seed", "5")
    rc2, out2, _ = run_cli(capsys, "verify", "cokernel-m", "--seed", "5")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_failure_exits_one(capsys, monkeypatch):
    import qlat.cli as cli_module

    def fake_run_suite(name, **kwargs):
        return VerifyReport(
            suite=name,
            instances=3,
            failures=2,
            details=[
                "one instance disagreed",
                {"input": "0f3a", "expected": [2, 2], "actual": {"lattice": "H⊥H", "count": 0}},
            ],
        )

    monkeypatch.setattr(cli_module, "run_suite", fake_run_suite)
    rc, out, err = run_cli(capsys, "verify", "lang-counts")
    assert rc == 1
    doc = json.loads(out)
    assert doc["failures"] == 2
    assert out == canonical(out)
