"""Fuzzing the command line in-process: no traceback, truthful exit codes.

Argument vectors are drawn from the CLI's own commands and flags with small
primes and small guards; hostile JSON lattice documents go to
``lattice info``.  Every run must end with exit code 0, 1 or 2, never with
an escaping exception or a traceback on stderr, and exit 1 only for an
invariant violation or a suite report with failures; a ``verify`` run
exits 0 only if its report counts at least one instance.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlat.cli import main
from qlat.verify import SUITES

SMALL_LATTICES = ["H", "H⊥H", "H+rank1(2)", "rank1(-2)", "rank1(3)", "rank1(0)", "rank1(2)⊥rank1(2)"]
NAMES = SMALL_LATTICES + ["E8", "K3", "h⊥h", "", "⊥", "D4", "rank1(", "rank1(1e3)"]
PRIMES = st.sampled_from(["-3", "-1", "0", "1", "2", "3", "4", "5", "x"])
GUARDS = st.sampled_from(["-1", "0", "1", "10", "1000"])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
entries = st.integers(-4, 4) | st.integers() | json_values


@st.composite
def matrices(draw, max_rows=4):
    """Integer matrices (square and upper triangular by preference), or junk rows."""
    n = draw(st.integers(0, max_rows))
    cols = draw(st.sampled_from([n, n, n + 1, max(n - 1, 0)]))
    triangular = draw(st.booleans())
    rows = []
    for i in range(n):
        rows.append(
            [0 if triangular and j < i else draw(entries) for j in range(cols)]
        )
    return rows


lattice_docs = st.one_of(
    st.fixed_dictionaries(
        {"half_gram": matrices()}, optional={"rank": st.integers(-1, 5) | json_values}
    ),
    json_values,
)


def _inline(doc):
    return json.dumps(doc)


lattice_args = st.sampled_from(NAMES) | lattice_docs.map(_inline)
small_lattice_args = st.sampled_from(SMALL_LATTICES) | lattice_docs.map(_inline)
matrix_args = matrices(max_rows=5).map(_inline) | st.sampled_from(["[[1],[1],[0],[0]]", "x", "{}"])
pair_args = st.fixed_dictionaries(
    {"lambda": lattice_docs, "tilde_basis": matrices(max_rows=2)}
).map(_inline) | json_values.map(_inline)
plattice_args = st.fixed_dictionaries(
    {
        "ambient": lattice_docs,
        "p": st.integers(-1, 5) | json_values,
        "power": st.integers(-1, 2) | json_values,
        "numerator_basis": matrices(),
    }
).map(_inline) | json_values.map(_inline)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@st.composite
def argvs(draw):
    command = draw(
        st.sampled_from(
            ["lattice", "quadric", "neighbors", "shrink", "grow", "k3-isogeny", "verify", "bogus"]
        )
    )
    if command == "lattice":
        return ["lattice", "info", draw(lattice_args)] + draw(
            _flag("--prime-bound", st.sampled_from(["-5", "0", "1", "2", "30"]))
        )
    if command == "quadric":
        return ["quadric", "lines", draw(small_lattice_args), "--p", draw(PRIMES)] + draw(
            _flag("--max-points", GUARDS)
        )
    if command == "neighbors":
        return ["neighbors", draw(small_lattice_args), "--p", draw(PRIMES)] + draw(
            _flag("--max-points", GUARDS)
        )
    if command == "shrink":
        return (
            ["shrink", draw(small_lattice_args), draw(matrix_args), draw(pair_args)]
            + draw(_flag("--p", PRIMES))
            + draw(_flag("--max-points", GUARDS))
        )
    if command == "grow":
        return (
            ["grow", draw(plattice_args), draw(matrix_args)]
            + draw(_flag("--p", PRIMES))
        )
    if command == "k3-isogeny":
        return ["k3-isogeny", "--d", draw(st.sampled_from(["-2", "0", "1", "3"])), "--p", draw(PRIMES)]
    if command == "verify":
        suite = draw(st.sampled_from(sorted(SUITES) + ["no-such-suite"]))
        return (
            ["verify", suite, "--p", draw(PRIMES)]
            + ["--max-rank", draw(st.sampled_from(["-1", "0", "1", "2", "3"]))]
            + draw(_flag("--seed", st.sampled_from(["0", "3", "-1"])))
            + draw(_flag("--max-points", GUARDS))
        )
    return [command] + draw(st.lists(st.text(max_size=5), max_size=3))


def run(argv):
    """Run ``qlat.cli.main`` in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def check_exit(argv):
    rc, out, err = run(argv)
    assert "Traceback" not in err, (argv, err)
    assert rc in (0, 1, 2), (argv, rc, err)
    if rc == 1:
        violated = err.startswith("invariant violated:")
        assert violated or json.loads(out)["failures"] > 0, (argv, err)
    if rc == 0 and argv[0] == "verify":
        assert json.loads(out)["instances"] > 0, argv  # an exit 0 checked something


@settings(max_examples=150, deadline=None)
@given(argvs())
@example(["quadric", "lines", "H", "--p", "0"])
@example(["neighbors", "H", "--p", "0"])
@example(["k3-isogeny", "--d", "1", "--p", "0"])
@example(["lattice", "info", "rank1(" + "9" * 5000 + ")"])
@example(["verify", "witt-extension", "--p", "2", "--max-rank", "3"])
@example(["verify", "witt-extension", "--p", "-3", "--max-rank", "-1"])
@example(["verify", "cokernel-m", "--p", "0", "--max-rank", "2"])
@example(["verify", "lang-counts", "--p", "4", "--max-rank", "3"])
@example(["verify", "nice-cochar", "--p", "3", "--max-rank", "2"])
@example(["verify", "witt-extension", "--p", "2", "--max-rank", "1"])
@example(["quadric", "lines", "H", "--p", str(10**400 + 1)])
def test_cli_argv_fuzz(argv):
    check_exit(argv)


@settings(max_examples=150, deadline=None)
@given(lattice_docs.map(_inline))
@example("[" * 100000)
@example('{"half_gram": [[1' + "0" * 5000 + "]]}")
@example('{"half_gram": []}')
@example('{"half_gram": [[0]]}')
@example('{"half_gram": [[1, 2], [0, 3]], "rank": 2}')
def test_lattice_info_hostile_documents(doc):
    check_exit(["lattice", "info", doc, "--prime-bound", "20"])
