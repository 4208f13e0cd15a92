"""The verification harness itself: formulas, report bookkeeping, dispatch."""

import os
import random
import signal
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

from qlat import (
    FpIsometry,
    FpQuadSpace,
    InvariantViolationError,
    PreconditionError,
    ProjLine,
    SizeGuardError,
    direct_sum,
    hyperbolic_plane,
    reduction,
)
from qlat import fp_quadratic
from qlat import verify as verify_module
from qlat.cli import main
from qlat.modp import rank
from qlat.verify import SUITES, VerifyReport, _digest, closed_form_line_count, run_suite

import quadric_oracle
from children import assert_no_child_left


def _hyperbolic_space(p, copies):
    return reduction(direct_sum(*[hyperbolic_plane()] * copies), p)


@pytest.mark.parametrize(
    "p,copies,count",
    [
        (2, 1, 2),
        (3, 1, 2),
        (5, 1, 2),
        (2, 2, 9),
        (3, 2, 16),
        (2, 3, 35),
        (5, 2, 36),
    ],
)
def test_closed_form_matches_frozen_values(p, copies, count):
    assert closed_form_line_count(_hyperbolic_space(p, copies)) == count


def test_closed_form_odd_dimension():
    # x² + y² + z² over F_3: odd-dimensional, Witt index 1 → (p² - 1)/(p - 1) = 4
    V = FpQuadSpace(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert closed_form_line_count(V) == 4


def test_closed_form_nonsplit_dimension_four():
    # H ⊥ (anisotropic plane) over F_2: m = 1, a = 2, k = 2 → (p-1)(p²+1)/(p-1)
    V = FpQuadSpace(2, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1)))
    assert closed_form_line_count(V) == 5  # p² + 1


def test_closed_form_rejects_degenerate_space():
    V = FpQuadSpace(2, ((0, 0), (0, 0)))
    with pytest.raises(PreconditionError):
        closed_form_line_count(V)


# ---------------------------------------------------------------------------
# the brute-force line count: a scan that carries Q along the prefixes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_scan_matches_q_at_each_vector_on_every_nondegenerate_space(p):
    spaces = list(verify_module._nondegenerate_spaces(p, 6))
    assert len(spaces) == (6 if p == 2 else 12)
    for name, V in spaces:
        counts = verify_module._quadric_value_counts(V)
        assert sum(counts) == p**V.dim, name  # every vector visited once
        assert counts == quadric_oracle.value_counts(V), name
        assert verify_module._brute_line_count(V) == quadric_oracle.line_count(V), name
        assert verify_module._brute_line_count(V) == closed_form_line_count(V), name


def _degenerate_half_grams(p, seed=0):
    """The zero form of each dimension 1 … 4, and seeded forms with a radical."""
    rng = random.Random(seed)
    forms = [[[0] * n for _ in range(n)] for n in range(1, 5)]
    for n in range(1, 6):
        for _ in range(6):
            rows = [[rng.randrange(p) if j >= i else 0 for j in range(n)] for i in range(n)]
            k = rng.randrange(n)  # the k-th coordinate vector spans the radical
            for i in range(n):
                rows[min(i, k)][max(i, k)] = 0
            forms.append(rows)
    return forms


@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_scan_matches_q_at_each_vector_on_degenerate_forms(p):
    forms = _degenerate_half_grams(p)
    spaces = [FpQuadSpace(p, rows) for rows in forms]
    assert not any(V.is_nondegenerate() for V in spaces)
    for V in spaces:
        counts = verify_module._quadric_value_counts(V)
        assert sum(counts) == p**V.dim
        assert counts == quadric_oracle.value_counts(V), V.half_gram
        assert verify_module._brute_line_count(V) == quadric_oracle.line_count(V)
    empty = FpQuadSpace(p, ())  # one vector, the zero vector
    assert verify_module._quadric_value_counts(empty) == quadric_oracle.value_counts(empty)
    assert verify_module._brute_line_count(empty) == 0


def test_report_that_checked_nothing_is_an_error():
    with pytest.raises(PreconditionError, match="selected no instance"):
        VerifyReport(suite="demo").finish()


def test_report_records_and_sorts_failures():
    r = VerifyReport(suite="demo")
    r.record({"b": 1}, True, 1, 1)
    r.record({"z": 1}, False, 2, 3)
    r.record({"a": 1}, False, 5, 6)
    r.finish()
    assert r.instances == 3
    assert r.failures == 2
    assert [d["expected"] for d in r.details] == [5, 2]  # sorted by input digest
    doc = r.to_dict()
    assert doc["suite"] == "demo"
    assert doc["instances"] == 3
    assert doc["failures"] == 2


def test_run_suite_rejects_unknown_name():
    with pytest.raises(PreconditionError):
        run_suite("not-a-suite")


def test_suite_registry_is_complete():
    assert set(SUITES) == {
        "neighbor-bijection",
        "nice-cochar",
        "witt-extension",
        "cokernel-m",
        "k3-degree",
        "lang-counts",
        "spinor-surjectivity",
    }


def test_suite_reports_are_deterministic():
    a = run_suite("lang-counts", primes=(2,), max_rank=4).to_dict()
    b = run_suite("lang-counts", primes=(2,), max_rank=4).to_dict()
    assert a == b
    assert a["failures"] == 0


# ---------------------------------------------------------------------------
# instances dealt in shares, one per process
# ---------------------------------------------------------------------------


def _cores(monkeypatch, count):
    monkeypatch.setattr(verify_module, "_usable_cores", lambda: count)


def _shares_in_turn(monkeypatch):
    """Run the shares of each deal one after another in this process; the
    returned list holds the number of the share now running."""
    current = [0]

    def in_turn(task, jobs):
        parts = []
        for share in range(jobs):
            current[0] = share
            parts.append(task(share))
        return parts

    monkeypatch.setattr(verify_module, "_run_shares", in_turn)
    return current


@pytest.mark.parametrize("shares", [1, 2, 3])
def test_equal_weights_deal_round_robin(shares):
    for count in range(12):
        expected = [list(range(count))[s::shares] for s in range(shares)]
        assert verify_module._shares_by_weight([1] * count, shares) == expected
        assert verify_module._shares_by_weight([7] * count, shares) == expected


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("weighted", [False, True], ids=["no-weights", "equal-weights"])
def test_a_deal_of_equal_weights_runs_items_s_mod_c_in_share_s(monkeypatch, cores, weighted):
    _cores(monkeypatch, cores)
    current, seen = _shares_in_turn(monkeypatch), []
    items = list(range(10))

    def check(report, item):
        seen.append((current[0], item))
        report.record({"item": item}, True, None, None)

    weights = [3] * len(items) if weighted else None
    report = verify_module._deal("demo", items, check, weights=weights)
    assert (report.processes, report.instances) == (cores, 10)
    by_share = [[item for share, item in seen if share == s] for s in range(cores)]
    assert by_share == [items[s::cores] for s in range(cores)]


def test_each_item_goes_to_the_lightest_share_so_far():
    assert verify_module._shares_by_weight([5, 1, 1, 1, 9, 1], 2) == [[0, 5], [1, 2, 3, 4]]
    # a tie goes to the lowest share
    assert verify_module._shares_by_weight([2, 1, 1, 4], 3) == [[0], [1, 3], [2]]
    assert verify_module._shares_by_weight([2, 1, 1], 2) == [[0], [1, 2]]


@pytest.mark.parametrize("bad", [0, -1, 1.5, True, None], ids=repr)
def test_weights_must_be_positive_integers(bad):
    with pytest.raises(PreconditionError, match="^item weights must be positive integers$"):
        verify_module._shares_by_weight([1, bad, 1], 2)


def test_a_deal_takes_one_weight_per_item():
    with pytest.raises(PreconditionError, match="^one weight per item$"):
        verify_module._deal("demo", [1, 2, 3], lambda report, item: None, weights=[1, 1])


def test_neighbor_bijection_deals_the_largest_lattice_apart_from_the_spaces(monkeypatch):
    _cores(monkeypatch, 2)
    current, seen = _shares_in_turn(monkeypatch), []
    reduction_of = verify_module.reduction

    def recording(N, p):
        seen.append((current[0], N.rank, p))
        return reduction_of(N, p)

    monkeypatch.setattr(verify_module, "reduction", recording)
    checks = verify_module.closed_form_line_count

    def recording_spaces(V):
        seen.append((current[0], None, V.p))
        return checks(V)

    monkeypatch.setattr(verify_module, "closed_form_line_count", recording_spaces)
    report = run_suite("neighbor-bijection")
    assert (report.instances, report.failures) == (39, 0)
    (heavy,) = [share for share, rank, p in seen if (rank, p) == (6, 5)]
    spaces = {share for share, rank, _ in seen if rank is None}
    assert len([1 for _, rank, _ in seen if rank is None]) == 30
    assert spaces == {1 - heavy}


@pytest.mark.parametrize(
    "params", [{"primes": (2,)}, {"primes": (3,), "max_rank": 3}], ids=["p2", "p3-rank3"]
)
def test_witt_extension_report_does_not_depend_on_the_cores(monkeypatch, params):
    docs = []
    for count in (1, 2, 3):
        _cores(monkeypatch, count)
        docs.append(run_suite("witt-extension", **params).to_dict())
    assert docs[0] == docs[1] == docs[2]
    assert docs[0]["instances"] > 0 and docs[0]["failures"] == 0
    assert_no_child_left()


# (space, p, X, Y) of instances the sweep visits: the X of the first two
# over F_2 are of different Gram types, whose groups fall into shares 0 and
# 1 of two (test_wronged_instances_fall_into_both_shares_of_two)
_WRONGED = {
    ("split-4", 2, ((1, 0, 0, 0),), ((0, 0, 1, 0),)),
    ("split-4", 2, ((1, 0, 1, 1), (0, 1, 1, 0)), ((0, 0, 1, 1), (0, 1, 0, 0))),
    ("diag-3-sq", 3, ((1, 0, 0),), ((0, 1, 0),)),
}


def _dealt_items(monkeypatch, **params):
    """The items ``run_suite("witt-extension", **params)`` deals, in order."""
    dealt, deal = [], verify_module._deal

    def recording(name, items, check):
        dealt.extend(items)
        return deal(name, items, check)

    monkeypatch.setattr(verify_module, "_deal", recording)
    run_suite("witt-extension", **params)
    return dealt


def test_wronged_instances_fall_into_both_shares_of_two(monkeypatch):
    _cores(monkeypatch, 2)
    dealt = _dealt_items(monkeypatch, primes=(2,))
    shares = {
        X: index % 2
        for index, ((name, _, _, _), group) in enumerate(dealt)
        if name == "split-4"
        for X in group
    }
    wronged = [X for name, _, X, _ in sorted(_WRONGED) if name == "split-4"]
    assert [shares[X] for X in wronged] == [0, 1]


def _wrong_witness_for(wronged, monkeypatch):
    """Make ``verify.witt_extension`` return the identity on ``wronged``."""
    extension = verify_module.witt_extension
    names = {}  # space -> its name, as the suite yields them

    def wrong_on_purpose(V, X, Y):
        if V not in names:
            names[V] = next(
                n for n, W in verify_module._nondegenerate_spaces(V.p, V.dim) if W == V
            )
        if (names[V], V.p, X, Y) in wronged:
            return FpIsometry(V, [[int(i == j) for j in range(V.dim)] for i in range(V.dim)])
        return extension(V, X, Y)

    monkeypatch.setattr(verify_module, "witt_extension", wrong_on_purpose)


def test_witt_extension_failure_details_do_not_depend_on_the_cores(monkeypatch):
    _wrong_witness_for(_WRONGED, monkeypatch)
    docs = []
    for count in (1, 2):
        _cores(monkeypatch, count)
        docs.append(
            [
                run_suite("witt-extension", primes=(2,)).to_dict(),
                run_suite("witt-extension", primes=(3,), max_rank=3).to_dict(),
            ]
        )
    assert docs[0] == docs[1]
    assert [doc["failures"] for doc in docs[0]] == [2, 1]


def test_witt_extension_failure_names_the_instance_by_its_digest(monkeypatch):
    _wrong_witness_for(_WRONGED, monkeypatch)
    _cores(monkeypatch, 2)
    report = run_suite("witt-extension", primes=(3,), max_rank=3)
    desc = {
        "suite": "witt-extension",
        "space": "diag-3-sq",
        "p": 3,
        "X": [[1, 0, 0]],
        "Y": [[0, 1, 0]],
    }
    assert report.failures == 1
    assert report.details == [
        {"input": _digest(desc), "expected": "verified witness", "actual": "invalid witness"}
    ]


def _witt_records_by_share(monkeypatch, cores, **params):
    """(share, space, tuple) of each ``_witt_record`` call of one suite run.

    The shares run one after another in this process.  Each starts on a
    space other than the one the share before it ended on, so it builds its
    own ``FpQuadSpace`` and records, as a forked child does.
    """
    calls, current = [], _shares_in_turn(monkeypatch)
    record = fp_quadratic._witt_record

    def tagged(V, S, key):
        calls.append((current[0], V, S))
        return record(V, S, key)

    monkeypatch.setattr(fp_quadratic, "_witt_record", tagged)
    _cores(monkeypatch, cores)
    run_suite("witt-extension", **params)
    monkeypatch.setattr(fp_quadratic, "_witt_record", record)
    return calls


@pytest.mark.parametrize(
    "params", [{"primes": (2, 3), "max_rank": 3}, {"primes": (2,)}], ids=["p2-p3-rank3", "p2"]
)
def test_witt_extension_builds_each_record_in_one_share(monkeypatch, params):
    alone = _witt_records_by_share(monkeypatch, 1, **params)
    dealt = _witt_records_by_share(monkeypatch, 2, **params)
    assert {share for share, _, _ in dealt} == {0, 1}
    shares_of_space: dict = {}
    shares_of_record: dict = {}
    for share, V, S in dealt:
        shares_of_space.setdefault(id(V), set()).add(share)
        shares_of_record.setdefault((V, S), set()).add(share)
    assert all(len(shares) == 1 for shares in shares_of_space.values())
    assert all(len(shares) == 1 for shares in shares_of_record.values())
    assert len(dealt) == len(alone)
    assert set(shares_of_record) == {(V, S) for _, V, S in alone}


def _is_rref(rows):
    """Whether nonzero ``rows`` are in reduced row echelon form."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    return pivots == sorted(set(pivots)) and all(
        rows[i][j] == (i == r) for r, j in enumerate(pivots) for i in range(len(rows))
    )


def _brute_witt_pairs(p, max_rank):
    """(space, X, Y) of every instance witt-extension checks, by brute force.

    X runs over the canonical bases of the subspaces of codimension ≥ 2 and
    Y over the independent tuples of nonzero vectors with X's Q-values and
    pairings.  A pair of Lagrangians (2k = n and X totally singular, which
    makes k the Witt index) is dropped when k − dim(span X ∩ span Y) is odd.
    """
    pairs = set()
    for _, V in verify_module._nondegenerate_spaces(p, max_rank):
        n = V.dim
        vectors = [v for v in product(range(p), repeat=n) if any(v)]

        def gram(T):
            upper = [V.b(T[i], T[j]) for i in range(len(T)) for j in range(i + 1, len(T))]
            return [V.q(t) for t in T] + upper

        for k in range(n - 1):
            for X in filter(_is_rref, product(vectors, repeat=k)):
                lagrangian = 2 * k == n and not any(gram(X))
                for Y in product(vectors, repeat=k):
                    if gram(Y) != gram(X) or rank(Y, p) != k:
                        continue
                    if lagrangian and (k - (2 * k - rank(X + Y, p))) % 2:
                        continue
                    pairs.add((V, X, Y))
    return pairs


@pytest.mark.parametrize("p, max_rank", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_witt_extension_sweeps_the_brute_force_pairs(monkeypatch, p, max_rank):
    swept, extension = [], verify_module.witt_extension

    def recording(V, X, Y):
        swept.append((V, X, Y))
        return extension(V, X, Y)

    monkeypatch.setattr(verify_module, "witt_extension", recording)
    _cores(monkeypatch, 1)
    report = run_suite("witt-extension", primes=(p,), max_rank=max_rank)
    assert len(swept) == len(set(swept)) == report.instances
    assert set(swept) == _brute_witt_pairs(p, max_rank)


def test_a_guard_tripped_in_a_child_share_reaches_the_caller(monkeypatch):
    caller, extension = os.getpid(), verify_module.witt_extension

    def guarded_in_children(V, X, Y):
        if os.getpid() != caller:
            raise SizeGuardError("orbit exceeds the guard 7")
        return extension(V, X, Y)

    monkeypatch.setattr(verify_module, "witt_extension", guarded_in_children)
    _cores(monkeypatch, 2)
    with pytest.raises(SizeGuardError, match="^orbit exceeds the guard 7$"):
        run_suite("witt-extension", primes=(2,))
    assert_no_child_left()


def test_one_core_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked with one share")

    monkeypatch.setattr(os, "fork", no_fork)
    _cores(monkeypatch, 1)
    assert verify_module.processes() == 1
    assert run_suite("witt-extension", primes=(2,)).failures == 0
    assert run_suite("k3-degree", primes=(2,)).failures == 0


def test_processes_follow_the_cores_where_the_platform_forks(monkeypatch):
    _cores(monkeypatch, 3)
    assert verify_module.processes() == 3
    monkeypatch.delattr(os, "fork")
    assert verify_module.processes() == 1


def test_a_child_share_never_flushes_the_callers_stdout():
    # stdout to a pipe is block-buffered: text written before the fork
    # reaches it once, from the caller, however many children inherit it
    script = (
        "import sys\n"
        "import qlat.verify as verify\n"
        "verify._usable_cores = lambda: 3\n"
        "print('before the sweep')\n"
        "report = verify.run_suite('witt-extension', primes=(2,))\n"
        "print(report.instances)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "before the sweep\n2438\n"


def _reports_under(monkeypatch, counts, name, **params):
    docs = []
    for count in counts:
        _cores(monkeypatch, count)
        docs.append(run_suite(name, **params).to_dict())
    return docs


# every suite but witt-extension, with parameters that give each of three
# shares an instance
_DEALT = [
    ("neighbor-bijection", {"primes": (2, 3), "max_rank": 4}),
    ("nice-cochar", {"primes": (2,)}),
    ("cokernel-m", {"primes": (2, 3), "max_rank": 5, "seed": 0}),
    ("cokernel-m", {"primes": (2, 3), "max_rank": 5, "seed": 7}),
    ("lang-counts", {"primes": (2, 3), "max_rank": 4}),
    ("spinor-surjectivity", {"primes": (3,)}),
    ("k3-degree", {"primes": (2,)}),
]


@pytest.mark.parametrize(
    "name, params",
    _DEALT,
    ids=[name + (f"-seed{p['seed']}" if "seed" in p else "") for name, p in _DEALT],
)
def test_dealt_report_does_not_depend_on_the_cores(monkeypatch, name, params):
    docs = _reports_under(monkeypatch, (1, 2, 3), name, **params)
    assert docs[0] == docs[1] == docs[2]
    assert docs[0]["instances"] >= 3 and docs[0]["failures"] == 0
    assert_no_child_left()


def test_cokernel_m_failure_details_do_not_depend_on_the_cores(monkeypatch):
    real, calls = verify_module.cokernel_M, []

    def recording(split, basis, p):
        calls.append((basis, p))
        return real(split, basis, p)

    monkeypatch.setattr(verify_module, "cokernel_M", recording)
    _reports_under(monkeypatch, (1,), "cokernel-m", seed=3)
    wronged = calls[:2]  # instances 0 and 1: shares 0 and 1 of two

    def wrong_on_purpose(split, basis, p):
        if (basis, p) in wronged:
            raise InvariantViolationError("wrong on purpose")
        return real(split, basis, p)

    monkeypatch.setattr(verify_module, "cokernel_M", wrong_on_purpose)
    one, two = _reports_under(monkeypatch, (1, 2), "cokernel-m", seed=3)
    assert one == two
    assert one["failures"] == sum(call in wronged for call in calls) >= 2
    assert {d["actual"] for d in one["details"]} == {"InvariantViolationError: wrong on purpose"}


def test_neighbor_bijection_failure_details_do_not_depend_on_the_cores(monkeypatch):
    real = verify_module.line_from_lattice

    def wrong_on_h(Nt):
        # instances 0 and 1 are H at p = 2 and 3: shares 0 and 1 of two.
        # H has the isotropic lines (1, 0) and (0, 1); give back the other one
        line = real(Nt)
        if Nt.ambient.rank == 2:
            return ProjLine(line.space, line.generator[::-1])
        return line

    monkeypatch.setattr(verify_module, "line_from_lattice", wrong_on_h)
    one, two = _reports_under(
        monkeypatch, (1, 2), "neighbor-bijection", primes=(2, 3), max_rank=4
    )
    assert one == two
    assert one["failures"] == 2
    assert all(d["actual"]["round_trips"] is False for d in one["details"])


def test_a_nice_cochar_orbit_that_misses_a_line_fails_the_suite(monkeypatch, capsys):
    real = verify_module.stabilizer_orbit

    def drops_the_last_line(V, w_basis, seed, universe):
        return real(V, w_basis, seed, universe)[:-1]

    monkeypatch.setattr(verify_module, "stabilizer_orbit", drops_the_last_line)
    report = run_suite("nice-cochar", primes=(2,))
    assert report.failures == report.instances == 6
    for detail in report.details:
        actual = detail["actual"]
        assert (actual["dual_routes_equal"], actual["recovered"], actual["orbit_covers"]) == (
            True, True, False
        )
    assert main(["verify", "nice-cochar", "--p", "2"]) == 1
    capsys.readouterr()


def test_a_guard_tripped_in_a_child_of_a_dealt_suite_reaches_the_caller(monkeypatch):
    caller, isogeny = os.getpid(), verify_module.k3_isogeny

    def guarded_in_children(d, p):
        if os.getpid() != caller:
            raise SizeGuardError("isogeny exceeds the guard 7")
        return isogeny(d, p)

    monkeypatch.setattr(verify_module, "k3_isogeny", guarded_in_children)
    _cores(monkeypatch, 2)
    with pytest.raises(SizeGuardError, match="^isogeny exceeds the guard 7$"):
        run_suite("k3-degree", primes=(2,))
    assert_no_child_left()


def _exit_three():
    os._exit(3)


def _kill_myself():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize(
    "end, code", [(_exit_three, 3), (_kill_myself, -9)], ids=["exit-3", "sigkill"]
)
def test_a_child_share_that_ends_without_reporting_is_named_with_its_exit_code(
    monkeypatch, capsys, end, code
):
    caller, isogeny = os.getpid(), verify_module.k3_isogeny

    def ends_in_children(d, p):
        if os.getpid() != caller:
            end()
        return isogeny(d, p)

    monkeypatch.setattr(verify_module, "k3_isogeny", ends_in_children)
    _cores(monkeypatch, 2)
    message = f"^share 1 ended with exit code {code} before reporting$"
    with pytest.raises(RuntimeError, match=message):
        run_suite("k3-degree", primes=(2,))
    assert capsys.readouterr().out == ""
    assert_no_child_left()


def test_a_caller_share_that_raises_kills_and_reaps_the_children(monkeypatch):
    caller, isogeny, started = os.getpid(), verify_module.k3_isogeny, []

    def hangs_in_children(d, p):
        if os.getpid() != caller:
            time.sleep(120)
        started.append(d)
        raise InvariantViolationError("the caller's share fails")

    monkeypatch.setattr(verify_module, "k3_isogeny", hangs_in_children)
    _cores(monkeypatch, 2)
    t0 = time.perf_counter()
    with pytest.raises(InvariantViolationError, match="^the caller's share fails$"):
        run_suite("k3-degree", primes=(2,))
    assert time.perf_counter() - t0 < 60
    assert started == [1]
    assert_no_child_left()


@pytest.mark.parametrize(
    "name, params",
    [
        ("lang-counts", {"primes": (3,), "max_points": 100}),
        ("witt-extension", {"primes": (3,), "max_points": 100}),
    ],
    ids=["lang-counts", "witt-extension"],
)
def test_a_guard_on_shared_work_trips_before_anything_forks(monkeypatch, name, params):
    def no_fork():
        raise AssertionError("forked before the guard")

    monkeypatch.setattr(os, "fork", no_fork)
    _cores(monkeypatch, 2)
    with pytest.raises(SizeGuardError):
        run_suite(name, **params)


def _subspace_bases_by_rref(p, n, k):
    """The RREF basis of every k-dimensional subspace of F_p^n, by brute
    force: row-reduce every k-set of normalized representatives and keep
    the full-rank results.  Every subspace has a basis of k distinct
    representatives, and the RREF of a set of rows does not depend on
    their order, so the k-sets of ``product(proj_reps, repeat=k)`` suffice."""
    from itertools import combinations

    from qlat import kernels
    from qlat.modp import rref

    out = set()
    for rows in combinations(kernels.proj_reps(p, n), k):
        m, pivots = rref(rows, p)
        if len(pivots) == k:
            out.add(tuple(map(tuple, m)))
    return out


@pytest.mark.parametrize("p, n", [(p, n) for p in (2, 3) for n in range(5)])
def test_subspace_bases_list_each_subspace_once(p, n):
    for k in range(n + 1):
        listed = list(verify_module._subspace_bases(p, n, k))
        assert len(listed) == len(set(listed))
        assert set(listed) == _subspace_bases_by_rref(p, n, k), k


def test_subspace_bases_do_not_sweep_tuples():
    # the 40 hyperplanes of F_3^4; row-reducing every triple of the 40
    # normalized representatives, 64,000 of them, took about a second
    start = time.perf_counter()
    assert len(list(verify_module._subspace_bases(3, 4, 3))) == 40
    assert time.perf_counter() - start < 0.05
