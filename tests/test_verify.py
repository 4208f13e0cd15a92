"""The verification harness itself: formulas, report bookkeeping, dispatch."""

import pytest

from qlat import FpQuadSpace, PreconditionError, direct_sum, hyperbolic_plane, reduction
from qlat.verify import SUITES, VerifyReport, closed_form_line_count, run_suite


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
