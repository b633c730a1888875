"""Verification harness plumbing: grids, reports, suite registry, failure paths.

Full-grid suite runs live in the acceptance tests; these tests use small grids
so the whole file stays fast.
"""

import pytest

from spochar.ring import LaurentPoly, xvar
from spochar.verify import (
    SUITE_NAMES,
    SUITES,
    CheckReport,
    Grid,
    _Session,
    run_all,
    run_suite,
)

SMALL = Grid(n_range=(0, 1), m_range=(0, 1), max_weight=3, max_len=3, degree_cap=3)


def test_grid_defaults():
    g = Grid()
    assert g.n_range == (0, 3)
    assert g.m_range == (0, 2)
    assert g.max_weight == 6
    assert g.degree_cap == 6
    assert g.eval_points == 0


def test_grid_json_round_trip():
    g = Grid(n_range=(1, 2), m_range=(0, 1), max_weight=4, max_len=2, degree_cap=5, rng_seed=9, eval_points=2)
    assert Grid.from_json(g.to_json()) == g


def test_report_json_shape():
    r = CheckReport("demo", 7, [], ["note"])
    out = r.to_json()
    assert out["check_name"] == "demo"
    assert out["instances_run"] == 7
    assert out["passed"] is True
    assert out["notes"] == ["note"]


def test_report_passed_flag():
    assert CheckReport("x", 1, [], []).passed
    assert not CheckReport("x", 1, [("d", "1", "0")], []).passed


def test_registry_is_complete():
    assert len(SUITE_NAMES) == 15
    assert set(SUITE_NAMES) == set(SUITES)
    for name in SUITE_NAMES:
        assert callable(SUITES[name])


def test_run_suite_rejects_unknown_name():
    with pytest.raises(KeyError):
        run_suite("no_such_suite", SMALL)


# instance counts on SMALL; a refactor of a suite must keep its count
SMALL_COUNTS = {
    "commutation": 2058,
    "orthonormality": 98,
    "bialternants": 30,
    "branching_sp": 41,
    "branching_o": 41,
    "branching_odd_sp": 70,
    "cauchy_sp": 4,
    "cauchy_sp_odd": 2,
    "cauchy_sp_n0": 2,
    "cauchy_o": 4,
    "transition_odd": 27,
    "gt_sum": 8,
    "fock_vs_determinant": 136,
    "reductions": 38,
    "newton": 2,
}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_on_small_grid(name):
    rep = run_suite(name, SMALL)
    assert rep.passed, rep.failures[:3]
    assert rep.instances_run == SMALL_COUNTS[name]
    assert rep.check_name == name


def test_run_all_covers_registry():
    reports = run_all(SMALL)
    assert [r.check_name for r in reports] == list(SUITE_NAMES)
    assert all(r.passed for r in reports)


def test_session_failure_ordering():
    ses = _Session("demo", SMALL)
    one = LaurentPoly.one()
    x = LaurentPoly.variable(xvar(1))
    # keys sort failures so the smallest instance is reported first
    ses.check((9, "z"), "big case", x, one)
    ses.check((1, "a"), "small case", x, one)
    ses.check((1, "a"), "passing case", one, one)
    rep = ses.report()
    assert not rep.passed
    assert rep.instances_run == 3
    assert [f[0] for f in rep.failures] == ["small case", "big case"]


def test_eval_points_agree_with_structural():
    g = Grid(n_range=(0, 1), m_range=(0, 1), max_weight=2, max_len=2, degree_cap=3, eval_points=2)
    rep = run_suite("newton", g)
    assert rep.passed
    rep = run_suite("bialternants", g)
    assert rep.passed


def test_cauchy_o_records_variant_note():
    rep = run_suite("cauchy_o", SMALL)
    assert rep.passed
    assert any("non-strict" in note for note in rep.notes)
