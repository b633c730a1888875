"""Acceptance gate: ten exact-identity criteria, one line of output each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every criterion prints
`criterion N (<slug>): PASS/FAIL [instances, elapsed]`; elapsed time is
reported for the record but never asserted.
"""

import time

from spochar.verify import Grid, run_suite

DEFAULT = Grid()


def _gate(number, slug, suites, grid):
    t0 = time.perf_counter()
    reports = [run_suite(name, grid) for name in suites]
    elapsed = time.perf_counter() - t0
    instances = sum(r.instances_run for r in reports)
    failures = [f for r in reports for f in r.failures]
    verdict = "PASS" if not failures else "FAIL"
    print(
        f"criterion {number} ({slug}): {verdict} "
        f"[{instances} instances, {elapsed:.1f}s]"
    )
    assert not failures, failures[:3]
    return reports


def test_criterion_01_commutation_relations():
    # six relation families on every basis vector of degree <= 6,
    # mode indices |i|, |j| <= 6, exact arithmetic
    _gate(1, "commutation", ["commutation"], DEFAULT)


def test_criterion_02_orthonormal_pairing():
    # pairing(mu, lam) = delta for weight <= 6, length <= 4, both families
    _gate(2, "orthonormality", ["orthonormality"], DEFAULT)


def test_criterion_03_dual_engine_equality():
    # operator matrix elements vs skew determinants over
    # beta in alpha, |alpha| <= 6, n <= 2, m <= 2, rows + variables <= 6
    grid = Grid(n_range=(0, 2), m_range=(0, 2))
    _gate(3, "dual-engine", ["fock_vs_determinant"], grid)


def test_criterion_04_bialternant_witnesses():
    # numerator = denominator * candidate for all four ratio families
    _gate(4, "bialternants", ["bialternants"], DEFAULT)


def test_criterion_05_branching_sums():
    # all alphabet splits for both families plus the odd split laws,
    # n <= 3, m <= 2, |lam| <= 6
    _gate(
        5,
        "branching",
        ["branching_sp", "branching_o", "branching_odd_sp"],
        DEFAULT,
    )


def test_criterion_06_cauchy_identities():
    # truncated coefficientwise comparison at degree 5 for n <= 2, m <= 1;
    # the orthogonal kernel (k <= l) must be reported for every (n, m)
    grid = Grid(n_range=(0, 2), m_range=(0, 1), degree_cap=5)
    reports = _gate(
        6,
        "cauchy",
        ["cauchy_sp", "cauchy_sp_odd", "cauchy_sp_n0", "cauchy_o"],
        grid,
    )
    o_report = [r for r in reports if r.check_name == "cauchy_o"][0]
    assert o_report.notes == [
        f"n={n} m={m}: non-strict pair product (k<=l) matches" for n in range(3) for m in range(2)
    ], "orthogonal kernel was not reported for every (n, m)"


def test_criterion_07_chain_weight_sums():
    # chain sums equal the determinant with the plain variable renamed,
    # and chain counts match the all-ones evaluation
    _gate(7, "chain-sums", ["gt_sum"], DEFAULT)


def test_criterion_08_transition_formulas():
    # signed two-row transition sums, n <= 2, |lam| <= 5
    grid = Grid(n_range=(0, 2), max_weight=5)
    _gate(8, "transition", ["transition_odd"], grid)


def test_criterion_09_reductions():
    # no-paired-variable branchings, reduced orthogonal determinant,
    # signed closed-form witnesses, zero-padding stability
    _gate(9, "reductions", ["reductions"], DEFAULT)


def test_criterion_10_newton_recurrence():
    # elementary/complete recurrence at N = 8 across the grid
    _gate(10, "newton", ["newton"], DEFAULT)
