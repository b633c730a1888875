"""Verification harness plumbing: grids, reports, suite registry, failure paths.

Full-grid suite runs live in the acceptance tests; these tests use small grids
so the whole file stays fast.
"""

import ast
import hashlib
import importlib
import json
import pkgutil
from pathlib import Path

import pytest

import spochar
from spochar import clear_caches, series, verify
from spochar.ring import ONE, LaurentPoly, dot, xvar, yvar
from spochar.series import HSpec
from spochar.verify import (
    SUITE_NAMES,
    SUITES,
    CheckReport,
    Grid,
    _Session,
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
    assert list(g.to_json()) == [
        "n_range", "m_range", "max_weight", "max_len", "degree_cap", "rng_seed", "eval_points"
    ]
    back = Grid.from_json(json.loads(json.dumps(g.to_json())))
    assert type(back) is Grid and back == g


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


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"n_range": (2, 1)}, "ranges must be 0 <= lo <= hi"),
        ({"m_range": (-1, 0)}, "ranges must be 0 <= lo <= hi"),
        ({"max_weight": -1}, "bounds must be >= 0"),
        ({"max_len": -1}, "bounds must be >= 0"),
        ({"degree_cap": -1}, "bounds must be >= 0"),
        ({"eval_points": -1}, "bounds must be >= 0"),
        # the ranges are checked first
        ({"n_range": (1, 0), "eval_points": -1}, "ranges must be 0 <= lo <= hi"),
    ],
)
def test_every_grid_construction_validates(fields, message):
    as_json = {k: list(v) if isinstance(v, tuple) else v for k, v in fields.items()}
    builds = [
        lambda: Grid(**fields),
        lambda: Grid.from_json(as_json),
        lambda: Grid(**{**Grid()._asdict(), **fields}),
        lambda: Grid()._replace(**fields),  # how the CLI applies an override
        lambda: Grid._make({**Grid()._asdict(), **fields}.values()),
    ]
    for build in builds:
        with pytest.raises(ValueError, match=message):
            build()


def test_a_replaced_grid_cannot_pass_vacuously():
    with pytest.raises(ValueError, match="^ranges must be 0 <= lo <= hi$"):
        run_suite("bialternants", Grid()._replace(n_range=(2, 1)))
    assert Grid()._replace(rng_seed=3) == Grid(rng_seed=3)


def test_reports_never_share_a_list():
    with pytest.raises(TypeError):
        CheckReport("a", 1)  # no shared default list to fall back on
    a = CheckReport("a", 1, [("d", "1", "0")], ["n"])
    assert not a.passed
    assert a.to_json() == {
        "check_name": "a",
        "instances_run": 1,
        "passed": False,
        "failures": [{"instance": "d", "lhs": "1", "rhs": "0"}],
        "notes": ["n"],
    }
    grid = Grid(n_range=(0, 0), m_range=(0, 0), degree_cap=3)
    first, second = run_suite("cauchy_o", grid), run_suite("cauchy_o", grid)
    assert first.notes == second.notes != []
    assert first.notes is not second.notes and first.failures is not second.failures


def test_only_hspecs_key_the_h_family_cache(monkeypatch):
    # an HSpec or a Grid equals the plain tuple of its fields, so a cache that
    # took both could hand one the other's entry
    cached = []
    for path in sorted(Path(verify.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                "cache" in ast.unparse(d) for d in node.decorator_list
            ):
                annotations = {ast.unparse(a.annotation) for a in node.args.args if a.annotation}
                if annotations & {"HSpec", "Grid"}:
                    cached.append(node.name)
    assert cached == ["_geom_factors"]
    seen = []
    real = series._geom_factors
    monkeypatch.setattr(series, "_geom_factors", lambda spec: seen.append(type(spec)) or real(spec))
    grid = Grid(n_range=(0, 1), m_range=(0, 1), max_weight=2, max_len=2, degree_cap=3)
    for name in SUITE_NAMES:
        run_suite(name, grid)
    assert seen and set(seen) == {HSpec}


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


# a grid whose ranges start at 1, so every suite's lower bounds are read
SHIFTED = Grid(n_range=(1, 2), m_range=(1, 2), max_weight=3, max_len=3, degree_cap=3)
SHIFTED_COUNTS = {
    "commutation": 2058,
    "orthonormality": 98,
    "bialternants": 53,
    "branching_sp": 171,
    "branching_o": 171,
    "branching_odd_sp": 119,
    "cauchy_sp": 2,
    "cauchy_sp_odd": 2,
    "cauchy_sp_n0": 2,
    "cauchy_o": 2,
    "transition_odd": 82,
    "gt_sum": 20,
    "fock_vs_determinant": 172,
    "reductions": 105,
    "newton": 4,
}


@pytest.mark.parametrize(
    "name,grid,count",
    [
        pytest.param(name, grid, counts[name], id=name + tag)
        for tag, grid, counts in (("", SMALL, SMALL_COUNTS), ("-shifted", SHIFTED, SHIFTED_COUNTS))
        for name in SUITE_NAMES
    ],
)
def test_each_suite_passes_on_small_grid(name, grid, count):
    rep = run_suite(name, grid)
    assert rep.passed, rep.failures[:3]
    assert rep.instances_run == count
    assert rep.check_name == name


def test_clear_caches_empties_every_cache_and_keeps_reports():
    names = ("commutation", "fock_vs_determinant")
    first = [run_suite(name, SMALL).to_json() for name in names]
    clear_caches()
    caches = [
        obj
        for info in pkgutil.iter_modules(spochar.__path__)
        for obj in vars(importlib.import_module(f"spochar.{info.name}")).values()
        if hasattr(obj, "cache_info")
    ]
    assert len(caches) >= 16
    assert all(c.cache_info().currsize == 0 for c in caches)
    assert [run_suite(name, SMALL).to_json() for name in names] == first


def test_session_failure_ordering():
    ses = _Session("demo", SMALL)
    x = LaurentPoly.variable(xvar(1))
    # keys sort failures so the smallest instance is reported first
    ses.check((9, "z"), "big case", x, ONE)
    ses.check((1, "a"), "small case", x, ONE)
    ses.check((1, "a"), "passing case", ONE, ONE)
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


def test_suites_start_at_the_lowest_n():
    # the closed forms and the z = +-1 witnesses of `reductions` run only
    # from n_range[0] up
    rep = run_suite("bialternants", Grid(n_range=(3, 3), max_weight=2))
    assert rep.passed
    assert rep.instances_run == 8
    rep = run_suite("reductions", Grid(n_range=(2, 2), max_weight=2))
    assert rep.passed
    assert rep.instances_run == 62


def test_broken_bialternant_reports_both_sides(broken_universal):
    rep = run_suite("bialternants", Grid(max_weight=3))
    assert rep.instances_run == 75
    assert [d for d, _, _ in rep.failures] == [
        "o_even lam=(2, 1) n=2",
        "o_even lam=(2, 1) n=3",
        "o_odd z=-1 lam=(2, 1) n=2",
        "o_odd z=1 lam=(2, 1) n=2",
        "sp lam=(2, 1) n=2",
        "sp lam=(2, 1) n=3",
        "sp_odd lam=(2, 1) n=1",
        "sp_odd lam=(2, 1) n=2",
    ]
    # both sides rendered, and never alike: where the 160-character cuts agree
    # (sp n=3 and sp_odd n=2), the rhs also names the difference
    for _, lhs, rhs in rep.failures:
        assert lhs and rhs and lhs != rhs
    cut_alike = [(d, r[len(l) :]) for d, l, r in rep.failures if r.startswith(l)]
    assert cut_alike == [
        ("sp lam=(2, 1) n=3", " [lhs - rhs: 48 terms, leading -x1^3*x2^2*x3]"),
        ("sp_odd lam=(2, 1) n=2", " [lhs - rhs: 48 terms, leading -x1^3*x2^2*z1]"),
    ]


def test_cauchy_o_records_variant_note():
    rep = run_suite("cauchy_o", SMALL)
    assert rep.passed
    assert any("non-strict" in note for note in rep.notes)


def test_cauchy_o_fails_against_the_strict_kernel(monkeypatch):
    # the orthogonal identity holds for the non-strict kernel only: handing it
    # the strict product (and the symplectic one the non-strict) must fail
    real = verify._pair_product

    def flipped(count, strict, cap):
        return real(count, not strict, cap)

    monkeypatch.setattr(verify, "_pair_product", flipped)
    rep = run_suite("cauchy_o", SMALL)
    assert [d for d, _, _ in rep.failures] == ["o n=0 m=1 D=3", "o n=1 m=0 D=3", "o n=1 m=1 D=3"]
    assert rep.instances_run == 4
    assert rep.notes == ["n=0 m=0: non-strict pair product (k<=l) matches"]
    assert not run_suite("cauchy_sp", SMALL).passed


def truncated_cauchy_rhs(n, m, ycount, strict, cap):
    """The product side as one `mul_truncated` per factor and per alphabet."""
    yrank = yvar(1).rank
    acc = ONE
    for k in range(1, ycount + 1):
        for l in range(k + 1 if strict else k, ycount + 1):
            factor = ONE - LaurentPoly.variable(yvar(k)) * LaurentPoly.variable(yvar(l))
            acc = acc.mul_truncated(factor, yrank, cap)
    hs = series.h_seq(HSpec(n, m), cap)
    for s in range(1, ycount + 1):
        ys = dot((h, LaurentPoly.variable(yvar(s), d)) for d, h in enumerate(hs))
        acc = acc.mul_truncated(ys, yrank, cap)
    return acc


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
def test_graded_cauchy_side_matches_truncated_products(strict):
    for n in range(3):
        for m in range(3):
            for cap in range(8):
                got = verify._cauchy_rhs(n, m, n + m, strict, cap)
                assert got._terms == truncated_cauchy_rhs(n, m, n + m, strict, cap)._terms


def test_pair_product_is_graded_by_y_degree():
    for strict in (True, False):
        for cap in range(8):
            graded = verify._pair_product(3, strict, cap)
            assert len(graded) == min(cap, 6 if strict else 12) + 1
            for e, part in enumerate(graded):
                assert all(sum(x for _, x in mono) == e for mono, _ in part.items())


def test_broken_reductions_report_the_bialternant_descriptions(broken_universal):
    rep = run_suite("reductions", Grid(max_weight=3))
    descs = [d for d, _, _ in rep.failures]
    assert "o_odd z=1 lam=(2, 1) n=2" in descs
    assert "o_odd z=-1 lam=(2, 1) n=2" in descs


def test_gt_count_failure_shows_both_counts(monkeypatch):
    real = verify.gt_chains
    monkeypatch.setattr(verify, "gt_chains", lambda lam, n: list(real(lam, n))[1:])
    rep = run_suite("gt_sum", Grid(n_range=(1, 1), max_weight=1))
    assert rep.instances_run == 4
    counts = [f for f in rep.failures if f[0].startswith("gt count")]
    assert counts == [("gt count lam=() n=1", "0", "1"), ("gt count lam=(1,) n=1", "2", "3")]


def test_degree_cap_reaches_newton_and_cauchy(monkeypatch):
    seen = []
    real_newton, real_rhs = verify.check_newton, verify._cauchy_rhs

    def newton(spec, N):
        seen.append(("newton", N))
        return real_newton(spec, N)

    def rhs(n, m, ycount, strict, cap):
        seen.append(("cauchy", cap))
        return real_rhs(n, m, ycount, strict, cap)

    monkeypatch.setattr(verify, "check_newton", newton)
    monkeypatch.setattr(verify, "_cauchy_rhs", rhs)
    grid = Grid(n_range=(0, 1), m_range=(1, 1), degree_cap=10)
    assert run_suite("newton", grid).passed
    assert run_suite("cauchy_sp_odd", grid).passed
    assert seen == [("newton", 12)] * 2 + [("cauchy", 10)] * 2


# Two broken relation tables: a wrong index shift in the plain symplectic
# relation, and the mixed symplectic relation flagged as plain, which drops
# its delta term (and leaves its second word's families unswapped).
# The sha256 of each failing report's JSON was recorded before the mode rows
# were packed into integers; it pins the failure keys, their order, the
# descriptions and the "residual on N basis vectors" counts.
def _broken(name, words=None, mixed=None):
    out = []
    for rel in verify._RELATIONS:
        if rel[0] == name:
            rel = (rel[0], rel[1], rel[2], words or rel[3], rel[4] if mixed is None else mixed)
        out.append(rel)
    return tuple(out)


BROKEN_COMMUTATION = [
    (
        _broken("sp_plain", words=lambda i, j: ((i, j), (j + 2, i - 1))),
        "cdbee6e2d785a84e28a5e8714447c33030576f872ce6adfd473b9a5902c8528e",
    ),
    (_broken("sp_mixed", mixed=False), "50643466baa06dc1f81cc4d1855db14f8aaf7dc953060fb7851692ce39a80da6"),
]


@pytest.mark.parametrize("relations,digest", BROKEN_COMMUTATION, ids=["shift", "delta"])
def test_broken_commutation_report_is_pinned(monkeypatch, relations, digest):
    monkeypatch.setattr(verify, "_RELATIONS", relations)
    rep = run_suite("commutation", Grid(max_weight=1))
    assert not rep.passed
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_newton_failure_names_the_degree_and_both_term_counts(perturb_symmetric):
    # one coefficient of the symmetric h_3 changed: degree 3 is the first to
    # fail, and its product side gains the one key that plain h_3 lacks
    perturb_symmetric(3)
    rep = run_suite("newton", Grid(n_range=(1, 1), m_range=(1, 2), degree_cap=2))
    assert rep.instances_run == 2
    plain = [series.h_seq(HSpec(1, m), 3)[3].term_count for m in (1, 2)]
    assert rep.failures == [
        (
            f"newton n=1 m={m} N=4",
            f"degree 3: plain h_3 has {count} terms",
            f"degree 3: product side has {count + 1} terms",
        )
        for m, count in zip((1, 2), plain)
    ]
