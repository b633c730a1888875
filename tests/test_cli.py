"""Command-line front end: verbs, formats, config defaults, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spochar.cli import main
from spochar.verify import SUITE_NAMES, CheckReport, Grid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_compute_mixed_alphabet(capsys):
    code, out = run(capsys, "compute", "--family", "sp", "--n", "1", "--m", "1", "--outer", "1")
    assert code == 0
    assert out.strip() == "z1 + x1 + x1^-1"


def test_compute_pure_pairs(capsys):
    code, out = run(capsys, "compute", "--family", "sp", "--n", "1", "--m", "0", "--outer", "1")
    assert code == 0
    assert out.strip() == "x1 + x1^-1"


def test_compute_empty_shape(capsys):
    code, out = run(capsys, "compute", "--family", "sp", "--n", "0", "--m", "0", "--outer", "")
    assert code == 0
    assert out.strip() == "1"


def test_compute_skew(capsys):
    code, out = run(
        capsys, "compute", "--family", "o", "--n", "1", "--m", "0",
        "--outer", "2,1", "--inner", "1",
    )
    assert code == 0
    assert out.strip() == "x1^2 + 2 + x1^-2"


def test_compute_dispatch(capsys):
    # with no inner shape the universal cap n + m <= 6 applies; an inner
    # shape of declared length 1 sends the same shape through the skew
    # determinant, whose cap is l + n + m <= 8
    argv = ["compute", "--family", "sp", "--n", "4", "--m", "3", "--outer", "1"]
    assert main(argv) == 2
    assert "n + m = 7 > 6" in capsys.readouterr().err
    code, out = run(capsys, *argv, "--inner", "0")
    assert code == 0
    assert out.strip() == "z3 + z2 + z1 + x4 + x3 + x2 + x1 + x4^-1 + x3^-1 + x2^-1 + x1^-1"


def test_compute_json_schema(capsys):
    code, out = run(
        capsys, "compute", "--family", "sp", "--n", "1", "--m", "1",
        "--outer", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["text"] == "z1 + x1 + x1^-1"
    # big integers travel as decimal strings
    assert all(isinstance(t["coeff"], str) for t in doc["result"])


def test_gt_count(capsys):
    code, out = run(capsys, "gt", "--lambda", "1", "--n", "1", "--count")
    assert code == 0
    assert out.strip() == "3"


def test_gt_listing_shows_weights(capsys):
    code, out = run(capsys, "gt", "--lambda", "1", "--n", "1")
    assert code == 0
    lines = [l for l in out.splitlines() if "->" in l]
    assert len(lines) == 3
    assert any("weight x2" in l for l in lines)
    assert any("weight x1^-1" in l for l in lines)


def test_fock_pairing(capsys):
    code, out = run(capsys, "fock", "--pairing", "--mu", "2,1", "--lambda", "2,1")
    assert code == 0
    assert out.strip() == "1"


def test_fock_pairing_mismatch(capsys):
    code, out = run(capsys, "fock", "--pairing", "--mu", "2", "--lambda", "1,1")
    assert code == 0
    assert out.strip() == "0"


def test_fock_matrix_element(capsys):
    code, out = run(
        capsys, "fock", "--matrix-element", "--beta", "", "--alpha", "1",
        "--n", "1", "--m", "0", "--family", "sp",
    )
    assert code == 0
    assert out.strip() == "x1 + x1^-1"


def test_newton_pass(capsys):
    code, out = run(capsys, "newton", "--n", "1", "--m", "1", "--N", "4")
    assert code == 0
    assert out.strip() == "pass"


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "newton")
    assert code == 0
    assert "newton" in out and "PASS" in out


def test_verify_json_report(capsys):
    code, out = run(capsys, "verify", "--suite", "newton", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["reports"][0]["check_name"] == "newton"
    assert doc["reports"][0]["passed"] is True


def test_verify_inline_grid(capsys):
    grid = {"n_range": [0, 1], "m_range": [0, 1], "max_weight": 2,
            "max_len": 2, "degree_cap": 2}
    code, out = run(capsys, "verify", "--suite", "orthonormality", "--grid", json.dumps(grid))
    assert code == 0
    assert "PASS" in out


# `verify --suite all` on the SMALL grid of test_verify.py: the text output
# verbatim and the sha256 of the JSON output, both recorded before the verify
# loops were folded together.  A refactor must leave both byte-identical.
SMALL_GRID = json.dumps(
    {"n_range": [0, 1], "m_range": [0, 1], "max_weight": 3, "max_len": 3, "degree_cap": 3}
)
SMALL_TEXT = """\
suite commutation: PASS (2058 instances, 0 failures)
suite orthonormality: PASS (98 instances, 0 failures)
suite bialternants: PASS (30 instances, 0 failures)
suite branching_sp: PASS (41 instances, 0 failures)
suite branching_o: PASS (41 instances, 0 failures)
suite branching_odd_sp: PASS (70 instances, 0 failures)
suite cauchy_sp: PASS (4 instances, 0 failures)
suite cauchy_sp_odd: PASS (2 instances, 0 failures)
suite cauchy_sp_n0: PASS (2 instances, 0 failures)
suite cauchy_o: PASS (4 instances, 0 failures)
  note: n=0 m=0: non-strict pair product (k<=l) matches
  note: n=0 m=1: non-strict pair product (k<=l) matches
  note: n=1 m=0: non-strict pair product (k<=l) matches
  note: n=1 m=1: non-strict pair product (k<=l) matches
suite transition_odd: PASS (27 instances, 0 failures)
suite gt_sum: PASS (8 instances, 0 failures)
suite fock_vs_determinant: PASS (136 instances, 0 failures)
suite reductions: PASS (38 instances, 0 failures)
suite newton: PASS (2 instances, 0 failures)
"""
SMALL_JSON_SHA256 = "8a24e47ffd508237d54d471f3c38fad2f192bacfcbfb7c63ead124e20df465fc"


def test_verify_all_output_is_byte_stable(capsys):
    code, out = run(capsys, "verify", "--suite", "all", "--grid", SMALL_GRID)
    assert code == 0
    assert out == SMALL_TEXT
    code, out = run(capsys, "verify", "--suite", "all", "--grid", SMALL_GRID, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SMALL_JSON_SHA256


# `spochar fock` on both families, a zero pairing, polynomial results with
# n, m > 0 and a declared-length beta: the text output verbatim and the sha256
# of the JSON output, recorded before the Fock vectors became rational.
FOCK_GOLDEN = [
    ("--pairing --mu 2,1 --lambda 2,1", "1",
     "ee1dcfee68e4ccec015b8de732af6bfe1bcc77e5b8c430b79e4b31a0e480ee67"),
    ("--pairing --mu 2 --lambda 1,1 --family o", "0",
     "942db8d53870265abe0975a39cdba53c50c6d5eb50052f3d011ff4c2dbaaa69c"),
    ("--pairing --mu 1,1 --lambda 1,1,0 --family o", "1",
     "a805653bd2e6f497e4ad4fcc84b0ca3db6281cfc69c2bd998c7e7e0a97f22fd8"),
    ("--matrix-element --beta= --alpha 2,1 --n 1 --m 1",
     "x1^2*z1 + x1*z1^2 + z1 + x1^-1*z1^2 + x1^-2*z1",
     "8b1cdcfb43486a8e4b34bbb56e0745c48d020f42dfd2611a8b96fb77d9548e29"),
    ("--matrix-element --beta 1,0 --alpha 2,1 --n 1 --m 1 --family o",
     "z1^2 + x1^2 + 2*x1*z1 + 2*x1^-1*z1 + 2 + x1^-2",
     "5822e0518f110f9bff56e13b40b372ce5bd53f7a20cf5bae55309c34feba3e0a"),
    ("--matrix-element --beta 1 --alpha 3,1 --n 2 --m 0 --family sp",
     "x2^3 + x1^3 + 2*x1^2*x2 + 2*x1*x2^2 + 5*x2 + 2*x1^2*x2^-1 + 5*x1"
     " + 2*x1^-1*x2^2 + 5*x2^-1 + 2*x1*x2^-2 + 5*x1^-1 + 2*x1^-2*x2 + x2^-3"
     " + 2*x1^-1*x2^-2 + 2*x1^-2*x2^-1 + x1^-3",
     "41fa586f861188c0aceb01bfc7a5ffc2766c357fed8eb592c5458c103d561376"),
    ("--matrix-element --beta 2,1 --alpha 1 --n 1 --m 0", "0",
     "156a5806e385c90cfeba051eab732550d4fa983ef57a3dbc25f93b2342976854"),
]


@pytest.mark.parametrize("flags,text,json_sha256", FOCK_GOLDEN)
def test_fock_output_is_byte_stable(capsys, flags, text, json_sha256):
    argv = ["fock", *flags.split()]
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == text + "\n"
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == json_sha256


# scripts/character_tables.py --n 1 --m 1 --max-weight 2, recorded before its
# dimension column was simplified
TABLES_TEXT = """\
family sp, n=1, m=1
  (-       )  dim      1   1
  (1       )  dim      3   z1 + x1 + x1^-1
  (2       )  dim      6   z1^2 + x1^2 + x1*z1 + x1^-1*z1 + 1 + x1^-2
  (1,1     )  dim      2   x1*z1 + x1^-1*z1

family o, n=1, m=1
  (-       )  dim      1   1
  (1       )  dim      3   z1 + x1 + x1^-1
  (2       )  dim      5   z1^2 + x1^2 + x1*z1 + x1^-1*z1 + x1^-2
  (1,1     )  dim      3   x1*z1 + x1^-1*z1 + 1

"""


def test_character_tables_script_output_is_stable():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = ["--n", "1", "--m", "1", "--max-weight", "2"]
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "character_tables.py"), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == TABLES_TEXT


def test_verify_failure_exit_code(capsys, monkeypatch):
    import spochar.cli as cli

    def fake(name, grid=None):
        return CheckReport(name, 1, [("case", "1", "0")], [])

    monkeypatch.setattr(cli, "run_suite", fake)
    code, out = run(capsys, "verify", "--suite", "newton")
    assert code == 1
    assert "FAIL" in out


def test_negative_eval_points_override_is_refused(capsys):
    assert main(["verify", "--suite", "newton", "--eval-points", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: bounds must be >= 0\n")


@pytest.mark.parametrize(
    "flags,changed",
    [
        (["--seed", "7"], {"rng_seed": 7}),
        (["--eval-points", "1"], {"eval_points": 1}),
        (["--seed", "7", "--eval-points", "1"], {"rng_seed": 7, "eval_points": 1}),
    ],
)
def test_grid_overrides_keep_every_other_field(capsys, monkeypatch, flags, changed):
    import spochar.cli as cli

    grids = []

    def fake(name, grid):
        grids.append(grid)
        return CheckReport(name, 1, [], [])

    monkeypatch.setattr(cli, "run_suite", fake)
    given = {"n_range": [1, 2], "m_range": [1, 1], "max_weight": 2, "max_len": 3, "degree_cap": 4}
    code, out = run(capsys, "verify", "--suite", "newton", "--grid", json.dumps(given), *flags)
    assert code == 0
    (grid,) = grids
    assert type(grid) is Grid
    assert grid.to_json() == {**Grid.from_json(given).to_json(), **changed}


def test_broken_bialternant_exits_1(capsys, broken_universal):
    code, out = run(capsys, "verify", "--suite", "bialternants")
    assert code == 1
    assert "suite bialternants: FAIL" in out
    assert "  failed: o_even lam=(2, 1) n=2\n    lhs: " in out
    assert "\n    rhs: \n" not in out


@pytest.fixture
def narrow_monomial_slots(monkeypatch):
    """Monomial keys packed in 4-bit slots (|exponent| < 8); every cache is
    emptied around the test so that no key of either width outlives it."""
    from spochar import clear_caches, ring

    clear_caches()
    monkeypatch.setattr(ring, "SLOT_BITS", 4)
    yield
    monkeypatch.undo()
    clear_caches()


def test_exponent_overflow_exits_2(capsys, narrow_monomial_slots):
    # det [[h3, h4], [h2, h3]] has exponent bound 6 < 8; [[h4, h5], [h3, h4]] has 8
    code, out = run(capsys, "compute", "--family", "sp", "--n", "1", "--m", "1", "--outer", "3,3")
    assert code == 0 and out == "x1^3*z1^3 + x1*z1^3 + x1^-1*z1^3 + x1^-3*z1^3\n"
    for argv, prefix in (
        (["compute", "--family", "sp", "--n", "1", "--m", "1", "--outer", "4,4"], "error: "),
        (["verify", "--suite", "newton"], "error: suite newton: "),
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(prefix + "exponent bound ") and "Traceback" not in err


def test_a_usage_error_mid_suite_names_the_suite(capsys):
    # n + m reaches 7 first in branching_sp; the suites before it pass
    grid = '{"n_range": [0, 5], "max_weight": 1}'
    assert main(["verify", "--suite", "all", "--grid", grid]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: suite branching_sp: n + m = 7 > 6\n"


def test_usage_errors_exit_2(capsys):
    assert main(["compute", "--family", "bogus", "--n", "1", "--m", "0", "--outer", "1"]) == 2
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    # malformed partition flag
    assert main(["compute", "--family", "sp", "--n", "1", "--m", "0", "--outer", "2,x"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--config"],
        ["verify", "--config", "MISSING"],
        ["verify", "--grid", "[1]"],
        ["verify", "--grid", '{"bogus": 1}'],
        ["verify", "--grid", '{"n_range": 3}'],
        ["verify", "--grid", '{"max_weight": "a"}'],
        ["verify", "--config", {"grid": {"max_weight": 2}}],
        ["compute", "--config", {"n": 1.5}, "--family", "sp", "--m", "0", "--outer", "1"],
        ["compute", "--config", {"n": [1]}, "--family", "sp", "--m", "0", "--outer", "1"],
        ["verify", "--suite", "newton", "--config", {"format": "xml"}],
        ["fock", "--matrix-element", "--beta", "", "--alpha", "1", "--n", "-1", "--m", "2"],
        ["fock", "--matrix-element", "--beta", "", "--alpha", "1", "--n", "2", "--m", "-1"],
        ["fock", "--matrix-element", "--beta", "", "--alpha", "", "--n", "-1", "--m", "0"],
        ["compute", "--family", "sp", "--n", "-1", "--m", "0", "--outer", ""],
        ["verify", "--suite", "newton", "--eval-points", "-1"],
    ],
)
def test_malformed_input_is_a_usage_error(capsys, tmp_path, argv):
    def arg(a):
        if a == "MISSING":
            return str(tmp_path / "missing.json")
        if isinstance(a, dict):  # a config file holding this object
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(a))
            return str(path)
        return a

    assert main([arg(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    cfg = next((a for a in argv if isinstance(a, dict)), {})
    assert all(repr(key) in err for key in cfg)  # the offending key is named


@pytest.mark.parametrize("joined", [False, True], ids=["separate", "joined"])
def test_config_file_supplies_defaults(capsys, tmp_path, joined):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "sp", "n": 1, "m": 0}))
    flags = [f"--config={cfg}"] if joined else ["--config", str(cfg)]
    code, out = run(capsys, "compute", *flags, "--outer", "1")
    assert code == 0
    assert out.strip() == "x1 + x1^-1"


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "sp", "n": 1, "m": 0}))
    code, out = run(capsys, "compute", "--config", str(cfg), "--outer", "1", "--m", "1")
    assert code == 0
    assert out.strip() == "z1 + x1 + x1^-1"


def test_output_is_stable_across_runs(capsys):
    args = ("compute", "--family", "o", "--n", "2", "--m", "1", "--outer", "2,1")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second


# --- the exit-code contract under arbitrary argv ---

INTS = st.integers(-2, 3).map(str)
PARTS = st.sampled_from(
    ["", "0", "1", "2", "1,1", "2,1", "3,1", "2,2", "3,2,1", "1,2", "-1", "2,,1", "x"]
)
FLAG_VALUES = {
    "--family": st.sampled_from(["sp", "o", "so"]),
    "--format": st.sampled_from(["text", "json", "xml"]),
    "--suite": st.sampled_from([*SUITE_NAMES, "all", "bogus"]),
    "--grid": st.sampled_from(["{}", "[1]", '{"bogus": 1}', "x"]),
    **dict.fromkeys(["--n", "--m", "--N", "--seed", "--eval-points"], INTS),
    **dict.fromkeys(["--outer", "--inner", "--lambda", "--mu", "--beta", "--alpha"], PARTS),
}
SWITCHES = {"--count", "--pairing", "--matrix-element"}
VERB_FLAGS = {
    "compute": ["--family", "--n", "--m", "--outer", "--inner"],
    "verify": ["--suite", "--grid", "--seed", "--eval-points"],
    "gt": ["--lambda", "--n", "--count"],
    "fock": [
        "--pairing", "--matrix-element", "--mu", "--lambda", "--beta", "--alpha",
        "--n", "--m", "--family",
    ],
    "newton": ["--n", "--m", "--N"],
}
GARBAGE = st.sampled_from(["bogus", "--bogus", "--", "-", "[1]", "1.5", "--n=1", "-h", "3"])
# verify runs every suite it is given, so its last --grid keeps each run small
small_grids = st.fixed_dictionaries(
    {
        "max_weight": st.integers(0, 1),
        "n_range": st.lists(st.integers(0, 1), min_size=2, max_size=2),
        "m_range": st.lists(st.integers(0, 1), min_size=2, max_size=2),
    }
)


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(list(VERB_FLAGS)))
    argv = [verb]
    flags = [*VERB_FLAGS[verb], "--format"]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=8, unique=True)):
        argv.append(flag)
        if flag not in SWITCHES:
            value = FLAG_VALUES[flag]  # three times in four a value of its kind
            argv.append(draw(st.one_of(value, value, value, GARBAGE)))
    for token in draw(st.lists(GARBAGE, max_size=2)):
        argv.insert(draw(st.integers(1, len(argv))), token)
    if verb == "verify":
        argv += ["--grid", json.dumps(draw(small_grids))]
    return argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(argvs())
def test_exit_code_contract_holds_for_any_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:  # only an identity check can fail
        assert argv[0] in ("verify", "newton"), argv
