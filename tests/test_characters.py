"""Determinantal characters: universal, skew, bialternant, and closed forms.

Frozen values below were derived by hand-expanding the small determinants;
structural identities (witness checks, symmetry, sign rule) are exercised on
grids small enough to enumerate.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spochar import characters, clear_caches, series
from spochar.characters import (
    BIALTERNANT_KINDS,
    DimensionCapExceeded,
    PartitionTooLong,
    bialternant,
    o_intermediate_reduce,
    schur,
    skew,
    skew_det,
    universal,
    universal_det,
)
from spochar.partitions import Partition, enumerate_partitions, interlaces, subpartitions
from spochar.ring import ONE, ZERO, LaurentPoly, tvar, xvar, zvar
from spochar.series import HSpec

P = Partition
MINUS = LaurentPoly.constant(Fraction(-1))


# --- universal characters ---


def test_sp_universal_empty_shape():
    assert universal("sp", P(()), 2, 1) == ONE


def test_sp_universal_single_box():
    assert universal("sp", P((1,)), 1, 1).text() == "z1 + x1 + x1^-1"
    assert universal("sp", P((1,)), 1, 0).text() == "x1 + x1^-1"


def test_o_universal_empty_shape():
    assert universal("o", P(()), 1, 2) == ONE


def test_o_universal_single_box():
    assert universal("o", P((1,)), 1, 0).text() == "x1 + x1^-1"
    assert universal("o", P((1,)), 1, 1).text() == "z1 + x1 + x1^-1"


def test_universal_integer_coefficients():
    for lam in enumerate_partitions(3, 5):
        universal("sp", lam, 2, 1).require_integer()
        universal("o", lam, 2, 1).require_integer()


def test_universal_shape_too_long():
    with pytest.raises(PartitionTooLong):
        universal("sp", P((1, 1, 1)), 1, 1)
    with pytest.raises(PartitionTooLong):
        universal("o", P((2, 1, 1)), 2, 0)


def test_universal_dimension_cap():
    with pytest.raises(DimensionCapExceeded):
        universal("sp", P(()), 4, 3)


def test_universal_symmetry_generators():
    for family in ("sp", "o"):
        c = universal(family, P((2, 1)), 2, 2)
        assert c.rename({xvar(1): xvar(2), xvar(2): xvar(1)}) == c
        assert c.rename({zvar(1): zvar(2), zvar(2): zvar(1)}) == c
        inv = c.substitute({xvar(1): LaurentPoly.variable(xvar(1), -1)})
        assert inv == c


# --- skew characters ---


def test_skew_equal_shapes_is_one():
    lam = P((2, 1)).with_declared(2)
    assert skew("sp", P((2, 1)), lam, 1, 1) == ONE
    assert skew("o", P((2, 1)), lam, 1, 1) == ONE


def test_skew_not_contained_is_zero():
    assert skew("sp", P((2,)), P((1, 1)).with_declared(2), 1, 1) == ZERO
    assert skew("o", P((1,)), P((2,)).with_declared(1), 1, 1) == ZERO


def test_skew_empty_inner_is_universal():
    inner = P(()).with_declared(0)
    for lam in [P(()), P((1,)), P((2, 1))]:
        assert skew("sp", lam, inner, 2, 1) == universal("sp", lam, 2, 1)
        assert skew("o", lam, inner, 2, 1) == universal("o", lam, 2, 1)


def test_skew_dimension_cap():
    with pytest.raises(DimensionCapExceeded):
        skew("sp", P((1,)), P(()).with_declared(5), 2, 2)


def test_skew_integer_coefficients():
    out = skew("sp", P((3, 1)), P((1,)).with_declared(1), 1, 1)
    out.require_integer()
    assert out


def test_single_z_collapse_on_strips():
    # over one plain z variable, a skew character is a single power of z when
    # the pair forms a horizontal strip, else zero
    assert skew("sp", P((2, 2)), P((2,)).with_declared(2), 0, 1).text() == "z1^2"
    assert skew("sp", P((2, 2)), P((1, 1)).with_declared(2), 0, 1) == ZERO
    for lam in enumerate_partitions(3, 5):
        for mu in subpartitions(lam, lam.length):
            got = skew_det("sp", lam, mu.with_declared(lam.length), 0, 1)
            if interlaces(mu, lam):
                want = LaurentPoly.variable(zvar(1), lam.weight - mu.weight)
            else:
                want = ZERO
            assert got == want, (lam.parts, mu.parts)


def test_row_permutation_sign_rule():
    # permuting the shifted row weights multiplies the determinant by the sign;
    # skew symplectic, inner (1) declared one row long, n = m = 1
    base_alpha = (3, 1, 0)
    inner = (1, 0, 0)
    base = characters._jt_det("sp", base_alpha, inner, 1, 1, 1)
    assert base
    for sigma in itertools.permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if sigma[i] > sigma[j]:
                    sign = -sign
        acted = tuple(base_alpha[sigma[i]] + i - sigma[i] for i in range(3))
        got = characters._jt_det("sp", acted, inner, 1, 1, 1)
        want = base if sign > 0 else MINUS * base
        assert got == want, (sigma, acted)


def test_seq_with_repeated_shifted_weight_vanishes():
    # equal shifted weights mean equal rows
    assert universal_det("sp", (1, 2, 0), 1, 2) == ZERO
    assert universal_det("o", (0, 1), 1, 1) == ZERO


# --- vacuum-side and uncapped determinant variants ---


def test_universal_det_matches_public_form():
    for lam in enumerate_partitions(3, 4):
        want = universal("sp", lam, 2, 1)
        assert universal_det("sp", lam.parts, 2, 1) == want
        assert universal_det("sp", lam.padded(3), 2, 1) == want
        assert universal_det("o", lam.parts, 2, 1) == universal("o", lam, 2, 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(["sp", "o", "sp_hprime"]),
    st.lists(st.integers(-2, 3), max_size=3).map(tuple),
    st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
)
def test_universal_det_padding_stable(kind, seq, nm):
    # appended zero rows leave a block triangular matrix with a unit
    # triangular tail, so any integer sequence has one value at every length
    n, m = nm
    values = [
        characters._jt_det(kind, seq + (0,) * p, (0,) * (len(seq) + p), 0, n, m)
        for p in range(3)
    ]
    assert values[0] == values[1] == values[2], (kind, seq, n, m)


def test_universal_det_survives_past_variable_count():
    # two rows over a single plain variable: not expressible as a 1x1
    # determinant, but the determinant at the shape's length is nonzero;
    # the public entry still rejects the shape
    assert universal_det("sp", (1, 1), 0, 1) == MINUS
    with pytest.raises(PartitionTooLong):
        universal("sp", P((1, 1)), 0, 1)


def test_universal_builds_the_matrix_at_the_shape_length(monkeypatch):
    alphas = []
    real = characters._jt_det

    def record(kind, alpha, *rest):
        alphas.append(alpha)
        return real(kind, alpha, *rest)

    monkeypatch.setattr(characters, "_jt_det", record)
    universal("sp", P((2, 1)), 2, 1)
    assert [len(a) for a in alphas] == [2]


def test_skew_det_matches_public_form():
    inner = P((1,)).with_declared(1)
    for lam in [P((2, 1)), P((3, 1)), P((1, 1))]:
        assert skew_det("sp", lam, inner, 1, 1) == skew("sp", lam, inner, 1, 1)
        assert skew_det("o", lam, inner, 1, 1) == skew("o", lam, inner, 1, 1)


# --- Schur polynomials ---


def test_schur_values():
    assert schur(P(()), 2) == ONE
    assert schur(P((1,)), 2).text() == "y2 + y1"
    assert schur(P((1, 1)), 2).text() == "y1*y2"


def test_schur_shape_too_long():
    with pytest.raises(PartitionTooLong):
        schur(P((1, 1, 1)), 2)


# --- h-table length ---


class _ReadLog(list):
    """A list that records every index read through []."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, k):
        self.reads.append(k)
        return super().__getitem__(k)


def _patch_tables(monkeypatch, length=None):
    """Route characters' h-table requests through a recorder.

    Each call appends (requested N, indices read).  With `length`, the table
    handed back is built to `length` instead of the requested N.
    """
    calls = []
    for name in ("h_seq", "h_seq_y"):
        real = getattr(series, name)

        def fake(first, N, real=real):
            reads = []
            calls.append((N, reads))
            return _ReadLog(real(first, N if length is None else length), reads)

        monkeypatch.setattr(characters, name, fake)
    return calls


# (kind, alpha, beta, l, n, m) as _jt_det takes them
JT_CASES = {
    "sp universal": ("sp", (2, 1, 0), (0, 0, 0), 0, 2, 1),
    "o universal": ("o", (3, 1, 0), (0, 0, 0), 0, 1, 2),
    "sp_hprime reduced": ("sp_hprime", (2, 1), (0, 0), 0, 2, 1),
    "sp skew l=0": ("sp", (3, 1, 0), (0, 0, 0), 0, 1, 2),
    "o skew l=1": ("o", (3, 2, 1), (1, 0, 0), 1, 1, 1),
    "sp skew l=1": ("sp", (3, 2, 1), (1, 0, 0), 1, 1, 1),
    "sp skew l=2": ("sp", (3, 2, 1, 0), (2, 1, 0, 0), 2, 1, 1),
    "o skew l=2": ("o", (3, 2, 1, 0), (2, 1, 0, 0), 2, 1, 1),
    "sp skew l=2 dim=l+1": ("sp", (2, 2, 0), (1, 1, 0), 2, 0, 1),
    "o skew l=2 dim=l+1": ("o", (2, 2, 0), (1, 1, 0), 2, 0, 1),
    "sp skew n=m=0": ("sp", (2, 1), (1, 0), 2, 0, 0),
    "o skew n=m=0": ("o", (3, 1), (1, 1), 2, 0, 0),
    # inner rows past l: only here does the second term's column offset win
    "sp beta past l": ("sp", (3, 2, 1), (1, 3, 4), 1, 2, 0),
    "sp beta past l dim=l+1": ("sp", (2, 2, 0), (3, 3, 3), 2, 0, 1),
    "o beta past l dim=l+1": ("o", (3, 2, 1), (3, 3, 3), 2, 0, 1),
    "sp seq negative": ("sp", (-1, 2), (0, 0), 0, 1, 1),
    "o seq non-decreasing": ("o", (0, 1, 3), (0, 0, 0), 0, 2, 1),
    "sp seq all negative": ("sp", (-3, -2), (0, 0), 0, 1, 1),
}


@pytest.mark.parametrize("case", JT_CASES.values(), ids=JT_CASES.keys())
def test_jt_det_requests_exactly_the_h_table_it_reads(monkeypatch, case):
    # no determinant, column or minor of an earlier call is left to reuse
    characters._jt_det.cache_clear()
    characters._minors.cache_clear()
    calls = _patch_tables(monkeypatch)
    got = characters._jt_det(*case)
    [(N, reads)] = calls
    assert N == max([0, *reads])
    # the same determinant over the longer table the engine used to request,
    # recomputed: the minors of the first call are dropped too
    alpha = case[1]
    characters._minors.cache_clear()
    calls = _patch_tables(monkeypatch, length=max(max(alpha), 0) + 2 * len(alpha))
    assert characters._jt_det.__wrapped__(*case) == got
    assert [(N, reads)] == calls


def _permutation_det(rows):
    """Permutation-sum determinant: slow, but shares nothing with the
    cofactor expansion that every determinant of the package goes through."""
    total = ZERO
    for perm in itertools.permutations(range(len(rows))):
        prod = ONE
        for row, j in zip(rows, perm):
            prod = prod * row[j] if prod else prod
        if sum(a > b for a, b in itertools.combinations(perm, 2)) & 1:
            prod = -prod
        total = total + prod
    return total


def _jt_oracle(kind, alpha, beta, l, n, m):
    """The permutation sum over the Jacobi-Trudi matrix, built entry by
    entry from the formula in `_jt_det`'s docstring over a table longer than
    any index."""
    dim = len(alpha)
    if dim == 0:
        return ONE
    hs = series.h_seq(HSpec(n, m, "plain"), max(max(alpha), 0) + 2 * dim + 2)
    if kind == "sp_hprime":
        hs = [h - hs[k - 2] if k > 1 else h for k, h in enumerate(hs)]
    sp = kind != "o"
    first, c = (l + 2, 2 * l + 2) if sp else (l + 1, 2 * l)

    def h(k):
        return hs[k] if k >= 0 else ZERO

    rows = []
    for i, a in enumerate(alpha, 1):
        row = []
        for j, b in enumerate(beta, 1):
            e = h(a - i - b + j)
            if j >= first:
                e = e + h(a - i - j + c) if sp else e - h(a - i - j + c)
            row.append(e)
        rows.append(row)
    return _permutation_det(rows)


def _jt_draws():
    """(kind, alpha, beta, l, n, m) cases over a few outer row sets, each met
    by every kind, by several l at one dimension and by several inner rows."""
    rng = random.Random(7)
    cases = set()
    for n, m in [(0, 1), (1, 0), (1, 1), (0, 2)]:
        for parts in [(1,), (2, 1), (2, 2), (3, 1), (1, 1, 1), (3, 2, 1), (0, 2)]:
            for pad in range(2):
                alpha = parts + (0,) * pad
                dim = len(alpha)
                for _ in range(4):
                    l = rng.randint(0, dim)
                    beta = tuple(sorted((rng.randint(0, 2) for _ in range(dim)), reverse=True))
                    for kind in ("sp", "o", "sp_hprime"):
                        cases.add((kind, alpha, beta, l, n, m))
    return sorted(cases)


def test_shared_minors_match_a_fresh_determinant():
    # minors are shared between the determinants of one outer row set; a
    # memo that confused two kinds, or two values of l at one dimension,
    # would hand one determinant another's minors
    cases = _jt_draws()
    want = {case: _jt_oracle(*case) for case in cases}
    # one row set's calls back to back (over every l and padding of one
    # kind, then over the kinds at one l), then interleaved, then from
    # empty caches
    by_l = sorted(cases, key=lambda c: (c[4], c[5], c[0], c[1], c[3]))
    by_kind = sorted(cases, key=lambda c: (c[4], c[5], c[1], c[3], c[0]))
    shuffled = list(cases)
    random.Random(1).shuffle(shuffled)
    reshuffled = list(cases)
    random.Random(2).shuffle(reshuffled)
    for order in (by_l, by_kind, shuffled, reshuffled):
        if order is reshuffled:
            clear_caches()
        characters._jt_det.cache_clear()
        for case in order:
            assert characters._jt_det(*case) == want[case], case


@pytest.mark.parametrize("family", ["sp", "o"])
def test_skew_det_is_the_determinant_padded_to_l_plus_n_plus_m(family):
    # skew_det expands max(l, len(outer)) rows; the rows down to l + n + m
    # that it leaves out must not change the value, also where the inner
    # shape is declared longer than the outer one, and whether or not the
    # inner shape fits in the outer one
    for n, m in [(1, 0), (0, 1), (1, 1), (0, 2), (2, 1), (1, 2), (0, 3)]:
        for outer in [P(()), P((1,)), P((2,)), P((1, 1)), P((2, 1)), P((3, 1))]:
            for l in range(outer.length + 1, outer.length + 3):
                size = l + n + m
                if size > 5:
                    continue
                for inner in enumerate_partitions(l, 2):
                    inner = inner.with_declared(l)
                    want = _jt_oracle(
                        family, outer.padded(size), inner.padded(size), l, n, m
                    )
                    got = skew_det(family, outer, inner, n, m)
                    assert got == want, (outer.parts, inner.parts, l, n, m)


@pytest.mark.parametrize("parts", [(2, 1, 0), (0, 0), (3,), (1, 1, 1)])
def test_schur_requests_exactly_the_h_table_it_reads(monkeypatch, parts):
    characters._schur.cache_clear()
    calls = _patch_tables(monkeypatch)
    got = characters._schur(parts, len(parts))
    [(N, reads)] = calls
    assert N == max([0, *reads])
    _patch_tables(monkeypatch, length=parts[0] + len(parts))
    assert characters._schur.__wrapped__(parts, len(parts)) == got


# --- bialternants and closed forms ---


# (lam, n) per kind: the empty shape, one box, and a shape filling every row
# (the doubled o_even branch, the z row of sp_odd)
BIALTERNANT_CASES = {
    "sp": [(P(()), 0), (P(()), 2), (P((1,)), 1), (P((1, 1)), 2), (P((2, 1)), 3)],
    "sp_odd": [(P(()), 0), (P(()), 1), (P((1,)), 1), (P((1, 1)), 1), (P((2, 1)), 2)],
    "o_even": [(P(()), 0), (P(()), 2), (P((1,)), 2), (P((1, 1)), 2), (P((2, 1)), 2)],
    "o_odd z=1": [(P(()), 0), (P(()), 1), (P((1,)), 1), (P((2, 1)), 2)],
    "o_odd z=-1": [(P(()), 0), (P(()), 1), (P((1,)), 1), (P((2, 1)), 2)],
}


@pytest.mark.parametrize("kind", BIALTERNANT_KINDS)
def test_bialternant_sides_agree(kind):
    for lam, n in BIALTERNANT_CASES[kind]:
        lhs, rhs = bialternant(kind, lam, n)
        assert lhs == rhs, (lam.parts, n)
        assert lhs, (lam.parts, n)


def test_bialternant_sides_are_not_divided():
    # the sides are the alternants themselves: for one box over one pair,
    # det(num) = x^2 - x^-2 and det(den) = x - x^-1
    lhs, rhs = bialternant("sp", P((1,)), 1)
    assert lhs.text() == "x1^2 - x1^-2"
    assert rhs == lhs
    # with no paired variables both alternants are empty: the sides are
    # 1 and the character
    assert bialternant("o_odd z=-1", P(()), 0) == (ONE, ONE)


def test_bialternant_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown bialternant kind"):
        bialternant("o_odd", P(()), 1)


def test_sp_odd_jt_values():
    assert universal("sp", P(()), 1, 1) == ONE
    assert universal("sp", P((1,)), 1, 1).text() == "z1 + x1 + x1^-1"
    got = universal("sp", P((2,)), 1, 1).text()
    assert got == "z1^2 + x1^2 + x1*z1 + x1^-1*z1 + 1 + x1^-2"


def test_o_odd_closed_signed_specializations_agree():
    # the z = +-1 forms hold with paired variables to spare, and their sides
    # live in the t_i alone: z is specialized and x_i = t_i^2
    for lam in [P(()), P((1,)), P((2,)), P((2, 1))]:
        n = max(lam.length, 1) + 1
        for zv in (1, -1):
            lhs, rhs = bialternant(f"o_odd z={zv}", lam, n)
            assert lhs == rhs, (lam.parts, zv)
            assert {v.rank for v in rhs.variables()} == {tvar(1).rank}


def test_o_odd_closed_rejects_full_length():
    # lambda_{n+1} = 0 is the same condition as len(lambda) <= n
    with pytest.raises(PartitionTooLong):
        bialternant("o_odd z=1", P((1, 1)), 1)
    with pytest.raises(PartitionTooLong):
        bialternant("sp", P((1, 1)), 1)
    with pytest.raises(PartitionTooLong):
        bialternant("sp_odd", P((1, 1, 1)), 1)


def test_o_intermediate_reduce_values():
    assert o_intermediate_reduce(P(()), 1, 1) == (ONE, ONE)
    reduced, target = o_intermediate_reduce(P((1,)), 1, 1)
    assert reduced == target == universal("o", P((1,)), 1, 1)
    reduced, target = o_intermediate_reduce(P((2, 1)), 2, 1)
    assert reduced == target == universal("o", P((2, 1)), 2, 1)


# --- family and variable-count checks ---


def test_entry_points_reject_unknown_family():
    inner = P((1,)).with_declared(1)
    with pytest.raises(ValueError, match="family"):
        universal("unitary", P(()), 1, 0)
    with pytest.raises(ValueError, match="family"):
        skew("unitary", P((1,)), inner, 1, 0)
    # negative counts are rejected before any shape or cap check
    for n, m in ((-1, 1), (1, -1), (-1, 0)):
        with pytest.raises(ValueError, match="variable counts must be >= 0"):
            universal("sp", P(()), n, m)
        with pytest.raises(ValueError, match="variable counts must be >= 0"):
            skew("o", P(()), inner, n, m)
