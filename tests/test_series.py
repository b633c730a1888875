"""Complete homogeneous and elementary generating sequences over mixed alphabets."""

import random
from fractions import Fraction

import pytest

from spochar import clear_caches, series

from spochar.ring import ONE, ZERO, LaurentPoly, SlotOverflow, dot, xvar, yvar, zvar
from spochar.series import (
    Z_MODES,
    HSpec,
    _geom_factors,
    _geom_product,
    _stages,
    check_newton,
    h_seq,
    h_seq_y,
    newton_sides,
)


def test_h_single_inverted_pair():
    got = [h.text() for h in h_seq(HSpec(1, 0, "plain"), 2)]
    assert got == ["1", "x1 + x1^-1", "x1^2 + 1 + x1^-2"]


def test_h_single_plain_z():
    got = [h.text() for h in h_seq(HSpec(0, 1, "plain"), 2)]
    assert got == ["1", "z1", "z1^2"]


def test_h_mixed_alphabet_degree_one():
    got = h_seq(HSpec(1, 1, "plain"), 1)
    assert got[1].text() == "z1 + x1 + x1^-1"


def test_h_symmetric_z_mode():
    got = [h.text() for h in h_seq(HSpec(0, 1, "symmetric"), 2)]
    assert got == ["1", "z1 + z1^-1", "z1^2 + 1 + z1^-2"]


def test_h_is_multiplicative_over_alphabets():
    # the mixed sequence is the convolution of the pure-x and pure-z ones
    hx = h_seq(HSpec(2, 0, "plain"), 4)
    hz = h_seq(HSpec(0, 1, "plain"), 4)
    hm = h_seq(HSpec(2, 1, "plain"), 4)
    for d in range(5):
        conv = ZERO
        for a in range(d + 1):
            conv = conv + hx[a] * hz[d - a]
        assert hm[d] == conv


def test_h_symmetry_under_variable_swap():
    hs = h_seq(HSpec(2, 2, "plain"), 3)
    for h in hs:
        assert h.rename({xvar(1): xvar(2), xvar(2): xvar(1)}) == h
        assert h.rename({zvar(1): zvar(2), zvar(2): zvar(1)}) == h


def test_h_symmetry_under_x_inversion():
    # each x enters with its inverse, so x1 -> x1^-1 fixes every term
    hs = h_seq(HSpec(2, 1, "plain"), 3)
    for h in hs:
        inv = h.substitute({xvar(1): LaurentPoly.variable(xvar(1), -1)})
        assert inv == h


# --- the Newton recurrence, against the expanded e-family ---


def e_seq(m):
    """(e_0, ..., e_m): elementary symmetric polynomials of -z_1^{-1}..-z_m^{-1}."""
    series = [ONE]
    for j in range(1, m + 1):
        zj_inv = LaurentPoly.variable(zvar(j), -1)
        series = [
            (series[k] if k < j else ZERO) - (zj_inv * series[k - 1] if k else ZERO)
            for k in range(j + 1)
        ]
    return series


def newton_oracle(spec, N):
    """Per degree k <= N: does h_k(plain) = sum_i e_i h_{k-i}(symmetric) hold,
    with every e_i expanded and multiplied out by `dot`."""
    hp = series.h_seq(HSpec(spec.n, spec.m, "plain"), N)
    hs = series.h_seq(HSpec(spec.n, spec.m, "symmetric"), N)
    es = e_seq(spec.m)
    return [
        hp[k] == dot((es[i], hs[k - i]) for i in range(min(spec.m, k) + 1))
        for k in range(N + 1)
    ]


def test_e_sequences():
    assert [e.text() for e in e_seq(0)] == ["1"]
    assert [e.text() for e in e_seq(1)] == ["1", "-z1^-1"]
    assert [e.text() for e in e_seq(2)] == [
        "1",
        "-z2^-1 - z1^-1",
        "z1^-1*z2^-1",
    ]


def test_e_is_elementary_in_inverted_z():
    # degree k entry = (-1)^k e_k(z1^-1, ..., zm^-1)
    es = e_seq(3)
    zi = [LaurentPoly.variable(zvar(j), -1) for j in (1, 2, 3)]
    assert es[1] == LaurentPoly.constant(Fraction(-1)) * (zi[0] + zi[1] + zi[2])
    assert es[3] == LaurentPoly.constant(Fraction(-1)) * zi[0] * zi[1] * zi[2]


def first_false(verdicts):
    """The first degree whose verdict is False, or None."""
    return next((k for k, ok in enumerate(verdicts) if not ok), None)


@pytest.mark.parametrize("m", range(1, 4))
@pytest.mark.parametrize("n", range(4))
def test_check_newton_agrees_with_the_expanded_oracle(n, m):
    spec = HSpec(n, m)
    verdicts = newton_oracle(spec, 8)
    assert all(verdicts)
    for N in range(9):
        assert check_newton(spec, N) == first_false(verdicts[: N + 1]) is None


@pytest.mark.parametrize("m", range(1, 4))
def test_one_changed_symmetric_coefficient_fails_the_check(perturb_symmetric, m):
    N = 6
    for n in range(2):
        spec = HSpec(n, m)
        for k in range(1, N + 1):
            perturb_symmetric(k)
            # h_k enters degrees k..k+m, each times a nonzero e_i
            assert newton_oracle(spec, N) == [not k <= i <= k + m for i in range(N + 1)]
            assert check_newton(spec, N) == first_false(newton_oracle(spec, N)) == k
            # the degrees below k never read the changed h_k
            assert check_newton(spec, k - 1) is None


@pytest.mark.parametrize("m", range(1, 3))
def test_newton_sides_are_the_oracle_sides(m):
    # the product side at degree k is sum_i e_i h_{k-i}(symmetric)
    spec, N = HSpec(1, m), 5
    hp = h_seq(spec, N)
    hs = h_seq(HSpec(1, m, "symmetric"), N)
    es = e_seq(m)
    sides = list(newton_sides(spec, N))
    assert [k for k, _, _ in sides] == list(range(N + 1))
    for k, plain, product in sides:
        assert plain == hp[k]
        assert product == dot((es[i], hs[k - i]) for i in range(min(m, k) + 1))


def test_check_newton_changes_no_shared_table():
    clear_caches()
    specs = [HSpec(n, m) for n in range(3) for m in range(1, 4)]
    for spec in specs:
        h_seq(HSpec(spec.n, spec.m, "symmetric"), 7)
    # every prefix of every symmetric factor list: the plain tables among them
    tables = {
        factors[:p]: _stages(factors[:p])
        for factors in (_geom_factors(HSpec(s.n, s.m, "symmetric")) for s in specs)
        for p in range(len(factors) + 1)
    }
    snapshot = {key: (list(table), [dict(d) for d in table]) for key, table in tables.items()}
    for spec in specs:
        for N in range(8):
            assert check_newton(spec, N) is None
    for key, table in tables.items():
        dicts, copies = snapshot[key]
        assert len(table) == len(dicts) and all(d is old for d, old in zip(table, dicts))
        assert table == copies


def test_check_newton_stays_inside_the_slot_bound(narrow_monomial_slots):
    # 4-bit slots hold |exponent| <= 7: h_7's bound passes, h_8's is refused
    for n in range(2):
        for m in range(1, 4):
            assert check_newton(HSpec(n, m), 7) is None
            with pytest.raises(SlotOverflow, match="exponent bound 8 reaches the 4-bit"):
                check_newton(HSpec(n, m), 8)


def test_h_seq_y_is_plain_complete_homogeneous():
    got = h_seq_y(2, 2)
    y1 = LaurentPoly.variable(yvar(1))
    y2 = LaurentPoly.variable(yvar(2))
    assert got[0] == ONE
    assert got[1] == y1 + y2
    assert got[2] == y1 * y1 + y1 * y2 + y2 * y2


def test_newton_identity_holds():
    assert check_newton(HSpec(1, 1, "plain"), 4) is None
    assert check_newton(HSpec(2, 2, "plain"), 6) is None
    assert check_newton(HSpec(0, 2, "symmetric"), 5) is None


def test_newton_needs_a_z_variable():
    with pytest.raises(ValueError):
        check_newton(HSpec(3, 0, "plain"), 4)


# --- the in-place h-table recurrence, against the ring-level one ---


def ring_recurrence(factors, N):
    """h-table built as the ring did before: series[k] += u * series[k-1]."""
    series = [ONE] + [ZERO] * N
    for u in factors:
        up = LaurentPoly.monomial(u)
        for k in range(1, N + 1):
            series[k] = series[k] + up * series[k - 1]
    return series


def assert_same_table(got, want):
    assert [h._terms for h in got] == [h._terms for h in want]
    assert [h._bound for h in got] == [h._bound for h in want]


@pytest.mark.parametrize("z_mode", Z_MODES)
@pytest.mark.parametrize("m", range(3))
@pytest.mark.parametrize("n", range(3))
def test_h_seq_matches_the_ring_recurrence(n, m, z_mode):
    spec = HSpec(n, m, z_mode)
    for N in range(7):
        got = h_seq(spec, N)
        assert_same_table(got, ring_recurrence(_geom_factors(spec), N))
        assert all(h._bound <= k for k, h in enumerate(got))


def test_h_seq_y_matches_the_ring_recurrence():
    for k in range(4):
        for N in range(7):
            factors = tuple(((yvar(i), 1),) for i in range(1, k + 1))
            assert_same_table(h_seq_y(k, N), ring_recurrence(factors, N))


def test_grown_tables_match_the_ring_recurrence_in_any_request_order():
    # one prefix store serves every N of a factor set, the plain family's
    # factors are a prefix of the symmetric family's, and h_seq_y(k) extends
    # h_seq_y(k - 1): requests in a shuffled order, descending N included,
    # must read the same tables as building each from scratch
    requests = [
        (spec, N)
        for spec in (HSpec(n, m, z) for n in range(3) for m in range(3) for z in Z_MODES)
        for N in (6, 2, 0, 4)
    ] + [(k, N) for k in range(4) for N in (6, 1, 3)]
    random.Random(27).shuffle(requests)
    for order in (requests, sorted(requests, key=lambda r: -r[1])):
        clear_caches()
        assert _stages.cache_info().currsize == 0
        for key, N in order:
            if isinstance(key, HSpec):
                got, factors = h_seq(key, N), _geom_factors(key)
            else:
                got = h_seq_y(key, N)
                factors = tuple(((yvar(i), 1),) for i in range(1, key + 1))
            assert_same_table(got, ring_recurrence(factors, N))
        assert _stages.cache_info().currsize > 0


def test_symmetric_factors_extend_the_plain_ones():
    for n in range(3):
        for m in range(3):
            plain = _geom_factors(HSpec(n, m, "plain"))
            assert _geom_factors(HSpec(n, m, "symmetric"))[: len(plain)] == plain


def test_every_n_of_one_factor_set_reads_the_same_dicts():
    clear_caches()
    spec = HSpec(1, 1, "symmetric")
    big, small = h_seq(spec, 5), h_seq(spec, 3)
    plain = h_seq(HSpec(1, 1, "plain"), 4)
    assert all(a._terms is b._terms for a, b in zip(small, big))
    # the plain table is the symmetric one's prefix stage, not a copy of it
    assert _stages(_geom_factors(HSpec(1, 1, "plain")))[4] is plain[4]._terms


def test_h_table_bound_scales_with_the_largest_exponent():
    factors = (((xvar(1), 2),), ((zvar(1), -1),))
    got = _geom_product(factors, 5)
    assert_same_table(got, ring_recurrence(factors, 5))
    assert [h._bound for h in got] == [2 * k for k in range(6)]


def test_h_table_overflow_is_refused_before_building():
    # a built table would hold 2^15 + 1 entries; the bound check comes first
    with pytest.raises(SlotOverflow):
        h_seq(HSpec(0, 1), 1 << 15)
    with pytest.raises(SlotOverflow):
        _geom_product((((xvar(1), 2),),), 1 << 14)


@pytest.mark.parametrize(
    "args,message",
    [
        ((-1, 0), "variable counts must be >= 0"),
        ((0, -1), "variable counts must be >= 0"),
        ((1, 0, "bogus"), "z_mode must be one of"),
        ((-1, 0, "bogus"), "variable counts must be >= 0"),  # counts are checked first
    ],
)
def test_hspec_validates_on_construction(args, message):
    with pytest.raises(ValueError, match=message):
        HSpec(*args)
    with pytest.raises(ValueError, match=message):
        HSpec(**dict(zip(("n", "m", "z_mode"), args)))
    with pytest.raises(ValueError, match=message):
        HSpec(1, 2)._replace(**dict(zip(("n", "m", "z_mode"), args)))
    with pytest.raises(ValueError, match=message):
        HSpec._make((*args, "plain")[:3])


def test_equal_hspecs_share_one_cache_entry():
    assert HSpec(1, 2) == HSpec(1, 2, "plain") == HSpec(n=1, m=2, z_mode="plain")
    assert hash(HSpec(1, 2)) == hash(HSpec(1, 2, "plain"))
    assert HSpec(1, 2) != HSpec(1, 2, "symmetric")
    _geom_factors.cache_clear()
    for spec in (HSpec(1, 2), HSpec(1, 2, "plain"), HSpec(n=1, m=2)):
        h_seq(spec, 2)
    info = _geom_factors.cache_info()
    assert (info.hits, info.misses) == (2, 1)
