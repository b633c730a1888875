"""Complete homogeneous and elementary generating sequences over mixed alphabets."""

from fractions import Fraction

import pytest

from spochar.ring import ONE, ZERO, LaurentPoly, SlotOverflow, xvar, yvar, zvar
from spochar.series import (
    Z_MODES,
    HSpec,
    _e_seq,
    _geom_factors,
    _geom_product,
    check_newton,
    h_seq,
    h_seq_y,
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


def test_e_sequences():
    assert [e.text() for e in _e_seq(0)] == ["1"]
    assert [e.text() for e in _e_seq(1)] == ["1", "-z1^-1"]
    assert [e.text() for e in _e_seq(2)] == [
        "1",
        "-z2^-1 - z1^-1",
        "z1^-1*z2^-1",
    ]


def test_e_is_elementary_in_inverted_z():
    # degree k entry = (-1)^k e_k(z1^-1, ..., zm^-1)
    es = _e_seq(3)
    zi = [LaurentPoly.variable(zvar(j), -1) for j in (1, 2, 3)]
    assert es[1] == LaurentPoly.constant(Fraction(-1)) * (zi[0] + zi[1] + zi[2])
    assert es[3] == LaurentPoly.constant(Fraction(-1)) * zi[0] * zi[1] * zi[2]


def test_h_seq_y_is_plain_complete_homogeneous():
    got = h_seq_y(2, 2)
    y1 = LaurentPoly.variable(yvar(1))
    y2 = LaurentPoly.variable(yvar(2))
    assert got[0] == ONE
    assert got[1] == y1 + y2
    assert got[2] == y1 * y1 + y1 * y2 + y2 * y2


def test_newton_identity_holds():
    assert check_newton(HSpec(1, 1, "plain"), 4)
    assert check_newton(HSpec(2, 2, "plain"), 6)
    assert check_newton(HSpec(0, 2, "symmetric"), 5)


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
