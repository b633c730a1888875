"""Complete homogeneous and elementary generating sequences over mixed alphabets."""

from fractions import Fraction

from spochar.ring import ONE, ZERO, LaurentPoly, xvar, yvar, zvar
from spochar.series import HSpec, _e_seq, check_newton, h_seq, h_seq_y


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
    import pytest

    with pytest.raises(ValueError):
        check_newton(HSpec(3, 0, "plain"), 4)
