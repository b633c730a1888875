"""Operator engine: Heisenberg action, vertex-operator modes, kets, pairings.

matrix_element doubles as the independent oracle for the determinant engine,
so the two are compared directly here on a small sample.
"""

from fractions import Fraction

import pytest

from spochar.characters import o_skew, skew_det, sp_skew
from spochar.fock import (
    MODE_SHAPES,
    ZeroModeRequested,
    apply_mode,
    gamma_plus,
    heisenberg,
    ket,
    matrix_element,
    pairing,
    straighten,
    vacuum,
    vacuum_coefficient,
)
from spochar.partitions import Partition, enumerate_partitions
from spochar.ring import LaurentPoly

P = Partition
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


def scaled(vec, c):
    k = LaurentPoly.constant(Fraction(c))
    return {mu: k * f for mu, f in vec.items()}


# --- Heisenberg action ---


def test_creation_appends_power_sum():
    assert heisenberg(vacuum(), -2) == {(2,): ONE}


def test_annihilation_scales_by_mode():
    p2 = heisenberg(vacuum(), -2)
    assert heisenberg(p2, 2) == scaled(vacuum(), 2)


def test_annihilation_is_a_derivation():
    p11 = heisenberg(heisenberg(vacuum(), -1), -1)
    assert heisenberg(p11, 1) == scaled(heisenberg(vacuum(), -1), 2)


def test_zero_mode_rejected():
    with pytest.raises(ZeroModeRequested):
        heisenberg(vacuum(), 0)


def test_heisenberg_commutator():
    # [a_m, a_n] = m delta_{m,-n} on a non-trivial vector
    v = heisenberg(heisenberg(vacuum(), -3), -1)
    for m in (-3, -2, 1, 2, 3):
        for n in (-3, -1, 2, 3):
            if m == 0 or n == 0:
                continue
            ab = heisenberg(heisenberg(v, n), m)
            ba = heisenberg(heisenberg(v, m), n)
            diff = dict(ab)
            for mu, f in ba.items():
                g = diff.get(mu, 0) - f
                if not g:
                    diff.pop(mu, None)
                else:
                    diff[mu] = g
            want = scaled(v, m) if m == -n else {}
            assert diff == want, (m, n)


# --- modes and kets ---


def test_positive_mode_kills_vacuum():
    assert apply_mode("Y", 1, vacuum()) == {}
    assert apply_mode("Y", 3, vacuum()) == {}


def test_zero_mode_fixes_vacuum():
    assert apply_mode("Y", 0, vacuum()) == vacuum()
    assert apply_mode("W", 0, vacuum()) == vacuum()


def test_negative_mode_creates_single_row():
    assert apply_mode("Y", -1, vacuum()) == {(1,): ONE}


def test_mode_catalog_is_closed():
    assert set(MODE_SHAPES) == {"Y", "Ystar", "W", "Wstar"}


def test_ket_basics():
    assert ket(P(()), "sp") == vacuum()
    assert ket(P((0,)).with_declared(1), "sp") == vacuum()
    assert ket(P((1,)), "sp") == {(1,): ONE}


def test_ket_padding_invariance():
    for fam in ("sp", "o"):
        for lam in [P((1,)), P((2, 1)), P((2, 2))]:
            base = ket(lam, fam)
            assert ket(lam.with_declared(lam.length + 2), fam) == base


def test_pairing_is_orthonormal():
    shapes = list(enumerate_partitions(3, 4))
    for fam in ("sp", "o"):
        for mu in shapes:
            for lam in shapes:
                want = ONE if mu == lam else ZERO
                assert pairing(mu, lam, fam) == want, (fam, mu.parts, lam.parts)


def test_pairing_examples():
    assert pairing(P((2,)), P((1, 1)), "sp") == ZERO
    assert pairing(P(()), P((1,)), "sp") == ZERO
    assert pairing(P((2, 1)), P((2, 1)), "o") == ONE


# --- half vertex operator and matrix elements ---


def test_gamma_plus_fixes_vacuum():
    assert gamma_plus(2, 1, vacuum()) == vacuum()


def test_gamma_plus_strips_one_box():
    got = vacuum_coefficient(gamma_plus(1, 0, ket(P((1,)), "sp")))
    assert got.text() == "x1 + x1^-1"
    got = vacuum_coefficient(gamma_plus(1, 1, ket(P((1,)), "sp")))
    assert got.text() == "z1 + x1 + x1^-1"


def test_matrix_element_values():
    assert matrix_element(P(()), 1, 0, P((1,)), "sp").text() == "x1 + x1^-1"
    assert matrix_element(P((1,)).with_declared(1), 1, 0, P((2,)), "sp").text() == "x1 + x1^-1"
    assert matrix_element(P((2, 1)).with_declared(2), 1, 0, P((2, 1)), "sp") == ONE


def test_matrix_element_agrees_with_determinants():
    # the two engines must agree wherever both are defined
    shapes = [P(()), P((1,)), P((2,)), P((1, 1)), P((2, 1))]
    for fam, det in (("sp", sp_skew), ("o", o_skew)):
        for alpha in shapes:
            for beta in shapes:
                b = beta.with_declared(2)
                for n, m in ((1, 0), (1, 1), (0, 1)):
                    got = matrix_element(b, n, m, alpha, fam)
                    want = det(alpha, b, n, m)
                    assert got == want, (fam, alpha.parts, beta.parts, n, m)


def test_matrix_element_matches_polynomial_path():
    # reference: Gamma_+ on the ket, then the star word on polynomial vectors
    star = {"sp": "Ystar", "o": "Wstar"}
    for fam in ("sp", "o"):
        for alpha in (P((1,)), P((2, 1)), P((2, 2)), P((3, 1))):
            for beta in (P(()), P((1,)).with_declared(1), P((1,)).with_declared(2), P((2, 1))):
                for n, m in ((0, 0), (1, 0), (0, 2), (1, 1), (2, 1)):
                    l = beta.declared_len
                    if alpha.length > l + n + m:
                        continue
                    vec = gamma_plus(n, m, ket(alpha.with_declared(l + n + m), fam))
                    for b in beta.padded(l):
                        vec = apply_mode(star[fam], -b, vec)
                    want = vacuum_coefficient(vec)
                    got = matrix_element(beta, n, m, alpha, fam)
                    assert got == want, (fam, alpha.parts, beta.parts, n, m)


def test_vacuum_projection_past_variable_count():
    # the operator side still produces a value when the shape has more rows
    # than variables; the universal determinant at the shape's length matches it
    from spochar.characters import universal_det

    lam = P((1, 1))
    got = vacuum_coefficient(gamma_plus(0, 1, ket(lam, "sp")))
    assert got == universal_det("sp", lam.parts, 0, 1)
    assert got == LaurentPoly.constant(Fraction(-1))


def test_bras_are_not_padding_independent():
    # <0| and the length-2 zero bra see different components, unlike kets
    lam = P((1, 1))
    short = vacuum_coefficient(gamma_plus(0, 1, ket(lam, "sp")))
    long = matrix_element(P(()).with_declared(2), 0, 1, lam, "sp")
    assert short != long


# --- reflection identities behind the bra normal forms ---


def test_mode_reflections_under_dual_vacuum():
    for lam in enumerate_partitions(3, 4):
        v = ket(lam, "sp")
        for n in range(-3, 4):
            vc = vacuum_coefficient
            assert vc(apply_mode("Ystar", n, v)) == ZERO - vc(
                apply_mode("Ystar", -n + 2, v)
            )
            assert vc(apply_mode("Y", n, v)) == vc(apply_mode("Y", -n, v))
            assert vc(apply_mode("W", n, v)) == ZERO - vc(
                apply_mode("W", -n - 2, v)
            )
            assert vc(apply_mode("Wstar", n, v)) == vc(apply_mode("Wstar", -n, v))


# --- straightening ---


def test_straighten_sorted_word_is_plus():
    assert straighten((-2, -1)) == (1, P((2, 1)).with_declared(2))


def test_straighten_exchange_flips_sign():
    sign, mu = straighten((0, -3))
    assert (sign, mu) == (-1, P((2, 1)).with_declared(2))


def test_straighten_collision_vanishes():
    sign, mu = straighten((-1, -2))
    assert sign == 0
    # the operator word itself annihilates the vacuum
    wiped = apply_mode("Y", -1, apply_mode("Y", -2, vacuum()))
    assert wiped == {}


def test_straighten_trailing_positive_vanishes():
    sign, _ = straighten((-1, 1))
    assert sign == 0


def test_straighten_matches_operator_action():
    # applying the word right-to-left lands on sign * ket
    for word, fam in [((0, -3), "sp"), ((-1, 2, -4), "sp"), ((1, -1, -2), "o")]:
        sign, mu = straighten(word, fam)
        vec = vacuum()
        kind = "Y" if fam == "sp" else "W"
        for n in reversed(word):
            vec = apply_mode(kind, n, vec)
        if sign == 0:
            assert vec == {}
        else:
            assert vec == scaled(ket(mu, fam), sign), (word, fam)


def test_straighten_closed_form_permutation_action():
    mu = (3, 1, 0)
    for sigma, eps in [((0, 1, 2), 1), ((1, 0, 2), -1), ((2, 0, 1), 1)]:
        word = tuple(-mu[sigma[i]] + sigma[i] - i for i in range(3))
        sign, got = straighten(word)
        assert sign == eps and got.parts == (3, 1), (sigma, word)


def test_straighten_bra_boundary_rules():
    # leading positive index reflects; the two families reflect differently
    assert straighten((3, 0), "sp", "bra")[0] == 0
    assert straighten((3, 0), "o", "bra") == (-1, P((2, 1)).with_declared(2))


def test_straighten_validates_arguments():
    with pytest.raises(ValueError):
        straighten((1,), "sp", "middle")
    with pytest.raises(ValueError):
        straighten((1,), "gl", "ket")


# --- the integer composition path behind the commutation suite ---


def test_compose_matches_apply_mode_twice():
    from spochar import fock

    for kind_out, kind_in in (("Y", "Y"), ("Y", "Ystar"), ("W", "Wstar"), ("Wstar", "W")):
        for k_out, k_in in ((-2, 1), (0, -1), (1, 2), (-1, -1)):
            for mu in ((), (1,), (2, 1), (1, 1, 1)):
                rows, den = fock.compose(kind_out, k_out, kind_in, k_in, mu)
                got = {fock.PARTS[i]: Fraction(v, den) for i, v in rows.items()}
                want = apply_mode(kind_out, k_out, apply_mode(kind_in, k_in, {mu: 1}))
                assert got == want, (kind_out, k_out, kind_in, k_in, mu)
