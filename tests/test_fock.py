"""Operator engine: Heisenberg action, vertex-operator modes, kets, pairings.

matrix_element doubles as the independent oracle for the determinant engine,
so the two are compared directly here on a small sample.
"""

import hashlib
from fractions import Fraction
from itertools import product

import pytest

from spochar import fock
from spochar.characters import skew
from spochar.fock import (
    MODE_KINDS,
    ZeroModeRequested,
    apply_mode,
    gamma_plus,
    heisenberg,
    ket,
    matrix_element,
    pairing,
    vacuum,
)
from spochar.partitions import Partition, enumerate_partitions, partitions_of, subpartitions
from spochar.ring import ONE, ZERO, LaurentPoly, xvar, zvar

P = Partition


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
    assert MODE_KINDS == ("Y", "Ystar", "W", "Wstar")


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _vector_line(label, vec):
    text = lambda c: c.text() if isinstance(c, LaurentPoly) else str(c)
    return f"{label}: " + " ".join(f"{nu}={text(vec[nu])}" for nu in sorted(vec))


# sha256 of the rows below, recorded before the annihilation exponential was
# rewritten as a Taylor shift
MODE_ROWS_SHA256 = "311f9853d3cc8bc46106aae1353aa70cd3b7ba6caa4260b638fe6911c20e8e5d"
GAMMA_PLUS_SHA256 = "278f60b2d3608e4a94005dfd66736f12d4c0874960bf0584eee31545621bafc7"


def test_mode_rows_are_pinned():
    lines = [
        _vector_line(f"{kind} {k} {mu}", apply_mode(kind, k, {mu: 1}))
        for kind in MODE_KINDS
        for k in range(-4, 5)
        for w in range(5)
        for mu in partitions_of(w)
    ]
    assert len(lines) == 432
    assert _digest(lines) == MODE_ROWS_SHA256


def test_gamma_plus_is_pinned():
    lines = [
        _vector_line(f"{parts} {fam} {n} {m}", gamma_plus(n, m, ket(P(parts), fam)))
        for parts in ((), (1,), (2, 1), (2, 2), (3, 1), (2, 1, 1))
        for fam in ("sp", "o")
        for n, m in ((1, 0), (0, 2), (1, 1), (2, 1))
    ]
    assert _digest(lines) == GAMMA_PLUS_SHA256


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
    # the ket of (2,) has denominator 2; at n = m = 0 every P_kappa but P_()
    # vanishes, yet the other kappa's scalars are not integral: the whole sum
    # is divided once, never kappa by kappa
    for fam in ("sp", "o"):
        assert pairing(P(()), P((2,)), fam) == ZERO
        assert pairing(P(()), P((1, 1)), fam) == ZERO
        assert any(Fraction(c).denominator > 1 for c in ket(P((2,)), fam).values())
        assert matrix_element(P((2,)), 0, 0, P((2,)), fam) == ONE
        assert matrix_element(P((1, 1)), 0, 0, P((2,)), fam) == ZERO


# --- half vertex operator and matrix elements ---


def test_gamma_plus_fixes_vacuum():
    assert gamma_plus(2, 1, vacuum()) == vacuum()


def test_gamma_plus_is_the_exponential_of_its_annihilators():
    # reference: sum_j (1/j!) D^j p_rho with D = sum_k p_k(x^{+-1}, z) a_k / k,
    # each a_k applied by `heisenberg`
    for n, m in ((1, 0), (0, 2), (1, 1), (2, 1)):
        def p(k):
            xs = [LaurentPoly.variable(xvar(i), e) for i in range(1, n + 1) for e in (k, -k)]
            return sum(xs + [LaurentPoly.variable(zvar(j), k) for j in range(1, m + 1)], ZERO)

        for w in range(6):
            for rho in partitions_of(w):
                want, term, j = {}, {rho: ONE}, 0
                while term:
                    for nu, f in term.items():  # the j-th term has j parts fewer
                        want[nu] = f
                    j += 1
                    nxt = {}
                    for k in range(1, w + 1):
                        for nu, f in heisenberg(term, k).items():
                            nxt[nu] = nxt.get(nu, ZERO) + f * p(k) * Fraction(1, k * j)
                    term = {nu: f for nu, f in nxt.items() if f}
                assert gamma_plus(n, m, {rho: 1}) == want, (n, m, rho)


def test_gamma_plus_strips_one_box():
    got = gamma_plus(1, 0, ket(P((1,)), "sp")).get((), 0)
    assert got.text() == "x1 + x1^-1"
    got = gamma_plus(1, 1, ket(P((1,)), "sp")).get((), 0)
    assert got.text() == "z1 + x1 + x1^-1"


def test_matrix_element_values():
    assert matrix_element(P(()), 1, 0, P((1,)), "sp").text() == "x1 + x1^-1"
    assert matrix_element(P((1,)).with_declared(1), 1, 0, P((2,)), "sp").text() == "x1 + x1^-1"
    assert matrix_element(P((2, 1)).with_declared(2), 1, 0, P((2, 1)), "sp") == ONE


def test_matrix_element_agrees_with_determinants():
    # the two engines must agree wherever both are defined
    shapes = [P(()), P((1,)), P((2,)), P((1, 1)), P((2, 1))]
    for fam in ("sp", "o"):
        for alpha in shapes:
            for beta in shapes:
                b = beta.with_declared(2)
                for n, m in ((1, 0), (1, 1), (0, 1)):
                    got = matrix_element(b, n, m, alpha, fam)
                    want = skew(fam, alpha, b, n, m)
                    assert got == want, (fam, alpha.parts, beta.parts, n, m)


# the rational contraction the integer one replaced, kept as an oracle: a
# Fraction ket from `apply_mode` applied inside-out, a Fraction bra by
# recursion on the word, and rational scalars per removed multiset kappa
PLAIN, STAR = {"sp": "Y", "o": "W"}, {"sp": "Ystar", "o": "Wstar"}


def _rational_ket(lam, fam):
    vec = vacuum()
    for part in reversed(lam.padded(lam.declared_len)):
        vec = apply_mode(PLAIN[fam], -part, vec)
    return vec


def _rational_bra(star, word, nu):
    if not word:
        return int(nu == ())
    row = apply_mode(star, -word[0], {nu: 1})
    return sum(f * _rational_bra(star, word[1:], rho) for rho, f in row.items())


def _rational_matrix_element(beta, n, m, alpha, fam):
    l = beta.declared_len
    scalars = {}
    for rho, f in _rational_ket(alpha.with_declared(l + n + m), fam).items():
        for kappa, rest, c in fock._splits(rho):
            s = f * c * _rational_bra(STAR[fam], beta.padded(l), rest)
            if s:
                scalars[kappa] = scalars.get(kappa, 0) + s
    out = ZERO
    for kappa, s in scalars.items():
        if s:
            out = out + fock._power_sum_product(n, m, kappa) * s
    return out


def test_ket_is_apply_mode_inside_out():
    for fam in ("sp", "o"):
        for lam in enumerate_partitions(4, 4):
            for k in range(lam.length, 5):
                want = _rational_ket(lam.with_declared(k), fam)
                assert ket(lam.with_declared(k), fam) == want, (fam, lam.parts, k)


def test_matrix_element_matches_rational_contraction():
    cases = 0
    for fam in ("sp", "o"):
        for alpha in enumerate_partitions(4, 4):
            for beta in subpartitions(alpha, 4):
                l = beta.length
                b = beta.with_declared(l)
                for n in range(5 - l):
                    for m in range(5 - l - n):
                        if alpha.length > l + n + m:
                            continue
                        want = _rational_matrix_element(b, n, m, alpha, fam)
                        got = matrix_element(b, n, m, alpha, fam)
                        assert got == want, (fam, alpha.parts, beta.parts, n, m)
                        cases += 1
    assert cases == 846


def test_matrix_element_matches_polynomial_path():
    # reference: Gamma_+ on the ket, then the star word on polynomial vectors
    for fam in ("sp", "o"):
        for alpha in (P((1,)), P((2, 1)), P((2, 2)), P((3, 1))):
            for beta in (P(()), P((1,)).with_declared(1), P((1,)).with_declared(2), P((2, 1))):
                for n, m in ((0, 0), (1, 0), (0, 2), (1, 1), (2, 1)):
                    l = beta.declared_len
                    if alpha.length > l + n + m:
                        continue
                    vec = gamma_plus(n, m, ket(alpha.with_declared(l + n + m), fam))
                    for b in beta.padded(l):
                        vec = apply_mode(STAR[fam], -b, vec)
                    want = vec.get((), 0)
                    got = matrix_element(beta, n, m, alpha, fam)
                    assert got == want, (fam, alpha.parts, beta.parts, n, m)


def test_vacuum_projection_past_variable_count():
    # the operator side still produces a value when the shape has more rows
    # than variables; the universal determinant at the shape's length matches it
    from spochar.characters import universal_det

    lam = P((1, 1))
    got = gamma_plus(0, 1, ket(lam, "sp")).get((), 0)
    assert got == universal_det("sp", lam.parts, 0, 1)
    assert got == LaurentPoly.constant(Fraction(-1))


def test_bras_are_not_padding_independent():
    # <0| and the length-2 zero bra see different components, unlike kets
    lam = P((1, 1))
    short = gamma_plus(0, 1, ket(lam, "sp")).get((), 0)
    long = matrix_element(P(()).with_declared(2), 0, 1, lam, "sp")
    assert short != long


# --- reflection identities behind the bra normal forms ---


def test_mode_reflections_under_dual_vacuum():
    vc = lambda vec: vec.get((), 0)
    for lam in enumerate_partitions(3, 4):
        v = ket(lam, "sp")
        for n in range(-3, 4):
            assert vc(apply_mode("Ystar", n, v)) == ZERO - vc(
                apply_mode("Ystar", -n + 2, v)
            )
            assert vc(apply_mode("Y", n, v)) == vc(apply_mode("Y", -n, v))
            assert vc(apply_mode("W", n, v)) == ZERO - vc(
                apply_mode("W", -n - 2, v)
            )
            assert vc(apply_mode("Wstar", n, v)) == vc(apply_mode("Wstar", -n, v))


# --- exchange relations of the creation modes ---


def test_mode_words_reduce_to_signed_kets():
    # X_{n_1} ... X_{n_L}|0> is sign * |mu> or 0 by the quadratic exchange
    # rules; mu = (3, 1, 0) words come from permuting the shifted parts
    cases = [
        ((-2, -1), "sp", 1, (2, 1)),
        ((0, -3), "sp", -1, (2, 1)),
        ((-1, -2), "sp", 0, ()),
        ((-1, 1), "sp", 0, ()),
        ((-1, 2, -4), "sp", 0, ()),
        ((1, -1, -2), "o", 0, ()),
        ((-3, -1, 0), "sp", 1, (3, 1)),
        ((0, -4, 0), "sp", -1, (3, 1)),
        ((2, -4, -2), "sp", 1, (3, 1)),
    ]
    for word, fam, sign, parts in cases:
        vec = vacuum()
        for n in reversed(word):
            vec = apply_mode("Y" if fam == "sp" else "W", n, vec)
        want = scaled(ket(P(parts), fam), sign) if sign else {}
        assert vec == want, (word, fam)


# --- an independent oracle for the mode rows ---

# (prefactor, creation sign, annihilation sign, target sign) of each kind's
# series in the fock module docstring, written out here so that the oracle
# reads no table of the module under test
SERIES = {
    "Y": (False, 1, -1, -1),
    "Ystar": (True, -1, 1, 1),
    "W": (True, 1, -1, -1),
    "Wstar": (False, -1, 1, 1),
}


def _exp(vec, generators, top=None):
    """sum_j D^j vec / j! with D = sum over (n, {power: c}) of c(w) * a_n, on
    vectors {(nu, power of w): coefficient}; terms above w^top are dropped,
    which is exact when D only raises the power."""
    out, term, j = dict(vec), vec, 0
    while term:
        j += 1
        nxt = {}
        for (nu, p), f in term.items():
            for n, wpoly in generators:
                for rho, g in heisenberg({nu: f}, n).items():
                    for q, c in wpoly.items():
                        if top is None or p + q <= top:
                            nxt[rho, p + q] = nxt.get((rho, p + q), 0) + g * c / j
        term = {key: f for key, f in nxt.items() if f}
        for key, f in term.items():
            out[key] = out.get(key, 0) + f
    return out


def _series_rows(kind, mu, top):
    """{t: [w^t] X(w) p_mu} for t <= top, X(w) the kind's series expanded
    term by term with `heisenberg` as the only operator."""
    pre, sc, sa, _ = SERIES[kind]
    weight = sum(mu)
    vec = _exp(
        {(mu, 0): Fraction(1)},
        [(n, {n: Fraction(sa, n), -n: Fraction(sa, n)}) for n in range(1, weight + 1)],
    )
    if pre:  # times (1 - w^2)
        shifted = {}
        for (nu, p), f in vec.items():
            for q, c in ((0, 1), (2, -1)):
                shifted[nu, p + q] = shifted.get((nu, p + q), 0) + c * f
        vec = shifted
    low = min((p for _, p in vec), default=top)
    vec = _exp(vec, [(-n, {n: Fraction(sc, n)}) for n in range(1, top - low + 1)], top)
    rows: dict = {}
    for (nu, p), f in vec.items():
        if f and p <= top:
            rows.setdefault(p, {})[nu] = f
    return rows


def test_mode_rows_match_the_series():
    # wider than the pinned k range, so W_k reads Y_{k+2} past its edge, and
    # Y*_k reads W_{-k} and with it Y_{2-k}
    top = 7
    for kind, (_, _, _, sign) in SERIES.items():
        for w in range(5):
            for mu in partitions_of(w):
                rows = _series_rows(kind, mu, top)
                for k in range(-top, top + 1):
                    got = apply_mode(kind, k, {mu: 1})
                    assert got == rows.get(sign * k, {}), (kind, k, mu)
                    # built, folded or conjugated: a row holds no zero entry
                    row = fock._mode_row_scaled(kind, k, mu)
                    assert all(c for _, c in row), (kind, k, mu)


@pytest.mark.parametrize(
    "act",
    [
        pytest.param(lambda: fock.compose("X", 1, "Y", 1, ()), id="X-Y"),
        pytest.param(lambda: fock.compose("Y", 1, "X", 1, ()), id="Y-X"),
        pytest.param(lambda: apply_mode("X", 1, vacuum()), id="apply_mode"),
    ],
)
def test_compose_rejects_an_unknown_kind(act):
    # Y_1 kills the vacuum, so with an unknown outer kind no outer row is read;
    # unchecked, an unknown kind would fall into a row branch and get a row
    with pytest.raises(ValueError, match="unknown mode kind 'X'"):
        act()


# --- the integer composition path behind the commutation suite ---


def _in_power_sums(vec):
    """An int Schur vector {lambda: c} as a power-sum vector."""
    return {rho: Fraction(n, fock._zfactor(rho)) for rho, n in fock.schur_to_power_sums(vec)}


def test_compose_matches_apply_mode_twice():
    # compose acts on s_mu in the Schur basis, apply_mode on its power sums
    pairs = (
        ("Y", "Y"), ("Y", "Ystar"), ("W", "Wstar"), ("Wstar", "W"),
        ("Ystar", "Ystar"), ("Ystar", "Y"), ("Wstar", "Wstar"),
    )
    for kind_out, kind_in in pairs:
        for k_out, k_in in ((-2, 1), (0, -1), (1, 2), (-1, -1)):
            for mu in ((), (1,), (2, 1), (1, 1, 1)):
                got = _in_power_sums(fock.compose(kind_out, k_out, kind_in, k_in, mu))
                s_mu = _in_power_sums({mu: 1})
                want = apply_mode(kind_out, k_out, apply_mode(kind_in, k_in, s_mu))
                assert got == want, (kind_out, k_out, kind_in, k_in, mu)


def test_compose_equals_the_sum_of_cached_outer_rows():
    # one loop for every kind: a starred outer row is cached like a plain one
    for kind_out, kind_in in product(MODE_KINDS, repeat=2):
        for k_out, k_in in product(range(-3, 4), repeat=2):
            for mu in (mu for w in range(4) for mu in partitions_of(w)):
                inner = dict(fock._mode_row_scaled(kind_in, k_in, mu))
                want = fock._linear(inner, lambda nu: fock._mode_row_scaled(kind_out, k_out, nu))
                got = fock.compose(kind_out, k_out, kind_in, k_in, mu)
                nonzero = {nu: c for nu, c in got.items() if c}
                assert nonzero == want, (kind_out, k_out, kind_in, k_in, mu)


# --- the change of basis at the public boundary ---


def test_character_table_is_orthonormal():
    # sum_rho chi^lam(rho) chi^mu(rho) / z_rho = delta_{lam, mu}
    for w in range(9):
        chi = {rho: dict(fock._p_in_schur(rho)) for rho in partitions_of(w)}
        for lam, mu in product(partitions_of(w), repeat=2):
            total = sum(
                Fraction(col.get(lam, 0) * col.get(mu, 0), fock._zfactor(rho))
                for rho, col in chi.items()
            )
            assert total == (lam == mu), (lam, mu)


def test_power_sums_to_schur_and_back():
    for w in range(9):
        for rho in partitions_of(w):
            assert _in_power_sums(dict(fock._p_in_schur(rho))) == {rho: 1}, rho
