"""Truncated bosonic Fock-space engine.

A vector is a dict mapping a power-sum index (a partition tuple, parts
descending) to an exact rational coefficient (int or Fraction).  The
Heisenberg generators act by

    a_{-n} p_mu = p_{mu + part n},      a_n p_mu = n * m_n(mu) p_{mu - part n},

and four families of half vertex-operator modes are built from them.  A mode
X_k is the w^{target}-coefficient of

    X(w) = pre(w) * exp(sc * sum_n a_{-n}/n * w^n)
                  * exp(sa * sum_n a_n/n * (w^n + w^{-n}))

where pre(w) is 1 or (1 - w^2) and target is +-k, per the table below.  The
half-current Gamma_+(x, z) = exp(sum_n a_n/n * p_n(x^{+-1}, z)) is the only
place the character variables enter: it maps a rational ket to
Laurent-polynomial coefficients, and a matrix element <beta|Gamma_+|alpha>
contracts those against rational bra coefficients.

Both annihilation exponentials are one Taylor shift p_r -> p_r + c_r, read
from the cached split table `_splits`; the mode action on a basis vector is
cached once per (kind, k, basis) triple as integers over one denominator,
keyed by interned partition ids (`pid`), so large verification grids share
almost all of the work.  Everything is exact and nothing is truncated: the
shift is a finite sum over sub-multisets, and extracting one power of w
bounds the weight the creation exponential adds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, lcm
from typing import NamedTuple

from .partitions import Partition, PartitionTooLong, partitions_of
from .ring import ONE, ZERO, LaurentPoly, xvar, zvar

# Coefficients are int/Fraction; after gamma_plus they are LaurentPolys.  The
# operations below use only +, * and truthiness, so they accept either.
FockVector = dict[tuple[int, ...], int | Fraction | LaurentPoly]

WPoly = dict[int, int]  # an integer Laurent polynomial in w: {power: coeff}


class ZeroModeRequested(ValueError):
    """The Heisenberg index 0 is central and has no action here."""


class ModeShape(NamedTuple):
    prefactor: bool  # multiply the series by (1 - w^2)
    creation_sign: int
    annihilation_sign: int
    target_sign: int  # mode k extracts the w^{target_sign * k} coefficient


MODE_SHAPES: dict[str, ModeShape] = {
    "Y": ModeShape(False, +1, -1, -1),
    "Ystar": ModeShape(True, -1, +1, +1),
    "W": ModeShape(True, +1, -1, -1),
    "Wstar": ModeShape(False, -1, +1, +1),
}

MODE_KINDS = tuple(MODE_SHAPES)

_STAR_OF = {"sp": "Ystar", "o": "Wstar"}
_PLAIN_OF = {"sp": "Y", "o": "W"}


def vacuum() -> FockVector:
    return {(): 1}


# Interned partition ids: mode rows are keyed by them, so compositions
# accumulate plain ints in id-keyed dicts.
_PID: dict[tuple[int, ...], int] = {}
PARTS: list[tuple[int, ...]] = []


def pid(nu: tuple[int, ...]) -> int:
    """The interned id of a partition tuple; PARTS maps it back."""
    if nu not in _PID:
        _PID[nu] = len(PARTS)
        PARTS.append(nu)
    return _PID[nu]


def _insert_part(mu: tuple[int, ...], n: int) -> tuple[int, ...]:
    out = list(mu)
    out.append(n)
    out.sort(reverse=True)
    return tuple(out)


def _remove_part(mu: tuple[int, ...], n: int) -> tuple[int, ...]:
    out = list(mu)
    out.remove(n)
    return tuple(out)


def _linear(vec: FockVector, row) -> FockVector:
    """Extend a map on basis vectors, row(mu) -> ((nu, coeff), ...), linearly."""
    out: FockVector = {}
    for mu, f in vec.items():
        for nu, g in row(mu):
            cur = out.get(nu, 0) + f * g
            if cur:
                out[nu] = cur
            else:
                out.pop(nu, None)
    return out


def heisenberg(vec: FockVector, n: int) -> FockVector:
    """Apply a_n (n > 0 annihilates, n < 0 creates part |n|)."""
    if n == 0:
        raise ZeroModeRequested("a_0 acts as zero here; request a nonzero index")
    if n < 0:
        return _linear(vec, lambda mu: [(_insert_part(mu, -n), 1)])
    return _linear(
        vec, lambda mu: [(_remove_part(mu, n), n * mu.count(n))] if n in mu else []
    )


@lru_cache(maxsize=None)
def _zfactor(nu: tuple[int, ...]) -> int:
    z = 1
    for n in set(nu):
        m = nu.count(n)
        z *= n**m * factorial(m)
    return z


def _conv(a: WPoly, b: WPoly) -> WPoly:
    out: WPoly = {}
    for p, q in a.items():
        for r, s in b.items():
            key = p + r
            val = out.get(key, 0) + q * s
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


@lru_cache(maxsize=None)
def _splits(rho: tuple[int, ...]):
    """Every split of p_rho by the Taylor shift, as ((kappa, rest, int), ...).

    Since a_r acts as r * d/dp_r, exp(sum_r a_r c_r / r) = exp(sum_r c_r d/dp_r)
    is the shift p_r -> p_r + c_r, so

        exp(sum_r a_r c_r / r) p_rho = prod_{r in rho} (p_r + c_r)
            = sum_{kappa <= rho} prod_r C(m_r(rho), m_r(kappa)) p_{rho - kappa} c_kappa

    over sub-multisets kappa of rho's parts, with c_kappa = prod_{r in kappa} c_r.
    The coefficient counts the ways to pick kappa's copies of each part among
    rho's, so it is an integer: no 1/j! survives the expansion.  Both the
    modes (c_r = +-(w^r + w^-r)) and Gamma_+ (c_r = p_r(x^{+-1}, z)) read it.
    """
    mults = [(r, rho.count(r)) for r in sorted(set(rho), reverse=True)]
    out = []
    for picks in product(*(range(m + 1) for _, m in mults)):
        kappa, rest, c = (), (), 1
        for (r, m), j in zip(mults, picks):
            kappa += (r,) * j
            rest += (r,) * (m - j)
            c *= comb(m, j)
        out.append((kappa, rest, c))
    return tuple(out)


@lru_cache(maxsize=None)
def _annihilation_wpoly(kind: str, kappa: tuple[int, ...]):
    """pre(w) * prod_{r in kappa} sa * (w^r + w^-r), as ((power, int), ...)."""
    shape = MODE_SHAPES[kind]
    sa = shape.annihilation_sign
    wp: WPoly = {0: 1, 2: -1} if shape.prefactor else {0: 1}
    for r in kappa:
        wp = _conv(wp, {r: sa, -r: sa})
    return tuple(sorted(wp.items()))


@lru_cache(maxsize=None)
def _zlcm(c: int) -> int:
    """lcm of the symmetrization factors over all partitions of c."""
    return lcm(*map(_zfactor, partitions_of(c)))


@lru_cache(maxsize=None)
def _mode_row_scaled(kind: str, k: int, mu: tuple[int, ...]):
    """X_k p_mu as (((pid(nu), int), ...), denominator).

    The annihilation stage is integral (see `_splits`), so the one shared
    denominator comes from the creation exponential alone, and the large
    verification loops stay out of Fraction arithmetic.
    """
    shape = MODE_SHAPES[kind]
    target = shape.target_sign * k
    # (rest, coefficient, w-degree left for the creation exponential)
    terms = [
        (rest, c * q, target - p)
        for kappa, rest, c in _splits(mu)
        for p, q in _annihilation_wpoly(kind, kappa)
        if p <= target
    ]
    zl = lcm(*(_zlcm(deg) for _, _, deg in terms))
    acc: dict[tuple[int, ...], int] = {}
    for rest, q, deg in terms:
        for parts in partitions_of(deg):
            coeff = q * (zl // _zfactor(parts))
            if shape.creation_sign < 0 and len(parts) % 2:
                coeff = -coeff
            key = tuple(sorted(rest + parts, reverse=True))
            val = acc.get(key, 0) + coeff
            if val:
                acc[key] = val
            elif key in acc:
                del acc[key]
    return tuple((pid(nu), v) for nu, v in acc.items()), zl


def apply_mode(kind: str, k: int, vec: FockVector) -> FockVector:
    """Apply the mode X_k of the given kind to a vector, exactly."""
    if kind not in MODE_SHAPES:
        raise ValueError(f"unknown mode kind {kind!r}")

    def row(mu):
        entries, den = _mode_row_scaled(kind, k, mu)
        return [(PARTS[i], Fraction(v, den)) for i, v in entries]

    return _linear(vec, row)


def compose(kind_out: str, k_out: int, kind_in: str, k_in: int, mu: tuple[int, ...]):
    """X_out X_in p_mu as ({pid(nu): int}, denominator), in integers only."""
    inner, d_in = _mode_row_scaled(kind_in, k_in, mu)
    pieces = [(qi, *_mode_row_scaled(kind_out, k_out, PARTS[i])) for i, qi in inner]
    den = lcm(*(s for _, _, s in pieces))
    out: dict[int, int] = {}
    for qi, entries, s in pieces:
        f = qi * (den // s)
        for rid, ri in entries:
            val = out.get(rid, 0) + f * ri
            if val:
                out[rid] = val
            elif rid in out:
                del out[rid]
    return out, d_in * den


@lru_cache(maxsize=None)
def _ket_cached(kind: str, parts: tuple[int, ...]):
    vec = vacuum()
    for part in reversed(parts):
        vec = apply_mode(kind, -part, vec)
    return tuple(vec.items())


def ket(lam: Partition, family: str) -> FockVector:
    """The highest-weight vector for lam: creation modes applied inside-out.

    The declared length of lam fixes the word length, so trailing zero parts
    contribute index-0 modes (which fix the vacuum but matter mid-word).
    """
    kind = _PLAIN_OF[family]
    return dict(_ket_cached(kind, lam.padded(lam.declared_len)))


@lru_cache(maxsize=None)
def _power_sum_value(n: int, m: int, k: int) -> LaurentPoly:
    # p_k evaluated on x_1..x_n paired with inverses plus z_1..z_m
    acc = ZERO
    for i in range(1, n + 1):
        acc = acc + LaurentPoly.variable(xvar(i), k) + LaurentPoly.variable(xvar(i), -k)
    for j in range(1, m + 1):
        acc = acc + LaurentPoly.variable(zvar(j), k)
    return acc


@lru_cache(maxsize=None)
def _power_sum_product(n: int, m: int, kappa: tuple[int, ...]) -> LaurentPoly:
    """P_kappa = prod_{r in kappa} p_r(x^{+-1}, z): Gamma_+'s c_kappa in `_splits`."""
    if not kappa:
        return ONE
    return _power_sum_product(n, m, kappa[:-1]) * _power_sum_value(n, m, kappa[-1])


def gamma_plus(n: int, m: int, vec: FockVector) -> FockVector:
    """Apply the annihilation half-current evaluated on the character alphabet."""
    return _linear(vec, lambda rho: [
        (rest, _power_sum_product(n, m, kappa) * c) for kappa, rest, c in _splits(rho)
    ])


@lru_cache(maxsize=None)
def _bra_on_basis(star: str, word: tuple[int, ...], nu: tuple[int, ...]):
    """<0| X*_{-b_L} ... X*_{-b_1} p_nu for word = (b_1, ..., b_L), a rational.

    Recursing on the word's tail shares every suffix between bras."""
    if not word:
        return int(nu == ())
    entries, den = _mode_row_scaled(star, -word[0], nu)
    total = sum(v * _bra_on_basis(star, word[1:], PARTS[i]) for i, v in entries)
    return Fraction(total, den)


def matrix_element(
    beta: Partition, n: int, m: int, alpha: Partition, family: str
) -> LaurentPoly:
    """<beta| Gamma_+(x,z) |alpha> with the bra word read off beta's declared
    length; equals the skew character when alpha fits in l+n+m rows."""
    if family not in _STAR_OF:
        raise ValueError(f"unknown family {family!r}")
    if n < 0 or m < 0:
        raise ValueError("variable counts must be >= 0")
    l = beta.declared_len
    if alpha.length > l + n + m:
        raise PartitionTooLong(f"{alpha.parts} needs more than {l + n + m} rows")
    star, word = _STAR_OF[family], beta.padded(l)
    # contract the rational scalars per removed multiset kappa first, then
    # scale-add each distinct P_kappa once
    scalars: dict[tuple[int, ...], Fraction] = {}
    for rho, f in ket(alpha.with_declared(l + n + m), family).items():
        for kappa, rest, c in _splits(rho):
            s = f * c * _bra_on_basis(star, word, rest)
            if s:
                scalars[kappa] = scalars.get(kappa, 0) + s
    out = ZERO
    for kappa, s in scalars.items():
        if s:
            out = out + _power_sum_product(n, m, kappa) * s
    return out


def pairing(mu: Partition, lam: Partition, family: str) -> LaurentPoly:
    """<mu|lam> without any current insertion; delta_{mu,lam} when all is well."""
    length = max(mu.declared_len, lam.declared_len, mu.length, lam.length)
    return matrix_element(mu.with_declared(length), 0, 0, lam, family)
