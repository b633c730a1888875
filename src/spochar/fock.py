"""Truncated bosonic Fock-space engine, in the Schur basis.

A public vector is a dict mapping a power-sum index (a partition tuple, parts
descending) to an exact rational coefficient (int or Fraction).  Inside, the
modes act on Schur functions s_lambda with integer coefficients, and power
sums appear only at the public boundary (`apply_mode`, `ket`,
`matrix_element`).  The Heisenberg generators act by

    a_{-n} p_mu = p_{mu + part n},      a_n p_mu = n * m_n(mu) p_{mu - part n},

and four families of half vertex-operator modes are built from them.  The
symplectic mode Y_k is the w^{-k}-coefficient of

    Y(w) = exp(sum_n a_{-n}/n * w^n) * exp(-sum_n a_n/n * (w^n + w^{-n})).

On symmetric functions the creation half is multiplication by
H(w) = sum_r h_r w^r, and the annihilation half is E^perp(-w) E^perp(-1/w),
with e_a^perp the adjoint of multiplication by e_a.  By the Pieri rules
(Macdonald, ch. I) every step is a sum of Schur functions with coefficient
+-1, so Y_k s_mu is an integer vector with no denominator:

    Y_k s_mu = sum_{a,b} (-1)^(a+b) h_{b-a-k} e_a^perp e_b^perp s_mu,

that is, remove a vertical strip of size b, then one of size a, then add a
horizontal strip of size b - a - k (`_mode_row_scaled`).  The other three
kinds follow by two rules:

    W_k = Y_k - Y_{k+2},   X*_k = omega X_{-k} omega  (W* from Y, Y* from W).

The involution omega: a_n -> -a_n maps Y(w) onto the dual W*(w), whose mode
W*_k is its w^k-coefficient, and W(w) = (1 - w^2) Y(w) onto Y*(w).  On Schur
functions omega is a signed conjugation, omega s_lambda = (-1)^|lambda|
s_lambda', so X*_k s_mu = (-1)^|mu| omega X_{-k} s_mu'.  Every term of
X_{-k} s_mu' has weight |mu| + k - 2a for some a, so the sign
(-1)^(|mu| + |nu|) of each entry nu is the one constant (-1)^k.

The half-current Gamma_+(x, z) = exp(sum_n a_n/n * p_n(x^{+-1}, z)) is the
only place the character variables enter.  It is a Taylor shift of the power
sums (`_splits`), so `matrix_element` converts the integer Schur ket and bras
to power sums at the end, through one cached character table (`_p_in_schur`,
Murnaghan-Nakayama):

    p_rho = sum_lambda chi^lambda(rho) s_lambda,
    s_lambda = sum_rho chi^lambda(rho) p_rho / z_rho.

A mode row is the tuple of its nonzero (partition, int) entries, built from
the Pieri strips and cached per (kind, k, mu) (`_mode_row_scaled`).  Its
coefficients are Python ints, exact and unbounded, so a combination of rows
accumulated in a dict is zero exactly when every entry is 0.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, lcm

from .partitions import Partition, PartitionTooLong, partitions_of
from .ring import ONE, ZERO, LaurentPoly, dot, xvar, zvar

# Coefficients are int/Fraction; after gamma_plus they are LaurentPolys.  The
# operations below use only +, * and truthiness, so they accept either.
FockVector = dict[tuple[int, ...], int | Fraction | LaurentPoly]


class ZeroModeRequested(ValueError):
    """The Heisenberg index 0 is central and has no action here."""


MODE_KINDS = ("Y", "Ystar", "W", "Wstar")
_STAR_OF = {"sp": "Ystar", "o": "Wstar"}
_PLAIN_OF = {"sp": "Y", "o": "W"}
_OMEGA_OF = {"Wstar": "Y", "Ystar": "W"}  # X*_k = omega X_{-k} omega


def vacuum() -> FockVector:
    return {(): 1}


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


@lru_cache(maxsize=None)
def _splits(rho: tuple[int, ...]):
    """Every split of p_rho by the Taylor shift, as ((kappa, rest, int), ...).

    Since a_r acts as r * d/dp_r, exp(sum_r a_r c_r / r) = exp(sum_r c_r d/dp_r)
    is the shift p_r -> p_r + c_r, so

        exp(sum_r a_r c_r / r) p_rho = prod_{r in rho} (p_r + c_r)
            = sum_{kappa <= rho} prod_r C(m_r(rho), m_r(kappa)) p_{rho - kappa} c_kappa

    over sub-multisets kappa of rho's parts, with c_kappa = prod_{r in kappa} c_r.
    The coefficient counts the ways to pick kappa's copies of each part among
    rho's, so it is an integer.  Gamma_+ reads it with c_r = p_r(x^{+-1}, z).
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


# --- Schur functions: Pieri and Murnaghan-Nakayama rules ---


@lru_cache(maxsize=None)
def _conjugate(mu: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(p > i for p in mu) for i in range(mu[0])) if mu else ()


@lru_cache(maxsize=None)
def _vertical_strips(mu: tuple[int, ...]):
    """Every nu with mu/nu a vertical strip, as ((nu, |mu/nu|), ...): in each
    run of equal parts the strip takes the last j rows, 0 <= j <= its length."""
    runs = [(r, mu.count(r)) for r in sorted(set(mu), reverse=True)]
    out = []
    for picks in product(*(range(m + 1) for _, m in runs)):
        nu = ()
        for (r, m), j in zip(runs, picks):
            nu += (r,) * (m - j) + (r - 1,) * j
        out.append((tuple(p for p in nu if p), sum(picks)))
    return tuple(out)


@lru_cache(maxsize=None)
def _lowered(mu: tuple[int, ...]):
    """E^perp(-w) E^perp(-1/w) s_mu, Y(w)'s annihilation stage: one term
    (a - b, rho, coefficient) per power w^(a-b) and rho reached by removing
    a vertical b-strip and then a vertical a-strip, sorted by power and held
    as three parallel tuples, so that `bisect` reads a prefix.  The sign
    (-1)^(a+b) = (-1)^(|mu| - |rho|) is fixed by rho, so no two paths
    cancel."""
    terms: dict[tuple[int, tuple[int, ...]], int] = {}
    for nu, b in _vertical_strips(mu):
        for rho, a in _vertical_strips(nu):
            terms[a - b, rho] = terms.get((a - b, rho), 0) + (-1) ** (a + b)
    return tuple(zip(*((p, rho, c) for (p, rho), c in sorted(terms.items()))))


@lru_cache(maxsize=None)
def _pieri_block(rho: tuple[int, ...], r: int) -> tuple[tuple[int, ...], ...]:
    """h_r s_rho, every coefficient 1: each lambda with lambda/rho a
    horizontal r-strip.  The first row grows freely, row i by at most
    rho_{i-1} - rho_i, and one new row by at most the last part."""
    padded = rho + (0,)
    grown = [((), r)]  # (rows so far, boxes left)
    for i, p in enumerate(padded):
        cap = padded[i - 1] - p if i else r
        grown = [
            (lam + (p + x,), left - x) for lam, left in grown for x in range(min(cap, left) + 1)
        ]
    return tuple(tuple(p for p in lam if p) for lam, left in grown if not left)


@lru_cache(maxsize=None)
def _border_strips(mu: tuple[int, ...], r: int):
    """p_r s_mu as ((lambda, sign), ...): every lambda with lambda/mu a border
    strip of size r, signed (-1)^(its rows - 1).  On the beta-numbers
    mu_i + L - i (L = len(mu) + r rows) a border strip moves one bead up r
    places onto a free one, and its rows less one are the beads it passes:
    the rows from the bead's new place down to its old one each move up one
    place and gain a box."""
    padded = mu + (0,) * r
    L = len(padded)
    beta = [p + L - 1 - i for i, p in enumerate(padded)]  # descending
    taken = set(beta)
    out = []
    top = 0  # the beads above b + r, a prefix since beta descends
    for i, b in enumerate(beta):
        if b + r in taken:
            continue
        while beta[top] > b + r:
            top += 1
        lam = (padded[:top] + (b + r - (L - 1 - top),)
               + tuple(p + 1 for p in padded[top:i]) + padded[i + 1 :])
        out.append((tuple(p for p in lam if p), -1 if (i - top) % 2 else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _p_in_schur(rho: tuple[int, ...]):
    """p_rho = sum_lambda chi^lambda(rho) s_lambda as ((lambda, chi), ...),
    nonzero chi only: p_rho = p_{rho_1} p_{rho_2, ...}, and p_r adds border
    strips (Murnaghan-Nakayama).  Read as columns, this is the character
    table, and s_lambda = sum_rho chi^lambda(rho) p_rho / z_rho."""
    if not rho:
        return (((), 1),)
    out: dict[tuple[int, ...], int] = {}
    for mu, c in _p_in_schur(rho[1:]):
        for lam, sign in _border_strips(mu, rho[0]):
            out[lam] = out.get(lam, 0) + sign * c
    return tuple((lam, c) for lam, c in out.items() if c)


def schur_to_power_sums(vec: dict[tuple[int, ...], int]) -> list[tuple[tuple[int, ...], int]]:
    """sum_lambda c_lambda s_lambda = sum_rho (n_rho / z_rho) p_rho for an int
    Schur vector: [(rho, n_rho), ...], nonzero n_rho only, by weight."""
    out = []
    for w in sorted({sum(lam) for lam in vec}):
        for rho in partitions_of(w):
            n = sum(chi * vec.get(lam, 0) for lam, chi in _p_in_schur(rho))
            if n:
                out.append((rho, n))
    return out


# --- mode rows ---


@lru_cache(maxsize=None)
def _mode_row_scaled(kind: str, k: int, mu: tuple[int, ...]):
    """X_k s_mu as its nonzero entries ((nu, int), ...).

    A W*, W or Y* row derives from cached rows by the module docstring's two
    rules; the starred rows conjugate every entry of the plain row at -k on
    mu' and sign it by (-1)^k.  A Y row reads the prefix of `_lowered(mu)`
    with w-power a - b <= -k and adds the horizontal strips of h_{b-a-k} of
    each of its terms.
    """
    if kind in _OMEGA_OF:
        sign = -1 if k % 2 else 1
        row = _mode_row_scaled(_OMEGA_OF[kind], -k, _conjugate(mu))
        return tuple((_conjugate(nu), sign * c) for nu, c in row)
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    if kind == "W":  # W_k = Y_k - Y_{k+2}
        out.update(_mode_row_scaled("Y", k, mu))
        for nu, c in _mode_row_scaled("Y", k + 2, mu):
            out[nu] = get(nu, 0) - c
    else:
        powers, rests, coeffs = _lowered(mu)
        for p, rho, c in zip(powers[: bisect_right(powers, -k)], rests, coeffs):
            for lam in _pieri_block(rho, -k - p):
                out[lam] = get(lam, 0) + c
    return tuple((nu, c) for nu, c in out.items() if c)


_KIND_SET = frozenset(MODE_KINDS)


def _check_kinds(*kinds: str) -> None:
    if not _KIND_SET.issuperset(kinds):
        unknown = [kind for kind in kinds if kind not in _KIND_SET]
        raise ValueError(f"unknown mode kind {unknown[0]!r}")


def apply_mode(kind: str, k: int, vec: FockVector) -> FockVector:
    """Apply the mode X_k of the given kind to a power-sum vector, exactly."""
    _check_kinds(kind)

    def row(rho):
        out: dict[tuple[int, ...], int] = {}
        for lam, chi in _p_in_schur(rho):
            for nu, c in _mode_row_scaled(kind, k, lam):
                out[nu] = out.get(nu, 0) + chi * c
        return [(sigma, Fraction(n, _zfactor(sigma))) for sigma, n in schur_to_power_sums(out)]

    return _linear(vec, row)


def compose(kind_out: str, k_out: int, kind_in: str, k_in: int, mu: tuple[int, ...]):
    """X_out X_in s_mu as a dict {nu: int}, summed over the cached outer
    rows of the inner row's entries; an entry may be 0 where terms cancel."""
    _check_kinds(kind_out, kind_in)  # first: an empty inner row reads no outer row
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    for nu, q in _mode_row_scaled(kind_in, k_in, mu):
        for lam, c in _mode_row_scaled(kind_out, k_out, nu):
            out[lam] = get(lam, 0) + q * c
    return out


@lru_cache(maxsize=None)
def _ket_cached(kind: str, parts: tuple[int, ...]):
    """Creation modes applied inside-out to the vacuum as an int Schur
    vector, then converted to power sums over one denominator:
    (((rho, int), ...), den)."""
    vec = vacuum()
    for part in reversed(parts):
        vec = _linear(vec, lambda mu: _mode_row_scaled(kind, -part, mu))
    terms = schur_to_power_sums(vec)
    den = lcm(*(_zfactor(rho) for rho, _ in terms))
    return tuple((rho, n * (den // _zfactor(rho))) for rho, n in terms), den


def ket(lam: Partition, family: str) -> FockVector:
    """The highest-weight vector for lam: creation modes applied inside-out.

    The declared length of lam fixes the word length, so trailing zero parts
    contribute index-0 modes (which fix the vacuum but matter mid-word).
    """
    entries, den = _ket_cached(_PLAIN_OF[family], lam.padded(lam.declared_len))
    return {rho: Fraction(v, den) for rho, v in entries}


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
def _bra_on_basis(star: str, word: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """<0| X*_{-b_L} ... X*_{-b_1} s_nu for word = (b_1, ..., b_L).

    Recursing on the word's tail shares every suffix between bras."""
    if not word:
        return int(nu == ())
    entries = _mode_row_scaled(star, -word[0], nu)
    return sum(v * _bra_on_basis(star, word[1:], rho) for rho, v in entries)


@lru_cache(maxsize=None)
def _bra_on_power_sum(star: str, word: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """The same bra on p_rho = sum_lambda chi^lambda(rho) s_lambda."""
    return sum(chi * _bra_on_basis(star, word, lam) for lam, chi in _p_in_schur(rho))


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
    entries, den = _ket_cached(_PLAIN_OF[family], alpha.padded(l + n + m))
    # contract the int scalar of each removed multiset kappa over the ket's
    # denominator, scale-add each distinct P_kappa once, and divide the whole
    # polynomial once: one kappa's scalar need not be integral where the sum is
    scalars: dict[tuple[int, ...], int] = {}
    for rho, f in entries:
        for kappa, rest, c in _splits(rho):
            b = _bra_on_power_sum(star, word, rest)
            if b:
                scalars[kappa] = scalars.get(kappa, 0) + f * c * b
    out = dot(
        (_power_sum_product(n, m, kappa), LaurentPoly.constant(s))
        for kappa, s in scalars.items()
    )
    exact = ((key, c, *divmod(c, den)) for key, c in out._terms.items())
    return LaurentPoly({key: Fraction(c, den) if r else q for key, c, q, r in exact}, out._bound)


def pairing(mu: Partition, lam: Partition, family: str) -> LaurentPoly:
    """<mu|lam> without any current insertion; delta_{mu,lam} when all is well."""
    length = max(mu.declared_len, lam.declared_len, mu.length, lam.length)
    return matrix_element(mu.with_declared(length), 0, 0, lam, family)
