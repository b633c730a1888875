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
(-1)^(|mu| + |nu|) of each slot nu is the one constant (-1)^k.

The half-current Gamma_+(x, z) = exp(sum_n a_n/n * p_n(x^{+-1}, z)) is the
only place the character variables enter.  It is a Taylor shift of the power
sums (`_splits`), so `matrix_element` converts the integer Schur ket and bras
to power sums at the end, through one cached character table (`_p_in_schur`,
Murnaghan-Nakayama):

    p_rho = sum_lambda chi^lambda(rho) s_lambda,
    s_lambda = sum_rho chi^lambda(rho) p_rho / z_rho.

Packed rows.  Basis vectors are numbered by weight: `pid(nu)` is the number
of partitions of weight below |nu| plus the rank of nu in `partitions_of(|nu|)`,
and `PARTS` maps an id back.  An integer vector with coefficient c_i on id i
is packed as

    N = sum_i c_i * 2^(B*i),    B = SLOT_BITS,

so sum_k f_k N_k packs sum_k f_k v_k exactly, by linearity.  Every packed
value carries an integer bound beta >= max_i |c_i|: a Pieri block's is 1,
a combination sum_k f_k N_k gets sum_k |f_k| beta_k, which bounds each of its
slots by the triangle inequality, and a sum of values on disjoint slot ranges
(a row's weights) gets the largest of their bounds.  While beta < 2^(B-1) the
packing is injective: N + sum_i 2^(B-1) * 2^(B*i) has the base-2^B digits
c_i + 2^(B-1), all in [1, 2^B - 1], so no digit carries into the next, the
c_i can be read back (`unpack`), and N == 0 exactly when every c_i is 0.
`certify` checks the bound of every packed value and raises `SlotOverflow`
once it reaches 2^(B-1), so no verdict is ever read from an integer that
could hide a nonzero slot.  Nothing is modular or sampled.  One slot width
serves every grid the project runs: the largest bound in the commutation
suite is 11 bits at its acceptance grid and 14 bits at weight 9 with
degree_cap 9.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, lcm

from .partitions import Partition, PartitionTooLong, partitions_of
from .ring import ONE, ZERO, LaurentPoly, SlotOverflow, dot, xvar, zvar

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


SLOT_BITS = 16  # bits per packed slot, a multiple of 8 (`unpack` reads bytes)

# Basis ids by weight: all partitions of weight 0, then of weight 1, ..., each
# weight in `partitions_of` order, so a row of low weight packs into a short
# int.  The table grows a whole weight at a time and `clear_caches` empties it.
_PID: dict[tuple[int, ...], int] = {}
PARTS: list[tuple[int, ...]] = []


def pid(nu: tuple[int, ...]) -> int:
    """The id of a partition tuple; PARTS maps it back."""
    i = _PID.get(nu)
    if i is None:
        for w in range(sum(PARTS[-1]) + 1 if PARTS else 0, sum(nu) + 1):
            for p in partitions_of(w):
                _PID[p] = len(PARTS)
                PARTS.append(p)
        i = _PID[nu]
    return i


def certify(bound: int) -> int:
    """Return `bound`, or raise SlotOverflow where packing stops being injective."""
    if bound >> (SLOT_BITS - 1):
        raise SlotOverflow(
            f"packed slot bound of {bound.bit_length()} bits reaches the "
            f"{SLOT_BITS}-bit slot width"
        )
    return bound


def pack(entries) -> int:
    """The packed int of ((id, coefficient), ...), distinct ids, each
    |coefficient| < 2^(SLOT_BITS-1)."""
    return sum(c << (SLOT_BITS * i) for i, c in entries)


def combine(terms) -> tuple[int, int]:
    """sum f * value over (f, value, bound) triples, with its certified bound."""
    value = bound = 0
    for f, v, b in terms:
        value += f * v
        bound += abs(f) * b
    return value, certify(bound)


def unpack(value: int) -> list[tuple[int, int]]:
    """The nonzero slots of a packed int whose bound is certified, as
    [(id, coefficient), ...] by ascending id; see the module docstring."""
    if not value:
        return []
    width, half = SLOT_BITS // 8, 1 << (SLOT_BITS - 1)
    zero = half.to_bytes(width, "little")  # the digit of a 0 slot once biased
    slots = abs(value).bit_length() // SLOT_BITS + 1
    data = (value + int.from_bytes(zero * slots, "little")).to_bytes(slots * width, "little")
    out = []
    for i in range(slots):
        digit = data[i * width : (i + 1) * width]
        if digit != zero:
            out.append((i, int.from_bytes(digit, "little") - half))
    return out


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


def _horizontal_strips(rho: tuple[int, ...], r: int):
    """Every lambda with lambda/rho a horizontal r-strip: the first row grows
    freely, row i by at most rho_{i-1} - rho_i, and one new row by at most
    the last part."""
    padded = rho + (0,)
    grown = [((), r)]  # (rows so far, boxes left)
    for i, p in enumerate(padded):
        cap = padded[i - 1] - p if i else r
        grown = [
            (lam + (p + x,), left - x) for lam, left in grown for x in range(min(cap, left) + 1)
        ]
    return [tuple(p for p in lam if p) for lam, left in grown if not left]


@lru_cache(maxsize=None)
def _pieri_block(rho: tuple[int, ...], r: int) -> tuple[int, int]:
    """h_r s_rho, every coefficient 1, packed from the first id of its
    weight: (value, that id)."""
    w = sum(rho) + r
    base = pid((w,) if w else ())  # (w,) comes first in partitions_of(w)
    return pack((pid(lam) - base, 1) for lam in _horizontal_strips(rho, r)), base


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
def _mode_row_scaled(kind: str, k: int, mu: tuple[int, ...]) -> tuple[int, int]:
    """X_k s_mu as a packed integer row (value, bound).

    A W*, W or Y* row derives from cached rows by the module docstring's two
    rules; the starred rows conjugate every slot of the plain row at -k on
    mu' and sign it by (-1)^k.  A Y row reads the prefix of `_lowered(mu)`
    with w-power a - b <= -k, adds the horizontal strips of h_{b-a-k} to each
    of its terms, sums the blocks per weight as short ints and shifts each
    sum into place once.  Weights occupy disjoint slots, so the row's bound
    is the largest per-weight bound.
    """
    if kind in _OMEGA_OF:
        value, bound = _mode_row_scaled(_OMEGA_OF[kind], -k, _conjugate(mu))
        sign = -1 if k % 2 else 1
        return pack((pid(_conjugate(PARTS[i])), sign * c) for i, c in unpack(value)), bound
    if kind == "W":  # W_k = Y_k - Y_{k+2}
        (v1, b1), (v2, b2) = _mode_row_scaled("Y", k, mu), _mode_row_scaled("Y", k + 2, mu)
        return combine(((1, v1, b1), (-1, v2, b2)))
    powers, rests, coeffs = _lowered(mu)
    graded: dict[int, list] = {}
    for p, rho, c in zip(powers[: bisect_right(powers, -k)], rests, coeffs):
        value, base = _pieri_block(rho, -k - p)
        graded.setdefault(base, []).append((c, value, 1))
    sums = [(base, *combine(ts)) for base, ts in graded.items()]
    value = sum(v << (SLOT_BITS * base) for base, v, _ in sums)
    return value, max((b for *_, b in sums), default=0)


@lru_cache(maxsize=None)
def _row_entries(kind: str, k: int, mu: tuple[int, ...]):
    """X_k s_mu unpacked as ((nu, int), ...), for the readers that go through
    a row entry by entry: inner rows of `compose`, kets, bras."""
    return tuple((PARTS[i], v) for i, v in unpack(_mode_row_scaled(kind, k, mu)[0]))


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
            for nu, c in _row_entries(kind, k, lam):
                out[nu] = out.get(nu, 0) + chi * c
        return [(sigma, Fraction(n, _zfactor(sigma))) for sigma, n in schur_to_power_sums(out)]

    return _linear(vec, row)


def compose(kind_out: str, k_out: int, kind_in: str, k_in: int, mu: tuple[int, ...]):
    """X_out X_in s_mu as a packed row (value, bound): the inner row is
    unpacked, and the cached outer rows are summed as packed ints."""
    _check_kinds(kind_out, kind_in)  # first: an empty inner row reads no outer row
    value = bound = 0
    for nu, q in _row_entries(kind_in, k_in, mu):
        v, b = _mode_row_scaled(kind_out, k_out, nu)
        value += q * v
        bound += abs(q) * b
    return value, certify(bound)


@lru_cache(maxsize=None)
def _ket_cached(kind: str, parts: tuple[int, ...]):
    """Creation modes applied inside-out to the vacuum as an int Schur
    vector, then converted to power sums over one denominator:
    (((rho, int), ...), den)."""
    vec = vacuum()
    for part in reversed(parts):
        vec = _linear(vec, lambda mu: _row_entries(kind, -part, mu))
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
    entries = _row_entries(star, -word[0], nu)
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
