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
from the cached split table `_splits`.  The mode action on a basis vector is
cached once per (kind, k, basis) triple as a packed row: integers over one
denominator, held in a single Python int (Kronecker substitution on the
coefficient vector), so a linear combination of rows is one big-integer
multiply-add per row, done in C.

Packed rows.  Basis vectors are numbered by weight: `pid(nu)` is the number
of partitions of weight below |nu| plus the rank of nu in `partitions_of(|nu|)`,
and `PARTS` maps an id back.  An integer vector with coefficient c_i on id i
is packed as

    N = sum_i c_i * 2^(B*i),    B = SLOT_BITS,

so sum_k f_k N_k packs sum_k f_k v_k exactly, by linearity.  Every packed
value carries an integer bound beta >= max_i |c_i|: a creation block's is its
largest coefficient, a combination sum_k f_k N_k gets sum_k |f_k| beta_k,
which bounds each of its slots by the triangle inequality, and a sum of values
on disjoint slot ranges (a row's weights, see `_mode_row_scaled`) gets the
largest of their bounds.  While beta < 2^(B-1) the packing is injective:
N + sum_i 2^(B-1) * 2^(B*i) has the base-2^B digits c_i + 2^(B-1), all in
[1, 2^B - 1], so no digit carries into the next, the c_i can be read back
(`unpack`), and N == 0 exactly when every c_i is 0.  `certify` checks the
bound of every packed value and raises `SlotOverflow` once it reaches
2^(B-1), so no verdict is ever read from an integer that could hide a nonzero
slot.  Nothing is modular or sampled.

Everything is exact and nothing is truncated: the shift is a finite sum over
sub-multisets, and extracting one power of w bounds the weight the creation
exponential adds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, lcm
from typing import NamedTuple

from .partitions import Partition, PartitionTooLong, partitions_of
from .ring import ONE, ZERO, LaurentPoly, SlotOverflow, xvar, zvar

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

_STAR_OF = {"sp": "Ystar", "o": "Wstar"}
_PLAIN_OF = {"sp": "Y", "o": "W"}


def vacuum() -> FockVector:
    return {(): 1}


SLOT_BITS = 128  # bits per packed slot; a multiple of 8 (`unpack` reads bytes)

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


def _zero_digit() -> bytes:
    # the base-2^B digit of a 0 slot once 2^(B-1) is added to every slot
    return (1 << (SLOT_BITS - 1)).to_bytes(SLOT_BITS // 8, "little")


def pack(entries) -> int:
    """The packed int of ((id, coefficient), ...), distinct ids, each
    |coefficient| < 2^(SLOT_BITS-1); written as digits, then unbiased."""
    zero = _zero_digit()
    width, half = len(zero), 1 << (SLOT_BITS - 1)
    slots = max((i for i, _ in entries), default=-1) + 1
    data = bytearray(zero * slots)
    for i, c in entries:
        data[i * width : (i + 1) * width] = (c + half).to_bytes(width, "little")
    return int.from_bytes(data, "little") - int.from_bytes(zero * slots, "little")


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
    zero = _zero_digit()
    width, half = len(zero), 1 << (SLOT_BITS - 1)
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
def _creation_block(rest: tuple[int, ...], c: int, sign: int) -> tuple[int, int, int]:
    """sum over parts |- c of sign^len(parts) (zlcm(c)/z_parts) p_{rest + parts},
    packed from the first id of its weight: (value, bound, that id).

    Distinct parts give distinct rest + parts, so no two terms share a slot
    and the bound is the largest coefficient."""
    zc = _zlcm(c)
    w = sum(rest) + c
    base = pid((w,) if w else ())  # (w,) comes first in partitions_of(w)
    entries = []
    for parts in partitions_of(c):
        coeff = zc // _zfactor(parts)
        if sign < 0 and len(parts) % 2:
            coeff = -coeff
        entries.append((pid(tuple(sorted(rest + parts, reverse=True))) - base, coeff))
    bound = certify(max(abs(v) for _, v in entries))
    return pack(entries), bound, base


@lru_cache(maxsize=None)
def _mode_row_scaled(kind: str, k: int, mu: tuple[int, ...]) -> tuple[int, int, int]:
    """X_k p_mu as a packed row (value, bound, denominator).

    The annihilation stage is integral (see `_splits`), so the one shared
    denominator zl comes from the creation exponential alone: each split
    (rest, q) that leaves w-degree c for the creation exponential adds
    q * (zl / zlcm(c)) times the cached creation block of (rest, c).  Blocks
    are summed per weight as short ints and shifted into place once, and since
    weights occupy disjoint slots the row's bound is the largest per-weight
    bound (see the module docstring).
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
    graded: dict[int, list] = {}
    for rest, q, deg in terms:
        value, bound, base = _creation_block(rest, deg, shape.creation_sign)
        graded.setdefault(base, []).append((q * (zl // _zlcm(deg)), value, bound))
    sums = [(base, *combine(ts)) for base, ts in graded.items()]
    value = sum(v << (SLOT_BITS * base) for base, v, _ in sums)
    return value, max((b for *_, b in sums), default=0), zl


@lru_cache(maxsize=None)
def _row_entries(kind: str, k: int, mu: tuple[int, ...]):
    """X_k p_mu unpacked as (((nu, int), ...), denominator), for the readers
    that go through a row entry by entry: inner rows of `compose`, kets, bras."""
    value, _, den = _mode_row_scaled(kind, k, mu)
    return tuple((PARTS[i], v) for i, v in unpack(value)), den


def apply_mode(kind: str, k: int, vec: FockVector) -> FockVector:
    """Apply the mode X_k of the given kind to a vector, exactly."""
    if kind not in MODE_SHAPES:
        raise ValueError(f"unknown mode kind {kind!r}")

    def row(mu):
        entries, den = _row_entries(kind, k, mu)
        return [(nu, Fraction(v, den)) for nu, v in entries]

    return _linear(vec, row)


def compose(kind_out: str, k_out: int, kind_in: str, k_in: int, mu: tuple[int, ...]):
    """X_out X_in p_mu as a packed row (value, bound, denominator): the inner
    row is unpacked, and the outer rows are summed as packed ints."""
    inner, d_in = _row_entries(kind_in, k_in, mu)
    pieces = [(qi, _mode_row_scaled(kind_out, k_out, nu)) for nu, qi in inner]
    den = lcm(*(row[2] for _, row in pieces))
    value, bound = combine((qi * (den // s), v, b) for qi, (v, b, s) in pieces)
    return value, bound, d_in * den


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
    entries, den = _row_entries(star, -word[0], nu)
    total = sum(v * _bra_on_basis(star, word[1:], rho) for rho, v in entries)
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
