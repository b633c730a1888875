"""Truncated bosonic Fock-space engine.

A public vector is a dict mapping a power-sum index (a partition tuple, parts
descending) to an exact rational coefficient (int or Fraction).  Inside,
kets and bras are integers over one denominator, and a matrix element
contracts them in integers and divides once.  The Heisenberg generators act by

    a_{-n} p_mu = p_{mu + part n},      a_n p_mu = n * m_n(mu) p_{mu - part n},

and four families of half vertex-operator modes are built from them.  The
symplectic mode Y_k is the w^{-k}-coefficient of

    Y(w) = exp(sum_n a_{-n}/n * w^n) * exp(-sum_n a_n/n * (w^n + w^{-n})),

and the other three kinds follow from it.  The involution omega: a_n -> -a_n
(so omega p_mu = (-1)^len(mu) p_mu) maps Y(w) onto the dual W*(w), whose mode
W*_k is its w^k-coefficient.  W = (1 - w^2) Y and Y* = (1 - w^2) W* keep the
targets of Y and W*.  So only Y rows are built from the series, and the
other three kinds follow by three rules:

    W*_k = omega Y_{-k} omega,   W_k = Y_k - Y_{k+2},   Y*_k = W*_k - W*_{k-2}.

The W*_k row of p_mu is the Y_{-k} row with slot nu multiplied by
(-1)^(len(mu) + len(nu)) (`twist`): every |coefficient| is unchanged, so the
Y row's bound still holds, and the terms are the same, so the denominator is
too.  A W or Y* row is a combination of two rows, bounded as in Packed
rows.  The half-current Gamma_+(x, z) = exp(sum_n a_n/n * p_n(x^{+-1}, z))
is the only place the character variables enter: it maps a ket to
Laurent-polynomial coefficients, and a matrix element <beta|Gamma_+|alpha>
contracts those against bra coefficients.

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

The slot width climbs a ladder of two rungs, `SLOT_WIDTHS` = (64, 128).
Packing starts at 64 bits, where every multiply-add works on half the bits.
When `certify` raises below the top rung, the outermost call holding packed
values (`verify.run_suite`, `apply_mode`, `ket`, `matrix_element`) empties
the packed caches, moves to 128 bits and reruns from the start, so no value
packed at one width meets one packed at another; at 128 bits the overflow is
final.  The largest bound in the commutation suite is 63 bits on the
weight-2 benchmark grid, which never widens, and 99 bits on the weight-6
acceptance grid, which runs at 128 bits after a short start at 64.

Everything is exact and nothing is truncated: the shift is a finite sum over
sub-multisets, and extracting one power of w bounds the weight the creation
exponential adds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps
from itertools import product
from math import comb, factorial, lcm

from .partitions import Partition, PartitionTooLong, partitions_of
from .ring import ONE, ZERO, LaurentPoly, SlotOverflow, xvar, zvar

# Coefficients are int/Fraction; after gamma_plus they are LaurentPolys.  The
# operations below use only +, * and truthiness, so they accept either, and
# plain ints too: kets are built as int vectors over one denominator.
FockVector = dict[tuple[int, ...], int | Fraction | LaurentPoly]


class ZeroModeRequested(ValueError):
    """The Heisenberg index 0 is central and has no action here."""


MODE_KINDS = ("Y", "Ystar", "W", "Wstar")
_STAR_OF = {"sp": "Ystar", "o": "Wstar"}
_PLAIN_OF = {"sp": "Y", "o": "W"}


def vacuum() -> FockVector:
    return {(): 1}


# Bits per packed slot, each a multiple of 8 (`unpack` reads bytes): packing
# starts at the narrowest rung and `_widening` moves up once a bound needs it.
SLOT_WIDTHS = (64, 128)
SLOT_BITS = SLOT_WIDTHS[0]

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


class _RowOverflow(SlotOverflow):
    """A packed Fock value's bound reached half its slot; a wider slot may hold
    it, unlike a Laurent-ring exponent overflow."""


def certify(bound: int) -> int:
    """Return `bound`, or raise SlotOverflow where packing stops being injective."""
    if bound >> (SLOT_BITS - 1):
        raise _RowOverflow(
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


@lru_cache(maxsize=None)
def _odd_mask(bits: int, weight: int) -> tuple[int, int, int]:
    """(bias, mask, odd bias) over the ids of weight <= `weight` in `bits`-bit
    slots: 2^(bits-1) in every slot, all ones in each slot whose partition has
    odd length, and 2^(bits-1) in those.  The width is part of the key, so a
    mask built at one SLOT_BITS is never read at another."""
    ids = range(pid((weight + 1,)))
    bias = sum(1 << (bits * i + bits - 1) for i in ids)
    mask = sum(((1 << bits) - 1) << (bits * i) for i in ids if len(PARTS[i]) % 2)
    return bias, mask, bias & mask


def twist(value: int) -> int:
    """omega on a packed value over ids in PARTS whose bound is certified: the
    slot of id i times (-1)^len(PARTS[i]).  Biasing makes every digit
    c_i + 2^(B-1), so the odd-length slots are cut out whole by one mask."""
    if not value:
        return 0
    top = PARTS[abs(value).bit_length() // SLOT_BITS]  # in the highest nonzero slot
    bias, mask, odd_bias = _odd_mask(SLOT_BITS, sum(top))
    return value - 2 * (((value + bias) & mask) - odd_bias)


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
def _annihilation_wpoly(kappa: tuple[int, ...]):
    """prod_{r in kappa} -(w^r + w^-r), Y(w)'s c_kappa, as ((power, int), ...).

    Each choice of signs s gives the term (-1)^len(kappa) w^(sum s*r); all
    terms share that sign, so the expansion only counts powers."""
    sign = (-1) ** len(kappa)
    out: dict[int, int] = {}
    for signs in product((1, -1), repeat=len(kappa)):
        p = sum(s * r for s, r in zip(signs, kappa))
        out[p] = out.get(p, 0) + sign
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _zlcm(c: int) -> int:
    """lcm of the symmetrization factors over all partitions of c."""
    return lcm(*map(_zfactor, partitions_of(c)))


@lru_cache(maxsize=None)
def _creation_block(rest: tuple[int, ...], c: int) -> tuple[int, int, int]:
    """sum over parts |- c of (zlcm(c)/z_parts) p_{rest + parts},
    packed from the first id of its weight: (value, bound, that id).

    Distinct parts give distinct rest + parts, so no two terms share a slot
    and the bound is the largest coefficient."""
    zc = _zlcm(c)
    w = sum(rest) + c
    base = pid((w,) if w else ())  # (w,) comes first in partitions_of(w)
    entries = []
    for parts in partitions_of(c):
        coeff = zc // _zfactor(parts)
        entries.append((pid(tuple(sorted(rest + parts, reverse=True))) - base, coeff))
    bound = certify(max(abs(v) for _, v in entries))
    return pack(entries), bound, base


@lru_cache(maxsize=None)
def _mode_row_scaled(kind: str, k: int, mu: tuple[int, ...]) -> tuple[int, int, int]:
    """X_k p_mu as a packed row (value, bound, denominator).

    A W*, W or Y* row derives from cached rows by the module docstring's
    three rules.  A Y row is built from the series.  Its annihilation stage
    is integral (see `_splits`), so the one shared denominator zl comes from
    the creation exponential alone: each split (rest, q) that leaves
    w-degree c for the creation exponential adds q * (zl / zlcm(c)) times the
    cached creation block of (rest, c).  Blocks are summed per weight as
    short ints and shifted into place once, and since weights occupy disjoint
    slots the row's bound is the largest per-weight bound (see the module
    docstring).
    """
    if kind == "Wstar":  # W*_k = omega Y_{-k} omega, and omega p_mu = (-1)^len(mu) p_mu
        value, bound, den = _mode_row_scaled("Y", -k, mu)
        return (-twist(value) if len(mu) % 2 else twist(value)), bound, den
    if kind != "Y":  # W_k = Y_k - Y_{k+2}, Y*_k = W*_k - W*_{k-2}
        source, step = ("Y", 2) if kind == "W" else ("Wstar", -2)
        rows = [_mode_row_scaled(source, j, mu) for j in (k, k + step)]
        den = lcm(*(d for *_, d in rows))
        return (*combine((f * den // d, v, b) for f, (v, b, d) in zip((1, -1), rows)), den)
    target = -k  # Y_k is the w^{-k} coefficient of Y(w)
    # (rest, coefficient, w-degree left for the creation exponential)
    terms = [
        (rest, c * q, target - p)
        for kappa, rest, c in _splits(mu)
        for p, q in _annihilation_wpoly(kappa)
        if p <= target
    ]
    zl = lcm(*(_zlcm(deg) for _, _, deg in terms))
    graded: dict[int, list] = {}
    for rest, q, deg in terms:
        value, bound, base = _creation_block(rest, deg)
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


_PACKED_CACHES = (_odd_mask, _creation_block, _mode_row_scaled)
_holding = False  # whether a `_widening` call is running


def _use_width(bits: int) -> None:
    """Pack in `bits`-bit slots from now on.  Every cache of packed values is
    emptied in the same step, so no value packed at one width meets one
    packed at another; unpacked rows, kets, bras and ids mean the same at
    every width and stay."""
    global SLOT_BITS
    for cache in _PACKED_CACHES:
        cache.cache_clear()
    SLOT_BITS = bits


def _widening(fn):
    """Run `fn` as the outermost holder of packed values: when a Fock slot
    overflows below the widest rung of SLOT_WIDTHS, move to the next rung and
    rerun the whole call.  A call made while another holder runs is passed
    through, so that holder reruns instead.  At the widest rung the overflow
    is final, and a Laurent-ring exponent overflow is never caught."""

    @wraps(fn)
    def run(*args, **kwargs):
        global _holding
        if _holding:
            return fn(*args, **kwargs)
        _holding = True
        try:
            while True:
                try:
                    return fn(*args, **kwargs)
                except _RowOverflow:
                    wider = [bits for bits in SLOT_WIDTHS if bits > SLOT_BITS]
                    if not wider:
                        raise
                    _use_width(wider[0])
        finally:
            _holding = False

    return run


def _check_kinds(*kinds: str) -> None:
    if unknown := [kind for kind in kinds if kind not in MODE_KINDS]:
        raise ValueError(f"unknown mode kind {unknown[0]!r}")


@_widening
def apply_mode(kind: str, k: int, vec: FockVector) -> FockVector:
    """Apply the mode X_k of the given kind to a vector, exactly."""
    _check_kinds(kind)

    def row(mu):
        entries, den = _row_entries(kind, k, mu)
        return [(nu, Fraction(v, den)) for nu, v in entries]

    return _linear(vec, row)


def compose(kind_out: str, k_out: int, kind_in: str, k_in: int, mu: tuple[int, ...]):
    """X_out X_in p_mu as a packed row (value, bound, denominator): the inner
    row is unpacked, and the outer rows are summed as packed ints."""
    _check_kinds(kind_out, kind_in)  # first: an empty inner row reads no outer row
    inner, d_in = _row_entries(kind_in, k_in, mu)
    outer = [_mode_row_scaled(kind_out, k_out, nu) for nu, _ in inner]
    den = lcm(*[s for _, _, s in outer])
    value, bound = combine((qi * (den // s), v, b) for (_, qi), (v, b, s) in zip(inner, outer))
    return value, bound, d_in * den


@lru_cache(maxsize=None)
def _ket_cached(kind: str, parts: tuple[int, ...]):
    """Creation modes applied inside-out to the vacuum: (((mu, int), ...), den)."""
    vec, den = vacuum(), 1
    for part in reversed(parts):  # rows over their lcm d, with int weights
        rows = {mu: _row_entries(kind, -part, mu) for mu in vec}
        d = lcm(*(rd for _, rd in rows.values()))
        vec = _linear(vec, lambda mu: [(nu, v * (d // rows[mu][1])) for nu, v in rows[mu][0]])
        den *= d
    return tuple(vec.items()), den


@_widening
def ket(lam: Partition, family: str) -> FockVector:
    """The highest-weight vector for lam: creation modes applied inside-out.

    The declared length of lam fixes the word length, so trailing zero parts
    contribute index-0 modes (which fix the vacuum but matter mid-word).
    """
    entries, den = _ket_cached(_PLAIN_OF[family], lam.padded(lam.declared_len))
    return {mu: Fraction(v, den) for mu, v in entries}


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
    """<0| X*_{-b_L} ... X*_{-b_1} p_nu for word = (b_1, ..., b_L), as
    (int, denominator).

    Recursing on the word's tail shares every suffix between bras."""
    if not word:
        return int(nu == ()), 1
    entries, den = _row_entries(star, -word[0], nu)
    tails = [(v, *_bra_on_basis(star, word[1:], rho)) for rho, v in entries]
    d = lcm(*(td for _, _, td in tails))
    return sum(v * t * (d // td) for v, t, td in tails), den * d


@_widening
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
    # contract the int scalar of each removed multiset kappa over one common
    # denominator, scale-add each distinct P_kappa once, and divide the whole
    # polynomial once: one kappa's scalar need not be integral where the sum is
    terms = [(kappa, f * c, _bra_on_basis(star, word, rest))
             for rho, f in entries for kappa, rest, c in _splits(rho)]
    common = lcm(*(bd for _, _, (b, bd) in terms if b))
    scalars: dict[tuple[int, ...], int] = {}
    for kappa, fc, (b, bd) in terms:
        if b:
            scalars[kappa] = scalars.get(kappa, 0) + fc * b * (common // bd)
    out = sum((_power_sum_product(n, m, kappa) * s for kappa, s in scalars.items() if s), ZERO)
    den *= common  # one exact divmod per (int) coefficient of out
    exact = ((key, c, *divmod(c, den)) for key, c in out._terms.items())
    return LaurentPoly({key: Fraction(c, den) if r else q for key, c, q, r in exact}, out._bound)


def pairing(mu: Partition, lam: Partition, family: str) -> LaurentPoly:
    """<mu|lam> without any current insertion; delta_{mu,lam} when all is well."""
    length = max(mu.declared_len, lam.declared_len, mu.length, lam.length)
    return matrix_element(mu.with_declared(length), 0, 0, lam, family)
