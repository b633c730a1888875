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
annihilation stage is computed once per basis vector and cached; the mode
action on a basis vector is cached once per (kind, k, basis) triple as
integers over one denominator, keyed by interned partition ids (`pid`), so
large verification grids share almost all of the work.

Only the half-current Gamma_+(x, z) brings in the character variables: it
maps a rational ket to Laurent-polynomial coefficients, and a matrix element
<beta|Gamma_+|alpha> contracts those against rational bra coefficients.

Everything is exact: w-series are dicts over integer powers with Fraction
values, and no truncation is ever applied (each exponential terminates on a
given vector because annihilation removes parts and extraction bounds the
creation weight).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from typing import NamedTuple

from .partitions import Partition, PartitionTooLong, partitions_of
from .ring import ONE, ZERO, LaurentPoly, xvar, zvar

# Coefficients are int/Fraction; after gamma_plus they are LaurentPolys.  The
# operations below use only +, * and truthiness, so they accept either.
FockVector = dict[tuple[int, ...], int | Fraction | LaurentPoly]

WPoly = dict[int, Fraction]


class ZeroModeRequested(ValueError):
    """The Heisenberg index 0 is central and has no action here."""


class StraighteningDiverged(RuntimeError):
    """The straightening rewrite exceeded its iteration allowance."""


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


def vacuum_coefficient(vec: FockVector):
    return vec.get((), 0)


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


_PREFACTOR: WPoly = {0: Fraction(1), 2: Fraction(-1)}


@lru_cache(maxsize=None)
def _stages_core(sa: int, mu: tuple[int, ...]):
    """The annihilation exponential applied to p_mu, keyed by sign only.

    Returns ((nu, ((power, coeff), ...)), ...): for each surviving basis
    vector nu, the w-Laurent polynomial it carries before creation acts.
    Two mode kinds share each sign, so this layer halves the Taylor work.
    """
    total: dict[tuple[int, ...], WPoly] = {mu: {0: Fraction(1)}}
    t = {mu: {0: Fraction(1)}}
    j = 0
    while t:
        j += 1
        nxt: dict[tuple[int, ...], WPoly] = {}
        for nu, wp in t.items():
            for n in set(nu):
                mn = nu.count(n)
                child = _remove_part(nu, n)
                cwp = nxt.setdefault(child, {})
                for p, q in wp.items():
                    step = Fraction(sa * mn, j) * q
                    for dp in (n, -n):
                        key = p + dp
                        val = cwp.get(key, 0) + step
                        if val:
                            cwp[key] = val
                        elif key in cwp:
                            del cwp[key]
        t = {nu: wp for nu, wp in nxt.items() if wp}
        total.update(t)  # the j-th term has j parts fewer, so no key repeats
    return tuple(
        (nu, tuple(sorted(wp.items()))) for nu, wp in total.items() if wp
    )


@lru_cache(maxsize=None)
def _stages(kind: str, mu: tuple[int, ...]):
    """The annihilation exponential and prefactor applied to p_mu."""
    shape = MODE_SHAPES[kind]
    rows = _stages_core(shape.annihilation_sign, mu)
    if not shape.prefactor:
        return rows
    return tuple(
        (nu, tuple(sorted(_conv(dict(wp), _PREFACTOR).items()))) for nu, wp in rows
    )


@lru_cache(maxsize=None)
def _zlcm(c: int) -> int:
    """lcm of the symmetrization factors over all partitions of c."""
    out = 1
    for parts in partitions_of(c):
        z = _zfactor(parts)
        out = out * z // gcd(out, z)
    return out


@lru_cache(maxsize=None)
def _mode_row_scaled(kind: str, k: int, mu: tuple[int, ...]):
    """X_k p_mu as (((pid(nu), int), ...), denominator).

    Integer coefficients over one shared denominator keep the large
    verification loops out of Fraction arithmetic.
    """
    shape = MODE_SHAPES[kind]
    target = shape.target_sign * k
    sc = shape.creation_sign
    rows = _stages(kind, mu)
    den = 1
    zl = 1
    for _, wp in rows:
        for p, q in wp:
            if target - p < 0:
                continue
            d = q.denominator
            den = den * d // gcd(den, d)
            z = _zlcm(target - p)
            zl = zl * z // gcd(zl, z)
    acc: dict[tuple[int, ...], int] = {}
    for rho, wp in rows:
        for p, q in wp:
            c = target - p
            if c < 0:
                continue
            qi = q.numerator * (den // q.denominator)
            for parts in partitions_of(c):
                coeff = qi * (zl // _zfactor(parts))
                if sc < 0 and len(parts) % 2:
                    coeff = -coeff
                key = tuple(sorted(rho + parts, reverse=True))
                val = acc.get(key, 0) + coeff
                if val:
                    acc[key] = val
                elif key in acc:
                    del acc[key]
    return tuple((pid(nu), v) for nu, v in acc.items()), den * zl


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
    pieces = []
    lcm = 1
    for i, qi in inner:
        entries, s = _mode_row_scaled(kind_out, k_out, PARTS[i])
        pieces.append((qi, entries, s))
        lcm = lcm * s // gcd(lcm, s)
    out: dict[int, int] = {}
    for qi, entries, s in pieces:
        f = qi * (lcm // s)
        for rid, ri in entries:
            val = out.get(rid, 0) + f * ri
            if val:
                out[rid] = val
            elif rid in out:
                del out[rid]
    return out, d_in * lcm


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
def _gamma_on_basis(n: int, m: int, rho: tuple[int, ...]):
    """exp(sum_k a_k/k * p_k(vars)) applied to p_rho, as ((nu, poly), ...)."""
    t = {rho: ONE}
    total = dict(t)
    j = 0
    while t:
        j += 1
        # integer rows, then one 1/j per term: fewer Fraction products
        t = _linear(t, lambda nu: [
            (_remove_part(nu, k), _power_sum_value(n, m, k) * nu.count(k))
            for k in set(nu)
        ])
        t = {nu: f * Fraction(1, j) for nu, f in t.items()}
        total.update(t)  # the j-th term has j parts fewer, so no key repeats
    return tuple(total.items())


def gamma_plus(n: int, m: int, vec: FockVector) -> FockVector:
    """Apply the annihilation half-current evaluated on the character alphabet."""
    return _linear(vec, lambda rho: _gamma_on_basis(n, m, rho))


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
    out = ZERO
    for rho, f in ket(alpha.with_declared(l + n + m), family).items():
        for nu, g in _gamma_on_basis(n, m, rho):
            c = f * _bra_on_basis(star, word, nu)
            if c:
                out = out + g * c
    return out


def pairing(mu: Partition, lam: Partition, family: str) -> LaurentPoly:
    """<mu|lam> without any current insertion; delta_{mu,lam} when all is well."""
    length = max(mu.declared_len, lam.declared_len, mu.length, lam.length)
    return matrix_element(mu.with_declared(length), 0, 0, lam, family)


# -- straightening -----------------------------------------------------------


def straighten(ns, family: str = "sp", side: str = "ket"):
    """Normalize a mode word to a signed partition.

    ket side: the word X_{n_1} ... X_{n_L}|0> is rewritten (via the quadratic
    exchange rules) until the indices weakly increase; the result is
    (sign, Partition(-n_1, ..., -n_L)) or (0, empty) when the word vanishes.

    bra side: <0| X*_{s_1} ... X*_{s_L} is rewritten until the indices weakly
    decrease and the leading index is nonpositive; the boundary rule depends
    on the family.  Returns (sign, Partition(reversed(-s))).
    """
    word = list(ns)
    if side not in ("ket", "bra"):
        raise ValueError("side must be 'ket' or 'bra'")
    if family not in ("sp", "o"):
        raise ValueError("family must be 'sp' or 'o'")
    sign = 1
    budget = 10000 + 100 * len(word) * len(word)
    while budget > 0:
        budget -= 1
        changed = False
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if side == "ket":
                if a > b:
                    if a == b + 1:
                        return 0, Partition((), declared_len=len(word))
                    word[i], word[i + 1] = b + 1, a - 1
                    sign = -sign
                    changed = True
                    break
            else:
                if a < b:
                    if b == a + 1:
                        return 0, Partition((), declared_len=len(word))
                    word[i], word[i + 1] = b - 1, a + 1
                    sign = -sign
                    changed = True
                    break
        if changed:
            continue
        if side == "ket":
            if word and word[-1] > 0:
                return 0, Partition((), declared_len=len(word))
            parts = tuple(-v for v in word)
            return sign, Partition(parts, declared_len=len(word))
        # bra: sorted weakly decreasing; fix the boundary index
        if word and word[0] > 0:
            if family == "sp":
                if word[0] == 1:
                    return 0, Partition((), declared_len=len(word))
                word[0] = 2 - word[0]
                sign = -sign
            else:
                word[0] = -word[0]
            continue
        parts = tuple(-v for v in reversed(word))
        return sign, Partition(parts, declared_len=len(word))
    raise StraighteningDiverged(f"no normal form after rewriting {list(ns)}")
