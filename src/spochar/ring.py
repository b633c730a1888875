"""Exact sparse multivariate Laurent-polynomial arithmetic.

Coefficients are arbitrary-precision rationals (``int`` or
``fractions.Fraction``), monomials are sparse maps from named variables to
nonzero integer exponents (negative exponents allowed), and every polynomial
is kept in canonical form: no zero coefficients, no zero exponents.

Variables come in four families, ordered ``x < z < y < t``; a variable is
identified by ``(family, index)``.  The ``x`` family is the one used with
inverted exponents by the character formulas, ``z`` holds the extra plain
variables, ``y`` is reserved for Schur/Cauchy expansions, and ``t`` for the
square-root substitution x_i = t_i^2.

Inside a polynomial a monomial is one int.  Variable (rank r, index i) owns
slot s = 4(i - 1) + r, and exponents e_s pack as K = sum_s e_s * 2^(B*s),
B = SLOT_BITS.  The layout is fixed, so a key means the same monomial in
every process and after `clear_caches`.  Packing is linear: a product of
monomials is a sum of keys.  While every |e_s| < 2^(B-1) it is injective,
since K has one base-2^B expansion with digits in [-2^(B-1), 2^(B-1)), which
`_decode` reads back.  Each polynomial carries a bound on its |exponents|
(sums keep the larger, products add them, substitutions scale them); every
operation that can grow an exponent checks its bound first and raises
`SlotOverflow` once it reaches 2^(B-1), so no result is read from a key whose
slots could alias.  Tuple monomials, ``((var, exp), ...)`` sorted by
variable, appear only at the boundary (`monomial`, `items`, `sorted_terms`).
Output order -- graded by total degree, ties broken by comparing those
tuples -- is applied only when rendering, so text and JSON are byte-stable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

Coeff = Union[int, Fraction]

FAMILY_NAMES: tuple[str, ...] = ("x", "z", "y", "t")

SLOT_BITS = 16  # bits per packed exponent slot: |exponent| < 2^15


class NonSquareMatrix(ValueError):
    """Determinant requested for a matrix with rows != cols."""


class DimensionCapExceeded(ValueError):
    """Determinant dimension is above the configured safety cap."""


class SlotOverflow(ValueError):
    """A packed value's bound reached 2^(SLOT_BITS-1), where packing stops being
    injective; no result is read from it."""


class MissingAssignment(KeyError):
    """A variable of the polynomial has no value in the evaluation point."""


class ZeroAssignedToLaurentVariable(ZeroDivisionError):
    """Zero was assigned to a variable occurring with a negative exponent."""


class NonIntegerCoefficient(ArithmeticError):
    """A polynomial expected to be integral has a fractional coefficient."""


class VarName(NamedTuple):
    """A named variable; identity and ordering are (family rank, index)."""

    rank: int
    index: int

    @property
    def family(self) -> str:
        return FAMILY_NAMES[self.rank]

    def text(self) -> str:
        return f"{self.family}{self.index}"


def var(family: str, index: int) -> VarName:
    if family not in FAMILY_NAMES:
        raise ValueError(f"unknown variable family {family!r}")
    if index < 1:
        raise ValueError("variable index must be >= 1")
    return VarName(FAMILY_NAMES.index(family), index)


def xvar(i: int) -> VarName:
    return var("x", i)


def zvar(i: int) -> VarName:
    return var("z", i)


def yvar(i: int) -> VarName:
    return var("y", i)


def tvar(i: int) -> VarName:
    return var("t", i)


# A boundary monomial: (variable, exponent) pairs, one per variable, sorted.
Monomial = tuple


def _checked(bound: int) -> int:
    """Return an exponent bound, or raise SlotOverflow once packing could alias."""
    if bound >> (SLOT_BITS - 1):
        raise SlotOverflow(
            f"exponent bound {bound} reaches the {SLOT_BITS}-bit monomial slot"
        )
    return bound


def _var_key(v: VarName) -> int:
    return 1 << (SLOT_BITS * (len(FAMILY_NAMES) * (v.index - 1) + v.rank))


@lru_cache(maxsize=1 << 18)
def _decode(key: int) -> Monomial:
    """The tuple monomial of a packed key: its balanced base-2^B digits."""
    width, half = len(FAMILY_NAMES), 1 << (SLOT_BITS - 1)
    mask = (1 << SLOT_BITS) - 1
    out = []
    s = 0
    while key:
        e = ((key + half) & mask) - half
        if e:
            out.append((VarName(s % width, s // width + 1), e))
        key = (key - e) >> SLOT_BITS
        s += 1
    return tuple(sorted(out))


@lru_cache(maxsize=1 << 18)
def merge_monomials(a: Monomial, b: Monomial) -> Monomial:
    """The product of two tuple monomials.  The ring adds packed keys instead,
    so this cache's misses (a benchmark metric) stay 0."""
    ((m, _),) = (LaurentPoly.monomial(a) * LaurentPoly.monomial(b)).items()
    return m


def _norm_coeff(c: Coeff) -> Coeff:
    # keep ints as ints; collapse integral Fractions for speed and display
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class LaurentPoly:
    """An immutable Laurent polynomial in canonical sparse form."""

    __slots__ = ("_terms", "_bound")

    def __init__(self, terms: dict[int, Coeff], bound: int):
        # trusted: `terms` maps packed keys to coefficients and must already be
        # canonical (no zero coefficient, integral Fractions collapsed to int);
        # it is kept, not copied.  `bound` >= every |exponent| of every term.
        self._terms = terms
        self._bound = bound

    @classmethod
    def constant(cls, c: Coeff) -> "LaurentPoly":
        return cls.monomial((), c)

    @classmethod
    def variable(cls, v: VarName, exponent: int = 1) -> "LaurentPoly":
        return cls.monomial(((v, exponent),))

    @classmethod
    def monomial(cls, m: Monomial, c: Coeff = 1) -> "LaurentPoly":
        bound = _checked(max((abs(e) for _, e in m), default=0))
        c = _norm_coeff(c)
        return cls({sum(e * _var_key(v) for v, e in m): c} if c else {}, bound)

    # -- structure ---------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, Coeff]]:
        return ((_decode(k), c) for k, c in self._terms.items())

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def variables(self) -> set[VarName]:
        return {v for m, _ in self.items() for v, _ in m}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly.constant(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable-dict core, not hashable

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        # LaurentPoly first: the ABC check behind Fraction is slow
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = LaurentPoly.constant(other)
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        get = out.get
        for k, c in b.items():
            # a canonical c is nonzero, so a zero sum means k was in `out`
            s = get(k, 0) + c
            if s:
                out[k] = s if type(s) is int else _norm_coeff(s)
            else:
                del out[k]
        return LaurentPoly(out, max(self._bound, other._bound))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({m: -c for m, c in self._terms.items()}, self._bound)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _norm_coeff(other)
            if not other:
                return ZERO
            if other == 1:
                return self
            return LaurentPoly(
                {m: _norm_coeff(c * other) for m, c in self._terms.items()},
                self._bound,
            )
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        # keys add slot by slot; the bound proves no slot leaves its range
        bound = _checked(self._bound + other._bound)
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                c = get(k, 0) + ca * cb
                if c:
                    out[k] = c
                else:
                    del out[k]
        # products of int coefficients need no normalizing pass
        if Fraction in map(type, a.values()) or Fraction in map(type, b.values()):
            out = {k: _norm_coeff(c) for k, c in out.items()}
        return LaurentPoly(out, bound)

    __rmul__ = __mul__

    def mul_truncated(self, other: "LaurentPoly", rank: int, cap: int) -> "LaurentPoly":
        """Product with terms of family-`rank` total degree above `cap` dropped."""
        # adding 2^(B-1) to every slot makes each digit nonnegative, so the
        # family's exponents read off the biased key with no borrows
        top = max(max(map(abs, p._terms), default=0) for p in (self, other))
        slots = top.bit_length() // SLOT_BITS + 1
        half, mask = 1 << (SLOT_BITS - 1), (1 << SLOT_BITS) - 1
        bias = half * ((1 << (SLOT_BITS * slots)) - 1) // mask
        shifts = range(SLOT_BITS * rank, SLOT_BITS * slots, SLOT_BITS * len(FAMILY_NAMES))
        offset = half * len(shifts)

        def by_degree(p: "LaurentPoly") -> dict[int, "LaurentPoly"]:
            groups: dict[int, dict] = {}
            for k, c in p._terms.items():
                biased = k + bias
                d = sum((biased >> s) & mask for s in shifts) - offset
                groups.setdefault(d, {})[k] = c
            return {d: LaurentPoly(g, p._bound) for d, g in groups.items()}

        a, b = by_degree(self), by_degree(other)
        out = ZERO
        for da, pa in a.items():
            for db, pb in b.items():
                if da + db <= cap:
                    out = out + pa * pb
        return out

    # -- specialization ----------------------------------------------------

    def evaluate(self, point: Mapping[VarName, Coeff]) -> Fraction:
        """Evaluate at a rational point; every occurring variable needs a value."""
        total = Fraction(0)
        for m, c in self.items():
            t = Fraction(c)
            for v, e in m:
                if v not in point:
                    raise MissingAssignment(f"no value for {v.text()}")
                a = Fraction(point[v])
                if a == 0:
                    if e < 0:
                        raise ZeroAssignedToLaurentVariable(
                            f"{v.text()} has negative exponent but value 0"
                        )
                    t = Fraction(0)
                    break
                t *= a**e
            total += t
        return total

    def substitute(self, mapping: Mapping[VarName, "LaurentPoly"]) -> "LaurentPoly":
        """Replace variables by single-term polynomials (units of the ring).

        Each target must be a nonzero monomial times a nonzero rational, so
        arbitrary (including negative) source exponents stay meaningful.
        """
        # v^e with v -> tc * (monomial tk) adds e * (tk - key(v)) to the key.
        # Result slot w gets sum_v e_v * (exponent of w in v's image), plus its
        # own exponent if w is kept: at most bound * (load[w] + [w kept]).
        shifts: dict[VarName, tuple[int, Coeff]] = {}
        load: dict[VarName, int] = {}
        for v, p in mapping.items():
            if isinstance(p, (int, Fraction)):
                p = LaurentPoly.constant(p)
            if p.term_count != 1:
                raise ValueError(
                    f"substitution target for {v.text()} must be a single term"
                )
            ((tk, tc),) = p._terms.items()
            shifts[v] = (tk - _var_key(v), tc)
            for w, e in _decode(tk):
                load[w] = load.get(w, 0) + abs(e)
        bound = _checked(
            self._bound
            * max([1] + [n + (w not in mapping) for w, n in load.items()])
        )
        out: dict = {}
        for k, c in self._terms.items():
            key = k
            for v, e in _decode(k):
                hit = shifts.get(v)
                if hit is not None:
                    shift, tc = hit
                    key += e * shift
                    if tc != 1:
                        c = c * (Fraction(tc) ** e if e < 0 else tc**e)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return LaurentPoly({k: _norm_coeff(c) for k, c in out.items()}, bound)

    def rename(self, mapping: Mapping[VarName, VarName]) -> "LaurentPoly":
        return self.substitute(
            {a: LaurentPoly.variable(b) for a, b in mapping.items()}
        )

    def require_integer(self) -> "LaurentPoly":
        for m, c in self.items():
            if not isinstance(c, int):
                raise NonIntegerCoefficient(f"coefficient {c} of {_format_term(m, 1)}")
        return self

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        """Terms in descending canonical monomial order."""
        return sorted(
            self.items(), key=lambda mc: (sum(e for _, e in mc[0]), mc[0]), reverse=True
        )

    def text(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            neg = c < 0
            body = _format_term(m, -c if neg else c)
            if i == 0:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f" - {body}" if neg else f" + {body}")
        return "".join(pieces)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text()})"

    def to_json(self) -> list[dict]:
        return [
            {"coeff": str(c), "exps": {v.text(): e for v, e in m}}
            for m, c in self.sorted_terms()
        ]


def _format_term(m: Monomial, c: Coeff) -> str:
    if not m:
        return str(c)
    body = "*".join(v.text() if e == 1 else f"{v.text()}^{e}" for v, e in m)
    if c == 1:
        return body
    return f"{c}*{body}"


ZERO = LaurentPoly({}, 0)
ONE = LaurentPoly({0: 1}, 0)

DET_DIM_CAP = 10  # largest dimension `det_of` expands


def det_of(rows: Sequence[Sequence[LaurentPoly]]) -> LaurentPoly:
    """Determinant by cofactor expansion memoized on column subsets."""
    n = len(rows)
    if n == 0 or len(rows[0]) == 0:
        raise ValueError("matrix dimensions must be positive")
    cols = len(rows[0])
    if any(len(row) != cols for row in rows):
        raise ValueError("ragged matrix rows")
    if n != cols:
        raise NonSquareMatrix(f"{n} x {cols}")
    if n > DET_DIM_CAP:
        raise DimensionCapExceeded(f"dimension {n} > cap {DET_DIM_CAP}")
    # expand sparse rows first; track the row-permutation sign
    order = sorted(range(n), key=lambda i: sum(1 for e in rows[i] if e))
    sign = _permutation_sign(order)
    rows = [rows[i] for i in order]
    memo: dict[int, LaurentPoly] = {}

    def minor(mask: int) -> LaurentPoly:
        if mask == 0:
            return ONE
        got = memo.get(mask)
        if got is not None:
            return got
        r = n - mask.bit_count()
        row = rows[r]
        acc = ZERO
        s = 1
        rest = mask
        while rest:
            low = rest & -rest
            c = low.bit_length() - 1
            entry = row[c]
            if entry:
                term = entry * minor(mask ^ low)
                acc = acc + term if s > 0 else acc - term
            s = -s
            rest ^= low
        memo[mask] = acc
        return acc

    result = minor((1 << n) - 1)
    return result if sign > 0 else -result


def _permutation_sign(perm: Sequence[int]) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv & 1 else 1
