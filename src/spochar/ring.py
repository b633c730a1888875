"""Exact sparse multivariate Laurent-polynomial arithmetic.

Coefficients are arbitrary-precision rationals (``int`` or
``fractions.Fraction``), monomials are sparse maps from named variables to
nonzero integer exponents (negative exponents allowed), and every polynomial
is kept in canonical form: no zero coefficients, no zero exponents, and a
fixed total order on monomials.  The order -- graded by total degree, ties
broken by comparing the sorted ``(variable, exponent)`` sequences -- is a
module constant so that text and JSON output are byte-stable across runs.

Variables come in four families, ordered ``x < z < y < t``; a variable is
identified by ``(family, index)``.  The ``x`` family is the one used with
inverted exponents by the character formulas, ``z`` holds the extra plain
variables, ``y`` is reserved for Schur/Cauchy expansions, and ``t`` for the
square-root substitution x_i = t_i^2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

Coeff = Union[int, Fraction]

FAMILY_NAMES: tuple[str, ...] = ("x", "z", "y", "t")


class NonSquareMatrix(ValueError):
    """Determinant requested for a matrix with rows != cols."""


class DimensionCapExceeded(ValueError):
    """Determinant dimension is above the configured safety cap."""


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


# A monomial is a tuple of (variable, nonzero exponent) pairs sorted by
# variable.  The empty tuple is the unit monomial.
Monomial = tuple


def monomial_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def monomial_key(m: Monomial) -> tuple:
    """Sort key realizing the module-wide monomial order."""
    return (monomial_degree(m), m)


@lru_cache(maxsize=1 << 18)
def merge_monomials(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for v, e in b:
        ne = d.get(v, 0) + e
        if ne:
            d[v] = ne
        else:
            del d[v]
    return tuple(sorted(d.items()))


def monomial_pow(m: Monomial, k: int) -> Monomial:
    if k == 0:
        return ()
    return tuple((v, e * k) for v, e in m)


def _norm_coeff(c: Coeff) -> Coeff:
    # keep ints as ints; collapse integral Fractions for speed and display
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class LaurentPoly:
    """An immutable Laurent polynomial in canonical sparse form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, Coeff]):
        # trusted: `terms` must already be canonical (no zero coefficient,
        # integral Fractions collapsed to int) and is kept, not copied
        self._terms = terms

    @classmethod
    def constant(cls, c: Coeff) -> "LaurentPoly":
        c = _norm_coeff(c)
        return cls({(): c} if c else {})

    @classmethod
    def variable(cls, v: VarName, exponent: int = 1) -> "LaurentPoly":
        if exponent == 0:
            return ONE
        return cls({((v, exponent),): 1})

    @classmethod
    def monomial(cls, m: Monomial, c: Coeff = 1) -> "LaurentPoly":
        c = _norm_coeff(c)
        return cls({m: c} if c else {})

    # -- structure ---------------------------------------------------------

    def items(self) -> Iterator[tuple[Monomial, Coeff]]:
        return iter(self._terms.items())

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def variables(self) -> set[VarName]:
        out: set[VarName] = set()
        for m in self._terms:
            for v, _ in m:
                out.add(v)
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            c = _norm_coeff(other)
            if not c:
                return not self._terms
            return self._terms == {(): c}
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable-dict core, not hashable

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for m, c in b.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = _norm_coeff(s)
                else:
                    del out[m]
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _norm_coeff(other)
            if not other:
                return ZERO
            if other == 1:
                return self
            return LaurentPoly(
                {m: _norm_coeff(c * other) for m, c in self._terms.items()}
            )
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        merge = merge_monomials
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = merge(ma, mb)
                c = out.get(m)
                if c is None:
                    out[m] = ca * cb
                else:
                    c = c + ca * cb
                    if c:
                        out[m] = c
                    else:
                        del out[m]
        return LaurentPoly({m: _norm_coeff(c) for m, c in out.items()})

    __rmul__ = __mul__

    def mul_truncated(self, other: "LaurentPoly", rank: int, cap: int) -> "LaurentPoly":
        """Product with terms of family-`rank` total degree above `cap` dropped."""

        def by_degree(p: "LaurentPoly") -> dict[int, dict]:
            groups: dict[int, dict] = {}
            for m, c in p._terms.items():
                groups.setdefault(sum(e for v, e in m if v.rank == rank), {})[m] = c
            return groups

        a, b = by_degree(self), by_degree(other)
        out = ZERO
        for da, pa in a.items():
            for db, pb in b.items():
                if da + db <= cap:
                    out = out + LaurentPoly(pa) * LaurentPoly(pb)
        return out

    # -- specialization ----------------------------------------------------

    def evaluate(self, point: Mapping[VarName, Coeff]) -> Fraction:
        """Evaluate at a rational point; every occurring variable needs a value."""
        total = Fraction(0)
        for m, c in self._terms.items():
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
        targets: dict[VarName, tuple[Monomial, Coeff]] = {}
        for v, p in mapping.items():
            if isinstance(p, (int, Fraction)):
                p = LaurentPoly.constant(p)
            if p.term_count != 1:
                raise ValueError(
                    f"substitution target for {v.text()} must be a single term"
                )
            ((tm, tc),) = p._terms.items()
            targets[v] = (tm, tc)
        out: dict = {}
        for m, c in self._terms.items():
            mono: Monomial = ()
            coeff: Coeff = c
            for v, e in m:
                hit = targets.get(v)
                if hit is None:
                    mono = merge_monomials(mono, ((v, e),))
                else:
                    tm, tc = hit
                    coeff = coeff * (Fraction(tc) ** e if e < 0 else tc**e)
                    mono = merge_monomials(mono, monomial_pow(tm, e))
            s = out.get(mono)
            s = coeff if s is None else s + coeff
            if s:
                out[mono] = s
            elif mono in out:
                del out[mono]
        return LaurentPoly({m: _norm_coeff(c) for m, c in out.items() if c})

    def rename(self, mapping: Mapping[VarName, VarName]) -> "LaurentPoly":
        return self.substitute(
            {a: LaurentPoly.variable(b) for a, b in mapping.items()}
        )

    def require_integer(self) -> "LaurentPoly":
        for m, c in self._terms.items():
            if not isinstance(c, int):
                raise NonIntegerCoefficient(f"coefficient {c} of {_format_term(m, 1)}")
        return self

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        """Terms in descending canonical monomial order."""
        return sorted(self._terms.items(), key=lambda mc: monomial_key(mc[0]), reverse=True)

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


ZERO = LaurentPoly({})
ONE = LaurentPoly({(): 1})

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
