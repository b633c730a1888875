"""Truncated generating-function coefficients feeding the determinant engine.

The h-family attached to variables (x_1..x_n; z_1..z_m) collects the
coefficients of the formal series

    prod_i 1/((1 - x_i w)(1 - x_i^{-1} w)) * prod_j (z-factors)

where the z-factors are 1/(1 - z_j w) (``plain``) or the pair
1/((1 - z_j w)(1 - z_j^{-1} w)) (``symmetric``).
Coefficients below index zero are zero and h_0 = 1.  Each table is grown in
place, once per prefix of its factor list, and every request reads the same
per-degree dicts (see `_grown`).  The symmetric series times
E(w) = prod_j (1 - z_j^{-1} w), whose coefficients are the elementary
symmetric polynomials of the -z_j^{-1}, is the plain series: each factor
cancels a 1/(1 - z_j^{-1} w), as H(t)E(-t) = 1 does for one alphabet.
`check_newton` verifies this one unit factor at a time and never expands E.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .ring import LaurentPoly, Monomial, _checked, _var_key, xvar, yvar, zvar

Z_MODES = ("plain", "symmetric")


class _HSpecFields(NamedTuple):
    n: int
    m: int
    z_mode: str = "plain"


class HSpec(_HSpecFields):
    """Which h-family: n paired x-variables, m z-variables, z handling."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 0 or self.m < 0:
            raise ValueError("variable counts must be >= 0")
        if self.z_mode not in Z_MODES:
            raise ValueError(f"z_mode must be one of {Z_MODES}")
        return self

    @classmethod
    def _make(cls, iterable) -> "HSpec":
        return cls(*iterable)  # through the check; `_replace` calls this


@lru_cache(maxsize=None)
def _geom_factors(spec: HSpec) -> tuple[Monomial, ...]:
    # x^+-, then z, then z^-1: the plain family's factors are a prefix of the
    # symmetric family's, so both grow one table list
    out: list[Monomial] = []
    for i in range(1, spec.n + 1):
        out.append(((xvar(i), 1),))
        out.append(((xvar(i), -1),))
    out.extend(((zvar(j), 1),) for j in range(1, spec.m + 1))
    if spec.z_mode == "symmetric":
        out.extend(((zvar(j), -1),) for j in range(1, spec.m + 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _stages(factors: tuple[Monomial, ...]) -> list[dict[int, int]]:
    """The h-table of `factors` as far as it has been grown: one dict per
    degree, starting at h_0 = 1.  `_grown` appends to it; a dict, once
    appended, is never changed, so every table wrapping it shares it."""
    return [{0: 1}]


def _grown(factors: tuple[Monomial, ...], N: int) -> list[dict[int, int]]:
    """`_stages(factors)` grown to degree N, and every prefix with it.

    Adding factor u to the prefix U: h_k(U + u) = h_k(U) + u * h_{k-1}(U + u),
    where u * h_{k-1} shifts every key by u's; no coefficient cancels.  The
    prefixes are grown in a loop, from the longest one already grown to N,
    so a list of thousands of factors meets no recursion limit.
    """
    tables = [_stages(factors)]
    while len(tables[-1]) <= N and len(tables) <= len(factors):
        tables.append(_stages(factors[: len(factors) - len(tables)]))
    prev = tables.pop()
    prev.extend({} for _ in range(len(prev), N + 1))  # only the empty prefix is short here
    for table, u in zip(reversed(tables), factors[len(factors) - len(tables) :]):
        (shift,) = LaurentPoly.monomial(u)._terms
        for k in range(len(table), N + 1):
            cur = dict(prev[k])
            get = cur.get
            for key, c in table[k - 1].items():
                key += shift
                cur[key] = get(key, 0) + c
            table.append(cur)
        prev = table
    return prev


@lru_cache(maxsize=None)
def _geom_product(factors: tuple[Monomial, ...], N: int) -> tuple[LaurentPoly, ...]:
    """Coefficients of prod_u 1/(1 - u w) up to w^N.

    h_k is a sum of k factor monomials, so its exponents stay within
    k * max|e|; that bound is checked for h_N before any key is built.
    """
    top = max((abs(e) for u in factors for _, e in u), default=0)
    _checked(N * top)
    table = _grown(factors, N)
    return tuple(LaurentPoly(table[k], k * top) for k in range(N + 1))


def h_seq(spec: HSpec, N: int) -> list[LaurentPoly]:
    """[h_0, h_1, ..., h_N] for the given family."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return list(_geom_product(_geom_factors(spec), N))


def h_seq_y(k: int, N: int) -> list[LaurentPoly]:
    """Complete homogeneous polynomials in y_1..y_k up to degree N."""
    return list(_geom_product(tuple(((yvar(i), 1),) for i in range(1, k + 1)), N))


def h_seq_cauchy(spec: HSpec, k: int, N: int) -> list[LaurentPoly]:
    """[G_0, ..., G_N] for prod_{s<=k} prod_u 1/(1 - u y_s w), u over the
    family's factors: G_d is the y-degree-d part of prod_s sum_j h_j y_s^j."""
    letters = tuple(
        u + ((yvar(s), 1),) for s in range(1, k + 1) for u in _geom_factors(spec)
    )
    return list(_geom_product(letters, N))


def check_newton(spec: HSpec, N: int) -> bool:
    """Verify h_k(plain) = [w^k] prod_j (1 - z_j^{-1} w) * H(symmetric) for k <= N.

    Factor j maps degree k of its input g to g_k - z_j^{-1} g_{k-1}, one key
    shift and one subtraction.  Degree k passes through every factor and is
    compared with the plain h_k before degree k + 1, so each factor holds
    only its input's previous degree.  The shared table dicts are only read.
    """
    if spec.m < 1:
        raise ValueError("the recurrence needs at least one z variable")
    hp = h_seq(HSpec(spec.n, spec.m, "plain"), N)
    hs = h_seq(HSpec(spec.n, spec.m, "symmetric"), N)
    # Every key below is a product of k unit monomials: i of the z_j^{-1}
    # and k - i from a term of hs[k - i].  So each |exponent| stays within
    # k <= N, the bound `_geom_product` checked for hs, and no slot aliases.
    zkeys = [_var_key(zvar(j)) for j in range(1, spec.m + 1)]  # z_j^{-1} subtracts it
    last: list[dict[int, int]] = [{}] * spec.m  # degree -1 reads zero
    for k in range(N + 1):
        g = hs[k]._terms
        for j, zkey in enumerate(zkeys):
            out = dict(g)
            get = out.get
            for key, c in last[j].items():
                key -= zkey
                c = get(key, 0) - c
                if c:
                    out[key] = c
                else:
                    del out[key]
            last[j] = g
            g = out
        if g != hp[k]._terms:
            return False
    return True
