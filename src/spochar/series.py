"""Truncated generating-function coefficients feeding the determinant engine.

The h-family attached to variables (x_1..x_n; z_1..z_m) collects the
coefficients of the formal series

    prod_i 1/((1 - x_i w)(1 - x_i^{-1} w)) * prod_j (z-factors)

where the z-factors are 1/(1 - z_j w) (``plain``) or the pair
1/((1 - z_j w)(1 - z_j^{-1} w)) (``symmetric``).
Coefficients below index zero are zero and h_0 = 1.  The e-family expands
prod_j (1 - z_j^{-1} w), whose coefficients are elementary symmetric
polynomials of the -z_j^{-1}; a Newton-style recurrence ties the plain and
symmetric h-families together through it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .ring import ONE, ZERO, LaurentPoly, Monomial, _checked, dot, xvar, yvar, zvar

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


@lru_cache(maxsize=None)
def _geom_factors(spec: HSpec) -> tuple[Monomial, ...]:
    out: list[Monomial] = []
    for i in range(1, spec.n + 1):
        out.append(((xvar(i), 1),))
        out.append(((xvar(i), -1),))
    for j in range(1, spec.m + 1):
        out.append(((zvar(j), 1),))
        if spec.z_mode == "symmetric":
            out.append(((zvar(j), -1),))
    return tuple(out)


@lru_cache(maxsize=None)
def _geom_product(factors: tuple[Monomial, ...], N: int) -> tuple[LaurentPoly, ...]:
    """Coefficients of prod_u 1/(1 - u w) up to w^N.

    h_k is a sum of k factor monomials, so its exponents stay within
    k * max|e|; that bound is checked for h_N before any key is built.
    """
    top = max((abs(e) for u in factors for _, e in u), default=0)
    _checked(N * top)
    series: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(N)]
    for u in factors:
        (shift,) = LaurentPoly.monomial(u)._terms
        # multiplying by 1/(1 - u w): new_k = old_k + u * new_{k-1}, where
        # u * new_{k-1} shifts every key by u's; no coefficient cancels
        for prev, cur in zip(series, series[1:]):
            get = cur.get
            for key, c in prev.items():
                key += shift
                cur[key] = get(key, 0) + c
    return tuple(LaurentPoly(terms, k * top) for k, terms in enumerate(series))


def h_seq(spec: HSpec, N: int) -> list[LaurentPoly]:
    """[h_0, h_1, ..., h_N] for the given family."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return list(_geom_product(_geom_factors(spec), N))


def h_seq_y(k: int, N: int) -> list[LaurentPoly]:
    """Complete homogeneous polynomials in y_1..y_k up to degree N."""
    return list(_geom_product(tuple(((yvar(i), 1),) for i in range(1, k + 1)), N))


@lru_cache(maxsize=None)
def _e_seq(m: int) -> tuple[LaurentPoly, ...]:
    """(e_0, ..., e_m): elementary symmetric polynomials of -z_1^{-1}..-z_m^{-1}."""
    series = [ONE]
    for j in range(1, m + 1):
        zj_inv = LaurentPoly.variable(zvar(j), -1)
        nxt = [ONE] + [ZERO] * j
        for k in range(j + 1):
            nxt[k] = series[k] if k < len(series) else ZERO
            if k > 0:
                nxt[k] = nxt[k] - zj_inv * series[k - 1]
        series = nxt
    return tuple(series)


def check_newton(spec: HSpec, N: int) -> bool:
    """Verify h_k(plain) = sum_{i=0}^{m} e_i * h_{k-i}(symmetric) for k <= N."""
    if spec.m < 1:
        raise ValueError("the recurrence needs at least one z variable")
    hp = h_seq(HSpec(spec.n, spec.m, "plain"), N)
    hs = h_seq(HSpec(spec.n, spec.m, "symmetric"), N)
    es = _e_seq(spec.m)
    for k in range(N + 1):
        rhs = dot((es[i], hs[k - i]) for i in range(min(spec.m, k) + 1))
        if hp[k] != rhs:
            return False
    return True
