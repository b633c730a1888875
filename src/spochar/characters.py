"""Determinantal engine for universal symplectic and orthogonal characters.

Every character here is a determinant with entries drawn from the h-families
of :mod:`spochar.series`.  The universal symplectic/orthogonal functions live
in n paired variables x_i, x_i^{-1} and m plain variables z_j; skew variants
take an inner partition whose declared length fixes the matrix dimension.
Closed bialternant forms (ratios of alternants) come back as the two sides of
their multiplicative witness: instead of dividing, `bialternant` returns the
numerator and denominator * character for the caller to compare, so
everything stays inside the polynomial ring.  Half-integer exponents are
handled by the global substitution x_i = t_i^2.

All public functions return polynomials with integer coefficients and raise
if that expectation is ever violated.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .partitions import Partition, PartitionTooLong
from .ring import (
    ONE,
    ZERO,
    DimensionCapExceeded,
    LaurentPoly,
    det_of,
    tvar,
    xvar,
    zvar,
)
from .series import HSpec, h_seq, h_seq_y

UNIVERSAL_DIM_CAP = 6  # n + m
SKEW_DIM_CAP = 8  # l + n + m


def _h(hs: Sequence[LaurentPoly], k: int) -> LaurentPoly:
    return hs[k] if k >= 0 else ZERO


@lru_cache(maxsize=None)
def _jt_det(
    kind: str,
    alpha: tuple[int, ...],
    beta: tuple[int, ...],
    l: int,
    n: int,
    m: int,
) -> LaurentPoly:
    """Jacobi-Trudi style determinant shared by all h-based characters.

    `alpha` indexes the rows and `beta` the columns; the caller picks their
    common length, which is the matrix dimension (l+n+m for skew characters,
    the shape's own length for universal ones).  `alpha` may be an arbitrary
    integer sequence (the determinant then vanishes or matches a straightened
    character up to sign).  `kind` picks the entry shape: symplectic (second
    term added from column l+2 on), orthogonal (second term subtracted from
    column l+1 on), or symplectic over h'_k = h_k - h_{k-2}.  The h-table
    over all n+m variables runs exactly to the largest index an entry reads:
    h_k has O(k^(2n+m-1)) terms, and slack would grow the one table that
    every length shares past anything an entry reads.
    """
    dim = len(alpha)
    if dim == 0:
        return ONE
    # every index read is a row part plus a column part; the second term's
    # column part peaks at its first column (l+2 for sp, l+1 for o)
    col = max(j - b for j, b in enumerate(beta, 1))
    if kind != "o" and dim > l + 1:
        col = max(col, l)
    elif kind == "o" and dim > l:
        col = max(col, l - 1)
    N = max(max(a - i for i, a in enumerate(alpha, 1)) + col, 0)
    hs = h_seq(HSpec(n, m, "plain"), N)
    if kind == "sp_hprime":
        hs = [hs[k] - hs[k - 2] if k > 1 else hs[k] for k in range(N + 1)]
        kind = "sp"
    # entry (i, j) is h_{a_i - b_j + j} plus or minus h_{a_i - j + c} from
    # column `first` on, with a_i = alpha_i - i; a negative index reads zero
    sp = kind == "sp"
    first, c = (l + 2, 2 * l + 2) if sp else (l + 1, 2 * l)
    rows = []
    for i in range(1, dim + 1):
        a = alpha[i - 1] - i
        row = []
        for j in range(1, dim + 1):
            k = a - beta[j - 1] + j
            e = hs[k] if k >= 0 else ZERO
            k = a - j + c
            if j >= first and k >= 0:
                h = hs[k] if sp else -hs[k]
                e = e + h if e else h
            row.append(e)
        rows.append(row)
    return det_of(rows)


def _check_counts(n: int, m: int) -> None:
    if n < 0 or m < 0:
        raise ValueError("variable counts must be >= 0")


def universal(family: str, lam: Partition, n: int, m: int) -> LaurentPoly:
    """Universal symplectic ("sp") or orthogonal ("o") character in
    (x_1..x_n)^{+-} and z_1..z_m."""
    _check_counts(n, m)
    if n + m > UNIVERSAL_DIM_CAP:
        raise DimensionCapExceeded(f"n + m = {n + m} > {UNIVERSAL_DIM_CAP}")
    if lam.length > n + m:
        raise PartitionTooLong(f"{lam.parts} needs more than {n + m} rows")
    return universal_det(family, lam.parts, n, m).require_integer()


def universal_det(family: str, seq: Sequence[int], n: int, m: int) -> LaurentPoly:
    """Universal determinant over any integer sequence, at its own length.

    Trailing zeros are dropped, so the matrix has one row per remaining
    entry.  Padding would not change the value: a row appended with index 0
    at position i reads h_{j-i} in column j (the second term's index is
    negative there), so the padded matrix is block upper triangular and its
    appended diagonal block is unit upper triangular.  No variable count
    bounds the length, so the branching sums may take shapes with more rows
    than n+m variables.
    """
    if family not in ("sp", "o"):
        raise ValueError("family must be 'sp' or 'o'")
    seq = tuple(seq)
    while seq and seq[-1] == 0:
        seq = seq[:-1]
    return _jt_det(family, seq, (0,) * len(seq), 0, n, m)


def skew(family: str, outer: Partition, inner: Partition, n: int, m: int) -> LaurentPoly:
    """Skew universal character of either family; zero unless inner fits in outer."""
    _check_counts(n, m)
    dim = inner.declared_len + n + m
    if dim > SKEW_DIM_CAP:
        raise DimensionCapExceeded(f"l + n + m = {dim} > {SKEW_DIM_CAP}")
    return skew_det(family, outer, inner, n, m).require_integer()


def skew_det(family: str, outer: Partition, inner: Partition, n: int, m: int) -> LaurentPoly:
    """Skew determinant without the public dimension cap.

    The inner shape's declared length fixes the bra padding; the matrix has
    declared + n + m rows.  Branching sums need inner shapes declared as long
    as the outer partition, which can push past the public cap.
    """
    if family not in ("sp", "o"):
        raise ValueError("family must be 'sp' or 'o'")
    l = inner.declared_len
    dim = l + n + m
    if outer.length > dim:
        raise PartitionTooLong(f"{outer.parts} needs more than {dim} rows")
    return _jt_det(family, outer.padded(dim), inner.padded(dim), l, n, m)


@lru_cache(maxsize=None)
def _schur(parts: tuple[int, ...], k: int) -> LaurentPoly:
    if k == 0:
        return ONE
    hs = h_seq_y(k, parts[0] + k - 1)  # the largest index read, at i = 1, j = k
    rows = []
    for i in range(1, k + 1):
        a = parts[i - 1]
        rows.append([_h(hs, a - i + j) for j in range(1, k + 1)])
    return det_of(rows)


def schur(lam: Partition, k: int) -> LaurentPoly:
    """Classical Schur polynomial in y_1..y_k."""
    if k > SKEW_DIM_CAP:
        raise DimensionCapExceeded(f"k = {k} > {SKEW_DIM_CAP}")
    if lam.length > k:
        raise PartitionTooLong(f"{lam.parts} needs more than {k} rows")
    return _schur(lam.padded(k), k).require_integer()


# -- closed bialternant forms, as the two sides of their witness -------------

BIALTERNANT_KINDS = ("sp", "sp_odd", "o_even", "o_odd z=1", "o_odd z=-1")


def _xpow_diff(v, e: int) -> LaurentPoly:
    # v^e - v^{-e}; zero when e == 0
    if e == 0:
        return ZERO
    return LaurentPoly.variable(v, e) - LaurentPoly.variable(v, -e)


_ZINV = LaurentPoly.variable(zvar(1), -1)


def _xpow_diff_z(v, e: int) -> LaurentPoly:
    # v^e - v^{-e} - z^{-1}(v^{e-1} - v^{1-e}); in the z row this is z^e - z^{e-2}
    return _xpow_diff(v, e) - _ZINV * _xpow_diff(v, e - 1)


def _xpow_sum(v, e: int) -> LaurentPoly:
    # v^e + v^{-e}; the constant 2 when e == 0
    return LaurentPoly.variable(v, e) + LaurentPoly.variable(v, -e)


@lru_cache(maxsize=None)
def _alternant(make, vs: tuple, exps: tuple[int, ...]) -> LaurentPoly:
    """det [make(v, e)], one row per variable and one column per exponent;
    cached, so each Weyl denominator is built once per (kind, n)."""
    return det_of([[make(v, e) for e in exps] for v in vs])


def bialternant(kind: str, lam: Partition, n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The two sides (factor * det(num), det(den) * character) of a closed
    ratio-of-alternants form over n paired variables; the form holds exactly
    when they are equal, so nothing is divided.

    `kind` is one of BIALTERNANT_KINDS: the symplectic character ("sp"), the
    odd symplectic one with a plain variable z over n + 1 rows ("sp_odd"),
    the even orthogonal one ("o_even"), or the odd orthogonal one with z set
    to +1 or -1, whose half-integer exponents are read through x_i = t_i^2.
    """
    if kind not in BIALTERNANT_KINDS:
        known = ", ".join(BIALTERNANT_KINDS)
        raise ValueError(f"unknown bialternant kind {kind!r}; known: {known}")
    rows = n + 1 if kind == "sp_odd" else n
    if lam.length > rows:
        raise PartitionTooLong(f"{lam.parts} needs more than {rows} rows")
    lp = lam.padded(rows)
    vs = tuple(xvar(i) for i in range(1, n + 1))
    # the shape over a staircase: rows..1 for sp, rows-1..0 for o
    top = rows if kind in ("sp", "sp_odd") else rows - 1
    num_exps = tuple(a + top - j for j, a in enumerate(lp))
    den_exps = tuple(top - j for j in range(rows))
    factor = 1
    if kind in ("sp", "sp_odd"):
        character = universal("sp", lam, n, rows - n)
        make = den_make = _xpow_diff
        if kind == "sp_odd":
            vs += (zvar(1),)
            make = _xpow_diff_z
    elif kind == "o_even":
        character = universal("o", lam, n, 0)
        make = den_make = _xpow_sum
        # a nonzero last part doubles the ratio (the shape then indexes a pair)
        if rows and lp[-1]:
            factor = 2
    else:
        z_value = 1 if kind == "o_odd z=1" else -1
        sub = {xvar(i): LaurentPoly.variable(tvar(i), 2) for i in range(1, n + 1)}
        sub[zvar(1)] = LaurentPoly.constant(z_value)
        character = universal("o", lam, n, 1).substitute(sub)
        vs = tuple(tvar(i) for i in range(1, n + 1))
        num_exps = tuple(2 * e + 1 for e in num_exps)
        den_exps = tuple(2 * e + 1 for e in den_exps)
        make = den_make = _xpow_diff if z_value == 1 else _xpow_sum
    if rows == 0:
        # lam is empty and both alternants are the empty determinant
        return ONE, character
    num = _alternant(make, vs, num_exps)
    den = _alternant(den_make, vs, den_exps)
    return num * factor, den * character


def o_intermediate_reduce(lam: Partition, n: int, m: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The n x n determinant over h'_k = h_k - h_{k-2} that the padded
    universal orthogonal character collapses to, beside that character."""
    if lam.length > n:
        raise PartitionTooLong(f"{lam.parts} needs more than {n} rows")
    target = universal("o", lam, n, m)
    return _jt_det("sp_hprime", lam.padded(n), (0,) * n, 0, n, m), target
