"""Identity verification suites.

Each suite runs a bounded grid of exact checks and yields a CheckReport:
how many instances ran, which failed (smallest first), and any notes worth
surfacing (for example that the orthogonal Cauchy kernel matched).
Failures carry short textual renderings of both sides.  `run_suite` opens
each suite's session under its `SUITES` name and closes it into the report,
so a suite function only records its checks.

The final verdict of every comparison is structural equality of canonical
Laurent polynomials.  Random-point evaluation (grid.eval_points > 0) is a
cross-check only: it never replaces the structural comparison, it just also
evaluates both sides at random rational points and flags any disagreement
between the two methods, which would indicate an arithmetic bug rather than
a false identity.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from . import fock, series
from .characters import (
    BIALTERNANT_KINDS,
    bialternant,
    o_intermediate_reduce,
    schur,
    skew,
    skew_det,
    universal,
    universal_det,
)
from .partitions import (
    GTChain,
    Partition,
    enumerate_partitions,
    gt_chains,
    interlaces,
    partitions_of,
    subpartitions,
)
from .ring import ONE, ZERO, LaurentPoly, dot, xvar, yvar, zvar
from .series import HSpec, check_newton, newton_sides


class _GridFields(NamedTuple):
    n_range: tuple[int, int] = (0, 3)
    m_range: tuple[int, int] = (0, 2)
    max_weight: int = 6
    max_len: int = 4
    degree_cap: int = 6
    rng_seed: int = 0
    eval_points: int = 0


class Grid(_GridFields):
    """Bounds for a verification run; defaults match the acceptance grids.
    Every construction validates, ``_replace`` and ``_make`` included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for lo, hi in (self.n_range, self.m_range):
            if lo < 0 or hi < lo:
                raise ValueError("ranges must be 0 <= lo <= hi")
        if min(self.max_weight, self.max_len, self.degree_cap, self.eval_points) < 0:
            raise ValueError("bounds must be >= 0")
        return self

    @classmethod
    def _make(cls, iterable) -> "Grid":
        return cls(*iterable)  # through the check; `_replace` calls this

    @property
    def ns(self) -> range:
        return range(self.n_range[0], self.n_range[1] + 1)

    @property
    def ms(self) -> range:
        return range(self.m_range[0], self.m_range[1] + 1)

    def to_json(self) -> dict:
        return self._asdict()

    @classmethod
    def from_json(cls, data) -> "Grid":
        """Grid from a JSON object; raises ValueError on unknown keys or types."""
        if not isinstance(data, dict):
            raise ValueError("grid must be a JSON object")
        known = cls._fields
        kwargs = {}
        for key, value in data.items():
            if key not in known:
                raise ValueError(f"unknown grid key {key!r}; known: {', '.join(known)}")
            pair = key in ("n_range", "m_range")
            ints = value if pair and isinstance(value, (list, tuple)) else [value]
            if len(ints) != (2 if pair else 1) or any(type(v) is not int for v in ints):
                want = "a pair of integers" if pair else "an integer"
                raise ValueError(f"grid key {key!r} must be {want}")
            kwargs[key] = tuple(value) if pair else value
        return cls(**kwargs)


class CheckReport(NamedTuple):
    # no defaults: a default list would be one list shared by every report
    check_name: str
    instances_run: int
    failures: list[tuple[str, str, str]]
    notes: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "check_name": self.check_name,
            "instances_run": self.instances_run,
            "passed": self.passed,
            "failures": [
                {"instance": d, "lhs": l, "rhs": r} for d, l, r in self.failures
            ],
            "notes": list(self.notes),
        }


def _sides(lhs: LaurentPoly, rhs: LaurentPoly, limit: int = 160) -> tuple[str, str]:
    """Both sides cut to `limit` characters.  Where different sides cut alike,
    the rhs also names the term count and leading term of lhs - rhs."""
    a, b = (s if len(s) <= limit else s[: limit - 3] + "..." for s in (lhs.text(), rhs.text()))
    if a == b and lhs != rhs:
        diff = lhs - rhs
        lead = LaurentPoly.monomial(*diff.sorted_terms()[0]).text()
        b += f" [lhs - rhs: {diff.term_count} terms, leading {lead}]"
    return a, b


_EVAL_CHOICES = tuple(Fraction(v) for v in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))


class _Session:
    """Collects instances/failures for one suite and owns the comparer."""

    def __init__(self, name: str, grid: Grid):
        self.name = name
        self.grid = grid
        self.rng = random.Random(grid.rng_seed)
        self.instances = 0
        self._failures: list[tuple[tuple, str, str, str]] = []
        self.notes: list[str] = []

    def check(self, key, desc: str, lhs: LaurentPoly, rhs: LaurentPoly) -> bool:
        self.instances += 1
        structural = lhs == rhs
        if self.grid.eval_points > 0:
            names = sorted(lhs.variables() | rhs.variables())
            for _ in range(self.grid.eval_points):
                point = {v: self.rng.choice(_EVAL_CHOICES) for v in names}
                sampled = lhs.evaluate(point) == rhs.evaluate(point)
                if sampled != structural:
                    self.notes.append(
                        f"evaluation cross-check disagrees with structural "
                        f"comparison at {desc}"
                    )
                    self._failures.append((key, desc, *_sides(lhs, rhs)))
                    return False
        if not structural:
            self._failures.append((key, desc, *_sides(lhs, rhs)))
        return structural

    def fail(self, key, desc: str, lhs: str, rhs: str) -> None:
        self.instances += 1
        self._failures.append((key, desc, lhs, rhs))

    def ok(self) -> None:
        self.instances += 1

    def report(self) -> CheckReport:
        self._failures.sort(key=lambda f: (f[0], f[1]))
        return CheckReport(
            self.name,
            self.instances,
            [(d, l, r) for _, d, l, r in self._failures],
            self.notes,
        )


def _lams(max_weight: int, max_len: int):
    return list(enumerate_partitions(max_len, max_weight))


# -- commutation -------------------------------------------------------------

# relation tables: outer kind applied last.  Each entry maps (i, j) to the
# two composed words whose sum must be 0 (or delta_{ij} for the mixed ones).
_RELATIONS = (
    ("sp_plain", "Y", "Y", lambda i, j: ((i, j), (j + 1, i - 1)), False),
    ("sp_star", "Ystar", "Ystar", lambda i, j: ((i, j), (j - 1, i + 1)), False),
    ("sp_mixed", "Y", "Ystar", lambda i, j: ((i, j), (j + 1, i + 1)), True),
    ("o_plain", "W", "W", lambda i, j: ((i, j), (j + 1, i - 1)), False),
    ("o_star", "Wstar", "Wstar", lambda i, j: ((i, j), (j - 1, i + 1)), False),
    ("o_mixed", "W", "Wstar", lambda i, j: ((i, j), (j + 1, i + 1)), True),
)


def check_commutation(ses: _Session, grid: Grid) -> None:
    """Quadratic exchange relations for all four mode families, on every
    Schur basis vector s_mu up to the weight bound.

    Each residual is the sum of two composed rows (see `fock.compose`), less
    delta where the relation has one, so it is zero exactly when every entry
    is 0.  A failure reports the residual's support in power sums."""
    bound = grid.degree_cap
    basis = [
        mu for w in range(grid.max_weight + 1) for mu in partitions_of(w)
    ]
    pairs = [
        (i, j)
        for i in range(-bound, bound + 1)
        for j in range(-bound, bound + 1)
    ]
    for name, kind_a, kind_b, words, mixed in _RELATIONS:
        # second word swaps the families: X_a X*_b + X*_a' X_b'
        second_out = kind_b if mixed else kind_a
        second_in = kind_a if mixed else kind_b
        instances = [(i, j, *words(i, j)) for i, j in pairs]
        for mu in basis:
            # compositions of mu by index pair: within the pure families the
            # second word of one index pair is the first word of another; the
            # mixed ones swap the kinds, so their two words get a dict each
            firsts: dict[tuple[int, int], dict] = {}
            seconds = {} if mixed else firsts
            for i, j, first, second in instances:
                row1 = firsts.get(first)
                if row1 is None:
                    row1 = firsts[first] = fock.compose(kind_a, first[0], kind_b, first[1], mu)
                row2 = seconds.get(second)
                if row2 is None:
                    row2 = seconds[second] = fock.compose(
                        second_out, second[0], second_in, second[1], mu
                    )
                acc = row1.copy()
                get = acc.get
                for nu, c in row2.items():
                    acc[nu] = get(nu, 0) + c
                if mixed and i == j:
                    acc[mu] = get(mu, 0) - 1
                if any(acc.values()):
                    ses.fail(
                        (sum(mu), name, i, j),
                        f"{name} i={i} j={j} mu={list(mu)}",
                        f"residual on {len(fock.schur_to_power_sums(acc))} basis vectors",
                        "0",
                    )
                else:
                    ses.ok()


def check_orthonormality(ses: _Session, grid: Grid) -> None:
    """pairing(mu, lam) is 1 when the partitions agree and 0 otherwise."""
    lams = _lams(grid.max_weight, grid.max_len)
    for family in ("sp", "o"):
        for mu in lams:
            for lam in lams:
                got = fock.pairing(mu, lam, family)
                want = ONE if mu == lam else ZERO
                ses.check(
                    (mu.weight + lam.weight, family),
                    f"{family} mu={mu.parts} lam={lam.parts}",
                    got,
                    want,
                )


def check_bialternants(ses: _Session, grid: Grid, kinds=BIALTERNANT_KINDS) -> None:
    """Every closed ratio form of `kinds` against its determinant,
    multiplicatively."""
    n_lo, n_hi = grid.n_range
    for kind in kinds:
        # the forms with a plain variable z stop at n = 2; sp_odd has n+1 rows
        cap = 3 if kind in ("sp", "o_even") else 2
        for n in range(n_lo, min(cap, n_hi) + 1):
            for lam in _lams(grid.max_weight, n + (kind == "sp_odd")):
                ses.check(
                    (lam.weight, kind, n),
                    f"{kind} lam={lam.parts} n={n}",
                    *bialternant(kind, lam, n),
                )


# -- branching ---------------------------------------------------------------


def _run_branching(ses, fam, n_vals, m_vals, grid, tag: str) -> None:
    # The sum runs over every subshape of lam, not only those short enough to
    # fit the leftover alphabet: the left factor is the universal determinant
    # at the subshape's own length (for plain variables nonzero even past the
    # variable count), and the skew factor pads its inner shape to len(lam)
    # so that the inserted bras can see every length-len(lam) component.
    # Truncating the sum at the leftover alphabet size drops those components
    # and the identity fails, e.g. for lam=(1,1) over two plain variables
    # split 1|1.
    for n in n_vals:
        for m in m_vals:
            # the skew factor's variables move to the top of each block; a
            # block it takes whole keeps its names
            renames = {
                (k, s): {
                    **{xvar(i): xvar(n - k + i) for i in range(1, k + 1) if n > k},
                    **{zvar(j): zvar(m - s + j) for j in range(1, s + 1) if m > s},
                }
                for k in range(n + 1)
                for s in range(m + 1)
            }
            for lam in _lams(grid.max_weight, n + m):
                lhs = universal(fam, lam, n, m)
                big = lam.length
                etas = [(eta, eta.with_declared(big)) for eta in subpartitions(lam, big)]
                for k in range(n + 1):
                    for s in range(m + 1):
                        pairs = []
                        rename = renames[k, s]
                        # every inner character first, so that the skew
                        # determinants below run back to back and share
                        # the minors of their one outer shape
                        inners = [
                            (universal_det(fam, eta.parts, n - k, m - s), padded)
                            for eta, padded in etas
                        ]
                        for inner, padded in inners:
                            if not inner:
                                continue
                            piece = skew_det(fam, lam, padded, k, s)
                            if not piece:
                                continue
                            if rename:
                                piece = piece.rename(rename)
                            pairs.append((inner, piece))
                        ses.check(
                            (lam.weight, tag, n, m, k, s),
                            f"{tag} lam={lam.parts} n={n} m={m} split k={k} s={s}",
                            lhs,
                            dot(pairs),
                        )


def check_branching(ses: _Session, grid: Grid, family: str) -> None:
    """Universal branching over every split of both variable blocks."""
    _run_branching(ses, family, grid.ns, grid.ms, grid, family)


def check_branching_odd_sp(ses: _Session, grid: Grid) -> None:
    """The single-plain-variable branching pair: the plain variable may ride
    with the skew factor (s=1) or with the inner character (s=0); plus the
    one-variable power collapse, which needs the horizontal-strip condition."""
    _run_branching(ses, "sp", grid.ns, [1], grid, "sp odd")
    for n in grid.ns:
        for lam in _lams(grid.max_weight, n + 1):
            big = lam.length
            # power collapse: one-variable skew pieces are single powers on
            # horizontal strips and vanish otherwise
            pairs = []
            for mu in subpartitions(lam, big):
                piece = skew_det("sp", lam, mu.with_declared(big), 0, 1)
                strip = interlaces(mu, lam)
                want = (
                    LaurentPoly.variable(zvar(1), lam.weight - mu.weight)
                    if strip
                    else ZERO
                )
                ses.check(
                    (lam.weight, "power-piece", n, mu.parts),
                    f"one-var skew lam={lam.parts} mu={mu.parts} n={n}",
                    piece,
                    want,
                )
                if strip:
                    pairs.append((universal_det("sp", mu.parts, n, 0), want))
            ses.check(
                (lam.weight, "power-sum", n),
                f"power collapse lam={lam.parts} n={n}",
                universal("sp", lam, n, 1),
                dot(pairs),
            )


# -- Cauchy ------------------------------------------------------------------


def _pair_product(count: int, strict: bool, cap: int) -> list[LaurentPoly]:
    """prod_{k<l} (1 - y_k y_l) over y_1..y_count (k <= l unless `strict`),
    graded: entry e is its part of y-degree e, for e <= cap."""
    graded = [ONE]
    for k in range(1, count + 1):
        for l in range(k + 1 if strict else k, count + 1):
            pair = LaurentPoly.variable(yvar(k)) * LaurentPoly.variable(yvar(l))
            # each factor adds 2 to the top degree
            graded = [
                (graded[e] if e < len(graded) else ZERO)
                - (pair * graded[e - 2] if e >= 2 else ZERO)
                for e in range(min(len(graded) + 2, cap + 1))
            ]
    return graded


def _cauchy_rhs(n: int, m: int, ycount: int, strict: bool, cap: int) -> LaurentPoly:
    # prod over the alphabet u and s of 1/(1 - u y_s), graded by y-degree
    gs = series.h_seq_cauchy(HSpec(n, m), ycount, cap)
    ps = _pair_product(ycount, strict, cap)
    return dot((p, gs[d]) for e, p in enumerate(ps) for d in range(cap - e + 1))


def _cauchy_lhs(family: str, n: int, m: int, ycount: int, cap: int) -> LaurentPoly:
    return dot(
        (universal(family, lam, n, m), schur(lam, ycount))
        for lam in _lams(cap, ycount)
    )


def check_cauchy(ses: _Session, grid: Grid, family: str) -> None:
    """Character-weighted Schur sums against truncated product sides.

    Both sides are compared up to total y-degree `degree_cap`; n and m are
    intersected with each family's designed envelope so a full run stays
    affordable.  The symplectic kernel is the strict pair product (k<l), the
    orthogonal one the non-strict product (k<=l), noted when it matches.
    """
    cap = grid.degree_cap
    n_lo, n_hi = grid.n_range
    m_lo, m_hi = grid.m_range
    if family == "sp_odd":
        pairs = [(n, 1) for n in range(n_lo, min(n_hi, 2) + 1)]
    elif family == "sp_n0":
        pairs = [(0, m) for m in range(m_lo, min(m_hi, 2) + 1)]
    else:
        pairs = [
            (n, m)
            for n in range(n_lo, min(n_hi, 2) + 1)
            for m in range(m_lo, min(m_hi, 1) + 1)
        ]
    for n, m in pairs:
        ycount = n + m
        # the product side first: its bound check refuses an oversized cap
        # before the character sum enumerates a single shape
        rhs = _cauchy_rhs(n, m, ycount, family != "o", cap)
        lhs = _cauchy_lhs("o" if family == "o" else "sp", n, m, ycount, cap)
        passed = ses.check((n + m, n, m), f"{family} n={n} m={m} D={cap}", lhs, rhs)
        if passed and family == "o":
            ses.notes.append(f"n={n} m={m}: non-strict pair product (k<=l) matches")


# -- transitions, GT, dual engine ---------------------------------------------


def gt_weight(chain: GTChain) -> LaurentPoly:
    """The chain's weight monomial x_1^{e_1} ... x_{n+1}^{e_{n+1}}."""
    exps = chain.weight_exponents()
    return LaurentPoly.monomial(tuple((xvar(i), e) for i, e in enumerate(exps, 1) if e))


def _is_partition_seq(seq) -> bool:
    return all(a >= b for a, b in zip(seq, seq[1:])) and (not seq or seq[-1] >= 0)


def check_transition_odd(ses: _Session, grid: Grid) -> None:
    """Rewrites of the one-plain-variable characters as signed sums of
    paired-variable characters with the plain variable adjoined as a pair."""
    for n in grid.ns:
        # the symplectic sum runs over n+1 rows, the orthogonal one over n
        for family, rows in (("sp", n + 1), ("o", n)):
            for lam in _lams(grid.max_weight, rows):
                lp = lam.padded(rows)
                pairs = []
                for eps in product((0, 1), repeat=rows):
                    seq = tuple(a - e for a, e in zip(lp, eps))
                    if _is_partition_seq(seq):
                        term = universal(family, Partition(seq), n + 1, 0).rename(
                            {xvar(n + 1): zvar(1)}
                        )
                        d = sum(eps)
                        zpow = LaurentPoly.monomial(((zvar(1), -d),), (-1) ** d)
                        pairs.append((term, zpow))
                    else:
                        ses.check(
                            (lam.weight, f"{family}-drop", n, seq),
                            f"{family} dropped term lam={lam.parts} n={n}"
                            f" eps={list(eps)}",
                            universal_det(family, seq, n + 1, 0),
                            ZERO,
                        )
                ses.check(
                    (lam.weight, family, n),
                    f"{family} transition lam={lam.parts} n={n}",
                    universal(family, lam, n, 1),
                    dot(pairs),
                )


def check_gt_sum(ses: _Session, grid: Grid) -> None:
    """Chain-weight sums against the determinant with the plain variable
    renamed to the extra paired variable; counts checked at the all-ones point."""
    for n in range(max(1, grid.n_range[0]), grid.n_range[1] + 1):
        for lam in _lams(grid.max_weight, n):
            chains = list(gt_chains(lam, n))
            total = sum((gt_weight(chain) for chain in chains), ZERO)
            rhs = universal("sp", lam, n, 1).rename({zvar(1): xvar(n + 1)})
            ses.check(
                (lam.weight, "sum", n),
                f"gt sum lam={lam.parts} n={n}",
                total,
                rhs,
            )
            dim = rhs.evaluate({v: 1 for v in rhs.variables()})
            ses.check(
                (lam.weight, "count", n),
                f"gt count lam={lam.parts} n={n}",
                LaurentPoly.constant(len(chains)),
                LaurentPoly.constant(dim),
            )


def check_fock_vs_determinant(ses: _Session, grid: Grid) -> None:
    """Operator matrix elements against skew determinants, both families."""
    dim_cap = 6
    alphas = _lams(grid.max_weight, dim_cap)
    for family in ("sp", "o"):
        for n in grid.ns:
            for m in grid.ms:
                for alpha in alphas:
                    for beta in subpartitions(alpha, dim_cap):
                        l = beta.length
                        if l + n + m > dim_cap or alpha.length > l + n + m:
                            continue
                        b = beta.with_declared(l)
                        me = fock.matrix_element(b, n, m, alpha, family)
                        det = skew(family, alpha, b, n, m)
                        ses.check(
                            (alpha.weight, family, n, m, beta.parts),
                            f"{family} alpha={alpha.parts} beta={beta.parts} "
                            f"n={n} m={m}",
                            me,
                            det,
                        )


def check_reductions(ses: _Session, grid: Grid) -> None:
    """Specialization bundle: no-paired-variable branchings, the reduced
    orthogonal determinant, the z=+-1 closed-form witnesses, and stability
    under permuting the plain-variable block."""
    # (a) branchings with the paired block empty
    _run_branching(ses, "sp", [0], grid.ms, grid, "sp n=0")
    _run_branching(ses, "o", [0], grid.ms, grid, "o n=0")
    # (b) reduced determinant over h'_k = h_k - h_{k-2}
    for n in grid.ns:
        for m in grid.ms:
            for lam in _lams(grid.max_weight, n):
                ses.check(
                    (lam.weight, "reduce", n, m),
                    f"reduce lam={lam.parts} n={n} m={m}",
                    *o_intermediate_reduce(lam, n, m),
                )
    # (c) closed odd-orthogonal forms at z = +-1
    check_bialternants(ses, grid, ("o_odd z=1", "o_odd z=-1"))
    # (d) plain-block permutation stability for zero-padded shapes
    for n in grid.ns:
        for m in grid.ms:
            if m < 2:
                continue
            for lam in _lams(grid.max_weight, n + 1):
                base = universal("sp", lam, n, m)
                for j in range(1, m):
                    swapped = base.rename(
                        {zvar(j): zvar(j + 1), zvar(j + 1): zvar(j)}
                    )
                    ses.check(
                        (lam.weight, "z-swap", n, m, j),
                        f"z-swap lam={lam.parts} n={n} m={m} j={j}",
                        base,
                        swapped,
                    )


def check_newton_suite(ses: _Session, grid: Grid) -> None:
    """The plain h-family as prod_j (1 - z_j^{-1} w) times the symmetric one,
    to degree degree_cap + 2, once per (n, m) with m >= 1."""
    N = grid.degree_cap + 2
    for n in grid.ns:
        for m in range(max(1, grid.m_range[0]), grid.m_range[1] + 1):
            spec = HSpec(n, m, "plain")
            k = check_newton(spec, N)
            if k is None:
                ses.ok()
                continue
            # both sides at the failing degree, the last that newton_sides yields
            *_, (_, plain, product) = newton_sides(spec, k)
            ses.fail(
                (n + m, n, m),
                f"newton n={n} m={m} N={N}",
                f"degree {k}: plain h_{k} has {plain.term_count} terms",
                f"degree {k}: product side has {product.term_count} terms",
            )


SUITES = {
    "commutation": check_commutation,
    "orthonormality": check_orthonormality,
    "bialternants": check_bialternants,
    "branching_sp": lambda ses, grid: check_branching(ses, grid, "sp"),
    "branching_o": lambda ses, grid: check_branching(ses, grid, "o"),
    "branching_odd_sp": check_branching_odd_sp,
    "cauchy_sp": lambda ses, grid: check_cauchy(ses, grid, "sp"),
    "cauchy_sp_odd": lambda ses, grid: check_cauchy(ses, grid, "sp_odd"),
    "cauchy_sp_n0": lambda ses, grid: check_cauchy(ses, grid, "sp_n0"),
    "cauchy_o": lambda ses, grid: check_cauchy(ses, grid, "o"),
    "transition_odd": check_transition_odd,
    "gt_sum": check_gt_sum,
    "fock_vs_determinant": check_fock_vs_determinant,
    "reductions": check_reductions,
    "newton": check_newton_suite,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, grid: Grid | None = None) -> CheckReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    grid = grid or Grid()
    ses = _Session(name, grid)
    SUITES[name](ses, grid)
    return ses.report()
