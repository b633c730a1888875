"""Exact Laurent arithmetic: ring axioms, printing, evaluation, determinants.

The determinant tests compare the production cofactor expansion against a
brute-force Leibniz sum, which is slow but obviously correct.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spochar import clear_caches, ring
from spochar.ring import (
    DET_DIM_CAP,
    ONE,
    ZERO,
    DimensionCapExceeded,
    LaurentPoly,
    MissingAssignment,
    NonIntegerCoefficient,
    NonSquareMatrix,
    SlotOverflow,
    VarName,
    ZeroAssignedToLaurentVariable,
    det_of,
    dot,
    var,
    xvar,
    yvar,
    zvar,
)

X1 = LaurentPoly.variable(xvar(1))
X1I = LaurentPoly.variable(xvar(1), -1)
Z1 = LaurentPoly.variable(zvar(1))


def leibniz_det(rows):
    """Permutation-sum determinant, the oracle for det_of."""
    n = len(rows)
    total = ZERO
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = ONE if sign > 0 else LaurentPoly.constant(Fraction(-1))
        for i in range(n):
            prod = prod * rows[i][perm[i]]
    # fold into the running sum
        total = total + prod
    return total


def random_poly(rng, max_terms=3):
    p = ZERO
    for _ in range(rng.randrange(max_terms + 1)):
        v = [xvar(1), xvar(2), zvar(1)][rng.randrange(3)]
        e = rng.randrange(-2, 3)
        c = Fraction(rng.randrange(-3, 4))
        p = p + LaurentPoly.constant(c) * LaurentPoly.variable(v, e)
    return p


# --- constructors and basic identities ---


def test_add_zero_is_identity():
    p = X1 + X1I
    assert p + ZERO == p
    assert ZERO + p == p


def test_additive_inverse():
    p = X1 + LaurentPoly.constant(Fraction(-1)) * X1
    assert p == ZERO
    assert not p


def test_cancellation_in_sum():
    left = X1 + ONE
    right = X1I + LaurentPoly.constant(Fraction(-1))
    assert (left + right) == X1 + X1I


def test_difference_of_squares():
    assert (X1 - X1I) * (X1 + X1I) == X1 * X1 - X1I * X1I


def test_square_of_sum():
    sq = (X1 + X1I) * (X1 + X1I)
    assert sq == X1 * X1 + LaurentPoly.constant(Fraction(2)) + X1I * X1I
    assert sq.text() == "x1^2 + 2 + x1^-2"


def test_exponent_zero_variable_is_one():
    assert LaurentPoly.variable(xvar(1), 0) == ONE


def test_text_ordering_is_graded_lex_descending():
    p = Z1 + X1 + X1I
    assert p.text() == "z1 + x1 + x1^-1"
    assert ZERO.text() == "0"
    assert ONE.text() == "1"


# --- evaluation ---


def test_evaluate_simple_points():
    p = X1 + X1I
    assert p.evaluate({xvar(1): Fraction(2)}) == Fraction(5, 2)
    q = X1 * X1 - X1I * X1I
    assert q.evaluate({xvar(1): Fraction(3)}) == Fraction(80, 9)


def test_evaluate_missing_assignment():
    with pytest.raises(MissingAssignment):
        (X1 + Z1).evaluate({xvar(1): Fraction(1)})


def test_evaluate_zero_forbidden():
    with pytest.raises(ZeroAssignedToLaurentVariable):
        (X1 + X1I).evaluate({xvar(1): Fraction(0)})


def test_evaluate_checks_every_variable_of_a_zero_term():
    # x1 = 0 zeroes the term, but z1 comes after it and must still be checked
    p = X1 * LaurentPoly.variable(zvar(1), -1)
    with pytest.raises(ZeroAssignedToLaurentVariable):
        p.evaluate({xvar(1): Fraction(0), zvar(1): Fraction(0)})
    with pytest.raises(MissingAssignment):
        p.evaluate({xvar(1): Fraction(0)})
    assert p.evaluate({xvar(1): Fraction(0), zvar(1): Fraction(2)}) == 0


def test_evaluate_constant_needs_nothing():
    assert LaurentPoly.constant(Fraction(5)).evaluate({}) == Fraction(5)


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(11)
    pt = {xvar(1): Fraction(3, 2), xvar(2): Fraction(-2), zvar(1): Fraction(1, 3)}
    for _ in range(40):
        a = random_poly(rng)
        b = random_poly(rng)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)


# --- rename / substitute / integrality ---


def test_rename_swaps_variables():
    p = X1 + Z1
    q = p.rename({xvar(1): xvar(2)})
    assert q == LaurentPoly.variable(xvar(2)) + Z1


def test_rename_respects_negative_exponents():
    q = X1I.rename({xvar(1): zvar(2)})
    assert q == LaurentPoly.variable(zvar(2), -1)


def _block_moves():
    """The renames of the verify suites: each branching split moves
    x_1..x_k to x_{n-k+1}..x_n and z_1..z_s to z_{m-s+1}..z_m (n <= 3,
    m <= 2), and `reductions` swaps z_j and z_{j+1}."""
    for n in range(4):
        for m in range(3):
            for k in range(n + 1):
                for s in range(m + 1):
                    mapping = {xvar(i): xvar(n - k + i) for i in range(1, k + 1) if n > k}
                    mapping.update({zvar(j): zvar(m - s + j) for j in range(1, s + 1) if m > s})
                    if mapping:
                        # the skew piece lives on the variables that move
                        yield mapping, [xvar(i) for i in range(1, k + 1)] + [
                            zvar(j) for j in range(1, s + 1)
                        ]
    for n, m in ((0, 2), (2, 2), (1, 3)):
        for j in range(1, m):
            yield {zvar(j): zvar(j + 1), zvar(j + 1): zvar(j)}, [
                xvar(i) for i in range(1, n + 1)
            ] + [zvar(i) for i in range(1, m + 1)]


def test_block_rename_keeps_the_bound_and_calls_no_substitute(monkeypatch):
    # the benchmark's tracer counts both methods as one span, so neither
    # may call the other
    substitute = LaurentPoly.substitute
    calls = []

    def counted(self, mapping):
        calls.append(mapping)
        return substitute(self, mapping)

    monkeypatch.setattr(LaurentPoly, "substitute", counted)
    for mapping, present in _block_moves():
        # every variable with positive and negative exponents, and a
        # Fraction coefficient
        poly = ONE
        for v in present:
            step = LaurentPoly.variable(v, 2) + LaurentPoly.variable(v, -3)
            poly = poly * (step + LaurentPoly.constant(Fraction(1, 2)))
        want = substitute(poly, {a: LaurentPoly.variable(b) for a, b in mapping.items()})
        got = poly.rename(mapping)
        assert calls == []
        assert list(got._terms.items()) == list(want._terms.items()), mapping
        # each image collects one exponent and no kept image occurs, so no
        # two exponents meet and both keep the bound
        assert got._bound == want._bound == poly._bound


def test_rename_matches_substitute_where_exponents_merge():
    X2, X3 = LaurentPoly.variable(xvar(2)), LaurentPoly.variable(xvar(3))
    cases = (
        # x2 is an image and stays in place
        (X1 * X2 + X3, {xvar(1): xvar(2)}, X2 * X2 + X3, 4),
        # two variables onto one
        (X1 + X2 * X2, {xvar(1): xvar(3), xvar(2): xvar(3)}, X3 + X3 * X3, 4),
        # an image in place but absent from the polynomial: nothing merges
        (X1 + X3, {xvar(1): xvar(2)}, X2 + X3, 1),
    )
    for poly, mapping, value, bound in cases:
        got = poly.rename(mapping)
        want = poly.substitute({a: LaurentPoly.variable(b) for a, b in mapping.items()})
        assert got == value and got._bound == bound
        assert list(got._terms.items()) == list(want._terms.items())
        assert got._bound == want._bound


def test_substitute_single_term_targets():
    # targets must be units (one term), so negative exponents stay meaningful
    img = LaurentPoly.constant(Fraction(2)) * LaurentPoly.variable(zvar(1), -1)
    got = (X1 * X1 + X1I).substitute({xvar(1): img})
    assert got == img * img + LaurentPoly.constant(Fraction(1, 2)) * Z1
    with pytest.raises(ValueError):
        X1.substitute({xvar(1): Z1 + ONE})


def test_substitute_counts_a_kept_image_only_where_it_occurs():
    X2 = LaurentPoly.variable(xvar(2))
    T1 = LaurentPoly.variable(ring.tvar(1))
    cube = X1 * X1 * X1
    # x2 and t1 are kept images the polynomial does not use: no own exponent
    assert cube.substitute({xvar(1): X2})._bound == 3
    assert cube.substitute({xvar(1): T1 * T1})._bound == 6
    # x2 occurs, so its slot holds its own exponent next to x1's image
    got = (cube * X2).substitute({xvar(1): X2})
    assert got == X2 * X2 * X2 * X2 and got._bound == 8
    # so a square image of an exponent just below HALF/2 now fits
    edge = LaurentPoly.variable(xvar(1), HALF // 2 - 1).substitute({xvar(1): X2 * X2})
    assert edge == LaurentPoly.variable(xvar(2), HALF - 2)


def test_substitute_checks_the_bound_before_building_a_key(monkeypatch):
    # the bound is checked once the images are read, before any term's key
    # is decoded to build its image
    X2 = LaurentPoly.variable(xvar(2))
    cases = (
        # x1^(HALF/2) -> x2^2 reaches the slot limit in a slot no term uses
        (LaurentPoly.variable(xvar(1), HALF // 2), X2 * X2),
        # x1^(HALF/2 - 1) * x2 -> x2 reaches it in the slot x2 itself uses
        (LaurentPoly.variable(xvar(1), HALF // 2 - 1) * X2, X2),
    )
    decode = ring._decode
    for poly, image in cases:
        clear_caches()  # a cached plan decodes no image
        decoded = []
        monkeypatch.setattr(ring, "_decode", lambda key: decoded.append(key) or decode(key))
        with pytest.raises(SlotOverflow):
            poly.substitute({xvar(1): image})
        assert decoded == list(image._terms)


def test_require_integer():
    ok = X1 + LaurentPoly.constant(Fraction(2))
    assert ok.require_integer() == ok
    with pytest.raises(NonIntegerCoefficient):
        LaurentPoly.constant(Fraction(1, 2)).require_integer()


def test_require_integer_decodes_only_the_offending_key():
    ok = X1 * Z1 + X1I
    ring._decode.cache_clear()
    ok.require_integer()
    info = ring._decode.cache_info()
    assert info.hits + info.misses == 0
    half = X1 + LaurentPoly.constant(Fraction(1, 2)) * Z1
    with pytest.raises(NonIntegerCoefficient, match=r"^coefficient 1/2 of z1$"):
        half.require_integer()


def test_mul_truncated_agrees_below_cap():
    a = X1 + Z1
    b = X1I + Z1
    full = a * b
    # cap high enough that nothing in the z family is dropped
    assert a.mul_truncated(b, 1, 5) == full
    trunc = a.mul_truncated(b, 1, 1)
    dropped = full + LaurentPoly.constant(Fraction(-1)) * trunc
    for mono, _ in dropped.items():
        zdeg = sum(e for v, e in mono if v.rank == 1)
        assert zdeg > 1


# --- determinants ---


def test_det_one_by_one():
    assert det_of([[ONE]]) == ONE
    p = X1 + X1I
    assert det_of([[p, ONE], [ZERO, ONE]]) == p


def test_det_rejects_empty_matrix():
    with pytest.raises(ValueError):
        det_of([])


def test_det_rejects_ragged_rows():
    with pytest.raises(ValueError, match="ragged"):
        det_of([[ONE, ZERO], [ONE]])


def test_det_rejects_non_square():
    with pytest.raises(NonSquareMatrix):
        det_of([[ONE, ONE]])


def test_det_small_dimensions_keep_the_error_order():
    # empty before ragged before non-square, as at every dimension
    for bad, err in (
        ([], "dimensions must be positive"),
        ([[]], "dimensions must be positive"),
        ([[], [ONE]], "dimensions must be positive"),
        ([[ONE], [ONE, ONE]], "ragged"),
        ([[ONE, ONE], [ONE]], "ragged"),
    ):
        with pytest.raises(ValueError, match=err):
            det_of(bad)
    for bad in ([[ONE, ONE]], [[ONE], [ONE]], [[ONE, ONE]] * 3):
        with pytest.raises(NonSquareMatrix):
            det_of(bad)


def test_det_small_dimensions_match_leibniz():
    half = LaurentPoly.constant(Fraction(1, 2))
    pool = [
        ZERO,
        ONE,
        half * X1,
        LaurentPoly.constant(Fraction(2)) * X1I + Z1,
        half * Z1 - X1 * X1,
    ]
    for a in pool:
        got = det_of([[a]])
        assert got == a and got._bound == a._bound
    for a, b, c, d in itertools.product(pool, repeat=4):
        got = det_of([[a, b], [c, d]])
        assert got == leibniz_det([[a, b], [c, d]])
        assert canonical(got)
        # the bound of the expansion's one product sum
        assert got._bound == max(
            [p._bound + q._bound for p, q in ((a, d), (b, c)) if p and q], default=0
        )


def test_det_returns_a_single_column_minor_as_its_entry(monkeypatch):
    half = LaurentPoly.constant(Fraction(1, 2))
    rows = [[X1, ONE, Z1], [ONE, X1I, Z1], [half * Z1, ONE, X1]]
    want = leibniz_det(rows)
    # the entry itself, and ZERO for any zero entry, as the one-pair sum was
    entries = [(a, dot([(a, ONE)])) for a in (half * X1 + Z1, ZERO, X1 - X1)]
    calls = []
    monkeypatch.setattr(ring, "dot", lambda pairs: calls.append(1) or dot(pairs))
    assert det_of(rows) == want
    assert len(calls) == 4  # the whole expansion and its three 2x2 minors, not 7
    for a, one_pair in entries:
        got = det_of([[a]])
        assert got._terms == one_pair._terms and got._bound == one_pair._bound
    assert len(calls) == 4


def test_det_respects_cap():
    def identity(n):
        return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]

    assert det_of(identity(DET_DIM_CAP)) == ONE
    with pytest.raises(DimensionCapExceeded):
        det_of(identity(DET_DIM_CAP + 1))


def test_det_matches_leibniz_on_random_matrices():
    rng = random.Random(7)
    for dim in (1, 2, 3, 4):
        for _ in range(6):
            rows = [[random_poly(rng) for _ in range(dim)] for _ in range(dim)]
            assert det_of(rows) == leibniz_det(rows)


def test_det_row_swap_flips_sign():
    rng = random.Random(13)
    rows = [[random_poly(rng) for _ in range(3)] for _ in range(3)]
    swapped = [rows[1], rows[0], rows[2]]
    assert det_of(swapped) == LaurentPoly.constant(Fraction(-1)) * det_of(rows)


def test_det_repeated_row_vanishes():
    rng = random.Random(17)
    r = [random_poly(rng) for _ in range(3)]
    s = [random_poly(rng) for _ in range(3)]
    assert det_of([r, r, s]) == ZERO


# --- property tests ---

small_coeffs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
)


@st.composite
def polys(draw, max_terms=4):
    p = ZERO
    for _ in range(draw(st.integers(0, max_terms))):
        fam = draw(st.sampled_from([xvar, zvar, yvar]))
        v = fam(draw(st.integers(1, 2)))
        e = draw(st.integers(-2, 2))
        c = draw(small_coeffs)
        p = p + LaurentPoly.constant(c) * LaurentPoly.variable(v, e)
    return p


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a
    assert a * ZERO == ZERO


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), polys(), polys(), st.sampled_from([xvar, zvar, yvar]), st.integers(-3, 4))
def test_mul_truncated_is_the_product_with_high_terms_dropped(a, b, c, d, fam, cap):
    # products of the one-variable draws give mixed monomials with negative
    # degrees, and the shared summands make partial products cancel
    left, right = a * b + c, (b - a) * (d + c) + a
    rank = fam(1).rank
    kept = sum(
        (
            LaurentPoly.monomial(m, coeff)
            for m, coeff in (left * right).items()
            if sum(e for v, e in m if v.rank == rank) <= cap
        ),
        ZERO,
    )
    assert left.mul_truncated(right, rank, cap) == kept


@settings(max_examples=30, deadline=None)
@given(polys(max_terms=2), polys(max_terms=2), polys(max_terms=2), polys(max_terms=2))
def test_det_linear_in_first_row(a, b, c, d):
    second = [d, c + ONE]
    left = det_of([[a, c], second])
    right = det_of([[b, d], second])
    both = det_of([[a + b, c + d], second])
    assert both == left + right


def test_var_name_ordering_families():
    # family rank orders x < z < y inside the monomial key
    assert var("x", 1) == xvar(1)
    assert var("z", 2) == zvar(2)
    assert var("y", 1) == yvar(1)
    assert xvar(1) == VarName(0, 1)


# --- packed monomial keys against a tuple-keyed reference ---
#
# The reference keeps each polynomial as {tuple monomial: coefficient} and
# merges exponents variable by variable, as the ring did before monomials
# were packed.

HALF = 1 << (ring.SLOT_BITS - 1)


def ref_clean(terms):
    return {m: c for m, c in terms.items() if c}


def ref_monomial(exps):
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def ref_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return ref_clean(out)


def ref_mul(p, q):
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            exps = dict(ma)
            for v, e in mb:
                exps[v] = exps.get(v, 0) + e
            m = ref_monomial(exps)
            out[m] = out.get(m, 0) + ca * cb
    return ref_clean(out)


def ref_substitute(p, targets):
    """targets: {variable: (tuple monomial, coefficient)}"""
    out = {}
    for m, c in p.items():
        exps = {}
        for v, e in m:
            tm, tc = targets.get(v, (((v, 1),), 1))
            c = c * Fraction(tc) ** e
            for w, f in tm:
                exps[w] = exps.get(w, 0) + e * f
        key = ref_monomial(exps)
        out[key] = out.get(key, 0) + c
    return ref_clean(out)


def ref_degree(m, rank):
    return sum(e for v, e in m if v.rank == rank)


def largest_exponent(p):
    return max((abs(e) for m in p for _, e in m), default=0)


def packed(p):
    return sum((LaurentPoly.monomial(m, c) for m, c in p.items()), ZERO)


def unpacked(poly):
    return dict(poly.items())


variables = st.builds(VarName, st.integers(0, 3), st.integers(1, 12))
small_exponents = st.integers(-3, 3).filter(bool)
# exponents whose pairwise sums straddle the slot limit, and the largest ones
edge_exponents = st.one_of(
    st.integers(HALF // 2 - 2, HALF // 2 + 1), st.integers(HALF - 3, HALF - 1)
).flatmap(lambda e: st.sampled_from([e, -e]))
nonzero_coeffs = st.one_of(
    st.integers(-5, 5), st.fractions(Fraction(-3), Fraction(3), max_denominator=4)
).filter(bool)


def tuple_monomials(exponents):
    return st.dictionaries(variables, exponents, max_size=3).map(ref_monomial)


def ref_polys(exponents, max_terms=4):
    return st.dictionaries(tuple_monomials(exponents), nonzero_coeffs, max_size=max_terms)


any_ref_polys = st.one_of(ref_polys(small_exponents), ref_polys(edge_exponents))


@settings(max_examples=150, deadline=None)
@given(any_ref_polys, any_ref_polys)
@example({((xvar(1), HALF - 1),): 1}, {((xvar(1), 1),): 1})
@example({((xvar(1), HALF - 1),): 1}, {((xvar(1), -1),): 1})
@example({((VarName(3, 12), 1 - HALF),): 2}, {((VarName(3, 12), -1),): Fraction(1, 2)})
def test_packed_ring_matches_tuple_reference(p, q):
    a, b = packed(p), packed(q)
    assert unpacked(a) == p
    assert unpacked(a + b) == ref_add(p, q)
    assert unpacked(a - b) == ref_add(p, {m: -c for m, c in q.items()})
    # a sum of distinct monomials carries their largest |exponent| as its bound
    if p and q and largest_exponent(p) + largest_exponent(q) >= HALF:
        with pytest.raises(SlotOverflow):
            a * b
    else:
        assert unpacked(a * b) == ref_mul(p, q)


@settings(max_examples=100, deadline=None)
@given(
    ref_polys(small_exponents),
    ref_polys(small_exponents),
    st.integers(0, 3),
    st.integers(-4, 4),
)
def test_mul_truncated_matches_tuple_reference(p, q, rank, cap):
    want = {m: c for m, c in ref_mul(p, q).items() if ref_degree(m, rank) <= cap}
    assert unpacked(packed(p).mul_truncated(packed(q), rank, cap)) == want


@settings(max_examples=150, deadline=None)
@given(
    any_ref_polys,
    st.dictionaries(
        variables,
        st.tuples(st.one_of(tuple_monomials(small_exponents), tuple_monomials(edge_exponents)), nonzero_coeffs),
        max_size=4,
    ),
)
@example({((xvar(1), 3), (zvar(1), HALF // 2)): 1}, {xvar(1): (((zvar(1), HALF // 8),), 2)})
def test_substitute_matches_tuple_reference(p, targets):
    want = ref_substitute(p, targets)
    mapping = {v: LaurentPoly.monomial(m, c) for v, (m, c) in targets.items()}
    try:
        got = packed(p).substitute(mapping)
    except SlotOverflow:
        # the guard may refuse a safe result, but only when exponents are large
        assert largest_exponent(p) * max(
            [1] + [largest_exponent({m: 1}) for m, _ in targets.values()]
        ) * (len(targets) + 1) >= HALF
    else:
        assert largest_exponent(want) < HALF
        assert unpacked(got) == want


@settings(max_examples=100, deadline=None)
@given(any_ref_polys, st.dictionaries(variables, variables, max_size=4))
# x2 keeps its own exponent and collects x1's
@example({((xvar(1), HALF - 1), (xvar(2), HALF - 1)): 1}, {xvar(1): xvar(2)})
@example({((xvar(1), HALF // 2), (xvar(2), HALF // 2 - 1)): 1}, {xvar(1): xvar(2)})
def test_rename_matches_tuple_reference(p, mapping):
    want = ref_substitute(p, {a: (((b, 1),), 1) for a, b in mapping.items()})
    try:
        got = packed(p).rename(mapping)
    except SlotOverflow:
        # a rename at most doubles a slot's bound per image it collects
        assert largest_exponent(p) * (len(mapping) + 1) >= HALF
    else:
        assert unpacked(got) == want


@settings(max_examples=100, deadline=None)
@given(any_ref_polys, st.dictionaries(variables, variables, max_size=4))
@example({((xvar(1), HALF // 2), (xvar(2), HALF // 2 - 1)): 1}, {xvar(1): xvar(2)})
def test_rename_is_substitute_with_variable_images(p, mapping):
    poly = packed(p)
    images = {a: LaurentPoly.variable(b) for a, b in mapping.items()}
    outcomes = []
    for run in (lambda: poly.rename(mapping), lambda: poly.substitute(images)):
        try:
            got = run()
        except SlotOverflow:
            outcomes.append(SlotOverflow)
        else:
            outcomes.append((list(got._terms.items()), got._bound))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=40, deadline=None)
@given(any_ref_polys)
def test_clear_caches_does_not_change_rendering(p):
    poly, twin = packed(p), packed(p)
    before = twin.text()
    clear_caches()
    assert poly.text() == before
    assert unpacked(poly) == p


def test_product_at_the_slot_limit_raises():
    edge = LaurentPoly.variable(xvar(1), HALF - 1)  # the largest slot exponent
    assert edge * ONE == edge
    assert unpacked(edge * LaurentPoly.constant(3)) == {((xvar(1), HALF - 1),): 3}
    with pytest.raises(SlotOverflow):
        edge * X1
    # the bound is conservative: x1^(HALF-1) * x1^-1 would fit, but is refused
    with pytest.raises(SlotOverflow):
        edge * X1I
    with pytest.raises(SlotOverflow):
        LaurentPoly.variable(xvar(1), HALF)
    assert X1.substitute({xvar(1): edge}) == edge
    with pytest.raises(SlotOverflow):
        (X1 * X1).substitute({xvar(1): edge})


# --- the fused sum of products, against a sum of separate products ---


def canonical(poly):
    return all(c and (type(c) is int or c.denominator != 1) for c in poly._terms.values())


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(polys(), polys()), max_size=4), st.integers(0, 4))
@example([], 0)
@example([(ZERO, X1), (X1, ZERO), (ZERO, ZERO)], 0)
@example([(X1 + Z1, X1I - Z1)], 1)
def test_dot_is_the_sum_of_products(pairs, cancel):
    # the first `cancel` pairs come back negated, so their products cancel
    pairs = pairs + [(-a, b) for a, b in pairs[:cancel]]
    want = sum((a * b for a, b in pairs), ZERO)
    got = dot(iter(pairs))
    assert got._terms == want._terms
    assert got._bound == want._bound
    assert canonical(got)


def test_dot_returns_integral_fraction_sums_as_int():
    half = LaurentPoly.constant(Fraction(1, 2))
    third = LaurentPoly.constant(Fraction(1, 3))
    got = dot([(half, X1), (X1, half), (third, Z1), (Z1 * 2, third)])
    assert dict(got.items()) == {((xvar(1), 1),): 1, ((zvar(1), 1),): 1}
    assert all(type(c) is int for c in got._terms.values())


def test_dot_checks_the_bound_of_every_pair_like_mul():
    edge = LaurentPoly.variable(xvar(1), HALF - 1)
    assert dot([(edge, ONE), (edge, ZERO), (ZERO, edge)]) == edge
    for other in (X1, X1I):
        with pytest.raises(SlotOverflow):
            edge * other
        # the bound is per pair, so an earlier safe pair does not help
        with pytest.raises(SlotOverflow):
            dot([(edge, ONE), (edge, other)])
