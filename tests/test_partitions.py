"""Partitions, containment, horizontal strips, and triangular-pattern chains.

Enumeration routines are compared against brute-force oracles that re-derive
the defining constraints directly.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spochar import clear_caches
from spochar.partitions import (
    Partition,
    PartitionTooLong,
    enumerate_partitions,
    gt_chains,
    interlaces,
    partitions_of,
    subpartitions,
)


def all_partitions_brute(max_len, max_weight):
    """Every partition fitting the box, via raw tuple filtering."""
    out = set()
    for w in range(max_weight + 1):
        for parts in partitions_of(w):
            if len(parts) <= max_len:
                out.add(parts)
    return out


def _part(p, i):
    """1-based part i of p, zero past its length."""
    return p.parts[i - 1] if i <= len(p.parts) else 0


def contains(mu, lam):
    """Oracle: mu_i <= lam_i for every row i (mu fits inside lam)."""
    return all(_part(mu, i) <= _part(lam, i) for i in range(1, mu.length + 1))


partition_tuples = st.lists(st.integers(0, 5), max_size=4).map(
    lambda xs: tuple(sorted((x for x in xs if x > 0), reverse=True))
)


# --- Partition value semantics ---


def test_trailing_zeros_stripped_for_identity():
    assert Partition((2, 1)) == Partition((2, 1, 0))
    assert hash(Partition((2, 1))) == hash(Partition((2, 1, 0, 0)))


def test_declared_length_survives():
    p = Partition((2, 1, 0, 0))
    assert p.parts == (2, 1)
    assert p.declared_len == 4
    assert p.length == 2
    assert p.weight == 3


def test_padded_and_with_declared():
    p = Partition((2, 1))
    assert p.padded(4) == (2, 1, 0, 0)
    assert p.with_declared(3).declared_len == 3
    with pytest.raises(PartitionTooLong):
        p.padded(1)


def test_rejects_non_monotone_parts():
    with pytest.raises(ValueError):
        Partition((1, 2))


def test_json_round_trip():
    p = Partition((3, 1, 1))
    assert Partition(p.to_json()) == p


# --- containment and strips ---


def test_interlaces_examples():
    assert interlaces(Partition((1,)), Partition((2, 1)))
    assert not interlaces(Partition((2,)), Partition((1, 1)))
    # the empty shape sits under a single row only
    assert interlaces(Partition(()), Partition((4,)))
    assert not interlaces(Partition(()), Partition((1, 1)))


@given(partition_tuples, partition_tuples)
def test_interlacing_implies_containment(a, b):
    nu, lam = Partition(a), Partition(b)
    if interlaces(nu, lam):
        assert contains(nu, lam)


def test_interlaces_matches_rowwise_definition():
    shapes = [Partition(t) for t in sorted(all_partitions_brute(3, 5))]
    for nu in shapes:
        for lam in shapes:
            want = all(
                _part(lam, i + 1) <= _part(nu, i) <= _part(lam, i)
                for i in range(1, max(nu.length, lam.length) + 1)
            )
            assert interlaces(nu, lam) == want


# --- enumeration ---


def test_enumerate_small_boxes():
    assert [p.parts for p in enumerate_partitions(0, 5)] == [()]
    assert set(p.parts for p in enumerate_partitions(2, 2)) == {
        (),
        (1,),
        (2,),
        (1, 1),
    }


def test_enumerate_matches_brute_force():
    for max_len in range(5):
        for max_weight in range(7):
            got = [p.parts for p in enumerate_partitions(max_len, max_weight)]
            assert len(got) == len(set(got)), "duplicates"
            assert set(got) == all_partitions_brute(max_len, max_weight)


def test_partitions_of_counts():
    # p(0..7) = 1 1 2 3 5 7 11 15
    counts = [len(partitions_of(w)) for w in range(8)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15]


def test_partitions_of_respects_max_part():
    assert partitions_of(4, 2) == ((2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_subpartitions_matches_containment():
    for lam in enumerate_partitions(6, 6):
        for max_len in range(6):
            subs = list(subpartitions(lam, max_len))
            got = [p.parts for p in subs]
            assert len(got) == len(set(got)), (lam.parts, max_len)
            assert all(p.declared_len == p.length for p in subs)
            want = {
                t
                for t in all_partitions_brute(max_len, lam.weight)
                if contains(Partition(t), lam)
            }
            assert set(got) == want, (lam.parts, max_len)


def test_subpartitions_length_cut():
    lam = Partition((1, 1, 1))
    assert set(p.parts for p in subpartitions(lam, 1)) == {(), (1,)}


def subpartitions_in_order(lam, max_len):
    """Oracle for the order: row by row, each part from its largest value
    down to zero, trailing zeros dropped."""
    bound = lam.padded(max(max_len, lam.length))

    def rec(i, prev, acc):
        if i == max_len:
            yield acc
            return
        for p in range(min(bound[i], prev), -1, -1):
            yield from rec(i + 1, p, acc + (p,))

    for raw in rec(0, bound[0] if max_len else 0, ()):
        yield tuple(p for p in raw if p)


def test_subpartitions_is_one_cached_tuple_in_a_fixed_order():
    for lam in enumerate_partitions(6, 6):
        for max_len in range(6):
            subs = subpartitions(lam, max_len)
            assert type(subs) is tuple
            assert [mu.parts for mu in subs] == list(subpartitions_in_order(lam, max_len))
            padded = lam.with_declared(lam.length + 2)
            assert subpartitions(padded, max_len) is subs


def test_clear_caches_empties_the_subpartitions_cache():
    lam = Partition((2, 1))
    first = subpartitions(lam, 2)
    assert subpartitions.cache_info().currsize > 0
    clear_caches()
    assert subpartitions.cache_info().currsize == 0
    again = subpartitions(lam, 2)
    assert again == first and again is not first


# --- triangular chains ---


def brute_chains(lam, n):
    """Oracle: chains () = t_0, t_1, ..., t_{2n+1} = lam with consecutive
    horizontal strips and t_k limited to (k+1)//2 rows."""
    lam_t = lam.parts
    levels = [[()]]
    for k in range(1, 2 * n + 1):
        size = (k + 1) // 2
        cap = max(lam_t) if lam_t else 0
        opts = [
            t
            for t in all_partitions_brute(size, size * cap)
            if contains(Partition(t), lam)
        ]
        levels.append(opts)
    levels.append([lam_t])
    out = []
    for combo in itertools.product(*levels):
        if all(
            interlaces(Partition(combo[i]), Partition(combo[i + 1]))
            for i in range(2 * n + 1)
        ):
            out.append(combo)
    return out


def test_chain_count_single_box():
    chains = list(gt_chains(Partition((1,)), 1))
    assert len(chains) == 3
    middles = {(c.chain[1].parts, c.chain[2].parts) for c in chains}
    assert middles == {((), ()), ((), (1,)), ((1,), (1,))}


def test_chain_count_empty_shape():
    assert len(list(gt_chains(Partition(()), 1))) == 1


def test_chain_count_two_box_row():
    chains = list(gt_chains(Partition((2,)), 1))
    assert len(chains) == 6
    # the strict drop (), (2) is a legal step: a two-box horizontal strip
    middles = {(c.chain[1].parts, c.chain[2].parts) for c in chains}
    assert ((), (2,)) in middles


def test_chains_match_brute_force():
    for lam_t in [(), (1,), (2,), (1, 1), (2, 1), (3, 1)]:
        for n in (1, 2):
            lam = Partition(lam_t)
            if lam.length > n + 1:
                continue
            got = [tuple(z.parts for z in c.chain) for c in list(gt_chains(lam, n))]
            assert len(got) == len(set(got))
            assert set(got) == set(brute_chains(lam, n))


def test_chains_reject_overlong_shape():
    with pytest.raises(PartitionTooLong):
        list(gt_chains(Partition((1, 1, 1)), 1))


def test_gt_chains_is_lazy():
    import types

    assert isinstance(gt_chains(Partition((1,)), 1), types.GeneratorType)


def test_weight_exponents_single_box():
    exps = {c.weight_exponents() for c in gt_chains(Partition((1,)), 1)}
    assert exps == {(0, 1), (-1, 0), (1, 0)}


def test_weight_exponents_sum_rule():
    # per chain: sum of x-exponents plus the final exponent has the parity
    # and bound forced by the top shape's weight
    for c in gt_chains(Partition((2, 1)), 2):
        exps = c.weight_exponents()
        assert len(exps) == 3
        w = [z.weight for z in c.chain]
        assert exps[-1] == w[-1] - w[-2]
        for i in range(1, c.n + 1):
            assert exps[i - 1] == 2 * w[2 * i - 1] - w[2 * i] - w[2 * i - 2]
