"""Integer partitions with explicit padded length, plus the interlacing
chains behind the symplectic Gelfand-Tsetlin pattern sum.

A partition stores its weakly decreasing positive parts together with a
``declared_len`` so that padding-sensitive operations (skew determinants,
bra/ket mode words, chain shapes) can carry trailing zeros explicitly.
Equality and hashing ignore the declared length: ``(1, 0)`` and ``(1)`` are
the same partition with different paddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator


class PartitionTooLong(ValueError):
    """A partition has more (nonzero) parts than the operation allows."""


class Partition:
    """An integer partition; ``declared_len`` counts trailing zero padding."""

    __slots__ = ("parts", "declared_len")

    def __init__(self, parts: Iterable[int] = (), declared_len: int | None = None):
        given = tuple(int(p) for p in parts)
        for a, b in zip(given, given[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {given}")
        if given and given[-1] < 0:
            raise ValueError(f"parts must be nonnegative: {given}")
        k = len(given)
        while k and given[k - 1] == 0:
            k -= 1
        stripped = given[:k]
        if declared_len is None:
            declared_len = len(given)
        if declared_len < len(stripped):
            raise ValueError("declared_len below the number of nonzero parts")
        object.__setattr__(self, "parts", stripped)
        object.__setattr__(self, "declared_len", int(declared_len))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Partition is immutable")

    # equality/normal form strips trailing zeros; declared_len is display-only
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.padded(self.declared_len))})"

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def padded(self, k: int) -> tuple[int, ...]:
        if k < len(self.parts):
            raise PartitionTooLong(f"{self.parts} does not fit in {k} parts")
        return self.parts + (0,) * (k - len(self.parts))

    def with_declared(self, k: int) -> "Partition":
        return Partition(self.parts, declared_len=k)

    def to_json(self) -> list[int]:
        return list(self.padded(self.declared_len))


EMPTY = Partition()


def interlaces(nu: Partition, lam: Partition) -> bool:
    """True when lam_i >= nu_i >= lam_{i+1} for every i."""
    k = max(nu.length, lam.length)
    np_, lp = nu.padded(k), lam.padded(k + 1)
    return all(lp[i] >= np_[i] >= lp[i + 1] for i in range(k))


@lru_cache(maxsize=None)
def partitions_of(weight: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of `weight` (parts bounded by `max_part`), largest part first."""
    if weight < 0:
        return ()
    if weight == 0:
        return ((),)
    if max_part is None or max_part > weight:
        max_part = weight
    out: list[tuple[int, ...]] = []
    for first in range(max_part, 0, -1):
        for rest in partitions_of(weight - first, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_partitions(max_len: int, max_weight: int) -> Iterator[Partition]:
    """Every partition with at most `max_len` parts and weight at most
    `max_weight`, exactly once, ordered by weight then lexicographically
    descending parts."""
    for w in range(max_weight + 1):
        for parts in partitions_of(w):
            if len(parts) <= max_len:
                yield Partition(parts)


@lru_cache(maxsize=None)
def subpartitions(lam: Partition, max_len: int) -> tuple[Partition, ...]:
    """All mu contained in lam with at most `max_len` parts, deterministically.

    The tuple is cached; partition equality ignores the declared length, so
    shapes that differ only in it share one tuple.
    """
    bound = lam.padded(max(max_len, lam.length))

    def rec(i: int, prev: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if i == max_len:
            yield acc
            return
        top = min(bound[i], prev)
        for p in range(top, -1, -1):
            yield from rec(i + 1, p, acc + (p,))

    # every raw tuple has length max_len, so dropping its (trailing) zeros
    # keeps distinct tuples distinct
    return tuple(
        Partition(p for p in raw if p) for raw in rec(0, bound[0] if max_len else 0, ())
    )


@dataclass(frozen=True)
class GTChain:
    """An interlacing chain z_0 = {} < z_1 < ... < z_{2n+1} = lam, where z_k
    has ceil(k/2) declared parts."""

    chain: tuple[Partition, ...]
    n: int

    def weight_exponents(self) -> tuple[int, ...]:
        """Exponents (e_1, ..., e_{n+1}) of the chain's weight monomial:
        e_i = 2|z_{2i-1}| - |z_{2i}| - |z_{2i-2}| for i <= n and
        e_{n+1} = |z_{2n+1}| - |z_{2n}|."""
        w = [p.weight for p in self.chain]
        exps = [2 * w[2 * i - 1] - w[2 * i] - w[2 * i - 2] for i in range(1, self.n + 1)]
        exps.append(w[2 * self.n + 1] - w[2 * self.n])
        return tuple(exps)


def gt_chains(lam: Partition, n: int) -> Iterator[GTChain]:
    """Enumerate every chain {} = z_0 < z_1 < ... < z_{2n+1} = lam (padded to
    n+1 parts), each consecutive pair interlacing, in a fixed deterministic
    order (coordinatewise ascending, built from the top row down)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    top = Partition(lam.padded(n + 1), declared_len=n + 1)

    def rec(k: int, upper: Partition, acc: list[Partition]) -> Iterator[list[Partition]]:
        # choose z_k interlacing below z_{k+1} (= upper)
        if k == 0:
            yield [EMPTY] + acc
            return
        size = (k + 1) // 2
        up = upper.padded(size + 1)
        # up[i] >= z_i >= up[i+1] already makes z decrease
        for parts in product(*(range(up[i + 1], up[i] + 1) for i in range(size))):
            z = Partition(parts, declared_len=size)
            yield from rec(k - 1, z, [z] + acc)

    for chain in rec(2 * n, top, [top]):
        yield GTChain(tuple(chain), n)
