"""Fixtures shared by the test modules."""

import pytest

from spochar import characters, clear_caches, fock
from spochar.partitions import Partition
from spochar.ring import ONE


@pytest.fixture
def broken_universal(monkeypatch):
    """`characters.universal` with 1 added to every character of shape (2, 1),
    so each closed form of that shape fails its witness."""
    real = characters.universal

    def broken(family, lam, n, m):
        got = real(family, lam, n, m)
        return got + ONE if lam == Partition((2, 1)) else got

    monkeypatch.setattr(characters, "universal", broken)


@pytest.fixture(autouse=True)
def narrowest_slots():
    """Every test starts packing Fock rows at the narrowest slot width: a test
    that widened them empties the caches behind it."""
    yield
    if fock.SLOT_BITS != fock.SLOT_WIDTHS[0]:
        clear_caches()
