"""Fixtures shared by the test modules."""

import pytest

from spochar import characters, clear_caches, ring, series
from spochar.partitions import Partition
from spochar.ring import ONE, LaurentPoly


@pytest.fixture
def broken_universal(monkeypatch):
    """`characters.universal` with 1 added to every character of shape (2, 1),
    so each closed form of that shape fails its witness."""
    real = characters.universal

    def broken(family, lam, n, m):
        got = real(family, lam, n, m)
        return got + ONE if lam == Partition((2, 1)) else got

    monkeypatch.setattr(characters, "universal", broken)


@pytest.fixture
def narrow_monomial_slots(monkeypatch):
    """Monomial keys packed in 4-bit slots (|exponent| < 8); every cache is
    emptied around the test so that no key of either width outlives it."""
    clear_caches()
    monkeypatch.setattr(ring, "SLOT_BITS", 4)
    yield
    monkeypatch.undo()
    clear_caches()


@pytest.fixture
def perturb_symmetric(monkeypatch):
    """Returns `perturb(k)`: from then on every symmetric h-table that
    `series.h_seq` hands out has 1 added to one coefficient of h_k (a later
    call replaces an earlier one).  The shared table dicts are copied, never
    changed."""
    real = series.h_seq

    def perturb(k):
        def patched(spec, N):
            hs = real(spec, N)
            if spec.z_mode == "symmetric" and k <= N:
                terms = dict(hs[k]._terms)
                key = min(terms)
                terms[key] += 1
                hs[k] = LaurentPoly(terms, hs[k]._bound)
            return hs

        monkeypatch.setattr(series, "h_seq", patched)

    return perturb
