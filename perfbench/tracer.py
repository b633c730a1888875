"""Layer spans taken from outside the program.

`Tracer.install()` replaces, from here, the names through which one spochar
module calls into another, so `src/` carries no tracing code.  Each name is
patched where its caller looks it up:

- verify -> characters: every characters function bound in ``verify``'s
  namespace (``from .characters import ...``), as span ``characters``;
- characters -> series: ``characters.h_seq`` and ``characters.h_seq_y``,
  plus ``series.h_seq`` for the Newton check, as ``series.h_seq``;
- characters -> ring: ``characters.det_of`` as ``ring.det``;
- verify -> fock: module attributes ``fock.matrix_element``, ``fock.pairing``
  and ``fock._mode_row_scaled`` (``fock.mode_row``); inside fock,
  ``fock.gamma_plus`` and ``fock.apply_mode``;
- everyone -> ring: ``LaurentPoly`` methods on the class, so operators
  dispatch to them: ``__mul__``/``__rmul__`` (``ring.mul``),
  ``__add__``/``__radd__``/``__sub__``/``__rsub__``/``__neg__`` (``ring.add``),
  ``substitute``/``rename`` (``ring.substitute``), ``mul_truncated`` and
  ``__eq__``.

The partitions module is left untimed: its generators would be timed at
creation, not while they yield.

Every span is aggregated per (name, parent name): calls, total time and
self time (its duration minus the time of the spans it encloses).  Spans not
in `AGGREGATED_ONLY` are also kept one by one as (id, parent id, name,
start, end) so that nesting can be checked; the ring and mode-row boundaries
see hundreds of thousands of calls and are only aggregated.
"""

from __future__ import annotations

import functools
import itertools
import time

AGGREGATED_ONLY = frozenset(
    {
        "ring.mul",
        "ring.add",
        "ring.eq",
        "ring.substitute",
        "ring.mul_truncated",
        "fock.apply_mode",
        "fock.mode_row",
    }
)

_RING_METHODS = (
    ("__mul__", "ring.mul"),
    ("__rmul__", "ring.mul"),
    ("__add__", "ring.add"),
    ("__radd__", "ring.add"),
    ("__sub__", "ring.add"),
    ("__rsub__", "ring.add"),
    ("__neg__", "ring.add"),
    ("substitute", "ring.substitute"),
    ("rename", "ring.substitute"),
    ("mul_truncated", "ring.mul_truncated"),
    ("__eq__", "ring.eq"),
)

_FOCK_NAMES = (
    ("matrix_element", "fock.matrix_element"),
    ("pairing", "fock.pairing"),
    ("gamma_plus", "fock.gamma_plus"),
    ("apply_mode", "fock.apply_mode"),
    ("_mode_row_scaled", "fock.mode_row"),
)


class Tracer:
    """Stack of open spans plus their aggregates; see the module docstring."""

    def __init__(self):
        self.stack: list[list] = []  # open frames: [name, span id, child seconds]
        self.stats: dict[tuple[str, str | None], list] = {}  # [calls, total, self]
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.caches: dict = {}  # metric prefix -> original lru_cache object
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stack, stats, spans, ids = self.stack, self.stats, self.spans, self._ids
        record = name not in AGGREGATED_ONLY
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else 0
            # an aggregated-only frame passes its nearest recorded ancestor on
            frame = [name, next(ids) if record else parent_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if parent is not None:
                    parent[2] += dt
                key = (name, parent[0] if parent else None)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[2]
                if record:
                    spans.append((frame[1], parent_id, name, t0, t1))

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self) -> "Tracer":
        """Patch every layer boundary listed in the module docstring."""
        from spochar import characters, fock, ring, series, verify

        self.caches = {
            "series.geom_product": series._geom_product,
            "ring.merge_monomials": ring.merge_monomials,
            "characters.jt_det": characters._jt_det,
            "fock.mode_row": fock._mode_row_scaled,
        }
        for attr, obj in sorted(vars(verify).items()):
            if (
                callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == characters.__name__
            ):
                self._patch(verify, attr, "characters")
        self._patch(characters, "det_of", "ring.det")
        self._patch(characters, "h_seq", "series.h_seq")
        self._patch(characters, "h_seq_y", "series.h_seq")
        self._patch(series, "h_seq", "series.h_seq")
        for attr, name in _FOCK_NAMES:
            self._patch(fock, attr, name)
        for attr, name in _RING_METHODS:
            self._patch(ring.LaurentPoly, attr, name)
        return self

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """JSON-ready aggregates, recorded spans and cache counters."""
        caches = {}
        for prefix, cached in self.caches.items():
            info = cached.cache_info()
            caches[prefix] = {"hits": info.hits, "misses": info.misses}
        return {
            "stats": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(
                    self.stats.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
                )
            ],
            "spans": self.spans,
            "caches": caches,
        }


LAYER_SPANS = (
    "series.h_seq",
    "ring.mul",
    "ring.add",
    "ring.substitute",
    "ring.mul_truncated",
    "ring.det",
    "ring.eq",
    "characters",
    "fock.mode_row",
    "fock.apply_mode",
    "fock.gamma_plus",
    "fock.matrix_element",
    "fock.pairing",
)


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metric values from a `Tracer.summary()`.

    ``calls`` and ``self_s`` add up over parents; ``total_s`` leaves out
    spans opened inside a span of the same name, so time is counted once.
    ``hit_ratio`` is hits / lookups, and 0 when the cache saw no lookup.
    """
    calls = dict.fromkeys(LAYER_SPANS + ("verify",), 0)
    total = dict.fromkeys(calls, 0.0)
    self_s = dict.fromkeys(calls, 0.0)
    for row in summary["stats"]:
        name = row["name"]
        calls[name] = calls.get(name, 0) + row["calls"]
        self_s[name] = self_s.get(name, 0.0) + row["self_s"]
        if row["parent"] != name:
            total[name] = total.get(name, 0.0) + row["total_s"]
    out: dict[str, float] = {}
    for name in LAYER_SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in ("series.h_seq", "characters"):
        out[f"{name}.total_s"] = total[name]
    out["verify.self_s"] = self_s["verify"]
    for prefix, info in summary["caches"].items():
        lookups = info["hits"] + info["misses"]
        out[f"{prefix}.misses"] = info["misses"]
        if prefix != "fock.mode_row":
            out[f"{prefix}.hit_ratio"] = info["hits"] / lookups if lookups else 0.0
    return out
