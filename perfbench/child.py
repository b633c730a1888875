"""Body of one fresh benchmark process; `run.py` starts it, one at a time.

    child.py run <workload> <seed> <shrink> <mode>   mode: full | setup | trace
    child.py probe <name>
    child.py reference

Every mode writes one JSON object to stdout and exits 0.  Timestamps are
`time.monotonic()` readings, which the parent shares (CLOCK_MONOTONIC), so
it can place them between its own spawn and exit readings:

- ``t_first``: just before the first ``run_suite`` call (``setup`` mode stops
  here, after exactly the imports and preparation a full run makes);
- ``t_last``: just after the last report returns;
- ``peak_rss_mb``: this process image's high-water RSS at ``t_last``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _peak_rss_mb() -> float:
    # VmHWM, not ru_maxrss: a vfork-and-exec spawn hands the parent's peak
    # down into the child's ru_maxrss, which would put a floor under it
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_source(module) -> None:
    # the checkout's own sources, never an installed copy
    if not Path(module.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"spochar imported from {module.__file__}, not from {SRC}")


def run(workload: str, seed: int, shrink: int, mode: str) -> None:
    from spochar import verify

    import workloads

    _check_source(verify)
    grids = [
        (name, verify.Grid(**kw)) for name, kw in workloads.plan(workload, seed, shrink)
    ]
    run_suite = verify.run_suite
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer().install()
        run_suite = tracer.wrap("verify", run_suite)
    t_first = time.monotonic()
    if mode == "setup":
        _emit({"t_first": t_first})
        return
    reports = []
    for name, grid in grids:
        t0 = time.monotonic()
        rep = run_suite(name, grid)
        reports.append(
            {
                "suite": name,
                "instances": rep.instances_run,
                "failures": len(rep.failures),
                "elapsed_s": time.monotonic() - t0,
            }
        )
    t_last = time.monotonic()
    payload = {
        "t_first": t_first,
        "t_last": t_last,
        "peak_rss_mb": _peak_rss_mb(),
        "reports": reports,
    }
    if tracer is not None:
        tracer.restore()
        payload["trace"] = tracer.summary()
    _emit(payload)


def probe(name: str) -> None:
    """Time one public call, cold, with nothing else in the process."""
    from spochar import characters, fock, series
    from spochar.partitions import Partition
    from spochar.ring import ONE

    _check_source(series)
    # inputs are built here, outside the timed call
    if name == "jt_det_8x8":
        # l + n + m = 4 + 2 + 2 = 8 rows, h-table included
        outer, inner = Partition((3, 2, 2, 1)), Partition((1,), declared_len=4)
        call = lambda: characters.skew_det("sp", outer, inner, 2, 2).term_count
    elif name == "h_table":
        spec = series.HSpec(3, 2)
        call = lambda: series.h_seq(spec, 14)[-1].term_count
    elif name == "mode_row_w12":
        vec = {(3, 3, 2, 2, 1, 1): ONE}
        call = lambda: len(fock.apply_mode("Y", -6, vec))
    elif name == "gamma_plus":
        # a 27-vector ket; only Gamma_+ is timed
        vec = fock.ket(Partition((3, 2, 2, 1)).with_declared(8), "sp")
        call = lambda: len(fock.gamma_plus(2, 2, vec))
    else:
        sys.exit(f"unknown probe {name!r}")
    t0 = time.perf_counter()
    size = call()
    dt = time.perf_counter() - t0
    _emit({"probe": name, "seconds": dt, "size": size})


def reference() -> None:
    """A fixed pure-Python load that shares no code with spochar.

    `run.py` times whole reference children between the workload's children
    and divides the workload's times by theirs (see `run.host_scale`).  Like
    the workloads, it starts an interpreter, fills dicts keyed by tuples,
    multiplies sparse tables with growing integer coefficients, adds
    Fractions and leaves many small objects for the interpreter to free at
    exit.
    """
    import itertools
    from fractions import Fraction

    table: dict = {}
    for i in range(200_000):
        key = (i % 89, i // 89, i % 7)
        table[key] = table.get(key, 0) + 3 * i
    folded: dict = {}
    for (a, b, c), v in table.items():
        key = (a + c, b % 40)
        folded[key] = folded.get(key, 0) + v * (a + 1)
    factor = {(i, j): (i + 1) * (j + 2) for i in range(36) for j in range(10)}
    acc = {(0, 0): 1}
    for _ in range(3):
        out: dict = {}
        for (i1, j1), c1 in acc.items():
            for (i2, j2), c2 in factor.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        acc = out
    q = Fraction(0)
    for i in range(1, 20_000):
        q += Fraction(i % 13 + 1, i % 11 + 2) * Fraction(1, i % 5 + 1)
    checksum = (sum(folded.values()) + sum(acc.values()) + q.numerator) % 1_000_003
    # 100k gc-tracked objects left for the interpreter to free at exit, as
    # the workloads leave their caches
    kept = itertools.islice(table.items(), 100_000)
    _KEEP.extend({"key": k, "terms": [v]} for k, v in kept)
    _emit({"reference": len(table) + len(folded) + len(acc), "checksum": checksum})


_KEEP: list = []


def main(argv: list[str]) -> None:
    if argv[:1] == ["run"] and len(argv) == 5:
        run(argv[1], int(argv[2]), int(argv[3]), argv[4])
    elif argv[:1] == ["probe"] and len(argv) == 2:
        probe(argv[1])
    elif argv == ["reference"]:
        reference()
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
