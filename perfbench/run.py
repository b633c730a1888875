#!/usr/bin/env python3
"""Cold-process benchmark of spochar's verification workloads.

    python3 perfbench/run.py --workload branching --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a checkout.  Every cache in spochar lives for the
whole process, so each measurement is a fresh, single-threaded child process
(`child.py`), started one at a time.  A run of one workload and one seed:

1. one warm-up child on the smallest grid, discarded, so that set-up times
   measure imports rather than bytecode compilation;
2. children of the whole workload until `--seconds` have passed (at least
   three), each after two children that only set up, with reference children
   interleaved (see `host_scale`);
3. with `--trace 1`: the same for half of `--seconds` (at least one child,
   no reference), then one traced child (see `tracer.py`) and three fresh
   children for each layer probe; it prints the per-layer metrics instead of
   the end-to-end ones and writes the whole trace to `.perfbench_out/`.

Every child's reports must pass and its instance count must equal the
golden count in `workloads.py`; a child that fails, crashes, times out or
checks another number of instances counts its instances as failed, and its
timings are left out.  End-to-end times are scaled to the reference host
speed (see `host_scale`); the raw medians are printed beside them.  Metric
names and units come from `BENCHMARK.json`.
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import layer_metrics
from workloads import GOLDEN, PROBES, SHRINK, WORKLOAD_NAMES, plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

MIN_RUNS = 3
SETUP_CHILDREN = 2  # set-up-only children before each timed child
PROBE_REPEATS = 3
WARMUP_SHRINK = 6  # every max_weight down to 0
RUN_LIMIT_S = 165.0  # no child starts that would end a run past this
REF_SHARE = 0.4  # reference children take this share of the workload's time
REF_S = 0.6  # reference child wall time that defines the reference host speed
# what a correct reference child prints (see child.reference)
REF_PAYLOAD = {"reference": 206768, "checksum": 854344}
# printed beside the end-to-end metrics but left out of the result line: too
# noisy on the reference host to carry a bound (see README.md)
PRINTED_ONLY = ({"name": "exit_s", "unit": "s"},)


@dataclass
class Child:
    exit_code: int
    t_spawn: float
    t_exit: float
    payload: dict | None

    @property
    def wall_s(self) -> float:
        return self.t_exit - self.t_spawn

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.payload is not None


def child_env() -> dict[str, str]:
    """A pinned environment: the checkout's sources first, no user site,
    no PYTHON* or PYTEST* settings inherited from the caller."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONNOUSERSITE": "1",
    }


def spawn(argv: list[str], timeout: float) -> Child:
    """Run child.py to its end; its wall time is taken from here."""
    cmd = [sys.executable, str(HERE / "child.py"), *argv]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE
    )

    # The child stays unreaped until the os.waitpid below, after the timer has
    # been joined, so a kill can never reach a recycled pid.
    timer = threading.Timer(max(timeout, 1.0), os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        out = proc.stdout.read()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        t_exit = time.monotonic()
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        timer.cancel()
        timer.join()
        _, status = os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    payload = None
    lines = out.decode(errors="replace").strip().splitlines()
    if lines:
        try:
            payload = json.loads(lines[-1])
        except ValueError:
            payload = None
    return Child(
        exit_code=proc.returncode,
        t_spawn=t_spawn,
        t_exit=t_exit,
        payload=payload if isinstance(payload, dict) else None,
    )


def host_scale(refs: list[Child]) -> float:
    """REF_S / median wall time of the run's correct reference children.

    The host's speed drifts (the same child took 2.9 to 5.4 s within four
    minutes) and no run is long enough to average that out.  Reference
    children (`child.py reference`) share no code with spochar but do the
    same kind of work: start an interpreter, fill tuple-keyed dicts, multiply
    integers and Fractions, free many small objects at exit.  They run
    between the workload's children through the whole run, for REF_SHARE of
    the workload's time, so times multiplied by this factor move with
    spochar's code and much less with the host.
    """
    walls = [c.wall_s for c in refs if c.ok and c.payload == REF_PAYLOAD]
    if not walls:
        sys.exit("perfbench: no reference child ran correctly")
    return REF_S / statistics.median(walls)


def instances(child: Child) -> int:
    return sum(r["instances"] for r in child.payload["reports"])


def failed_instances(child: Child, golden: int) -> int:
    """Failed plus unaccounted instances of one workload child."""
    if not child.ok or "reports" not in child.payload:
        return golden
    failures = sum(r["failures"] for r in child.payload["reports"])
    return min(golden, failures + abs(instances(child) - golden))


@dataclass
class Measurement:
    workload: str
    seed: int
    shrink: int
    golden: int
    order: list[str]
    setups: list[Child] = field(default_factory=list)
    runs: list[Child] = field(default_factory=list)
    refs: list[Child] = field(default_factory=list)
    traced: Child | None = None
    probes: dict[str, list[Child]] = field(default_factory=dict)

    def valid_runs(self) -> list[Child]:
        return [c for c in self.runs if failed_instances(c, self.golden) == 0]


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    shrink: int = SHRINK,
    golden: int | None = None,
) -> Measurement:
    """Spawn the children of one run; see the module docstring."""
    m = Measurement(
        workload,
        seed,
        shrink,
        GOLDEN[workload] if golden is None else golden,
        [name for name, _ in plan(workload, seed, shrink)],
    )
    t_run = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - t_run)

    def run_argv(mode: str, shrink: int = shrink) -> list[str]:
        return ["run", workload, str(seed), str(shrink), mode]

    def add_references() -> None:
        work = sum(c.wall_s for c in m.setups + m.runs)
        while sum(c.wall_s for c in m.refs) <= REF_SHARE * work and remaining() > 0:
            m.refs.append(spawn(["reference"], remaining()))

    spawn(run_argv("full", WARMUP_SHRINK), remaining())
    window = seconds / 2 if trace else seconds
    min_runs = 1 if trace else MIN_RUNS
    t_measure = time.monotonic()
    while True:
        if not trace:
            add_references()
        m.setups += [spawn(run_argv("setup"), remaining()) for _ in range(SETUP_CHILDREN)]
        m.runs.append(spawn(run_argv("full"), remaining()))
        typical = statistics.median(c.wall_s for c in m.runs)
        now = time.monotonic()
        per_group = (now - t_measure) / len(m.runs)  # references included
        if len(m.runs) >= min_runs and now + per_group > t_measure + window:
            break
        # the traced child is slower than an untraced one; keep room for it
        if remaining() < (4 if trace else 1.5) * typical:
            break
    if not trace:
        add_references()
    else:
        m.traced = spawn(run_argv("trace"), remaining())
        for name in PROBES:
            m.probes[name] = [
                spawn(["probe", name], remaining()) for _ in range(PROBE_REPEATS)
            ]
    return m


def _verify_s(child: Child) -> float:
    return child.payload["t_last"] - child.payload["t_first"]


def end_to_end(m: Measurement, scaled: bool = True) -> dict[str, list[float]]:
    """Per-child samples of every end-to-end metric (valid children only),
    times scaled to the reference host speed unless `scaled` is false."""
    valid = m.valid_runs()
    setups = [c for c in m.setups if c.ok] + valid
    k = host_scale(m.refs) if scaled else 1.0
    return {
        "wall_s": [c.wall_s * k for c in valid],
        "setup_s": [(c.payload["t_first"] - c.t_spawn) * k for c in setups],
        "instances_per_s": [instances(c) / (_verify_s(c) * k) for c in valid],
        "exit_s": [(c.t_exit - c.payload["t_last"]) * k for c in valid],
        "peak_rss_mb": [c.payload["peak_rss_mb"] for c in valid],
    }


def probe_ok(name: str, child: Child) -> bool:
    return child.ok and child.payload.get("size") == PROBES[name]["size"]


def per_layer(m: Measurement) -> dict[str, float]:
    out: dict[str, float] = {}
    traced = m.traced
    if traced is not None and failed_instances(traced, m.golden) == 0:
        out.update(layer_metrics(traced.payload["trace"]))
        out["verify.instances"] = instances(traced)
        untraced = [_verify_s(c) for c in m.valid_runs()]
        if untraced:
            out["trace.overhead_s"] = _verify_s(traced) - statistics.median(untraced)
    for name, children in m.probes.items():
        good = [c.payload["seconds"] for c in children if probe_ok(name, c)]
        if good:
            out[f"probe.{name}_s"] = statistics.median(good)
    return out


def counts(m: Measurement) -> tuple[int, int]:
    """(attempted, failed): workload instances plus probe results."""
    children = m.runs + ([m.traced] if m.traced is not None else [])
    attempted = m.golden * len(children)
    failed = sum(failed_instances(c, m.golden) for c in children)
    for name, probes in m.probes.items():
        attempted += len(probes)
        failed += sum(1 for c in probes if not probe_ok(name, c))
    return max(attempted, 1), failed


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def report(m: Measurement, trace: bool, spec: dict) -> tuple[list[str], dict]:
    """Human-readable lines and the result object of one measurement."""
    attempted, failed = counts(m)
    lines = [
        f"workload {m.workload} seed {m.seed}: max_weight lowered by {m.shrink}, "
        f"golden {m.golden} instances per child",
        f"order: {' > '.join(m.order)}",
        f"children: {len(m.runs)} timed ({len(m.runs) - len(m.valid_runs())} "
        f"dropped), {len(m.setups)} set-up only, 1 warm-up discarded"
        + (", 1 traced" if m.traced is not None else ""),
    ]
    metrics: dict[str, dict] = {}
    if not trace:
        samples = end_to_end(m)
        raw = end_to_end(m, scaled=False)
        samples["verified_frac"] = raw["verified_frac"] = [1.0 - failed / attempted]
        for entry in spec["end_to_end"] + list(PRINTED_ONLY):
            name, unit = entry["name"], entry["unit"]
            values = samples[name]
            value = statistics.median(values) if values else 0.0
            raw_value = statistics.median(raw[name]) if raw[name] else 0.0
            line = f"{name} {value:.6g} {unit}  ({_spread(values)}; raw {raw_value:.6g})"
            if entry in PRINTED_ONLY:
                line += "  [printed only, no bound]"
            else:
                metrics[name] = {"value": value, "unit": unit}
            lines.append(line)
        lines.append(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
        lines.append(
            f"reference children: {len(m.refs)}, median {REF_S / host_scale(m.refs):.4g} s "
            f"(times above are scaled to {REF_S} s)"
        )
    else:
        values = per_layer(m)
        for entry in spec["per_layer"]:
            name, unit = entry["name"], entry["unit"]
            value = values.get(name, 0)
            metrics[name] = {"value": value, "unit": unit}
            note = ""
            if name.startswith("probe."):
                probe = name[len("probe.") : -len("_s")]
                note = f"  (predicts {PROBES[probe]['predicts']})"
            lines.append(f"{name} {value:.6g} {unit}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return lines, result


def write_trace(m: Measurement) -> Path | None:
    if m.traced is None or not m.traced.ok or "trace" not in m.traced.payload:
        return None
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{m.workload}-seed{m.seed}.json"
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": m.workload,
                "seed": m.seed,
                "order": m.order,
                "reports": m.traced.payload["reports"],
                "verify_s": _verify_s(m.traced),
                **m.traced.payload["trace"],
            },
            fh,
        )
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps its child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "spochar" / "verify.py").is_file():
        print(f"perfbench: no spochar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        m = measure(name, args.seed, args.seconds, bool(args.trace))
        lines, results[name] = report(m, bool(args.trace), spec)
        path = write_trace(m)
        if path is not None:
            lines.append(f"trace written to {path.relative_to(ROOT)}")
        print("\n".join(lines), flush=True)
    if len(results) == 1:
        (total,) = results.values()
    else:  # one line for all workloads, metric names prefixed by workload
        total = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(total), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
