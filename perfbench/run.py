"""Benchmark for wsnec: one process, one client thread, a closed loop.

    python3 perfbench/run.py --workload sweep-sample --seed 1 --seconds 25 --trace 0

Run from the root of a wsnec checkout; the package is imported from its
``src/`` directory.  Set-up (importing wsnec and generating the workload's
inputs from the seed) is repeated; ``setup_s`` is the median set-up time in
seconds of the nominal host (see ``NOMINAL_REFERENCE_S``).
The closed loop then makes whole passes over the workload's inputs, running
one operation at a time, until ``--seconds`` have gone by (at least one
pass).  After the timed section every output is checked; a failed check
fails the operations behind it, and repeats of an input must write the same
bytes.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics: ``work_per_ref``, ``peak_rss_mb`` and ``setup_s``.
``work_per_ref`` is the work finished (packet handlings, or CLI commands) in
the time of one run of a fixed reference loop, which a timer signal runs
every ``SAMPLE_INTERVAL`` seconds; the lines before the JSON give the
workload's own metrics in plain seconds (medians, 90th percentiles,
throughput per second).  With ``--trace 1`` untraced and traced operations
on input 0 alternate; the JSON holds the per-layer metrics of the traced
ones, per operation, and the tracing overhead (fastest traced minus fastest
untraced operation).  The full result, with the SHA-256 of every output file
and the environment, is also written to ``.perfbench_out/results/``; the
traced run writes its spans there too.
The exit code is 1 when a check fails and 2 when wsnec cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 5               # set up at least this many times
SETUP_SECONDS = 2.0      # and for at least this long
REFERENCE_STEPS = 100
SAMPLE_INTERVAL = 0.1
# The reference loop's median time on the host the bounds were tuned on
# (2-vCPU VM, Python 3.11): set-up times are scaled to that host's speed.
NOMINAL_REFERENCE_S = 0.0014
MODULES = ("config", "simulator", "energy_core", "radio", "flow_models",
           "estimation", "policy", "traceio", "cli")

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402  (after the path set-up above)
import tracer  # noqa: E402


def import_wsnec() -> SimpleNamespace:
    """A fresh import of every wsnec module, from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "wsnec" or m.startswith("wsnec.")]:
        del sys.modules[name]
    package = importlib.import_module("wsnec")
    if Path(package.__file__).resolve().parent != SRC / "wsnec":
        raise ImportError(f"wsnec imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"wsnec.{m}") for m in MODULES})


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Loop:
    """Runs operations, recording latencies, digests and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.samples: list[tuple[int, float, dict[str, float]]] = []  # (input, wall, kinds)
        self.ops: list[tuple[int, bool]] = []                       # (input, ok) of each op
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []

    def once(self, i: int) -> float:
        start = time.perf_counter()
        try:
            kinds, outputs, ok = self.workload.run(i)
        except Exception:  # an operation that raises is a failed operation
            self.errors.append(traceback.format_exc(limit=4))
            self.ops.append((i, False))
            return time.perf_counter() - start
        wall = time.perf_counter() - start
        self.samples.append((i, wall, kinds))
        for path in outputs:
            key = str(path.relative_to(OUT))
            digest = sha256(path)
            if self.digests.setdefault(key, digest) != digest:
                ok = False
                self.errors.append(f"{key}: output differs between repeats of the same input")
        self.ops.append((i, ok))
        return wall

    def check(self) -> int:
        """Check the outputs of every input run; return the failed-operation count."""
        failed_inputs = set()
        for i in sorted({i for i, _, _ in self.samples}):
            try:
                problems = self.workload.check(i)
            except Exception:  # a check that raises is a failed check
                problems = [traceback.format_exc(limit=4)]
            if problems:
                failed_inputs.add(i)
                self.errors += problems
        return sum(1 for i, ok in self.ops if not ok or i in failed_inputs)


@dataclass
class _Node:
    x: float
    y: float
    battery: float
    flows: list


_RNG = random.Random(7)
_NODES = [_Node(_RNG.uniform(0, 100), _RNG.uniform(0, 100), 1.0, [0, 0]) for _ in range(50)]
_EVENTS = [(_RNG.uniform(0, 100), _RNG.uniform(0, 100), k & 1) for k in range(REFERENCE_STEPS)]
_COSTS = {0: (2e-5, 0.0, 4e-5, 6e-5, 0.0), 1: (2e-5, 1e-5, 4e-5, 6e-5, 0.0)}


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed at this moment.

    The loop does the kind of work the simulator does (dataclass attributes,
    dict lookups, hypot and fsum) on objects made once at import, so that it
    slows down with the host as wsnec does but does not depend on the state
    of the heap; it shares no code with wsnec.
    """
    start = time.perf_counter()
    for ex, ey, kind in _EVENTS:
        for node in _NODES:
            if math.hypot(node.x - ex, node.y - ey) <= 30.0:
                cost = math.fsum(_COSTS[kind])
                node.battery -= cost
                node.flows[kind] += 1
    return time.perf_counter() - start


class HostSpeed:
    """Times the reference loop every SAMPLE_INTERVAL seconds from a timer
    signal, so that the host's speed is known during operations as well as
    between them.  ``spent`` is the time the samples took."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []    # (when, reference seconds)
        self.spent = 0.0
        self._busy = False

    def sample(self, signum=None, frame=None) -> None:
        if self._busy:       # the timer fired during a sample taken by hand
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append((start, reference_seconds()))
        self.spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between(self, start: float, end: float) -> float:
        """Median reference time sampled in [start, end], or over the whole run."""
        inside = [r for t, r in self.samples if start <= t <= end]
        return statistics.median(inside or [r for _, r in self.samples])


def setup(workload_cls, seed: int, tiny: bool):
    """Set the workload up repeatedly; return the last one and ``setup_s``.

    Each set-up's wall time is divided by the reference time sampled around
    and during it, so that the host's drift in speed cancels, and the
    median ratio is scaled to the nominal host.
    """
    out = OUT / workload_cls.name
    ratios = []
    with HostSpeed() as host:
        first = time.perf_counter()
        while len(ratios) < SETUPS or time.perf_counter() - first < SETUP_SECONDS:
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            gc.collect()     # the modules of the previous set-up are garbage now
            before = time.perf_counter()
            host.sample()
            start, spent = time.perf_counter(), host.spent
            workload = workload_cls(import_wsnec(), out, seed, tiny)
            wall = time.perf_counter() - start - (host.spent - spent)
            host.sample()
            ratios.append(wall / host.between(before, time.perf_counter()))
    return workload, statistics.median(ratios) * NOMINAL_REFERENCE_S


def timed_run(workload, seconds: float) -> tuple[Loop, dict, dict]:
    """Whole passes over the inputs until ``seconds`` have gone by.

    On a shared host the speed of this process drifts by tens of percent
    over tens of seconds, which no statistic over one run removes.  A pass's
    time divided by the reference time sampled during that pass does not
    drift, so ``work_per_ref`` is the median over passes of the work done per
    reference loop.
    """
    loop = Loop(workload)
    n, i = workload.inputs, 0
    passes = []                  # (start, end, seconds spent in operations)
    with HostSpeed() as host:
        host.sample()
        start = time.perf_counter()
        while i < n or i % n or time.perf_counter() - start < seconds:
            if i % n == 0:
                pass_start, busy, spent = time.perf_counter(), 0.0, host.spent
            busy += loop.once(i % n)
            i += 1
            if i % n == 0:
                passes.append((pass_start, time.perf_counter(), busy - (host.spent - spent)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    work = sum(workload.work(i) for i in range(n))
    per_ref = [work * host.between(a, b) / busy for a, b, busy in passes]
    metrics = {"work_per_ref": (statistics.median(per_ref), "1/ref"),
               "peak_rss_mb": (rss_mb, "MB")}
    named = workload.named(loop.samples)
    named["work_per_s"] = (work * len(passes) / sum(busy for _, _, busy in passes), "1/s")
    named["reference_ms"] = (statistics.median(r for _, r in host.samples) * 1000.0, "ms")
    return loop, metrics, named


def traced_run(workload, seconds: float, spans_path: Path) -> tuple[Loop, dict, dict]:
    """Alternate untraced and traced operations on input 0 until the time is up."""
    loop = Loop(workload)
    trace = tracer.Tracer(workload.w)
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(loop.once(0))
        trace.install()
        try:
            traced.append(loop.once(0))
        finally:
            trace.uninstall()
            trace.record_spans = False      # keep the spans of the first traced op only
    overhead = min(traced) - min(plain)
    metrics = trace.metrics(len(traced), overhead)
    info = {"hooks_absent": trace.absent, "observer_errors": trace.observer_errors,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "spans_written": trace.save_spans(str(spans_path)),
            "ops_untraced": len(plain), "ops_traced": len(traced)}
    info["work_per_op"] = workload.work(0)
    return loop, metrics, info


def environment(seed: int) -> dict:
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "commit": git_commit(), "seed": seed}


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "wsnec" / "__init__.py").is_file():
        print(f"error: no wsnec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload, setup_s = setup(WORKLOADS[args.workload], args.seed, args.tiny)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        loop, metrics, info = traced_run(workload, args.seconds,
                                         results / f"{args.workload}.spans.npz")
    else:
        loop, metrics, info = timed_run(workload, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
    if not loop.samples:
        print("error: no operation completed\n" + "\n".join(loop.errors), file=sys.stderr)
        return 1
    failed = loop.check()
    result = {"correct": failed == 0, "attempted": len(loop.ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "result": result, "environment": environment(args.seed),
              "digests": loop.digests, "errors": loop.errors[:20],
              "trace_info" if args.trace else "named_metrics": info}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    shown = metrics if args.trace else {**info, **metrics}
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    if args.trace:
        for key, value in info.items():
            print(f"{key:40s} {value}")
    for key, digest in sorted(loop.digests.items()):
        print(f"sha256 {digest}  {key}")
    for error in loop.errors[:5]:
        print(f"check failed: {error}", file=sys.stderr)
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
