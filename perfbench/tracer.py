"""Spans recorded around wsnec functions, from outside the package.

Each hook replaces one module or class attribute -- the name its caller
looks the function up through -- with a wrapper that records a span
(name, start, end, parent).  Spans go to compact in-memory arrays and are
written out when the run ends; per-name call counts, inclusive time and
self time (inclusive minus the direct children) are accumulated as the
spans close.  A hook whose target no longer exists is reported as absent
and its metrics read zero, so a refactor that removes a function from the
run path does not crash the benchmark.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

# (span name, wsnec module, attribute path on that module, result observer).
# The attribute path is where the *caller* resolves the function: the
# simulator imports task_energy and the radio functions by name, the CLI
# imports load_config and with_overrides by name.  A function looked up
# through two modules has a hook on each, under one span name.
HOOKS = (
    ("cli.main", "cli", "main", None),
    ("config.load_config", "cli", "load_config", None),
    ("config.with_overrides", "cli", "with_overrides", None),
    ("simulator.init", "simulator", "Simulation.__init__", None),
    ("simulator.run", "simulator", "Simulation.run", "_observe_run"),
    ("simulator.charge", "simulator", "charge", "_observe_charge"),
    ("simulator.select_next_hop", "simulator", "select_next_hop", None),
    ("energy_core.task_energy", "simulator", "task_energy", None),
    ("energy_core.usage_vector", "energy_core", "ResourceUsageVector.__post_init__", None),
    ("radio.tx_energy_per_bit", "simulator", "tx_energy_per_bit", None),
    ("radio.rx_energy_per_bit", "simulator", "rx_energy_per_bit", None),
    ("estimation.fit_ls", "estimation", "fit_ls", None),
    ("estimation.rolling_fit", "estimation", "rolling_fit", "_observe_rolling"),
    ("estimation.obs_set", "estimation", "ObservationSet.__post_init__", None),
    ("estimation.predict_rows", "estimation", "predict_rows", None),
    ("estimation.error_report", "estimation", "error_report", None),
    ("policy.select_tasks", "policy", "select_tasks", "_observe_select"),
    ("policy.task_cost", "policy", "task_cost", None),
    ("policy.task_cost", "traceio", "task_cost", None),
    ("traceio.read_trace", "traceio", "read_trace", None),
    ("traceio.write_trace", "traceio", "write_trace", None),
    ("traceio.write_observations", "traceio", "write_observations", None),
    ("traceio.write_report", "traceio", "write_report", None),
    ("traceio.write_rolling_report", "traceio", "write_rolling_report", None),
    ("traceio.read_coefficients", "traceio", "read_coefficients", None),
    ("traceio.read_tasks", "traceio", "read_tasks", None),
    ("traceio.write_schedule", "traceio", "write_schedule", None),
)

PHASES = ("initialization", "collection", "maintenance")
PACKET_KINDS = ("sensed", "neighbor_info", "scheduling", "topology_info",
                "routing_info", "relayed_data")
METHODS = ("exact-dp", "greedy")

# Per-layer metrics of a traced run, each per operation of the workload.
# Span statistics reported per hook; "calls" is a count, the rest seconds.
SPAN_FIELDS = {
    "simulator.charge": ("calls", "s", "self_s"),
    "energy_core.task_energy": ("calls", "s", "self_s"),
    "radio.tx_energy_per_bit": ("calls", "s", "self_s"),
    "radio.rx_energy_per_bit": ("calls",),
    "simulator.init": ("calls", "s"),
    "simulator.run": ("calls", "s", "self_s"),
    "simulator.select_next_hop": ("calls", "s", "self_s"),
    "config.with_overrides": ("calls", "s", "self_s"),
    "config.load_config": ("calls", "s"),
    "estimation.fit_ls": ("calls", "s", "self_s"),
    "estimation.rolling_fit": ("calls", "s"),
    "estimation.predict_rows": ("s",),
    "estimation.error_report": ("s",),
    "policy.select_tasks": ("calls", "s", "self_s"),
    "policy.task_cost": ("calls",),
    "cli.main": ("calls", "s", "self_s"),
    **{name: ("s",) for name, _, _, _ in HOOKS if name.startswith("traceio.")},
}
# Constructors whose call count is reported as a number of objects built.
BUILD_COUNTS = {"energy_core.usage_vector": "energy_core.usage_vector.builds",
                "estimation.obs_set": "estimation.obs_set.builds"}
# Counts filled by the result observers.
COUNTERS = (
    "simulator.charge.refused", "simulator.delivered", "simulator.dropped",
    "simulator.ledger_entries", "estimation.windows_skipped",
    *(f"simulator.slices.{p}" for p in PHASES),
    *(f"simulator.charges.{k}" for k in PACKET_KINDS),
    *(f"policy.method.{m}" for m in METHODS),
)


class Tracer:
    """Installs the hooks, records spans while installed, keeps statistics."""

    def __init__(self, modules):
        self.names = list(dict.fromkeys(h[0] for h in HOOKS))
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.counters: Counter = Counter()
        self.observer_errors = 0
        self.absent: list[str] = []
        self.record_spans = True
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []     # open spans: [span id, start, child seconds]
        self._targets = []
        for name, module, path, observer in HOOKS:
            nid = self.names.index(name)
            owner = getattr(modules, module, None)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{name} at {module}.{path}")
                continue
            observe = getattr(self, observer) if observer else None
            self._targets.append((owner, attr, original, self._wrap(original, nid, observe)))

    def _wrap(self, fn, nid, observe):
        clock = time.perf_counter
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time

        def wrapper(*args, **kwargs):
            if self.record_spans:
                sid = len(self.span_start)
                self.span_name.append(nid)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
            else:
                sid = -1
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - frame[1]
                calls[nid] += 1
                total[nid] += elapsed
                self_time[nid] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                if sid >= 0:
                    self.span_start[sid] = frame[1]
                    self.span_end[sid] = end
            if observe is not None:
                try:
                    observe(result)
                except (AttributeError, TypeError, KeyError, ValueError):
                    self.observer_errors += 1
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, original, wrapper in self._targets:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, wrapper in self._targets:
            setattr(owner, attr, original)

    # -- result observers ---------------------------------------------------

    def _observe_charge(self, entry) -> None:
        if entry is None:
            self.counters["simulator.charge.refused"] += 1

    def _observe_run(self, result) -> None:
        c = self.counters
        for rec in result.records:
            c[f"simulator.slices.{rec.phase.value}"] += 1
        for entry in result.ledger:
            c[f"simulator.charges.{entry.kind.value}"] += 1
        c["simulator.ledger_entries"] += len(result.ledger)
        c["simulator.delivered"] += result.delivered
        c["simulator.dropped"] += result.dropped
        radio = result.radio
        c["radio.model_j"] += radio.model_tx_j + radio.model_rx_j
        c["radio.charged_j"] += radio.charged_tx_j + radio.charged_rx_j

    def _observe_rolling(self, result) -> None:
        self.counters["estimation.windows_skipped"] += len(result.skipped)

    def _observe_select(self, result) -> None:
        self.counters[f"policy.method.{result.method}"] += 1

    # -- reporting ----------------------------------------------------------

    def metrics(self, ops: int, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit), per traced operation."""
        index = {name: i for i, name in enumerate(self.names)}
        stat = {"calls": self.calls, "s": self.total, "self_s": self.self_time}
        out = {}
        for hook, fields in SPAN_FIELDS.items():
            for f in fields:
                out[f"{hook}.{f}"] = (stat[f][index[hook]] / ops, "count" if f == "calls" else "s")
        for hook, name in BUILD_COUNTS.items():
            out[name] = (self.calls[index[hook]] / ops, "count")
        for name in COUNTERS:
            out[name] = (self.counters[name] / ops, "count")
        charged = self.counters["radio.charged_j"]
        out["radio.audit_ratio"] = (self.counters["radio.model_j"] / charged if charged else 0.0,
                                    "ratio")
        out["trace.overhead_s"] = (overhead_s, "s")
        out["trace.hooks_absent"] = (len(self.absent), "count")
        return out

    def save_spans(self, path: str) -> int:
        """Write the recorded spans as a NumPy archive; returns the span count."""
        import numpy as np
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.span_name, np.int32),
                 parent=np.frombuffer(self.span_parent, np.int32),
                 start=np.frombuffer(self.span_start, np.float64),
                 end=np.frombuffer(self.span_end, np.float64))
        return len(self.span_start)
