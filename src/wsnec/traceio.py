"""CSV serialization of traces, fit reports, sweep observations, task lists
and schedules.

Numbers are written with ``repr`` so floats round-trip to the exact same
value; headers are fixed byte-for-byte. Multi-part files (reports,
schedules) are CSV blocks separated by single blank lines, each block with
its own header row.
"""

from __future__ import annotations

import configparser
import itertools
from typing import Sequence

from .energy_core import CONSTITUENT_ORDER, CoefficientVector, Constituent, ConstituentFlowVector
from .estimation import ErrorReport, FitResult, ObservationSet, RollingFit
from .policy import ScheduleResult, TaskDescriptor, task_cost
from .simulator import Phase, SliceRecord

TRACE_HEADER = "slice,phase,b_individual,b_local,b_global,b_environment,b_snk,energy_j,alive_nodes"
OBSERVATIONS_HEADER = "run,b_individual,b_local,b_global,b_environment,b_snk,energy_j"
TASKS_HEADER = "id,constituent,pf_size,importance,mandatory"

_PHASES = {p.value: p for p in Phase}
_CONSTITUENTS = {c.value: c for c in CONSTITUENT_ORDER}


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_lines(path: str, lines: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path: str, header: str, what: str) -> list[str]:
    """The non-blank lines after ``header``, which must be the first one."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() != ""]
    if not lines or lines[0] != header:
        raise ValueError(f"{what} header must be exactly {header!r}")
    return lines[1:]


# ---------------------------------------------------------------------------
# Trace files

def write_trace(path: str, records: Sequence[SliceRecord]) -> None:
    lines = [TRACE_HEADER]
    for rec in records:
        f = rec.flows
        lines.append(",".join([
            str(rec.index), rec.phase.value,
            _fmt(f.b_individual), _fmt(f.b_local), _fmt(f.b_global),
            _fmt(f.b_environment), _fmt(f.b_snk),
            _fmt(rec.energy_j), str(rec.alive_nodes),
        ]))
    _write_lines(path, lines)


def read_trace(path: str) -> list[SliceRecord]:
    """Read a trace file back into slice records."""
    records = []
    previous = None
    for ln in _read_lines(path, TRACE_HEADER, "trace"):
        parts = ln.split(",")
        if len(parts) != 9:
            raise ValueError(f"malformed trace row: {ln!r}")
        index = int(parts[0])
        if previous is not None and index <= previous:
            raise ValueError(f"slice indices must increase (got {index} after {previous})")
        previous = index
        phase = _PHASES.get(parts[1])
        if phase is None:
            raise ValueError(f"unknown phase {parts[1]!r}")
        records.append(SliceRecord(
            index=index, phase=phase,
            flows=ConstituentFlowVector(*map(float, parts[2:7])),
            energy_j=float(parts[7]), alive_nodes=int(parts[8])))
    return records


def observations_from_slices(records: Sequence[SliceRecord],
                             active=(True, True, True, False, False)) -> ObservationSet:
    return ObservationSet.from_flow_vectors(
        [r.flows for r in records], [r.energy_j for r in records], active,
        slices=[r.index for r in records])


# ---------------------------------------------------------------------------
# Sweep observation files

def write_observations(path: str, rows: Sequence[tuple[int, ConstituentFlowVector, float]]) -> None:
    lines = [OBSERVATIONS_HEADER]
    for run, flows, energy in rows:
        lines.append(",".join([str(run)] + [_fmt(v) for v in flows.as_tuple()] + [_fmt(energy)]))
    _write_lines(path, lines)


def read_observations(path: str,
                      active=(True, True, True, False, False)) -> ObservationSet:
    flows, energies, runs = [], [], []
    for ln in _read_lines(path, OBSERVATIONS_HEADER, "observations"):
        parts = ln.split(",")
        if len(parts) != 7:
            raise ValueError(f"malformed observation row: {ln!r}")
        runs.append(int(parts[0]))
        flows.append(ConstituentFlowVector(*map(float, parts[1:6])))
        energies.append(float(parts[6]))
    return ObservationSet.from_flow_vectors(flows, energies, active, slices=runs)


# ---------------------------------------------------------------------------
# Fit reports

def _prediction_lines(predictions: Sequence[tuple[int, float, float]], errors: ErrorReport,
                      last: str, value: str | int) -> list[str]:
    """The blocks that close a fit report: one (slice, observed, predicted,
    percentage error) row per prediction, then the error summary ending in
    the ``last`` column."""
    lines = ["", "slice,observed_j,predicted_j,pct_error"]
    for (idx, observed, predicted), pct in zip(predictions, errors.pct_errors):
        lines.append(f"{idx},{_fmt(observed)},{_fmt(predicted)},{_fmt(pct)}")
    lines.append("")
    lines.append(f"mape_pct,max_abs_pct_error,{last}")
    lines.append(f"{_fmt(errors.mape)},{_fmt(errors.max_abs_pct)},{value}")
    return lines


def write_report(path: str, fit: FitResult,
                 predictions: Sequence[tuple[int, float, float]],
                 errors: ErrorReport, dominant: Constituent) -> None:
    """Single-fit report: coefficients, per-slice predictions, summary."""
    lines = ["constituent,alpha,stderr_proxy"]
    for c, se in zip(fit.coefficients.active_constituents(), fit.stderr):
        lines.append(f"{c.value},{_fmt(fit.coefficients.get(c))},{_fmt(se)}")
    _write_lines(path, lines + _prediction_lines(predictions, errors, "dominant_constituent",
                                                 dominant.value))


def write_rolling_report(path: str, rolling: RollingFit,
                         predictions: Sequence[tuple[int, float, float]],
                         errors: ErrorReport) -> None:
    """Rolling-fit report: per-window coefficients, one-step predictions as
    (slice, observed, predicted, percentage error) rows, summary."""
    lines = ["window_start,window_stop,constituent,alpha"]
    for wf in rolling.fits:
        coeffs = wf.result.coefficients
        lines += [f"{wf.start},{wf.stop},{c.value},{_fmt(a)}"
                  for c, a, on in zip(CONSTITUENT_ORDER, coeffs.alpha, coeffs.active) if on]
    _write_lines(path, lines + _prediction_lines(predictions, errors, "skipped_windows",
                                                 len(rolling.skipped)))


def read_coefficients(path: str) -> CoefficientVector:
    """Load a coefficient vector from a fit report (its first block) or from
    a bare ``constituent,alpha`` CSV; constituents not listed are inactive.
    Each row has one field per header column and names a constituent once."""
    with open(path, encoding="utf-8") as fh:
        blocks = [list(block) for blank, block in
                  itertools.groupby(fh.read().splitlines(), lambda ln: not ln.strip()) if not blank]
    if not blocks:
        raise ValueError("empty model file")
    header = blocks[0][0].split(",")
    if header[0] != "constituent" or "alpha" not in header:
        raise ValueError("model file must start with a constituent,alpha block")
    alpha_col = header.index("alpha")
    alpha = [0.0] * 5
    active = [False] * 5
    for ln in blocks[0][1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"malformed model row: {ln!r}")
        constituent = _CONSTITUENTS.get(parts[0])
        if constituent is None:
            raise ValueError(f"unknown constituent {parts[0]!r}")
        k = CONSTITUENT_ORDER.index(constituent)
        if active[k]:
            raise ValueError(f"constituent {parts[0]!r} listed twice in model file")
        alpha[k] = float(parts[alpha_col])
        active[k] = True
    return CoefficientVector(alpha, active)


# ---------------------------------------------------------------------------
# Task lists and schedules

def read_tasks(path: str) -> list[TaskDescriptor]:
    tasks = []
    for ln in _read_lines(path, TASKS_HEADER, "task file"):
        parts = [p.strip() for p in ln.split(",")]
        if len(parts) != 5:
            raise ValueError(f"malformed task row: {ln!r}")
        constituent = _CONSTITUENTS.get(parts[1])
        if constituent is None:
            raise ValueError(f"unknown constituent {parts[1]!r} in task row")
        mandatory = configparser.ConfigParser.BOOLEAN_STATES.get(parts[4].lower())
        if mandatory is None:
            raise ValueError(f"mandatory flag must be true/false, got {parts[4]!r}")
        tasks.append(TaskDescriptor(int(parts[0]), constituent, int(parts[2]),
                                    float(parts[3]), mandatory))
    return tasks


def write_schedule(path: str, result: ScheduleResult,
                   coefficients: CoefficientVector) -> None:
    lines = ["order,task_id,constituent,pf_size,importance,cost_j,cumulative_cost_j"]
    cumulative = 0.0
    for order, task in enumerate(result.scheduled):
        cost = task_cost(task, coefficients)
        cumulative += cost
        lines.append(",".join([
            str(order), str(task.task_id), task.constituent.value, str(task.pf_size),
            _fmt(task.importance), _fmt(cost), _fmt(cumulative)]))
    lines.append("")
    lines.append("feasible,method,total_cost_j,total_importance,slack_j,e_battery_j")
    lines.append(",".join([
        str(result.feasible).lower(), result.method, _fmt(result.total_cost),
        _fmt(result.total_importance), _fmt(result.slack), _fmt(result.e_battery)]))
    lines.append("")
    lines.append("constraint,satisfied")
    for name, ok in result.constraints.items():
        lines.append(f"{name},{str(ok).lower()}")
    lines.append("")
    lines.append("constituent,energy_j")
    for c in CONSTITUENT_ORDER:
        lines.append(f"{c.value},{_fmt(result.per_constituent[c])}")
    _write_lines(path, lines)
