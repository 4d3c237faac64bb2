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
from typing import Iterator, Sequence

from .energy_core import (CONSTITUENT_ORDER, CoefficientVector, Constituent, ConstituentFlowVector, checked,
                          finite)
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


def _read_rows(path: str, header: str, what: str, row: str) -> Iterator[list[str]]:
    """The fields of each non-blank line after ``header``, which must be the
    first one; each line's field count is checked against the header's as it is reached."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() != ""]
    if not lines or lines[0] != header:
        raise ValueError(f"{what} header must be exactly {header!r}")
    width = header.count(",") + 1
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != width:
            raise ValueError(f"malformed {row} row: {ln!r}")
        yield parts


# ---------------------------------------------------------------------------
# Trace files

def write_trace(path: str, records: Sequence[SliceRecord]) -> None:
    lines = [TRACE_HEADER]
    for rec in records:
        lines.append(",".join([str(rec.index), rec.phase.value, *map(_fmt, rec.flows.as_tuple()),
                               _fmt(rec.energy_j), str(rec.alive_nodes)]))
    _write_lines(path, lines)


def _flows(fields: Sequence[str]) -> list[float]:
    """Five flow fields as floats, each checked as ``ConstituentFlowVector`` checks it; the
    checks run only if the min or the sum shows a negative, nan or infinite flow."""
    flows = list(map(float, fields))
    if not (0 <= min(flows) and finite(sum(flows))):
        list(map(checked, OBSERVATIONS_HEADER.split(",")[1:6], flows))
    return flows


def _trace_rows(path: str) -> list[tuple[int, list[float], float, Phase, int]]:
    """A trace's (slice, flows, energy, phase, alive nodes) rows, each checked as it is
    reached: its width, a slice index above the last, a known phase, then its flows."""
    rows = []
    for parts in _read_rows(path, TRACE_HEADER, "trace", "trace"):
        index = int(parts[0])
        if rows and index <= rows[-1][0]:
            raise ValueError(f"slice indices must increase (got {index} after {rows[-1][0]})")
        phase = _PHASES.get(parts[1])
        if phase is None:
            raise ValueError(f"unknown phase {parts[1]!r}")
        rows.append((index, _flows(parts[2:7]), float(parts[7]), phase, int(parts[8])))
    return rows


def read_trace(path: str) -> list[SliceRecord]:
    """Read a trace file back into slice records."""
    return [SliceRecord(i, p, ConstituentFlowVector(*f), e, a) for i, f, e, p, a in _trace_rows(path)]


def read_trace_observations(path: str, active=(True, True, True, False, False)) -> ObservationSet:
    """``observations_from_slices(read_trace(path), active)``, with no record or flow vector per row."""
    return ObservationSet.from_rows(_trace_rows(path), active)


def observations_from_slices(records: Sequence[SliceRecord],
                             active=(True, True, True, False, False)) -> ObservationSet:
    return ObservationSet.from_rows([(r.index, r.flows.as_tuple(), r.energy_j) for r in records], active)


# ---------------------------------------------------------------------------
# Sweep observation files

def write_observations(path: str, rows: Sequence[tuple[int, ConstituentFlowVector, float]]) -> None:
    lines = [OBSERVATIONS_HEADER]
    for run, flows, energy in rows:
        lines.append(",".join([str(run)] + [_fmt(v) for v in flows.as_tuple()] + [_fmt(energy)]))
    _write_lines(path, lines)


def read_observations(path: str,
                      active=(True, True, True, False, False)) -> ObservationSet:
    rows = [(int(parts[0]), _flows(parts[1:6]), float(parts[6]))
            for parts in _read_rows(path, OBSERVATIONS_HEADER, "observations", "observation")]
    return ObservationSet.from_rows(rows, active)


# ---------------------------------------------------------------------------
# Fit reports

def _prediction_lines(predictions: Sequence[tuple[int, float, float]], errors: ErrorReport,
                      last: str, value: str | int) -> list[str]:
    """The blocks that close a fit report: one (slice, observed, predicted,
    percentage error) row per prediction, then the error summary ending in
    the ``last`` column."""
    lines = ["", "slice,observed_j,predicted_j,pct_error"]
    lines += [f"{idx},{float(observed)!r},{float(predicted)!r},{float(pct)!r}"
              for (idx, observed, predicted), pct in zip(predictions, errors.pct_errors)]
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
        lines += [f"{wf.start},{wf.stop},{name},{a!r}"   # names looked up once; alphas are floats
                  for name, a, on in zip(_CONSTITUENTS, coeffs.alpha, coeffs.active) if on]
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
    alphas: dict[Constituent, float] = {}
    for ln in blocks[0][1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"malformed model row: {ln!r}")
        constituent = _CONSTITUENTS.get(parts[0])
        if constituent is None:
            raise ValueError(f"unknown constituent {parts[0]!r}")
        if constituent in alphas:
            raise ValueError(f"constituent {parts[0]!r} listed twice in model file")
        alphas[constituent] = float(parts[alpha_col])
    return CoefficientVector([alphas.get(c, 0.0) for c in CONSTITUENT_ORDER],
                             [c in alphas for c in CONSTITUENT_ORDER])


# ---------------------------------------------------------------------------
# Task lists and schedules

def read_tasks(path: str) -> list[TaskDescriptor]:
    tasks = []
    for parts in _read_rows(path, TASKS_HEADER, "task file", "task"):
        parts = [p.strip() for p in parts]
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
