"""Energy-budget task selection for a single node.

Given the fitted per-constituent coefficients and the node's residual
battery, pick which tasks to run. Mandatory tasks are always included;
optional tasks are a 0/1 knapsack maximizing total importance with the
battery as a strict budget. Costs are real-valued joules, so the exact
solver is a Pareto-frontier dynamic program (non-dominated cost/importance
states per item prefix, Nemhauser & Ullmann 1969) rather than an
integer-capacity table. The frontier is held as three numpy arrays (cost,
importance, chosen subset as a uint64 bitmask) and each item extends, merges
and prunes it in bulk; the last item only picks the winner. The frontier can
double with every item (it does when importance is proportional to cost), so
its size is capped: past 64 optional tasks, or once one item's candidate
states would exceed ``STATE_LIMIT``, selection falls back to a density greedy
and says so in the report.

The budget inequality is strict: a schedule consuming exactly the battery
is not feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .energy_core import CONSTITUENT_ORDER, CoefficientVector, Constituent, bound, nonneg

#: Optional-task count above which selection switches to the greedy heuristic.
EXACT_LIMIT = 64
#: Candidate states per item above which the exact solver gives up for the greedy.
STATE_LIMIT = 2 ** 20

CONSTRAINT_LOCAL = "local_energy_positive"
CONSTRAINT_GLOBAL = "global_energy_positive"
CONSTRAINT_BUDGET = "within_budget"


@dataclass(frozen=True)
class TaskDescriptor:
    """One schedulable task: its constituent, packet-flow size and importance."""

    task_id: int
    constituent: Constituent
    pf_size: int
    importance: float
    mandatory: bool = False

    def __post_init__(self):
        bound(isinstance(self.pf_size, int) and self.pf_size >= 1, "integer pf_size >= 1", self.pf_size)
        bound(math.isfinite(self.importance) and self.importance > 0, "importance > 0", self.importance)


def task_cost(task: TaskDescriptor, coefficients: CoefficientVector) -> float:
    """Energy of running one task: its constituent coefficient times PF size."""
    if not coefficients.is_active(task.constituent):
        raise ValueError(f"constituent {task.constituent.value!r} is inactive in the model")
    return coefficients.get(task.constituent) * task.pf_size


@dataclass(frozen=True)
class BudgetProblem:
    """Task list, fitted coefficients and the residual battery budget.

    With ``enforce_positivity`` (the default) the problem must contain at
    least one mandatory local and one mandatory global task, so the
    positivity constraints on local/global energy can be satisfiable at all.
    """

    tasks: tuple[TaskDescriptor, ...]
    coefficients: CoefficientVector
    e_battery: float
    enforce_positivity: bool = True

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        nonneg("e_battery", self.e_battery)
        ids = [t.task_id for t in self.tasks]
        if len(ids) != len(set(ids)):
            raise ValueError("task ids must be unique")
        for t in self.tasks:
            task_cost(t, self.coefficients)  # validates constituent activity
        if self.enforce_positivity:
            mand = [t.constituent for t in self.tasks if t.mandatory]
            if Constituent.LOCAL not in mand or Constituent.GLOBAL not in mand:
                raise ValueError(
                    "positivity constraints require at least one mandatory local "
                    "and one mandatory global task")


def check_constraints(selection: Iterable[TaskDescriptor],
                      coefficients: CoefficientVector,
                      e_battery: float) -> dict[str, bool]:
    """Evaluate the three feasibility constraints for a selection.

    The budget constraint sums individual + local + global + sink energy
    (environment energy is excluded from it) and is strict.
    """
    return _constraints(per_constituent_energy(selection, coefficients), e_battery)


def _constraints(per: dict[Constituent, float], e_battery: float) -> dict[str, bool]:
    budget_sum = math.fsum(per[c] for c in (Constituent.INDIVIDUAL, Constituent.LOCAL,
                                            Constituent.GLOBAL, Constituent.SINK))
    return {
        CONSTRAINT_LOCAL: per[Constituent.LOCAL] > 0,
        CONSTRAINT_GLOBAL: per[Constituent.GLOBAL] > 0,
        CONSTRAINT_BUDGET: budget_sum < e_battery,
    }


def per_constituent_energy(selection: Iterable[TaskDescriptor],
                           coefficients: CoefficientVector) -> dict[Constituent, float]:
    return _per_constituent((t, task_cost(t, coefficients)) for t in selection)


def _per_constituent(priced: Iterable[tuple[TaskDescriptor, float]]) -> dict[Constituent, float]:
    per = {c: 0.0 for c in CONSTITUENT_ORDER}
    for t, cost in priced:
        per[t.constituent] += cost
    return per


@dataclass
class ScheduleResult:
    feasible: bool
    scheduled: tuple[TaskDescriptor, ...]        # ordered by importance per joule
    total_cost: float
    total_importance: float
    per_constituent: dict[Constituent, float]
    slack: float
    constraints: dict[str, bool]
    failed_constraints: tuple[str, ...]
    method: str                                  # "exact-dp" or "greedy"
    e_battery: float

    @property
    def selected_ids(self) -> tuple[int, ...]:
        return tuple(t.task_id for t in self.scheduled)


def _knapsack_exact(costs: list[float], values: list[float], capacity: float) -> int | None:
    """Max-importance subset with total cost strictly below capacity.

    Pareto-frontier DP: after each item, keep only non-dominated
    (cost, value) states; the chosen subset rides along as a bitmask.
    States are ordered by (cost, -value, mask) and a state survives only if
    its value beats every state before it, so the survivors' costs and
    values strictly increase and the last one wins (ties: cheapest, then
    lowest ids). Because the old costs increase, the extended costs never
    decrease: the states that still fit are a prefix, and a stable sort on
    cost merges the two sorted runs. Of a run of equal costs only the top
    value, with the lowest mask holding it, can survive; ``reduceat`` finds
    it without a second sort. The last item builds no frontier.
    Returns the winning bitmask, or None if one item's candidate states
    would exceed ``STATE_LIMIT``.
    """
    fc = np.zeros(1)
    fv = np.zeros(1)
    fm = np.zeros(1, dtype=np.uint64)
    for i, (cost, value) in enumerate(zip(costs, values)):
        nc = fc + cost
        fits = int(nc.searchsorted(capacity))
        if len(fc) + fits > STATE_LIMIT:
            return None
        if not fits:
            continue
        nv = fv[:fits] + value
        nm = fm[:fits] | np.uint64(1 << i)
        if i == len(costs) - 1:
            # nv and nc never decrease, so the cheapest extensions of the top
            # value start at k. On a full tie the old best's lower mask wins.
            k = int(nv.searchsorted(nv[-1]))
            if (-nv[-1], nc[k]) >= (-fv[-1], fc[-1]):
                return int(fm[-1])
            return int(nm[k:fits][nc[k:fits] == nc[k]].min())
        c = np.concatenate((fc, nc[:fits]))
        order = c.argsort(kind="stable")
        c = c[order]
        v = np.concatenate((fv, nv))[order]
        m = np.concatenate((fm, nm))[order]
        del fc, fv, fm, nc, nv, nm  # lowers the peak of a capped solve
        first = np.concatenate(([True], c[1:] != c[:-1]))
        if not first.all():
            starts = first.nonzero()[0]
            top = np.maximum.reduceat(v, starts)
            at_top = v == top[first.cumsum() - 1]
            m = np.minimum.reduceat(np.where(at_top, m, ~np.uint64(0)), starts)
            c, v = c[starts], top
        keep = v > np.maximum.accumulate(np.concatenate(([-np.inf], v[:-1])))
        fc, fv, fm = (c, v, m) if keep.all() else (c[keep], v[keep], m[keep])
    return int(fm[-1])


def _knapsack_greedy(costs: list[float], capacity: float, order: list[int]) -> int:
    """First fit: the items tried in ``order``, each kept if it still fits."""
    mask, total = 0, 0.0
    for i in order:
        if total + costs[i] < capacity:
            mask |= 1 << i
            total += costs[i]
    return mask


def select_tasks(problem: BudgetProblem) -> ScheduleResult:
    """Choose and order tasks under the battery budget.

    Every mandatory task is included; optional tasks maximize total
    importance subject to the strict budget. The schedule is ordered by
    descending importance per joule, compared exactly (ties: lower task
    id); tasks that cost nothing or less come first.
    """
    battery = problem.e_battery
    cost = {t.task_id: task_cost(t, problem.coefficients) for t in problem.tasks}
    mandatory = [t for t in problem.tasks if t.mandatory]
    optional = [t for t in problem.tasks if not t.mandatory]
    mandatory_cost = math.fsum(cost[t.task_id] for t in mandatory)

    # Importance per joule as an exact ratio p / q of integers, so equal
    # densities tie on the id, not on float noise. Two different ratios differ
    # by at least 1 / (q1 q2) >= 2^-shift, so p * 2^shift // q orders them
    # exactly in one integer, far cheaper to compare than a Fraction.
    ratios = {}
    for t in problem.tasks:
        n, d = t.importance.as_integer_ratio()
        a, b = problem.coefficients.get(t.constituent).as_integer_ratio()
        ratios[t.task_id] = (n * b, d * a * t.pf_size)
    shift = 2 * max((abs(q).bit_length() for _, q in ratios.values()), default=0)

    def density_order(t: TaskDescriptor) -> tuple[bool, int, int]:
        if cost[t.task_id] <= 0:
            return (False, 0, t.task_id)
        p, q = ratios[t.task_id]
        return (True, -((p << shift) // q), t.task_id)

    def build(selection: list[TaskDescriptor], feasible: bool, method: str) -> ScheduleResult:
        per = _per_constituent((t, cost[t.task_id]) for t in selection)
        constraints = _constraints(per, battery)
        failed = tuple(name for name, ok in constraints.items()
                       if not ok and (problem.enforce_positivity or name == CONSTRAINT_BUDGET))
        total = math.fsum(cost[t.task_id] for t in selection)
        return ScheduleResult(
            feasible=feasible and not failed and total < battery,
            scheduled=tuple(sorted(selection, key=density_order)),
            total_cost=total,
            total_importance=math.fsum(t.importance for t in selection),
            per_constituent=per,
            slack=battery - total,
            constraints=constraints,
            failed_constraints=failed,
            method=method,
            e_battery=battery,
        )

    if mandatory_cost >= battery:
        # Mandatory load alone breaks the strict budget: structured infeasibility.
        return build(mandatory, feasible=False, method="exact-dp")

    capacity = battery - mandatory_cost
    costs = [cost[t.task_id] for t in optional]
    values = [t.importance for t in optional]
    mask = _knapsack_exact(costs, values, capacity) if len(optional) <= EXACT_LIMIT else None
    method = "exact-dp"
    if mask is None:
        order = sorted(range(len(optional)), key=lambda i: density_order(optional[i]))
        mask = _knapsack_greedy(costs, capacity, order)
        method = "greedy"
    chosen = mandatory + [t for i, t in enumerate(optional) if mask & (1 << i)]
    return build(chosen, feasible=True, method=method)
