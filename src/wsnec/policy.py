"""Energy-budget task selection for a single node.

Given the fitted per-constituent coefficients and the node's residual
battery, pick which tasks to run. Mandatory tasks are always included;
optional tasks are a 0/1 knapsack maximizing total importance with the
battery as a strict budget. Costs are real-valued joules, so the exact
solver is a Pareto-frontier dynamic program (non-dominated cost/importance
states per item prefix, Nemhauser & Ullmann 1969) rather than an
integer-capacity table. The frontier is held as two numpy arrays: each
state's cost and importance as one complex number, cost - i * importance,
which one sort orders, and its chosen subset as a uint64 bitmask. Each item
extends, merges and prunes it in bulk; the last item only picks the winner.
The frontier can double with every item (it does when importance is
proportional to cost), so its size is capped: past 64 optional tasks, or
once one item's candidate states would exceed ``STATE_LIMIT``, selection
falls back to a density greedy and says so in the report.

The budget inequality is strict: a schedule consuming exactly the battery
is not feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy_core import CONSTITUENT_ORDER, CoefficientVector, Constituent, bound, checked, finite

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
        bound(finite(self.pf_size), "pf_size within float range", self.pf_size)
        object.__setattr__(self, "importance", checked("importance", self.importance, ">", 0))


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
        object.__setattr__(self, "e_battery", checked("e_battery", self.e_battery))
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


def _constraints(per: dict[Constituent, float], e_battery: float) -> dict[str, bool]:
    """The three feasibility constraints, from a selection's energy per
    constituent. The budget constraint sums individual + local + global +
    sink energy (environment energy is excluded from it) and is strict."""
    budget_sum = math.fsum(per[c] for c in (Constituent.INDIVIDUAL, Constituent.LOCAL,
                                            Constituent.GLOBAL, Constituent.SINK))
    return {
        CONSTRAINT_LOCAL: per[Constituent.LOCAL] > 0,
        CONSTRAINT_GLOBAL: per[Constituent.GLOBAL] > 0,
        CONSTRAINT_BUDGET: budget_sum < e_battery,
    }


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


def _knapsack_exact(costs: list[float], values: list[float], capacity: float) -> int | None:
    """Max-importance subset with total cost strictly below capacity.

    Pareto-frontier DP: after each item, keep only non-dominated
    (cost, value) states; the chosen subset rides along as a bitmask.
    A state is one complex number, cost - i * value: an item extends it by
    one add, and one stable sort orders old and new states by cost, then by
    value descending (numpy orders complex numbers by real, then imaginary
    part). A state survives only if its value beats every state before it,
    so the survivors' costs and values strictly increase and the last one
    wins (ties: cheapest, then lowest ids); if the values already rise
    along the sorted states, all survive. Of a run of equal costs only the
    first, the top value, can survive, and it takes the lowest mask of the
    states equal to it in value too. Because the old costs increase, the
    extended costs never decrease: the states that still fit are a prefix.
    The last item builds no frontier.
    Returns the winning bitmask, or None if one item's candidate states
    would exceed ``STATE_LIMIT``.
    """
    z = np.zeros(1, dtype=complex)
    m = np.zeros(1, dtype=np.uint64)
    for i, (cost, value) in enumerate(zip(costs, values)):
        fits = int((z.real + cost).searchsorted(capacity))
        if len(z) + fits > STATE_LIMIT:
            return None
        if not fits:
            continue
        nz = z[:fits] + complex(cost, -value)
        if i == len(costs) - 1:
            # The extensions' values never decrease, so the cheapest
            # extensions of the top value start at k. On a full tie the old
            # best's lower mask wins.
            k = int((nz.imag == nz[-1].imag).argmax())
            if (z[-1].imag, z[-1].real) <= (nz[k].imag, nz[k].real):
                return int(m[-1])
            return int(m[k:fits][nz.real[k:] == nz[k].real].min()) | 1 << i
        z = np.concatenate((z, nz))
        del nz  # lowers the peak of a capped solve
        order = z.argsort(kind="stable")
        z = z[order]
        m = np.concatenate((m, m[:fits] | np.uint64(1 << i)))[order]
        del order
        v = z.imag
        if not (v[1:] < v[:-1]).all():
            tie = z[1:] == z[:-1]
            if tie.any():
                starts = np.concatenate(([True], ~tie)).nonzero()[0]
                z, m = z[starts], np.minimum.reduceat(m, starts)
                v = z.imag
            keep = v < np.minimum.accumulate(np.concatenate(([np.inf], v[:-1])))
            z, m = z[keep], m[keep]
    return int(m[-1])


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
        per = {c: 0.0 for c in CONSTITUENT_ORDER}
        for t in selection:
            per[t.constituent] += cost[t.task_id]
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
