"""Tests for budget-constrained task selection.

The exhaustive oracle enumerates every subset of the optional tasks as a
bitmask and keeps the best one under the strict budget; the production
solver must match it on every instance.
"""

import dataclasses
import math
import random
import sys
from fractions import Fraction

import pytest

from wsnec.energy_core import CoefficientVector, Constituent
from wsnec.policy import (
    CONSTRAINT_BUDGET,
    CONSTRAINT_GLOBAL,
    CONSTRAINT_LOCAL,
    BudgetProblem,
    TaskDescriptor,
    select_tasks,
    task_cost,
)

ALPHA = CoefficientVector((2.0, 3.0, 5.0, 0.0, 1.0),
                          (True, True, True, False, True))


def exhaustive_best(costs, values, capacity):
    """Max total value over subsets with total cost strictly below capacity."""
    n = len(costs)
    best = 0.0
    for mask in range(1 << n):
        cost = value = 0.0
        for i in range(n):
            if mask & (1 << i):
                cost += costs[i]
                value += values[i]
        if cost < capacity and value > best:
            best = value
    return best


def selected_ids(result):
    return tuple(t.task_id for t in result.scheduled)


def constraints_of(tasks, battery):
    """The constraints ``select_tasks`` reports for a selection of ``tasks``:
    all of them, made mandatory, with the positivity checks not enforced."""
    mandatory = tuple(dataclasses.replace(t, mandatory=True) for t in tasks)
    return select_tasks(BudgetProblem(mandatory, ALPHA, battery, enforce_positivity=False)).constraints


def mandatory_pair():
    return [
        TaskDescriptor(9001, Constituent.LOCAL, 1, 1.0, mandatory=True),
        TaskDescriptor(9002, Constituent.GLOBAL, 1, 1.0, mandatory=True),
    ]


class TestTaskCost:
    def test_zero_pf_rejected_by_type(self):
        with pytest.raises(ValueError):
            TaskDescriptor(1, Constituent.GLOBAL, 0, 1.0)

    @pytest.mark.parametrize("pf_size, importance, boundary", [
        (10 ** 400, 1.0, "pf_size within float range"),
        (1, 10 ** 400, "importance > 0"),
        (1, math.inf, "importance > 0"),
    ])
    def test_values_past_float_range_rejected(self, pf_size, importance, boundary):
        # task_cost would overflow on alpha * pf_size; rejected where the task is built.
        with pytest.raises(ValueError, match=f"parameter boundary {boundary} violated"):
            TaskDescriptor(1, Constituent.GLOBAL, pf_size, importance)

    def test_largest_pf_size_within_float_range_accepted(self):
        pf_size = int(sys.float_info.max)
        assert task_cost(TaskDescriptor(1, Constituent.GLOBAL, pf_size, 1.0), ALPHA) == math.inf

    def test_cost_is_alpha_times_pf(self):
        task = TaskDescriptor(1, Constituent.GLOBAL, 3, 1.0)
        assert task_cost(task, ALPHA) == 15.0

    def test_random_product_oracle(self):
        rng = random.Random(67)
        for _ in range(100):
            alpha = CoefficientVector([rng.uniform(0, 1e-3) for _ in range(5)])
            pf = rng.randrange(1, 100)
            task = TaskDescriptor(1, Constituent.LOCAL, pf, 1.0)
            assert task_cost(task, alpha) == pytest.approx(alpha.alpha[1] * pf, rel=1e-12)

    def test_inactive_constituent_rejected(self):
        task = TaskDescriptor(1, Constituent.ENVIRONMENT, 2, 1.0)
        with pytest.raises(ValueError, match="inactive"):
            task_cost(task, ALPHA)


class TestCheckConstraints:
    def test_empty_selection(self):
        got = constraints_of([], 10.0)
        assert got == {CONSTRAINT_LOCAL: False, CONSTRAINT_GLOBAL: False,
                       CONSTRAINT_BUDGET: True}

    def test_exact_budget_violates_strict_inequality(self):
        tasks = mandatory_pair()   # local cost 3 + global cost 5 = 8
        got = constraints_of(tasks, 8.0)
        assert got[CONSTRAINT_BUDGET] is False
        assert got[CONSTRAINT_LOCAL] and got[CONSTRAINT_GLOBAL]

    def test_random_selection_matches_recomputation(self):
        rng = random.Random(71)
        for _ in range(50):
            tasks = [TaskDescriptor(i, rng.choice([Constituent.INDIVIDUAL,
                                                   Constituent.LOCAL,
                                                   Constituent.GLOBAL,
                                                   Constituent.SINK]),
                                    rng.randrange(1, 10), 1.0)
                     for i in range(rng.randrange(0, 8))]
            battery = rng.uniform(0, 100)
            got = constraints_of(tasks, battery)
            local = sum(t.pf_size * 3.0 for t in tasks if t.constituent is Constituent.LOCAL)
            glob = sum(t.pf_size * 5.0 for t in tasks if t.constituent is Constituent.GLOBAL)
            indiv = sum(t.pf_size * 2.0 for t in tasks if t.constituent is Constituent.INDIVIDUAL)
            snk = sum(t.pf_size * 1.0 for t in tasks if t.constituent is Constituent.SINK)
            assert got[CONSTRAINT_LOCAL] == (local > 0)
            assert got[CONSTRAINT_GLOBAL] == (glob > 0)
            assert got[CONSTRAINT_BUDGET] == (indiv + local + glob + snk < battery)


class TestSelectTasks:
    def test_unconstrained_budget_selects_everything(self):
        tasks = mandatory_pair() + [
            TaskDescriptor(i, Constituent.INDIVIDUAL, i + 1, float(i + 1))
            for i in range(5)]
        result = select_tasks(BudgetProblem(tuple(tasks), ALPHA, 1e9))
        assert result.feasible
        assert set(selected_ids(result)) == {t.task_id for t in tasks}

    def test_tight_budget_keeps_mandatory_only(self):
        tasks = mandatory_pair() + [TaskDescriptor(1, Constituent.GLOBAL, 10, 100.0)]
        # mandatory cost 8; optional costs 50; budget fits mandatory only
        result = select_tasks(BudgetProblem(tuple(tasks), ALPHA, 10.0))
        assert result.feasible
        assert set(selected_ids(result)) == {9001, 9002}

    def test_worked_example_matches_brute_force(self):
        # optional costs (3,4,5,6) via individual pf sizes, importances (3,4,5,7)
        alpha = CoefficientVector((1.0, 0.5, 0.5, 0.0, 0.0),
                                  (True, True, True, False, False))
        mand = [TaskDescriptor(90, Constituent.LOCAL, 1, 1.0, mandatory=True),
                TaskDescriptor(91, Constituent.GLOBAL, 1, 1.0, mandatory=True)]
        optional = [TaskDescriptor(i, Constituent.INDIVIDUAL, c, imp)
                    for i, (c, imp) in enumerate(zip((3, 4, 5, 6), (3.0, 4.0, 5.0, 7.0)))]
        battery = 11.0   # mandatory costs 1.0; optional budget 10, strict
        result = select_tasks(BudgetProblem(tuple(mand + optional), alpha, battery))
        best = exhaustive_best([3.0, 4.0, 5.0, 6.0], [3.0, 4.0, 5.0, 7.0],
                               battery - 1.0)
        optional_importance = result.total_importance - 2.0
        assert optional_importance == pytest.approx(best)
        # strict budget: {4,6} costs exactly 10 and is excluded; {3,6} wins
        assert best == 10.0

    def test_infeasible_mandatory_reports_budget_constraint(self):
        tasks = mandatory_pair()
        result = select_tasks(BudgetProblem(tuple(tasks), ALPHA, 5.0))
        assert not result.feasible
        assert CONSTRAINT_BUDGET in result.failed_constraints
        assert set(selected_ids(result)) == {9001, 9002}

    def test_exact_budget_mandatory_is_infeasible(self):
        tasks = mandatory_pair()   # cost exactly 8
        result = select_tasks(BudgetProblem(tuple(tasks), ALPHA, 8.0))
        assert not result.feasible
        assert CONSTRAINT_BUDGET in result.failed_constraints

    def test_schedule_ordered_by_density_then_id(self):
        tasks = mandatory_pair() + [
            TaskDescriptor(1, Constituent.INDIVIDUAL, 1, 4.0),   # density 2.0
            TaskDescriptor(2, Constituent.INDIVIDUAL, 2, 4.0),   # density 1.0
            TaskDescriptor(3, Constituent.INDIVIDUAL, 1, 4.0),   # density 2.0
        ]
        result = select_tasks(BudgetProblem(tuple(tasks), ALPHA, 1e6))
        densities = []
        ids = []
        for t in result.scheduled:
            cost = task_cost(t, ALPHA)
            densities.append(t.importance / cost if cost > 0 else math.inf)
            ids.append(t.task_id)
        assert densities == sorted(densities, reverse=True)
        assert ids.index(1) < ids.index(3)   # equal density, lower id first

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_equal_densities_tie_on_id_despite_float_noise(self, ulps):
        # importance = pf size: one exact density, but importance / (alpha * pf)
        # rounds to more than one float, with alpha moved by its last bit too.
        alpha = 7.087735405557836e-05
        for _ in range(abs(ulps)):
            alpha = math.nextafter(alpha, math.copysign(math.inf, ulps))
        coefficients = CoefficientVector((0.0, 0.0, alpha, 0.0, 0.0),
                                         (False, False, True, False, False))
        sizes = [4194311, 1, 262146, 1036, 8195, 131073, 16395, 266, 2097154, 7, 513]
        assert len({float(pf) / (alpha * pf) for pf in sizes}) > 1
        tasks = tuple(TaskDescriptor(i, Constituent.GLOBAL, pf, float(pf))
                      for i, pf in enumerate(sizes))
        result = select_tasks(BudgetProblem(tasks, coefficients, 1e9, enforce_positivity=False))
        assert selected_ids(result) == tuple(range(len(sizes)))

    def test_schedule_order_matches_exact_fractions(self):
        # Reference: importance / (alpha * pf) as Fractions, highest first, then id.
        rng = random.Random(19)
        for _ in range(60):
            base = [10.0 ** rng.uniform(-12, 3) for _ in range(3)]
            alpha = [math.nextafter(a, rng.choice((0.0, math.inf))) if rng.random() < 0.5 else a
                     for a in base]
            coefficients = CoefficientVector((*alpha, 0.0, 0.0), (True, True, True, False, False))
            tasks = []
            for i in range(12):
                c = rng.choice((Constituent.INDIVIDUAL, Constituent.LOCAL, Constituent.GLOBAL))
                pf = rng.randrange(1, 5000)
                importance = (float(pf) * rng.choice((1, 2, 3)) if rng.random() < 0.7
                              else rng.uniform(0.5, 10.0))
                tasks.append(TaskDescriptor(i, c, pf, importance))
            battery = 2 * sum(task_cost(t, coefficients) for t in tasks) + 1.0
            result = select_tasks(BudgetProblem(tuple(tasks), coefficients, battery,
                                                enforce_positivity=False))
            assert len(result.scheduled) == len(tasks)
            expected = sorted(tasks, key=lambda t: (
                -Fraction(t.importance) / (Fraction(coefficients.get(t.constituent)) * t.pf_size),
                t.task_id))
            assert selected_ids(result) == tuple(t.task_id for t in expected)

    def test_nonpositive_costs_come_first_by_id(self):
        coefficients = CoefficientVector((-1.0, 0.0, 2.0, 0.0, 0.0),
                                         (True, True, True, False, False))
        tasks = (TaskDescriptor(1, Constituent.GLOBAL, 1, 9.0),
                 TaskDescriptor(2, Constituent.LOCAL, 1, 1.0),
                 TaskDescriptor(3, Constituent.INDIVIDUAL, 2, 1.0),
                 TaskDescriptor(4, Constituent.INDIVIDUAL, 1, 5.0))
        result = select_tasks(BudgetProblem(tasks, coefficients, 100.0, enforce_positivity=False))
        assert selected_ids(result) == (2, 3, 4, 1)

    def test_mandatory_positivity_validation(self):
        tasks = (TaskDescriptor(1, Constituent.LOCAL, 1, 1.0, mandatory=True),)
        with pytest.raises(ValueError, match="mandatory"):
            BudgetProblem(tasks, ALPHA, 10.0)
        BudgetProblem(tasks, ALPHA, 10.0, enforce_positivity=False)

    def test_duplicate_ids_rejected(self):
        tasks = mandatory_pair()
        tasks.append(TaskDescriptor(9001, Constituent.INDIVIDUAL, 1, 1.0))
        with pytest.raises(ValueError, match="unique"):
            BudgetProblem(tuple(tasks), ALPHA, 10.0)

    def test_greedy_heuristic_beyond_exact_limit(self):
        rng = random.Random(73)
        tasks = mandatory_pair() + [
            TaskDescriptor(i, Constituent.INDIVIDUAL, rng.randrange(1, 5),
                           rng.uniform(0.5, 5.0))
            for i in range(70)]
        result = select_tasks(BudgetProblem(tuple(tasks), ALPHA, 100.0))
        assert result.method == "greedy"
        assert result.total_cost < 100.0

    def test_per_constituent_energy_and_slack(self):
        tasks = mandatory_pair()
        result = select_tasks(BudgetProblem(tuple(tasks), ALPHA, 20.0))
        per = result.per_constituent
        assert per[Constituent.LOCAL] == 3.0 and per[Constituent.GLOBAL] == 5.0
        assert result.slack == pytest.approx(12.0)
        assert per == {Constituent.INDIVIDUAL: 0.0, Constituent.LOCAL: 3.0, Constituent.GLOBAL: 5.0,
                       Constituent.ENVIRONMENT: 0.0, Constituent.SINK: 0.0}


class TestInvariants:
    def _random_problem(self, rng, n_optional):
        alpha = CoefficientVector(
            [rng.uniform(0.5, 3.0) for _ in range(3)] + [0.0, 0.0],
            (True, True, True, False, False))
        tasks = [
            TaskDescriptor(9001, Constituent.LOCAL, 1, 1.0, mandatory=True),
            TaskDescriptor(9002, Constituent.GLOBAL, 1, 1.0, mandatory=True),
        ]
        for i in range(n_optional):
            constituent = rng.choice([Constituent.INDIVIDUAL, Constituent.LOCAL,
                                      Constituent.GLOBAL])
            tasks.append(TaskDescriptor(i, constituent, rng.randrange(1, 8),
                                        rng.uniform(0.1, 10.0)))
        mand_cost = sum(task_cost(t, alpha) for t in tasks if t.mandatory)
        battery = mand_cost + rng.uniform(0.5, 40.0)
        return BudgetProblem(tuple(tasks), alpha, battery), alpha

    def test_small_instances_match_exhaustive_enumeration(self):
        rng = random.Random(79)
        for _ in range(60):
            problem, alpha = self._random_problem(rng, rng.randrange(1, 13))
            result = select_tasks(problem)
            optional = [t for t in problem.tasks if not t.mandatory]
            costs = [task_cost(t, alpha) for t in optional]
            values = [t.importance for t in optional]
            mand_cost = sum(task_cost(t, alpha) for t in problem.tasks if t.mandatory)
            mand_imp = sum(t.importance for t in problem.tasks if t.mandatory)
            best = exhaustive_best(costs, values, problem.e_battery - mand_cost)
            assert result.total_importance == pytest.approx(mand_imp + best, rel=1e-9)

    def test_budget_safety_strict(self):
        rng = random.Random(83)
        for _ in range(60):
            problem, _ = self._random_problem(rng, rng.randrange(1, 13))
            result = select_tasks(problem)
            if result.feasible:
                assert result.total_cost < problem.e_battery

    def test_importance_monotone_in_battery(self):
        rng = random.Random(89)
        for _ in range(30):
            problem, alpha = self._random_problem(rng, 10)
            small = select_tasks(problem)
            bigger = select_tasks(BudgetProblem(problem.tasks, alpha,
                                                problem.e_battery * 1.5))
            assert bigger.total_importance >= small.total_importance - 1e-12

    def test_mandatory_tasks_always_scheduled(self):
        rng = random.Random(97)
        for _ in range(30):
            problem, _ = self._random_problem(rng, 8)
            result = select_tasks(problem)
            assert {9001, 9002} <= set(selected_ids(result))
