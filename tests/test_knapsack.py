"""Equivalence and bounds of the exact knapsack solver.

``reference_knapsack_exact`` is the list-of-tuples Pareto-frontier DP the
numpy solver replaced, kept verbatim. Both do the same IEEE float64 sums and
comparisons in the same order, so the chosen bitmasks must be equal, not
merely of equal value.
"""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from wsnec.energy_core import CoefficientVector, Constituent
from wsnec.policy import (
    STATE_LIMIT,
    BudgetProblem,
    TaskDescriptor,
    _knapsack_exact,
    select_tasks,
    task_cost,
)


def reference_knapsack_exact(costs: list[float], values: list[float], capacity: float) -> int:
    """Max-importance subset with total cost strictly below capacity.

    Pareto-frontier DP: after each item, keep only non-dominated
    (cost, value) states; the chosen subset rides along as a bitmask.
    Returns the winning bitmask (ties: cheapest, then lowest ids).
    """
    frontier: list[tuple[float, float, int]] = [(0.0, 0.0, 0)]
    for i, (cost, value) in enumerate(zip(costs, values)):
        extended = []
        for c, v, mask in frontier:
            nc = c + cost
            if nc < capacity:
                extended.append((nc, v + value, mask | (1 << i)))
        merged = sorted(frontier + extended, key=lambda s: (s[0], -s[1], s[2]))
        pruned: list[tuple[float, float, int]] = []
        best_value = -math.inf
        for c, v, mask in merged:
            if v > best_value:
                pruned.append((c, v, mask))
                best_value = v
        frontier = pruned
    best = max(frontier, key=lambda s: (s[1], -s[0], -s[2]))
    # max() keeps the first of equal keys; resolve ties explicitly instead.
    candidates = [s for s in frontier if s[1] == best[1]]
    min_cost = min(c for c, _, _ in candidates)
    masks = sorted(mask for c, _, mask in candidates if c == min_cost)
    return masks[0]


def assert_same(costs, values, capacity):
    expected = reference_knapsack_exact(costs, values, capacity)
    assert _knapsack_exact(costs, values, capacity) == expected
    return expected


# Values that collide after rounding (0.1 + 0.2 != 0.3), zero, negative and
# tiny costs, and a few equal values, mixed with arbitrary floats.
TIE_COSTS = [0.0, -0.0, -0.5, -0.1, 0.1, 0.2, 0.3, 0.30000000000000004, 0.4, 0.5, 0.7,
             1.0, 2.0 ** -52]
costs_st = st.one_of(st.sampled_from(TIE_COSTS), st.floats(-1.0, 5.0))
values_st = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), st.floats(0.0, 10.0))
capacity_st = st.one_of(st.sampled_from([0.0, 0.3, 0.6, 0.7, 1.0, 1.5]), st.floats(-1.0, 12.0))


class TestEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(costs_st, values_st), max_size=14), capacity_st)
    def test_matches_reference(self, items, capacity):
        assert_same([c for c, _ in items], [v for _, v in items], capacity)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(TIE_COSTS), st.sampled_from([1.0, 2.0])),
                    max_size=16), st.sampled_from([0.3, 0.6, 0.7, 0.9, 1.0]))
    def test_matches_reference_on_tie_heavy_lists(self, items, capacity):
        assert_same([c for c, _ in items], [v for _, v in items], capacity)

    def test_rounded_sums_collide(self):
        # 0.1 + 0.2 rounds above 0.3, and 0.3 + 0.30000000000000004 ties with
        # 0.30000000000000004 + 0.3 only after rounding.
        costs = [0.1, 0.2, 0.3, 0.30000000000000004, 0.3, 0.1]
        values = [1.0, 1.0, 2.0, 2.0, 2.0, 1.0]
        for capacity in (0.3, 0.30000000000000004, 0.4, 0.6, 0.7, 0.9):
            assert_same(costs, values, capacity)
        # {0, 1} and {2} tie on value; rounding makes {2} the cheaper one.
        assert assert_same([0.1, 0.2, 0.3], [1.0, 1.0, 2.0], 0.31) == 0b100
        # At capacity 0.1 + 0.2, {0, 1} does not fit at all.
        assert assert_same([0.1, 0.2, 0.3], [1.0, 1.0, 2.0], 0.1 + 0.2) == 0b100

    def test_equal_costs_keep_only_the_higher_value(self):
        # 0.1 + 0.6 rounds to exactly 0.7, the cost of item 1, and {0, 2} is
        # worth 0.30000000000000004 against item 1's 0.3: the equal-cost
        # states must be ordered by value, or {1} stays on the frontier; with
        # item 3, {1, 3} then ties {0, 2, 3} in cost and in value after
        # rounding, and wins as the lower mask.
        assert assert_same([0.1, 0.7, 0.6, 0.2], [0.2, 0.3, 0.1, 0.30000000000000004],
                           1.0) == 0b1101
        # The same with an old and a new state of exactly equal cost.
        assert assert_same([3.0, 3.0, 0.5], [0.3, 0.30000000000000004, 0.30000000000000004],
                           5.0) == 0b110

    def test_zero_and_negative_costs_with_equal_values(self):
        costs = [0.0, -0.5, 0.5, 0.0, 1.0, -0.25, 0.5]
        values = [1.0] * len(costs)
        for capacity in (-0.5, 0.0, 0.25, 0.5, 1.0, 2.0):
            assert_same(costs, values, capacity)
        assert assert_same([0.0, -1.0], [1.0, 1.0], 0.5) == 0b11

    def test_no_items(self):
        assert _knapsack_exact([], [], 1.0) == reference_knapsack_exact([], [], 1.0) == 0
        assert _knapsack_exact([], [], -1.0) == 0

    def test_sixty_four_items_use_bit_63(self):
        rng = random.Random(64)
        costs = [rng.uniform(0.5, 3.0) for _ in range(64)]
        values = [rng.uniform(0.5, 3.0) for _ in range(64)]
        values[63] = 100.0
        mask = assert_same(costs, values, 0.3 * sum(costs))
        assert mask >> 63 == 1

    def test_capacity_equal_to_a_subset_sum_excludes_it(self):
        # Binary fractions sum exactly, so 0.25 + 0.5 == 0.75 == capacity.
        costs, values = [0.25, 0.5, 0.25], [1.0, 3.0, 0.5]
        assert assert_same(costs, values, 0.75) == 0b010
        assert assert_same(costs, values, 1.0) == 0b011


def branches(costs, values, capacity) -> set[str]:
    """The solver branches a list takes, read off the reference DP's frontiers.

    "equal costs": a task before the last merges states of equal cost;
    "fits nowhere": a task extends no state under capacity; the rest name
    how the last task's winner is decided against the best old state.
    """
    taken = set()
    frontier = [(0.0, 0.0, 0)]
    for i, (cost, value) in enumerate(zip(costs, values)):
        extended = [(c + cost, v + value, mask | (1 << i)) for c, v, mask in frontier
                    if c + cost < capacity]
        if not extended:
            taken.add("fits nowhere")
        merged = sorted(frontier + extended, key=lambda s: (s[0], -s[1], s[2]))
        if i < len(costs) - 1 and any(a[0] == b[0] for a, b in zip(merged, merged[1:])):
            taken.add("equal costs")
        if i == len(costs) - 1 and extended:
            old = frontier[-1]
            top = max(v for _, v, _ in extended)
            cheapest = min(c for c, v, _ in extended if v == top)
            if old[1] != top:
                taken.add("old wins" if old[1] > top else "extension wins")
            else:
                taken.add("cheaper wins" if old[0] != cheapest else "lower mask wins")
        pruned, best_value = [], -math.inf
        for c, v, mask in merged:
            if v > best_value:
                pruned.append((c, v, mask))
                best_value = v
        frontier = pruned
    return taken


@st.composite
def fit_budget_lists(draw):
    """Lists shaped like the benchmark's budget lists: a few per-packet
    coefficients times integer packet-flow sizes, importances that often
    repeat, and a capacity that is a fraction of the total cost."""
    alphas = draw(st.lists(st.one_of(st.sampled_from([7.0877e-05, 1e-4, 2.5e-4]),
                                     st.floats(1e-5, 1e-3)), min_size=1, max_size=3))
    items = draw(st.lists(st.tuples(st.sampled_from(alphas), st.integers(1, 40),
                                    st.one_of(st.sampled_from([1.0, 2.0, 5.0]),
                                              st.floats(0.5, 10.0).map(lambda x: round(x, 6)))),
                          max_size=20))
    fraction = draw(st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)))
    costs = [alpha * pf for alpha, pf, _ in items]
    return costs, [importance for _, _, importance in items], fraction * sum(costs)


class TestMergeAndLastTask:
    """Equal-cost runs and the last task, each checked against the reference."""

    def test_last_task_old_best_wins(self):
        assert assert_same([1.0, 1.0], [5.0, 1.0], 1.5) == 0b01

    def test_last_task_extension_wins(self):
        assert assert_same([1.0, 1.0], [1.0, 5.0], 1.5) == 0b10

    def test_last_task_equal_importance_cheaper_wins(self):
        assert assert_same([2.0, 1.5], [3.0, 3.0], 2.5) == 0b10
        assert assert_same([1.5, 2.0], [3.0, 3.0], 2.5) == 0b01

    def test_last_task_equal_importance_and_cost_lower_mask_wins(self):
        assert assert_same([1.0, 1.0], [2.0, 2.0], 1.5) == 0b01

    def test_last_task_extensions_tied_after_rounding(self):
        # {2} (0.3, 2.9999999999999996) and {0, 1} (0.30000000000000004, 3.0)
        # are both on the frontier, in that cost order; with the last task
        # both round to (1.3, 8.0), and {0, 1, 3} wins as the lower mask.
        costs, values = [0.1, 0.2, 0.3, 1.0], [1.0, 2.0, 2.9999999999999996, 5.0]
        assert branches(costs, values, 1.35) == {"extension wins"}
        assert assert_same(costs, values, 1.35) == 0b1011
        # {0} (0.1, 1.0) and {0, 1} (0.2, 1.0000000000000002) extend to the
        # same importance as {2} alone: the cheapest extension, {2}, wins.
        costs, values = [0.1, 0.1, 1.0], [1.0, 2.220446049250313e-16, 1e17]
        assert assert_same(costs, values, 2.0) == 0b100
        # {1} (0.1, 1e5) and {0} (0.2, 100000.00000000001) extend to the same
        # importance; the cheaper {1, 2} wins over the lower mask {0, 2}.
        costs, values = [0.2, 0.1, 1.0], [100000.00000000001, 1e5, 1e17]
        assert assert_same(costs, values, 1.25) == 0b110

    def test_last_task_fits_nowhere(self):
        assert assert_same([1.0, 5.0], [1.0, 9.0], 2.0) == 0b01
        assert assert_same([3.0], [1.0], 2.0) == 0

    def test_task_that_fits_nowhere_keeps_the_frontier(self):
        assert assert_same([1.0, 5.0, 0.5], [1.0, 9.0, 2.0], 2.0) == 0b101

    def test_equal_cost_run_of_three_keeps_the_lowest_mask(self):
        # At task 3 the extensions of {2}, {0, 2} and {0, 1} all round to
        # cost 1.0 and importance 1e17. In cost order their masks are 0b1100,
        # 0b1101 and 0b1011, so the lowest is the last of the run.
        costs = [1e-17, 3e-17, 0.0, 1.0, 1e-17]
        values = [1.0, 1.0, 2.220446049250313e-16, 1e17, 1.0]
        assert "equal costs" in branches(costs, values, 10.0)
        assert assert_same(costs, values, 10.0) == 0b1011

    @settings(max_examples=300, deadline=None)
    @given(fit_budget_lists())
    def test_matches_reference_on_fit_budget_lists(self, case):
        assert_same(*case)

    @pytest.mark.parametrize("branch", ["equal costs", "fits nowhere", "old wins",
                                        "extension wins", "cheaper wins", "lower mask wins"])
    def test_every_branch_fires_on_fit_budget_lists(self, branch):
        case = find(fit_budget_lists(), lambda case: branch in branches(*case),
                    settings=settings(max_examples=2000, database=None, derandomize=True,
                                      phases=[Phase.generate]))
        assert_same(*case)


def equal_density_problem(a: float) -> BudgetProblem:
    """24 equal-density items with distinct subset sums, two mandatory tasks,
    coefficient ``a`` for both constituents and room for about 3/4 of them."""
    rng = random.Random(24)
    sizes = [256 * 2 ** k + rng.randrange(10) for k in range(24)]
    rng.shuffle(sizes)
    alpha = CoefficientVector((0.0, a, a, 0.0, 0.0), (False, True, True, False, False))
    tasks = [TaskDescriptor(0, Constituent.LOCAL, 1, 1.0, mandatory=True),
             TaskDescriptor(1, Constituent.GLOBAL, 1, 1.0, mandatory=True)]
    tasks += [TaskDescriptor(k + 2, Constituent.GLOBAL, pf, float(pf))
              for k, pf in enumerate(sizes)]
    return BudgetProblem(tuple(tasks), alpha, a * (2 + int(0.75 * sum(sizes)) + 0.5))


def first_fit_by_exact_density(problem: BudgetProblem) -> tuple[int, ...]:
    """Mandatory tasks, then each optional task that still fits, tried by
    descending ``Fraction`` importance per joule (ties: lower id)."""
    alpha = problem.coefficients
    cost = {t.task_id: task_cost(t, alpha) for t in problem.tasks}
    chosen = [t.task_id for t in problem.tasks if t.mandatory]
    capacity = problem.e_battery - math.fsum(cost[i] for i in chosen)
    optional = sorted((t for t in problem.tasks if not t.mandatory), key=lambda t: (
        -Fraction(t.importance) / (Fraction(alpha.get(t.constituent)) * t.pf_size), t.task_id))
    total = 0.0
    for t in optional:
        if total + cost[t.task_id] < capacity:
            chosen.append(t.task_id)
            total += cost[t.task_id]
    return tuple(sorted(chosen))


class TestStateLimit:
    def test_equal_density_items_fall_back_to_greedy_in_bounded_time(self):
        # Every subset is on the frontier, so it would reach 2^24 states; the
        # cap stops it at STATE_LIMIT = 2^20 candidates, after about 20 items.
        problem = equal_density_problem(1e-4)
        start = time.perf_counter()
        result = select_tasks(problem)
        elapsed = time.perf_counter() - start
        assert result.method == "greedy"
        assert result.feasible
        assert result.total_cost < problem.e_battery
        assert elapsed < 10.0, f"select_tasks took {elapsed:.2f} s"

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_greedy_is_a_first_fit_in_exact_density_order(self, ulps):
        # At this coefficient the equal densities round to two floats, so a
        # float density order would try the tasks out of id order.
        a = 7.087735405557836e-05
        a = math.nextafter(a, ulps * math.inf) if ulps else a
        problem = equal_density_problem(a)
        result = select_tasks(problem)
        assert result.method == "greedy"
        assert tuple(sorted(t.task_id for t in result.scheduled)) == first_fit_by_exact_density(problem)
        if not ulps:
            assert result.total_importance == 2_147_483_483

    def test_cap_is_a_candidate_count(self):
        # Costs and values 2^k keep every subset on the frontier, so item k
        # (from 0) has 2^(k + 1) candidate states: n items reach STATE_LIMIT.
        n = STATE_LIMIT.bit_length() - 1
        weights = [2.0 ** k for k in range(n + 1)]
        assert _knapsack_exact(weights[:n], weights[:n], 2.0 ** (n + 2)) == 2 ** n - 1
        assert _knapsack_exact(weights, weights, 2.0 ** (n + 2)) is None
