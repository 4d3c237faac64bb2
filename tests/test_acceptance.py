"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they pass.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import dataclasses
import math
import random
import time

import numpy as np
import pytest
from scipy import stats

import wsnec
from wsnec.config import ScenarioConfig, sample_config
from wsnec.energy_core import CoefficientVector, Constituent, ConstituentFlowVector
from wsnec.estimation import ObservationSet, error_report, fit_ls, predict_rows
from wsnec.flow_models import (
    GlobalParams,
    IndividualParams,
    LocalParams,
    ProbabilityModelConfig,
    global_flow,
    individual_flow,
    local_flow,
)
from wsnec.policy import BudgetProblem, TaskDescriptor, select_tasks, task_cost
from wsnec.radio import (
    RadioModelParams,
    relay_threshold,
    rx_energy_per_bit,
    tx_energy_per_bit_power_law,
)
from wsnec.simulator import Phase, run
from wsnec.traceio import observations_from_slices, read_observations, write_trace
from wsnec import cli


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE {number}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def default_run():
    return run(ScenarioConfig())


def test_criterion_1_exact_coefficient_recovery():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    alpha_true = np.array([1.7e-4, 6.5e-5, 2.4e-4])
    flows = rng.uniform(1.0, 200.0, size=(50, 3))
    energies = flows @ alpha_true
    obs = ObservationSet(flows, energies, (True, True, True, False, False))
    fit = fit_ls(obs)
    rel_errors = [abs(got - want) / want
                  for got, want in zip(fit.coefficients.alpha[:3], alpha_true)]
    elapsed = time.perf_counter() - started
    ok = max(rel_errors) <= 1e-9 and elapsed < 1.0
    report(1, "exact coefficient recovery",
           ok, f"max rel err {max(rel_errors):.2e}, {elapsed:.3f}s")


def test_criterion_2_headline_error_band():
    started = time.perf_counter()
    cfg = ScenarioConfig()
    result = run(cfg)
    phases = {r.phase for r in result.records}
    obs = observations_from_slices(result.records)
    split = int(obs.n_obs * 0.7)
    fit = fit_ls(obs.rows(0, split))
    scored = obs.rows(split, obs.n_obs)
    errors = error_report(predict_rows(fit.coefficients, scored), scored.energy)
    elapsed = time.perf_counter() - started
    ok = (len(result.records) >= 60
          and phases == {Phase.INITIALIZATION, Phase.COLLECTION, Phase.MAINTENANCE}
          and errors.mape <= 25.0
          and elapsed < 10.0)
    report(2, "headline error band",
           ok, f"{len(result.records)} slices, MAPE {errors.mape:.2f}% "
               f"(reference ~13%), {elapsed:.2f}s")


def test_criterion_3_global_dominance(default_run):
    result = default_run
    obs = observations_from_slices(result.records)
    split = int(obs.n_obs * 0.7)
    fit = fit_ls(obs.rows(0, split))

    maint = [r for r in result.records if r.phase is Phase.MAINTENANCE]
    coll = [r for r in result.records if r.phase is Phase.COLLECTION]
    totals = [0.0] * 5
    for rec in maint:
        for k in range(5):
            totals[k] += rec.flows.as_tuple()[k]
    shares = [fit.coefficients.alpha[k] * totals[k] for k in range(3)]
    global_dominant = shares[2] > shares[0] and shares[2] > shares[1]

    coll_mean = sum(r.energy_j for r in coll) / len(coll)
    min_ratio = min(r.energy_j for r in maint) / coll_mean
    ok = bool(maint) and global_dominant and min_ratio >= 1.5
    report(3, "global dominance in maintenance",
           ok, f"shares I/L/G {shares[0]:.4f}/{shares[1]:.4f}/{shares[2]:.4f} J, "
               f"min maintenance/collection energy ratio {min_ratio:.2f}")


def test_criterion_4_fixed_point_equivalence():
    started = time.perf_counter()

    def iterate(numerator, probability):
        total = 0.0
        for _ in range(100000):
            nxt = numerator + probability * total
            if abs(nxt - total) < 1e-13 * max(1.0, abs(nxt)):
                return nxt
            total = nxt
        raise AssertionError("no convergence")

    rng = random.Random(4)
    worst = 0.0
    for _ in range(1000):
        cfg = ProbabilityModelConfig(
            sigma_sense=rng.uniform(0, 1.0), kappa_coll=rng.uniform(0, 1e-3),
            kappa_ohear=rng.uniform(0, 1.0), kappa_idle=rng.uniform(0, 1.0),
            kappa_loss=rng.uniform(0, 5.0), area=rng.uniform(1e3, 1e5),
            p_cap=rng.uniform(0.05, 0.9))

        ind = IndividualParams(r_sense=rng.uniform(0.5, 40), g_sense=rng.uniform(0, 5),
                               b_os=rng.uniform(0, 50), b_sec=rng.uniform(0, 20))
        total, sensed = individual_flow(ind, cfg)
        p = sensed / total if total else 0.0
        worst = max(worst, abs(total - iterate(ind.b_os + ind.b_sec, p)) / total)

        loc = LocalParams(n=rng.randrange(1, 30), net_dens=rng.randrange(1, 200),
                          g_tx=rng.uniform(0, 2), r_tx=rng.uniform(0, 50),
                          b_mon=rng.uniform(0, 30), b_sec=rng.uniform(0, 20),
                          b_ohead=rng.uniform(1e-9, 30))
        ltotal, lcoll, lidle, lohear = local_flow(loc, cfg)
        lp = (lcoll + lidle + lohear) / ltotal if ltotal else 0.0
        numerator = loc.b_sec + loc.b_mon + loc.b_ohead
        worst = max(worst, abs(ltotal - iterate(numerator, lp)) / ltotal)

        glo = GlobalParams(dist_to_sink=rng.uniform(0, 300), net_dens=rng.randrange(1, 200),
                           r_tx=rng.uniform(1, 50), b_sec=rng.uniform(0, 20),
                           b_topo=rng.uniform(0, 20), b_rout=rng.uniform(1e-9, 20),
                           b_ohead=rng.uniform(0, 20))
        gtotal, glost = global_flow(glo, cfg)
        gp = glost / gtotal if gtotal else 0.0
        gnum = glo.b_sec + glo.b_topo + glo.b_rout + glo.b_ohead
        worst = max(worst, abs(gtotal - iterate(gnum, gp)) / gtotal)

    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 1.0
    report(4, "fixed-point equivalence",
           ok, f"worst rel diff {worst:.2e} over 3000 draws, {elapsed:.3f}s")


def test_criterion_5_relay_threshold():
    params = RadioModelParams(e_t_elec=50e-9, e_r_elec=50e-9,
                              eps_amp=100e-12, alpha_pl=2.0)
    d_star = relay_threshold(params)
    value_ok = abs(d_star - 44.721) <= 1e-3

    def cost_gap(d, p):
        one = tx_energy_per_bit_power_law(d, p) + rx_energy_per_bit(p)
        two = 2 * tx_energy_per_bit_power_law(d / 2, p) + 2 * rx_energy_per_bit(p)
        return two - one

    rng = random.Random(5)
    worst_gap = 0.0
    for _ in range(100):
        p = RadioModelParams(e_t_elec=rng.uniform(10e-9, 500e-9),
                             e_r_elec=rng.uniform(10e-9, 500e-9),
                             eps_amp=rng.uniform(5e-12, 1000e-12),
                             alpha_pl=rng.uniform(1.2, 5.0))
        threshold = relay_threshold(p)
        lo, hi = threshold / 4, threshold * 4
        assert cost_gap(lo, p) > 0 > cost_gap(hi, p)
        for _ in range(80):   # bisect the crossing
            mid = 0.5 * (lo + hi)
            if cost_gap(mid, p) > 0:
                lo = mid
            else:
                hi = mid
        crossing = 0.5 * (lo + hi)
        worst_gap = max(worst_gap, abs(crossing - threshold) / threshold)
    ok = value_ok and worst_gap <= 1e-6
    report(5, "radio relay threshold",
           ok, f"threshold {d_star:.3f} m, worst crossing offset {worst_gap:.2e} rel")


def test_criterion_6_conservation_and_determinism(tmp_path):
    cfg = dataclasses.replace(ScenarioConfig(), seed=1302)
    first = run(cfg)
    # Whole nanojoules, compared exactly.
    drained = cfg.nodes * round(cfg.initial_battery * 1e9) - sum(n.battery for n in first.nodes)
    booked = sum(sum(energies) for _, _, energies in first.ledger.groups)

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(str(p1), first.records)
    write_trace(str(p2), run(cfg).records)
    identical = p1.read_bytes() == p2.read_bytes()

    ok = booked == drained > 0 and identical
    report(6, "conservation and determinism",
           ok, f"ledger {booked:.0f} nJ vs battery drop {drained:.0f} nJ, "
               f"byte-identical reruns: {identical}")


def test_criterion_7_knapsack_optimality():
    rng = random.Random(7)

    def exhaustive(costs, values, capacity):
        n = len(costs)
        subset_costs = np.zeros(1)
        subset_values = np.zeros(1)
        for c, v in zip(costs, values):
            subset_costs = np.concatenate([subset_costs, subset_costs + c])
            subset_values = np.concatenate([subset_values, subset_values + v])
        feasible = subset_costs < capacity
        return float(subset_values[feasible].max())

    mismatches = 0
    for _ in range(200):
        alpha = CoefficientVector(
            [rng.uniform(0.5, 3.0) for _ in range(3)] + [0.0, 0.0],
            (True, True, True, False, False))
        tasks = [TaskDescriptor(9001, Constituent.LOCAL, 1, 1.0, mandatory=True),
                 TaskDescriptor(9002, Constituent.GLOBAL, 1, 1.0, mandatory=True)]
        n_optional = rng.randrange(1, 17)
        for i in range(n_optional):
            tasks.append(TaskDescriptor(
                i, rng.choice([Constituent.INDIVIDUAL, Constituent.LOCAL,
                               Constituent.GLOBAL]),
                rng.randrange(1, 9), rng.uniform(0.1, 10.0)))
        mand_cost = sum(task_cost(t, alpha) for t in tasks if t.mandatory)
        battery = mand_cost + rng.uniform(0.5, 30.0)
        result = select_tasks(BudgetProblem(tuple(tasks), alpha, battery))
        optional = [t for t in tasks if not t.mandatory]
        best = exhaustive([task_cost(t, alpha) for t in optional],
                          [t.importance for t in optional], battery - mand_cost)
        if abs(result.total_importance - (2.0 + best)) > 1e-9 * max(1.0, best):
            mismatches += 1

    # strictness at the exact-budget boundary: integer costs, battery hit
    # exactly by the highest-importance subset, which must be rejected
    alpha_unit = CoefficientVector((1.0, 1.0, 1.0, 0.0, 0.0),
                                   (True, True, True, False, False))
    boundary_tasks = (
        TaskDescriptor(9001, Constituent.LOCAL, 1, 1.0, mandatory=True),
        TaskDescriptor(9002, Constituent.GLOBAL, 1, 1.0, mandatory=True),
        TaskDescriptor(1, Constituent.INDIVIDUAL, 4, 100.0),   # cost 4
        TaskDescriptor(2, Constituent.INDIVIDUAL, 3, 10.0),    # cost 3
    )
    boundary = select_tasks(BudgetProblem(boundary_tasks, alpha_unit, 6.0))
    # battery 6: mandatory cost 2; the 100-importance task costs exactly the
    # remaining 4 and is excluded by strictness; the cost-3 task fits
    strict_ok = (boundary.feasible and boundary.selected_ids.count(1) == 0
                 and 2 in boundary.selected_ids and boundary.total_cost < 6.0)
    exact_mandatory = select_tasks(BudgetProblem(boundary_tasks[:2], alpha_unit, 2.0))
    strict_ok = strict_ok and not exact_mandatory.feasible

    ok = mismatches == 0 and strict_ok
    report(7, "knapsack optimality",
           ok, f"{mismatches}/200 mismatches vs exhaustive, "
               f"boundary strictness: {strict_ok}")


def test_criterion_8_error_spike_visibility(tmp_path):
    cfg_path = tmp_path / "scenario.ini"
    cfg_path.write_text(sample_config())
    obs_path = tmp_path / "observations.csv"
    code = cli.main(["sweep", "--config", str(cfg_path),
                     "--output", str(obs_path), "--runs", "50"])
    assert code == 0
    obs = read_observations(str(obs_path))
    assert obs.n_obs == 50
    with pytest.warns(UserWarning, match="negative entries"):
        fit = fit_ls(obs)
    predicted = predict_rows(fit.coefficients, obs)
    abs_error = np.abs(predicted - obs.energy)
    global_flows = obs.flows[:, 2]
    rho, _ = stats.spearmanr(global_flows, abs_error)
    ok = rho > 0.3
    report(8, "error-spike visibility",
           ok, f"spearman(global flow, |prediction error|) = {rho:.3f} over 50 runs")
