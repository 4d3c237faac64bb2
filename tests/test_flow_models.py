"""Tests for the closed-form flow models and probability functions.

The fixed-point oracle iterates total <- overhead + p * total from zero
until convergence; the closed forms must agree with its limit.
"""

import math
import random

import pytest

from wsnec.energy_core import BoundaryError
from wsnec.flow_models import (
    LOCAL_CAP_LIMIT,
    FlowSingularityError,
    GlobalParams,
    IndividualParams,
    LocalParams,
    ProbabilityModelConfig,
    environment_flow,
    global_flow,
    individual_flow,
    local_flow,
    p_coll,
    p_idle,
    p_ohear,
    p_pktls,
    p_sense,
    sink_flow,
    solve_flow_total,
)


def fixed_point_oracle(numerator, probability, tol=1e-12, max_iter=100000):
    """Iterate total = numerator + probability * total from 0 to convergence."""
    total = 0.0
    for _ in range(max_iter):
        nxt = numerator + probability * total
        if abs(nxt - total) < tol:
            return nxt
        total = nxt
    raise AssertionError("fixed point did not converge")


CFG = ProbabilityModelConfig()


class TestPSense:
    def test_vanishes_with_coverage(self):
        assert p_sense(1e-9, 0.0, CFG) == pytest.approx(0.0, abs=1e-12)

    def test_zero_delay_is_maximum_over_delay(self):
        at_zero = p_sense(10.0, 0.0, CFG)
        for g in (0.1, 1.0, 5.0):
            assert p_sense(10.0, g, CFG) <= at_zero

    def test_chosen_form_value(self):
        # sigma r^2 / (sigma r^2 + g + 1) with sigma=0.01, r=10, g=2 -> 1/4
        assert p_sense(10.0, 2.0, CFG) == pytest.approx(0.25, rel=1e-12)

    def test_increasing_in_radius(self):
        cfg = ProbabilityModelConfig(p_cap=0.99)
        values = [p_sense(r, 1.0, cfg) for r in (1, 5, 10, 20)]
        assert values == sorted(values)

    def test_capped(self):
        cfg = ProbabilityModelConfig(sigma_sense=100.0, p_cap=0.3)
        assert p_sense(50.0, 0.0, cfg) == 0.3

    def test_boundaries(self):
        with pytest.raises(BoundaryError):
            p_sense(0.0, 0.0, CFG)
        with pytest.raises(BoundaryError):
            p_sense(10.0, -1.0, CFG)


class TestLocalProbabilities:
    def test_zero_coefficients_give_zero(self):
        cfg = ProbabilityModelConfig(kappa_coll=0, kappa_ohear=0, kappa_idle=0)
        assert p_coll(1, 0.5, 10, cfg) == 0.0
        assert p_ohear(1, 10, 5.0, cfg) == 0.0
        assert p_idle(1, cfg) == 0.0

    def test_idle_chosen_form(self):
        cfg = ProbabilityModelConfig(kappa_idle=0.3)
        assert p_idle(2, cfg) == pytest.approx(0.1, rel=1e-12)

    def test_all_outputs_capped(self):
        rng = random.Random(23)
        cfg = ProbabilityModelConfig(kappa_coll=10, kappa_ohear=10, kappa_idle=10,
                                     area=100.0, p_cap=0.3)
        for _ in range(200):
            n = rng.randrange(1, 50)
            dens = rng.randrange(1, 200)
            assert 0 <= p_coll(n, rng.uniform(0, 5), dens, cfg) <= cfg.p_cap
            assert 0 <= p_ohear(n, dens, rng.uniform(0, 50), cfg) <= cfg.p_cap
            assert 0 <= p_idle(n, cfg) <= cfg.p_cap

    def test_local_cap_never_lets_probabilities_sum_to_one(self):
        cfg = ProbabilityModelConfig(kappa_coll=100, kappa_ohear=100, kappa_idle=100,
                                     p_cap=0.99)
        total = (p_coll(40, 5.0, 500, cfg) + p_ohear(40, 500, 100.0, cfg)
                 + p_idle(1, cfg))
        assert total <= 3 * LOCAL_CAP_LIMIT < 1.0

    def test_monotonicities(self):
        cfg = ProbabilityModelConfig(kappa_coll=1e-5, kappa_ohear=1e-3, kappa_idle=0.3)
        assert p_coll(2, 0.5, 10, cfg) <= p_coll(4, 0.5, 10, cfg) <= p_coll(4, 1.0, 20, cfg)
        assert p_ohear(2, 10, 5.0, cfg) <= p_ohear(4, 10, 5.0, cfg) <= p_ohear(4, 10, 9.0, cfg)
        assert p_idle(8, cfg) <= p_idle(2, cfg)

    def test_boundaries(self):
        with pytest.raises(BoundaryError):
            p_coll(0, 0.5, 10, CFG)
        with pytest.raises(BoundaryError):
            p_idle(0, CFG)


class TestPPktls:
    def test_zero_distance_zero_hops(self):
        assert p_pktls(0.0, 10.0, 25, CFG) == 0.0

    def test_two_hop_chosen_form(self):
        # p_hop = kappa/net_dens = 0.1, h = ceil(15/10) = 2 -> 1 - 0.81 = 0.19
        cfg = ProbabilityModelConfig(kappa_loss=1.0, p_cap=0.3)
        assert p_pktls(15.0, 10.0, 10, cfg) == pytest.approx(0.19, rel=1e-12)

    def test_lossless_channel(self):
        cfg = ProbabilityModelConfig(kappa_loss=0.0)
        for d in (1.0, 50.0, 500.0):
            assert p_pktls(d, 10.0, 25, cfg) == 0.0

    def test_non_decreasing_in_distance(self):
        cfg = ProbabilityModelConfig(kappa_loss=1.0, p_cap=0.9)
        values = [p_pktls(d, 10.0, 10, cfg) for d in (5, 15, 25, 105)]
        assert values == sorted(values)

    def test_unreachable_sink(self):
        with pytest.raises(BoundaryError):
            p_pktls(5.0, 0.0, 25, CFG)


class TestIndividualFlow:
    def test_zero_probability_collapses_to_plain_sum(self):
        cfg = ProbabilityModelConfig(sigma_sense=0.0)
        params = IndividualParams(r_sense=10.0, g_sense=0.0, b_os=10, b_sec=5)
        total, sensed = individual_flow(params, cfg)
        assert total == 15.0 and sensed == 0.0

    def test_half_probability_doubles_total(self):
        # sigma=1, r=1, g=0 -> p = 1/(1+1) = 0.5 (cap raised to allow it)
        cfg = ProbabilityModelConfig(sigma_sense=1.0, p_cap=0.9)
        params = IndividualParams(r_sense=1.0, g_sense=0.0, b_os=10, b_sec=5)
        total, sensed = individual_flow(params, cfg)
        assert total == pytest.approx(30.0, rel=1e-12)
        assert sensed == pytest.approx(15.0, rel=1e-12)
        assert total == pytest.approx(fixed_point_oracle(15.0, 0.5), rel=1e-9)

    def test_singularity_guard(self):
        with pytest.raises(FlowSingularityError):
            solve_flow_total(15.0, 1.0)
        with pytest.raises(FlowSingularityError):
            solve_flow_total(15.0, 1.0 - 1e-12)

    def test_identity_recovery(self):
        cfg = ProbabilityModelConfig(sigma_sense=0.5, p_cap=0.9)
        params = IndividualParams(r_sense=3.0, g_sense=1.0, b_os=7, b_sec=2)
        total, sensed = individual_flow(params, cfg)
        assert total == pytest.approx(sensed + params.b_os + params.b_sec, rel=1e-12)


class TestLocalFlow:
    def test_zero_probabilities(self):
        cfg = ProbabilityModelConfig(kappa_coll=0, kappa_ohear=0, kappa_idle=0)
        params = LocalParams(n=3, net_dens=25, g_tx=0.5, r_tx=10.0,
                             b_mon=5, b_sec=4, b_ohead=3)
        total, coll, idle, ohear = local_flow(params, cfg)
        assert total == 12.0 and coll == idle == ohear == 0.0

    def test_half_probability_sum(self):
        # idle 0.3 cap via kappa_idle=1.2 at n=3 -> 0.3; coll 0.1; ohear 0.1
        cfg = ProbabilityModelConfig(kappa_coll=0.1, kappa_ohear=0.1, kappa_idle=1.2,
                                     area=100.0, p_cap=0.33)
        params = LocalParams(n=3, net_dens=1, g_tx=1.0 / 3.0, r_tx=math.sqrt(100.0 / 3.0),
                             b_mon=5, b_sec=4, b_ohead=3)
        total, coll, idle, ohear = local_flow(params, cfg)
        assert total == pytest.approx(24.0, rel=1e-12)
        assert total == pytest.approx(fixed_point_oracle(12.0, 0.5), rel=1e-9)
        assert coll + idle + ohear + 12.0 == pytest.approx(total, rel=1e-12)

    def test_guard_on_probability_sum(self):
        with pytest.raises(FlowSingularityError):
            solve_flow_total(12.0, 1.0)


class TestGlobalFlow:
    def test_no_loss(self):
        cfg = ProbabilityModelConfig(kappa_loss=0.0)
        params = GlobalParams(dist_to_sink=50.0, net_dens=25, r_tx=10.0,
                              b_sec=2, b_topo=3, b_rout=2, b_ohead=1)
        total, lost = global_flow(params, cfg)
        assert total == 8.0 and lost == 0.0

    def test_twenty_percent_loss(self):
        # p_hop = 1/5 = 0.2, one hop
        cfg = ProbabilityModelConfig(kappa_loss=1.0, p_cap=0.3)
        params = GlobalParams(dist_to_sink=8.0, net_dens=5, r_tx=10.0,
                              b_sec=2, b_topo=3, b_rout=2, b_ohead=1)
        total, lost = global_flow(params, cfg)
        assert total == pytest.approx(10.0, rel=1e-12)
        assert lost == pytest.approx(2.0, rel=1e-12)
        assert total == pytest.approx(fixed_point_oracle(8.0, 0.2), rel=1e-9)

    def test_adjacent_to_sink(self):
        cfg = ProbabilityModelConfig(kappa_loss=1.0)
        params = GlobalParams(dist_to_sink=0.0, net_dens=5, r_tx=10.0,
                              b_sec=2, b_topo=3, b_rout=2, b_ohead=1)
        total, lost = global_flow(params, cfg)
        assert total == 8.0 and lost == 0.0


class TestSimpleFlows:
    def test_environment(self):
        assert environment_flow() == 0.0
        assert environment_flow(b_ph=4, b_sec=3) == 7.0

    def test_sink(self):
        assert sink_flow() == 0.0
        assert sink_flow(b_ohead=5, b_sec=2) == 7.0

    def test_random_sums(self):
        rng = random.Random(31)
        for _ in range(100):
            a, b = rng.uniform(0, 100), rng.uniform(0, 100)
            assert environment_flow(b_ph=a, b_sec=b) == pytest.approx(a + b, rel=1e-12)
            assert sink_flow(b_ohead=a, b_sec=b) == pytest.approx(a + b, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(BoundaryError):
            environment_flow(b_ph=-1)
        with pytest.raises(BoundaryError):
            sink_flow(b_sec=-2)


def test_fixed_point_equivalence_randomized():
    # Closed forms must equal the naive iteration limit for any probability
    # sum up to 0.9.
    rng = random.Random(41)
    for _ in range(500):
        numerator = rng.uniform(0, 100)
        p = rng.uniform(0, 0.9)
        closed = solve_flow_total(numerator, p)
        iterated = fixed_point_oracle(numerator, p)
        assert closed == pytest.approx(iterated, rel=1e-9)


def test_flows_non_decreasing_in_overheads():
    cfg = ProbabilityModelConfig(sigma_sense=0.5, p_cap=0.3)
    base = individual_flow(IndividualParams(5.0, 1.0, b_os=3, b_sec=2), cfg)[0]
    more = individual_flow(IndividualParams(5.0, 1.0, b_os=4, b_sec=2), cfg)[0]
    assert more >= base
    gbase = global_flow(GlobalParams(20.0, 25, 10.0, b_topo=1), cfg)[0]
    gmore = global_flow(GlobalParams(20.0, 25, 10.0, b_topo=1, b_rout=2), cfg)[0]
    assert gmore >= gbase


def test_probability_outputs_respect_cap_for_random_valid_inputs():
    rng = random.Random(43)
    for _ in range(300):
        cfg = ProbabilityModelConfig(
            sigma_sense=rng.uniform(0, 1), kappa_coll=rng.uniform(0, 1e-2),
            kappa_ohear=rng.uniform(0, 2), kappa_idle=rng.uniform(0, 2),
            kappa_loss=rng.uniform(0, 5), area=rng.uniform(100, 1e5),
            p_cap=rng.uniform(0, 0.99))
        assert 0 <= p_sense(rng.uniform(0.1, 50), rng.uniform(0, 10), cfg) <= cfg.p_cap
        n, dens = rng.randrange(1, 40), rng.randrange(1, 300)
        assert 0 <= p_coll(n, rng.uniform(0, 2), dens, cfg) <= cfg.p_cap
        assert 0 <= p_ohear(n, dens, rng.uniform(0, 60), cfg) <= cfg.p_cap
        assert 0 <= p_idle(n, cfg) <= cfg.p_cap
        assert 0 <= p_pktls(rng.uniform(0, 200), rng.uniform(1, 50), dens, cfg) <= cfg.p_cap


class TestTableBoundaries:
    def test_individual(self):
        with pytest.raises(BoundaryError, match="r_sense > 0"):
            IndividualParams(r_sense=0.0)
        with pytest.raises(BoundaryError):
            IndividualParams(r_sense=1.0, g_sense=-0.1)

    def test_local(self):
        with pytest.raises(BoundaryError, match="n >= 1"):
            LocalParams(n=0, net_dens=10)

    def test_global(self):
        with pytest.raises(BoundaryError):
            GlobalParams(dist_to_sink=-1.0, net_dens=10)

    def test_probability_config(self):
        with pytest.raises(BoundaryError):
            ProbabilityModelConfig(p_cap=1.0)
        with pytest.raises(BoundaryError):
            ProbabilityModelConfig(area=0.0)
