"""Tests for the resource- and constituent-level energy accounting.

The reference oracles here (dot products, double sums) are coded as plain
loops, independent of the implementation under test.
"""

import collections
import dataclasses
import functools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsnec.config import DEFAULT_MIX, ConfigError, ScenarioConfig, SweepConfig
from wsnec.energy_core import (
    CONSTITUENT_ORDER,
    FLOAT_MAX,
    RESOURCE_NAMES,
    BoundaryError,
    CoefficientVector,
    Constituent,
    ConstituentFlowVector,
    ConstituentResourceMix,
    ResourcePowerProfile,
    ResourceUsageVector,
    as_float,
    bound,
    checked,
    constituent_alpha,
    finite,
    overall_energy,
    shown,
    task_energy,
)
from wsnec.flow_models import (
    GlobalParams,
    IndividualParams,
    LocalParams,
    ProbabilityModelConfig,
    environment_flow,
    p_coll,
    p_ohear,
    p_pktls,
    p_sense,
    solve_flow_total,
)
from wsnec.policy import BudgetProblem, TaskDescriptor
from wsnec.radio import RadioModelParams, tx_energy_per_bit, tx_energy_per_bit_power_law


def dot_oracle(xs, ys):
    """Independent reference: elementwise product accumulated in a loop."""
    total = 0.0
    for x, y in zip(xs, ys):
        total += x * y
    return total


class TestTaskEnergy:
    def test_zero_usage_costs_nothing(self):
        profile = ResourcePowerProfile(0.3, 0.1, 0.5, 0.7, 0.2)
        assert task_energy(ResourceUsageVector(), profile) == 0.0

    def test_unit_profile_sums_counts(self):
        profile = ResourcePowerProfile(1, 1, 1, 1, 1)
        usage = ResourceUsageVector(2, 3, 4, 5, 6)
        assert task_energy(usage, profile) == 20.0

    def test_matches_dot_product_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            profile = ResourcePowerProfile(*(rng.uniform(0, 1e-3) for _ in range(5)))
            usage = ResourceUsageVector(*(rng.randrange(0, 50) for _ in range(5)))
            expected = dot_oracle(profile.as_tuple(), usage.as_tuple())
            assert task_energy(usage, profile) == pytest.approx(expected, rel=1e-12)

    def test_additivity(self):
        rng = random.Random(11)
        profile = ResourcePowerProfile(*(rng.uniform(0, 1) for _ in range(5)))
        for _ in range(100):
            u1 = ResourceUsageVector(*(rng.randrange(0, 30) for _ in range(5)))
            u2 = ResourceUsageVector(*(rng.randrange(0, 30) for _ in range(5)))
            both = ResourceUsageVector(*map(sum, zip(u1.as_tuple(), u2.as_tuple())))
            assert task_energy(both, profile) == pytest.approx(
                task_energy(u1, profile) + task_energy(u2, profile), rel=1e-12)

    def test_homogeneity_in_profile(self):
        rng = random.Random(13)
        for _ in range(50):
            base = [rng.uniform(0, 1) for _ in range(5)]
            c = rng.uniform(0.1, 10)
            usage = ResourceUsageVector(*(rng.randrange(0, 30) for _ in range(5)))
            assert task_energy(usage, ResourcePowerProfile(*(c * p for p in base))) == \
                pytest.approx(c * task_energy(usage, ResourcePowerProfile(*base)), rel=1e-12)


class TestConstituentAlpha:
    def test_zero_weights(self):
        profile = ResourcePowerProfile(1, 2, 3, 4, 5)
        assert constituent_alpha((0, 0, 0, 0, 0), profile) == 0.0

    def test_unit_selector_picks_cpu_price(self):
        profile = ResourcePowerProfile(0.25, 2, 3, 4, 5)
        assert constituent_alpha((1, 0, 0, 0, 0), profile) == 0.25

    def test_uniform_weights_average(self):
        profile = ResourcePowerProfile(10, 20, 30, 40, 50)
        assert constituent_alpha((0.2,) * 5, profile) == pytest.approx(30.0, rel=1e-12)

    def test_homogeneity(self):
        profile = ResourcePowerProfile(1, 2, 3, 4, 5)
        w = (0.1, 0.4, 0.0, 0.2, 0.7)
        assert constituent_alpha(w, ResourcePowerProfile(3, 6, 9, 12, 15)) == \
            pytest.approx(3 * constituent_alpha(w, profile), rel=1e-12)

    def test_rejects_bad_weights(self):
        profile = ResourcePowerProfile(1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            constituent_alpha((1, 2, 3), profile)
        with pytest.raises(ValueError):
            constituent_alpha((1, -0.5, 0, 0, 0), profile)
        with pytest.raises(ValueError):
            constituent_alpha((1, math.inf, 0, 0, 0), profile)


class TestOverallEnergy:
    def test_zero_flows(self):
        alphas = CoefficientVector((1, 2, 3, 4, 5))
        assert overall_energy(alphas, ConstituentFlowVector()) == 0.0

    def test_unit_flows_on_active_mask(self):
        alphas = CoefficientVector((2, 3, 5, 0, 0), active=(True, True, True, False, False))
        flows = ConstituentFlowVector(1, 1, 1, 0, 0)
        assert overall_energy(alphas, flows) == 10.0

    def test_matches_dot_product_oracle(self):
        rng = random.Random(3)
        for _ in range(200):
            alpha = [rng.uniform(-1, 1) for _ in range(5)]
            flows = [rng.uniform(0, 100) for _ in range(5)]
            expected = dot_oracle(alpha, flows)
            got = overall_energy(CoefficientVector(alpha), ConstituentFlowVector(*flows))
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_nonzero_flow_on_inactive_constituent_rejected(self):
        alphas = CoefficientVector((1, 1, 1, 0, 0), active=(True, True, True, False, False))
        with pytest.raises(ValueError, match="inactive"):
            overall_energy(alphas, ConstituentFlowVector(1, 1, 1, 0, 2))

    def test_monotone_in_flows_for_nonnegative_alpha(self):
        rng = random.Random(5)
        alphas = CoefficientVector([rng.uniform(0, 1) for _ in range(5)])
        flows = [rng.uniform(0, 10) for _ in range(5)]
        base = overall_energy(alphas, ConstituentFlowVector(*flows))
        for k in range(5):
            bumped = list(flows)
            bumped[k] += 1.0
            assert overall_energy(alphas, ConstituentFlowVector(*bumped)) >= base


def test_mix_consistency_with_expanded_double_sum():
    # Building per-constituent coefficients from the mix and then taking the
    # flow inner product must equal the fully expanded weight*price*flow sum.
    rng = random.Random(17)
    for _ in range(50):
        profile = ResourcePowerProfile(*(rng.uniform(0, 1e-3) for _ in range(5)))
        mix = ConstituentResourceMix(
            [[rng.uniform(0, 2) for _ in range(5)] for _ in range(5)])
        flows = [rng.uniform(0, 50) for _ in range(5)]
        expanded = 0.0
        for k in range(5):
            for r in range(5):
                expanded += mix.rows[k][r] * profile.as_tuple()[r] * flows[k]
        coeffs = CoefficientVector(
            [constituent_alpha(mix.row(c), profile) for c in CONSTITUENT_ORDER])
        got = overall_energy(coeffs, ConstituentFlowVector(*flows))
        assert got == pytest.approx(expanded, rel=1e-9)


def test_from_mix_is_nonnegative():
    mix = ConstituentResourceMix([[1, 0, 2, 0, 1]] * 5)
    profile = ResourcePowerProfile(1e-5, 2e-5, 3e-5, 4e-5, 5e-5)
    coeffs = CoefficientVector(
        [constituent_alpha(mix.row(c), profile) for c in CONSTITUENT_ORDER])
    assert all(a >= 0 for a in coeffs.alpha)


class TestValidation:
    def test_profile_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            ResourcePowerProfile(-1, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            ResourcePowerProfile(0, math.nan, 0, 0, 0)

    def test_usage_rejects_fractional_counts(self):
        with pytest.raises(ValueError):
            ResourceUsageVector(b_cpu=1.5)
        assert ResourceUsageVector(b_cpu=2.0).b_cpu == 2

    def test_usage_rejects_negative(self):
        with pytest.raises(ValueError):
            ResourceUsageVector(b_tx=-1)

    def test_flows_reject_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            ConstituentFlowVector(b_global=-0.1)
        with pytest.raises(ValueError):
            ConstituentFlowVector(b_local=math.inf)

    @pytest.mark.parametrize("value, stored", [
        (3, 3.0), (0, 0.0), (True, 1.0), (False, 0.0), (np.float64(2.5), 2.5),
        (np.int64(4), 4.0), (-0.0, -0.0), (0.25, 0.25), ("1.5", 1.5),
    ], ids=["int", "zero", "true", "false", "float64", "int64", "minus-zero", "float", "str"])
    def test_flows_are_stored_as_plain_floats(self, value, stored):
        for name in ("b_individual", "b_local", "b_global", "b_environment", "b_snk"):
            got = getattr(ConstituentFlowVector(**{name: value}), name)
            assert type(got) is float
            assert got == stored and math.copysign(1.0, got) == math.copysign(1.0, stored)

    @pytest.mark.parametrize("value, shown", [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (-1, "-1.0"),
        (-0.5, "-0.5"), (np.float64(-2.0), "-2.0"), (np.float64(math.nan), "nan"),
    ], ids=["nan", "inf", "-inf", "negative-int", "negative", "negative-float64", "nan-float64"])
    def test_flow_errors_name_the_field_and_value(self, value, shown):
        for name in ("b_individual", "b_local", "b_global", "b_environment", "b_snk"):
            with pytest.raises(BoundaryError) as exc:
                ConstituentFlowVector(**{name: value})
            assert str(exc.value) == f"parameter boundary {name} >= 0 violated (got {shown})"

    def test_mix_shape_checked(self):
        with pytest.raises(ValueError):
            ConstituentResourceMix([[1, 2, 3]])

    def test_coefficients_allow_negative_but_not_nonfinite_active(self):
        CoefficientVector((-1, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            CoefficientVector((math.nan, 0, 0, 0, 0))
        # inactive entries may be anything; they are zeroed
        cv = CoefficientVector((math.nan, 1, 1, 1, 1), active=(False,) + (True,) * 4)
        assert cv.alpha[0] == 0.0

    def test_constituent_order_is_stable(self):
        assert [c.value for c in CONSTITUENT_ORDER] == [
            "individual", "local", "global", "environment", "snk"]
        assert Constituent.SINK.value == "snk"


MASK_ILG = (True, True, True, False, False)


class TestValueContract:
    """What the mix and coefficient constructors accept, store and print."""

    def test_coefficient_repr(self):
        cv = CoefficientVector((1, 2.5, -3, 7, 9), MASK_ILG)
        assert repr(cv) == ("CoefficientVector(alpha=(1.0, 2.5, -3.0, 0.0, 0.0), "
                            "active=(True, True, True, False, False))")

    @pytest.mark.parametrize("rows", [
        [[1, 2, 3]], [[0.0] * 5] * 4, [[0.0] * 5] * 6, [[0.0] * 5] * 4 + [[0.0] * 4],
    ], ids=["1x3", "4x5", "6x5", "ragged"])
    def test_mix_shape_error(self, rows):
        with pytest.raises(ValueError, match=r"^mix must be a 5x5 matrix \(constituents x resources\)$"):
            ConstituentResourceMix(rows)

    def test_mix_negative_weight_names_its_cell(self):
        rows = [[0.0] * 5 for _ in range(5)]
        rows[1][2] = -1
        with pytest.raises(BoundaryError,
                           match=r"^parameter boundary mix\[local\]\[rx\] >= 0 violated \(got -1\.0\)$"):
            ConstituentResourceMix(rows)

    def test_mix_accepts_a_generator_and_stores_float_tuples(self):
        mix = ConstituentResourceMix(([k, 0, 1, 0, 2] for k in range(5)))
        assert mix.rows == tuple((float(k), 0.0, 1.0, 0.0, 2.0) for k in range(5))
        assert all(type(w) is float for row in mix.rows for w in row)
        assert mix.row(Constituent.GLOBAL) == (2.0, 0.0, 1.0, 0.0, 2.0)
        assert mix == ConstituentResourceMix(mix.rows)
        assert mix != ConstituentResourceMix([[0] * 5] * 5)
        assert mix != mix.rows

    @pytest.mark.parametrize("alpha, active, message", [
        ((1.0,) * 4, None, r"^alpha must have 5 entries \(one per constituent\)$"),
        ((1.0,) * 6, None, r"^alpha must have 5 entries \(one per constituent\)$"),
        ((1.0,) * 5, (True,) * 4, r"^active mask must have 5 entries$"),
        ((1.0,) * 5, (True,) * 6, r"^active mask must have 5 entries$"),
        ((1.0, math.nan, 0, 0, 0), MASK_ILG, r"^active coefficient must be finite, got nan$"),
        ((1.0, 0, -math.inf, 0, 0), None, r"^active coefficient must be finite, got -inf$"),
    ], ids=["alpha-4", "alpha-6", "mask-4", "mask-6", "nan", "-inf"])
    def test_coefficient_errors(self, alpha, active, message):
        with pytest.raises(ValueError, match=message):
            CoefficientVector(alpha, active)

    def test_coefficients_default_all_active_and_zero_inactive_entries(self):
        cv = CoefficientVector([1, 2, 3, 4, 5])
        assert cv.alpha == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert cv.active == (True,) * 5
        assert cv.active_constituents() == CONSTITUENT_ORDER
        cv = CoefficientVector((1, 2, 3, math.inf, math.nan), MASK_ILG)
        assert cv.alpha == (1.0, 2.0, 3.0, 0.0, 0.0)
        assert all(type(a) is float for a in cv.alpha)
        assert cv.active_constituents() == CONSTITUENT_ORDER[:3]
        assert not cv.is_active(Constituent.SINK) and cv.get(Constituent.SINK) == 0.0

    def test_coefficient_equality(self):
        cv = CoefficientVector((1, 2, 3, 0, 0), MASK_ILG)
        assert cv == CoefficientVector((1.0, 2.0, 3.0, 9.0, 9.0), [1, 1, 1, 0, 0])
        assert not cv != CoefficientVector((1, 2, 3, 0, 0), MASK_ILG)
        assert cv != CoefficientVector((1, 2, 3, 0, 0))
        assert cv != CoefficientVector((1, 2, 4, 0, 0), MASK_ILG)
        assert cv != cv.alpha and not cv == cv.alpha

    def test_values_are_frozen_and_hashable(self):
        cv = CoefficientVector((1, 2, 3, 0, 0), MASK_ILG)
        mix = ConstituentResourceMix([[1, 0, 1, 0, 1]] * 5)
        for value, name, junk in [(cv, "alpha", (math.nan,) * 5), (cv, "active", (True,) * 5),
                                  (mix, "rows", ((-1.0,) * 5,) * 5)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, junk)
        assert cv.alpha == (1.0, 2.0, 3.0, 0.0, 0.0) and cv.active == MASK_ILG
        assert mix.rows == ((1.0, 0.0, 1.0, 0.0, 1.0),) * 5
        assert hash(cv) == hash(CoefficientVector([1.0, 2.0, 3.0, -5.0, 7.0], list(MASK_ILG)))
        assert hash(mix) == hash(ConstituentResourceMix(([1, 0, 1, 0, 1] for _ in range(5))))

    def test_scenario_mix_default_is_the_module_constant(self):
        assert ScenarioConfig().mix is DEFAULT_MIX
        assert hash(ScenarioConfig()) == hash(ScenarioConfig())
        assert ScenarioConfig(mix=ConstituentResourceMix(DEFAULT_MIX.rows)) == ScenarioConfig()


@pytest.mark.parametrize("build", [
    lambda: ResourcePowerProfile(p_cpu=-1, p_mem=0, p_rx=0, p_tx=0, p_sens=0),
    lambda: ResourceUsageVector(b_cpu=1.5),
    lambda: RadioModelParams(eps_fs=0),
    lambda: tx_energy_per_bit(-1, RadioModelParams()),
    lambda: TaskDescriptor(1, Constituent.LOCAL, 1, importance=0),
    lambda: BudgetProblem((), CoefficientVector((1.0,) * 5), e_battery=-1),
    lambda: environment_flow(b_ph=-1),
], ids=["profile", "usage", "radio-params", "tx-distance", "task", "budget", "environment-flow"])
def test_scalar_boundaries_raise_one_error_family(build):
    with pytest.raises(BoundaryError, match="parameter boundary"):
        build()


@pytest.mark.parametrize("name, build", [
    ("p_cpu", lambda: ResourcePowerProfile(10 ** 400, 0, 0, 0, 0)),
    ("b_local", lambda: ConstituentFlowVector(b_local=10 ** 400)),
    ("e_battery", lambda: BudgetProblem((), CoefficientVector([1] * 5), 10 ** 400,
                                        enforce_positivity=False)),
    ("distance", lambda: tx_energy_per_bit(10 ** 400, RadioModelParams())),
    ("g_tx", lambda: LocalParams(n=1, net_dens=1, g_tx=10 ** 400)),
    ("b_ph", lambda: environment_flow(b_ph=10 ** 400)),
], ids=["profile", "flows", "budget", "tx-distance", "local-params", "environment-flow"])
def test_an_int_past_float_range_breaks_its_boundary(name, build):
    # float() of such an int overflows, so it is compared unconverted.
    with pytest.raises(BoundaryError) as exc:
        build()
    assert str(exc.value) == f"parameter boundary {name} >= 0 violated (got {10 ** 400!r})"


HUGE = 10 ** 400
ALL_ZERO_MIX = [[0.0] * 5 for _ in range(5)]


@pytest.mark.parametrize("build, error, message", [
    (lambda: CoefficientVector([HUGE, 0, 0, 0, 0]), ValueError,
     f"active coefficient must be finite, got {HUGE!r}"),
    (lambda: CoefficientVector([1, 2, -HUGE, 0, 0]), ValueError,
     f"active coefficient must be finite, got {-HUGE!r}"),
    (lambda: ConstituentResourceMix([[0.0] * 5, [0.0, 0.0, 0.0, HUGE, 0.0]] + ALL_ZERO_MIX[2:]),
     BoundaryError, f"parameter boundary mix[local][tx] >= 0 violated (got {HUGE!r})"),
    (lambda: constituent_alpha([0.0, HUGE, 0.0, 0.0, 0.0], ScenarioConfig().profile),
     BoundaryError, f"parameter boundary weight[mem] >= 0 violated (got {HUGE!r})"),
    (lambda: RadioModelParams(e_t_elec=HUGE), BoundaryError,
     f"parameter boundary e_t_elec > 0 violated (got {HUGE!r})"),
    (lambda: RadioModelParams(alpha_pl=HUGE), BoundaryError,
     f"parameter boundary alpha_pl > 1 violated (got {HUGE!r})"),
    (lambda: RadioModelParams(d0=HUGE), BoundaryError,
     f"parameter boundary d0 > 0 violated (got {HUGE!r})"),
    (lambda: IndividualParams(r_sense=HUGE), BoundaryError,
     f"parameter boundary r_sense > 0 violated (got {HUGE!r})"),
    (lambda: ProbabilityModelConfig(area=HUGE), BoundaryError,
     f"parameter boundary area > 0 violated (got {HUGE!r})"),
    (lambda: p_sense(HUGE, 0.0, ProbabilityModelConfig()), BoundaryError,
     f"parameter boundary r_sense > 0 violated (got {HUGE!r})"),
    (lambda: p_pktls(1.0, HUGE, 1, ProbabilityModelConfig()), BoundaryError,
     f"parameter boundary r_tx > 0 when dist_to_sink > 0 violated (got {HUGE!r})"),
], ids=["alpha-active", "alpha-active-negative", "mix", "constituent-alpha", "radio-e_t_elec",
        "radio-alpha_pl", "radio-d0", "individual-r_sense", "probability-area", "p_sense-r_sense",
        "p_pktls-r_tx"])
def test_an_int_past_float_range_is_rejected_as_inf_is(build, error, message):
    # float() and math.isfinite() of such an int overflow: each site reports it
    # the way it reports inf, with its own message, and not as OverflowError.
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


def test_an_inactive_alpha_past_float_range_is_stored_as_zero():
    cv = CoefficientVector([1, HUGE, 2, -HUGE, 0], (True, False, True, False, False))
    assert cv.alpha == (1.0, 0.0, 2.0, 0.0, 0.0) and all(type(a) is float for a in cv.alpha)


# An int too long for repr(): past sys.get_int_max_str_digits(), 4,300 by default.
HUGER = 10 ** 5000
HUGER_SHOWN = "<positive int of 16610 bits>"


@pytest.mark.parametrize("build, error, message", [
    (lambda: checked("x", -HUGER), BoundaryError,
     "parameter boundary x >= 0 violated (got <negative int of 16610 bits>)"),
    (lambda: ScenarioConfig(nodes=HUGER), ConfigError,
     f"invalid configuration:\n  parameter boundary nodes >= 1 violated (got {HUGER_SHOWN})"),
    (lambda: ScenarioConfig(seed=-HUGER), ConfigError,
     "invalid configuration:\n  parameter boundary seed >= 0 violated (got <negative int of 16610 bits>)"),
    (lambda: ScenarioConfig(area_width=HUGER), ConfigError,
     f"invalid configuration:\n  parameter boundary area_width > 0 violated (got {HUGER_SHOWN})"),
    (lambda: ScenarioConfig(init_slices=HUGER), ConfigError,
     f"invalid configuration:\n  parameter boundary init_slices >= 0 violated (got {HUGER_SHOWN})\n"
     f"  total_slices (80) must cover init_slices ({HUGER_SHOWN})"),
    (lambda: ScenarioConfig(sweep=SweepConfig(ranges={"maintenance_period": (4, HUGER)})), ConfigError,
     "invalid configuration:\n  sweep range for maintenance_period must be low:high with low <= high "
     f"(got 4:{HUGER_SHOWN})"),
    (lambda: TaskDescriptor(1, Constituent.LOCAL, HUGER, 1.0), BoundaryError,
     f"parameter boundary pf_size within float range violated (got {HUGER_SHOWN})"),
    (lambda: CoefficientVector([HUGER, 0, 0, 0, 0]), ValueError,
     f"active coefficient must be finite, got {HUGER_SHOWN}"),
    (lambda: ConstituentFlowVector(b_local=HUGER), BoundaryError,
     f"parameter boundary b_local >= 0 violated (got {HUGER_SHOWN})"),
], ids=["checked", "scenario-nodes", "scenario-seed", "scenario-area_width", "scenario-init_slices",
        "sweep-range", "task-pf_size", "alpha-active", "flows"])
def test_an_int_too_long_for_repr_is_reported_by_its_size(build, error, message):
    # repr() of such an int raises ValueError, so the message shows its sign and bit length.
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message


def test_the_formatter_shows_repr_when_it_can():
    assert [shown(v) for v in (10 ** 400, -0.0, math.nan, "1", True)] == [
        repr(10 ** 400), "-0.0", "nan", "'1'", "True"]


def test_radio_and_flow_params_keep_the_converted_value():
    params = RadioModelParams(e_t_elec="5e-8", eps_fs=10)
    assert (params.e_t_elec, params.eps_fs) == (5e-8, 10.0) and type(params.eps_fs) is float
    assert tx_energy_per_bit(10.0, params) == 5e-8 + 10.0 * 100.0
    assert IndividualParams(r_sense=10, g_sense="0.5").g_sense == 0.5
    assert GlobalParams(dist_to_sink="3", net_dens=1).dist_to_sink == 3.0
    assert type(BudgetProblem((), CoefficientVector([1] * 5), 2, enforce_positivity=False).e_battery) is float


RADIO = RadioModelParams()
CFG = ProbabilityModelConfig()


@pytest.mark.parametrize("call, number", [
    (lambda d: tx_energy_per_bit(d, RADIO), 10),
    (lambda d: tx_energy_per_bit(d, RADIO), 100),
    (lambda d: tx_energy_per_bit_power_law(d, RADIO), 10),
    (lambda p: solve_flow_total(1.0, p), 0),
    (lambda r: p_sense(r, 0.5, CFG), 5),
    (lambda g: p_sense(5.0, g, CFG), 2),
    (lambda g: p_coll(2, g, 3, CFG), 2),
    (lambda r: p_ohear(2, 3, r, CFG), 30),
    (lambda d: p_pktls(d, 5.0, 20, CFG), 10),
    (lambda r: p_pktls(10.0, r, 20, CFG), 3),
], ids=["tx-fs-d", "tx-mp-d", "tx-power-law-d", "solve-probability", "p_sense-r_sense", "p_sense-g_sense",
        "p_coll-g_tx", "p_ohear-r_tx", "p_pktls-dist_to_sink", "p_pktls-r_tx"])
def test_each_checked_argument_is_used_as_converted(call, number):
    # Each function computes with the float its check returned: an int, a numeric string and
    # the float give one result, bit for bit.
    results = [call(x) for x in (number, str(number), float(number))]
    assert [type(r) for r in results] == [float] * 3 and len({r.hex() for r in results}) == 1


def _above(name, threshold):
    """The rule of a field whose boundary is ``> threshold``, written without ``checked``."""
    def rule(x):
        v = as_float(x)
        bound(finite(v) and v > threshold, f"{name} > {threshold}", v)
        return v
    return rule


def _p_cap_rule(x):
    v = as_float(x)
    bound(0 <= v < 1, "0 <= p_cap < 1", v)
    return v


def _active_alpha(x):
    a = as_float(x)
    if not finite(a):
        raise ValueError(f"active coefficient must be finite, got {shown(a)}")
    return a


def _at(i, x, fill=0.0):
    return [x if j == i else fill for j in range(5)]


Site = collections.namedtuple("Site", "name build read rule")
PROFILE = ResourcePowerProfile(2e-5, 1e-5, 4e-5, 6e-5, 3e-5)
#: The fields whose boundary is ``> threshold``, each with its threshold; every other field of
#: PARAMS but p_cap is ``>= 0``.
POSITIVE = {"r_sense": 0, "area": 0, "e_t_elec": 0, "e_r_elec": 0, "eps_fs": 0, "eps_mp": 0, "eps_amp": 0,
            "alpha_pl": 1, "d0": 0}
PARAMS = [(IndividualParams, {"r_sense": 1.0}, ("r_sense", "g_sense", "b_os", "b_sec")),
          (LocalParams, {"n": 1, "net_dens": 1}, ("g_tx", "r_tx", "b_mon", "b_sec", "b_ohead")),
          (GlobalParams, {"dist_to_sink": 0.0, "net_dens": 1},
           ("dist_to_sink", "r_tx", "b_sec", "b_topo", "b_rout", "b_ohead")),
          (ProbabilityModelConfig, {},
           ("sigma_sense", "kappa_coll", "kappa_ohear", "kappa_idle", "kappa_loss", "area", "p_cap")),
          (RadioModelParams, {"d0": 1.0},
           ("e_t_elec", "e_r_elec", "eps_fs", "eps_mp", "eps_amp", "alpha_pl", "d0"))]


def _rule(name):
    if name == "p_cap":
        return _p_cap_rule
    return _above(name, POSITIVE[name]) if name in POSITIVE else functools.partial(checked, name)


def _sites():
    """Every field that goes through checked or as_float: its name, a build from one input
    value (every other field valid), a read of what was stored, and the rule it stores by."""
    sites = []
    flows, prices = ([f.name for f in dataclasses.fields(cls)]
                     for cls in (ConstituentFlowVector, ResourcePowerProfile))
    for i, (flow, price, r) in enumerate(zip(flows, prices, RESOURCE_NAMES)):
        sites += [
            Site(flow, lambda x, f=flow: ConstituentFlowVector(**{f: x}), operator.attrgetter(flow),
                 functools.partial(checked, flow)),
            Site(price, lambda x, i=i: ResourcePowerProfile(*_at(i, x)), operator.attrgetter(price),
                 functools.partial(checked, price)),
            Site(f"constituent_alpha {r}", lambda x, i=i: constituent_alpha(_at(i, x), PROFILE), lambda v: v,
                 lambda x, i=i, r=r: math.fsum(w * p for w, p in zip(_at(i, checked(f"weight[{r}]", x)),
                                                                    PROFILE.as_tuple())))]
        for k, c in enumerate(CONSTITUENT_ORDER):
            name = f"mix[{c.value}][{r}]"
            sites.append(Site(name, lambda x, i=i, k=k: ConstituentResourceMix(_at(k, _at(i, x), [0] * 5)),
                              lambda v, i=i, k=k: v.rows[k][i], functools.partial(checked, name)))
        for wrap in (list, iter):   # an iterator converts as a list does
            sites += [
                Site(f"alpha[{i}] {wrap.__name__}", lambda x, i=i, w=wrap: CoefficientVector(w(_at(i, x))),
                     lambda v, i=i: v.alpha[i], _active_alpha),
                Site(f"inactive alpha[{i}] {wrap.__name__}",
                     lambda x, i=i, w=wrap: CoefficientVector(w(_at(i, x)), _at(i, False, True)),
                     lambda v, i=i: v.alpha[i], lambda x: (as_float(x), 0.0)[1])]
    for cls, base, names in PARAMS:
        sites += [Site(f"{cls.__name__}.{n}", lambda x, c=cls, b=base, n=n: c(**{**b, n: x}),
                       operator.attrgetter(n), _rule(n)) for n in names]
    return sites + [Site("e_battery", lambda x: BudgetProblem((), CoefficientVector([1] * 5), x,
                                                             enforce_positivity=False),
                         operator.attrgetter("e_battery"), functools.partial(checked, "e_battery")),
                    Site("importance", lambda x: TaskDescriptor(1, Constituent.LOCAL, 1, x),
                         operator.attrgetter("importance"), _above("importance", 0))]


SITES = {site.name: site for site in _sites()}
NUMBERS = st.one_of(
    st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, FLOAT_MAX]),
    st.integers(), st.sampled_from([10 ** 400, -10 ** 400]), st.booleans(),
    st.floats().map(repr), st.integers(-10 ** 400, 10 ** 400).map(str), st.sampled_from(["x", "", " 2.5 "]))


def _outcome(f, x):
    """What ``f(x)`` gives: ("ok", float.hex of the value) or (exception class, message)."""
    try:
        value = f(x)
    except Exception as exc:
        return type(exc), str(exc)
    assert type(value) is float
    return "ok", value.hex()


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(list(SITES.values())), NUMBERS)
@example(SITES["alpha[1] iter"], 10 ** 400)
@example(SITES["inactive alpha[1] iter"], 10 ** 400)
def test_each_field_stores_what_its_rule_gives(site, x):
    # One rule for every value type: the stored value is checked / as_float of the input, bit for
    # bit (-0.0 stays -0.0), or construction raises what the rule raises, list or iterator alike.
    _, build, read, rule = site
    assert _outcome(lambda x: read(build(x)), x) == _outcome(rule, x)
