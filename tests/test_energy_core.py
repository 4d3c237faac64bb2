"""Tests for the resource- and constituent-level energy accounting.

The reference oracles here (dot products, double sums) are coded as plain
loops, independent of the implementation under test.
"""

import math
import random

import numpy as np
import pytest

from wsnec.energy_core import (
    CONSTITUENT_ORDER,
    BoundaryError,
    CoefficientVector,
    Constituent,
    ConstituentFlowVector,
    ConstituentResourceMix,
    ResourcePowerProfile,
    ResourceUsageVector,
    constituent_alpha,
    overall_energy,
    task_energy,
)
from wsnec.flow_models import environment_flow
from wsnec.policy import BudgetProblem, TaskDescriptor
from wsnec.radio import RadioModelParams, tx_energy_per_bit


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
        coeffs = CoefficientVector.from_mix(mix, profile)
        got = overall_energy(coeffs, ConstituentFlowVector(*flows))
        assert got == pytest.approx(expanded, rel=1e-9)


def test_from_mix_is_nonnegative():
    mix = ConstituentResourceMix([[1, 0, 2, 0, 1]] * 5)
    profile = ResourcePowerProfile(1e-5, 2e-5, 3e-5, 4e-5, 5e-5)
    coeffs = CoefficientVector.from_mix(mix, profile)
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
