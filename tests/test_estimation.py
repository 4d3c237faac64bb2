"""Tests for least-squares coefficient estimation.

The normal-equation oracle below solves (b^T b) A = b^T E by Gaussian
elimination with partial pivoting, written out longhand so it shares no
code with the production solver.
"""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnec import estimation, simulator
from wsnec.config import ScenarioConfig

from wsnec.energy_core import (
    CONSTITUENT_ORDER,
    CoefficientVector,
    ConstituentFlowVector,
    overall_energy,
)
from wsnec.estimation import (
    ErrorReport,
    FitResult,
    ObservationSet,
    RankDeficientError,
    error_report,
    fit_ls,
    predict_rows,
    rolling_fit,
)
from wsnec.traceio import observations_from_slices

MASK_ILG = (True, True, True, False, False)


def normal_equation_oracle(b, e):
    """Solve (b^T b) x = b^T e with hand-rolled Gaussian elimination."""
    m = len(b)
    n = len(b[0])
    ata = [[sum(b[i][r] * b[i][c] for i in range(m)) for c in range(n)] for r in range(n)]
    atb = [sum(b[i][r] * e[i] for i in range(m)) for r in range(n)]
    # forward elimination with partial pivoting
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(ata[r][col]))
        if abs(ata[pivot][col]) < 1e-300:
            raise ZeroDivisionError("singular normal equations")
        ata[col], ata[pivot] = ata[pivot], ata[col]
        atb[col], atb[pivot] = atb[pivot], atb[col]
        for row in range(col + 1, n):
            factor = ata[row][col] / ata[col][col]
            for c in range(col, n):
                ata[row][c] -= factor * ata[col][c]
            atb[row] -= factor * atb[col]
    # back substitution
    x = [0.0] * n
    for row in range(n - 1, -1, -1):
        acc = atb[row] - sum(ata[row][c] * x[c] for c in range(row + 1, n))
        x[row] = acc / ata[row][row]
    return x


def obs_from_arrays(b, e, active=MASK_ILG):
    return ObservationSet(np.asarray(b, float), np.asarray(e, float), active)


class TestFitLS:
    def test_exact_recovery_noiseless(self):
        rng = np.random.default_rng(5)
        b = rng.uniform(0, 100, size=(50, 3))
        a_true = np.array([1.5e-4, 7e-5, 2.2e-4])
        obs = obs_from_arrays(b, b @ a_true)
        fit = fit_ls(obs)
        for got, want in zip(fit.coefficients.alpha[:3], a_true):
            assert got == pytest.approx(want, rel=1e-9)

    def test_collinear_exact_single_column(self):
        obs = ObservationSet(np.array([[2.0], [4.0]]), np.array([4.0, 8.0]),
                             (True, False, False, False, False))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit = fit_ls(obs)
        assert fit.coefficients.alpha[0] == pytest.approx(2.0, rel=1e-12)

    def test_matches_normal_equation_oracle_with_noise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            b = rng.uniform(0, 50, size=(40, 3))
            e = b @ np.array([2e-4, 5e-5, 1e-4]) + rng.normal(0, 1e-4, size=40)
            e = np.abs(e)
            fit = fit_ls(obs_from_arrays(b, e))
            oracle = normal_equation_oracle(b.tolist(), e.tolist())
            for got, want in zip(fit.coefficients.alpha[:3], oracle):
                assert got == pytest.approx(want, rel=1e-6)

    def test_too_few_observations(self):
        with pytest.raises(ValueError, match="more observations"):
            fit_ls(obs_from_arrays([[1.0, 2.0, 3.0]], [1.0]))

    def test_zero_column_named(self):
        rng = np.random.default_rng(13)
        b = rng.uniform(1, 10, size=(60, 5))
        b[:, 3] = 0.0   # environment column
        e = b @ np.array([1e-4, 2e-4, 3e-4, 0, 1e-4])
        obs = ObservationSet(b, e, (True,) * 5)
        with pytest.raises(RankDeficientError) as exc:
            fit_ls(obs)
        assert "b_environment" in str(exc.value)
        assert exc.value.columns == ("b_environment",)

    def test_duplicated_columns_both_named(self):
        rng = np.random.default_rng(17)
        col = rng.uniform(1, 10, size=30)
        other = rng.uniform(1, 10, size=30)
        b = np.column_stack([col, 2.0 * col, other])
        obs = obs_from_arrays(b, col * 3e-4 + other * 1e-4)
        with pytest.raises(RankDeficientError) as exc:
            fit_ls(obs)
        assert set(exc.value.columns) == {"b_individual", "b_local"}

    def test_small_sample_warns(self):
        rng = np.random.default_rng(19)
        b = rng.uniform(1, 10, size=(5, 3))
        obs = obs_from_arrays(b, b @ np.array([1.0, 2.0, 3.0]))
        with pytest.warns(UserWarning, match="recommend"):
            fit_ls(obs)

    def test_negative_coefficient_warns(self):
        b = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]] * 10)
        e = b @ np.array([1.0, -0.5])
        obs = ObservationSet(b, e, (True, True, False, False, False))
        with pytest.warns(UserWarning, match="negative"):
            fit_ls(obs)


class TestPredict:
    def test_zero_flows(self):
        a = CoefficientVector((1, 1, 1, 0, 0), MASK_ILG)
        assert overall_energy(a, ConstituentFlowVector()) == 0.0

    def test_unit_coefficients(self):
        a = CoefficientVector((1, 1, 1, 0, 0), MASK_ILG)
        assert overall_energy(a, ConstituentFlowVector(2, 3, 4, 0, 0)) == 9.0

    def test_random_dot_oracle(self):
        rng = random.Random(29)
        for _ in range(100):
            alpha = [rng.uniform(0, 1e-3) for _ in range(3)] + [0.0, 0.0]
            flows = [rng.uniform(0, 100) for _ in range(3)] + [0.0, 0.0]
            expected = sum(a * f for a, f in zip(alpha, flows))
            a = CoefficientVector(alpha, MASK_ILG)
            assert overall_energy(a, ConstituentFlowVector(*flows)) == pytest.approx(expected, rel=1e-9)

    def test_mask_mismatch(self):
        a = CoefficientVector((1, 1, 0, 0, 0), (True, True, False, False, False))
        with pytest.raises(ValueError):
            overall_energy(a, ConstituentFlowVector(1, 1, 5, 0, 0))

    def test_predict_rows_mask_check(self):
        a = CoefficientVector((1, 1, 1, 0, 0), MASK_ILG)
        obs = ObservationSet(np.ones((3, 5)), np.ones(3), (True,) * 5)
        with pytest.raises(ValueError, match="mask"):
            predict_rows(a, obs)

    @pytest.mark.parametrize("battery", [0.5, 0.004])
    def test_split_and_rolling_predictions_are_each_rows_one_row_dot(self, battery):
        # One rule on both paths, so one model predicts a slice identically in
        # split and rolling reports: flows[t] @ the C-ordered active alphas.
        checked = 0
        for seed in range(1, 9):
            records = simulator.run(ScenarioConfig(seed=seed, initial_battery=battery)).records
            for mask in (MASK_ILG, (False, True, True, False, False),
                         (True, False, True, False, False)):
                obs = observations_from_slices(records, mask)
                active = np.flatnonzero(mask)
                split = int(obs.n_obs * 0.7)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    model = fit_ls(obs.rows(0, split)).coefficients
                    rolling = rolling_fit(obs, 20)
                predicted = predict_rows(model, obs.rows(split, obs.n_obs))
                assert predicted.tolist() == [float(obs.flows[t] @ np.take(model.alpha, active))
                                              for t in range(split, obs.n_obs)]
                by_stop = {wf.stop: wf.result.coefficients.alpha for wf in rolling.fits}
                assert [p for _, p in rolling.predictions] == [
                    float(obs.flows[t] @ np.take(by_stop[t], active)) for t, _ in rolling.predictions]
                checked += len(predicted) + len(rolling.predictions)
        assert checked == {0.5: 2016, 0.004: 1380}[battery]


class TestErrorReport:
    def test_identity_predictions(self):
        report = error_report([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert report.mape == 0.0 and report.max_abs_pct == 0.0

    def test_headline_thirteen_percent(self):
        report = error_report([87.0], [100.0])
        assert report.mape == pytest.approx(13.0, rel=1e-12)

    def test_random_loop_oracle(self):
        rng = random.Random(31)
        preds = [rng.uniform(1, 100) for _ in range(50)]
        obs = [rng.uniform(1, 100) for _ in range(50)]
        report = error_report(preds, obs)
        pct = []
        for p, o in zip(preds, obs):
            pct.append((p - o) / o * 100.0)
        mape = sum(abs(x) for x in pct) / len(pct)
        assert report.mape == pytest.approx(mape, rel=1e-12)
        assert report.max_abs_pct == pytest.approx(max(abs(x) for x in pct), rel=1e-12)
        assert report.pct_errors == pytest.approx(tuple(pct), rel=1e-12)

    def test_unscored_rows_read_nan(self):
        # A percentage error needs observed energy > 0: zero and negative
        # observations read nan, and the summary covers the other rows.
        report = error_report([1.0, 87.0, 2.0, 110.0, 3.0], [0.0, 100.0, -1.0, 100.0, -0.0])
        assert [math.isnan(p) for p in report.pct_errors] == [True, False, True, False, True]
        assert report.pct_errors[1] == pytest.approx(-13.0, rel=1e-12)
        assert report.pct_errors[3] == pytest.approx(10.0, rel=1e-12)
        assert report.mape == pytest.approx(11.5, rel=1e-12)
        assert report.max_abs_pct == pytest.approx(13.0, rel=1e-12)
        # With no row scored, or no row at all, the summary reads nan.
        for preds, obs in (([1.0], [0.0]), ([1.0, 2.0], [-1.0, 0.0]), ([], [])):
            report = error_report(preds, obs)
            assert len(report.pct_errors) == len(obs)
            assert all(math.isnan(p) for p in report.pct_errors)
            assert math.isnan(report.mape) and math.isnan(report.max_abs_pct)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.floats(-1e3, 1e3),
        st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3))),
        max_size=30))
    def test_matches_a_loop_over_rows(self, rows):
        pct, scored = [], []
        for predicted, observed in rows:
            if observed > 0:
                pct.append((predicted - observed) / observed * 100.0)
                scored.append(abs(pct[-1]))
            else:
                pct.append(math.nan)
        report = error_report([p for p, _ in rows], [o for _, o in rows])
        assert len(report.pct_errors) == len(rows)
        for got, want in zip(report.pct_errors, pct):
            assert got == want or math.isnan(got) and math.isnan(want)
        if scored:
            assert report.mape == pytest.approx(sum(scored) / len(scored), rel=1e-12)
            assert report.max_abs_pct == max(scored)
        else:
            assert math.isnan(report.mape) and math.isnan(report.max_abs_pct)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            error_report([1.0, 2.0], [1.0])


class TestRollingFit:
    def _stationary_obs(self, m=60):
        rng = np.random.default_rng(37)
        b = rng.uniform(1, 50, size=(m, 3))
        e = b @ np.array([1e-4, 2e-4, 3e-4])
        return obs_from_arrays(b, e)

    def test_stationary_windows_agree(self):
        obs = self._stationary_obs()
        rolling = rolling_fit(obs, 20)
        assert len(rolling.fits) == 41 and not rolling.skipped
        alphas = np.array([wf.result.coefficients.alpha[:3] for wf in rolling.fits])
        assert np.allclose(alphas, alphas[0], rtol=1e-8)

    def test_piecewise_change_detected(self):
        rng = np.random.default_rng(41)
        m, k = 80, 40
        b = rng.uniform(1, 50, size=(m, 3))
        alpha_lo = np.array([1e-4, 2e-4, 1.5e-4])
        alpha_hi = np.array([1e-4, 2e-4, 3.0e-4])   # third coefficient doubles
        e = np.concatenate([b[:k] @ alpha_lo, b[k:] @ alpha_hi])
        rolling = rolling_fit(obs_from_arrays(b, e), 20)
        before = rolling.fits[0].result.coefficients.alpha[2]
        after = [wf for wf in rolling.fits if wf.start >= k][0].result.coefficients.alpha[2]
        assert after == pytest.approx(2 * before, rel=1e-6)

    def test_full_window_equals_single_fit(self):
        obs = self._stationary_obs(30)
        rolling = rolling_fit(obs, 30)
        assert len(rolling.fits) == 1
        single = fit_ls(obs)
        assert rolling.fits[0].result.coefficients.alpha == \
            pytest.approx(single.coefficients.alpha, rel=1e-12)

    def test_window_bounds(self):
        obs = self._stationary_obs(30)
        with pytest.raises(ValueError):
            rolling_fit(obs, 3)
        with pytest.raises(ValueError):
            rolling_fit(obs, 31)

    def test_rank_deficient_window_skipped(self):
        rng = np.random.default_rng(43)
        b = rng.uniform(1, 50, size=(30, 3))
        b[10:20, 2] = 0.0   # a dead stretch makes those windows deficient
        e = b @ np.array([1e-4, 2e-4, 3e-4])
        rolling = rolling_fit(obs_from_arrays(b, e), 8)
        assert rolling.skipped
        assert all("b_global" in reason for _, reason in rolling.skipped)
        assert rolling.fits  # healthy windows still fitted


def test_fit_values_compare_by_identity():
    # Observations and fits hold arrays, whose == is elementwise; they compare
    # by identity, so == between them, and between rolling fits, is a bool.
    rng = np.random.default_rng(47)
    b = rng.uniform(1, 50, size=(30, 3))
    e = b @ np.array([1e-4, 2e-4, 3e-4])
    obs, twin = obs_from_arrays(b, e), obs_from_arrays(b.copy(), e.copy())
    fit, rolling = fit_ls(obs), rolling_fit(obs, 10)
    assert (obs == obs) is True and (obs == twin) is False
    assert (fit == fit) is True and (fit == fit_ls(obs)) is False
    assert (rolling == rolling) is True and (rolling == rolling_fit(obs, 10)) is False
    assert (rolling.fits[0] == rolling.fits[0]) is True


def reference_fit_ls(obs: ObservationSet) -> FitResult:
    """The one-window fit that the stacked ``_solve`` replaces, verbatim: one
    2-D SVD and one 2-D solve per call, sharing no solver code with ``estimation``."""
    m, n = obs.flows.shape
    if m <= n:
        raise ValueError(f"need more observations than constituents (M={m}, N={n})")
    if m < 10 * n:
        warnings.warn(f"only {m} observations for {n} constituents; recommend at least {10 * n}",
                      stacklevel=2)

    u, s, vt = np.linalg.svd(obs.flows, full_matrices=False)
    return _reference_solve(obs.flows, obs.energy, obs.active, u, s, vt)


def _reference_solve(flows, energy, active, u, s, vt) -> FitResult:
    if s[0] == 0.0 or s[-1] / s[0] < estimation.RANK_RTOL:
        raise RankDeficientError(_reference_dependent_columns(s, vt, active))

    alpha_active = vt.T @ ((u.T @ energy) / s)
    residuals = energy - flows @ alpha_active

    # Classical per-coefficient standard-error proxy: sqrt(sigma^2 * (b^T b)^-1_kk).
    m, n = flows.shape
    dof = m - n
    sigma2 = float(residuals @ residuals) / dof if dof > 0 else float("nan")
    inv_diag = np.sum((vt.T / s) ** 2, axis=1)
    stderr = tuple(float(x) for x in np.sqrt(sigma2 * inv_diag))

    alpha = np.zeros(5)
    alpha[[i for i, a in enumerate(active) if a]] = alpha_active
    coeffs = CoefficientVector(alpha, active)
    if any(a < 0 for a in alpha_active):
        warnings.warn("fitted coefficients contain negative entries (least-squares artifact)",
                      stacklevel=3)
    return FitResult(coeffs, residuals, float(s[0] / s[-1]), m, stderr)


def _reference_dependent_columns(s, vt, active) -> list[str]:
    names = [f"b_{c.value}" for c, a in zip(CONSTITUENT_ORDER, active) if a]
    if s[0] == 0.0:
        return names
    rank = int(np.sum(s / s[0] >= estimation.RANK_RTOL))
    involved: set[int] = set()
    for null_vec in vt[rank:]:
        peak = np.max(np.abs(null_vec))
        involved.update(int(i) for i in np.nonzero(np.abs(null_vec) >= 1e-6 * peak)[0])
    return [names[i] for i in sorted(involved)]


def reference_rolling_fit(obs: ObservationSet, window: int):
    """One reference fit per window on a fresh ``ObservationSet``."""
    fits, skipped = [], []
    for start in range(obs.n_obs - window + 1):
        try:
            fits.append((start, reference_fit_ls(obs.rows(start, start + window))))
        except RankDeficientError as exc:
            skipped.append((start, str(exc)))
    return fits, skipped


def assert_same_fit(got: FitResult, ref: FitResult):
    assert got.coefficients == ref.coefficients
    assert got.residuals.shape == ref.residuals.shape
    assert (got.residuals == ref.residuals).all()
    assert got.stderr == ref.stderr
    assert got.condition == ref.condition
    assert got.n_obs == ref.n_obs


def _negative_warnings(caught) -> list[tuple[str, str]]:
    return [(str(w.message), w.filename) for w in caught if "negative" in str(w.message)]


def assert_rolling_matches_reference(obs, window):
    # Small windows warn; negative least-squares coefficients warn once per
    # window, pointing at the caller.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rolling = rolling_fit(obs, window)
    with warnings.catch_warnings(record=True) as ref_caught:
        warnings.simplefilter("always")
        fits, skipped = reference_rolling_fit(obs, window)
    assert _negative_warnings(caught) == _negative_warnings(ref_caught)
    assert rolling.skipped == skipped
    assert [(wf.start, wf.stop) for wf in rolling.fits] == [(s, s + window) for s, _ in fits]
    for wf, (_, ref) in zip(rolling.fits, fits):
        assert_same_fit(wf.result, ref)
    # Each fitted window predicts the row after it, if any, with a one-row dot.
    active = np.flatnonzero(obs.active)
    assert rolling.predictions == [
        (start + window, float(obs.flows[start + window] @ np.asarray(ref.coefficients.alpha)[active]))
        for start, ref in fits if start + window < obs.n_obs]
    # predict_rows, the split path's kernel, takes the same one-row dot on every row.
    for _, ref in fits:
        assert predict_rows(ref.coefficients, obs).tolist() == [
            float(row @ np.asarray(ref.coefficients.alpha)[active]) for row in obs.flows]
    return rolling


@st.composite
def rolling_cases(draw):
    """Observations with zero-flow stretches and collinear columns, and a window."""
    active = draw(st.lists(st.booleans(), min_size=5, max_size=5).filter(any))
    n = sum(active)
    m = draw(st.integers(n + 1, 40))
    count = st.integers(0, 4)
    flows = np.array(draw(st.lists(st.lists(count, min_size=n, max_size=n),
                                   min_size=m, max_size=m)), dtype=float)
    if draw(st.booleans()):                     # a dead stretch: every flow zero
        lo = draw(st.integers(0, m - 1))
        flows[lo:draw(st.integers(lo, m))] = 0.0
    if n > 1 and draw(st.booleans()):           # one column a multiple of another
        flows[:, n - 1] = draw(st.sampled_from([1.0, 2.0, 0.5])) * flows[:, 0]
    energy = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m)))
    window = draw(st.one_of(st.just(n + 1), st.just(m), st.integers(n + 1, m)))
    return ObservationSet(flows, energy, tuple(active)), window


def _outcome(fit, obs):
    """A fit's result, or its rank error's message, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fit(obs)
        except RankDeficientError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message), w.filename) for w in caught]


class TestRollingEquivalence:
    """fit_ls and every rolling_fit window must equal the reference fit bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(rolling_cases())
    def test_fit_ls_matches_reference(self, case):
        obs, window = case
        for part in (obs, obs.rows(0, window)):
            got, got_warned = _outcome(fit_ls, part)
            ref, ref_warned = _outcome(reference_fit_ls, part)
            assert got_warned == ref_warned
            if isinstance(ref, str):
                assert got == ref
            else:
                assert_same_fit(got, ref)

    @settings(max_examples=200, deadline=None)
    @given(rolling_cases())
    def test_matches_per_window_fit_ls(self, case):
        assert_rolling_matches_reference(*case)

    @settings(max_examples=100, deadline=None)
    @given(rolling_cases(), st.integers(1, 4))
    def test_matches_across_blocks(self, case, per_block):
        obs, window = case
        limit = per_block * window * obs.n_constituents
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimation, "WINDOW_BLOCK_VALUES", limit)
            assert_rolling_matches_reference(obs, window)

    def test_skipped_and_fitted_windows_span_blocks(self, monkeypatch):
        rng = np.random.default_rng(67)
        b = rng.integers(0, 6, size=(60, 3)).astype(float)
        b[20:30] = 0.0
        e = b @ np.array([1e-4, 2e-4, 3e-4]) + rng.uniform(0, 1e-3, size=60)
        monkeypatch.setattr(estimation, "WINDOW_BLOCK_VALUES", 7 * 8 * 3)
        rolling = assert_rolling_matches_reference(obs_from_arrays(b, e), 8)
        assert rolling.fits and rolling.skipped

    def test_peak_memory_is_bounded_by_blocks(self):
        # 18,001 windows of 2,000 x 3: their stacked left singular vectors
        # alone would take ~860 MB. The flows are all zero, so every window
        # is skipped, no residuals are kept and one block's SVD sets the peak.
        obs = obs_from_arrays(np.zeros((20_000, 3)), np.full(20_000, 0.5))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            rolling = rolling_fit(obs, 2_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rolling.skipped) == 18_001 and not rolling.fits
        assert peak < 64 * 2 ** 20


class TestInvariants:
    def test_least_squares_optimality_against_perturbations(self):
        rng = np.random.default_rng(47)
        b = rng.uniform(0, 50, size=(40, 3))
        e = b @ np.array([2e-4, 5e-5, 1e-4]) + rng.normal(0, 1e-3, size=40)
        fit = fit_ls(obs_from_arrays(b, e))
        a = np.array(fit.coefficients.alpha[:3])
        best = np.linalg.norm(e - b @ a)
        for _ in range(200):
            delta = rng.normal(0, 10 ** rng.uniform(-8, -3), size=3)
            assert np.linalg.norm(e - b @ (a + delta)) >= best - 1e-12

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(53)
        b = rng.uniform(0, 50, size=(40, 3))
        e = b @ np.array([2e-4, 5e-5, 1e-4]) + rng.normal(0, 1e-3, size=40)
        fit = fit_ls(obs_from_arrays(b, e))
        gram = b.T @ fit.residuals
        scale = np.linalg.norm(b.T @ e)
        assert np.all(np.abs(gram) <= 1e-6 * max(scale, 1.0))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(59)
        b = rng.uniform(1, 50, size=(40, 3))
        e = b @ np.array([2e-4, 5e-5, 1e-4]) + rng.normal(0, 1e-3, size=40)
        fit = fit_ls(obs_from_arrays(b, e))
        scaled_e = fit_ls(obs_from_arrays(b, 3.0 * e))
        assert scaled_e.coefficients.alpha == pytest.approx(
            tuple(3.0 * a for a in fit.coefficients.alpha), rel=1e-9)
        b2 = b.copy()
        b2[:, 1] *= 4.0
        scaled_col = fit_ls(obs_from_arrays(b2, e))
        assert scaled_col.coefficients.alpha[1] == pytest.approx(
            fit.coefficients.alpha[1] / 4.0, rel=1e-9)

    def test_residuals_match_definition(self):
        rng = np.random.default_rng(61)
        b = rng.uniform(1, 50, size=(40, 3))
        e = b @ np.array([1e-4, 1e-4, 1e-4]) + rng.normal(0, 1e-3, size=40)
        obs = obs_from_arrays(b, e)
        fit = fit_ls(obs)
        a = np.array(fit.coefficients.alpha[:3])
        assert fit.residuals == pytest.approx(e - b @ a, rel=1e-12, abs=1e-15)
