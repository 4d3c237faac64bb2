"""Least-squares estimation of per-constituent energy coefficients.

Observed slices give a design matrix of packet flows (one column per active
constituent) and an energy vector; the coefficient vector is the ordinary
least-squares solution. The solve goes through an SVD rather than the
textbook normal-equation inverse: the inverse is numerically fragile
exactly when flow columns are nearly collinear, which is common in quiet
phases. Rank deficiency is surfaced as an error naming the dependent
columns instead of returning garbage coefficients. Every solve is stacked,
one SVD and one stacked product per step for a (K, m, n) stack of windows:
``fit_ls`` is the K = 1 case, and each rolling window's fit is bit-identical
to ``fit_ls`` on it. Only sigma^2 is summed per window, as ``r @ r``; a stacked
``einsum`` rounds it differently in the last bit in about half of windows.

No intercept term anywhere: zero flows must predict zero energy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .energy_core import (
    CONSTITUENT_ORDER,
    CoefficientVector,
    ConstituentFlowVector,
)

#: Smallest-to-largest singular value ratio below which the design matrix is
#: treated as rank-deficient.
RANK_RTOL = 1e-10
#: Float64 values the stacked left singular vectors of one block of rolling
#: windows may hold; ``rolling_fit`` sizes its blocks to stay under it.
WINDOW_BLOCK_VALUES = 2 ** 20


class RankDeficientError(ValueError):
    """Design matrix has (near-)dependent columns; carries their names."""

    def __init__(self, columns: Sequence[str]):
        self.columns = tuple(columns)
        super().__init__(f"design matrix is rank-deficient in columns: {', '.join(self.columns)}")


def _mask_tuple(active) -> tuple[bool, bool, bool, bool, bool]:
    active = tuple(bool(a) for a in active)
    if len(active) != 5:
        raise ValueError("active mask must have 5 entries")
    if not any(active):
        raise ValueError("active mask must select at least one constituent")
    return active


@dataclass
class ObservationSet:
    """M observations of active-constituent flows and energies, optionally slice- or run-labelled."""

    flows: np.ndarray                 # (M, N) packet counts, N = active constituents
    energy: np.ndarray                # (M,) joules
    active: tuple[bool, ...] = (True,) * 5
    slices: tuple[int, ...] | None = None

    def __post_init__(self):
        self.flows = np.asarray(self.flows, dtype=float)
        self.energy = np.asarray(self.energy, dtype=float)
        self.active = _mask_tuple(self.active)
        if self.flows.ndim != 2:
            raise ValueError("flows must be a 2D matrix")
        if self.energy.ndim != 1 or self.energy.shape[0] != self.flows.shape[0]:
            raise ValueError("energy must be a vector with one entry per observation")
        if self.flows.shape[1] != sum(self.active):
            raise ValueError(
                f"flows has {self.flows.shape[1]} columns but mask activates {sum(self.active)}")
        if not np.all(np.isfinite(self.flows)) or not np.all(np.isfinite(self.energy)):
            raise ValueError("observations must be finite")
        if np.any(self.flows < 0):
            raise ValueError("packet flows must be nonnegative")
        if self.slices is not None and len(self.slices) != self.flows.shape[0]:
            raise ValueError("slices annotation length must match observation count")

    @property
    def n_obs(self) -> int:
        return self.flows.shape[0]

    @property
    def n_constituents(self) -> int:
        return self.flows.shape[1]

    @classmethod
    def from_flow_vectors(cls, flow_vectors: Sequence[ConstituentFlowVector],
                          energies: Sequence[float], active=(True,) * 5,
                          slices=None) -> "ObservationSet":
        active = _mask_tuple(active)
        flows = np.array([fv.as_tuple() for fv in flow_vectors], float).reshape(-1, 5)
        # Picked columns come out Fortran-ordered, which the solve rounds differently.
        return cls(np.ascontiguousarray(flows[:, np.flatnonzero(active)]),
                   np.asarray(list(energies), dtype=float), active,
                   None if slices is None else tuple(slices))

    def rows(self, start: int, stop: int) -> "ObservationSet":
        return ObservationSet(
            self.flows[start:stop], self.energy[start:stop], self.active,
            None if self.slices is None else self.slices[start:stop])


@dataclass
class FitResult:
    coefficients: CoefficientVector
    residuals: np.ndarray
    condition: float
    n_obs: int
    stderr: tuple[float, ...]   # per active constituent, classical OLS proxy


def fit_ls(obs: ObservationSet) -> FitResult:
    """Fit the coefficient vector minimizing ||E - b A||2 over the observations.

    Raises :class:`RankDeficientError` naming the dependent columns when the
    smallest-to-largest singular value ratio drops below ``RANK_RTOL``, and
    ``ValueError`` when there are not strictly more observations than
    active constituents.
    """
    m, n = obs.flows.shape
    if m <= n:
        raise ValueError(f"need more observations than constituents (M={m}, N={n})")
    if m < 10 * n:
        warnings.warn(f"only {m} observations for {n} constituents; recommend at least {10 * n}",
                      stacklevel=2)

    [fit] = _solve(obs.flows[None], obs.energy[None], obs.active)
    if isinstance(fit, RankDeficientError):
        raise fit
    return fit


def _solve(flows: np.ndarray, energy: np.ndarray,
           active: tuple[bool, ...]) -> list[FitResult | RankDeficientError]:
    """The least-squares fit of ``energy[k]`` on ``flows[k]`` for each window of a
    (K, m, n) stack, m > n: a ``FitResult`` or the window's ``RankDeficientError``.
    Stacked ``matmul`` runs a 2-D product's kernel per window, so each fit is the
    one-window fit bit for bit; deficient windows' quotients are dropped."""
    u, s, vt = np.linalg.svd(flows, full_matrices=False)
    m, n = flows.shape[1:]
    v = vt.transpose(0, 2, 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        full_rank = (s[:, 0] != 0.0) & ~(s[:, -1] / s[:, 0] < RANK_RTOL)
        alpha_active = np.matmul(v, np.matmul(u.transpose(0, 2, 1), energy[..., None])
                                 / s[..., None])[..., 0]
        residuals = energy - np.matmul(flows, alpha_active[..., None])[..., 0]
        # Classical per-coefficient standard-error proxy: sqrt(sigma^2 * (b^T b)^-1_kk).
        sigma2 = np.array([r @ r for r in residuals]) / (m - n)
        stderr = np.sqrt(sigma2[:, None] * np.sum((v / s[:, None, :]) ** 2, axis=2))
        condition = s[:, 0] / s[:, -1]
        negative = (alpha_active < 0).any(axis=1)
    alpha = np.zeros((len(s), 5))
    alpha[:, np.flatnonzero(active)] = alpha_active
    out: list[FitResult | RankDeficientError] = []
    for k in range(len(s)):
        if not full_rank[k]:
            out.append(RankDeficientError(_dependent_columns(s[k], vt[k], active)))
            continue
        if negative[k]:
            warnings.warn("fitted coefficients contain negative entries (least-squares artifact)",
                          stacklevel=3)
        out.append(FitResult(CoefficientVector(alpha[k], active), residuals[k],
                             float(condition[k]), m, tuple(stderr[k].tolist())))
    return out


def _dependent_columns(s: np.ndarray, vt: np.ndarray, active: tuple[bool, ...]) -> list[str]:
    names = [f"b_{c.value}" for c, a in zip(CONSTITUENT_ORDER, active) if a]
    if s[0] == 0.0:
        return names
    rank = int(np.sum(s / s[0] >= RANK_RTOL))
    involved: set[int] = set()
    for null_vec in vt[rank:]:
        peak = np.max(np.abs(null_vec))
        involved.update(int(i) for i in np.nonzero(np.abs(null_vec) >= 1e-6 * peak)[0])
    return [names[i] for i in sorted(involved)]


def predict_rows(coefficients: CoefficientVector, obs: ObservationSet) -> np.ndarray:
    """Predicted energies for every observation row."""
    if obs.active != coefficients.active:
        raise ValueError("observation mask does not match coefficient mask")
    return obs.flows @ np.asarray(coefficients.alpha)[np.flatnonzero(coefficients.active)]


@dataclass
class ErrorReport:
    pct_errors: tuple[float, ...]   # signed (predicted - observed) / observed * 100
    mape: float
    max_abs_pct: float


def error_report(predictions: Sequence[float], observations: Sequence[float]) -> ErrorReport:
    """Percentage-error metrics of predictions against observed energies.

    Per-row errors are kept signed so spikes stay visible; the summary
    metrics are absolute. A percentage error needs observed energy > 0, so
    any other row reads nan; the summary covers the scored rows, nan if none."""
    preds = np.asarray(list(predictions), dtype=float)
    obs = np.asarray(list(observations), dtype=float)
    if preds.shape != obs.shape or preds.ndim != 1:
        raise ValueError("predictions and observations must be equal-length vectors")
    scored = obs > 0
    pct = np.full(obs.shape, np.nan)
    pct[scored] = (preds[scored] - obs[scored]) / obs[scored] * 100.0
    abs_pct = np.abs(pct[scored])
    if not abs_pct.size:
        return ErrorReport(tuple(pct.tolist()), np.nan, np.nan)
    return ErrorReport(tuple(pct.tolist()), float(np.mean(abs_pct)), float(np.max(abs_pct)))


@dataclass
class WindowFit:
    start: int
    stop: int
    result: FitResult


@dataclass
class RollingFit:
    fits: list[WindowFit] = field(default_factory=list)
    skipped: list[tuple[int, str]] = field(default_factory=list)   # (start, reason)


def rolling_fit(obs: ObservationSet, window: int) -> RollingFit:
    """Refit the model on every length-``window`` run of consecutive rows.

    Rank-deficient windows are recorded in ``skipped`` and do not abort the
    sweep; the window must exceed the constituent count and fit in the data.
    Every window gets the fit ``fit_ls`` would give it, bit for bit: the
    windows are strided views of the observations, and each block of windows
    (sized by ``WINDOW_BLOCK_VALUES``) is one call of the stacked solve.
    """
    n = obs.n_constituents
    if window <= n:
        raise ValueError(f"window must exceed the number of constituents ({n})")
    if window > obs.n_obs:
        raise ValueError(f"window {window} larger than observation count {obs.n_obs}")
    out = RollingFit()
    flows = sliding_window_view(obs.flows, window, axis=0).transpose(0, 2, 1)
    energy = sliding_window_view(obs.energy, window)
    block = max(1, WINDOW_BLOCK_VALUES // (window * n))
    for first in range(0, len(flows), block):
        fits = _solve(flows[first:first + block], energy[first:first + block], obs.active)
        for start, fit in enumerate(fits, first):
            if isinstance(fit, RankDeficientError):
                out.skipped.append((start, str(fit)))
            else:
                out.fits.append(WindowFit(start, start + window, fit))
    return out
