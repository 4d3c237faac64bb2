"""Closed-form packet-flow models per constituent.

Several constituents have self-referential flow totals: a fraction of the
total flow (sensed packets, collision/overhearing/idle packets, lost
packets) is itself proportional to the total. Each closed form here is the
exact solution of that fixed point,

    total = overhead / (1 - probability),

with the probability supplied by a small pluggable model. The probability
functional forms are deliberately the simplest ones with the right
monotonic behaviour (coverage up -> more sensed packets, more neighbors ->
more collisions/overhearing and less idle listening, longer routes ->
more loss); all their coefficients live in :class:`ProbabilityModelConfig`
so alternates can be swapped without touching callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .energy_core import as_float, bound, checked, within

#: Denominators closer to zero than this are treated as misconfiguration.
EPSILON_DIV = 1e-9

#: Hard ceiling on each of the three local probabilities so their sum can
#: never reach 1 regardless of configuration.
LOCAL_CAP_LIMIT = 0.33


class FlowSingularityError(ValueError):
    """A flow denominator (1 - probability) fell below the division guard."""


@dataclass(frozen=True)
class IndividualParams:
    """Inputs of the individual-constituent flow."""

    r_sense: float
    g_sense: float = 0.0
    b_os: float = 0.0
    b_sec: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "r_sense", checked("r_sense", self.r_sense, ">", 0))
        for name in ("g_sense", "b_os", "b_sec"):
            object.__setattr__(self, name, checked(name, getattr(self, name)))


@dataclass(frozen=True)
class LocalParams:
    """Inputs of the local-constituent flow. Idle-listening and
    retransmission costs enter through the probability terms."""

    n: int
    net_dens: int
    g_tx: float = 0.0
    r_tx: float = 0.0
    b_mon: float = 0.0
    b_sec: float = 0.0
    b_ohead: float = 0.0

    def __post_init__(self):
        bound(isinstance(self.n, int) and self.n >= 1, "n >= 1", self.n)
        bound(isinstance(self.net_dens, int) and self.net_dens >= 1, "net_dens >= 1", self.net_dens)
        for name in ("g_tx", "r_tx", "b_mon", "b_sec", "b_ohead"):
            object.__setattr__(self, name, checked(name, getattr(self, name)))


@dataclass(frozen=True)
class GlobalParams:
    """Inputs of the global-constituent flow.

    ``r_tx`` parameterizes the hop count of the loss model; the loss
    probability itself is conditioned on distance and network density.
    """

    dist_to_sink: float
    net_dens: int
    r_tx: float = 0.0
    b_sec: float = 0.0
    b_topo: float = 0.0
    b_rout: float = 0.0
    b_ohead: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "dist_to_sink", checked("dist_to_sink", self.dist_to_sink))
        bound(isinstance(self.net_dens, int) and self.net_dens >= 1, "net_dens >= 1", self.net_dens)
        for name in ("r_tx", "b_sec", "b_topo", "b_rout", "b_ohead"):
            object.__setattr__(self, name, checked(name, getattr(self, name)))


@dataclass(frozen=True)
class ProbabilityModelConfig:
    """Coefficients of the five probability models plus the per-probability cap.

    The three local probabilities are additionally capped at
    min(p_cap, LOCAL_CAP_LIMIT) so they can never sum to 1.
    """

    sigma_sense: float = 0.01      # sensing coverage coefficient
    kappa_coll: float = 1e-4       # collision rate per neighbor*delay*density
    kappa_ohear: float = 0.5       # overhearing coverage-overlap coefficient
    kappa_idle: float = 0.3        # idle-listening coefficient
    kappa_loss: float = 1.0        # per-hop loss coefficient over density
    area: float = 1e4              # deployment area A_net (m^2)
    p_cap: float = 0.3

    def __post_init__(self):
        for name in ("sigma_sense", "kappa_coll", "kappa_ohear", "kappa_idle", "kappa_loss"):
            object.__setattr__(self, name, checked(name, getattr(self, name)))
        object.__setattr__(self, "area", checked("area", self.area, ">", 0))
        object.__setattr__(self, "p_cap", as_float(self.p_cap))
        bound(0 <= self.p_cap < 1, "0 <= p_cap < 1", self.p_cap)

    @property
    def local_cap(self) -> float:
        return min(self.p_cap, LOCAL_CAP_LIMIT)


def solve_flow_total(numerator: float, probability: float) -> float:
    """Solve total = numerator + probability * total for the total flow.

    Raises :class:`FlowSingularityError` when 1 - probability falls below
    the division guard; a probability that close to 1 means the model is
    misconfigured, not that the flow is infinite.
    """
    numerator = checked("flow numerator", numerator)
    probability = checked("probability", probability)
    denom = 1.0 - probability
    if denom < EPSILON_DIV:
        raise FlowSingularityError(
            f"flow denominator 1 - p = {denom!r} below guard {EPSILON_DIV}")
    return numerator / denom


def p_sense(r_sense: float, g_sense: float, cfg: ProbabilityModelConfig) -> float:
    """Probability that a handled packet is a sensed packet.

    sigma*r^2 / (sigma*r^2 + g + 1): increasing in coverage radius,
    non-increasing in sensing delay, bounded below 1, then capped.
    """
    r_sense = checked("r_sense", r_sense, ">", 0)
    g_sense = checked("g_sense", g_sense)
    coverage = cfg.sigma_sense * r_sense * r_sense
    return min(cfg.p_cap, coverage / (coverage + g_sense + 1.0))


def p_coll(n: int, g_tx: float, net_dens: int, cfg: ProbabilityModelConfig) -> float:
    """Collision probability: linear in neighbors, delay and density, capped."""
    bound(n >= 1, "n >= 1", n)
    g_tx = checked("g_tx", g_tx)
    bound(net_dens >= 1, "net_dens >= 1", net_dens)
    return min(cfg.local_cap, cfg.kappa_coll * n * g_tx * net_dens)


def p_ohear(n: int, net_dens: int, r_tx: float, cfg: ProbabilityModelConfig) -> float:
    """Overhearing probability: scales with neighbor coverage overlap, capped."""
    bound(n >= 1, "n >= 1", n)
    bound(net_dens >= 1, "net_dens >= 1", net_dens)
    r_tx = checked("r_tx", r_tx)
    return min(cfg.local_cap, cfg.kappa_ohear * n * r_tx * r_tx / cfg.area)


def p_idle(n: int, cfg: ProbabilityModelConfig) -> float:
    """Idle-listening probability: fewer neighbors, more idle time, capped."""
    bound(n >= 1, "n >= 1", n)
    return min(cfg.local_cap, cfg.kappa_idle / (n + 1.0))


def p_pktls(dist_to_sink: float, r_tx: float, net_dens: int,
            cfg: ProbabilityModelConfig) -> float:
    """End-to-end loss probability over ceil(D / r_tx) hops.

    Per-hop loss is kappa_loss / net_dens (denser networks lose less),
    clamped to 0.5; the result is capped like every other probability.
    """
    dist_to_sink = checked("dist_to_sink", dist_to_sink)
    bound(net_dens >= 1, "net_dens >= 1", net_dens)
    if dist_to_sink == 0:
        return 0.0
    r_tx = as_float(r_tx)
    bound(within(r_tx, ">", 0), "r_tx > 0 when dist_to_sink > 0", r_tx)
    hops = math.ceil(dist_to_sink / r_tx)
    p_hop = min(0.5, cfg.kappa_loss / net_dens)
    return min(cfg.p_cap, 1.0 - (1.0 - p_hop) ** hops)


def individual_flow(params: IndividualParams,
                    cfg: ProbabilityModelConfig) -> tuple[float, float]:
    """Total individual flow and its sensed-packet component."""
    p = p_sense(params.r_sense, params.g_sense, cfg)
    total = solve_flow_total(params.b_os + params.b_sec, p)
    return total, p * total


def local_flow(params: LocalParams,
               cfg: ProbabilityModelConfig) -> tuple[float, float, float, float]:
    """Total local flow plus its collision, idle and overhearing components."""
    pc = p_coll(params.n, params.g_tx, params.net_dens, cfg)
    po = p_ohear(params.n, params.net_dens, params.r_tx, cfg)
    pi = p_idle(params.n, cfg)
    total = solve_flow_total(params.b_sec + params.b_mon + params.b_ohead, pc + po + pi)
    return total, pc * total, pi * total, po * total


def global_flow(params: GlobalParams,
                cfg: ProbabilityModelConfig) -> tuple[float, float]:
    """Total global flow and its packet-loss component."""
    p = p_pktls(params.dist_to_sink, params.r_tx, params.net_dens, cfg)
    total = solve_flow_total(
        params.b_sec + params.b_topo + params.b_rout + params.b_ohead, p)
    return total, p * total


def environment_flow(b_ph: float = 0.0, b_sec: float = 0.0) -> float:
    """Harvesting-management flow: plain sum of its overheads."""
    return checked("b_sec", b_sec) + checked("b_ph", b_ph)


def sink_flow(b_ohead: float = 0.0, b_sec: float = 0.0) -> float:
    """Sink-directed management flow: plain sum of its overheads."""
    return checked("b_sec", b_sec) + checked("b_ohead", b_ohead)
