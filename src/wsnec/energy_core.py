"""Resource-level and constituent-level energy accounting.

A node's energy use is accounted two ways that must stay consistent:

* per resource: every handled packet costs energy on cpu / memory / radio
  (rx, tx) / sensing, each priced in joules per packet;
* per constituent: packets are grouped into the five task constituents
  (individual, local, global, environment, sink) and each constituent has a
  single joules-per-packet coefficient obtained as a weighted mix of the
  resource prices.

Everything here is pure arithmetic over immutable values; no simulation
state, safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence


class Constituent(Enum):
    """The five task categories every energy charge is classified into."""

    INDIVIDUAL = "individual"
    LOCAL = "local"
    GLOBAL = "global"
    ENVIRONMENT = "environment"
    SINK = "snk"


#: Canonical constituent ordering used for vectors, matrices and CSV columns.
CONSTITUENT_ORDER: tuple[Constituent, ...] = tuple(Constituent)

RESOURCE_NAMES = ("cpu", "mem", "rx", "tx", "sens")


class BoundaryError(ValueError):
    """A parameter violated its documented boundary."""


def bound(condition: bool, boundary: str, value) -> None:
    """Raise :class:`BoundaryError` citing ``boundary`` unless ``condition`` holds."""
    if not condition:
        raise BoundaryError(f"parameter boundary {boundary} violated (got {value!r})")


def nonneg(name: str, value: float) -> float:
    """``value`` as a float, which must be finite and >= 0."""
    value = float(value)
    if not 0 <= value < math.inf:
        bound(False, f"{name} >= 0", value)
    return value


def count(name: str, value) -> int:
    """``value`` as an int, which must be a whole number >= 0 (int or float)."""
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    bound(whole and value >= 0, f"{name} is a whole number >= 0", value)
    return int(value)


@dataclass(frozen=True)
class ResourcePowerProfile:
    """Joules charged per packet handled by each node resource."""

    p_cpu: float
    p_mem: float
    p_rx: float
    p_tx: float
    p_sens: float

    def __post_init__(self):
        for name in ("p_cpu", "p_mem", "p_rx", "p_tx", "p_sens"):
            object.__setattr__(self, name, nonneg(name, getattr(self, name)))

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.p_cpu, self.p_mem, self.p_rx, self.p_tx, self.p_sens)


@dataclass(frozen=True)
class ResourceUsageVector:
    """Nonnegative packet counts per resource. Fractional counts are rejected."""

    b_cpu: int = 0
    b_mem: int = 0
    b_rx: int = 0
    b_tx: int = 0
    b_sens: int = 0

    def __post_init__(self):
        for name in ("b_cpu", "b_mem", "b_rx", "b_tx", "b_sens"):
            object.__setattr__(self, name, count(name, getattr(self, name)))

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.b_cpu, self.b_mem, self.b_rx, self.b_tx, self.b_sens)


class ConstituentResourceMix:
    """5x5 nonnegative weight matrix: row k holds the per-packet resource
    weights (cpu, mem, rx, tx, sens) of constituent k in canonical order."""

    def __init__(self, rows: Iterable[Sequence[float]]):
        rows = [tuple(float(w) for w in row) for row in rows]
        if len(rows) != 5 or any(len(row) != 5 for row in rows):
            raise ValueError("mix must be a 5x5 matrix (constituents x resources)")
        for k, row in enumerate(rows):
            for r, w in enumerate(row):
                nonneg(f"mix[{CONSTITUENT_ORDER[k].value}][{RESOURCE_NAMES[r]}]", w)
        self._rows = tuple(rows)

    def row(self, constituent: Constituent) -> tuple[float, ...]:
        return self._rows[CONSTITUENT_ORDER.index(constituent)]

    @property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        return self._rows

    def __eq__(self, other) -> bool:
        return isinstance(other, ConstituentResourceMix) and self._rows == other._rows

    def __repr__(self) -> str:
        return f"ConstituentResourceMix({list(map(list, self._rows))!r})"


@dataclass(frozen=True)
class ConstituentFlowVector:
    """Nonnegative packet-flow counts per constituent for one time slice.

    Counts may be fractional: the closed-form flow totals divide by
    (1 - probability) and are not integers in general.
    """

    b_individual: float = 0.0
    b_local: float = 0.0
    b_global: float = 0.0
    b_environment: float = 0.0
    b_snk: float = 0.0

    def __post_init__(self):
        # A finite float >= 0 is kept as it is; anything else goes through nonneg.
        for name in ("b_individual", "b_local", "b_global", "b_environment", "b_snk"):
            value = getattr(self, name)
            if type(value) is not float or not 0 <= value < math.inf:
                object.__setattr__(self, name, nonneg(name, value))

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.b_individual, self.b_local, self.b_global, self.b_environment, self.b_snk)

    def get(self, constituent: Constituent) -> float:
        return self.as_tuple()[CONSTITUENT_ORDER.index(constituent)]


class CoefficientVector:
    """Per-constituent joules-per-packet coefficients plus an active mask.

    Fitted vectors may carry negative entries (a least-squares artifact);
    vectors constructed from a resource mix are always nonnegative. Inactive
    entries are stored as 0.0.
    """

    def __init__(self, alpha: Sequence[float], active: Sequence[bool] | None = None):
        alpha = tuple(float(a) for a in alpha)
        if len(alpha) != 5:
            raise ValueError("alpha must have 5 entries (one per constituent)")
        if active is None:
            active = (True,) * 5
        active = tuple(bool(a) for a in active)
        if len(active) != 5:
            raise ValueError("active mask must have 5 entries")
        for a, is_active in zip(alpha, active):
            if is_active and not math.isfinite(a):
                raise ValueError(f"active coefficient must be finite, got {a!r}")
        self.alpha = tuple(a if is_active else 0.0 for a, is_active in zip(alpha, active))
        self.active = active

    @classmethod
    def from_mix(cls, mix: ConstituentResourceMix, profile: ResourcePowerProfile,
                 active: Sequence[bool] | None = None) -> "CoefficientVector":
        alpha = [constituent_alpha(mix.row(c), profile) for c in CONSTITUENT_ORDER]
        return cls(alpha, active)

    def get(self, constituent: Constituent) -> float:
        return self.alpha[CONSTITUENT_ORDER.index(constituent)]

    def is_active(self, constituent: Constituent) -> bool:
        return self.active[CONSTITUENT_ORDER.index(constituent)]

    def active_constituents(self) -> tuple[Constituent, ...]:
        return tuple(c for c, a in zip(CONSTITUENT_ORDER, self.active) if a)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CoefficientVector)
                and self.alpha == other.alpha and self.active == other.active)

    def __repr__(self) -> str:
        return f"CoefficientVector(alpha={self.alpha!r}, active={self.active!r})"


def task_energy(usage: ResourceUsageVector, profile: ResourcePowerProfile) -> float:
    """Energy (joules) of handling the given per-resource packet counts."""
    return math.fsum(p * b for p, b in zip(profile.as_tuple(), usage.as_tuple()))


def constituent_alpha(mix_row: Sequence[float], profile: ResourcePowerProfile) -> float:
    """Joules per constituent packet: resource prices weighted by the mix row."""
    weights = [float(w) for w in mix_row]
    if len(weights) != 5:
        raise ValueError("mix_row must have 5 weights (cpu, mem, rx, tx, sens)")
    for r, w in enumerate(weights):
        nonneg(f"weight[{RESOURCE_NAMES[r]}]", w)
    return math.fsum(w * p for w, p in zip(weights, profile.as_tuple()))


def overall_energy(alphas: CoefficientVector, flows: ConstituentFlowVector) -> float:
    """Total energy of one slice: inner product over the active constituents.

    Flows on inactive constituents must be zero; a nonzero flow there means
    the caller's mask does not match the data and is rejected.
    """
    total = 0.0
    for constituent, a, is_active in zip(CONSTITUENT_ORDER, alphas.alpha, alphas.active):
        flow = flows.get(constituent)
        if not is_active:
            if flow != 0.0:
                raise ValueError(
                    f"flow for inactive constituent {constituent.value!r} must be zero, got {flow!r}")
            continue
        total += a * flow
    return total
