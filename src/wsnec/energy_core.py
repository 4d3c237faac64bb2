"""Resource-level and constituent-level energy accounting.

A node's energy use is accounted two ways that must stay consistent:

* per resource: every handled packet costs energy on cpu / memory / radio
  (rx, tx) / sensing, each priced in joules per packet;
* per constituent: packets are grouped into the five task constituents
  (individual, local, global, environment, sink) and each constituent has a
  single joules-per-packet coefficient obtained as a weighted mix of the
  resource prices.

Everything here is pure arithmetic over immutable values: each value type is
a frozen dataclass that converts and checks each field once, when built, and
keeps the value it checked. No simulation state, safe for concurrent use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Sequence


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
FLOAT_MAX = sys.float_info.max   # compares exactly with any int, which float() may overflow


class BoundaryError(ValueError):
    """A parameter violated its documented boundary."""


def shown(value) -> str:
    """``repr(value)``, or the sign and bit length of an int too long for ``repr``."""
    try:
        return repr(value)
    except ValueError:   # past sys.get_int_max_str_digits()
        return f"<{'negative' if value < 0 else 'positive'} int of {value.bit_length()} bits>"


def bound(condition: bool, boundary: str, value) -> None:
    """Raise :class:`BoundaryError` citing ``boundary`` unless ``condition`` holds."""
    if not condition:
        raise BoundaryError(f"parameter boundary {boundary} violated (got {shown(value)})")


def as_float(value):
    """``float(value)``, but an int past float range is kept: it compares exactly with FLOAT_MAX."""
    return value if isinstance(value, int) and abs(value) > FLOAT_MAX else float(value)


def finite(value) -> bool:
    """``math.isfinite(value)``, but False for an int past float range, which it overflows on."""
    return abs(value) <= FLOAT_MAX if isinstance(value, int) else math.isfinite(value)


def within(value, op: str = ">=", threshold=0) -> bool:
    """Whether ``value`` is finite and ``value op threshold``, unconverted; ``op`` is ">=" or ">"."""
    return threshold <= value <= FLOAT_MAX if op == ">=" else threshold < value <= FLOAT_MAX


def checked(name: str, value, op: str = ">=", threshold=0) -> float:
    """``value`` as a float, which must be finite and ``value op threshold`` (boundary ``name``)."""
    value = as_float(value)
    if not within(value, op, threshold):
        bound(False, f"{name} {op} {threshold}", value)
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
            object.__setattr__(self, name, checked(name, getattr(self, name)))

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


@dataclass(frozen=True)
class ConstituentResourceMix:
    """5x5 nonnegative weight matrix: row k holds the per-packet resource
    weights (cpu, mem, rx, tx, sens) of constituent k in canonical order.
    Any iterable of rows is accepted and stored as a tuple of float tuples."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        if len(rows) != 5 or any(len(row) != 5 for row in rows):
            raise ValueError("mix must be a 5x5 matrix (constituents x resources)")
        object.__setattr__(self, "rows", tuple(
            tuple(checked(f"mix[{c.value}][{r}]", w) for r, w in zip(RESOURCE_NAMES, row))
            for c, row in zip(CONSTITUENT_ORDER, rows)))

    def row(self, constituent: Constituent) -> tuple[float, ...]:
        return self.rows[CONSTITUENT_ORDER.index(constituent)]


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
        for name in ("b_individual", "b_local", "b_global", "b_environment", "b_snk"):
            object.__setattr__(self, name, checked(name, getattr(self, name)))

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.b_individual, self.b_local, self.b_global, self.b_environment, self.b_snk)

    def get(self, constituent: Constituent) -> float:
        return self.as_tuple()[CONSTITUENT_ORDER.index(constituent)]


@dataclass(frozen=True)
class CoefficientVector:
    """Per-constituent joules-per-packet coefficients plus an active mask;
    ``active=None`` means all five are active.

    Fitted vectors may carry negative entries (a least-squares artifact);
    vectors constructed from a resource mix are always nonnegative. Inactive
    entries are stored as 0.0.
    """

    alpha: tuple[float, ...]
    active: tuple[bool, ...] | None = None

    def __post_init__(self):
        alpha = tuple(map(as_float, self.alpha))
        if len(alpha) != 5:
            raise ValueError("alpha must have 5 entries (one per constituent)")
        active = (True,) * 5 if self.active is None else tuple(map(bool, self.active))
        if len(active) != 5:
            raise ValueError("active mask must have 5 entries")
        for a, is_active in zip(alpha, active):
            if is_active and not finite(a):
                raise ValueError(f"active coefficient must be finite, got {shown(a)}")
        object.__setattr__(self, "alpha",
                           tuple([a if is_active else 0.0 for a, is_active in zip(alpha, active)]))
        object.__setattr__(self, "active", active)

    def get(self, constituent: Constituent) -> float:
        return self.alpha[CONSTITUENT_ORDER.index(constituent)]

    def is_active(self, constituent: Constituent) -> bool:
        return self.active[CONSTITUENT_ORDER.index(constituent)]

    def active_constituents(self) -> tuple[Constituent, ...]:
        return tuple(c for c, a in zip(CONSTITUENT_ORDER, self.active) if a)


def task_energy(usage: ResourceUsageVector, profile: ResourcePowerProfile) -> float:
    """Energy (joules) of handling the given per-resource packet counts."""
    return math.fsum(p * b for p, b in zip(profile.as_tuple(), usage.as_tuple()))


def constituent_alpha(mix_row: Sequence[float], profile: ResourcePowerProfile) -> float:
    """Joules per constituent packet: resource prices weighted by the mix row."""
    weights = tuple(mix_row)
    if len(weights) != 5:
        raise ValueError("mix_row must have 5 weights (cpu, mem, rx, tx, sens)")
    weights = [checked(f"weight[{r}]", w) for r, w in zip(RESOURCE_NAMES, weights)]
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
