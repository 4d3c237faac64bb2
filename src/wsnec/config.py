"""Scenario configuration: defaults, INI loading and total validation.

A scenario is described by a plain-text INI file with one section per concern:
``[sim]`` for the network and workload, ``[energy]`` for the per-resource packet
prices, ``[mix]`` for the constituent resource-weight matrix, ``[radio]`` for the
per-bit radio model and ``[sweep]`` for batch-run parameter ranges. Every key has a
default, and a file without ``[sweep]`` gets the default sweep; a minimal file is just::

    [sim]
    seed = 1
    nodes = 25

All defaults are synthetic (chosen for a well-behaved reference scenario,
not measured from hardware). Validation comes before any computation, and
loading reports in one error every unknown section or key, every malformed
value, every ``[sim]`` and ``[sweep]`` violation, and the first violation of
each of ``[energy]``, ``[mix]`` and ``[radio]``.

Each section has one schema, its keys with the converter of each value
(``[mix]`` has one key per constituent, ``[sweep]`` ``runs`` and one
``low:high`` range per sweepable parameter). One loop reads every section
through its schema, and ``sample_config`` writes the keys of the same schemas.

Each bounded ``[sim]`` field declares, in its ``ScenarioConfig`` line, its
default, its boundary (``>=`` or ``>`` a threshold) and whether a sweep may
draw it. The boundary map and ``SWEEPABLE`` are derived from those fields, and
the scenario's and the sweep ranges' checks read their rule and message from it.
"""

from __future__ import annotations

import configparser
import functools
import math
import operator
import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable

from .energy_core import CONSTITUENT_ORDER, ConstituentResourceMix, ResourcePowerProfile
from .radio import RadioModelParams


class ConfigError(ValueError):
    """One or more configuration values violated their boundaries."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.violations))


DEFAULT_PROFILE = ResourcePowerProfile(
    p_cpu=2e-5, p_mem=1e-5, p_rx=4e-5, p_tx=6e-5, p_sens=3e-5)

DEFAULT_MIX = ConstituentResourceMix((
    (1.0, 0.0, 0.0, 1.0, 1.0),   # individual: process, transmit, sense
    (1.0, 0.0, 1.0, 1.0, 0.0),   # local: process, exchange with neighbors
    (1.0, 1.0, 1.0, 1.0, 0.0),   # global: process, queue, relay
    (1.0, 0.0, 0.0, 0.0, 0.0),   # environment: bookkeeping only
    (1.0, 0.0, 1.0, 1.0, 0.0),   # sink-directed management
))


@dataclass(frozen=True)
class SweepConfig:
    """Batch-experiment settings: run count and per-parameter uniform ranges.

    ``ranges`` is given as a mapping or as pairs of parameter name and
    ``(low, high)``, and stored as pairs sorted by name, the order a sweep
    draws them in; so a sweep, like the rest of a scenario, hashes."""

    runs: int = 50
    ranges: tuple[tuple[str, tuple[float, float]], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ranges", tuple(sorted(dict(self.ranges).items())))


def _param(default, op: str, threshold: int, sweep: bool = False):
    """A bounded [sim] field: its default, the boundary ``value op threshold``
    (``op`` is ">=" or ">") and whether a sweep may draw it."""
    return field(default=default, metadata={"bound": (op, threshold), "sweep": sweep})


@dataclass(frozen=True)
class ScenarioConfig:
    # network and workload; seed and the sink have checks of their own
    seed: int = 1
    nodes: int = _param(25, ">=", 1)
    area_width: float = _param(100.0, ">", 0)
    area_height: float = _param(100.0, ">", 0)
    sink_x: float = 5.0
    sink_y: float = 5.0
    r_tx: float = _param(30.0, ">=", 0, sweep=True)
    r_sense: float = _param(12.0, ">", 0, sweep=True)
    g_sense: float = _param(0.05, ">=", 0, sweep=True)
    delta_t: float = _param(1.0, ">", 0)
    init_slices: int = _param(3, ">=", 0)
    total_slices: int = _param(80, ">=", 1)
    event_rate: float = _param(18.0, ">=", 0, sweep=True)  # area events per slice
    initial_battery: float = _param(0.5, ">", 0, sweep=True)  # joules per node
    bits_per_packet: int = _param(1024, ">=", 1)
    maintenance_period: int = _param(8, ">=", 0, sweep=True)  # slices per periodic repair; 0 = never
    repair_radius_hops: int = _param(0, ">=", 0)  # 0 = whole network participates
    monitor_period: int = _param(10, ">=", 0, sweep=True)  # full neighbor refresh interval; 0 = off
    monitoring: bool = True
    scheduling: bool = True
    warmup_packets: int = _param(2, ">=", 0, sweep=True)  # boot readings per node, first init slice
    mix_charging: bool = False  # charge packets by mix row instead of handling usage
    # sub-models
    profile: ResourcePowerProfile = DEFAULT_PROFILE
    mix: ConstituentResourceMix = DEFAULT_MIX
    radio: RadioModelParams = RadioModelParams()
    sweep: SweepConfig = SweepConfig()

    def __post_init__(self):
        violations = scenario_violations(self)
        if violations:
            raise ConfigError(violations)


#: Boundary (op, threshold) per bounded [sim] field, in field order, reused for
#: sweep ranges; the integer fields, those whose default is an int; and the
#: fields a sweep may draw, each flagged when it is an integer (drawn with randint).
_BOUNDS: dict[str, tuple[str, int]] = {
    f.name: f.metadata["bound"] for f in fields(ScenarioConfig) if "bound" in f.metadata}
_INTEGERS = {f.name for f in fields(ScenarioConfig) if type(f.default) is int}
SWEEPABLE: dict[str, bool] = {
    f.name: f.name in _INTEGERS for f in fields(ScenarioConfig) if f.metadata.get("sweep")}
_HOLDS = {">=": operator.ge, ">": operator.gt}


def scenario_violations(cfg: ScenarioConfig) -> list[str]:
    """Every boundary violated by the scenario, as human-readable strings."""
    out = []
    for name, (op, threshold) in _BOUNDS.items():
        value = getattr(cfg, name)
        if not (math.isfinite(float(value)) and _HOLDS[op](value, threshold)):
            out.append(f"parameter boundary {name} {op} {threshold} violated (got {value!r})")
        elif name in _INTEGERS and not hasattr(value, "__index__"):   # range() needs an int
            out.append(f"parameter {name} must be an integer (got {value!r})")
    if not cfg.seed >= 0:   # random.Random seeds with |seed|
        out.append(f"parameter boundary seed >= 0 violated (got {cfg.seed!r})")
    elif not hasattr(cfg.seed, "__index__"):
        out.append(f"parameter seed must be an integer (got {cfg.seed!r})")
    if not (0 <= cfg.sink_x <= cfg.area_width and 0 <= cfg.sink_y <= cfg.area_height):
        out.append(f"sink ({cfg.sink_x!r}, {cfg.sink_y!r}) outside area "
                   f"[0, {cfg.area_width!r}] x [0, {cfg.area_height!r}]")
    if cfg.total_slices < cfg.init_slices:
        out.append(f"total_slices ({cfg.total_slices}) must cover init_slices ({cfg.init_slices})")
    if cfg.sweep.runs < 1:
        out.append(f"sweep runs must be >= 1 (got {cfg.sweep.runs!r})")
    elif not hasattr(cfg.sweep.runs, "__index__"):
        out.append(f"parameter runs must be an integer (got {cfg.sweep.runs!r})")
    for name, (low, high) in cfg.sweep.ranges:
        if name not in SWEEPABLE:
            out.append(f"sweep parameter {name!r} is not sweepable "
                       f"(choose from {sorted(SWEEPABLE)})")
            continue
        if not (math.isfinite(low) and math.isfinite(high) and low <= high):
            out.append(f"sweep range for {name} must be low:high with low <= high "
                       f"(got {low!r}:{high!r})")
            continue
        if SWEEPABLE[name] and not (float(low).is_integer() and float(high).is_integer()):
            out.append(f"sweep range {low!r}:{high!r} for integer {name} needs whole-number ends")
            continue
        op, threshold = _BOUNDS[name]
        if not (_HOLDS[op](low, threshold) and _HOLDS[op](high, threshold)):
            out.append(f"sweep range {low!r}:{high!r} for {name} violates "
                       f"parameter boundary {name} {op} {threshold}")
    return out


# ---------------------------------------------------------------------------
# INI loading

def _scalar(kind: type, raw: str):
    raw = raw.strip()
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return kind(raw)
    except (KeyError, ValueError):
        raise ValueError(f"expected {kind.__name__}, got {raw!r}") from None


def _weights(raw: str) -> tuple[float, ...]:
    parts = raw.replace(",", " ").split()
    if len(parts) != 5:
        raise ValueError(f"expected 5 weights, got {len(parts)}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"weights must be numbers, got {raw!r}") from None


def _low_high(raw: str) -> tuple[float, float]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected low:high, got {raw!r}")
    ends, tails = [], []
    for part in parts:   # each malformed end is a violation of its own
        try:
            ends.append(_scalar(float, part))
        except ValueError as exc:
            tails.extend(exc.args)
    if tails:
        raise ValueError(*tails)
    return tuple(ends)


#: Each section's keys, each with the converter of its value. A converter
#: raises ValueError with one argument per violation, each the tail that
#: follows "[section] key: ". [sim] takes every scalar field of ScenarioConfig,
#: typed by its default (the annotations are strings under
#: ``from __future__ import annotations``). Sections are read in this order.
_SCHEMAS: dict[str, dict[str, Callable[[str], object]]] = {
    "sim": {f.name: functools.partial(_scalar, type(f.default)) for f in fields(ScenarioConfig)
            if type(f.default) in (int, float, bool)},
    "energy": {f.name: functools.partial(_scalar, float) for f in fields(ResourcePowerProfile)},
    "radio": {f.name: functools.partial(_scalar, float) for f in fields(RadioModelParams)},
    "mix": {c.value: _weights for c in CONSTITUENT_ORDER},
    "sweep": {"runs": functools.partial(_scalar, int), **dict.fromkeys(SWEEPABLE, _low_high)},
}


def load_config(path: str, overrides: dict | None = None) -> ScenarioConfig:
    """Load and fully validate a scenario INI file.

    ``overrides`` are applied on top of the ``[sim]`` section (the CLI uses
    this for ``--seed``). Raises :class:`ConfigError` listing every problem.
    """
    if not os.path.exists(path):
        raise ConfigError([f"config file not found: {path}"])
    # No header names a section "\n", so [DEFAULT] is an unknown section.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="\n")
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse config: {exc}"]) from exc

    violations = [f"unknown section [{section}]" for section in parser.sections()
                  if section not in _SCHEMAS]
    read: dict[str, dict] = {}
    for section, schema in _SCHEMAS.items():
        read[section] = values = {}
        for key, raw in parser.items(section) if parser.has_section(section) else ():
            if key not in schema:
                violations.append(f"[{section}] unknown key {key!r}" if section != "sweep" else
                                  f"[sweep] unknown parameter {key!r} (choose from {sorted(SWEEPABLE)})")
                continue
            try:
                values[key] = schema[key](raw)
            except ValueError as exc:
                violations.extend(f"[{section}] {key}: {tail}" for tail in exc.args)
        if section == "sim":
            values.update(overrides or {})
            violations.extend(f"[sim] missing required key {key!r}"
                              for key in ("seed", "nodes") if key not in values)

    mix_rows = dict(zip(_SCHEMAS["mix"], DEFAULT_MIX.rows)) | read["mix"]
    ranges = read["sweep"]
    sweep = SweepConfig(ranges.pop("runs", SweepConfig.runs), ranges)

    # Each sub-model stops at its first violation; a failed one is left at
    # its default, so that the scenario's own checks still run.
    models = {}
    for name, build in (("profile", lambda: replace(DEFAULT_PROFILE, **read["energy"])),
                        ("mix", lambda: ConstituentResourceMix(tuple(mix_rows.values()))),
                        ("radio", lambda: RadioModelParams(**read["radio"]))):
        try:
            models[name] = build()
        except ValueError as exc:
            violations.append(str(exc))
    try:
        cfg = ScenarioConfig(sweep=sweep, **models, **read["sim"])
    except ConfigError as exc:
        violations.extend(exc.violations)
    if violations:
        raise ConfigError(violations)
    return cfg


def with_overrides(cfg: ScenarioConfig, **changes) -> ScenarioConfig:
    """A copy of the scenario with the given fields replaced (revalidated)."""
    return replace(cfg, **changes)


def sample_config() -> str:
    """A commented INI showing every section with its default values, one
    ``key = value`` line per key of the section schemas."""
    cfg = ScenarioConfig()

    def lines(obj, keys) -> str:
        # str() of a number is already lower case; bools are written true/false.
        return "\n".join(f"{key} = {str(getattr(obj, key)).lower()}" for key in keys)

    mix_lines = "\n".join(
        f"{name} = " + ", ".join(str(w) for w in row)
        for name, row in zip(_SCHEMAS["mix"], cfg.mix.rows))
    return f"""\
# Scenario configuration. Every key is optional except [sim] seed and nodes;
# values shown are the defaults (synthetic reference scenario).

[sim]
{lines(cfg, _SCHEMAS["sim"])}

[energy]
# joules per packet handled by each resource
{lines(cfg.profile, _SCHEMAS["energy"])}

[mix]
# per-packet resource weights (cpu, mem, rx, tx, sens) per constituent
{mix_lines}

[radio]
{lines(cfg.radio, [key for key in _SCHEMAS["radio"] if key != "d0"])}
# d0 defaults to sqrt(eps_fs / eps_mp)

[sweep]
runs = {SweepConfig.runs}
# uniform ranges as low:high over: {", ".join(sorted(SWEEPABLE))}
event_rate = 6.0:30.0
r_sense = 8.0:18.0
g_sense = 0.0:0.2
r_tx = 24.0:40.0
maintenance_period = 4:16
"""
