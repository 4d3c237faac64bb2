"""Scenario configuration: defaults, INI loading and total validation.

A scenario is described by a plain-text INI file with one section per
concern: ``[sim]`` for the network and workload, ``[energy]`` for the
per-resource packet prices, ``[mix]`` for the constituent resource-weight
matrix, ``[radio]`` for the per-bit radio model and ``[sweep]`` for batch-run
parameter ranges. Every key has a default, so a minimal file is just::

    [sim]
    seed = 1
    nodes = 25

All defaults are synthetic (chosen for a well-behaved reference scenario,
not measured from hardware). Validation is total: loading collects every
out-of-boundary value and reports them all at once, before any computation.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable

from .energy_core import ConstituentResourceMix, ResourcePowerProfile
from .radio import RadioModelParams


class ConfigError(ValueError):
    """One or more configuration values violated their boundaries."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.violations))


DEFAULT_PROFILE = ResourcePowerProfile(
    p_cpu=2e-5, p_mem=1e-5, p_rx=4e-5, p_tx=6e-5, p_sens=3e-5)

DEFAULT_MIX_ROWS = (
    (1.0, 0.0, 0.0, 1.0, 1.0),   # individual: process, transmit, sense
    (1.0, 0.0, 1.0, 1.0, 0.0),   # local: process, exchange with neighbors
    (1.0, 1.0, 1.0, 1.0, 0.0),   # global: process, queue, relay
    (1.0, 0.0, 0.0, 0.0, 0.0),   # environment: bookkeeping only
    (1.0, 0.0, 1.0, 1.0, 0.0),   # sink-directed management
)


@dataclass(frozen=True)
class SweepConfig:
    """Batch-experiment settings: run count and per-parameter uniform ranges."""

    runs: int = 50
    ranges: dict = field(default_factory=dict)   # param -> (low, high)


@dataclass(frozen=True)
class ScenarioConfig:
    # network and workload
    seed: int = 1
    nodes: int = 25
    area_width: float = 100.0
    area_height: float = 100.0
    sink_x: float = 5.0
    sink_y: float = 5.0
    r_tx: float = 30.0
    r_sense: float = 12.0
    g_sense: float = 0.05
    delta_t: float = 1.0
    init_slices: int = 3
    total_slices: int = 80
    event_rate: float = 18.0         # area events per slice
    initial_battery: float = 0.5     # joules per node
    bits_per_packet: int = 1024
    maintenance_period: int = 8      # slices between periodic repairs; 0 = never
    repair_radius_hops: int = 0      # 0 = whole network participates
    monitor_period: int = 10         # full neighbor-table refresh interval; 0 = off
    monitoring: bool = True
    scheduling: bool = True
    warmup_packets: int = 2          # boot-time sensor readings per node (first init slice)
    mix_charging: bool = False       # charge packets by mix row instead of handling usage
    # sub-models
    profile: ResourcePowerProfile = DEFAULT_PROFILE
    mix: ConstituentResourceMix = field(default_factory=lambda: ConstituentResourceMix(DEFAULT_MIX_ROWS))
    radio: RadioModelParams = RadioModelParams()
    sweep: SweepConfig | None = None

    def __post_init__(self):
        violations = scenario_violations(self)
        if violations:
            raise ConfigError(violations)


#: Boundary name and predicate per scalar field, reused for sweep ranges.
_BOUNDS: dict[str, tuple[str, Callable[[float], bool]]] = {
    "nodes": ("nodes >= 1", lambda v: v >= 1),
    "area_width": ("area_width > 0", lambda v: v > 0),
    "area_height": ("area_height > 0", lambda v: v > 0),
    "r_tx": ("r_tx >= 0", lambda v: v >= 0),
    "r_sense": ("r_sense > 0", lambda v: v > 0),
    "g_sense": ("g_sense >= 0", lambda v: v >= 0),
    "delta_t": ("delta_t > 0", lambda v: v > 0),
    "init_slices": ("init_slices >= 0", lambda v: v >= 0),
    "total_slices": ("total_slices >= 1", lambda v: v >= 1),
    "event_rate": ("event_rate >= 0", lambda v: v >= 0),
    "initial_battery": ("initial_battery > 0", lambda v: v > 0),
    "bits_per_packet": ("bits_per_packet >= 1", lambda v: v >= 1),
    "maintenance_period": ("maintenance_period >= 0", lambda v: v >= 0),
    "repair_radius_hops": ("repair_radius_hops >= 0", lambda v: v >= 0),
    "monitor_period": ("monitor_period >= 0", lambda v: v >= 0),
    "warmup_packets": ("warmup_packets >= 0", lambda v: v >= 0),
}


def scenario_violations(cfg: ScenarioConfig) -> list[str]:
    """Every boundary violated by the scenario, as human-readable strings."""
    out = []
    for name, (boundary, ok) in _BOUNDS.items():
        value = getattr(cfg, name)
        if not (math.isfinite(float(value)) and ok(value)):
            out.append(f"parameter boundary {boundary} violated (got {value!r})")
    if not cfg.seed >= 0:   # random.Random seeds with |seed|
        out.append(f"parameter boundary seed >= 0 violated (got {cfg.seed!r})")
    if not (0 <= cfg.sink_x <= cfg.area_width and 0 <= cfg.sink_y <= cfg.area_height):
        out.append(f"sink ({cfg.sink_x!r}, {cfg.sink_y!r}) outside area "
                   f"[0, {cfg.area_width!r}] x [0, {cfg.area_height!r}]")
    if cfg.total_slices < cfg.init_slices:
        out.append(f"total_slices ({cfg.total_slices}) must cover init_slices ({cfg.init_slices})")
    if cfg.sweep is not None:
        out.extend(sweep_violations(cfg.sweep))
    return out


def sweep_violations(sweep: SweepConfig) -> list[str]:
    out = []
    if sweep.runs < 1:
        out.append(f"sweep runs must be >= 1 (got {sweep.runs!r})")
    for name, (low, high) in sweep.ranges.items():
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
        boundary, ok = _BOUNDS[name]
        if not (ok(low) and ok(high)):
            out.append(f"sweep range {low!r}:{high!r} for {name} violates "
                       f"parameter boundary {boundary}")
    return out


# ---------------------------------------------------------------------------
# INI loading

#: Every scalar field of ScenarioConfig, typed by its default (the annotations
#: are strings under ``from __future__ import annotations``).
_SIM_SCHEMA: dict[str, type] = {f.name: type(f.default) for f in fields(ScenarioConfig)
                                if type(f.default) in (int, float, bool)}

_ENERGY_SCHEMA = {f.name: float for f in fields(ResourcePowerProfile)}

_RADIO_SCHEMA = {f.name: float for f in fields(RadioModelParams)}

_MIX_KEYS = ("individual", "local", "global", "environment", "snk")

#: Parameters cmd_sweep may randomize, with their integer-ness.
SWEEPABLE: dict[str, bool] = {
    "event_rate": False, "r_sense": False, "g_sense": False,
    "r_tx": False, "initial_battery": False,
    "maintenance_period": True, "monitor_period": True, "warmup_packets": True,
}


def _convert(raw: str, kind: type, where: str, violations: list[str]):
    raw = raw.strip()
    try:
        if kind is bool:
            state = configparser.ConfigParser.BOOLEAN_STATES.get(raw.lower())
            if state is None:
                raise ValueError
            return state
        return kind(raw)
    except ValueError:
        violations.append(f"{where}: expected {kind.__name__}, got {raw!r}")
        return None


def _parse_section(parser, section: str, schema: dict, violations: list[str]) -> dict:
    out = {}
    if not parser.has_section(section):
        return out
    for key, raw in parser.items(section):
        if key not in schema:
            violations.append(f"[{section}] unknown key {key!r}")
            continue
        value = _convert(raw, schema[key], f"[{section}] {key}", violations)
        if value is not None:
            out[key] = value
    return out


def load_config(path: str, overrides: dict | None = None) -> ScenarioConfig:
    """Load and fully validate a scenario INI file.

    ``overrides`` are applied on top of the ``[sim]`` section (the CLI uses
    this for ``--seed``). Raises :class:`ConfigError` listing every problem.
    """
    if not os.path.exists(path):
        raise ConfigError([f"config file not found: {path}"])
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse config: {exc}"]) from exc

    violations: list[str] = []
    known = {"sim", "energy", "mix", "radio", "sweep"}
    for section in parser.sections():
        if section not in known:
            violations.append(f"unknown section [{section}]")

    sim = _parse_section(parser, "sim", _SIM_SCHEMA, violations)
    if overrides:
        sim.update(overrides)
    for required in ("seed", "nodes"):
        if required not in sim:
            violations.append(f"[sim] missing required key {required!r}")

    energy = _parse_section(parser, "energy", _ENERGY_SCHEMA, violations)
    radio = _parse_section(parser, "radio", _RADIO_SCHEMA, violations)

    mix_rows = list(DEFAULT_MIX_ROWS)
    if parser.has_section("mix"):
        for key, raw in parser.items("mix"):
            if key not in _MIX_KEYS:
                violations.append(f"[mix] unknown key {key!r}")
                continue
            parts = [p for p in raw.replace(",", " ").split() if p]
            if len(parts) != 5:
                violations.append(f"[mix] {key}: expected 5 weights, got {len(parts)}")
                continue
            try:
                mix_rows[_MIX_KEYS.index(key)] = tuple(float(p) for p in parts)
            except ValueError:
                violations.append(f"[mix] {key}: weights must be numbers, got {raw!r}")

    sweep = None
    if parser.has_section("sweep"):
        runs = SweepConfig.runs
        ranges = {}
        for key, raw in parser.items("sweep"):
            if key == "runs":
                value = _convert(raw, int, "[sweep] runs", violations)
                if value is not None:
                    runs = value
                continue
            if key not in SWEEPABLE:
                violations.append(f"[sweep] unknown parameter {key!r} "
                                  f"(choose from {sorted(SWEEPABLE)})")
                continue
            parts = raw.split(":")
            if len(parts) != 2:
                violations.append(f"[sweep] {key}: expected low:high, got {raw!r}")
                continue
            lo = _convert(parts[0], float, f"[sweep] {key}", violations)
            hi = _convert(parts[1], float, f"[sweep] {key}", violations)
            if lo is not None and hi is not None:
                ranges[key] = (lo, hi)
        sweep = SweepConfig(runs=runs, ranges=ranges)

    if violations:
        raise ConfigError(violations)

    try:
        profile = replace(DEFAULT_PROFILE, **energy)
        mix = ConstituentResourceMix(mix_rows)
        radio_params = RadioModelParams(**radio)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc

    return ScenarioConfig(profile=profile, mix=mix, radio=radio_params, sweep=sweep, **sim)


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
        for name, row in zip(_MIX_KEYS, cfg.mix.rows))
    return f"""\
# Scenario configuration. Every key is optional except [sim] seed and nodes;
# values shown are the defaults (synthetic reference scenario).

[sim]
{lines(cfg, _SIM_SCHEMA)}

[energy]
# joules per packet handled by each resource
{lines(cfg.profile, _ENERGY_SCHEMA)}

[mix]
# per-packet resource weights (cpu, mem, rx, tx, sens) per constituent
{mix_lines}

[radio]
{lines(cfg.radio, [key for key in _RADIO_SCHEMA if key != "d0"])}
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
