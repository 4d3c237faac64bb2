"""Every function the benchmark's tracer hooks must still exist, and stay hooked.

The tracer reports a hook whose target is gone as absent and reads its
metrics as zero, so a renamed or removed function would pass the benchmark
silently; these tests fail instead.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from wsnec.config import ScenarioConfig, sample_config

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_and_modules():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = SimpleNamespace(**{module: importlib.import_module(f"wsnec.{module}")
                                 for _, module, _, _ in tracer.HOOKS})
    return tracer, modules


def test_every_hook_target_resolves():
    tracer, modules = _tracer_and_modules()
    assert tracer.Tracer(modules).absent == []


def test_cached_parser_hides_no_hooked_call(tmp_path, capsys):
    # The CLI parser is built once per process, here before the hooks go in;
    # the commands must still reach load_config through the hooked name.
    tracer, modules = _tracer_and_modules()
    cli = modules.cli
    cli.build_parser()
    config, trace, report = tmp_path / "scenario.ini", tmp_path / "trace.csv", tmp_path / "fit.csv"
    config.write_text(sample_config(), encoding="utf-8")
    hooks = tracer.Tracer(modules)
    hooks.install()
    try:
        assert cli.main(["simulate", "--config", str(config), "--output", str(trace)]) == 0
        assert cli.main(["fit", "--input", str(trace), "--output", str(report)]) == 0
    finally:
        hooks.uninstall()
    capsys.readouterr()
    metrics = hooks.metrics(1, 0.0)
    assert metrics["cli.main.calls"][0] == 2
    assert metrics["config.load_config.calls"][0] == 1


def test_fit_layers_per_command(tmp_path, capsys):
    # A rolling and a split fit of the default trace, as the tracer sees
    # them: one fit call each, and an observation set per view of the
    # trace (the whole trace twice, the split's two parts), none per window.
    tracer, modules = _tracer_and_modules()
    trace, report = tmp_path / "trace.csv", tmp_path / "fit.csv"
    modules.traceio.write_trace(str(trace), modules.simulator.run(ScenarioConfig()).records)
    hooks = tracer.Tracer(modules)
    hooks.install()
    try:
        for extra in (["--window", "20"], ["--fit-fraction", "0.7"]):
            assert modules.cli.main(["fit", "--input", str(trace), "--output", str(report)]
                                    + extra) == 0
    finally:
        hooks.uninstall()
    capsys.readouterr()
    metrics = hooks.metrics(1, 0.0)
    assert hooks.absent == []
    assert metrics["estimation.fit_ls.calls"][0] == 1
    assert metrics["estimation.rolling_fit.calls"][0] == 1
    assert metrics["estimation.obs_set.builds"][0] == 4
    assert metrics["cli.main.calls"][0] == 2
    assert metrics["trace.hooks_absent"][0] == 0


@pytest.mark.parametrize("fields, hops, tx_prices", [
    ({}, 200, 54),
    ({"initial_battery": 0.004}, 234, 54),
    ({"repair_radius_hops": 2, "initial_battery": 0.02}, 212, 54),
    ({"nodes": 1000, "area_width": 632.5, "area_height": 632.5, "seed": 1}, 9950, 3295),
])
def test_route_and_radio_calls_per_run(fields, hops, tx_prices):
    # Next-hop selections and radio-model tx prices (one per distinct hop
    # distance) of one run, as the tracer counts them.
    tracer, modules = _tracer_and_modules()
    hooks = tracer.Tracer(modules)
    hooks.install()
    try:
        modules.simulator.run(ScenarioConfig(**fields))
    finally:
        hooks.uninstall()
    metrics = hooks.metrics(1, 0.0)
    assert metrics["simulator.select_next_hop.calls"][0] == hops
    assert metrics["radio.tx_energy_per_bit.calls"][0] == tx_prices


def test_refused_charges_as_the_tracer_counts_them():
    # perfbench's workloads keep 0.5 J batteries and refuse no charge, so the
    # refusal observer fires only here: a 0.004 J run refuses 4,561 of its
    # 5,936 charges, and each charge it books is one ledger row.
    tracer, modules = _tracer_and_modules()
    hooks = tracer.Tracer(modules)
    hooks.install()
    try:
        result = modules.simulator.run(ScenarioConfig(initial_battery=0.004))
    finally:
        hooks.uninstall()
    metrics = hooks.metrics(1, 0.0)
    calls, refused, entries = (metrics[name][0] for name in (
        "simulator.charge.calls", "simulator.charge.refused", "simulator.ledger_entries"))
    assert (calls, refused, entries) == (5936, 4561, 1375)
    assert calls - refused == len(result.ledger)
    assert hooks.absent == [] and hooks.observer_errors == 0
