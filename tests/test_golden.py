"""Golden outputs: byte-for-byte pins of traces, ledgers and a sample sweep.

A change to the simulator that is meant to keep behaviour (a refactor or a
speed-up) must leave both digests as they are. A change that alters traces
on purpose updates the digests here and says why.
"""

import hashlib

import pytest

from wsnec import cli, config, simulator, traceio

DEFAULT_TRACE_SHA256 = "da9eb03e4782481f8720e7b427754c90195322cb509d1dce36ca7d7e622c7e83"
SWEEP_8_SEED_1_SHA256 = "c9a3273be17bea068d37935f92342945f172ea709490d14c623310a99f803894"
MIX_CHARGING_TRACE_SHA256 = "f3b7a1f1897b9ffc4fe38e1d2b6e9f4fc863a347bbc00d7f3e68d014233a7221"

# Ledger rows of three runs: the default scenario, a depleted one (refused
# charges) and mix charging (per-constituent prices): (entries, SHA-256).
LEDGER_PINS = {
    "default": ({}, 13302, "42d89624903977e2d0a460d5615a915ddb72ac4cd10bb2881e6b889daca59459"),
    "depleted": ({"initial_battery": 0.004}, 1375,
                 "1ef5532d185812a0c8fbe1953bf3d49a1c19f0bbccff496ca7f7ab10ba5eef91"),
    "mix-charging": ({"mix_charging": True}, 13390,
                     "10971bae3c9bb10cc6a309339bad8118615a8f9decf23ac3e43199b5bdcd59af"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_default_scenario_trace_is_pinned(tmp_path):
    out = tmp_path / "trace.csv"
    traceio.write_trace(str(out), simulator.run(config.ScenarioConfig()).records)
    assert _sha256(out) == DEFAULT_TRACE_SHA256


def test_mix_charging_trace_is_pinned(tmp_path):
    out = tmp_path / "trace.csv"
    traceio.write_trace(str(out), simulator.run(config.ScenarioConfig(mix_charging=True)).records)
    assert _sha256(out) == MIX_CHARGING_TRACE_SHA256


@pytest.mark.parametrize("name", LEDGER_PINS)
def test_ledger_rows_are_pinned(name):
    fields, entries, digest = LEDGER_PINS[name]
    ledger = simulator.run(config.ScenarioConfig(**fields)).ledger
    rows = hashlib.sha256()
    for e in ledger:
        rows.update(f"{e.slice_index},{e.node_id},{e.kind.value},{e.energy.hex()}\n".encode())
    assert (len(ledger), rows.hexdigest()) == (entries, digest)


def test_sample_config_sweep_observations_are_pinned(tmp_path, capsys):
    ini = tmp_path / "scenario.ini"
    ini.write_text(config.sample_config(), encoding="utf-8")
    out = tmp_path / "observations.csv"
    code = cli.main(["sweep", "--config", str(ini), "--output", str(out),
                     "--runs", "8", "--seed", "1"])
    capsys.readouterr()
    assert code == 0
    assert _sha256(out) == SWEEP_8_SEED_1_SHA256
