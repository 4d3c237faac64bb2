"""Golden outputs: byte-for-byte pins of the default trace and a sample sweep.

A change to the simulator that is meant to keep behaviour (a refactor or a
speed-up) must leave both digests as they are. A change that alters traces
on purpose updates the digests here and says why.
"""

import hashlib

from wsnec import cli, config, simulator, traceio

DEFAULT_TRACE_SHA256 = "da9eb03e4782481f8720e7b427754c90195322cb509d1dce36ca7d7e622c7e83"
SWEEP_8_SEED_1_SHA256 = "c9a3273be17bea068d37935f92342945f172ea709490d14c623310a99f803894"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_default_scenario_trace_is_pinned(tmp_path):
    out = tmp_path / "trace.csv"
    traceio.write_trace(str(out), simulator.run(config.ScenarioConfig()).records)
    assert _sha256(out) == DEFAULT_TRACE_SHA256


def test_sample_config_sweep_observations_are_pinned(tmp_path, capsys):
    ini = tmp_path / "scenario.ini"
    ini.write_text(config.sample_config(), encoding="utf-8")
    out = tmp_path / "observations.csv"
    code = cli.main(["sweep", "--config", str(ini), "--output", str(out),
                     "--runs", "8", "--seed", "1"])
    capsys.readouterr()
    assert code == 0
    assert _sha256(out) == SWEEP_8_SEED_1_SHA256
