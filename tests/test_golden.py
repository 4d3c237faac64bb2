"""Golden outputs: byte-for-byte pins of traces, ledgers, phase sequences, a
sample sweep, fit reports, a rolling fit and schedules.

A change to the simulator that is meant to keep behaviour (a refactor or a
speed-up) must leave both digests as they are. A change that alters traces
on purpose updates the digests here and says why.
"""

import hashlib
import math
import random

import pytest

from wsnec import cli, config, estimation, simulator, traceio
from wsnec.energy_core import Constituent

DEFAULT_TRACE_SHA256 = "da9eb03e4782481f8720e7b427754c90195322cb509d1dce36ca7d7e622c7e83"
SWEEP_8_SEED_1_SHA256 = "c9a3273be17bea068d37935f92342945f172ea709490d14c623310a99f803894"
MIX_CHARGING_TRACE_SHA256 = "f3b7a1f1897b9ffc4fe38e1d2b6e9f4fc863a347bbc00d7f3e68d014233a7221"

# Ledger rows of five runs: the default scenario, a depleted one (refused
# charges), mix charging (per-constituent prices), 200 nodes at the sample
# density (multi-hop routes, periodic repair floods over 200 nodes) and
# 2-hop repairs on a drained battery (probe timeouts flood only the nodes
# within two hops of a trigger): (entries, SHA-256).
LEDGER_PINS = {
    "default": ({}, 13302, "42d89624903977e2d0a460d5615a915ddb72ac4cd10bb2881e6b889daca59459"),
    "depleted": ({"initial_battery": 0.004}, 1375,
                 "1ef5532d185812a0c8fbe1953bf3d49a1c19f0bbccff496ca7f7ab10ba5eef91"),
    "mix-charging": ({"mix_charging": True}, 13390,
                     "10971bae3c9bb10cc6a309339bad8118615a8f9decf23ac3e43199b5bdcd59af"),
    "200-nodes": ({"nodes": 200, "area_width": 282.8, "area_height": 282.8}, 112905,
                  "67c102ef63089ada492306b39907f93f5d527aac61be710d1f5081919b415d17"),
    "repair-2-hops": ({"repair_radius_hops": 2, "initial_battery": 0.02}, 5561,
                      "5618014568f2b68cb99be2a7bd0c82ca12d83655caadd9fa3eff61dc9654db2e"),
}


# `budget` schedules under the `fit --fit-fraction 0.7` model of the default
# trace: a seeded 64-task random list, and 16 optional equal-density tasks
# (importance = pf size, distinct subset sums) that keep every subset on the
# exact solver's frontier.
SCHEDULE_PINS = {
    "random-64": "8e1afe8c51a01f364030768c9f1e369e3e3ef7fe3cf7ee597c61c8bcc01e10e4",
    "equal-density-16": "18ae245b12aaa274ca500341dc00f1dea9254be252861640ee55a96fe47ba3c9",
}


# `fit` reports on the default trace: a 70/30 split fit and a 20-slice rolling fit.
FIT_REPORT_PINS = {
    "split-0.7": (["--fit-fraction", "0.7"],
                  "a67dada1024b3dbb900bf290f3d4a119d42ec0aac63c9406dba3bfc6ed5d5c95"),
    "window-20": (["--window", "20"],
                  "4cdf5d509ad9c6d5943a93944b4b44b0d66e7201d9b2bb30d13e1877cbb50f46"),
}

# Every field of `rolling_fit(window=8)` on the `initial_battery=0.004` trace,
# whose quiet stretches make 30 of the 73 windows rank-deficient: (fitted,
# skipped, SHA-256 of the hex-encoded fits and the skip reasons). Its slices
# that book 0 J have no percentage error; `fit` reports them unscored
# (tests/test_cli.py).
DEPLETED_ROLLING_8 = (43, 30, "344d73a8999e24cf34bf4fb6695947d5537516b2dcdac619a8d1aa9b3ffe6fbe")

# SHA-256 of each run's per-slice phase string (I, C or M per slice) where
# the pins above do not reach the run loop: short initializations, a repair
# after every collection slice, repairs triggered only by probe timeouts,
# 2-hop repairs and a 3-slice repair period on another seed.
PHASE_PINS = {
    "init-0": ({"init_slices": 0},
               "a55620ef7dfb1ef5863abca68d11fd8eec83e323143ef10f33325f849d7ef441"),
    "init-1": ({"init_slices": 1},
               "ed1185fd7530ec67e5b845fb73968a2056a20303cdece132fad1a0f259763979"),
    "init-2": ({"init_slices": 2},
               "5eb2a1c54d5aa67c34436277afd2544df939cd360f3356f144fa3b180a636a15"),
    "period-1": ({"maintenance_period": 1},
                 "da8d959c2a591a1e04878b8738a9f007743773ff7c6c5919db5e4b25218ebaed"),
    "probe-timeouts-only": ({"maintenance_period": 0, "monitor_period": 1,
                             "initial_battery": 0.004},
                            "dce6b8bf1fc858abe68af43a3fbdeb8a49e04de09d471d524e5453e0c03f81d3"),
    "repair-2-hops": ({"repair_radius_hops": 2, "initial_battery": 0.02},
                      "4dab528e097373fad4c022710763fd2a21986dfdf65d6508c40e9c274aa87b53"),
    "seed-7-period-3": ({"seed": 7, "maintenance_period": 3, "total_slices": 40},
                        "a91c2df611082aeda99dad0d5f2f32a16dc6fa33937dfcf929d29b1216b52d59"),
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


@pytest.mark.parametrize("name", PHASE_PINS)
def test_phase_sequences_are_pinned(name):
    fields, digest = PHASE_PINS[name]
    records = simulator.run(config.ScenarioConfig(**fields)).records
    phases = "".join(r.phase.value[0].upper() for r in records)
    assert hashlib.sha256(phases.encode()).hexdigest() == digest


def test_sample_config_sweep_observations_are_pinned(tmp_path, capsys):
    ini = tmp_path / "scenario.ini"
    ini.write_text(config.sample_config(), encoding="utf-8")
    out = tmp_path / "observations.csv"
    code = cli.main(["sweep", "--config", str(ini), "--output", str(out),
                     "--runs", "8", "--seed", "1"])
    capsys.readouterr()
    assert code == 0
    assert _sha256(out) == SWEEP_8_SEED_1_SHA256


def test_sweep_energies_do_not_depend_on_the_builtin_sum(tmp_path, capsys, monkeypatch):
    # From Python 3.12 on, ``sum`` compensates like ``math.fsum``; the pin
    # holds only for energies added in booking order.
    monkeypatch.setattr(cli, "sum", math.fsum, raising=False)
    test_sample_config_sweep_observations_are_pinned(tmp_path, capsys)


def _random_tasks(rng: random.Random) -> list[tuple]:
    mandatory = [(0, "local", rng.randint(1, 4), 1.0, True),
                 (1, "global", rng.randint(1, 4), 1.0, True)]
    return mandatory + [(k, rng.choice(("individual", "local", "global")), rng.randint(1, 40),
                         round(rng.uniform(0.5, 10.0), 6), False) for k in range(2, 64)]


def _equal_density_tasks(rng: random.Random) -> list[tuple]:
    # pf = 256 * 2^k + r with sum(r) < 256: the high part names the subset.
    sizes = [256 * 2 ** k + rng.randrange(16) for k in range(16)]
    rng.shuffle(sizes)
    return ([(0, "local", 1, 1.0, True), (1, "global", 1, 1.0, True)]
            + [(k + 2, "global", pf, float(pf), False) for k, pf in enumerate(sizes)])


@pytest.mark.parametrize("name", SCHEDULE_PINS)
def test_budget_schedules_are_pinned(name, tmp_path, capsys):
    trace, model = tmp_path / "trace.csv", tmp_path / "model.csv"
    traceio.write_trace(str(trace), simulator.run(config.ScenarioConfig()).records)
    assert cli.main(["fit", "--input", str(trace), "--output", str(model),
                     "--fit-fraction", "0.7"]) == 0
    alpha = traceio.read_coefficients(str(model))
    rng = random.Random(7)
    tasks = _random_tasks(rng) if name == "random-64" else _equal_density_tasks(rng)
    mandatory = sum(alpha.get(Constituent(c)) * pf for _, c, pf, _, m in tasks if m)
    optional = sum(alpha.get(Constituent(c)) * pf for _, c, pf, _, m in tasks if not m)
    battery = mandatory + 0.4 * optional
    path = tmp_path / "tasks.csv"
    path.write_text("id,constituent,pf_size,importance,mandatory\n" + "".join(
        f"{i},{c},{pf},{imp!r},{str(m).lower()}\n" for i, c, pf, imp, m in tasks),
        encoding="utf-8")
    out = tmp_path / "schedule.csv"
    code = cli.main(["budget", "--tasks", str(path), "--model", str(model),
                     "--battery", repr(battery), "--output", str(out)])
    assert "method: exact-dp" in capsys.readouterr().out
    assert code == 0
    assert _sha256(out) == SCHEDULE_PINS[name]


@pytest.mark.parametrize("name", FIT_REPORT_PINS)
def test_fit_reports_are_pinned(name, tmp_path, capsys):
    trace, report = tmp_path / "trace.csv", tmp_path / "report.csv"
    traceio.write_trace(str(trace), simulator.run(config.ScenarioConfig()).records)
    extra, digest = FIT_REPORT_PINS[name]
    code = cli.main(["fit", "--input", str(trace), "--output", str(report)] + extra)
    capsys.readouterr()
    assert code == 0
    assert _sha256(report) == digest


def test_depleted_rolling_fit_is_pinned():
    records = simulator.run(config.ScenarioConfig(initial_battery=0.004)).records
    rolling = estimation.rolling_fit(traceio.observations_from_slices(records), 8)
    rows = hashlib.sha256()
    for wf in rolling.fits:
        r = wf.result
        fields = [*r.coefficients.alpha, *r.stderr, r.condition, *r.residuals]
        rows.update(f"{wf.start},{wf.stop},{r.n_obs},{','.join(float(x).hex() for x in fields)}\n"
                    .encode())
    for start, reason in rolling.skipped:
        rows.update(f"skip,{start},{reason}\n".encode())
    assert (len(rolling.fits), len(rolling.skipped), rows.hexdigest()) == DEPLETED_ROLLING_8
