"""Golden outputs: byte-for-byte pins of traces, ledgers, phase sequences, a
sample sweep, fit reports, a rolling fit and schedules.

A change to the simulator that is meant to keep behaviour (a refactor or a
speed-up) must leave both digests as they are. A change that alters traces
on purpose updates the digests here and says why.
"""

import hashlib
import math
import random
from pathlib import Path

import pytest

from wsnec import cli, config, estimation, simulator, traceio
from wsnec.energy_core import Constituent

DEFAULT_TRACE_SHA256 = "aa036f2773db06ef8825e8939ccc5044a3a167ac256a275a91d068dbcec60775"
SWEEP_8_SEED_1_SHA256 = "f5369594aa930a6e9bd5e1155cc7936f76e36cd0c774a6037a2c60f4d7b72218"
MIX_CHARGING_TRACE_SHA256 = "99074c8aa725773d0977fbcc0319c02814b6ea5ac0d7c38b130e0660062efc9d"

# Ledger rows of six runs: the default scenario, a depleted one (refused
# charges), mix charging (per-constituent prices), 200 nodes at the sample
# density (multi-hop routes, periodic repair floods over 200 nodes), 2-hop
# repairs on a drained battery (probe timeouts flood only the nodes within
# two hops of a trigger) and 40 dense nodes under 400 events a slice, whose
# deep relay queues intern more than 256 handlings: (entries, SHA-256).
LEDGER_PINS = {
    "default": ({}, 13302, "213887980a56f0e6a3724f0a079149eefeadff6a2b77597f66f8f76f2e42f1e1"),
    "depleted": ({"initial_battery": 0.004}, 1375,
                 "a270368b677d8cf7c17b31b5b92af629fbabf00a87f2a597cf2897f68d51e990"),
    "mix-charging": ({"mix_charging": True}, 13390,
                     "2ed58b30d8f2ae033e3a2103ad9c0105aa1fb30ef24a63a918f7673a9721b493"),
    "200-nodes": ({"nodes": 200, "area_width": 282.8, "area_height": 282.8}, 112905,
                  "54bc8f877019e9e03bd2af1cdaf5e5c06acb2724720fed617ad4f8dcb545be41"),
    "repair-2-hops": ({"repair_radius_hops": 2, "initial_battery": 0.02}, 5559,
                      "6819b57deb11b9aab990b5031de9af545386dea7975272d3a8967af9addd28f4"),
    "past-256-codes": ({"seed": 3, "nodes": 40, "area_width": 60.0, "area_height": 60.0,
                        "sink_x": 2.0, "sink_y": 2.0, "event_rate": 400.0, "g_sense": 0.0,
                        "total_slices": 8, "initial_battery": 50.0}, 39680,
                       "96a94247d0752106f17e6b94312beebb009b12e8d44136452d83ac4e888a5063"),
}


# `budget` schedules under the `fit --fit-fraction 0.7` model of the default
# trace: a seeded 64-task random list, and 16 optional equal-density tasks
# (importance = pf size, distinct subset sums) that keep every subset on the
# exact solver's frontier.
SCHEDULE_PINS = {
    "random-64": "77a5603ac634112953aca20d439e210d3f56ab56b7c94c52b9d76ecc58920101",
    "equal-density-16": "0c2b60fe77bc917990f435fa1fab1fc50569038e0321b1abadbb578777ff6b61",
}


# `fit` reports on the default trace: a 70/30 split fit and a 20-slice rolling fit.
FIT_REPORT_PINS = {
    "split-0.7": (["--fit-fraction", "0.7"],
                  "28e81140644b296e726ac539f8806654cf775937704053b9078e80c791026b36"),
    "window-20": (["--window", "20"],
                  "bee7a59bc9f544e9bf777e9d30b0212a69934b76ca624af4fe0fb211e4350171"),
}

# Every field of `rolling_fit(window=8)` on the `initial_battery=0.004` trace,
# whose quiet stretches make 30 of the 73 windows rank-deficient: (fitted,
# skipped, SHA-256 of the hex-encoded fits and the skip reasons). Its slices
# that book 0 J have no percentage error; `fit` reports them unscored
# (tests/test_cli.py).
DEPLETED_ROLLING_8 = (43, 30, "418cd002cd6e2406ccd3dc7b8eb369db3e05f43e3c01ba113d00c05dcf991749")

# `fit --window 8` on that trace: the one report whose one-step predictions
# skip the targets of rank-deficient windows. (SHA-256 of the report, the
# stdout lines that count and score its windows.)
DEPLETED_ROLLING_REPORT_8 = (
    "22e232fbf0ae00e3a366c2fc37a3ec1353580bad1085e796a34c32c740ed3d33",
    ["windows fitted: 43  skipped: 30", "excluded from scoring: 16",
     "one-step MAPE: 12.408%  max: 43.673%"])

# `fit --fit-fraction` on that trace, which books 0 J from slice 64 on: the
# split reports whose scored slices include unscored ones, none scored at
# 0.8. (SHA-256 of the report, the stdout lines that count and score them.)
DEPLETED_SPLIT_REPORTS = {
    "0.7": ("d0d790a0347ccfe81e5f665f2de35208632abdb61b845aff313bfac2607f7cad",
            ["fit on 56 slices, scored 24", "excluded from scoring: 18",
             "MAPE: 19.425%  max: 24.899%  dominant constituent: global"]),
    "0.8": ("398f57b65fd83f8a4d9bb5e8cb401f3281270ab02bf5eaca3bfe27b5b0105c07",
            ["fit on 64 slices, scored 16", "excluded from scoring: 16",
             "MAPE: nan%  max: nan%  dominant constituent: global"]),
}

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
                      "a020cb5bb5569d856aebc4ded4af06fa380bde39903bbedb356ca0ee72648fa0"),
    "seed-7-period-3": ({"seed": 7, "maintenance_period": 3, "total_slices": 40},
                        "a91c2df611082aeda99dad0d5f2f32a16dc6fa33937dfcf929d29b1216b52d59"),
}


# Traces of three runs as written while energies were float joules, with the
# runs' delivered and dropped counts. Counting whole nanojoules must change
# only the rounding of these runs' slice energies.
FLOAT_JOULE_RUNS = {
    "default": ({}, 779, 559),
    "mix-charging": ({"mix_charging": True}, 783, 555),
    "200-nodes": ({"nodes": 200, "area_width": 282.8, "area_height": 282.8}, 33, 1550),
}
FLOAT_JOULE_TRACES = Path(__file__).parent / "data" / "float_joules"


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


@pytest.mark.parametrize("name", FLOAT_JOULE_RUNS)
def test_float_joule_traces_differ_only_by_rounding(name):
    fields, delivered, dropped = FLOAT_JOULE_RUNS[name]
    old = traceio.read_trace(str(FLOAT_JOULE_TRACES / f"{name}.csv"))
    result = simulator.run(config.ScenarioConfig(**fields))
    assert (result.delivered, result.dropped) == (delivered, dropped)
    assert ([(r.index, r.phase, r.flows, r.alive_nodes) for r in result.records]
            == [(r.index, r.phase, r.flows, r.alive_nodes) for r in old])
    for new, before in zip(result.records, old):
        assert new.energy_j == pytest.approx(before.energy_j, rel=1e-12, abs=0.0), new.index


@pytest.mark.parametrize("name", LEDGER_PINS)
def test_ledger_rows_are_pinned(name):
    fields, entries, digest = LEDGER_PINS[name]
    ledger = simulator.run(config.ScenarioConfig(**fields)).ledger
    rows = hashlib.sha256()
    for e in ledger:
        rows.update(f"{e.slice_index},{e.node_id},{e.kind.value},{e.energy.hex()}\n".encode())
    assert (len(ledger), rows.hexdigest()) == (entries, digest)


def test_the_past_256_codes_run_books_its_257th_handling_in_slice_3():
    # Its first code of 256 or more is a relay booked by the event loop.
    ledger = simulator.run(config.ScenarioConfig(**LEDGER_PINS["past-256-codes"][0])).ledger
    assert len(ledger.handlings) == 822
    assert [max(codes) >= 256 for _, codes in ledger.groups] == [False] * 3 + [True] * 5
    first = next(code for code in ledger.groups[3][1] if code >= 256)
    assert ledger.handlings[first][0] is simulator.PacketKind.RELAYED_DATA


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


def test_depleted_rolling_report_is_pinned(tmp_path, capsys):
    trace, report = tmp_path / "trace.csv", tmp_path / "report.csv"
    records = simulator.run(config.ScenarioConfig(initial_battery=0.004)).records
    traceio.write_trace(str(trace), records)
    code = cli.main(["fit", "--input", str(trace), "--output", str(report), "--window", "8"])
    lines = capsys.readouterr().out.splitlines()
    digest, counted = DEPLETED_ROLLING_REPORT_8
    assert code == 0
    assert _sha256(report) == digest
    assert lines[:3] == counted


@pytest.mark.parametrize("fraction", DEPLETED_SPLIT_REPORTS)
def test_depleted_split_reports_are_pinned(fraction, tmp_path, capsys):
    trace, report = tmp_path / "trace.csv", tmp_path / "report.csv"
    records = simulator.run(config.ScenarioConfig(initial_battery=0.004)).records
    traceio.write_trace(str(trace), records)
    code = cli.main(["fit", "--input", str(trace), "--output", str(report),
                     "--fit-fraction", fraction])
    lines = capsys.readouterr().out.splitlines()
    digest, counted = DEPLETED_SPLIT_REPORTS[fraction]
    assert code == 0
    assert _sha256(report) == digest
    assert lines[:3] == counted
