"""End-to-end tests of the command-line surface.

Commands are invoked in-process through ``cli.main`` (it returns the exit
code); subprocess tests cover ``python -m wsnec.cli`` and ``python -m wsnec``.
"""

import argparse
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wsnec import cli
from wsnec.config import ScenarioConfig, sample_config
from wsnec.energy_core import Constituent, constituent_alpha
from wsnec.traceio import (
    read_coefficients,
    read_observations,
    read_trace,
    write_trace,
)
from wsnec.simulator import Phase, SliceRecord, run
from wsnec.energy_core import ConstituentFlowVector
from test_golden import DEFAULT_TRACE_SHA256, FIT_REPORT_PINS

MINIMAL = "[sim]\nseed = 5\nnodes = 2\ntotal_slices = 12\n"
# Every handling would cost a fraction of a nanojoule, which rounds to 0 nJ.
SUB_NJ_PRICES = "[energy]\n" + "".join(
    f"{name} = 1e-10\n" for name in ("p_cpu", "p_mem", "p_rx", "p_tx", "p_sens"))


def write_cfg(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSimulate:
    def test_minimal_two_node_scenario(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL)
        out = tmp_path / "trace.csv"
        assert cli.main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        assert "seed: 5" in capsys.readouterr().out
        records = read_trace(str(out))
        assert len(records) == 12
        assert records[0].alive_nodes == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["simulate", "--config", cfg, "--output", str(a)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_boundary_violation_exit_code_and_message(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[sim]\nseed = 1\nnodes = 2\nr_sense = 0\n")
        out = tmp_path / "trace.csv"
        assert cli.main(["simulate", "--config", cfg, "--output", str(out)]) == 1
        assert "r_sense > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("section, boundary", [
        ("[energy]\np_cpu = -1\n", "p_cpu >= 0"),
        ("[radio]\neps_fs = 0\n", "eps_fs > 0"),
    ])
    def test_sub_model_boundary_violation_exit_code(self, tmp_path, capsys, section, boundary):
        cfg = write_cfg(tmp_path, MINIMAL + "\n" + section)
        out = tmp_path / "trace.csv"
        assert cli.main(["simulate", "--config", cfg, "--output", str(out)]) == 1
        assert f"parameter boundary {boundary} violated" in capsys.readouterr().err
        assert not out.exists()

    def test_probability_section_is_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL + "\n[flows.probabilities]\np_cap = 0.3\n")
        out = tmp_path / "trace.csv"
        assert cli.main(["simulate", "--config", cfg, "--output", str(out)]) == 1
        assert "unknown section [flows.probabilities]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        (MINIMAL + SUB_NJ_PRICES, "sensed handling price 2e-10 J rounds to 0 nJ"),
        (MINIMAL + "initial_battery = 1e-10\n", "initial_battery 1e-10 J rounds to 0 nJ"),
        (MINIMAL + "initial_battery = 5e6\n", "initial_battery = 1e+16 nJ exceeds 2^53"),
        (MINIMAL + "initial_battery = 1e300\n", "initial_battery = inf nJ exceeds 2^53"),
    ], ids=["prices", "battery", "network-battery", "past-float-range"])
    def test_energy_outside_whole_nanojoule_range_rejected(self, tmp_path, capsys, text,
                                                            message):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "trace.csv"
        assert cli.main(["simulate", "--config", cfg, "--output", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL)
        out = tmp_path / "trace.csv"
        assert cli.main(["simulate", "--config", cfg, "--output", str(out), "--seed", "-5"]) == 1
        assert "parameter boundary seed >= 0 violated" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_changes_trace(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["simulate", "--config", cfg, "--output", str(a)])
        cli.main(["simulate", "--config", cfg, "--output", str(b), "--seed", "99"])
        assert a.read_bytes() != b.read_bytes()


class TestFit:
    def _exact_trace(self, tmp_path, alpha=(2e-4, 1e-4, 3e-4)):
        rng = np.random.default_rng(11)
        records = []
        for i in range(40):
            flows = ConstituentFlowVector(*rng.uniform(1, 50, size=3), 0.0, 0.0)
            energy = float(np.dot(alpha, flows.as_tuple()[:3]))
            records.append(SliceRecord(i, Phase.COLLECTION, flows, energy, 5))
        path = tmp_path / "exact.csv"
        write_trace(str(path), records)
        return str(path)

    def test_exact_linear_trace_has_zero_mape(self, tmp_path, capsys):
        trace = self._exact_trace(tmp_path)
        report = tmp_path / "report.csv"
        assert cli.main(["fit", "--input", trace, "--output", str(report)]) == 0
        out = capsys.readouterr().out
        mape = float(out.split("MAPE: ")[1].split("%")[0])
        assert mape < 0.001
        coeffs = read_coefficients(str(report))
        assert coeffs.alpha[:3] == pytest.approx((2e-4, 1e-4, 3e-4), rel=1e-6)

    def test_default_trace_dominant_is_global(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[sim]\nseed = 1\nnodes = 25\n")
        trace = tmp_path / "trace.csv"
        cli.main(["simulate", "--config", cfg, "--output", str(trace)])
        report = tmp_path / "report.csv"
        assert cli.main(["fit", "--input", str(trace), "--output", str(report),
                         "--fit-fraction", "0.7"]) == 0
        assert "dominant constituent: global" in capsys.readouterr().out
        assert "global" in report.read_text().rstrip().splitlines()[-1]

    def test_mix_charging_fit_recovers_the_mix_prices(self, tmp_path):
        # Under mix charging every handling costs its constituent's price,
        # so each slice's energy is exactly linear in its flows.
        cfg = write_cfg(tmp_path, sample_config().replace("mix_charging = false",
                                                          "mix_charging = true"))
        trace, report = tmp_path / "trace.csv", tmp_path / "report.csv"
        assert cli.main(["simulate", "--config", cfg, "--output", str(trace)]) == 0
        assert cli.main(["fit", "--input", str(trace), "--output", str(report)]) == 0
        scenario, coeffs = ScenarioConfig(), read_coefficients(str(report))
        assert len(coeffs.active_constituents()) == 3
        for c in coeffs.active_constituents():
            price = constituent_alpha(scenario.mix.row(c), scenario.profile)
            assert coeffs.get(c) == pytest.approx(price, rel=1e-12, abs=0)

    def test_rank_error_names_columns_exit_2(self, tmp_path, capsys):
        trace = self._exact_trace(tmp_path)
        report = tmp_path / "report.csv"
        with pytest.warns(UserWarning, match="only 40 observations for 5 constituents"):
            code = cli.main(["fit", "--input", trace, "--output", str(report),
                             "--mask", "individual,local,global,environment,snk"])
        assert code == 2
        err = capsys.readouterr().err
        assert "b_environment" in err and "b_snk" in err

    def test_rolling_window_report(self, tmp_path):
        trace = self._exact_trace(tmp_path)
        report = tmp_path / "rolling.csv"
        assert cli.main(["fit", "--input", trace, "--output", str(report),
                         "--window", "10"]) == 0
        text = report.read_text()
        assert text.startswith("window_start,window_stop,constituent,alpha")
        assert "skipped_windows" in text

    def test_bad_mask_rejected(self, tmp_path):
        trace = self._exact_trace(tmp_path)
        assert cli.main(["fit", "--input", trace, "--output",
                         str(tmp_path / "r.csv"), "--mask", "bogus"]) == 1

    @pytest.mark.parametrize("flag, value, boundary", [
        ("--fit-fraction", "1.5", "0 < fit_fraction <= 1"),
        ("--fit-fraction", "0", "0 < fit_fraction <= 1"),
        ("--fit-fraction", "-1", "0 < fit_fraction <= 1"),
        ("--fit-fraction", "nan", "0 < fit_fraction <= 1"),
        ("--fit-fraction", "inf", "0 < fit_fraction <= 1"),
    ])
    def test_flag_boundary_violation_exit_code(self, tmp_path, capsys, flag, value, boundary):
        trace = self._exact_trace(tmp_path)
        report = tmp_path / "report.csv"
        assert cli.main(["fit", "--input", trace, "--output", str(report), flag, value]) == 1
        assert f"parameter boundary {boundary} violated" in capsys.readouterr().err
        assert not report.exists()

    def test_fit_fraction_with_window_rejected(self, tmp_path, capsys):
        trace = self._exact_trace(tmp_path)
        report = tmp_path / "report.csv"
        assert cli.main(["fit", "--input", trace, "--output", str(report),
                         "--window", "20", "--fit-fraction", "0.3"]) == 1
        assert "parameter boundary fit_fraction = 1 with --window violated" in capsys.readouterr().err
        assert not report.exists()

    def test_rolling_report_skips_zero_energy_targets(self, tmp_path, capsys):
        # At 0.004 J the trace has slices that book 0 J; they have no
        # percentage error, so they are reported but not scored.
        records = run(ScenarioConfig(initial_battery=0.004)).records
        trace, report = tmp_path / "trace.csv", tmp_path / "rolling.csv"
        write_trace(str(trace), records)
        assert cli.main(["fit", "--input", str(trace), "--output", str(report),
                         "--window", "8"]) == 0
        out = capsys.readouterr().out
        blocks = report.read_text().split("\n\n")
        rows = [line.split(",") for line in blocks[1].splitlines()[1:]]
        zero = [r for r in rows if float(r[1]) == 0.0]
        assert zero and all(r[3] == "nan" for r in zero)
        scored = [float(r[3]) for r in rows if float(r[1]) > 0.0]
        assert scored and all(np.isfinite(scored))
        assert f"excluded from scoring: {len(zero)}\n" in out
        mape, max_abs, _ = blocks[2].splitlines()[1].split(",")
        assert float(mape) == pytest.approx(np.mean(np.abs(scored)), rel=1e-12)
        assert float(max_abs) == max(abs(p) for p in scored)

    @pytest.mark.parametrize("fraction", ["0.7", "0.8"])
    def test_split_report_skips_zero_energy_targets(self, tmp_path, capsys, fraction):
        # The depleted trace books 0 J from slice 64 on, so at 0.8 no
        # scored slice has a percentage error and the summary reads nan.
        records = run(ScenarioConfig(initial_battery=0.004)).records
        trace, report = tmp_path / "trace.csv", tmp_path / "report.csv"
        write_trace(str(trace), records)
        assert cli.main(["fit", "--input", str(trace), "--output", str(report),
                         "--fit-fraction", fraction]) == 0
        out = capsys.readouterr().out
        blocks = report.read_text().split("\n\n")
        rows = [line.split(",") for line in blocks[1].splitlines()[1:]]
        assert len(rows) == len(records) - int(len(records) * float(fraction))
        zero = [r for r in rows if float(r[1]) == 0.0]
        assert zero and all(r[3] == "nan" for r in zero)
        assert f"excluded from scoring: {len(zero)}\n" in out
        scored = [float(r[3]) for r in rows if float(r[1]) > 0.0]
        assert all(np.isfinite(scored))
        mape, max_abs, dominant = blocks[2].splitlines()[1].split(",")
        assert dominant in {c.value for c in Constituent}
        assert bool(scored) == (fraction == "0.7")
        if scored:
            assert float(mape) == pytest.approx(np.mean(np.abs(scored)), rel=1e-12)
            assert float(max_abs) == max(abs(p) for p in scored)
        else:
            assert (mape, max_abs) == ("nan", "nan")

    def test_rolling_report_scores_every_target_of_the_default_trace(self, tmp_path, capsys):
        trace, report = tmp_path / "trace.csv", tmp_path / "rolling.csv"
        write_trace(str(trace), run(ScenarioConfig()).records)
        assert cli.main(["fit", "--input", str(trace), "--output", str(report),
                         "--window", "20"]) == 0
        out = capsys.readouterr().out
        assert "excluded" not in out and "one-step MAPE" in out


class TestSweep:
    def test_single_run_matches_simulate_aggregation(self, tmp_path):
        # a sweep with no ranges and one run is the plain scenario, aggregated
        cfg = write_cfg(tmp_path, MINIMAL + "\n[sweep]\nruns = 1\n")
        obs_path = tmp_path / "obs.csv"
        assert cli.main(["sweep", "--config", cfg, "--output", str(obs_path)]) == 0
        obs = read_observations(str(obs_path), active=(True,) * 5)

        import random
        expected_seed = random.Random(5).getrandbits(32)
        trace = tmp_path / "trace.csv"
        cli.main(["simulate", "--config", write_cfg(tmp_path, MINIMAL, "plain.ini"),
                  "--output", str(trace), "--seed", str(expected_seed)])
        records = read_trace(str(trace))
        totals = np.array([r.flows.as_tuple() for r in records]).sum(axis=0)
        assert obs.flows[0] == pytest.approx(totals)
        assert obs.energy[0] == pytest.approx(sum(r.energy_j for r in records), rel=1e-12)

    def test_sweep_is_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, sample_config())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["sweep", "--config", cfg, "--output", str(a), "--runs", "3"]) == 0
        assert cli.main(["sweep", "--config", cfg, "--output", str(b), "--runs", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fractional_integer_range_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL + "\n[sweep]\nruns = 3\nmonitor_period = 2.5:2.7\n")
        out = tmp_path / "o.csv"
        assert cli.main(["sweep", "--config", cfg, "--output", str(out)]) == 1
        assert "integer monitor_period needs whole-number ends" in capsys.readouterr().err
        assert not out.exists()

    def test_sub_nanojoule_prices_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL + SUB_NJ_PRICES + "[sweep]\nruns = 2\n")
        out = tmp_path / "o.csv"
        assert cli.main(["sweep", "--config", cfg, "--output", str(out)]) == 1
        assert "rounds to 0 nJ" in capsys.readouterr().err
        assert not out.exists()

    def test_range_violating_boundary_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL + "\n[sweep]\nruns = 2\nr_sense = 0.0:5.0\n")
        assert cli.main(["sweep", "--config", cfg, "--output",
                         str(tmp_path / "o.csv")]) == 1
        assert "r_sense > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["", "\n[sweep]\nruns = 2\n"])
    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_runs_below_one_rejected(self, tmp_path, capsys, section, runs):
        cfg = write_cfg(tmp_path, MINIMAL + section)
        out = tmp_path / "o.csv"
        assert cli.main(["sweep", "--config", cfg, "--output", str(out), "--runs", runs]) == 1
        assert capsys.readouterr() == (
            "", f"error: invalid configuration:\n  sweep runs must be >= 1 (got {runs})\n")
        assert not out.exists()


class TestBudget:
    TASKS = ("id,constituent,pf_size,importance,mandatory\n"
             "1,local,1,1.0,true\n"
             "2,global,1,1.0,true\n"
             "3,individual,2,5.0,false\n"
             "4,individual,3,4.0,false\n")
    MODEL = "constituent,alpha\nindividual,1.0\nlocal,1.0\nglobal,1.0\n"

    def _paths(self, tmp_path):
        tasks = tmp_path / "tasks.csv"
        tasks.write_text(self.TASKS)
        model = tmp_path / "model.csv"
        model.write_text(self.MODEL)
        return str(tasks), str(model), str(tmp_path / "schedule.csv")

    def test_feasible_schedule(self, tmp_path, capsys):
        tasks, model, out = self._paths(tmp_path)
        code = cli.main(["budget", "--tasks", tasks, "--model", model,
                         "--battery", "10.0", "--output", out])
        assert code == 0
        text = Path(out).read_text()
        assert "true,exact-dp" in text

    def test_infeasible_exit_code_2_with_report(self, tmp_path, capsys):
        tasks, model, out = self._paths(tmp_path)
        code = cli.main(["budget", "--tasks", tasks, "--model", model,
                         "--battery", "1.5", "--output", out])
        assert code == 2
        assert "infeasible" in capsys.readouterr().err
        assert "false,exact-dp" in Path(out).read_text()

    def test_worked_example_through_files(self, tmp_path):
        # optional costs 3,4,5,6 with importances 3,4,5,7 under a strict
        # budget of 10 for the optionals: {3,6} wins with importance 10
        tasks = tmp_path / "tasks.csv"
        tasks.write_text(
            "id,constituent,pf_size,importance,mandatory\n"
            "90,local,1,1.0,true\n"
            "91,global,1,1.0,true\n"
            "0,individual,3,3.0,false\n"
            "1,individual,4,4.0,false\n"
            "2,individual,5,5.0,false\n"
            "3,individual,6,7.0,false\n")
        model = tmp_path / "model.csv"
        model.write_text("constituent,alpha\nindividual,1.0\nlocal,0.5\nglobal,0.5\n")
        out = tmp_path / "schedule.csv"
        assert cli.main(["budget", "--tasks", str(tasks), "--model", str(model),
                         "--battery", "11.0", "--output", str(out)]) == 0
        body = out.read_text()
        schedule_rows = body.split("\n\n")[0].splitlines()[1:]
        chosen = {int(row.split(",")[1]) for row in schedule_rows}
        assert chosen == {90, 91, 0, 3}

    def test_missing_mandatory_pair_is_validation_error(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.csv"
        tasks.write_text("id,constituent,pf_size,importance,mandatory\n"
                         "1,individual,1,1.0,true\n")
        model = tmp_path / "model.csv"
        model.write_text(self.MODEL)
        code = cli.main(["budget", "--tasks", str(tasks), "--model", str(model),
                         "--battery", "10.0", "--output", str(tmp_path / "s.csv")])
        assert code == 1

    @pytest.mark.parametrize("model, message", [
        ("constituent,alpha\nlocal\n", "malformed model row: 'local'"),
        ("constituent,alpha\nlocal,1e-5\nlocal,2e-5\n", "'local' listed twice"),
    ], ids=["short-row", "duplicate-constituent"])
    def test_malformed_model_is_validation_error(self, tmp_path, capsys, model, message):
        tasks, model_path, out = self._paths(tmp_path)
        (tmp_path / "model.csv").write_text(model)
        code = cli.main(["budget", "--tasks", tasks, "--model", model_path,
                         "--battery", "10.0", "--output", out])
        assert code == 1
        assert message in capsys.readouterr().err


class TestParserReuse:
    """One parser serves every command of a process; no call leaks into the next."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_parser_holds_no_mutable_state(self):
        # What makes reuse safe: no list, dict or set default, no accumulating
        # action, and each subcommand dispatches to its module-level cmd_*.
        parser = cli.build_parser()
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        for name, p in sub.choices.items():
            defaults = [a.default for a in p._actions] + list(p._defaults.values())
            assert not [d for d in defaults if isinstance(d, (list, dict, set))]
            assert not [a for a in p._actions if isinstance(a, argparse._AppendAction)]
            assert p.get_default("func") is getattr(cli, f"cmd_{name}")

    def test_window_does_not_leak_into_the_next_fit(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        rolling, split = tmp_path / "rolling.csv", tmp_path / "split.csv"
        write_trace(str(trace), run(ScenarioConfig()).records)
        assert cli.main(["fit", "--input", str(trace), "--output", str(rolling),
                         "--window", "20"]) == 0
        assert cli.main(["fit", "--input", str(trace), "--output", str(split),
                         "--fit-fraction", "0.7"]) == 0
        capsys.readouterr()
        assert hashlib.sha256(split.read_bytes()).hexdigest() == FIT_REPORT_PINS["split-0.7"][1]

    def test_seed_does_not_leak_into_the_next_simulate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, sample_config())
        seeded, configured = tmp_path / "seeded.csv", tmp_path / "configured.csv"
        assert cli.main(["simulate", "--config", cfg, "--output", str(seeded),
                         "--seed", "5"]) == 0
        assert cli.main(["simulate", "--config", cfg, "--output", str(configured)]) == 0
        out = capsys.readouterr().out
        assert out.index("seed: 5\n") < out.index("seed: 1\n")
        assert hashlib.sha256(configured.read_bytes()).hexdigest() == DEFAULT_TRACE_SHA256
        assert seeded.read_bytes() != configured.read_bytes()

    def test_usage_error_then_valid_command(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--input", "t.csv", "--output", "r.csv", "--window", "abc"])
        assert exc.value.code == 1
        cfg, out = write_cfg(tmp_path, MINIMAL), tmp_path / "trace.csv"
        assert cli.main(["simulate", "--config", cfg, "--output", str(out)]) == 0
        assert len(read_trace(str(out))) == 12

    def test_help_twice_is_identical(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert "simulate" in texts[0] and "budget" in texts[0]


@pytest.mark.parametrize("argv", [
    ["fit", "--input", "t.csv", "--output", "r.csv", "--window", "abc"],
    ["fit", "--input", "t.csv", "--output", "r.csv", "--bogus", "1"],
    ["fit", "--input", "t.csv", "--output", "r.csv", "--delta-t", "1"],
    ["simulate", "--output", "t.csv"],
], ids=["bad-int", "unknown-flag", "removed-delta-t", "missing-config"])
def test_usage_error_exits_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_readme_cli_flags_exist(capsys):
    # Every --flag in README's CLI block is a flag of the command it documents;
    # a comment line documents the command below it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    flags = {}
    for command in ("simulate", "fit", "sweep", "budget"):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        flags[command] = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    documented, command = [], None
    for line in reversed(block.splitlines()):
        if line.startswith("wsnec "):
            command = line.split()[1]
        documented += [(command, flag) for flag in re.findall(r"--[a-z][a-z-]*", line)]
    assert documented
    assert [(c, f) for c, f in documented if f not in flags.get(c, ())] == []


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "wsnec.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout and "budget" in proc.stdout


def test_package_runs_as_a_module(tmp_path):
    cfg = write_cfg(tmp_path, sample_config())
    direct, module = tmp_path / "direct.csv", tmp_path / "module.csv"
    assert cli.main(["simulate", "--config", cfg, "--output", str(direct)]) == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "wsnec", "simulate", "--config", cfg,
                           "--output", str(module)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert module.read_bytes() == direct.read_bytes()
