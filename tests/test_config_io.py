"""Tests for configuration loading/validation and CSV serialization."""

import dataclasses
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsnec import config
from wsnec.config import (
    SWEEPABLE,
    ConfigError,
    ScenarioConfig,
    SweepConfig,
    load_config,
    sample_config,
    with_overrides,
)
from wsnec.energy_core import BoundaryError, CoefficientVector, Constituent, ConstituentFlowVector
from wsnec.estimation import ErrorReport, fit_ls
from wsnec.policy import BudgetProblem, TaskDescriptor, select_tasks
from wsnec.simulator import Phase, SliceRecord, run
from wsnec.traceio import (
    OBSERVATIONS_HEADER,
    TASKS_HEADER,
    TRACE_HEADER,
    observations_from_slices,
    read_coefficients,
    read_observations,
    read_tasks,
    read_trace,
    read_trace_observations,
    write_observations,
    write_report,
    write_schedule,
    write_trace,
)


# One violation in each of [sim], [energy], [mix] and [radio].
BAD_IN_EVERY_SECTION = ("[sim]\nseed = 1\nnodes = 0\n\n[energy]\np_cpu = -1\n\n"
                        "[radio]\neps_fs = -1\n\n[mix]\nlocal = 1, 1, 1, 1, -1\n")


class TestScenarioConfig:
    def test_defaults_are_valid(self):
        ScenarioConfig()

    def test_boundary_violation_cites_constraint(self):
        with pytest.raises(ConfigError, match=r"r_sense > 0"):
            ScenarioConfig(r_sense=0.0)

    def test_all_violations_reported_at_once(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(r_sense=0.0, g_sense=-1.0, nodes=0, initial_battery=0.0)
        text = str(exc.value)
        for fragment in ("r_sense > 0", "g_sense >= 0", "nodes >= 1", "initial_battery > 0"):
            assert fragment in text
        assert len(exc.value.violations) == 4

    def test_sink_outside_area_rejected(self):
        with pytest.raises(ConfigError, match="outside area"):
            ScenarioConfig(sink_x=200.0)

    def test_total_slices_must_cover_init(self):
        with pytest.raises(ConfigError, match="init_slices"):
            ScenarioConfig(init_slices=10, total_slices=5)

    def test_sweep_ranges_validated(self):
        with pytest.raises(ConfigError, match="not sweepable"):
            ScenarioConfig(sweep=SweepConfig(ranges={"nodes": (1, 5)}))
        with pytest.raises(ConfigError, match="r_sense > 0"):
            ScenarioConfig(sweep=SweepConfig(ranges={"r_sense": (0.0, 5.0)}))
        with pytest.raises(ConfigError, match="low <= high"):
            ScenarioConfig(sweep=SweepConfig(ranges={"r_sense": (5.0, 1.0)}))
        ScenarioConfig(sweep=SweepConfig(ranges={"r_sense": (1.0, 5.0)}))
        # Integer parameters are drawn with randint(int(low), int(high)), which
        # would put every run outside a range with a fractional end.
        for name, ends in (("warmup_packets", (0.5, 0.9)), ("monitor_period", (2.5, 2.7)),
                           ("maintenance_period", (4.0, 16.5))):
            with pytest.raises(ConfigError, match=f"integer {name} needs whole-number ends"):
                ScenarioConfig(sweep=SweepConfig(ranges={name: ends}))
        ScenarioConfig(sweep=SweepConfig(ranges={"maintenance_period": (4.0, 16.0)}))

    def test_a_scenario_with_a_sweep_hashes(self):
        mapped = ScenarioConfig(sweep=SweepConfig(runs=3, ranges={"r_tx": (24.0, 40.0)}))
        pairs = ScenarioConfig(sweep=SweepConfig(runs=3, ranges=[("r_tx", (24.0, 40.0))]))
        assert hash(mapped) == hash(pairs) and mapped == pairs
        sweep = SweepConfig(ranges={"r_tx": (24.0, 40.0), "event_rate": (6.0, 30.0)})
        assert sweep.ranges == (("event_rate", (6.0, 30.0)), ("r_tx", (24.0, 40.0)))

    @pytest.mark.parametrize("name, value", [
        ("nodes", 2.5), ("warmup_packets", 1.5), ("total_slices", 4.5), ("nodes", 3.0),
        ("init_slices", 1.0), ("bits_per_packet", 1024.5), ("maintenance_period", 8.0),
        ("repair_radius_hops", 0.5), ("monitor_period", 10.0),
    ])
    def test_integer_fields_take_only_integers(self, name, value):
        # A whole or fractional float passes the boundary; run would then
        # fail with a TypeError of range() instead of a ConfigError.
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(**{name: value})
        assert exc.value.violations == [f"parameter {name} must be an integer (got {value!r})"]
        with_overrides(ScenarioConfig(), **{name: int(value)})

    def test_a_float_outside_its_boundary_keeps_the_boundary_message(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(nodes=0.5, warmup_packets=1.5)
        assert exc.value.violations == [
            "parameter boundary nodes >= 1 violated (got 0.5)",
            "parameter warmup_packets must be an integer (got 1.5)"]

    @pytest.mark.parametrize("kwargs, violation", [
        ({"seed": 1.5}, "parameter seed must be an integer (got 1.5)"),
        ({"seed": 2.0}, "parameter seed must be an integer (got 2.0)"),
        ({"seed": math.inf}, "parameter seed must be an integer (got inf)"),
        ({"sweep": SweepConfig(runs=2.5)}, "parameter runs must be an integer (got 2.5)"),
        ({"sweep": SweepConfig(runs=3.0)}, "parameter runs must be an integer (got 3.0)"),
    ])
    def test_seed_and_sweep_runs_take_only_integers(self, kwargs, violation):
        # cmd_sweep's range(runs) would raise a TypeError, and a float seed
        # would seed random.Random from its hash.
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(**kwargs)
        assert exc.value.violations == [violation]

    def test_a_float_seed_or_run_count_below_its_boundary_keeps_the_boundary_message(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(seed=-1.5, sweep=SweepConfig(runs=0.5))
        assert exc.value.violations == ["parameter boundary seed >= 0 violated (got -1.5)",
                                        "sweep runs must be >= 1 (got 0.5)"]

    @pytest.mark.parametrize("kwargs, violation", [
        ({"area_width": 10 ** 400},
         f"parameter boundary area_width > 0 violated (got {10 ** 400!r})"),
        ({"sweep": SweepConfig(ranges={"maintenance_period": (4, 10 ** 400)})},
         "sweep range for maintenance_period must be low:high with low <= high "
         f"(got 4:{10 ** 400!r})"),
    ], ids=["float-field", "sweep-range-end"])
    def test_an_int_past_float_range_is_a_violation_like_inf(self, kwargs, violation):
        # float() of such an int raises OverflowError; it is never converted.
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig(**kwargs)
        assert exc.value.violations == [violation]

    def test_with_overrides_revalidates(self):
        cfg = ScenarioConfig()
        with pytest.raises(ConfigError):
            with_overrides(cfg, r_sense=-1.0)

    def test_sweepable_parameter_listing(self):
        assert "event_rate" in SWEEPABLE and "r_sense" in SWEEPABLE
        assert "nodes" not in SWEEPABLE and "g_tx" not in SWEEPABLE
        assert SWEEPABLE["maintenance_period"] and not SWEEPABLE["r_sense"]

    def test_every_numeric_field_declares_its_boundary(self):
        # seed has its own check (it takes any int >= 0, past float range too), and the
        # sink is checked against the area.
        numeric = {f.name for f in dataclasses.fields(ScenarioConfig)
                   if type(f.default) in (int, float)}
        assert set(config._BOUNDS) == numeric - {"seed", "sink_x", "sink_y"}
        assert SWEEPABLE == {"event_rate": False, "r_sense": False, "g_sense": False,
                             "r_tx": False, "initial_battery": False, "maintenance_period": True,
                             "monitor_period": True, "warmup_packets": True}


class TestLoadConfig:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "min.ini"
        path.write_text("[sim]\nseed = 7\nnodes = 4\n")
        cfg = load_config(str(path))
        assert cfg.seed == 7 and cfg.nodes == 4
        assert cfg.r_tx == ScenarioConfig().r_tx   # defaults fill the rest

    def test_sample_config_round_trips(self, tmp_path):
        path = tmp_path / "sample.ini"
        text = sample_config()
        path.write_text(text)
        cfg = load_config(str(path))
        assert cfg == dataclasses.replace(
            ScenarioConfig(), sweep=cfg.sweep)   # sweep section is extra
        assert cfg.sweep is not None and cfg.sweep.runs == 50
        assert dict(cfg.sweep.ranges)["event_rate"] == (6.0, 30.0)
        # One "key = value" line per schema key before [sweep], whose ranges
        # reuse some [sim] names: benchmark inputs substitute the first
        # "key = " line of a [sim] key by regex.
        keys = [*config._SCHEMAS["sim"], *config._SCHEMAS["energy"], *config._SCHEMAS["radio"]]
        assert len(keys) == len(set(keys))
        head = text[:text.index("[sweep]")]
        for key in keys:
            assert len(re.findall(rf"^{key} = ", head, flags=re.M)) == (key != "d0"), key
        assert "[flows.probabilities]" not in text

    def test_missing_required_keys(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sim]\nnodes = 4\n")
        with pytest.raises(ConfigError, match="seed"):
            load_config(str(path))

    def test_negative_seed_rejected(self, tmp_path):
        # random.Random seeds with |seed|, so -5 would replay seed 5.
        path = tmp_path / "seed.ini"
        path.write_text("[sim]\nseed = -5\nnodes = 4\n")
        with pytest.raises(ConfigError, match=r"seed >= 0 violated \(got -5\)"):
            load_config(str(path))
        path.write_text(f"[sim]\nseed = {10 ** 400}\nnodes = 4\n")
        assert load_config(str(path)).seed == 10 ** 400   # never made a float

    @pytest.mark.parametrize("name", [
        "bits_per_packet", "init_slices", "maintenance_period", "monitor_period", "nodes",
        "repair_radius_hops", "total_slices", "warmup_packets"])
    def test_an_integer_past_float_range_is_a_violation(self, tmp_path, name):
        assert name in config._INTEGERS
        keys = {"seed": 1, "nodes": 2, name: 10 ** 400}
        path = tmp_path / "huge.ini"
        path.write_text("[sim]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()))
        op, threshold = config._BOUNDS[name]
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert exc.value.violations[0] == (
            f"parameter boundary {name} {op} {threshold} violated (got {10 ** 400})")

    def test_seed_override_satisfies_requirement(self, tmp_path):
        path = tmp_path / "noseed.ini"
        path.write_text("[sim]\nnodes = 4\n")
        cfg = load_config(str(path), overrides={"seed": 3})
        assert cfg.seed == 3

    def test_unknown_key_and_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sim]\nseed = 1\nnodes = 2\nbogus = 3\ng_tx = 0.01\n"
                        "epochs = 2\nmaintenance_slices = 2\n\n[nope]\nx = 1\n")
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert "bogus" in str(exc.value) and "[nope]" in str(exc.value)
        for key in ("g_tx", "epochs", "maintenance_slices"):
            assert f"[sim] unknown key {key!r}" in exc.value.violations
        with pytest.raises(TypeError):
            ScenarioConfig(epochs=2)
        sample_keys = {line.split(" = ")[0] for line in sample_config().splitlines()}
        assert not sample_keys & {"epochs", "maintenance_slices"}

    def test_boundary_violation_from_file(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sim]\nseed = 1\nnodes = 2\nr_sense = 0\n")
        with pytest.raises(ConfigError, match=r"r_sense > 0"):
            load_config(str(path))

    def test_every_section_is_checked_at_once(self, tmp_path):
        # Each sub-model reports its first violation, and the [sim] checks run
        # even though the sub-models failed.
        path = tmp_path / "bad.ini"
        path.write_text(BAD_IN_EVERY_SECTION)
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert len(exc.value.violations) == 4
        for boundary in ("nodes >= 1", "p_cpu >= 0", "mix[local][sens] >= 0", "eps_fs > 0"):
            assert sum(boundary in v for v in exc.value.violations) == 1, boundary

    def test_type_errors_reported(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sim]\nseed = x\nnodes = 2\n")
        with pytest.raises(ConfigError, match="expected int"):
            load_config(str(path))

    def test_energy_and_mix_sections(self, tmp_path):
        path = tmp_path / "full.ini"
        path.write_text(
            "[sim]\nseed = 1\nnodes = 2\n\n"
            "[energy]\np_cpu = 1e-6\n\n"
            "[mix]\nindividual = 2, 0, 0, 1, 1\n")
        cfg = load_config(str(path))
        assert cfg.profile.p_cpu == 1e-6
        assert cfg.profile.p_tx == ScenarioConfig().profile.p_tx
        assert cfg.mix.row(Constituent.INDIVIDUAL) == (2.0, 0.0, 0.0, 1.0, 1.0)

    def test_probability_section_rejected(self, tmp_path):
        path = tmp_path / "prob.ini"
        path.write_text("[sim]\nseed = 1\nnodes = 2\n\n[flows.probabilities]\np_cap = 0.3\n")
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert exc.value.violations == ["unknown section [flows.probabilities]"]

    def test_fractional_integer_sweep_range_from_file(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sim]\nseed = 1\nnodes = 2\n\n[sweep]\nwarmup_packets = 0.5:0.9\n")
        with pytest.raises(ConfigError, match="integer warmup_packets needs whole-number ends"):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/thing.ini")

    SIM = "[sim]\nseed = 1\nnodes = 2\n"
    SWEEP_CHOICES = ("(choose from ['event_rate', 'g_sense', 'initial_battery', "
                     "'maintenance_period', 'monitor_period', 'r_sense', 'r_tx', "
                     "'warmup_packets'])")

    @pytest.mark.parametrize("text, violations", [
        pytest.param(
            "[sweep]\nruns = 0\nevent_rate = q:1\nr_tx = 5:1\nbogus = 1:2\n\n"
            "[radio]\neps_fs = x\neps_mp = -1\n\n"
            "[mix]\nindividual = 1, 2\nlocal = 1, 1, 1, 1, -1\nother = 1, 1, 1, 1, 1\n\n"
            "[bogus]\nx = 1\n\n[energy]\np_cpu = -1\np_tx = y\n\n[sim]\nnodes = 2\nwidget = 3\n",
            ["unknown section [bogus]",
             "[sim] unknown key 'widget'",
             "[sim] missing required key 'seed'",
             "[energy] p_tx: expected float, got 'y'",
             "[radio] eps_fs: expected float, got 'x'",
             "[mix] individual: expected 5 weights, got 2",
             "[mix] unknown key 'other'",
             "[sweep] event_rate: expected float, got 'q'",
             f"[sweep] unknown parameter 'bogus' {SWEEP_CHOICES}",
             "parameter boundary p_cpu >= 0 violated (got -1.0)",
             "parameter boundary mix[local][sens] >= 0 violated (got -1.0)",
             "parameter boundary eps_mp > 0 violated (got -1.0)",
             "sweep runs must be >= 1 (got 0)",
             "sweep range for r_tx must be low:high with low <= high (got 5.0:1.0)"],
            id="every-section-out-of-order"),
        pytest.param(SIM + "[sweep]\nnodes = 1:5\n",
                     [f"[sweep] unknown parameter 'nodes' {SWEEP_CHOICES}"], id="sweep-nodes"),
        pytest.param(SIM + "[sweep]\nr_tx = a:b\n",
                     ["[sweep] r_tx: expected float, got 'a'",
                      "[sweep] r_tx: expected float, got 'b'"], id="sweep-both-ends"),
        pytest.param(SIM + "[sweep]\nr_tx = 1\n",
                     ["[sweep] r_tx: expected low:high, got '1'"], id="sweep-one-end"),
        pytest.param(SIM + "[sweep]\nruns = x\n",
                     ["[sweep] runs: expected int, got 'x'"], id="sweep-runs"),
        pytest.param(SIM + "[mix]\nlocal = 1,2\nglobal = a,b,c,d,e\n",
                     ["[mix] local: expected 5 weights, got 2",
                      "[mix] global: weights must be numbers, got 'a,b,c,d,e'"], id="mix"),
        pytest.param(SIM + "monitoring = maybe\n",
                     ["[sim] monitoring: expected bool, got 'maybe'"], id="sim-bool"),
        pytest.param("[DEFAULT]\nseed = 1\n\n[sim]\nnodes = 2\n",
                     ["unknown section [DEFAULT]", "[sim] missing required key 'seed'"],
                     id="default-section"),
        pytest.param("[DEFAULT]\nseed = 1\n\n[sim]\nnodes = 2\n\n[energy]\np_cpu = 1e-5\n",
                     ["unknown section [DEFAULT]", "[sim] missing required key 'seed'"],
                     id="default-section-beside-energy"),
    ])
    def test_violation_lists(self, tmp_path, text, violations):
        # Whole lists, in order: unknown sections, then each section's keys
        # ([sim], [energy], [radio], [mix], [sweep]), then the sub-models'
        # first violations, then the scenario's own checks.
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert exc.value.violations == violations

    def test_sweep_range_violations_come_in_name_order(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(self.SIM + "[sweep]\nr_tx = 5:1\nevent_rate = 2:1\n")
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert exc.value.violations == [
            f"sweep range for {name} must be low:high with low <= high (got {ends})"
            for name, ends in (("event_rate", "2.0:1.0"), ("r_tx", "5.0:1.0"))]


class TestTraceRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        result = run(dataclasses.replace(ScenarioConfig(), total_slices=12))
        path = tmp_path / "trace.csv"
        write_trace(str(path), result.records)
        loaded = read_trace(str(path))
        assert loaded == result.records

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("slice,phase,nope\n")
        with pytest.raises(ValueError, match="header"):
            read_trace(str(path))

    def test_monotone_slice_indices_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [TRACE_HEADER,
                "1,collection,0.0,0.0,0.0,0.0,0.0,1.0,3",
                "1,collection,0.0,0.0,0.0,0.0,0.0,1.0,3"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="increase"):
            read_trace(str(path))

    def test_written_bytes_are_deterministic(self, tmp_path):
        cfg = dataclasses.replace(ScenarioConfig(), total_slices=10)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(str(p1), run(cfg).records)
        write_trace(str(p2), run(cfg).records)
        assert p1.read_bytes() == p2.read_bytes()


class TestObservationsRoundTrip:
    def test_round_trip(self, tmp_path):
        rows = [(0, ConstituentFlowVector(1.5, 2.0, 3.25, 0, 0), 0.125),
                (1, ConstituentFlowVector(2.5, 1.0, 4.0, 0, 0), 0.25)]
        path = tmp_path / "obs.csv"
        write_observations(str(path), rows)
        obs = read_observations(str(path))
        assert obs.n_obs == 2 and obs.n_constituents == 3
        assert obs.flows[0].tolist() == [1.5, 2.0, 3.25]
        assert obs.energy.tolist() == [0.125, 0.25]


class TestReportAndModel:
    def _fit(self):
        import numpy as np
        rng = np.random.default_rng(3)
        b = rng.uniform(1, 50, size=(40, 3))
        e = b @ np.array([1e-4, 2e-4, 3e-4])
        from wsnec.estimation import ObservationSet
        return fit_ls(ObservationSet(b, e, (True, True, True, False, False)))

    def test_report_coefficients_round_trip(self, tmp_path):
        fit = self._fit()
        path = tmp_path / "report.csv"
        errors = ErrorReport((1.0, -2.0), 1.5, 2.0)
        write_report(str(path), fit, [(0, 10.0, 10.1), (1, 20.0, 19.6)],
                     errors, Constituent.GLOBAL)
        loaded = read_coefficients(str(path))
        assert loaded.active == (True, True, True, False, False)
        assert loaded.alpha == pytest.approx(fit.coefficients.alpha, rel=1e-12)
        text = path.read_text()
        assert "mape_pct,max_abs_pct_error,dominant_constituent" in text
        assert text.rstrip().splitlines()[-1].endswith("global")

    def test_bare_model_file(self, tmp_path):
        path = tmp_path / "model.csv"
        path.write_text("constituent,alpha\nlocal,0.5\nglobal,1.5\n")
        loaded = read_coefficients(str(path))
        assert loaded.active == (False, True, True, False, False)
        assert loaded.get(Constituent.GLOBAL) == 1.5

    @pytest.mark.parametrize("text", ["", "\n", "\n   \n\t\n \n"],
                             ids=["empty", "one-blank", "whitespace-only"])
    def test_blank_model_file_is_empty(self, tmp_path, text):
        path = tmp_path / "model.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="^empty model file$"):
            read_coefficients(str(path))

    def test_only_the_first_block_is_read(self, tmp_path):
        # Blank and whitespace-only lines before it and between the later
        # blocks; the later blocks would be rejected if they were read.
        path = tmp_path / "model.csv"
        path.write_text("\n  \n\t\nconstituent,alpha\nlocal,0.5\nglobal,1.5\n \n\n"
                        "constituent,alpha\nindividual,9.0\nlocal,9.0\n\t\n"
                        "slice,observed_j\nsnk,1\n")
        loaded = read_coefficients(str(path))
        assert loaded == CoefficientVector((0.0, 0.5, 1.5, 0.0, 0.0),
                                           (False, True, True, False, False))


class TestTasksAndSchedule:
    def test_tasks_round_trip_and_schedule(self, tmp_path):
        tasks_path = tmp_path / "tasks.csv"
        tasks_path.write_text(
            "id,constituent,pf_size,importance,mandatory\n"
            "1,local,2,1.0,true\n"
            "2,global,3,2.0,true\n"
            "3,individual,4,5.0,false\n")
        tasks = read_tasks(str(tasks_path))
        assert len(tasks) == 3 and tasks[0].mandatory and not tasks[2].mandatory
        alpha = CoefficientVector((1.0, 1.0, 1.0, 0, 0), (True, True, True, False, False))
        result = select_tasks(BudgetProblem(tuple(tasks), alpha, 100.0))
        out = tmp_path / "sched.csv"
        write_schedule(str(out), result, alpha)
        text = out.read_text()
        assert "order,task_id,constituent" in text
        assert "feasible,method" in text
        assert "constraint,satisfied" in text

    def test_bad_task_rows(self, tmp_path):
        path = tmp_path / "tasks.csv"
        path.write_text("id,constituent,pf_size,importance,mandatory\n1,quantum,1,1.0,true\n")
        with pytest.raises(ValueError, match="constituent"):
            read_tasks(str(path))
        path.write_text("id,constituent,pf_size,importance,mandatory\n1,local,1,1.0,maybe\n")
        with pytest.raises(ValueError, match="mandatory"):
            read_tasks(str(path))


# Each CSV reader's messages, exactly: a wrong header, a row of the wrong
# width, and the first problem in row order when a row that fails another
# check comes before a row of the wrong width, and after it.
READER_TRACE_ROWS = (TRACE_HEADER, "0,collection,1.0,2.0", "1,collection,0.0,0.0,0.0,0.0,0.0,1.0,3",
                     "1,nope,0.0,0.0,0.0,0.0,0.0,1.0,3", "slice indices must increase (got 1 after 1)")
READER_MESSAGES = {
    "trace": (read_trace, *READER_TRACE_ROWS),
    "trace to arrays": (read_trace_observations, *READER_TRACE_ROWS),
    "observations": (read_observations, OBSERVATIONS_HEADER, "0,1.0,2.0",
                     "0,1.0,2.0,3.0,0.0,0.0,0.5", "x,1.0,2.0,3.0,0.0,0.0,0.5",
                     "invalid literal for int() with base 10: 'x'"),
    "task file": (read_tasks, TASKS_HEADER, "1,local,2",
                  "1,local,2,1.0,true", "2,quantum,2,1.0,true",
                  "unknown constituent 'quantum' in task row"),
}
# (file noun, row noun) of each reader's messages; the fit path's reader reads traces.
NOUNS = {"trace": ("trace", "trace"), "trace to arrays": ("trace", "trace"),
         "observations": ("observations", "observation"), "task file": ("task file", "task")}


class TestReaderMessages:
    def _error(self, tmp_path, what, lines):
        path = tmp_path / "input.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            READER_MESSAGES[what][0](str(path))
        return str(exc.value)

    @pytest.mark.parametrize("what", READER_MESSAGES)
    def test_header(self, tmp_path, what):
        header = READER_MESSAGES[what][1]
        for lines in ([], [header + ",extra"], [header.upper()]):
            assert self._error(tmp_path, what, lines) == (
                f"{NOUNS[what][0]} header must be exactly {header!r}")

    @pytest.mark.parametrize("what", READER_MESSAGES)
    def test_row_width(self, tmp_path, what):
        _, header, short, valid, *_ = READER_MESSAGES[what]
        for row in (short, valid + ",1", valid + ","):
            assert self._error(tmp_path, what, [header, valid, row]) == (
                f"malformed {NOUNS[what][1]} row: {row!r}")

    @pytest.mark.parametrize("what", READER_MESSAGES)
    def test_first_problem_in_row_order(self, tmp_path, what):
        _, header, short, valid, bad, message = READER_MESSAGES[what]
        assert self._error(tmp_path, what, [header, valid, bad, short]) == message
        assert self._error(tmp_path, what, [header, valid, short, bad]) == (
            f"malformed {NOUNS[what][1]} row: {short!r}")


FLOW_NAMES = ("b_individual", "b_local", "b_global", "b_environment", "b_snk")
# Each way to spoil one trace row: (its new fields from the old ones and the
# previous row's index, the error class and message it must give).
SPOILS = {
    "short": (lambda f, prev: f[:-1], ValueError, lambda f, new: f"malformed trace row: {','.join(new)!r}"),
    "long": (lambda f, prev: f + ["1"], ValueError, lambda f, new: f"malformed trace row: {','.join(new)!r}"),
    "index": (lambda f, prev: [str(prev)] + f[1:], ValueError,
              lambda f, new: f"slice indices must increase (got {new[0]} after {new[0]})"),
    "phase": (lambda f, prev: f[:1] + ["nope"] + f[2:], ValueError, lambda f, new: "unknown phase 'nope'"),
    **{f"flow-{text}-{c}": (lambda f, prev, c=c, text=text: f[:2 + c] + [text] + f[3 + c:], BoundaryError,
                             lambda f, new, c=c, text=text:
                             f"parameter boundary {FLOW_NAMES[c]} >= 0 violated (got {float(text)!r})")
       for text in ("-1.5", "nan", "inf") for c in (0, 2, 4)},
    "energy-text": (lambda f, prev: f[:7] + ["x"] + f[8:], ValueError,
                    lambda f, new: "could not convert string to float: 'x'"),
    "energy-nan": (lambda f, prev: f[:7] + ["nan"] + f[8:], ValueError,
                   lambda f, new: "observations must be finite"),
    "alive-float": (lambda f, prev: f[:8] + ["3.0"], ValueError,
                    lambda f, new: "invalid literal for int() with base 10: '3.0'"),
}


def _outcome(read):
    """What a reader gives: the arrays' dtype, shape, C-contiguity and bytes with the
    labels and mask, or the class and message of what it raises."""
    try:
        obs = read()
    except ValueError as exc:
        return type(exc), str(exc)
    return ([(a.dtype, a.shape, a.flags["C_CONTIGUOUS"], a.tobytes()) for a in (obs.flows, obs.energy)],
            obs.slices, obs.active)


class TestTraceToArrays:
    """``read_trace_observations`` against ``observations_from_slices(read_trace(path), mask)``,
    and both against the error each spoiled row must give."""

    flow = st.one_of(st.just(0.0), st.just(-0.0), st.integers(0, 10 ** 6).map(float),
                     st.floats(0.0, allow_infinity=False))

    @settings(max_examples=400, deadline=None)
    @given(indices=st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=30, unique=True).map(sorted),
           data=st.data(),
           mask=st.tuples(*[st.booleans()] * 5).filter(any))
    def test_same_arrays_or_same_error(self, indices, data, mask):
        records = [SliceRecord(i, data.draw(st.sampled_from(Phase)),
                               ConstituentFlowVector(*data.draw(st.tuples(*[self.flow] * 5))),
                               data.draw(st.floats(allow_nan=False, allow_infinity=False)),
                               data.draw(st.integers(0, 10 ** 4)))
                   for i in indices]
        spoil = data.draw(st.sampled_from([None, "header", *SPOILS]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            write_trace(str(path), records)
            lines = path.read_text().splitlines()
            expected = None
            if spoil == "header":
                lines[0] = lines[0].upper()
                expected = (ValueError, f"trace header must be exactly {TRACE_HEADER!r}")
            elif spoil is not None and len(records) > (spoil == "index"):
                row = data.draw(st.integers(spoil == "index", len(records) - 1))
                fields = lines[row + 1].split(",")
                change, error, message = SPOILS[spoil]
                new = change(fields, records[row - 1].index)
                lines[row + 1] = ",".join(new)
                expected = (error, message(fields, new))
            path.write_text("\n".join(lines) + "\n")
            got = _outcome(lambda: read_trace_observations(str(path), mask))
            reference = _outcome(lambda: observations_from_slices(read_trace(str(path)), mask))
        assert got == reference
        if expected is None:   # C-ordered arrays, which the solve needs
            assert [contiguous for _, _, contiguous, _ in got[0]] == [True, True]
        else:
            assert got == expected


def test_observations_from_slices_masks_and_annotates():
    records = [
        SliceRecord(0, Phase.COLLECTION, ConstituentFlowVector(1, 2, 3, 0, 0), 0.5, 9),
        SliceRecord(1, Phase.MAINTENANCE, ConstituentFlowVector(4, 5, 6, 0, 0), 0.7, 9),
    ]
    obs = observations_from_slices(records)
    assert obs.flows.shape == (2, 3)
    assert obs.slices == (0, 1)
