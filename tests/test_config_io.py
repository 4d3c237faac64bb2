"""Tests for configuration loading/validation and CSV serialization."""

import dataclasses
import math
import re

import pytest

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
from wsnec.energy_core import CoefficientVector, Constituent, ConstituentFlowVector
from wsnec.estimation import ErrorReport, fit_ls
from wsnec.policy import BudgetProblem, TaskDescriptor, select_tasks
from wsnec.simulator import Phase, SliceRecord, run
from wsnec.traceio import (
    TRACE_HEADER,
    observations_from_slices,
    read_coefficients,
    read_observations,
    read_tasks,
    read_trace,
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

    def test_with_overrides_revalidates(self):
        cfg = ScenarioConfig()
        with pytest.raises(ConfigError):
            with_overrides(cfg, r_sense=-1.0)

    def test_sweepable_parameter_listing(self):
        assert "event_rate" in SWEEPABLE and "r_sense" in SWEEPABLE
        assert "nodes" not in SWEEPABLE and "g_tx" not in SWEEPABLE
        assert SWEEPABLE["maintenance_period"] and not SWEEPABLE["r_sense"]


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
        assert cfg.sweep.ranges["event_rate"] == (6.0, 30.0)
        # One "key = value" line per schema key before [sweep], whose ranges
        # reuse some [sim] names: benchmark inputs substitute the first
        # "key = " line of a [sim] key by regex.
        keys = [*config._SIM_SCHEMA, *config._ENERGY_SCHEMA, *config._RADIO_SCHEMA]
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


def test_observations_from_slices_masks_and_annotates():
    records = [
        SliceRecord(0, Phase.COLLECTION, ConstituentFlowVector(1, 2, 3, 0, 0), 0.5, 9),
        SliceRecord(1, Phase.MAINTENANCE, ConstituentFlowVector(4, 5, 6, 0, 0), 0.7, 9),
    ]
    obs = observations_from_slices(records)
    assert obs.flows.shape == (2, 3)
    assert obs.slices == (0, 1)
