"""Smoke test of the benchmark: every workload once, at a tiny size, all checks on.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))
import tracer  # noqa: E402


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_its_checks(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    record = json.loads((ROOT / ".perfbench_out" / "results"
                         / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["environment"]["seed"] == 3 and record["digests"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in metrics.values())
        return
    assert record["trace_info"]["hooks_absent"] == []
    assert record["trace_info"]["observer_errors"] == 0
    if workload == "fit-budget":
        assert all(v == 0 for k, v in metrics.items() if k.startswith("simulator."))
        assert metrics["estimation.fit_ls.calls"] > 0 and metrics["policy.select_tasks.calls"] == 2
        # task_cost is hooked where write_schedule looks it up too
        spans = np.load(ROOT / record["trace_info"]["spans_file"])
        names = list(spans["names"])
        cost = spans["name"] == names.index("policy.task_cost")
        parents = spans["name"][spans["parent"][cost]]
        assert names.index("traceio.write_schedule") in parents
    else:
        handled = metrics["simulator.charge.calls"] - metrics["simulator.charge.refused"]
        assert handled == record["trace_info"]["work_per_op"] > 0
        assert metrics["simulator.ledger_entries"] == handled


def test_absent_hook_reads_as_zero_calls():
    modules = SimpleNamespace(cli=SimpleNamespace(main=lambda argv: 0))
    trace = tracer.Tracer(modules)
    assert len(trace.absent) == len(tracer.HOOKS) - 1
    trace.install()
    try:
        assert modules.cli.main([]) == 0
    finally:
        trace.uninstall()
    metrics = trace.metrics(1, 0.0)
    assert metrics["cli.main.calls"] == (1, "count")
    assert metrics["energy_core.task_energy.calls"] == (0, "count")
    assert metrics["trace.hooks_absent"] == (len(tracer.HOOKS) - 1, "count")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
