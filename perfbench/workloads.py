"""The three workloads: inputs made from the seed, one operation, output checks.

Every workload calls wsnec in-process through the functions the CLI uses.
An operation is the unit the closed loop repeats; ``run`` executes one on
input ``i`` and returns the per-kind command latencies (seconds), the output
files written, and whether every exit code was 0.  After the timed section
``work`` gives the work one operation on input ``i`` finished (packet
handlings, or CLI commands), ``check`` verifies that input's outputs and
``named`` computes the workload's own metrics from the samples, a list of
(input, seconds, per-kind seconds).
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
import statistics
import time
from pathlib import Path

import numpy as np

TRACE_COLUMNS = ("b_individual", "b_local", "b_global")
ACTIVE = ("individual", "local", "global")   # the CLI's default fit mask
WINDOW = 20                                  # rolling-fit window, in slices


class _Discard(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


def _cli(w, argv: list[str]) -> tuple[int, float]:
    """One in-process CLI command with its output discarded: (exit code, seconds)."""
    sink = _Discard()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = w.cli.main(argv)
        return code, time.perf_counter() - start


def _p90(values: list[float]) -> float:
    """The 90th percentile (inclusive method); the value itself for one sample."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _rel_close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _csv_blocks(path: Path) -> list[list[list[str]]]:
    """A multi-block CSV report as blocks of split rows (headers included)."""
    blocks: list[list[list[str]]] = [[]]
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            blocks[-1].append(line.split(","))
        elif blocks[-1]:
            blocks.append([])
    return [b for b in blocks if b]


def _trace_rows(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(flows of the active constituents, slice energies) read from a trace CSV."""
    (rows,) = _csv_blocks(path)
    header = rows[0]
    cols = [header.index(c) for c in TRACE_COLUMNS]
    energy = header.index("energy_j")
    flows = np.array([[float(r[c]) for c in cols] for r in rows[1:]])
    return flows, np.array([float(r[energy]) for r in rows[1:]])


def _model_alpha(path: Path) -> dict[str, float]:
    """Coefficients of a fit report's first block, by constituent name."""
    rows = _csv_blocks(path)[0]
    col = rows[0].index("alpha")
    return {r[0]: float(r[col]) for r in rows[1:]}


def sample_config_text(w, **fields) -> str:
    """The text ``sample_config()`` writes, with some ``[sim]`` keys replaced."""
    text = w.config.sample_config()
    for key, value in fields.items():
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, count=1, flags=re.M)
        if n != 1:
            raise RuntimeError(f"sample config has no '{key} = ' line")
    return text


class SweepSample:
    """``wsnec sweep`` on the sample config, in short sweeps of a few runs.

    Input 0 is a sweep with the benchmark seed as its master seed; the other
    inputs use master seeds drawn from it, so one pass averages the per-run
    cost over many sampled parameter sets.
    """

    name = "sweep-sample"

    def __init__(self, w, out: Path, seed: int, tiny: bool):
        self.w, self.out = w, out
        self.runs = 1 if tiny else 4
        self.config = out / "scenario.ini"
        self.config.write_text(w.config.sample_config(), encoding="utf-8")
        rng = random.Random(seed)
        self.seeds = [seed] + [rng.getrandbits(31) for _ in range(1 if tiny else 15)]
        self.inputs = len(self.seeds)

    def output(self, i: int) -> Path:
        return self.out / f"observations-{i}.csv"

    def run(self, i: int):
        code, seconds = _cli(self.w, ["sweep", "--config", str(self.config),
                                      "--output", str(self.output(i)),
                                      "--runs", str(self.runs), "--seed", str(self.seeds[i])])
        return {"sweep": seconds}, [self.output(i)], code == 0

    def work(self, i: int) -> float:
        """Successful packet handlings of input i: the summed flows of its output."""
        obs = self.w.traceio.read_observations(str(self.output(i)), active=(True,) * 5)
        return float(obs.flows.sum())

    def named(self, samples) -> dict:
        busy = sum(s for _, s, _ in samples)
        return {"sweep_runs_per_s": (self.runs * len(samples) / busy, "1/s"),
                "charges_per_s": (sum(self.work(i) for i, _, _ in samples) / busy, "1/s")}

    def check(self, i: int) -> list[str]:
        path = self.output(i)
        tio, ec = self.w.traceio, self.w.energy_core
        obs = tio.read_observations(str(path), active=(True,) * 5)
        problems = []
        if obs.n_obs != self.runs:
            problems.append(f"{path.name}: {obs.n_obs} rows for {self.runs} runs")
        rows = [(run, ec.ConstituentFlowVector(*flows), energy)
                for run, flows, energy in zip(obs.slices, obs.flows, obs.energy)]
        copy = self.out / "roundtrip.csv"
        tio.write_observations(str(copy), rows)
        if copy.read_bytes() != path.read_bytes():
            problems.append(f"{path.name}: does not round-trip through read_observations")
        return problems


class Large1000:
    """The body of ``wsnec simulate`` on 1,000 nodes at the sample density."""

    name = "large-1000"

    def __init__(self, w, out: Path, seed: int, tiny: bool):
        self.w, self.out = w, out
        nodes = 50 if tiny else 1000
        side = round(100.0 * math.sqrt(nodes / 25), 1)   # 25 nodes per 100 m x 100 m
        path = out / "scenario.ini"
        path.write_text(sample_config_text(w, nodes=nodes, area_width=side, area_height=side),
                        encoding="utf-8")
        self.cfg = w.config.load_config(str(path), overrides={"seed": seed})
        self.inputs = 1
        self.result = None

    def output(self, i: int) -> Path:
        return self.out / "trace.csv"

    def run(self, i: int):
        self.result = None     # keep one RunResult alive, as the CLI does
        start = time.perf_counter()
        self.result = self.w.simulator.run(self.cfg)
        self.w.traceio.write_trace(str(self.output(i)), self.result.records)
        return {"simulate": time.perf_counter() - start}, [self.output(i)], True

    def work(self, i: int) -> float:
        """Successful packet handlings: the summed flows of the trace."""
        return float(sum(sum(r.flows.as_tuple()) for r in self.result.records))

    def named(self, samples) -> dict:
        seconds = [s for _, s, _ in samples]
        return {"simulate_s": (statistics.median(seconds), "s"),
                "charges_per_s": (self.work(0) * len(seconds) / sum(seconds), "1/s")}

    def check(self, i: int) -> list[str]:
        result, path, problems = self.result, self.output(i), []
        consumed = result.initial_battery_total - result.final_battery_total
        booked = math.fsum(r.energy_j for r in result.records)
        if not _rel_close(booked, consumed, 1e-9):
            problems.append(f"slice energies {booked!r} J != battery drop {consumed!r} J")
        copy = self.out / "roundtrip.csv"
        self.w.traceio.write_trace(str(copy), self.w.traceio.read_trace(str(path)))
        if copy.read_bytes() != path.read_bytes():
            problems.append(f"{path.name}: does not round-trip through read_trace")
        return problems


def _write_tasks(path: Path, tasks) -> None:
    lines = ["id,constituent,pf_size,importance,mandatory"]
    lines += [f"{i},{c},{pf},{imp!r},{str(m).lower()}" for i, c, pf, imp, m in tasks]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cost(alpha: dict[str, float], tasks) -> float:
    return math.fsum(alpha[c] * pf for _, c, pf, _, _ in tasks)


class FitBudget:
    """Split and rolling fits of 80-slice traces, budgets on generated task lists.

    Each input set holds a sample-scenario trace, the ``fit --fit-fraction
    0.7`` report of that trace as the budget model, a 64-task random list
    and an equal-density list: 16 optional tasks with importance equal to
    their packet-flow size (so proportional to cost) and distinct subset
    sums, which keeps every subset on the exact solver's Pareto frontier.
    """

    name = "fit-budget"
    KINDS = ("fit_split", "fit_rolling", "budget", "budget_adv")

    def __init__(self, w, out: Path, seed: int, tiny: bool):
        self.w, self.out = w, out
        rng = random.Random(seed)
        config = out / "scenario.ini"
        config.write_text(w.config.sample_config(), encoding="utf-8")
        n_sets, n_random, n_equal = (2, 16, 8) if tiny else (8, 64, 16)
        self.sets = []
        trace_seed = seed
        while len(self.sets) < n_sets:
            i = len(self.sets)
            trace, model = out / f"trace-{i}.csv", out / f"model-{i}.csv"
            for argv in (["simulate", "--config", str(config), "--output", str(trace),
                          "--seed", str(trace_seed)],
                         ["fit", "--input", str(trace), "--output", str(model),
                          "--fit-fraction", "0.7"]):
                if _cli(w, argv)[0] != 0:
                    raise RuntimeError(f"setup command failed: wsnec {' '.join(argv)}")
            alpha = _model_alpha(model)
            trace_seed = rng.getrandbits(31)
            if min(alpha.values()) <= 0:
                continue     # a negative least-squares coefficient has no budget meaning
            self.sets.append({"trace": trace, "model": model, "alpha": alpha,
                              "random": self._random_list(rng, alpha, i, n_random),
                              "equal": self._equal_list(rng, alpha, i, n_equal)})
        self.inputs = n_sets

    def _random_list(self, rng, alpha, i, n):
        mandatory = [(0, "local", rng.randint(1, 4), 1.0, True),
                     (1, "global", rng.randint(1, 4), 1.0, True)]
        optional = [(k, rng.choice(ACTIVE), rng.randint(1, 40),
                     round(rng.uniform(0.5, 10.0), 6), False) for k in range(2, n)]
        battery = _cost(alpha, mandatory) + rng.uniform(0.25, 0.5) * _cost(alpha, optional)
        path = self.out / f"tasks-random-{i}.csv"
        _write_tasks(path, mandatory + optional)
        return {"tasks": path, "battery": battery, "mandatory": (0, 1)}

    def _equal_list(self, rng, alpha, i, n):
        # pf = 256 * 2^k + r with sum(r) < 256: the high part names the subset,
        # so all subset sums differ.  The budget leaves half a packet of slack
        # below a subset total, so float rounding cannot decide feasibility.
        sizes = [256 * 2 ** k + rng.randrange(256 // n) for k in range(n)]
        rng.shuffle(sizes)
        mandatory = [(0, "local", 1, 1.0, True), (1, "global", 1, 1.0, True)]
        optional = [(k + 2, "global", pf, float(pf), False) for k, pf in enumerate(sizes)]
        target = int(0.75 * sum(sizes))
        battery = _cost(alpha, mandatory) + alpha["global"] * (target + 0.5)
        path = self.out / f"tasks-equal-{i}.csv"
        _write_tasks(path, mandatory + optional)
        return {"tasks": path, "battery": battery, "mandatory": (0, 1), "sizes": sizes}

    def outputs(self, i: int) -> dict[str, Path]:
        return {kind: self.out / f"{kind}-{i}.csv" for kind in self.KINDS}

    def run(self, i: int):
        s, out = self.sets[i], self.outputs(i)
        commands = {
            "fit_split": ["fit", "--input", str(s["trace"]), "--output", str(out["fit_split"]),
                          "--fit-fraction", "0.7"],
            "fit_rolling": ["fit", "--input", str(s["trace"]), "--output",
                            str(out["fit_rolling"]), "--window", str(WINDOW)],
        }
        for kind, key in (("budget", "random"), ("budget_adv", "equal")):
            commands[kind] = ["budget", "--tasks", str(s[key]["tasks"]), "--model",
                              str(s["model"]), "--battery", repr(s[key]["battery"]),
                              "--output", str(out[kind])]
        seconds, ok = {}, True
        for kind in self.KINDS:
            code, seconds[kind] = _cli(self.w, commands[kind])
            ok = ok and code == 0
        return seconds, list(out.values()), ok

    def work(self, i: int) -> float:
        return float(len(self.KINDS))

    def named(self, samples) -> dict:
        out = {}
        for kind in self.KINDS:
            ms = [k[kind] * 1000.0 for _, _, k in samples]
            out[f"{kind}_ms"] = (statistics.median(ms), "ms")
            out[f"{kind}_ms_p90"] = (_p90(ms), "ms")
        return out

    def check(self, i: int) -> list[str]:
        s, out = self.sets[i], self.outputs(i)
        flows, energy = _trace_rows(s["trace"])
        problems = []

        blocks = _csv_blocks(out["fit_split"])
        alpha = np.array([float(r[1]) for r in blocks[0][1:]])
        if [r[0] for r in blocks[0][1:]] != list(ACTIVE):
            problems.append("split report: unexpected constituents")
        for row in blocks[1][1:]:
            t = int(row[0])
            if float(row[1]) != energy[t] or not _rel_close(float(row[2]), flows[t] @ alpha):
                problems.append(f"split report: slice {t} prediction != flows . alpha")
                break

        blocks = _csv_blocks(out["fit_rolling"])
        windows: dict[int, dict[str, float]] = {}
        for row in blocks[0][1:]:
            windows.setdefault(int(row[0]), {})[row[2]] = float(row[3])
        for row in blocks[1][1:]:
            t = int(row[0])
            alpha = np.array([windows[t - WINDOW][c] for c in ACTIVE])
            if float(row[1]) != energy[t] or not _rel_close(float(row[2]), flows[t] @ alpha):
                problems.append(f"rolling report: slice {t} prediction != flows . alpha")
                break

        for kind, key in (("budget", "random"), ("budget_adv", "equal")):
            problems += self._check_schedule(kind, out[kind], s[key], s["alpha"])
        return problems

    def _check_schedule(self, kind, path, tasks, alpha) -> list[str]:
        listed = {int(r[0]): (int(r[0]), r[1], int(r[2]), float(r[3]), r[4] == "true")
                  for r in _csv_blocks(tasks["tasks"])[0][1:]}
        blocks = _csv_blocks(path)
        chosen = [listed[int(r[1])] for r in blocks[0][1:]]
        summary = dict(zip(blocks[1][0], blocks[1][1]))
        problems = []
        if summary["feasible"] != "true":
            problems.append(f"{path.name}: schedule not feasible")
        if not set(tasks["mandatory"]) <= {t[0] for t in chosen}:
            problems.append(f"{path.name}: a mandatory task is missing")
        if not _cost(alpha, chosen) < tasks["battery"]:
            problems.append(f"{path.name}: schedule does not stay under the budget")
        if "sizes" in tasks:
            mandatory = [listed[k] for k in tasks["mandatory"]]
            capacity = tasks["battery"] - _cost(alpha, mandatory)
            sums = [0]
            for pf in tasks["sizes"]:
                sums += [x + pf for x in sums]
            best = max(x for x in sums if alpha["global"] * x < capacity)
            optimum = best + sum(t[3] for t in mandatory)
            if not _rel_close(float(summary["total_importance"]), optimum):
                problems.append(f"{path.name}: importance {summary['total_importance']} "
                                f"!= brute-force optimum {optimum!r}")
        return problems


WORKLOADS = {cls.name: cls for cls in (SweepSample, Large1000, FitBudget)}
