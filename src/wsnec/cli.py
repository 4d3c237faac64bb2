"""Command-line surface: simulate, fit, sweep, budget.

Every command is deterministic given its inputs and seed; exit code 0 on
success, 1 on validation and usage errors, 2 on infeasibility or rank errors.
The parser is built once per process, on the first ``main`` call, and reused:
no argument has a mutable default or accumulates, so one parse leaves nothing
for the next.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from dataclasses import replace

import numpy as np

from . import estimation, policy, simulator, traceio
from .config import SWEEPABLE, load_config, with_overrides
from .energy_core import CONSTITUENT_ORDER, Constituent, ConstituentFlowVector, bound

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2

_MASK_NAMES = {c.value: i for i, c in enumerate(CONSTITUENT_ORDER)}


def _parse_mask(text: str) -> tuple[bool, ...]:
    mask = [False] * 5
    for name in text.split(","):
        name = name.strip().lower()
        if name not in _MASK_NAMES:
            raise ValueError(f"unknown constituent {name!r} in mask "
                             f"(choose from {', '.join(_MASK_NAMES)})")
        mask[_MASK_NAMES[name]] = True
    return tuple(mask)


def _dominant(fit: estimation.FitResult, obs: estimation.ObservationSet) -> Constituent:
    """Constituent with the largest fitted alpha x total-flow energy share."""
    totals = obs.flows.sum(axis=0)
    actives = fit.coefficients.active_constituents()
    shares = [fit.coefficients.get(c) * t for c, t in zip(actives, totals)]
    return actives[int(np.argmax(shares))]


def _score(predictions: list[tuple[int, float, float]]) -> estimation.ErrorReport:
    """Percentage errors of (slice, observed, predicted) rows; prints the unscored count."""
    errors = estimation.error_report([p for _, _, p in predictions],
                                     [o for _, o, _ in predictions])
    excluded = np.isnan(errors.pct_errors).sum()
    if excluded:
        print(f"excluded from scoring: {excluded}")
    return errors


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, overrides=_seed_override(args))
    result = simulator.run(cfg)
    traceio.write_trace(args.output, result.records)
    consumed = result.initial_battery_total - result.final_battery_total
    print(f"seed: {cfg.seed}")
    print(f"slices: {len(result.records)}  alive nodes: {result.records[-1].alive_nodes}/{cfg.nodes}")
    print(f"energy consumed: {consumed:.6g} J  delivered: {result.delivered}  "
          f"dropped: {result.dropped}")
    print(f"trace written to {args.output}")
    return EXIT_OK


def cmd_fit(args) -> int:
    bound(0 < args.fit_fraction <= 1, "0 < fit_fraction <= 1", args.fit_fraction)
    bound(args.window is None or args.fit_fraction == 1, "fit_fraction = 1 with --window", args.fit_fraction)
    mask = _parse_mask(args.mask)
    obs = traceio.read_trace_observations(args.input, mask)

    if args.window is not None:
        rolling = estimation.rolling_fit(obs, args.window)
        predictions = [(obs.slices[t], float(obs.energy[t]), p) for t, p in rolling.predictions]
        print(f"windows fitted: {len(rolling.fits)}  skipped: {len(rolling.skipped)}")
        errors = _score(predictions)
        traceio.write_rolling_report(args.output, rolling, predictions, errors)
        if not np.isnan(errors.mape):
            print(f"one-step MAPE: {errors.mape:.3f}%  max: {errors.max_abs_pct:.3f}%")
        print(f"report written to {args.output}")
        return EXIT_OK

    split = obs.n_obs if args.fit_fraction >= 1.0 else max(1, int(obs.n_obs * args.fit_fraction))
    fit = estimation.fit_ls(obs.rows(0, split))
    scored = obs if args.fit_fraction >= 1.0 else obs.rows(split, obs.n_obs)
    predicted = estimation.predict_rows(fit.coefficients, scored)
    predictions = [(idx, float(o), float(p))
                   for idx, o, p in zip(scored.slices, scored.energy, predicted)]
    dominant = _dominant(fit, obs)
    print(f"fit on {split} slices, scored {scored.n_obs}")
    errors = _score(predictions)
    traceio.write_report(args.output, fit, predictions, errors, dominant)
    print(f"MAPE: {errors.mape:.3f}%  max: {errors.max_abs_pct:.3f}%  "
          f"dominant constituent: {dominant.value}")
    print(f"report written to {args.output}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, overrides=_seed_override(args))
    if args.runs is not None:
        cfg = replace(cfg, sweep=replace(cfg.sweep, runs=args.runs))
    master = random.Random(cfg.seed)
    rows = []
    for run_index in range(cfg.sweep.runs):
        sampled = {}
        for name, (low, high) in cfg.sweep.ranges:
            if SWEEPABLE[name]:
                sampled[name] = master.randint(int(low), int(high))
            else:
                sampled[name] = master.uniform(low, high)
        run_seed = master.getrandbits(32)
        run_cfg = with_overrides(cfg, seed=run_seed, **sampled)
        result = simulator.run(run_cfg)
        # Integer-valued flows, so the plain sums are exact.
        total = ConstituentFlowVector(*map(sum, zip(*(rec.flows.as_tuple()
                                                     for rec in result.records))))
        rows.append((run_index, total, result.ledger_total))
    traceio.write_observations(args.output, rows)
    print(f"sweep: {cfg.sweep.runs} runs, master seed {cfg.seed}")
    print(f"observations written to {args.output}")
    return EXIT_OK


def cmd_budget(args) -> int:
    tasks = traceio.read_tasks(args.tasks)
    coefficients = traceio.read_coefficients(args.model)
    problem = policy.BudgetProblem(tuple(tasks), coefficients, args.battery,
                                   enforce_positivity=not args.no_positivity)
    result = policy.select_tasks(problem)
    traceio.write_schedule(args.output, result, coefficients)
    print(f"tasks: {len(tasks)}  selected: {len(result.scheduled)}  method: {result.method}")
    print(f"total cost: {result.total_cost:.6g} J of {args.battery:.6g} J  "
          f"importance: {result.total_importance:.6g}")
    if not result.feasible:
        print("infeasible: " + ", ".join(result.failed_constraints), file=sys.stderr)
    print(f"schedule written to {args.output}")
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _seed_override(args) -> dict | None:
    return {"seed": args.seed} if args.seed is not None else None


class _Parser(argparse.ArgumentParser):
    """Exits 1 on usage errors, as on other validation errors; subcommands share it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wsnec",
        description="Constituent-based energy accounting for sensor networks: "
                    "simulate traces, fit the linear energy model, sweep scenarios, "
                    "schedule tasks under an energy budget.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and write its trace CSV")
    p.add_argument("--config", required=True, help="scenario INI file")
    p.add_argument("--output", required=True, help="trace CSV to write")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit coefficients from a trace and write a report")
    p.add_argument("--input", required=True, help="trace CSV")
    p.add_argument("--output", required=True, help="report CSV to write")
    p.add_argument("--mask", default="individual,local,global",
                   help="active constituents, comma-separated")
    p.add_argument("--window", type=int, help="rolling-refit window length (slices)")
    p.add_argument("--fit-fraction", type=float, default=1.0,
                   help="without --window: fit on this leading fraction, score the rest")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sweep", help="run seeded scenario batches over parameter ranges")
    p.add_argument("--config", required=True, help="scenario INI file; its [sweep] section is optional")
    p.add_argument("--output", required=True, help="observations CSV to write")
    p.add_argument("--runs", type=int, help="override the configured run count")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("budget", help="select and order tasks under an energy budget")
    p.add_argument("--tasks", required=True, help="task list CSV")
    p.add_argument("--model", required=True, help="fitted-model CSV (fit report)")
    p.add_argument("--battery", type=float, required=True, help="residual battery, joules")
    p.add_argument("--output", required=True, help="schedule CSV to write")
    p.add_argument("--no-positivity", action="store_true",
                   help="drop the mandatory local/global positivity requirement")
    p.set_defaults(func=cmd_budget)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except estimation.RankDeficientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
