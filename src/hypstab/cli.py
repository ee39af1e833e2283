"""Command-line front end: feasibility reports, simulations, certificate checks.

Exit codes: 0 success/feasible/certificate holds, 1 bad config, 2 infeasible,
3 simulation failure, 4 the solver's certificate fails its check.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .boundary import partition_boundary, rectangle_faces
from .config import ScenarioConfig, build_control, build_grid, build_system, load_config
from .errors import ConfigError, HypstabError
from .oracle import weight_holds, witness_holds
from .potential import (
    Infeasible,
    LyapunovPotential,
    estimate_source_bound,
    find_potential,
    find_potential_with_remainder,
)
from .sim import default_bump, run, write_csv, write_snapshot


def _fmt_vec(v: np.ndarray) -> str:
    return "[" + ", ".join(f"{x:.12g}" for x in v) + "]"


def _solve_plain(cfg: ScenarioConfig, system):
    c_b = estimate_source_bound(system)
    c_a = cfg.lmi.c_a_override
    if c_a is not None and not c_a > c_b:
        raise ConfigError(f"lmi.C_A_override = {c_a:.12g} does not exceed the source bound C_B = {c_b:.12g}")
    return find_potential(system, c_b, c_a_override=c_a)


def _solve_potential(cfg: ScenarioConfig, system):
    if cfg.lmi.mode == "with_remainder":
        c_a = cfg.lmi.c_a_override if cfg.lmi.c_a_override is not None else 1.0
        return find_potential_with_remainder(system, c_a=c_a)
    return _solve_plain(cfg, system)


def cmd_check(cfg: ScenarioConfig, quiet: bool) -> int:
    system = build_system(cfg)
    result = _solve_potential(cfg, system)

    say = (lambda *_: None) if quiet else print
    if isinstance(result, Infeasible):
        say("infeasible")
        say(f"least achievable pencil max eigenvalue: {result.best_value:.12g}")
        say(f"at direction {_fmt_vec(result.best_direction)}")
        return 2

    say("feasible")
    say(f"m   = {_fmt_vec(result.m)}")
    say(f"C_A = {result.c_a:.12g}")
    say(f"C_B = {result.c_b:.12g}")
    say(f"C_L = {result.c_l:.12g}")

    grid = build_grid(cfg, system.d)
    boundary = rectangle_faces(grid.cells_per_axis, grid.lengths)
    partition = partition_boundary(system, boundary)
    inflow = sum(len(side) * mask for side, mask in zip(partition.sides, partition.inflow))
    for i in range(system.n):
        say(f"component {i + 1}: inflow faces {inflow[i]}, outflow faces {len(boundary) - inflow[i]}")
    return 0


def cmd_run(cfg: ScenarioConfig, quiet: bool, csv_override: str | None) -> int:
    system = build_system(cfg)
    result = _solve_potential(cfg, system)
    if isinstance(result, Infeasible):
        if not quiet:
            print("infeasible; nothing to simulate", file=sys.stderr)
        return 2

    grid = build_grid(cfg, system.d)
    control = build_control(cfg)
    w0 = default_bump(grid, system.n)
    try:
        record = run(
            system,
            grid,
            w0,
            result,
            control,
            t_end=cfg.time.t_end,
            cfl=cfg.time.cfl,
            snapshot_times=cfg.output.snapshot_times,
        )
    except HypstabError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 3

    csv_path = csv_override if csv_override is not None else cfg.output.csv_path
    write_csv(record, csv_path)
    base = os.path.splitext(csv_path)[0]
    for i, (t, state) in enumerate(record.snapshots):
        write_snapshot(grid, state, f"{base}_snap{i}_t{t:.6g}.txt")

    l0 = record.lyapunov[0]
    lt = record.lyapunov[-1]
    c_fit = "n/a" if record.c_fit is None else f"{record.c_fit:.12g}"
    if not quiet:
        print(f"C_L={record.c_l:.12g} c_fit={c_fit} L0={l0:.12g} LT={lt:.12g} steps={record.steps}")
    return 0


def cmd_oracle(cfg: ScenarioConfig, quiet: bool) -> int:
    system = build_system(cfg)
    # Always the plain inequality: that is the one the witness certifies.
    result = _solve_plain(cfg, system)
    if isinstance(result, LyapunovPotential):
        verdict, holds = "feasible", weight_holds(system, result.m, result.c_a)
    else:
        verdict, holds = "infeasible", witness_holds(system, result.vectors, result.weights)

    say = (lambda *_: None) if quiet else print
    if not holds:
        say(f"DISAGREE: solver says {verdict}, but its certificate fails the check")
        return 4
    say(f"agree: {verdict}")
    if isinstance(result, LyapunovPotential):
        say(f"grid witness m = {_fmt_vec(result.m)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypstab",
        description="Boundary-damped linear hyperbolic systems: decay certificates and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="scenario config file (dotted key = value lines)")
    common.add_argument("--quiet", action="store_true", help="suppress report output")

    sub.add_parser(
        "check",
        parents=[common],
        help="search for a decay certificate and report the boundary partition",
    )
    runp = sub.add_parser(
        "run",
        parents=[common],
        help="simulate the configured scenario and write CSV telemetry",
    )
    runp.add_argument("--csv", help="override output.csv_path from the config")
    sub.add_parser(
        "oracle",
        parents=[common],
        help="check the solver's certificate (a weight or a dual witness) with LAPACK",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is None:
            raise ConfigError("--config is required")
        cfg = load_config(args.config)
        if args.command == "check":
            return cmd_check(cfg, args.quiet)
        if args.command == "run":
            return cmd_run(cfg, args.quiet, args.csv)
        return cmd_oracle(cfg, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
