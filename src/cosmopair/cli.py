"""Batch command-line front end: sweep, dynamics and verify commands.

Grid specifications accept ``start:stop:step`` (inclusive endpoints,
snapped within 1e-12), comma lists, or a single value; momentum grids
additionally accept ``log:start:stop:count``.  Outputs are CSV or JSON
(schema_version field) with 15-significant-digit decimals; identical
configuration and seed produce byte-identical files.  Grid points are
evaluated serially, in grid order.

Exit codes: 0 all rows within tolerance, 1 tolerance breach or pipeline
failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from cosmopair import verify as verify_mod
from cosmopair.bogoliubov import Scenario
from cosmopair.dynamics import (
    IntegrationError,
    ModeParameters,
    ScaleFactorProfile,
    check_point_tolerance,
    momentum_point,
)
from cosmopair.entanglement import EntropyResult, sweep

__all__ = ["main", "parse_grid", "parse_momentum_grid",
           "state_token_to_occupation", "occupation_to_state_token"]

SCHEMA_VERSION = 1
SWEEP_COLUMNS = ("scenario", "input_state", "n", "lambda",
                 "S_numeric", "S_closed", "discrepancy")
DYNAMICS_COLUMNS = ("p", "A", "beta_uu", "beta_ud", "beta_du", "beta_dd",
                    "n_created", "lambda_effective", "S_numeric", "S_closed",
                    "discrepancy", "norm_residual", "self_convergence", "status")


def _finite(values: list[float], text: str) -> list[float]:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid {text!r} holds a non-finite value")
    return values


def parse_grid(text: str) -> list[float]:
    """Inclusive finite grid from ``start:stop:step``, a comma list or one value."""
    text = text.strip()
    if not text:
        raise ValueError("empty grid specification")
    if "," in text:
        return _finite([float(tok) for tok in text.split(",") if tok.strip()], text)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:stop:step")
        start, stop, step = _finite([float(p) for p in parts], text)
        if step <= 0:
            raise ValueError("grid step must be positive")
        if stop < start:
            raise ValueError("grid stop must be >= start")
        raw = (stop - start) / step
        count = int(round(raw)) if abs(raw - round(raw)) <= 1e-9 * max(1.0, abs(raw)) \
            else int(math.floor(raw))
        points = [start + k * step for k in range(count + 1)]
        if abs(points[-1] - stop) <= 1e-12 * max(1.0, abs(stop)):
            points[-1] = stop
        return points
    return _finite([float(text)], text)


def parse_momentum_grid(text: str) -> list[float]:
    """Momentum moduli grid; ``log:start:stop:count`` is log-spaced."""
    text = text.strip()
    if text.startswith("log:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"log grid {text!r} must be log:start:stop:count")
        start, stop = _finite([float(parts[1]), float(parts[2])], text)
        count = int(parts[3])
        if start <= 0 or stop <= start or count < 2:
            raise ValueError("log grid needs 0 < start < stop and count >= 2")
        ratio = (stop / start) ** (1.0 / (count - 1))
        return [start * ratio ** k for k in range(count)]
    return parse_grid(text)


_SPINFUL_PARTS = {"0": 0, "up": 0b01, "down": 0b10, "updown": 0b11}
_SPINLESS_PARTS = {"0": 0, "1": 1}


def state_token_to_occupation(token: str, scenario: Scenario) -> int:
    """Occupation index from a ``particle.antiparticle`` token.

    Spinful parts: 0, up, down, updown; spinless parts: 0, 1.  The token
    ``vac`` means both sides empty.
    """
    token = token.strip().lower()
    if token == "vac":
        return 0
    pieces = token.split(".")
    if len(pieces) != 2:
        raise ValueError(f"state token {token!r} must be particle.antiparticle or 'vac'")
    table = _SPINLESS_PARTS if scenario is Scenario.SPINLESS else _SPINFUL_PARTS
    try:
        particle, anti = table[pieces[0]], table[pieces[1]]
    except KeyError:
        allowed = ", ".join(sorted(table))
        raise ValueError(f"state token {token!r} invalid for {scenario.value} "
                         f"(parts: {allowed})") from None
    shift = 1 if scenario is Scenario.SPINLESS else 2
    return particle | (anti << shift)


def occupation_to_state_token(occupation: int, scenario: Scenario) -> str:
    shift = 1 if scenario is Scenario.SPINLESS else 2
    mask = (1 << shift) - 1
    table = _SPINLESS_PARTS if scenario is Scenario.SPINLESS else _SPINFUL_PARTS
    reverse = {v: k for k, v in table.items()}
    return f"{reverse[occupation & mask]}.{reverse[occupation >> shift & mask]}"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.15g}"


def _write_table(path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    text = "\n".join(lines) + "\n"
    _write_text(path, text)


def _write_json(path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _write_text(path, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_value(value):
    if value is None:
        return None
    if isinstance(value, str):
        return value
    return float(f"{value:.15g}")


def _sweep_row(r: EntropyResult) -> dict:
    return {
        "scenario": r.scenario.value,
        "input_state": occupation_to_state_token(r.input_occupation, r.scenario),
        "n": r.n,
        "lambda": r.lam,
        "S_numeric": r.s_numeric,
        "S_closed": r.s_closed,
        "discrepancy": r.discrepancy,
    }


def _cmd_sweep(args, parser) -> int:
    scenario = Scenario(args.scenario)
    try:
        if not args.tolerance >= 0:
            raise ValueError(f"tolerance {args.tolerance} must be a number >= 0")
        occupation = state_token_to_occupation(args.state, scenario)
        n_grid = parse_grid(args.n)
        lambda_grid = parse_grid(args.lam) if args.lam else None
    except ValueError as err:
        parser.error(str(err))
    try:
        results = sweep(scenario, occupation, n_grid, lambda_grid)
    except ValueError as err:
        parser.error(str(err))
    rows = [_sweep_row(r) for r in results]
    breaches = [row for row in rows
                if row["discrepancy"] is not None and row["discrepancy"] > args.tolerance]
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "sweep",
            "tolerance": args.tolerance,
            "rows": [{k: _json_value(v) for k, v in row.items()} for row in rows],
            "all_within_tolerance": not breaches,
        }
        _write_json(args.output, payload)
    else:
        _write_table(args.output, SWEEP_COLUMNS, rows)
    if breaches:
        sys.stderr.write(f"{len(breaches)} rows exceed tolerance {args.tolerance}:\n")
        for row in breaches[:20]:
            sys.stderr.write(
                f"  state {row['input_state']} n={_fmt(row['n'])} "
                f"lambda={_fmt(row['lambda'])} discrepancy={_fmt(row['discrepancy'])}\n")
        return 1
    return 0


def _dynamics_row(p: float, direction, profile: ScaleFactorProfile, args) -> dict:
    p_vec = tuple(p * c for c in direction)
    try:
        point = momentum_point(p_vec, args.mass, profile, tol=args.tol)
    except (IntegrationError, ValueError) as err:
        reason = str(err).replace(",", ";").replace("\n", " ")
        return dict.fromkeys(DYNAMICS_COLUMNS) | {"p": p, "status": f"error: {reason}"}
    return {
        "p": point.p,
        "A": point.a,
        "beta_uu": point.beta_moduli[0],
        "beta_ud": point.beta_moduli[1],
        "beta_du": point.beta_moduli[2],
        "beta_dd": point.beta_moduli[3],
        "n_created": point.n_created,
        "lambda_effective": point.lambda_effective,
        "S_numeric": point.s_numeric,
        "S_closed": point.s_closed,
        "discrepancy": abs(point.s_numeric - point.s_closed),
        "norm_residual": point.normalization_residual,
        "self_convergence": point.self_convergence,
        "status": "ok",
    }


def _cmd_dynamics(args, parser) -> int:
    try:
        grid = parse_momentum_grid(args.p_grid)
        direction = tuple(float(c) for c in args.direction.split(","))
        if len(direction) != 3:
            raise ValueError("direction needs three comma-separated components")
        norm = math.sqrt(sum(c * c for c in direction))
        if not 0 < norm < math.inf:
            raise ValueError("direction must be nonzero with a finite norm")
        direction = tuple(c / norm for c in direction)
        # Run-wide values fail here, once, through the checks that own them.
        ModeParameters(p_vec=direction, m=args.mass)
        check_point_tolerance(args.tol)
        profile = (ScaleFactorProfile.constant(args.a0) if args.profile == "constant"
                   else ScaleFactorProfile.smooth_step(args.epsilon, args.rho))
    except ValueError as err:
        parser.error(str(err))
    rows = [_dynamics_row(p, direction, profile, args) for p in grid]
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "dynamics",
            "profile": args.profile,
            "rows": [{k: _json_value(v) for k, v in row.items()} for row in rows],
        }
        _write_json(args.output, payload)
    else:
        _write_table(args.output, DYNAMICS_COLUMNS, rows)
    failed = [row for row in rows if row["status"] != "ok"]
    if failed:
        sys.stderr.write(f"{len(failed)} momentum points failed\n")
        return 1
    return 0


def _cmd_verify(args, parser) -> int:
    try:
        results = verify_mod.run_all(seed=args.seed, batch=args.batch)
    except ValueError as err:
        parser.error(str(err))
    if args.report == "json":
        _write_text(args.output, verify_mod.render_json(results, seed=args.seed))
    else:
        _write_text(args.output, verify_mod.render_text(results, seed=args.seed))
    return 0 if all(r.passed for r in results) else 1


def _load_config_args(argv: list[str], parser) -> list[str]:
    """Expand ``--config file`` of key=value lines into leading arguments."""
    path = None
    remaining = argv
    for idx, token in enumerate(argv):
        if token == "--config":
            if idx + 1 >= len(argv):
                parser.error("--config needs a file path")
            path = argv[idx + 1]
            remaining = argv[:idx] + argv[idx + 2:]
            break
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
            remaining = argv[:idx] + argv[idx + 1:]
            break
    if path is None:
        return argv
    injected: list[str] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    parser.error(f"config line {line!r} is not key=value")
                key, value = line.split("=", 1)
                injected.extend([f"--{key.strip()}", value.strip()])
    except OSError as err:
        parser.error(f"cannot read config file: {err}")
    # Command-line flags appear after the injected pairs and win.
    return remaining[:1] + injected + remaining[1:]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosmopair",
        description="Pair-creation entanglement sweeps, mode dynamics and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_p = sub.add_parser("sweep", help="entropy sweep over density (and lambda)")
    sweep_p.set_defaults(run=_cmd_sweep, command_parser=sweep_p)
    sweep_p.add_argument("--scenario", required=True,
                         choices=[s.value for s in Scenario])
    sweep_p.add_argument("--state", default="vac",
                         help="input state token, e.g. vac, up.up, updown.0, 1.1")
    sweep_p.add_argument("--n", required=True, help="density grid spec")
    sweep_p.add_argument("--lambda", dest="lam", default=None,
                         help="lambda grid spec (charge-only)")
    sweep_p.add_argument("--tolerance", type=float, default=1e-10,
                         help="closed-form agreement gate for the exit code")
    sweep_p.add_argument("--output", default=None, help="output path (default stdout)")
    sweep_p.add_argument("--format", choices=("csv", "json"), default="csv")

    dyn_p = sub.add_parser("dynamics", help="mode-equation pipeline over momenta")
    dyn_p.set_defaults(run=_cmd_dynamics, command_parser=dyn_p)
    dyn_p.add_argument("--profile", choices=("constant", "tanh"), default="tanh")
    dyn_p.add_argument("--epsilon", type=float, default=1.0)
    dyn_p.add_argument("--rho", type=float, default=1.0)
    dyn_p.add_argument("--a0", type=float, default=1.0, help="constant profile value")
    dyn_p.add_argument("--mass", type=float, default=1.0)
    dyn_p.add_argument("--p-grid", dest="p_grid", default="log:0.1:10:30")
    dyn_p.add_argument("--direction", default="1,1,1", help="momentum direction")
    dyn_p.add_argument("--tol", type=float, default=1e-9)
    dyn_p.add_argument("--output", default=None)
    dyn_p.add_argument("--format", choices=("csv", "json"), default="csv")

    ver_p = sub.add_parser("verify", help="run the full identity suite")
    ver_p.set_defaults(run=_cmd_verify, command_parser=ver_p)
    ver_p.add_argument("--seed", type=int, default=verify_mod.DEFAULT_SEED)
    ver_p.add_argument("--batch", type=int, default=100,
                       help="random draws per scenario for oracle checks")
    ver_p.add_argument("--report", choices=("text", "json"), default="text")
    ver_p.add_argument("--output", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _load_config_args(argv, parser)
    args = parser.parse_args(argv)
    # Value errors print the subcommand's usage line, not the root one.
    return args.run(args, args.command_parser)


if __name__ == "__main__":
    sys.exit(main())
