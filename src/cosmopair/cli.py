"""Batch command-line front end: sweep, dynamics and verify commands.

Grid specifications accept ``start:stop:step`` (inclusive endpoints,
snapped within 1e-12), comma lists, or a single value; momentum grids
additionally accept ``log:start:stop:count``.  Outputs are CSV or JSON
(schema_version field) with 15-significant-digit decimals; identical
configuration and seed produce byte-identical files.  Grid points are
evaluated serially, in grid order.  An ``@file`` argument is replaced by
the file's lines, one argument each (``--key=value``), skipping blank
ones; later flags win.

Exit codes: 0 all rows within the fixed gates (``SWEEP_GATE`` for a sweep,
the dressing gate at ``dynamics.TOL`` for dynamics), 1 a gate breach or
pipeline failure, 2 usage errors.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys

# The operators are at most 16 x 16: a BLAS thread pool costs more to start than it saves.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from cosmopair import verify as verify_mod  # noqa: E402
from cosmopair.bogoliubov import Scenario  # noqa: E402
from cosmopair.dynamics import (FLAT, IntegrationError, ScaleFactorProfile,  # noqa: E402
                                check_point, momentum_point)
from cosmopair.entanglement import sweep  # noqa: E402

__all__ = ["main", "parse_grid", "parse_momentum_grid",
           "state_token_to_occupation", "occupation_to_state_token"]

SCHEMA_VERSION = 1
# A sweep row breaches when its numeric entropy is further than this from its
# closed form; the JSON head records it as "tolerance".
SWEEP_GATE = 1e-10
# Bound on the points of a step or log grid and of a sweep's n x lambda
# product; the largest documented grid holds 4411.
MAX_GRID_POINTS = 10**6
SWEEP_COLUMNS = ("scenario", "input_state", "n", "lambda",
                 "S_numeric", "S_closed", "discrepancy")
DYNAMICS_COLUMNS = ("p", "A", "beta_uu", "beta_ud", "beta_du", "beta_dd",
                    "n_created", "lambda_effective", "S_numeric", "S_closed",
                    "discrepancy", "norm_residual", "self_convergence", "status")


def _numbers(tokens, text: str) -> list[float]:
    """Finite floats of the tokens of a grid or direction spec; errors name the spec.

    A negative zero is read as zero, so that no output prints ``-0``.
    """
    values = []
    for token in tokens:
        try:
            values.append(float(token) + 0.0)
        except ValueError:
            raise ValueError(f"{token.strip()!r} in {text!r} is not a number") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{text!r} holds a non-finite value")
    return values


def parse_grid(text: str) -> list[float]:
    """Inclusive finite grid from ``start:stop:step``, a comma list or one value."""
    text = text.strip()
    # A comma list with no values is empty too.
    if not text.strip(", "):
        raise ValueError("empty grid specification")
    if "," in text:
        return _numbers([tok for tok in text.split(",") if tok.strip()], text)
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:stop:step")
        start, stop, step = _numbers(parts, text)
        if step <= 0:
            raise ValueError("grid step must be positive")
        if stop < start:
            raise ValueError("grid stop must be >= start")
        raw = (stop - start) / step
        if not raw + 1 <= MAX_GRID_POINTS:   # an infinite count fails too
            raise ValueError(f"grid {text!r} holds more than {MAX_GRID_POINTS} points")
        count = int(round(raw)) if abs(raw - round(raw)) <= 1e-9 * max(1.0, abs(raw)) \
            else int(math.floor(raw))
        points = [start + k * step for k in range(count + 1)]
        if abs(points[-1] - stop) <= 1e-12 * max(1.0, abs(stop)):
            points[-1] = stop
        return points
    return _numbers([text], text)


def parse_momentum_grid(text: str) -> list[float]:
    """Momentum moduli grid; ``log:start:stop:count`` is log-spaced."""
    text = text.strip()
    if text.startswith("log:"):
        parts = text.split(":")
        if len(parts) != 4:
            raise ValueError(f"log grid {text!r} must be log:start:stop:count")
        start, stop = _numbers(parts[1:3], text)
        try:
            count = int(parts[3])
        except ValueError:
            raise ValueError(f"log grid {text!r} needs an integer count") from None
        if start <= 0 or stop <= start or not 2 <= count <= MAX_GRID_POINTS:
            raise ValueError(f"log grid needs 0 < start < stop and 2 <= count <= {MAX_GRID_POINTS}")
        ratio = (stop / start) ** (1.0 / (count - 1))
        return [start * ratio ** k for k in range(count)]
    return parse_grid(text)


def _parse_direction(text: str) -> tuple[float, float, float]:
    """Unit vector along a nonzero ``x,y,z`` direction."""
    direction = _numbers(text.split(","), text)
    if len(direction) != 3:
        raise ValueError("direction needs three comma-separated components")
    norm = math.hypot(*direction)
    if not 0 < norm < math.inf:
        raise ValueError("direction must be nonzero with a finite norm")
    return tuple(c / norm for c in direction)


def _spec(parse):
    """argparse type of a spec parser, so that its errors name the flag too."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from None
    return convert


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
    return scenario.join_occupation(particle, anti)


def occupation_to_state_token(occupation: int, scenario: Scenario) -> str:
    table = _SPINLESS_PARTS if scenario is Scenario.SPINLESS else _SPINFUL_PARTS
    reverse = {v: k for k, v in table.items()}
    particle, anti = scenario.split_occupation(occupation)
    return f"{reverse[particle]}.{reverse[anti]}"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return f"{value:.15g}"


def _refuse_output(args, err: OSError):
    args.command_parser.error(f"cannot write --output {args.output}: {err.strerror}")


def _check_output(args) -> None:
    """Refuse an --output that open() would refuse for its name alone, creating nothing.

    The empty path, an existing directory, and a parent that is missing or
    not a directory are refused with open()'s reason; a parent without
    write permission is left to :func:`_write_text`.
    """
    path = args.output
    if path in (None, "-"):
        return
    if not path or os.path.isdir(path):
        code = errno.EISDIR if path else errno.ENOENT
        _refuse_output(args, OSError(code, os.strerror(code)))
    try:
        # The trailing separator makes a parent that is a file fail too.
        os.stat(os.path.join(os.path.dirname(path) or ".", ""))
    except OSError as err:
        _refuse_output(args, err)


def _write_text(args, text: str) -> None:
    """text to ``args.output``, or stdout; a path that cannot be written is a usage error."""
    if args.output in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        _refuse_output(args, err)


def _json_value(value):
    return value if value is None or isinstance(value, str) else float(_fmt(value))


def _write_rows(args, columns, rows, head: dict, tail: dict | None = None) -> None:
    """Rows (tuples in column order) as CSV, or as JSON between head and tail fields."""
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, "command": args.command, **head,
                   "rows": [dict(zip(columns, map(_json_value, row))) for row in rows],
                   **(tail or {})}
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = "\n".join([",".join(columns), *(",".join(map(_fmt, row)) for row in rows)]) + "\n"
    _write_text(args, text)


def _cmd_sweep(args) -> int:
    scenario = Scenario(args.scenario)
    occupation = state_token_to_occupation(args.state, scenario)
    lam_count = len(args.lam) if args.lam else 1
    if len(args.n) * lam_count > MAX_GRID_POINTS:
        raise ValueError(f"sweep of {len(args.n)} x {lam_count} points exceeds {MAX_GRID_POINTS}")
    results = sweep(scenario, occupation, args.n, args.lam)
    token = occupation_to_state_token(occupation, scenario)
    breaches = [r for r in results if r[-1] > SWEEP_GATE]
    _write_rows(args, SWEEP_COLUMNS, [(scenario.value, token, *r) for r in results],
                head={"tolerance": SWEEP_GATE},
                tail={"all_within_tolerance": not breaches})
    if breaches:
        sys.stderr.write(f"{len(breaches)} rows exceed tolerance {SWEEP_GATE}:\n")
        for n, lam, _, _, gap in breaches[:20]:
            sys.stderr.write(f"  state {token} n={_fmt(n)} lambda={_fmt(lam)} "
                             f"discrepancy={_fmt(gap)}\n")
        return 1
    return 0


def _dynamics_row(p: float, p_vec, profile: ScaleFactorProfile, args) -> tuple:
    try:
        point = momentum_point(p_vec, args.mass, profile)
    except IntegrationError as err:
        reason = str(err).replace(",", ";").replace("\n", " ")
        return (abs(p), *[None] * (len(DYNAMICS_COLUMNS) - 2), f"error: {reason}")
    return (point.p, point.a, *point.beta_moduli, point.n_created, point.lambda_effective,
            point.s_numeric, point.s_closed, point.discrepancy,
            point.normalization_residual, point.self_convergence, "ok")


def _cmd_dynamics(args) -> int:
    # --profile constant ignores --epsilon and --rho, but they are checked.
    profile = ScaleFactorProfile(args.epsilon, args.rho)
    if args.profile == "constant":
        profile = FLAT
    # Every point passes momentum_point's own check first: a refused input is a
    # usage error before any row.
    p_vecs = [tuple(p * c for c in args.direction) for p in args.p_grid]
    for p_vec in p_vecs:
        check_point(p_vec, args.mass, profile)
    rows = [_dynamics_row(p, p_vec, profile, args) for p, p_vec in zip(args.p_grid, p_vecs)]
    _write_rows(args, DYNAMICS_COLUMNS, rows, head={"profile": args.profile})
    failed = [row for row in rows if row[-1] != "ok"]
    if failed:
        sys.stderr.write(f"{len(failed)} momentum points failed\n")
        return 1
    return 0


def _cmd_verify(args) -> int:
    results = verify_mod.run_all(seed=args.seed, batch=args.batch)
    render = verify_mod.render_json if args.report == "json" else verify_mod.render_text
    _write_text(args, render(results, seed=args.seed))
    return 0 if all(r.passed for r in results) else 1


class _ArgumentParser(argparse.ArgumentParser):
    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        """One argument per ``@file`` line; an empty or whitespace-only line is none."""
        return [arg_line] if arg_line.strip() else []


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cosmopair",
        description="Pair-creation entanglement sweeps, mode dynamics and verification",
        fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_p = sub.add_parser("sweep", help="entropy sweep over density (and lambda)")
    sweep_p.set_defaults(run=_cmd_sweep, command_parser=sweep_p)
    sweep_p.add_argument("--scenario", required=True,
                         choices=[s.value for s in Scenario])
    sweep_p.add_argument("--state", default="vac",
                         help="input state token, e.g. vac, up.up, updown.0, 1.1")
    sweep_p.add_argument("--n", required=True, type=_spec(parse_grid), help="density grid spec")
    sweep_p.add_argument("--lambda", dest="lam", type=_spec(parse_grid), default=None,
                         help="lambda grid spec (charge-only)")
    sweep_p.add_argument("--output", default=None, help="output path (default stdout)")
    sweep_p.add_argument("--format", choices=("csv", "json"), default="csv")

    dyn_p = sub.add_parser("dynamics", help="mode-equation pipeline over momenta")
    dyn_p.set_defaults(run=_cmd_dynamics, command_parser=dyn_p)
    dyn_p.add_argument("--profile", choices=("constant", "tanh"), default="tanh")
    dyn_p.add_argument("--epsilon", type=float, default=1.0)
    dyn_p.add_argument("--rho", type=float, default=1.0)
    dyn_p.add_argument("--mass", type=float, default=1.0)
    dyn_p.add_argument("--p-grid", dest="p_grid", type=_spec(parse_momentum_grid),
                       default="log:0.1:10:30")
    dyn_p.add_argument("--direction", type=_spec(_parse_direction), default="1,1,1",
                       help="momentum direction")
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
    args = _build_parser().parse_args(argv)
    _check_output(args)   # before any row is computed
    # Value errors print the subcommand's usage line, not the root one.  A
    # dynamics point that fails its integration becomes an error row instead.
    try:
        return args.run(args)
    except ValueError as err:
        args.command_parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
