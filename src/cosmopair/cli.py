"""Batch command-line front end: sweep, dynamics and verify commands.

Grid specifications accept ``start:stop:step`` (inclusive endpoints,
snapped within 1e-12), comma lists, or a single value; momentum grids
additionally accept ``log:start:stop:count``.  Outputs are CSV or JSON
(schema_version field) with 15-significant-digit decimals; identical
configuration and seed produce byte-identical files.  Grid points are
evaluated serially, in grid order, and their rows are written as they
are computed: ``sweep`` writes one block of ``SCORE_BLOCK`` (128) rows
at a time and ``dynamics`` one row per momentum, so neither holds more
than a block of rows, whatever the grid's size.  Each command checks
its inputs, then opens the output, then computes rows; a run that fails
after the open removes the file it created.  An ``@file`` argument is
replaced by the file's lines, one argument each (``--key=value``),
skipping blank ones; later flags win.

Exit codes: 0 all rows within the fixed gates (``SWEEP_GATE`` for a sweep,
the dressing gate at ``dynamics.TOL`` for dynamics), 1 a gate breach or
pipeline failure, 2 usage errors and an output that cannot be written,
a stdout whose reader has gone included.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import operator
import os
import sys

# The operators are at most 16 x 16: a BLAS thread pool costs more to start than it saves.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import cosmopair  # noqa: E402
from cosmopair import verify as verify_mod  # noqa: E402
from cosmopair.bogoliubov import Scenario  # noqa: E402
from cosmopair.dynamics import (FLAT, IntegrationError, Mode,  # noqa: E402
                                ScaleFactorProfile, momentum_point)
from cosmopair.entanglement import sweep  # noqa: E402

__all__ = ["main", "parse_grid", "parse_momentum_grid",
           "state_token_to_occupation", "occupation_to_state_token"]

# A sweep row breaches when its numeric entropy is further than this from its
# closed form; the JSON head records it as "tolerance".
SWEEP_GATE = 1e-10
# Bound on the points of a step or log grid and of a sweep's n x lambda
# product; the largest documented grid holds 4411.
MAX_GRID_POINTS = 10**6
# The output contract: each command's columns in order, with the % conversion of
# their kind, text or a number to 15 significant digits.  Rows are dicts keyed by
# column name; a cell a row lacks is empty in CSV and null in JSON.
TEXT, NUMBER = "s", ".15g"
_BETAS = ("beta_uu", "beta_ud", "beta_du", "beta_dd")
SWEEP_COLUMNS = {"scenario": TEXT, "input_state": TEXT, **dict.fromkeys(
    ("n", "lambda", "S_numeric", "S_closed", "discrepancy"), NUMBER)}
DYNAMICS_COLUMNS = {**dict.fromkeys(
    ("p", "A", *_BETAS, "n_created", "lambda_effective", "S_numeric", "S_closed",
     "discrepancy", "norm_residual", "self_convergence"), NUMBER), "status": TEXT}


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


@contextlib.contextmanager
def _output(args):
    """The stream of ``args.output``, or stdout.

    A path that cannot be opened, or an output that cannot be written,
    such as a stdout whose reader has closed the pipe, is a usage error.
    When the body raises, a file that this call created is removed again,
    so a failed run leaves no partial output.
    """
    to_file = args.output not in (None, "-")
    created = to_file and not os.path.lexists(args.output)
    try:
        with (open(args.output, "w", encoding="utf-8") if to_file
              else contextlib.nullcontext(sys.stdout)) as handle:
            yield handle
            handle.flush()
    except BaseException as err:
        if created:
            with contextlib.suppress(OSError):
                os.remove(args.output)
        if isinstance(err, OSError):
            if not to_file:
                # What stdout still buffers goes to the null device at exit.
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            name = f"--output {args.output}" if to_file else "stdout"
            args.command_parser.error(f"cannot write {name}: {err.strerror}")
        raise


def _csv_line(columns: dict, row: dict) -> tuple[str, operator.itemgetter]:
    """% format of a CSV line shaped as row (a cell it lacks is empty), and its cells' getter."""
    line = ",".join("%" + kind if name in row else "" for name, kind in columns.items())
    return line + "\n", operator.itemgetter(*(name for name in columns if name in row))


def _json_row(columns: dict, row: dict) -> dict:
    """JSON cells of row: text as is, a number rounded as printed, a cell it lacks None."""
    return {name: None if name not in row else row[name] if kind == TEXT
            else float(f"%{kind}" % row[name]) for name, kind in columns.items()}


def _json_halves(fields: dict) -> tuple[str, str]:
    """``json.dumps(fields, indent=2)`` cut inside its empty ``rows`` list."""
    before, key, after = json.dumps(fields, indent=2).partition('"rows": [')
    return before + key, after


def _write_rows(args, columns, blocks, head: dict, breached, tail=None) -> tuple[int, list]:
    """Stream row blocks as CSV, or as JSON between head and tail fields.

    ``columns`` is the command's table.  Each block is a nonempty list of
    rows holding the cells of its first row; it is formatted and written
    at once, so only one block is held.  The JSON text equals
    ``json.dumps`` of the whole payload with ``indent=2``.  Returns the
    number of rows for which ``breached(row)`` is true and the first 20
    of them; ``tail``, if given, maps that number to the fields written
    after the rows.
    """
    count, first, written = 0, [], 0
    with _output(args) as out:
        if args.format == "json":
            out.write(_json_halves({"schema_version": cosmopair.SCHEMA_VERSION,
                                    "command": args.command, **head, "rows": []})[0])
        else:
            out.write(",".join(columns) + "\n")
        for block in blocks:
            breaches = [row for row in block if breached(row)]
            count += len(breaches)
            first.extend(breaches[:20 - len(first)])
            if args.format == "json":
                text = json.dumps([_json_row(columns, row) for row in block], indent=2)
                # The list's items, one level deeper, after the previous block's.
                out.write(("," if written else "") + text[1:-2].replace("\n", "\n  "))
            else:
                line, cells = _csv_line(columns, block[0])
                out.write("".join([line % cells(row) for row in block]))
            written += len(block)
        if args.format == "json":
            end = _json_halves({"rows": [], **(tail(count) if tail else {})})[1]
            out.write(("\n  " if written else "") + end + "\n")
    return count, first


def _cmd_sweep(args) -> int:
    scenario = Scenario(args.scenario)
    occupation = state_token_to_occupation(args.state, scenario)
    lam_count = len(args.lam) if args.lam else 1
    if len(args.n) * lam_count > MAX_GRID_POINTS:
        raise ValueError(f"sweep of {len(args.n)} x {lam_count} points exceeds {MAX_GRID_POINTS}")
    blocks = sweep(scenario, occupation, args.n, args.lam)
    token = occupation_to_state_token(occupation, scenario)
    rows = ([{"scenario": scenario.value, "input_state": token, "n": n, "lambda": lam,
              "S_numeric": s_numeric, "S_closed": s_closed, "discrepancy": gap}
             for n, lam, s_numeric, s_closed, gap in block] for block in blocks)
    count, first = _write_rows(args, SWEEP_COLUMNS, rows, head={"tolerance": SWEEP_GATE},
                               breached=lambda row: row["discrepancy"] > SWEEP_GATE,
                               tail=lambda count: {"all_within_tolerance": not count})
    if count:
        sys.stderr.write(f"{count} rows exceed tolerance {SWEEP_GATE}:\n")
        for row in first:
            sys.stderr.write("  state %(input_state)s n=%(n).15g lambda=%(lambda).15g "
                             "discrepancy=%(discrepancy).15g\n" % row)
        return 1
    return 0


def _dynamics_row(mode: Mode) -> dict:
    try:
        point = momentum_point(mode)
    except IntegrationError as err:
        reason = str(err).replace(",", ";").replace("\n", " ")
        return {"p": mode.p, "status": f"error: {reason}"}
    return {"p": point.p, "A": point.a, **dict(zip(_BETAS, point.beta_moduli)),
            "n_created": point.n_created, "lambda_effective": point.lambda_effective,
            "S_numeric": point.s_numeric, "S_closed": point.s_closed,
            "discrepancy": point.discrepancy, "norm_residual": point.normalization_residual,
            "self_convergence": point.self_convergence, "status": "ok"}


def _cmd_dynamics(args) -> int:
    # --profile constant ignores --epsilon and --rho, but they are checked.
    profile = ScaleFactorProfile(args.epsilon, args.rho)
    if args.profile == "constant":
        profile = FLAT
    # Every point is checked as its Mode first: a refused input is a usage
    # error before any row.
    modes = [Mode(tuple(p * c for c in args.direction), args.mass, profile) for p in args.p_grid]
    rows = ([_dynamics_row(mode)] for mode in modes)
    failed, _ = _write_rows(args, DYNAMICS_COLUMNS, rows, head={"profile": args.profile},
                            breached=lambda row: row["status"] != "ok")
    if failed:
        sys.stderr.write(f"{failed} momentum points failed\n")
        return 1
    return 0


def _cmd_verify(args) -> int:
    verify_mod.check_run(args.seed, args.batch)
    render = verify_mod.render_json if args.report == "json" else verify_mod.render_text
    with _output(args) as out:
        results = verify_mod.run_all(seed=args.seed, batch=args.batch)
        out.write(render(results, seed=args.seed))
    return 0 if all(r.passed for r in results) else 1


class _ArgumentParser(argparse.ArgumentParser):
    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        """One argument per ``@file`` line; an empty or whitespace-only line is none."""
        return [arg_line] if arg_line.strip() else []


class _CommandParser(_ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        """Refuse an option after the command word with the command's usage line.

        The root parser refuses, with its own usage line, an option before it.
        """
        namespace, unknown = super().parse_known_args(args, namespace)
        if unknown:
            self.error(f"unrecognized arguments: {' '.join(unknown)}")
        return namespace, unknown


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cosmopair",
        description="Pair-creation entanglement sweeps, mode dynamics and verification",
        fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

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
    # Value errors print the subcommand's usage line, not the root one.  A
    # dynamics point that fails its integration becomes an error row instead.
    try:
        return args.run(args)
    except ValueError as err:
        args.command_parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
