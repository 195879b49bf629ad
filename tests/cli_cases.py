"""The command-line input contract: one case per line, for tier-1, CI and the README.

A case is a command line (shell words after ``cosmopair``), its exit code, what
it must print and the README rule it illustrates.  Exit 2: a usage line first
and ``<prog>: error: …`` last, holding ``expect``, where ``<prog>`` is
``cosmopair <command>``, or ``cosmopair`` for an unreadable ``@file`` or an
option before the command word, which the root parser refuses.
Exit 1: each ``dynamics`` row whose status is not ``ok`` starts with ``expect``
and holds only ``p`` and ``status``, and stderr counts them.  Exit 0: an empty
stderr.  ``library`` marks what ``Mode`` or ``ScaleFactorProfile`` refuse
alone.  Each case runs in a directory that holds ``FILES``.  As a script, the
module runs every case through the installed ``cosmopair``, one line each:

    python tests/cli_cases.py
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
import shlex
import subprocess
import sys
import tempfile
from typing import NamedTuple

# A regular file, also an existing output that a refusal keeps; argument files.
FILES = {"existing.csv": '{"kept": true}\n', "run.cfg": "--scenario=spinless\n--n=1\n",
         **{f"{name}.cfg": f"--scenario=spinless\n{blank}\n--n=1\n"
            for name, blank in (("blank", ""), ("spaces", "   "), ("tab", "\t"))}}


class Case(NamedTuple):
    argv: str
    code: int
    expect: str
    rule: str
    library: bool = False

    @property
    def words(self) -> list[str]:
        return shlex.split(self.argv)


def _rule(rule: str, code: int, *rows: tuple[str, str], library: bool = False) -> list[Case]:
    return [Case(argv, code, expect, rule, library) for argv, expect in rows]


_SWEEP, _DYNAMICS = "sweep --scenario spinless --n 1", "dynamics --profile constant --p-grid 1"
_PROFILE = "profile needs epsilon >= 0 and rho > 0, with 2 epsilon and 2 rho finite, got "
_DEGENERATE = "error: degenerate mode: out-region energy "
_GATE = "error: dressed coefficients violate constraints beyond 1e-08: "

CASES = [
    *_rule("an empty grid", 2,
           ("dynamics --p-grid ,", "empty grid specification"),
           ("dynamics --p-grid ' , ,'", "empty grid specification"),
           ("sweep --scenario spinless --n ''", "empty grid specification")),
    *_rule("a non-finite grid value", 2,
           ("sweep --scenario spinless --n 0:inf:1", "'0:inf:1' holds a non-finite value"),
           ("dynamics --p-grid nan", "'nan' holds a non-finite value"),
           ("dynamics --p-grid log:0.1:inf:3", "'log:0.1:inf:3' holds a non-finite value")),
    *_rule("a grid or direction value that is not a number", 2,
           ("sweep --scenario spinless --n a", "argument --n: 'a' in 'a' is not a number"),
           ("sweep --scenario spinless --n 1,b", "argument --n: 'b' in '1,b' is not a number"),
           ("dynamics --p-grid log:x:10:5",
            "argument --p-grid: 'x' in 'log:x:10:5' is not a number"),
           ("dynamics --direction a,1,1", "argument --direction: 'a' in 'a,1,1' is not a number")),
    *_rule("a `--lambda` grid for `spin-am` or `spinless`", 2,
           (f"{_SWEEP} --lambda 0.5", "only a charge-only sweep takes a lambda grid"),
           (f"{_SWEEP} --lambda 5", "only a charge-only sweep takes a lambda grid")),
    *_rule("a `charge` sweep without a `--lambda` grid", 2,
           ("sweep --scenario charge --state vac --n 1",
            "charge-only sweep needs a nonempty lambda grid")),
    *_rule("a state token that the scenario does not have", 2,
           ("sweep --scenario spinless --state up.up --n 1",
            "state token 'up.up' invalid for spinless (parts: 0, 1)"),
           ("sweep --scenario charge --state up --n 1 --lambda 0.5",
            "state token 'up' must be particle.antiparticle or 'vac'")),
    *_rule("a step grid that is not `start:stop:step` with a positive step", 2,
           ("sweep --scenario spinless --n 1:2", "grid '1:2' must be start:stop:step"),
           ("sweep --scenario spinless --n 1:2:-1", "grid step must be positive"),
           ("sweep --scenario spinless --n 3:1:0.5", "grid stop must be >= start")),
    *_rule("a grid or sweep of more than 10⁶ points", 2,
           ("sweep --scenario spinless --n 0:1e308:1e-308", "holds more than 1000000 points"),
           ("sweep --scenario spinless --n 0:1:1e-300", "holds more than 1000000 points"),
           ("sweep --scenario spinless --n 0:1000000:1", "holds more than 1000000 points"),
           ("dynamics --p-grid log:0.1:10:1000000000", "2 <= count <= 1000000"),
           ("dynamics --p-grid log:0.1:10:1000001", "2 <= count <= 1000000"),
           ("sweep --scenario charge --n 0:4:0.004 --lambda 0:1:0.001",
            "sweep of 1001 x 1001 points exceeds 1000000")),
    *_rule("a `log:` grid whose count is not an integer", 2,
           *((f"dynamics --p-grid log:0.1:10:{count}",
              f"argument --p-grid: log grid 'log:0.1:10:{count}' needs an integer count")
             for count in ("1e1", "2.5", ""))),
    *_rule("a direction with zero or non-finite norm", 2,
           ("dynamics --p-grid 1 --direction nan,1,1", "'nan,1,1' holds a non-finite value"),
           ("dynamics --p-grid 1 --direction 0,0,0",
            "direction must be nonzero with a finite norm")),
    *_rule("a scale-factor profile that `ScaleFactorProfile` rejects", 2,
           ("dynamics --p-grid 1 --rho 0", _PROFILE + "1.0 and 0.0"),
           ("dynamics --p-grid 1 --epsilon -1", _PROFILE + "-1.0 and 1.0"),
           ("dynamics --p-grid 1 --epsilon nan", _PROFILE + "nan and 1.0"),
           ("dynamics --p-grid 1 --rho -1", _PROFILE + "1.0 and -1.0"),
           ("dynamics --p-grid 1 --rho inf", _PROFILE + "1.0 and inf"),
           ("dynamics --p-grid 1 --epsilon inf", _PROFILE + "inf and 1.0"),
           ("dynamics --epsilon 1e308 --p-grid 1", _PROFILE + "1e+308 and 1.0"),
           ("dynamics --p-grid 1 --rho 1e308", _PROFILE + "1.0 and 1e+308"),
           ("dynamics --p-grid 1 --epsilon 1e200 --rho 1e200",
            "profile needs epsilon * rho finite (it scales the mass rate), got 1e+200 and 1e+200"),
           ("dynamics --profile constant --epsilon -5 --p-grid 1", _PROFILE + "-5.0 and 1.0"),
           ("dynamics --p-grid 1 --profile constant --rho nan", _PROFILE + "1.0 and nan"),
           library=True),
    *_rule("a NaN, infinite or negative `--mass`", 2,
           ("dynamics --mass nan --p-grid 1", "mass nan must be finite and nonnegative"),
           ("dynamics --p-grid 1 --mass inf", "mass inf must be finite and nonnegative"),
           ("dynamics --p-grid 1 --mass -1", "mass -1.0 must be finite and nonnegative"),
           library=True),
    *_rule("a mass so large that (m·a)² overflows", 2,
           ("dynamics --p-grid 1 --mass 1e200",
            "mode energy overflows: |p| = 1 or m a = 1.73205e+200 squared is not a finite double"),
           ("dynamics --p-grid 1 --rho 1e300 --mass 1e10",
            "profile needs m * epsilon * rho finite"),
           library=True),
    *_rule("a grid point that would sweep more than 1e5 radians", 2,
           ("dynamics --p-grid 1 --epsilon 1e14", "exceeds the 100000 rad budget"),
           ("dynamics --p-grid 0.5,1,2 --epsilon 1e14", "exceeds the 100000 rad budget"),
           library=True),
    *_rule("a nonzero |p| below the smallest normal double", 2,
           ("dynamics --p-grid 1e-320", "is nonzero but below the smallest normal double"),
           ("dynamics --p-grid 1,1e-320", "is nonzero but below the smallest normal double"),
           ("dynamics --p-grid 0.5,1e-320,2", "is nonzero but below the smallest normal double"),
           library=True),
    *_rule("a negative `verify --seed`, and a `verify --batch` below 1 or above 10⁴", 2,
           ("verify --seed -1", "seed must be nonnegative, got -1"),
           ("verify --batch 0", "batch must be between 1 and 10000, got 0"),
           ("verify --batch -3", "batch must be between 1 and 10000, got -3"),
           ("verify --batch 10001", "batch must be between 1 and 10000, got 10001")),
    *_rule("an `--output` path that cannot be written", 2, *(
        (f"{command} --output {shlex.quote(path)}", f"cannot write --output {path}: {reason}")
        for command in (_SWEEP, _DYNAMICS, "verify --batch 2")
        for path, reason in (("missing-dir/x.csv", "No such file or directory"),
                             (".", "Is a directory"),
                             ("existing.csv/x.csv", "Not a directory"),
                             ("", "No such file or directory")))),
    *_rule("a missing `@file`", 2,
           ("sweep @missing.cfg", "[Errno 2] No such file or directory: 'missing.cfg'")),
    *_rule("an option that the command does not take", 2,
           ("dynamics --tol 1e-9 --p-grid 1", "unrecognized arguments: --tol 1e-9"),
           ("dynamics --p-grid 1 --tol 1e-6", "unrecognized arguments: --tol 1e-6"),
           ("dynamics --p-grid 1 --tol nan", "unrecognized arguments: --tol nan"),
           (f"{_SWEEP} --tolerance 1e-10", "unrecognized arguments: --tolerance 1e-10"),
           (f"{_SWEEP} --tolerance 1", "unrecognized arguments: --tolerance 1"),
           (f"{_SWEEP} --tolerance nan", "unrecognized arguments: --tolerance nan"),
           (f"{_SWEEP} --workers 2", "unrecognized arguments: --workers 2"),
           (f"{_DYNAMICS} --workers 2", "unrecognized arguments: --workers 2"),
           (f"{_SWEEP} --seed 1", "unrecognized arguments: --seed 1"),
           ("dynamics --p-grid 1 --profile constant --a0 2", "unrecognized arguments: --a0 2")),
    *_rule("an option before the command word", 2,
           ("--bogus dynamics --p-grid 1", "unrecognized arguments: --bogus")),
    *_rule("a required option left out", 2,
           ("sweep --config run.cfg", "the following arguments are required: --scenario, --n")),
    *_rule("write `--p-grid=-1,1`", 2,
           ("dynamics --p-grid -1,1", "argument --p-grid: expected one argument")),
    *_rule("a degenerate mode", 1,
           ("dynamics --p-grid 0 --mass 0", _DEGENERATE + "0 is below MIN_OUT_ENERGY = 1e-09"),
           ("dynamics --p-grid 5e-10 --mass 1e-10", _DEGENERATE + "5.29e-10 is below"),
           ("dynamics --p-grid 0 --mass 1e-160",
            _DEGENERATE + "1.73e-160 is below MIN_OUT_ENERGY = 1e-09"),
           ("dynamics --mass 0 --p-grid 0,1", _DEGENERATE),
           ("dynamics --mass 0 --p-grid 0,1 --format json", _DEGENERATE)),
    *_rule("an integration that overflows the double range", 1,
           ("dynamics --p-grid 1 --rho 1e150", "error: mode integration failed: OverflowError: ")),
    *_rule("coefficients that miss the dressing gate", 1,
           ("dynamics --epsilon 0 --p-grid 40", _GATE), ("dynamics --mass 0 --p-grid 40", _GATE)),
    *_rule("Blank lines in the file are skipped", 0,
           ("sweep @blank.cfg", ""), ("sweep @spaces.cfg", ""), ("sweep @tab.cfg", "")),
    *_rule("flags after it win", 0, ("sweep @run.cfg", ""), ("sweep @run.cfg --n 0:2:0.5", "")),
    *_rule("|p| = 0 is valid", 0, ("dynamics --p-grid 0", "")),
    *_rule("the same as `--epsilon 0`", 0, ("dynamics --p-grid 1 --epsilon 0", "")),
    *_rule("must be written `--direction=-1,0,0`", 0,
           ("dynamics --p-grid 1 --direction=-1,0,0", "")),
    *_rule("`--seed` picks only that pass's draws", 0, ("verify --seed 3 --batch 1", "")),
]


def make_files(directory) -> None:
    for name, text in FILES.items():
        (pathlib.Path(directory) / name).write_text(text, encoding="utf-8")


def table_rows(text: str, fmt: str = "csv") -> list[dict]:
    """The rows of a CSV table, or of a JSON payload's ``rows``, keyed by column."""
    if fmt == "json":
        return json.loads(text)["rows"]
    return list(csv.DictReader(io.StringIO(text)))


def problems(case: Case, code: int, out: str, err: str) -> list[str]:
    """How a run of the case, which exited with code and printed out and err, breaks its row."""
    found = ["a traceback"] if "Traceback" in err else []
    lines = err.splitlines() or [""]
    if code != case.code:
        found.append(f"exit {code}, not {case.code}")
    elif code == 2:
        # The root parser refuses an unreadable @file and an option before the command.
        root = case.expect.startswith("[Errno ") or case.words[0].startswith("-")
        prog = "cosmopair" if root else f"cosmopair {case.words[0]}"
        if not (lines[0].startswith(f"usage: {prog} ")
                and lines[-1].startswith(f"{prog}: error: ") and case.expect in lines[-1]):
            found.append(f"stderr reads {err!r}")
    elif code == 1:
        fmt = "json" if "--format json" in case.argv else "csv"
        try:
            failed = [row for row in table_rows(out, fmt) if row["status"] != "ok"]
        except (ValueError, KeyError):
            return [*found, f"stdout reads {out!r}"]
        if not failed or err != f"{len(failed)} momentum points failed\n":
            found.append(f"{len(failed)} error rows, stderr reads {err!r}")
        found += [f"error row {row}" for row in failed
                  if not row["status"].startswith(case.expect)
                  or any(row[name] not in ("", None) for name in row if name not in ("p", "status"))]
    elif err:
        found.append(f"stderr reads {err!r}")
    return found


def main() -> int:
    """Run every case through the installed ``cosmopair``; one line per case."""
    failed = 0
    with tempfile.TemporaryDirectory() as directory:
        make_files(directory)
        for case in CASES:
            try:
                done = subprocess.run(["cosmopair", *case.words], cwd=directory,
                                      capture_output=True, text=True, timeout=60)
                found = problems(case, done.returncode, done.stdout, done.stderr)
            except subprocess.TimeoutExpired:
                found = ["still running after 60 s"]
            failed += bool(found)
            print("FAIL" if found else "ok  ", case.argv, *(["--", *found] if found else []))
    print(f"{failed} of {len(CASES)} cases failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
