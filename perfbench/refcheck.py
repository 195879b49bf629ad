"""Correctness check of one CLI output against its frozen reference.

Every output row is judged two ways:

* against the reference, where the reference has a row for its key:
  the compared columns must agree within the pinned gate (1e-10 on
  sweep entropies, 1e-6 on the dynamics pipeline columns; verify
  checks must PASS). A disagreement makes the command's output wrong.
* by the program's own gates: sweep discrepancy <= 1e-10; dynamics
  status ``ok``, |S_numeric - S_closed| <= 1e-6 and norm_residual <=
  10 * tol; verify PASS. A row failing these counts against
  ``failed_fraction``. It makes the output wrong only when the
  reference holds values for it, i.e. it passed these gates when frozen.

The reference holds no values for rows that failed when it was frozen
(the dynamics points above |p| ~ 20), so a later fix there counts as
fewer failed rows, not as a mismatch.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field

SWEEP_GATE = 1e-10
DYNAMICS_GATE = 1e-6
DYNAMICS_TOL = 1e-9
NORM_GATE = 10 * DYNAMICS_TOL

KINDS = {
    "sweep": {"gate": SWEEP_GATE, "columns": ("S_numeric", "S_closed")},
    "dynamics": {"gate": DYNAMICS_GATE,
                 "columns": ("A", "beta_uu", "beta_ud", "beta_du", "beta_dd", "n_created",
                             "lambda_effective", "S_numeric", "S_closed")},
    "verify": {"gate": 0.0, "columns": ()},
}

_VERIFY_LINE = re.compile(r"^(PASS|FAIL)\s+(\S+)\s+residual\s")


@dataclass
class Row:
    key: tuple
    values: dict
    program_ok: bool   # the program's own verdict, which sets its exit code
    gate_ok: bool      # the benchmark's pinned gates (program_ok and more)


@dataclass
class Outcome:
    rows: int = 0
    rows_ok: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


def _number(text: str):
    return float(text) if text != "" else None


def _round(x: float) -> float:
    return float(f"{x:.12g}")


def _within(value, limit: float) -> bool:
    return value is not None and value <= limit


def parse_rows(kind: str, text: str) -> list[Row]:
    """Rows of a default-format (CSV or text report) CLI output."""
    if kind == "verify":
        rows = []
        for line in text.splitlines():
            match = _VERIFY_LINE.match(line)
            if match:
                ok = match.group(1) == "PASS"
                rows.append(Row((match.group(2),), {}, ok, ok))
        return rows
    rows = []
    for record in csv.DictReader(io.StringIO(text)):
        if kind == "sweep":
            values = {k: _number(v) for k, v in record.items()
                      if k not in ("scenario", "input_state")}
            ok = _within(values["discrepancy"], SWEEP_GATE)
            rows.append(Row((_round(values["n"]), _round(values["lambda"])), values, ok, ok))
        else:
            status = record.pop("status")
            values = {k: _number(v) for k, v in record.items()}
            program_ok = status == "ok"
            gate_ok = (program_ok and _within(values["discrepancy"], DYNAMICS_GATE)
                       and _within(values["norm_residual"], NORM_GATE))
            rows.append(Row((_round(values["p"]),), values, program_ok, gate_ok))
    return rows


def reference_from_rows(kind: str, rows: list[Row]) -> dict:
    """Freeze rows as a reference; rows failing the gates get no values."""
    columns = KINDS[kind]["columns"]
    return {"kind": kind, "gate": KINDS[kind]["gate"], "columns": list(columns),
            "rows": [[list(r.key), [r.values[c] for c in columns] if r.gate_ok else None]
                     for r in rows]}


def check(kind: str, text: str, exit_code: int, reference: dict) -> Outcome:
    """Judge one command's stdout and exit code against the reference."""
    outcome = Outcome()
    try:
        rows = parse_rows(kind, text)
    except (KeyError, ValueError, TypeError) as err:
        outcome.problems.append(f"malformed output: {err!r}")
        outcome.rows = len(reference["rows"])
        return outcome
    expected = {tuple(key): values for key, values in reference["rows"]}
    gate, columns = reference["gate"], reference["columns"]
    seen = set()
    for row in rows:
        if row.key not in expected:
            outcome.problems.append(f"unexpected row {row.key}")
            continue
        if row.key in seen:
            outcome.problems.append(f"duplicate row {row.key}")
            continue
        seen.add(row.key)
        ok = row.gate_ok
        ref = expected[row.key]
        if ref is not None:
            if not row.gate_ok:
                outcome.problems.append(f"row {row.key} fails its gates but passed them "
                                        "in the reference")
            for column, want in zip(columns, ref):
                got = row.values.get(column)
                if got is None or abs(got - want) > gate:
                    outcome.problems.append(f"row {row.key} {column} {got!r} differs from "
                                            f"reference {want!r} beyond {gate:g}")
                    ok = False
        outcome.rows += 1
        outcome.rows_ok += ok
    missing = len(expected) - len(seen)
    if missing:
        outcome.problems.append(f"{missing} reference rows missing from the output")
        outcome.rows += missing
    want_exit = 0 if all(r.program_ok for r in rows) else 1
    if exit_code != want_exit:
        outcome.problems.append(f"exit code {exit_code}, expected {want_exit}")
    return outcome
