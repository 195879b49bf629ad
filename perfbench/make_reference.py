"""Freeze the reference outputs the benchmark checks every run against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's CLI command once (verify with its default seed 7)
and writes ``reference/<workload>.json``. Rows that fail the program's
own gates are stored without values, so they are judged by those gates
alone. Regenerate only when the program's outputs are meant to change;
the references are the correctness gate of every later measurement.
"""

from __future__ import annotations

import json
import sys

import bench
import refcheck


def freeze(name: str) -> dict:
    kind, args = bench.WORKLOAD_ARGS[name]
    env, _ = bench.environment()
    bench.OUT.mkdir(exist_ok=True)
    out, err = bench.OUT / f"reference-{name}.out", bench.OUT / f"reference-{name}.err"
    child = bench.run_child([sys.executable, "-c", bench.ENTRY, *args], env, out, err,
                            timeout=600.0)
    if child.exit_code not in (0, 1):
        raise SystemExit(f"{name}: command exited {child.exit_code}; see {err}")
    rows = refcheck.parse_rows(kind, out.read_text(encoding="utf-8"))
    return {"workload": name, "args": list(args),
            **refcheck.reference_from_rows(kind, rows)}


def main(names: list[str]) -> int:
    for name in names or sorted(bench.WORKLOAD_ARGS):
        reference = freeze(name)
        path = bench.HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        rows = reference.pop("rows")
        # One row per line keeps the file reviewable in diffs.
        body = ",\n".join(json.dumps(row) for row in rows)
        head = json.dumps(reference)[:-1]
        path.write_text(f'{head}, "rows": [\n{body}\n]}}\n', encoding="utf-8")
        empty = sum(values is None for _, values in rows)
        print(f"{path.name}: {len(rows)} rows, {empty} without reference values")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
