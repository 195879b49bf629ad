"""Tests of the benchmark itself, on tiny grids.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import bench
import refcheck
import spantrace

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(name: str) -> bench.Workload:
    """The workload on a few points of its own grid, with the matching reference."""
    full = bench.load_workload(name)
    rows = full.reference["rows"]
    if name == "dynamics-wide":
        # The first grid point passes; the first point past |p| ~ 20 fails at seed.
        first = tuple(rows[0][0])
        failing = next(tuple(key) for key, values in rows if values is None)
        grid = ",".join(repr(key[0]) for key in (first, failing))
        args = full.args[:-1] + (grid,)
        keep = {first, failing}
    elif name == "sweep-charge":
        args = ("sweep", "--scenario", "charge", "--n", "0:0.02:0.01", "--lambda", "0:1:0.5")
        keep = {(n, lam) for n in (0.0, 0.01, 0.02) for lam in (0.0, 0.5, 1.0)}
    else:
        args = ("verify", "--batch", "2")
        keep = {tuple(key) for key, _ in rows}
    reference = dict(full.reference, rows=[row for row in rows if tuple(row[0]) in keep])
    assert len(reference["rows"]) == len(keep)
    return bench.Workload(name, full.kind, args, reference)


def test_benchmark_json_matches_the_harness():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(bench.END_TO_END_METRICS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        list(spantrace.PER_LAYER_METRICS)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(bench.WORKLOAD_ARGS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(bench.WORKLOAD_ARGS))
def test_workload_emits_every_named_metric_with_its_unit(name, trace, monkeypatch):
    monkeypatch.setattr(bench, "MIN_SETUPS", 1)
    record = bench.run_workload(_tiny(name), seed=7, seconds=0.1, trace=trace)
    result = record["result"]
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["correct"], record["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert metrics["wall_ref"] > 0 and metrics["setup_s"] > 0
        assert record["notes"]["cpu_s"] > 0 and record["notes"]["ref_s"] > 0
        # The failing dynamics point is measured, not fatal (the command exits 1).
        assert metrics["ok_fraction"] == (0.5 if name == "dynamics-wide" else 1.0)
    elif name == "dynamics-wide":
        assert metrics["dynamics.momentum_point.calls"] == 2
        assert metrics["dynamics.momentum_point.errors"] == 1
        assert metrics["dynamics.integrations_per_point"] == 2
        assert metrics["dynamics.rhs_evals"] > 0
    elif name == "sweep-charge":
        assert metrics["bogoliubov.from_density.calls"] == 9
        assert metrics["fock.partial_trace.calls"] == 9
    else:
        assert metrics["verify.checks"] == 33 and metrics["verify.checks_failed"] == 0
        assert metrics["squeezing.apply_decoupled.calls"] > 0


CSV_HEADER = {
    "sweep": "scenario,input_state,n,lambda,S_numeric,S_closed,discrepancy",
    "dynamics": "p,A,beta_uu,beta_ud,beta_du,beta_dd,n_created,lambda_effective,"
                "S_numeric,S_closed,discrepancy,norm_residual,self_convergence,status",
}


def _sweep_text(rows) -> str:
    """CLI-shaped sweep CSV whose values are the reference rows."""
    lines = [CSV_HEADER["sweep"]]
    for (n, lam), (s_num, s_closed) in rows:
        lines.append(f"charge,0.0,{n!r},{lam!r},{s_num!r},{s_closed!r},{abs(s_num - s_closed)!r}")
    return "\n".join(lines) + "\n"


def _dynamics_text(rows) -> str:
    """CLI-shaped dynamics CSV whose values are the reference rows."""
    lines = [CSV_HEADER["dynamics"]]
    for (p,), values in rows:
        s_num, s_closed = values[-2:]
        numbers = (p, *values, abs(s_num - s_closed), 1e-9, 1e-9)
        lines.append(",".join(repr(v) for v in numbers) + ",ok")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, render", [("sweep-charge", _sweep_text),
                                          ("dynamics-wide", _dynamics_text)])
def test_checker_fails_a_row_perturbed_beyond_its_gate(name, render):
    reference = bench.load_workload(name).reference
    kind, gate = reference["kind"], reference["gate"]
    rows = [row for row in reference["rows"] if row[1] is not None][:5]
    reference = dict(reference, rows=rows)
    text = render(rows)

    clean = refcheck.check(kind, text, 0, reference)
    assert clean.correct and clean.rows == clean.rows_ok == 5

    def perturbed(shift):
        ref_rows = [list(row) for row in rows]
        ref_rows[2] = [ref_rows[2][0], [v + shift for v in ref_rows[2][1]]]
        return dict(reference, rows=ref_rows)

    inside = refcheck.check(kind, text, 0, perturbed(0.5 * gate))
    assert inside.correct and inside.rows_ok == 5
    beyond = refcheck.check(kind, text, 0, perturbed(2.0 * gate))
    assert not beyond.correct and beyond.rows == 5 and beyond.rows_ok == 4


def test_checker_judges_rows_without_reference_by_program_gates():
    reference = bench.load_workload("dynamics-wide").reference
    (key, values), = [row for row in reference["rows"] if row[1] is not None][:1]
    unreferenced = dict(reference, rows=[[key, None]])
    text = _dynamics_text([(key, values)])
    fixed = refcheck.check("dynamics", text, 0, unreferenced)
    assert fixed.correct and fixed.rows_ok == 1
    failing = text.replace(",ok\n", ",error: dressed coefficients\n")
    still_failing = refcheck.check("dynamics", failing, 1, unreferenced)
    assert still_failing.correct and still_failing.rows_ok == 0
    wrong_exit = refcheck.check("dynamics", failing, 0, unreferenced)
    assert not wrong_exit.correct


def test_pool_items_get_the_map_span_as_parent():
    tracer = spantrace.Tracer()

    def pool_map(workers):
        pool = ThreadPoolExecutor(max_workers=workers)
        return pool.map, pool

    inner = tracer.wrap("x.inner", lambda v: 2 * v)
    map_fn, pool = tracer.wrap_pool_map(pool_map)(2)
    try:
        assert list(map_fn(inner, range(6))) == [0, 2, 4, 6, 8, 10]
    finally:
        pool.shutdown()
    spans = {s[0]: dict(zip(spantrace.SPAN_FIELDS, s)) for s in tracer.spans}
    (map_span,) = [s for s in spans.values() if s["name"] == "cli.pool_map"]
    inners = [s for s in spans.values() if s["name"] == "x.inner"]
    assert len(inners) == 6
    for span in inners:
        item = spans[span["parent"]]
        assert item["name"] == "cli.pool_item" and item["parent"] == map_span["id"]
    overlap = spantrace.layer_metrics({"spans": tracer.spans})["cli.pool_overlap"]
    assert 0 < overlap


def test_bench_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/bench.py", "--workload", "sweep-charge",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
