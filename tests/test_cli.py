import argparse
import ast
import errno
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from cosmopair import cli
from cosmopair import dynamics as dyn
from cosmopair import entanglement as ent
from cosmopair import verify as verify_mod
from cosmopair.bogoliubov import THETA_CHECK_TOLERANCE, Scenario


def test_parse_grid_step_form():
    grid = cli.parse_grid("0:4:0.1")
    assert len(grid) == 41
    assert grid[0] == 0.0 and grid[-1] == 4.0
    assert abs(grid[13] - 1.3) <= 1e-12


def test_parse_grid_list_and_scalar():
    assert cli.parse_grid("0,0.5,1") == [0.0, 0.5, 1.0]
    assert cli.parse_grid("2") == [2.0]


def test_a_negative_zero_is_read_as_zero(capsys):
    assert cli.main(["sweep", "--scenario", "spinless", "--n", "-0"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[2] == "0"
    assert cli.main(["sweep", "--scenario", "charge", "--n", "1", "--lambda", "-0",
                     "--format", "json"]) == 0
    assert '"lambda": 0.0,' in capsys.readouterr().out


@pytest.mark.parametrize("parse, text", [
    (cli.parse_grid, "-0"),
    (cli.parse_grid, "-0,1"),
    (cli.parse_momentum_grid, "-0,1"),
    (cli._parse_direction, "-0,-0,1"),
])
def test_every_spec_parser_reads_a_negative_zero_as_zero(parse, text):
    assert all(math.copysign(1.0, value) == 1.0 for value in parse(text))


def test_parse_grid_errors():
    for bad in ("", "1:2", "1:2:-1", "3:1:0.5"):
        with pytest.raises(ValueError):
            cli.parse_grid(bad)
    for empty in (",", " , ,"):
        with pytest.raises(ValueError, match="empty grid specification"):
            cli.parse_grid(empty)
    # An overflowing point count, and one point above the bound; each is
    # refused before any list is built.
    for huge in ("0:1e308:1e-308", f"0:{cli.MAX_GRID_POINTS}:1"):
        with pytest.raises(ValueError, match=f"more than {cli.MAX_GRID_POINTS} points"):
            cli.parse_grid(huge)
    assert len(cli.parse_grid(f"1:{cli.MAX_GRID_POINTS}:1")) == cli.MAX_GRID_POINTS
    with pytest.raises(ValueError, match=f"count <= {cli.MAX_GRID_POINTS}"):
        cli.parse_momentum_grid(f"log:0.1:10:{cli.MAX_GRID_POINTS + 1}")
    for count in ("1e1", "2.5", ""):
        with pytest.raises(ValueError) as err:
            cli.parse_momentum_grid(f"log:0.1:10:{count}")
        assert str(err.value) == f"log grid 'log:0.1:10:{count}' needs an integer count"


def test_a_sweep_above_the_point_bound_is_refused_before_it_runs(monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("sweep ran")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    # 1001 x 1001 points: each grid is within the bound, their product is not.
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep", "--scenario", "charge", "--n", "0:4:0.004",
                  "--lambda", "0:1:0.001"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: cosmopair sweep ")
    assert f"1001 x 1001 points exceeds {cli.MAX_GRID_POINTS}" in stderr


def test_parse_momentum_grid_log():
    grid = cli.parse_momentum_grid("log:0.1:10:30")
    assert len(grid) == 30
    assert abs(grid[0] - 0.1) <= 1e-15
    assert abs(grid[-1] - 10.0) <= 1e-12
    ratios = [grid[k + 1] / grid[k] for k in range(29)]
    assert max(ratios) - min(ratios) <= 1e-12


def test_state_tokens_round_trip():
    for token, occ in (("vac", 0), ("up.up", 0b0101), ("updown.0", 0b0011),
                       ("down.updown", 0b1110), ("0.down", 0b1000)):
        assert cli.state_token_to_occupation(token, Scenario.CHARGE_ONLY) == occ
    assert cli.state_token_to_occupation("1.1", Scenario.SPINLESS) == 0b11
    assert cli.occupation_to_state_token(0b0101, Scenario.CHARGE_ONLY) == "up.up"
    assert cli.occupation_to_state_token(0b10, Scenario.SPINLESS) == "0.1"


def test_state_token_errors():
    with pytest.raises(ValueError):
        cli.state_token_to_occupation("up", Scenario.CHARGE_ONLY)
    with pytest.raises(ValueError):
        cli.state_token_to_occupation("up.up", Scenario.SPINLESS)


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--scenario", "spin-am", "--state", "vac",
                     "--n", "0:4:0.1", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "scenario,input_state,n,lambda,S_numeric,S_closed,discrepancy"
    assert len(lines) == 42
    row = lines[21].split(",")
    assert row[0] == "spin-am" and row[1] == "0.0"
    assert abs(float(row[2]) - 2.0) <= 1e-12
    assert abs(float(row[4]) - 2.0) <= 1e-10


def test_sweep_spinless_maximum(capsys):
    code = cli.main(["sweep", "--scenario", "spinless", "--state", "vac", "--n", "1"])
    assert code == 0
    body = capsys.readouterr().out.strip().split("\n")
    value = float(body[1].split(",")[4])
    assert abs(value - 1.0) <= 1e-10


def test_sweep_json_schema(tmp_path):
    out = tmp_path / "sweep.json"
    code = cli.main(["sweep", "--scenario", "charge", "--state", "up.up", "--n", "2",
                     "--lambda", "0.5", "--format", "json", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["command"] == "sweep"
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    assert row["input_state"] == "up.up"
    assert row["discrepancy"] <= 1e-10


def test_sweep_exit_one_on_tolerance_breach(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "SWEEP_GATE", 1e-30)
    code = cli.main(["sweep", "--scenario", "charge", "--state", "vac", "--n",
                     "0.5,1.5", "--lambda", "0.5",
                     "--output", str(tmp_path / "x.csv")])
    assert code == 1
    assert "exceed tolerance" in capsys.readouterr().err


# 603 points: four full blocks of the scoring route, then 91.
STREAMED_SWEEP = ["sweep", "--scenario", "charge", "--n", "0:4:0.02", "--lambda", "0:1:0.5"]


def one_shot_rendering(fmt: str, columns, rows, head: dict, tail: dict) -> str:
    """Every row rendered at once: the joined CSV lines, or one ``json.dumps`` of the payload."""
    if fmt == "json":
        def value(v):
            return v if v is None or isinstance(v, str) else float(f"{v:.15g}")
        payload = {"schema_version": cli.SCHEMA_VERSION, **head,
                   "rows": [dict(zip(columns, map(value, row))) for row in rows], **tail}
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join("" if v is None else v if isinstance(v, str) else f"{v:.15g}" for v in row)
             for row in rows]
    return "\n".join([",".join(columns), *lines]) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_rows_equal_the_one_shot_rendering(fmt, tmp_path, capsys):
    rows = [("charge", "0.0", *row)
            for block in ent.sweep(Scenario.CHARGE_ONLY, 0, cli.parse_grid("0:4:0.02"),
                                   cli.parse_grid("0:1:0.5"))
            for row in block]
    assert len(rows) == 603
    expected = one_shot_rendering(fmt, cli.SWEEP_COLUMNS, rows,
                                  {"command": "sweep", "tolerance": cli.SWEEP_GATE},
                                  {"all_within_tolerance": True})
    assert cli.main(STREAMED_SWEEP + ["--format", fmt]) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / f"sweep.{fmt}"
    assert cli.main(STREAMED_SWEEP + ["--format", fmt, "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected
    # dynamics rows come one block each; an error row holds None and text.
    argv = ["dynamics", "--mass", "0", "--p-grid", "0,1", "--format", fmt]
    args = argparse.Namespace(mass=0.0)
    rows = [cli._dynamics_row(p, (p / math.sqrt(3),) * 3, dyn.ScaleFactorProfile(1.0, 1.0), args)
            for p in (0.0, 1.0)]
    assert rows[0][-1].startswith("error: ") and rows[1][-1] == "ok"
    assert cli.main(argv) == 1
    assert capsys.readouterr().out == one_shot_rendering(
        fmt, cli.DYNAMICS_COLUMNS, rows, {"command": "dynamics", "profile": "tanh"}, {})


def test_every_breach_is_counted_and_the_first_20_are_named(capsys, monkeypatch):
    # Every row breaches a negative gate, in every block.
    monkeypatch.setattr(cli, "SWEEP_GATE", -1.0)
    assert cli.main(STREAMED_SWEEP + ["--format", "json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["all_within_tolerance"] is False
    stderr = captured.err.splitlines()
    assert stderr[0] == "603 rows exceed tolerance -1.0:"
    n_grid = cli.parse_grid("0:4:0.02")
    assert stderr[1:] == [f"  state 0.0 n={n:.15g} lambda={lam:.15g} discrepancy={gap:.15g}"
                          for n, lam, _, _, gap in next(ent.sweep(
                              Scenario.CHARGE_ONLY, 0, n_grid[:7], [0.0, 0.5, 1.0]))[:20]]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_run_that_fails_midway_leaves_no_output_file(fmt, tmp_path, capsys, monkeypatch):
    scored, score = [], ent.score

    def failing_on_the_second_block(*args):
        scored.append(args)
        if len(scored) == 2:
            raise ValueError("second block refused")
        return score(*args)

    monkeypatch.setattr(ent, "score", failing_on_the_second_block)
    out = tmp_path / f"sweep.{fmt}"
    with pytest.raises(SystemExit) as err:
        cli.main(STREAMED_SWEEP + ["--format", fmt, "--output", str(out)])
    assert err.value.code == 2
    assert len(scored) == 2
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err.splitlines()[-1] == \
        "cosmopair sweep: error: second block refused"


def test_sweep_rejects_bad_state():
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep", "--scenario", "spinless", "--state", "up.up", "--n", "1"])
    assert err.value.code == 2


def test_sweep_missing_lambda_for_charge_only():
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep", "--scenario", "charge", "--state", "vac", "--n", "1"])
    assert err.value.code == 2


def test_config_file_expansion(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("--scenario=spinless\n--state=vac\n--n=1\n")
    out = tmp_path / "out.csv"
    code = cli.main(["sweep", f"@{config}", "--output", str(out)])
    assert code == 0
    assert "spinless" in out.read_text()
    for argv in (["sweep", f"@{tmp_path / 'missing.cfg'}"], ["sweep", "--config", str(config)]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2


@pytest.mark.parametrize("blank", ["", "   ", "\t"], ids=["empty", "spaces", "tab"])
def test_config_file_blank_lines_are_skipped(blank, tmp_path, capsys):
    # A blank line adds no argument; argparse would refuse an empty one.
    config = tmp_path / "run.cfg"
    config.write_text(f"--scenario=spinless\n{blank}\n--n=1\n")
    assert cli.main(["sweep", f"@{config}"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("spinless,0.0,1,")


def test_config_file_overridden_by_flags(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("--scenario=spinless\n--state=vac\n--n=1\n")
    out = tmp_path / "out.csv"
    code = cli.main(["sweep", f"@{config}", "--n", "2", "--output", str(out)])
    assert code == 0
    assert out.read_text().strip().split("\n")[1].split(",")[2] == "2"


def test_json_top_level_key_order(tmp_path):
    out = tmp_path / "out.json"
    for argv, keys in (
            (["sweep", "--scenario", "spinless", "--n", "1"],
             ["schema_version", "command", "tolerance", "rows", "all_within_tolerance"]),
            (["dynamics", "--profile", "constant", "--p-grid", "1"],
             ["schema_version", "command", "profile", "rows"])):
        assert cli.main(argv + ["--format", "json", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert list(payload) == keys
        assert payload["command"] == argv[0]


def test_dynamics_constant_profile(tmp_path):
    out = tmp_path / "dyn.csv"
    code = cli.main(["dynamics", "--profile", "constant", "--p-grid", "0.5,1.0",
                     "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("p,A,beta_uu")
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[-1] == "ok"
        assert float(fields[6]) <= 1e-8   # n_created
        assert float(fields[8]) <= 1e-6   # S_numeric


def test_dynamics_json(tmp_path):
    out = tmp_path / "dyn.json"
    code = cli.main(["dynamics", "--profile", "tanh", "--epsilon", "1", "--rho", "1",
                     "--mass", "1", "--p-grid", "1.0",
                     "--format", "json", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    row = payload["rows"][0]
    assert row["status"] == "ok"
    assert row["norm_residual"] <= 1e-6
    assert row["discrepancy"] <= 1e-6


def test_verify_text_deterministic(tmp_path):
    first = tmp_path / "report1.txt"
    second = tmp_path / "report2.txt"
    assert cli.main(["verify", "--batch", "5", "--output", str(first)]) == 0
    assert cli.main(["verify", "--batch", "5", "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert "checks passed" in first.read_text()


def test_verify_json_report(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--batch", "5", "--report", "json",
                     "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["all_passed"] is True
    assert all("residual" in c for c in payload["checks"])


def test_verify_rejects_a_batch_out_of_range(tmp_path, capsys):
    for batch in ("0", "-3", "1000001"):
        out = tmp_path / f"report{batch}.txt"
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "--batch", batch, "--output", str(out)])
        assert err.value.code == 2
        assert not out.exists()
        assert f"batch must be between 1 and 1000000, got {batch}" in capsys.readouterr().err


def test_verify_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "report.txt"
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--seed", "-1", "--output", str(out)])
    assert err.value.code == 2
    assert not out.exists()
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: cosmopair verify ")
    assert "seed must be nonnegative, got -1" in stderr


def test_dynamics_exit_one_on_failing_point(tmp_path, capsys):
    # massless zero-momentum mode has no out-region frequency to match
    argv = ["dynamics", "--profile", "tanh", "--mass", "0", "--p-grid", "0,1"]
    out = tmp_path / "dyn.csv"
    code = cli.main(argv + ["--output", str(out)])
    assert code == 1
    lines = out.read_text().strip().split("\n")
    assert any("error" in line for line in lines[1:])
    assert any(line.endswith("ok") for line in lines[1:])
    assert "failed" in capsys.readouterr().err

    out = tmp_path / "dyn.json"
    assert cli.main(argv + ["--format", "json", "--output", str(out)]) == 1
    failed, ok = json.loads(out.read_text())["rows"]
    assert list(failed) == list(ok) == list(cli.DYNAMICS_COLUMNS)
    assert failed["p"] == 0.0 and failed["status"].startswith("error: ")
    assert all(failed[k] is None for k in cli.DYNAMICS_COLUMNS if k not in ("p", "status"))
    assert ok["status"] == "ok"


@pytest.mark.parametrize("flags, reason", [
    (["--p-grid", "0", "--mass", "1e-160"],
     "error: degenerate mode: out-region energy 1.73e-160 is below MIN_OUT_ENERGY = 1e-09"),
    (["--p-grid", "1", "--rho", "1e150"], "error: mode integration failed: OverflowError: "),
], ids=["degenerate", "overflow"])
def test_a_point_that_would_crash_the_stepper_is_an_error_row(flags, reason, tmp_path, capsys):
    out = tmp_path / "dyn.csv"
    assert cli.main(["dynamics", *flags, "--output", str(out)]) == 1
    (row,) = out.read_text().splitlines()[1:]
    assert row.split(",")[-1].startswith(reason)
    assert capsys.readouterr().err == "1 momentum points failed\n"


def test_every_grid_point_is_checked_before_the_first_row(tmp_path, capsys, monkeypatch):
    # A rule that refuses only the interior point: checking the extremes would miss it.
    real_check = dyn.check_point

    def refuse_unit_momentum(p_vec, *args):
        if math.isclose(math.hypot(*p_vec), 1.0):
            raise ValueError("refused |p| = 1")
        return real_check(p_vec, *args)

    monkeypatch.setattr(cli, "check_point", refuse_unit_momentum)
    monkeypatch.setattr(dyn, "check_point", refuse_unit_momentum)
    out = tmp_path / "dyn.csv"
    with pytest.raises(SystemExit) as err:
        cli.main(["dynamics", "--p-grid", "0.5,1,2", "--output", str(out)])
    assert err.value.code == 2
    assert not out.exists()
    assert capsys.readouterr().err.splitlines()[-1] == "cosmopair dynamics: error: refused |p| = 1"


def test_dynamics_rows_report_the_momentum_modulus(tmp_path, monkeypatch):
    # p is |p| on ok and error rows alike.
    real_point = cli.momentum_point

    def failing_above_10(p_vec, *args, **kwargs):
        if max(map(abs, p_vec)) > 10:
            raise dyn.IntegrationError("refused")
        return real_point(p_vec, *args, **kwargs)

    monkeypatch.setattr(cli, "momentum_point", failing_above_10)
    out = tmp_path / "dyn.csv"
    assert cli.main(["dynamics", "--p-grid=-1,1,-40", "--output", str(out)]) == 1
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(row[0], row[-1] == "ok") for row in rows] == [("1", True), ("1", True),
                                                           ("40", False)]


@pytest.mark.parametrize("argv", [
    ["sweep", "--scenario", "spinless", "--n", "0:inf:1"],
    ["dynamics", "--p-grid", "nan"],
    ["dynamics", "--p-grid", "log:0.1:inf:3"],
    ["dynamics", "--p-grid", "1", "--direction", "nan,1,1"],
    ["dynamics", "--p-grid", "1", "--mass", "nan"],
    ["dynamics", "--p-grid", "1", "--mass", "inf"],
    ["dynamics", "--p-grid", "1", "--epsilon", "inf"],
    ["dynamics", "--p-grid", "1", "--rho", "inf"],
], ids=["n-inf", "p-nan", "log-p-inf", "direction-nan", "mass-nan", "mass-inf",
        "epsilon-inf", "rho-inf"])
def test_non_finite_input_is_a_usage_error(argv, tmp_path):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--output", str(out)])
    assert err.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["dynamics", "--p-grid", "1", "--tol", "1e-9"], "--tol"),
    (["dynamics", "--p-grid", "1", "--tol", "1e-6"], "--tol"),
    (["dynamics", "--p-grid", "1", "--tol", "nan"], "--tol"),
    (["sweep", "--scenario", "spinless", "--n", "1", "--tolerance", "1e-10"], "--tolerance"),
    (["sweep", "--scenario", "spinless", "--n", "1", "--tolerance", "1"], "--tolerance"),
    (["sweep", "--scenario", "spinless", "--n", "1", "--tolerance", "nan"], "--tolerance"),
], ids=["tol-default", "tol-above-the-scoring-gate", "tol-nan", "tolerance-default",
        "tolerance-loosened", "tolerance-nan"])
def test_the_accuracy_gates_are_not_options(argv, flag, capsys):
    # Both gates are fixed: the flags that once moved them are unknown,
    # whatever value they are given.
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--rho", "0"], "profile needs epsilon >= 0 and rho > 0"),
    (["--epsilon", "-1"], "profile needs epsilon >= 0 and rho > 0"),
    # --a0 went with the constant family: a constant a0 only rescaled the mass.
    (["--profile", "constant", "--a0", "2"], "unrecognized arguments: --a0 2"),
    # The flat profile ignores epsilon and rho, but it does not skip their check.
    (["--profile", "constant", "--epsilon", "-5"], "profile needs epsilon >= 0 and rho > 0"),
    (["--profile", "constant", "--rho", "nan"], "profile needs epsilon >= 0 and rho > 0"),
], ids=["rho-zero", "epsilon-negative", "a0-is-gone", "constant-epsilon-negative",
        "constant-rho-nan"])
def test_dynamics_profile_errors_are_usage_errors(flags, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["dynamics", "--p-grid", "1", "--output", str(tmp_path / "x.csv")] + flags)
    assert err.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--scenario", "spinless", "--n", "a"], "argument --n: 'a' in 'a' is not a number"),
    (["sweep", "--scenario", "spinless", "--n", "1,b"],
     "argument --n: 'b' in '1,b' is not a number"),
    (["dynamics", "--p-grid", "log:x:10:5"],
     "argument --p-grid: 'x' in 'log:x:10:5' is not a number"),
    (["dynamics", "--direction", "a,1,1"],
     "argument --direction: 'a' in 'a,1,1' is not a number"),
], ids=["n-word", "n-list", "log-start", "direction"])
def test_parse_errors_name_the_flag_and_the_spec(argv, message, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"cosmopair {argv[0]}: error: {message}"


def test_a_lambda_grid_outside_charge_only_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep", "--scenario", "spinless", "--n", "1", "--lambda", "5",
                  "--output", str(out)])
    assert err.value.code == 2
    assert not out.exists()
    assert "only a charge-only sweep takes a lambda grid" in capsys.readouterr().err


def test_a_subnormal_momentum_is_a_usage_error_before_any_row(tmp_path, capsys):
    # The grid's first point is fine; every point is checked before the first row.
    out = tmp_path / "dyn.csv"
    with pytest.raises(SystemExit) as err:
        cli.main(["dynamics", "--p-grid", "1,1e-320", "--output", str(out)])
    assert err.value.code == 2
    assert not out.exists()
    assert "below the smallest normal double" in capsys.readouterr().err
    assert cli.main(["dynamics", "--p-grid", "0", "--output", str(out)]) == 0


def test_epsilon_zero_runs_the_flat_profile(tmp_path):
    def rows(*flags):
        out = tmp_path / "dyn.csv"
        assert cli.main(["dynamics", "--p-grid", "0,1,3", *flags, "--output", str(out)]) == 0
        return out.read_text()

    assert rows("--profile", "tanh", "--epsilon", "0") == rows("--profile", "constant")


@pytest.mark.parametrize("argv", [
    ["sweep", "--scenario", "spinless", "--n", "1"],
    ["dynamics", "--profile", "constant", "--p-grid", "1"],
    ["verify", "--batch", "2"],
], ids=["sweep", "dynamics", "verify"])
@pytest.mark.parametrize("where, reason", [
    ("missing/out.txt", "No such file or directory"),
    (".", "Is a directory"),
    ("file/out.txt", "Not a directory"),
    ("", "No such file or directory"),
], ids=["missing-directory", "directory", "under-a-file", "empty"])
def test_an_unwritable_output_is_a_usage_error(argv, where, reason, tmp_path, capsys,
                                               monkeypatch):
    # Each path is refused before any row is computed, and nothing is created.
    def no_rows(*args, **kwargs):
        raise AssertionError("rows computed")

    monkeypatch.setattr(cli, "sweep", no_rows)
    monkeypatch.setattr(cli, "momentum_point", no_rows)
    monkeypatch.setattr(verify_mod, "run_all", no_rows)
    (tmp_path / "file").write_text("")
    path = os.path.join(tmp_path, where) if where else ""
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--output", path])
    assert err.value.code == 2
    assert sorted(q.name for q in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == ""
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"usage: cosmopair {argv[0]} ")
    assert stderr.splitlines()[-1] == (f"cosmopair {argv[0]}: error: cannot write --output "
                                       f"{path}: {reason}")


@pytest.mark.parametrize("argv", [
    ["sweep", "--scenario", "spinless", "--n", "1"],
    ["dynamics", "--profile", "constant", "--p-grid", "1"],
], ids=["sweep", "dynamics"])
def test_an_output_that_cannot_be_opened_is_refused_before_the_first_row(argv, tmp_path, capsys,
                                                                         monkeypatch):
    # A directory without write permission, which root would not see: open() refuses.
    def no_rows(*args, **kwargs):
        raise AssertionError("rows computed")

    def refuse(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    monkeypatch.setattr(ent, "from_density", no_rows)
    monkeypatch.setattr(cli, "momentum_point", no_rows)
    monkeypatch.setattr(cli, "open", refuse, raising=False)
    path = str(tmp_path / "out.csv")
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--output", path])
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"cosmopair {argv[0]}: error: cannot write --output {path}: Permission denied")


def _run_cli(argv, timeout: float, **environ) -> subprocess.CompletedProcess:
    """Python with argv in a child process over this checkout's ``src/``, killed after timeout.

    Each keyword sets an environment variable of the child; None removes it.
    """
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for key, value in environ.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=timeout)


RUN_WIDE_ERRORS = pytest.mark.parametrize("flags, message", [
    (["--mass", "-1"], "mass -1.0 must be finite and nonnegative"),
    # values that passed up front but failed every row inside the run
    (["--epsilon", "1e308"], "with 2 epsilon and 2 rho finite"),
    (["--rho", "1e308"], "with 2 epsilon and 2 rho finite"),
    # values that passed up front and then ran for minutes
    (["--epsilon", "1e14"], "exceeds the 100000 rad budget"),
    (["--epsilon", "1e200", "--rho", "1e200"], "needs epsilon * rho finite"),
    # values that gave a traceback (float ** overflowing) or an inf mass rate
    (["--mass", "1e200"], "squared is not a finite double"),
    (["--rho", "1e300", "--mass", "1e10"], "needs m * epsilon * rho finite"),
], ids=["mass-negative", "epsilon-overflows", "rho-overflows", "phase-over-budget",
        "rate-overflows", "mass-squared-overflows", "mass-rate-overflows"])


@RUN_WIDE_ERRORS
def test_dynamics_run_wide_errors_are_usage_errors(flags, message, tmp_path):
    # A child process with a timeout, so that a run that hangs fails the test.
    out = tmp_path / "x.csv"
    done = _run_cli(["-m", "cosmopair.cli", "dynamics", "--p-grid", "1",
                     "--output", str(out), *flags], timeout=60)
    assert done.returncode == 2
    assert not out.exists()
    assert done.stderr.startswith("usage: cosmopair dynamics ")
    assert message in done.stderr


@RUN_WIDE_ERRORS
def test_the_library_refuses_the_same_run_wide_inputs(flags, message):
    # The CLI's defaults and --p-grid 1, passed to momentum_point.
    values = {"--epsilon": 1.0, "--rho": 1.0, "--mass": 1.0,
              **{flag: float(value) for flag, value in zip(flags[::2], flags[1::2])}}
    with pytest.raises(ValueError) as err:
        profile = dyn.ScaleFactorProfile(values["--epsilon"], values["--rho"])
        dyn.momentum_point((1.0, 0.0, 0.0), values["--mass"], profile)
    assert message in str(err.value)


def test_rows_fail_only_through_the_dressing_gate(tmp_path):
    # A dressing gate looser than the fixed gate of theta_from_coefficients
    # would let a row pass it and then fail while being scored.
    assert dyn.DRESSING_GATE * dyn.TOL <= THETA_CHECK_TOLERANCE
    out = tmp_path / "dyn.json"
    cli.main(["dynamics", "--p-grid", "log:0.1:40:12", "--format", "json",
              "--output", str(out)])
    statuses = [row["status"] for row in json.loads(out.read_text())["rows"]]
    assert "ok" in statuses
    assert all(status == "ok" or status.startswith("error: dressed coefficients violate")
               for status in statuses), statuses


@pytest.mark.parametrize("direction, plain", [("1e-200,0,0", "1,0,0"),
                                               ("1e300,1e300,0", "1,1,0")],
                         ids=["square-underflows", "square-overflows"])
def test_direction_scale_does_not_change_the_rows(direction, plain, tmp_path):
    """A direction whose squared norm leaves the double range still normalizes."""
    def rows(components):
        out = tmp_path / "dyn.csv"
        assert cli.main(["dynamics", "--p-grid", "0.5,2", "--direction", components,
                         "--output", str(out)]) == 0
        return out.read_text()

    assert rows(direction) == rows(plain)


@pytest.mark.parametrize("argv", [
    ["sweep", "--scenario", "spinless", "--n", "0:inf:1"],
    ["dynamics", "--p-grid", "1", "--mass", "nan"],
    ["verify", "--batch", "0"],
], ids=["sweep", "dynamics", "verify"])
def test_value_errors_print_the_subcommand_usage(argv, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: cosmopair {argv[0]} ")


def test_every_command_runs_without_scipy(tmp_path):
    # sys.modules[name] = None makes any import of scipy raise ImportError.
    script = """
import sys
sys.modules["scipy"] = None
from cosmopair import cli
out = sys.argv[1]
print(cli.main(["verify", "--batch", "2", "--output", out + "/verify.txt"]))
print(cli.main(["sweep", "--scenario", "spinless", "--n", "0:2:0.5", "--output", out + "/sweep.csv"]))
print(cli.main(["dynamics", "--p-grid", "1", "--output", out + "/dyn.csv"]))
"""
    done = _run_cli(["-c", script, str(tmp_path)], timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "0", "0"]
    assert (tmp_path / "dyn.csv").read_text().splitlines()[1].endswith(",ok")


def test_charge_sweep_entropy_nonnegative_at_full_density(capsys):
    # at n = 4 the reduced spectrum holds an eigenvalue of 1 up to rounding
    assert cli.main(["sweep", "--scenario", "charge", "--n", "4",
                     "--lambda", "0:1:0.1"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 11
    assert all(float(row.split(",")[4]) >= 0.0 for row in rows)


def test_pool_and_sweep_seed_options_are_gone(tmp_path, monkeypatch):
    sweep_args = ["sweep", "--scenario", "spinless", "--n", "1",
                  "--output", str(tmp_path / "sweep.csv")]
    dynamics_args = ["dynamics", "--profile", "constant", "--p-grid", "1",
                     "--output", str(tmp_path / "dyn.csv")]
    for argv in (sweep_args + ["--workers", "2"], dynamics_args + ["--workers", "2"],
                 sweep_args + ["--seed", "1"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
    monkeypatch.setenv("COSMOPAIR_WORKERS", "x")
    assert cli.main(sweep_args) == 0


def test_importing_the_cli_loads_no_more_of_numpy_random_than_numpy_does():
    """Nor does any command load more of it, or of the hashlib it pulls in.

    verify draws from ``random.Random``; ``numpy.random`` would bring
    hashlib (OpenSSL) through secrets.  numpy 1 imports its random package
    with numpy itself, numpy 2 only on first access, so each child is held
    to what ``import numpy`` loads.
    """
    script = ("import sys, {module}\n"
              "{run}"
              "print(sorted(m for m in sys.modules\n"
              "             if m.startswith('numpy.random') or m in ('hashlib', '_hashlib')),\n"
              "      file=sys.stderr)\n")
    runs = [f"assert cosmopair.cli.main({argv!r}) == 0\n" for argv in (
        ["verify", "--batch", "2"],
        ["sweep", "--scenario", "spinless", "--n", "1"],
        ["dynamics", "--profile", "constant", "--p-grid", "1"])]
    done = [_run_cli(["-c", script.format(module=module, run=run)], timeout=60)
            for module, run in [("numpy", ""), ("cosmopair.cli", ""),
                                *(("cosmopair.cli", run) for run in runs)]]
    assert all(d.returncode == 0 for d in done), [d.stderr for d in done]
    assert [d.stderr for d in done[1:]] == [done[0].stderr] * (len(done) - 1)


@pytest.mark.parametrize("module, preset, seen", [
    ("cosmopair.cli", None, "1"),
    # a value the user set is kept
    ("cosmopair.cli", "3", "3"),
    # the library modules leave BLAS threading to the caller
    ("cosmopair.bogoliubov", None, "None"),
])
def test_the_cli_runs_blas_on_one_thread_unless_told_otherwise(module, preset, seen):
    script = f"import os, {module}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    done = _run_cli(["-c", script], timeout=60, OPENBLAS_NUM_THREADS=preset)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == seen


def test_the_blas_thread_count_is_set_before_the_first_cosmopair_import():
    """OpenBLAS reads the variable once, when numpy loads it; every cosmopair import loads numpy."""
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    pin = next(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
               and ast.unparse(node) == "os.environ.setdefault('OPENBLAS_NUM_THREADS', '1')")
    # Any import outside the standard library may load numpy.
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    first_outside = min(node.lineno for node in imports
                        if (getattr(node, "module", None) or node.names[0].name).split(".")[0]
                        not in sys.stdlib_module_names)
    assert pin < first_outside
