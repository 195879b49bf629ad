import ast
import contextlib
import errno
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cli_cases
import cosmopair
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
    # A grid may hold the bound itself.
    assert len(cli.parse_grid(f"1:{cli.MAX_GRID_POINTS}:1")) == cli.MAX_GRID_POINTS


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


@pytest.mark.parametrize("spec, start, stop, count", [
    ("log:0.1:10:30", 0.1, 10.0, 30),
    ("log:0.1:40:6", 0.1, 40.0, 6),
    ("log:1e-3:1e3:7", 1e-3, 1e3, 7),
])
def test_parse_momentum_grid_log(spec, start, stop, count):
    # Both ends exactly: start * ratio ** (count - 1) misses stop by an ulp or more.
    grid = cli.parse_momentum_grid(spec)
    assert len(grid) == count
    assert grid[0] == start and grid[-1] == stop
    ratios = [grid[k + 1] / grid[k] for k in range(count - 1)]
    assert max(ratios) - min(ratios) <= 1e-12 * max(ratios)


def test_state_tokens_round_trip():
    for token, occ in (("vac", 0), ("up.up", 0b0101), ("updown.0", 0b0011),
                       ("down.updown", 0b1110), ("0.down", 0b1000)):
        assert cli.state_token_to_occupation(token, Scenario.CHARGE_ONLY) == occ
    assert cli.state_token_to_occupation("1.1", Scenario.SPINLESS) == 0b11
    assert cli.occupation_to_state_token(0b0101, Scenario.CHARGE_ONLY) == "up.up"
    assert cli.occupation_to_state_token(0b10, Scenario.SPINLESS) == "0.1"


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


def test_sweep_spinless_maximum(capsys, monkeypatch):
    # The variable that once sized the worker pool is ignored.
    monkeypatch.setenv("COSMOPAIR_WORKERS", "x")
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
    """Every row rendered at once: the joined CSV lines, or one ``json.dumps`` of the payload.

    Each row is a dict read by column name; a column it lacks is empty.
    """
    if fmt == "json":
        def value(v):
            return v if v is None or isinstance(v, str) else float(f"{v:.15g}")
        payload = {"schema_version": cosmopair.SCHEMA_VERSION, **head,
                   "rows": [{name: value(row.get(name)) for name in columns} for row in rows],
                   **tail}
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join("" if v is None else v if isinstance(v, str) else f"{v:.15g}"
                      for v in map(row.get, columns)) for row in rows]
    return "\n".join([",".join(columns), *lines]) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_rows_equal_the_one_shot_rendering(fmt, tmp_path, capsys):
    rows = [{"scenario": "charge", "input_state": "0.0", "n": n, "lambda": lam,
             "S_numeric": s_numeric, "S_closed": s_closed, "discrepancy": gap}
            for block in ent.sweep(Scenario.CHARGE_ONLY, 0, cli.parse_grid("0:4:0.02"),
                                   cli.parse_grid("0:1:0.5"))
            for n, lam, s_numeric, s_closed, gap in block]
    assert len(rows) == 603
    expected = one_shot_rendering(fmt, cli.SWEEP_COLUMNS, rows,
                                  {"command": "sweep", "tolerance": cli.SWEEP_GATE},
                                  {"all_within_tolerance": True})
    assert cli.main(STREAMED_SWEEP + ["--format", fmt]) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / f"sweep.{fmt}"
    assert cli.main(STREAMED_SWEEP + ["--format", fmt, "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected
    # dynamics rows come one block each; an error row holds p and status alone.
    argv = ["dynamics", "--mass", "0", "--p-grid", "0,1", "--format", fmt]
    rows = [cli._dynamics_row(dyn.Mode((p / math.sqrt(3),) * 3, 0.0, dyn.ScaleFactorProfile()))
            for p in (0.0, 1.0)]
    assert list(rows[0]) == ["p", "status"] and rows[0]["status"].startswith("error: ")
    assert rows[1]["status"] == "ok"
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
    text = out.read_text()
    assert text.startswith("p,A,beta_uu")
    for row in cli_cases.table_rows(text):
        assert row["status"] == "ok"
        assert float(row["n_created"]) <= 1e-8
        assert float(row["S_numeric"]) <= 1e-6


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


def test_a_dynamics_run_derives_each_span_once(tmp_path, monkeypatch):
    # A point's span, and its phase against the budget, are derived when its
    # Mode is built; both integrations of the point read them from the Mode.
    profiles = []
    real_span = dyn.default_tau_span

    def counted_span(profile):
        profiles.append(profile)
        return real_span(profile)

    monkeypatch.setattr(dyn, "default_tau_span", counted_span)
    out = tmp_path / "dyn.csv"
    assert cli.main(["dynamics", "--p-grid", "0.5,1,2", "--output", str(out)]) == 0
    assert [row["status"] for row in cli_cases.table_rows(out.read_text())] == ["ok"] * 3
    assert len(profiles) == 3


def test_dynamics_rows_report_the_momentum_modulus(tmp_path, monkeypatch):
    # p is |p| on ok and error rows alike.
    real_point = cli.momentum_point

    def failing_above_10(mode):
        if max(map(abs, mode.p_vec)) > 10:
            raise dyn.IntegrationError("refused")
        return real_point(mode)

    monkeypatch.setattr(cli, "momentum_point", failing_above_10)
    out = tmp_path / "dyn.csv"
    assert cli.main(["dynamics", "--p-grid=-1,1,-40", "--output", str(out)]) == 1
    assert [(row["p"], row["status"] == "ok") for row in cli_cases.table_rows(out.read_text())] == [
        ("1", True), ("1", True), ("40", False)]


def test_epsilon_zero_runs_the_flat_profile(tmp_path):
    def rows(*flags):
        out = tmp_path / "dyn.csv"
        assert cli.main(["dynamics", "--p-grid", "0,1,3", *flags, "--output", str(out)]) == 0
        return out.read_text()

    assert rows("--profile", "tanh", "--epsilon", "0") == rows("--profile", "constant")


def forbid_rows(monkeypatch):
    """Make every route that computes rows raise, so that a refusal found after one fails."""
    def no_rows(*args, **kwargs):
        raise AssertionError("rows computed")

    monkeypatch.setattr(ent, "from_density", no_rows)
    monkeypatch.setattr(cli, "momentum_point", no_rows)
    monkeypatch.setattr(verify_mod, "run_all", no_rows)


def files_in(directory: pathlib.Path) -> dict:
    return {path: path.is_file() and path.read_bytes() for path in directory.rglob("*")}


@pytest.mark.parametrize("case", cli_cases.CASES, ids=lambda case: case.argv)
def test_every_command_line_case_holds(case, tmp_path, monkeypatch, capsys):
    # A usage error is found before any row is computed; it creates no file and
    # keeps an existing one.  A case without an --output of its own also runs
    # into a new file and into an existing one.
    monkeypatch.chdir(tmp_path)
    cli_cases.make_files(tmp_path)
    runs = [case.words]
    if case.code == 2:
        forbid_rows(monkeypatch)
        if "--output" not in case.words:
            runs += [case.words + ["--output", name] for name in ("new.csv", "existing.csv")]
    for argv in runs:
        before = files_in(tmp_path)
        try:
            code = cli.main(argv)
        except SystemExit as exit:
            code = exit.code
        assert cli_cases.problems(case, code, *capsys.readouterr()) == [], argv
        assert case.code != 2 or files_in(tmp_path) == before, argv


def modes_of(argv: list[str]) -> list:
    """The Modes of the points of ``cosmopair dynamics``, built as the command builds them."""
    args = cli._build_parser().parse_args(argv)
    profile = dyn.ScaleFactorProfile(args.epsilon, args.rho)
    if args.profile == "constant":
        profile = dyn.FLAT
    return [dyn.Mode(tuple(p * c for c in args.direction), args.mass, profile)
            for p in args.p_grid]


@pytest.mark.parametrize("case", [case for case in cli_cases.CASES if case.library],
                         ids=lambda case: case.argv)
def test_the_library_refuses_the_same_inputs(case):
    with pytest.raises(ValueError, match=re.escape(case.expect)):
        modes_of(case.words)


# Generated command lines: the table's options, given its values, numbers or edge values.
EDGES = ("0", "-0", "5e-324", "1e300", "-1e300", "nan", "inf", "-1")
NUMBER = re.compile(r"-?(\d+\.?\d*(e-?\d+)?|inf|nan)")
LISTS = ("--n", "--lambda", "--p-grid", "--direction")
# Sweep's required options, and those whose defaults run longer than the table's values.
ALWAYS = ("--scenario", "--n", "--p-grid", "--batch")


def _table_options() -> tuple[dict, list]:
    options, numbers = {}, set(EDGES)
    for case in cli_cases.CASES:
        words = case.words
        numbers.update(filter(NUMBER.fullmatch, (t for w in words for t in re.split("[,:=]", w))))
        if case.rule not in ("an option that the command does not take",
                             "a required option left out"):
            for flag, value in zip(words[1:], words[2:]):
                if flag.startswith("--") and flag != "--output" and not value.startswith("--"):
                    options.setdefault(words[0], {}).setdefault(flag, set()).add(value)
    return options, sorted(numbers)


OPTIONS, NUMBERS = _table_options()


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv, numbers = [command], st.sampled_from(NUMBERS)
    for flag, values in sorted(OPTIONS[command].items()):
        value = (st.lists(numbers, min_size=1, max_size=3).map(",".join) if flag in LISTS
                 else numbers if all(map(NUMBER.fullmatch, values))
                 else st.sampled_from(sorted(values)))
        if flag in ALWAYS or draw(st.booleans()):
            argv += [flag, draw(value)]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=command_lines())
def test_a_generated_command_line_exits_0_1_or_2_with_physical_rows(argv, tmp_path_factory):
    # Only draws that run briefly: a small verify batch, points that sweep little phase.
    with contextlib.suppress(SystemExit, ValueError):
        assume(argv[0] != "verify" or int(argv[argv.index("--batch") + 1]) <= 100)
        assume(argv[0] != "dynamics" or sum(max(m.e_in, m.e_out) * (m.tau_span[1] - m.tau_span[0])
                                            for m in modes_of(argv)) <= 2e3)
    out, err = tmp_path_factory.mktemp("run") / "out", io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--output", str(out)])
        except SystemExit as exit:
            code = exit.code
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().count("error:") == 1 and not out.exists()
    elif argv[0] != "verify":
        for row in cli_cases.table_rows(out.read_text(), "json" if "json" in argv else "csv"):
            s_max = 1 if row.get("scenario") == "spinless" else 2
            tops = dict(n_created=4, A=1, lambda_effective=1, S_numeric=s_max, S_closed=s_max)
            assert row.get("status", "ok") != "ok" or all(
                0 <= float(row[k]) <= top for k, top in tops.items() if k in row), (argv, row)


@pytest.mark.parametrize("argv", [
    ["sweep", "--scenario", "spinless", "--n", "1"],
    ["dynamics", "--profile", "constant", "--p-grid", "1"],
    ["verify", "--batch", "2"],
], ids=["sweep", "dynamics", "verify"])
def test_an_output_that_cannot_be_opened_is_refused_before_the_first_row(argv, tmp_path, capsys,
                                                                         monkeypatch):
    # A directory without write permission, which root would not see: open() refuses.
    def refuse(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    forbid_rows(monkeypatch)
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


@pytest.mark.parametrize("argv", [
    ["sweep", "--scenario", "charge", "--n", "0:4:0.01", "--lambda", "0:1:0.1"],
    ["dynamics", "--profile", "constant", "--p-grid", "1", "--format", "json"],
    ["verify", "--batch", "1"],
], ids=["sweep", "dynamics", "verify"])
def test_a_stdout_whose_reader_has_gone_is_a_usage_error_without_a_traceback(argv):
    # stdout is a pipe whose read end is closed, as after `| head -1`.
    script = ("import os, sys\n"
              "read, write = os.pipe()\n"
              "os.close(read)\n"
              "os.dup2(write, sys.stdout.fileno())\n"
              "from cosmopair import cli\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    done = _run_cli(["-c", script, *argv], timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith(f"usage: cosmopair {argv[0]} ")
    assert done.stderr.splitlines()[-1] == \
        f"cosmopair {argv[0]}: error: cannot write stdout: Broken pipe"
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


def test_every_json_head_reads_the_one_schema_version(monkeypatch, capsys):
    monkeypatch.setattr(cosmopair, "SCHEMA_VERSION", 99)
    for argv in (["verify", "--batch", "1", "--report", "json"],
                 ["sweep", "--scenario", "spinless", "--n", "1", "--format", "json"],
                 ["dynamics", "--profile", "constant", "--p-grid", "1", "--format", "json"]):
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["schema_version"] == 99


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


def test_every_command_runs_without_scipy_or_numpy_polynomial(tmp_path):
    # sys.modules[name] = None makes any import of the module raise ImportError.
    # The reference run's Gauss-Legendre rule is constants, not leggauss.
    script = """
import sys
sys.modules["scipy"] = sys.modules["numpy.polynomial"] = None
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
