"""cosmopair benchmark: the three batch CLI commands, end to end and per layer.

    python3 perfbench/bench.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is taken from
``src/`` there, never from an installed copy. Each workload is the CLI
command a user would type, run as a subprocess with the command's own
defaults (no ``--workers``, no ``COSMOPAIR_WORKERS``). One client runs
commands one after another (a closed loop) for ``--seconds``, then
reports medians. Command times are reported in units of a reference
kernel timed between the commands (``wall_ref``), so that the shared
host's drifting speed divides out; the times in seconds are printed as
notes.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (see ``spantrace.py``).
Every command's output is checked against the frozen reference in
``reference/`` (see ``refcheck.py``). The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``attempted`` counts CLI commands, and a command fails
when its output is missing, malformed, disagrees with the reference or
its exit code disagrees with its rows. Rows that fail the program's
own gates are reported as ``failed_fraction`` (and ``ok_fraction``).

Artifacts (outputs, spans, one JSON record per run with the
environment) go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

import refcheck
import spantrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKERS_ENV_VAR = "COSMOPAIR_WORKERS"
HARD_LIMIT_S = 165.0     # a run must exit within 180 s, set-up included
MIN_SETUPS = 3
KERNELS_PER_CYCLE = 16

# What the installed ``cosmopair`` console script runs, and its import alone.
ENTRY = "import sys; from cosmopair.cli import main; sys.exit(main())"
SETUP = "import cosmopair.cli"

WORKLOAD_ARGS = {
    # Integration-bound; extends the default 0.1-10 grid to 40 so the
    # normalization-gate failures above |p| ~ 20 show in failed_fraction.
    # 6 points rather than 24 so a run holds enough commands for a steady mean.
    "dynamics-wide": ("dynamics", ("dynamics", "--profile", "tanh", "--epsilon", "1",
                                   "--rho", "1", "--mass", "1",
                                   "--p-grid", "log:0.1:40:6")),
    # Fock-bound, no ODE: from_density, dense unitary, partial trace, eigh.
    "sweep-charge": ("sweep", ("sweep", "--scenario", "charge", "--n", "0:4:0.01",
                               "--lambda", "0:1:0.1")),
    # The oracle path: apply_decoupled, conjugate_mode, expansions; no pool.
    # Batch 200 keeps a command near 4 s, so a run holds several of them.
    "verify-oracles": ("verify", ("verify", "--batch", "200")),
}

END_TO_END_METRICS = (
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("rows_per_ref", "rows/ref"),
    ("peak_rss_mb", "MB"),
    ("ok_fraction", "ratio"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    args: tuple
    reference: dict

    def cli_args(self, seed: int) -> list[str]:
        # verify is the only command whose inputs depend on a seed.
        return [*self.args, "--seed", str(seed)] if self.kind == "verify" else list(self.args)


def load_workload(name: str) -> Workload:
    kind, args = WORKLOAD_ARGS[name]
    with open(HERE / "reference" / f"{name}.json", encoding="utf-8") as handle:
        reference = json.load(handle)
    return Workload(name, kind, args, reference)


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    timed_out: bool


_KERNEL_RNG = np.random.default_rng(0)
_KERNEL_MATRIX = (_KERNEL_RNG.standard_normal((8, 8))
                  + 1j * _KERNEL_RNG.standard_normal((8, 8))) / 8
_KERNEL_VECTOR = _KERNEL_RNG.standard_normal(8) + 0j


def reference_kernel() -> float:
    """Wall time of a fixed piece of work, run in this process (35-50 ms).

    A pure-Python loop and many small numpy calls, the two things the
    commands spend their time on; no BLAS call large enough to thread.
    It is the time unit ``ref`` of ``wall_ref`` and ``rows_per_ref``: the
    host's speed, which drifts by tens of percent within seconds on a
    shared machine, divides out of the command times. The kernel is the
    benchmark's own code, so no change to the program moves it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i % 7
    v = _KERNEL_VECTOR
    for _ in range(3000):
        v = np.tanh(_KERNEL_MATRIX @ v) + 0.5 * v
    return time.perf_counter() - start


def run_child(argv: list[str], env: dict, stdout_path: Path, stderr_path: Path,
              timeout: float) -> Child:
    """Run one process to completion; its own CPU time and peak RSS come from wait4."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timed_out = not timer.is_alive()
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, timed_out)


def environment() -> tuple[dict, dict]:
    """Child environment and the record of the machine it runs on."""
    cpu_count = os.cpu_count() or 1
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else cpu_count
    env = dict(os.environ)
    env.pop(WORKERS_ENV_VAR, None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                                        if p)
    # The CLI sizes its pool by os.cpu_count(); never exceed the usable cores.
    if cpu_count > affinity:
        env[WORKERS_ENV_VAR] = str(affinity)
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                                   timeout=10).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = None
    info = {
        "cpu_count": cpu_count,
        "affinity_cores": affinity,
        "nproc": nproc,
        "default_pool_size": int(env.get(WORKERS_ENV_VAR, cpu_count)),
        "workers_env": env.get(WORKERS_ENV_VAR),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "machine": platform.machine(),
    }
    return env, info


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


@dataclass
class Command:
    child: Child
    outcome: refcheck.Outcome
    layers: dict | None = None


@dataclass
class Runner:
    """Runs one workload's processes and keeps its output files apart."""

    workload: Workload
    seed: int
    env: dict
    started: float = field(default_factory=time.perf_counter)

    def __post_init__(self):
        self.dir = OUT / self.workload.name
        self.dir.mkdir(parents=True, exist_ok=True)

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def _run(self, argv: list[str], tag: str) -> Child:
        return run_child(argv, self.env, self.dir / f"{tag}.out", self.dir / f"{tag}.err",
                         self.remaining())

    def setup(self) -> Child:
        return self._run([sys.executable, "-c", SETUP], "setup")

    def import_times(self) -> dict | None:
        """Cumulative import times from ``-X importtime``; None if the import fails."""
        child = self._run([sys.executable, "-X", "importtime", "-c", SETUP], "importtime")
        if child.exit_code != 0:
            return None
        cumulative = {}
        for line in (self.dir / "importtime.err").read_text().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                try:
                    cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
                except ValueError:
                    continue   # the header line
        return {"import.cosmopair.dynamics_s": cumulative.get("cosmopair.dynamics", 0.0),
                "import.scipy.integrate_s": cumulative.get("scipy.integrate", 0.0)}

    def command(self, traced: bool) -> Command:
        args = self.workload.cli_args(self.seed)
        spans = self.dir / "spans.json"
        if traced:
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "spantrace.py"), str(spans), *args]
        else:
            argv = [sys.executable, "-c", ENTRY, *args]
        child = self._run(argv, "command")
        text = (self.dir / "command.out").read_text(encoding="utf-8", errors="replace")
        outcome = refcheck.check(self.workload.kind, text, child.exit_code,
                                 self.workload.reference)
        if child.timed_out:
            outcome.problems.append("command timed out")
        layers = None
        if traced and spans.exists():
            with open(spans, encoding="utf-8") as handle:
                layers = spantrace.layer_metrics(json.load(handle))
        elif traced:
            outcome.problems.append("traced command wrote no spans")
        return Command(child, outcome, layers)

    def keep_going(self, deadline: float, cycle_start: float) -> bool:
        """Start another cycle only if one more like the last ends in time."""
        now = time.perf_counter()
        cycle = now - cycle_start
        return now + cycle <= deadline and self.remaining() > 2 * cycle


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure_end_to_end(runner: Runner, seconds: float):
    """Set-up samples and commands, timed in units of the reference kernel.

    A cycle is one set-up sample, KERNELS_PER_CYCLE reference kernels and
    one command; more kernels follow the last command. The unit ``ref`` is
    the mean kernel time of the run and ``wall_ref`` the mean command time
    over it: both are averages over the same stretch of the host's speed,
    which on a shared machine flips between a fast and a slow state within
    seconds, so a median would pick one state rather than average them.
    """
    deadline = runner.started + seconds
    setups, commands, kernels = [], [], []
    while True:
        cycle_start = time.perf_counter()
        setups.append(runner.setup())
        kernels.extend(reference_kernel() for _ in range(KERNELS_PER_CYCLE))
        commands.append(runner.command(traced=False))
        if commands[-1].child.timed_out or not runner.keep_going(deadline, cycle_start):
            break
    kernels.extend(reference_kernel() for _ in range(KERNELS_PER_CYCLE))
    while len(setups) < MIN_SETUPS and runner.remaining() > 10:
        setups.append(runner.setup())
    ref = statistics.fmean(kernels)
    wall_ref = statistics.fmean(c.child.wall_s for c in commands) / ref
    setup_ref = statistics.fmean(s.wall_s for s in setups) / ref
    wall = _median([c.child.wall_s for c in commands])
    setup = _median([s.wall_s for s in setups])
    rows = sum(c.outcome.rows for c in commands)
    rows_ok = sum(c.outcome.rows_ok for c in commands)
    per_command_rows = rows / len(commands)
    rows_per_s = per_command_rows / (wall - setup) if wall > setup else 0.0
    metrics = {
        "wall_ref": wall_ref,
        "setup_s": setup,
        "rows_per_ref": (per_command_rows / (wall_ref - setup_ref)
                         if wall_ref > setup_ref else 0.0),
        "peak_rss_mb": _median([c.child.peak_rss_mb for c in commands]),
        "ok_fraction": rows_ok / rows if rows else 0.0,
    }
    notes = {
        "samples": {"wall_s": len(commands), "setup_s": len(setups), "ref_s": len(kernels)},
        # The same timings in seconds, before the host's speed is divided out.
        "wall_s": wall,
        "rows_per_s": rows_per_s,
        "ref_s": ref,
        "wall_s_all": [c.child.wall_s for c in commands],
        "ref_s_all": kernels,
        # The command's own user + system CPU time.
        "cpu_s": _median([c.child.cpu_s for c in commands]),
        "cpu_s_all": [c.child.cpu_s for c in commands],
        "setup_s_all": [s.wall_s for s in setups],
        "failed_fraction": 1.0 - metrics["ok_fraction"] if rows else 1.0,
        "rows": rows,
        "rows_failed": rows - rows_ok,
        "exit_codes": [c.child.exit_code for c in commands],
    }
    problems = [f"setup exited {s.exit_code}" for s in setups if s.exit_code != 0]
    return metrics, notes, commands, problems


def measure_layers(runner: Runner, seconds: float):
    deadline = runner.started + seconds
    imports, plain, traced, problems = [], [], [], []
    while True:
        cycle_start = time.perf_counter()
        times = runner.import_times()
        if times is None:
            problems.append("python -X importtime -c 'import cosmopair.cli' failed")
        else:
            imports.append(times)
        plain.append(runner.command(traced=False))
        traced.append(runner.command(traced=True))
        if traced[-1].child.timed_out or not runner.keep_going(deadline, cycle_start):
            break
    metrics = {}
    for name, _ in spantrace.PER_LAYER_METRICS:
        if name == "trace.overhead_s":
            metrics[name] = (_median([c.child.wall_s for c in traced])
                             - _median([c.child.wall_s for c in plain]))
        elif name.startswith("import."):
            metrics[name] = _median([i[name] for i in imports])
        else:
            metrics[name] = _median([c.layers[name] for c in traced if c.layers])
    notes = {
        "samples": {"traced": len(traced), "untraced": len(plain), "importtime": len(imports)},
        "traced_wall_s_all": [c.child.wall_s for c in traced],
        "untraced_wall_s_all": [c.child.wall_s for c in plain],
    }
    return metrics, notes, plain + traced, problems


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and return the result record."""
    env, info = environment()
    runner = Runner(workload, seed, env)
    if trace:
        metrics, notes, commands, problems = measure_layers(runner, seconds)
        units = dict(spantrace.PER_LAYER_METRICS)
    else:
        metrics, notes, commands, problems = measure_end_to_end(runner, seconds)
        units = dict(END_TO_END_METRICS)
    for command in commands:
        problems.extend(command.outcome.problems)
    failed = sum(not c.outcome.correct or c.child.timed_out for c in commands)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "args": workload.cli_args(seed),
        "environment": info,
        "notes": notes,
        "problems": problems[:50],
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": len(commands),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        },
    }


def _report(record: dict) -> None:
    result = record["result"]
    notes = record["notes"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  command: cosmopair {' '.join(record['args'])}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print("samples " + json.dumps(notes["samples"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:<48} {metric['value']:<14.6g} {metric['unit']}")
    if "failed_fraction" in notes:
        print(f"  {'failed_fraction':<48} {notes['failed_fraction']:<14.6g} ratio "
              f"({notes['rows_failed']} of {notes['rows']} rows)")
    for name, unit in (("wall_s", "s"), ("rows_per_s", "rows/s"), ("ref_s", "s"),
                       ("cpu_s", "s")):
        if name in notes:
            print(f"  {name + ' (note)':<48} {notes[name]:<14.6g} {unit}")
    for problem in record["problems"][:10]:
        print(f"  problem: {problem}")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_ARGS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    reference = HERE / "reference" / f"{args.workload}.json"
    if not (SRC / "cosmopair" / "cli.py").is_file() or not reference.is_file():
        sys.stderr.write(f"bench: no cosmopair sources under {SRC} or no reference "
                         f"{reference}; run from a source checkout\n")
        return 2
    record = run_workload(load_workload(args.workload), args.seed, args.seconds,
                          bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
