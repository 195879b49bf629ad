"""Span tracer for one cosmopair CLI command, and the per-layer metrics of its spans.

Run as a script it is the traced twin of the ``cosmopair`` entry point:

    python3 perfbench/spantrace.py SPANS.json dynamics --p-grid log:0.1:40:24

It imports ``cosmopair.cli``, wraps the public functions named in
``TARGETS`` at each module boundary, runs ``cli.main`` on the remaining
arguments, and writes the spans held in memory to SPANS.json at exit.
Nothing in the package is edited: the wrapper replaces the function's
name in every ``cosmopair`` module namespace that binds it (for example
both ``squeezing.unitary_for`` and ``entanglement.unitary_for``), so
calls made through any import path are seen.

Each thread keeps its own span stack. Work that ``cli._pool_map``
hands to pool threads runs under a ``cli.pool_item`` span whose parent
is the ``cli.pool_map`` span of the submitting thread, so spans made in
pool threads get a parent too. A span's self time is its duration minus
the durations of its children in the same thread; children in other
threads run concurrently and are not subtracted.

Imported as a module it only aggregates a spans file into metrics
(``layer_metrics``); it does not import the package then.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# Functions wrapped per module. A name missing from the package (a layer
# removed later) is skipped and reports zero calls.
TARGETS = {
    "cli": ("main",),
    "dynamics": ("momentum_point", "integrate_mode", "extract_scalar_coefficients",
                 "dress_coefficients"),
    "bogoliubov": ("from_density", "theta_from_coefficients", "validate"),
    "squeezing": ("unitary_for", "build_generator", "unitary_dense", "pair_creation_sum",
                  "apply_decoupled", "conjugate_mode", "in_state_expansion"),
    "fock": ("outer_product", "partial_trace", "von_neumann_entropy"),
    "entanglement": ("entropy_numeric", "entropy_vacuum_closed_form",
                     "entropy_excited_closed_form"),
    "expansions": ("closed_form_expansion",),
    "verify": ("run_all",),
}

# Per-layer metrics reported by the benchmark, in order, with units.
_FULL = ("calls", "self_s", "errors")
_LAYER_FIELDS = {
    "cli.main": ("self_s",),
    "dynamics.momentum_point": _FULL,
    "dynamics.integrate_mode": _FULL,
    "dynamics.extract_scalar_coefficients": ("self_s",),
    "dynamics.dress_coefficients": ("self_s", "errors"),
    **{f"bogoliubov.{f}": _FULL for f in TARGETS["bogoliubov"]},
    **{f"squeezing.{f}": _FULL for f in TARGETS["squeezing"]},
    **{f"fock.{f}": _FULL for f in TARGETS["fock"]},
    **{f"entanglement.{f}": _FULL for f in TARGETS["entanglement"]},
    "expansions.closed_form_expansion": _FULL,
    "verify.run_all": ("self_s",),
}
_FIELD_UNITS = {"calls": "count", "self_s": "s", "errors": "count"}
PER_LAYER_METRICS = (
    ("import.cosmopair.dynamics_s", "s"),
    ("import.scipy.integrate_s", "s"),
    ("dynamics.rhs_evals", "count"),
    ("dynamics.integrations_per_point", "ratio"),
    ("dynamics.points_ok_ratio", "ratio"),
    ("cli.pool_overlap", "ratio"),
    ("verify.checks", "count"),
    ("verify.checks_failed", "count"),
    ("trace.overhead_s", "s"),
    *((f"{span}.{field}", _FIELD_UNITS[field])
      for span, fields in _LAYER_FIELDS.items() for field in fields),
)

# Span record layout in the spans file.
SPAN_FIELDS = ("id", "parent", "name", "thread", "start", "end", "self_s", "error")


class Tracer:
    """Spans held in memory, one stack per thread, plus named counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, parent=None):
        """Run fn under a span; parent defaults to this thread's open span."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        # open span: [id, parent span, thread, same-thread child time]
        span = [next(self._ids), parent, threading.get_ident(), 0.0]
        stack.append(span)
        error = False
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException:
            error = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if parent is not None and parent[2] == span[2]:
                parent[3] += duration
            self.spans.append((span[0], parent[0] if parent else None, name, span[2],
                               start, end, duration - span[3], error))

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def wrap_pool_map(self, pool_map):
        """Trace the map returned by ``cli._pool_map`` and each item it runs."""
        @functools.wraps(pool_map)
        def traced_pool_map(*args, **kwargs):
            map_fn, pool = pool_map(*args, **kwargs)

            def traced_map(fn, iterable):
                def run_map():
                    owner = self.current()

                    def item(value):
                        return self.call("cli.pool_item", fn, (value,), parent=owner)
                    # Callers consume the whole map at once; doing it here keeps
                    # every item inside the map span.
                    return list(map_fn(item, iterable))
                return iter(self.call("cli.pool_map", run_map))
            return traced_map, pool
        return traced_pool_map

    def install(self) -> None:
        """Wrap every target in every loaded cosmopair module namespace."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cosmopair" or key.startswith("cosmopair."))]
        hooks = {
            "dynamics.integrate_mode": lambda sol: self.count(
                "dynamics.rhs_evals", getattr(sol, "n_rhs_evaluations", 0)),
            "verify.run_all": self._count_checks,
        }
        replacements = {}
        for module_name, functions in TARGETS.items():
            module = importlib.import_module(f"cosmopair.{module_name}")
            for function in functions:
                original = getattr(module, function, None)
                if callable(original):
                    name = f"{module_name}.{function}"
                    replacements[id(original)] = self.wrap(name, original, hooks.get(name))
        cli = importlib.import_module("cosmopair.cli")
        pool_map = getattr(cli, "_pool_map", None)
        if callable(pool_map):
            replacements[id(pool_map)] = self.wrap_pool_map(pool_map)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)

    def _count_checks(self, results) -> None:
        self.count("verify.checks", len(results))
        self.count("verify.checks_failed", sum(not r.passed for r in results))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": SPAN_FIELDS, "counters": self.counters,
                       "spans": self.spans}, handle, separators=(",", ":"))


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command from its spans file.

    Returns every name of ``PER_LAYER_METRICS`` except the import and
    overhead metrics, which come from separate measurements.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    errors: dict[str, int] = {}
    map_ids, map_time, item_time = set(), 0.0, 0.0
    spans = doc["spans"]
    for span_id, _, name, _, start, end, own, error in spans:
        if name == "cli.pool_map":
            map_ids.add(span_id)
            map_time += end - start
    for _, parent, name, _, start, end, own, error in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        errors[name] = errors.get(name, 0) + int(error)
        if name == "cli.pool_item" and parent in map_ids:
            item_time += end - start
    counters = doc.get("counters", {})
    points = calls.get("dynamics.momentum_point", 0)
    out = {
        "dynamics.rhs_evals": float(counters.get("dynamics.rhs_evals", 0)),
        "dynamics.integrations_per_point":
            calls.get("dynamics.integrate_mode", 0) / points if points else 0.0,
        "dynamics.points_ok_ratio":
            (points - errors.get("dynamics.momentum_point", 0)) / points if points else 0.0,
        "cli.pool_overlap": item_time / map_time if map_time > 0 else 0.0,
        "verify.checks": float(counters.get("verify.checks", 0)),
        "verify.checks_failed": float(counters.get("verify.checks_failed", 0)),
    }
    for span, fields in _LAYER_FIELDS.items():
        table = {"calls": calls, "self_s": self_s, "errors": errors}
        for field in fields:
            out[f"{span}.{field}"] = float(table[field].get(span, 0))
    return out


def _main(argv: list[str]) -> int:
    if not argv:
        sys.stderr.write("usage: spantrace.py SPANS.json CLI-ARGS...\n")
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    import cosmopair.cli

    tracer = Tracer()
    tracer.install()
    try:
        return cosmopair.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
