"""Top-level names of the modules under src/ and tests/.

No module defines a top-level function or class name twice: a second
definition silently replaces the first, so pytest never collects a test
whose name is reused further down its module.  Every name a module lists
in ``__all__`` is defined in that module, so a retired helper cannot stay
exported.  No test module imports a name that starts with ``test_``:
pytest collects a test wherever a test module binds its name, so it would
run that test twice.  In ``verify``, only ``run_all`` builds a
``CheckResult``, from a row of ``CHECKS``, so no check bypasses the table.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SOURCES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_top_level_name_is_defined_twice():
    repeated = []
    for path in SOURCES:
        names = collections.Counter(node.name for node in _tree(path).body
                                    if isinstance(node, DEFINITIONS))
        repeated += [f"{path.relative_to(ROOT)}: {name}" for name, n in names.items() if n > 1]
    assert repeated == []


def test_every_exported_name_is_defined_in_its_module():
    undefined = []
    for path in SOURCES:
        defined, exported = set(), []
        for node in _tree(path).body:
            if isinstance(node, DEFINITIONS):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                if "__all__" in names:
                    exported = ast.literal_eval(node.value)
                defined |= names
        undefined += [f"{path.relative_to(ROOT)}: {name}" for name in exported
                      if name not in defined]
    assert undefined == []


def test_no_module_under_tests_imports_a_test_by_name():
    imported = []
    for path in ROOT.glob("tests/**/*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom):
                imported += [f"{path.relative_to(ROOT)}: {alias.name}" for alias in node.names
                             if alias.name.startswith("test_")
                             or (alias.asname or "").startswith("test_")]
    assert imported == []


def test_verify_builds_check_results_in_run_all_alone():
    def built(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name) and call.func.id == "CheckResult"]

    tree = _tree(ROOT / "src" / "cosmopair" / "verify.py")
    run_all = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "run_all")
    assert built(run_all) and set(built(tree)) == set(built(run_all))
