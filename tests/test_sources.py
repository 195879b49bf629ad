"""No module under src/ or tests/ defines a top-level function or class name twice.

A second definition silently replaces the first, so pytest never collects a
test whose name is reused further down its module.
"""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_no_top_level_name_is_defined_twice():
    repeated = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = collections.Counter(node.name for node in tree.body
                                    if isinstance(node, DEFINITIONS))
        repeated += [f"{path.relative_to(ROOT)}: {name}" for name, n in names.items() if n > 1]
    assert repeated == []
