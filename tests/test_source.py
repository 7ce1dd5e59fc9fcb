"""The package holds what a command runs: no top-level name that only tests call."""

import ast
from pathlib import Path

import cmqsearch

SRC = Path(cmqsearch.__file__).resolve().parent

# Unreferenced in the package but read by the benchmark: p_derivative by
# perfbench/tracing.py's kernel timings, optimal_phase_count by its tracer
# patches, BACKEND by perfbench/harness.py.
READ_BY_BENCHMARK = {"p_derivative", "optimal_phase_count", "BACKEND"}


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _references(tree: ast.Module) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
    return refs


def test_every_top_level_name_is_used_in_the_package():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    defined = set().union(*map(_top_level_names, trees))
    used = set().union(*map(_references, trees))
    unused = {name for name in defined - used
              if not (name.startswith("__") and name.endswith("__"))}
    assert unused == READ_BY_BENCHMARK
