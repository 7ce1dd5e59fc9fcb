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


def test_records_are_built_whole_with_only_the_fields_read():
    # make_plan builds its PhasePlan once, complete: no placeholder, no _replace
    from cmqsearch import analytic, optimizer, planner
    assert optimizer.PhasePlan._fields == ("k", "phases", "boundaries", "q_k_pi", "level_residual")
    assert analytic.IterationBand._fields == ("lo", "hi")
    assert not hasattr(planner, "BaselineComparison")
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    assert "_replace" not in set().union(*map(_references, trees))
    make_plan = next(node for node in ast.walk(ast.parse((SRC / "optimizer.py").read_text()))
                     if isinstance(node, ast.FunctionDef) and node.name == "make_plan")
    builds = [node for node in ast.walk(make_plan) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "PhasePlan"]
    assert len(builds) == 1
    assert not any(isinstance(arg, ast.Constant) and arg.value is None for arg in builds[0].args)


# A phase is a float and a plan query an interval, so a one-field wrapper that
# comes back is a change to this set.  errors.py holds the exception taxonomy.
RECORD_TYPES = {"TargetFraction", "IterationBand", "PhasePlan", "PlanTable", "RunConfig"}


def test_the_record_types_are_pinned():
    defined = {node.name for path in SRC.glob("*.py") if path.name != "errors.py"
               for node in ast.parse(path.read_text()).body if isinstance(node, ast.ClassDef)}
    assert defined == RECORD_TYPES


def _imported_modules(tree: ast.Module) -> set[str]:
    mods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            mods.add(node.module.split(".")[0])
    return mods


def test_the_tests_import_no_numpy():
    # math, cmath and lists carry every check, so tier-1 runs with only pytest
    # and hypothesis; a string that names numpy, as in a subprocess script, is
    # not an import
    importers = [path.name for path in sorted(Path(__file__).resolve().parent.glob("*.py"))
                 if "numpy" in _imported_modules(ast.parse(path.read_text()))]
    assert importers == []
