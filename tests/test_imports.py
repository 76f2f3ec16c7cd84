"""The installed package imports numpy and nothing heavier: scipy is a
test dependency of the quadrature oracles only."""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

import lookback

SRC = pathlib.Path(lookback.__file__).resolve().parent


def test_cli_import_loads_no_scipy():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import lookback, lookback.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run([sys.executable, "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_no_module_imports_scipy():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "scipy"]
    assert offenders == []


def test_module_exports_are_disjoint_and_reexported():
    """The package root star-imports each module's ``__all__``; a name listed
    by two modules would silently resolve to whichever was imported last."""
    from lookback import (asymptotics, binom_expansion, continuous, errors,
                          lattice, numerics)

    modules = (asymptotics, binom_expansion, continuous, errors, lattice, numerics)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    for module in modules:
        for name in module.__all__:
            assert getattr(lookback, name) is getattr(module, name), name
    assert sorted(lookback.__all__) == sorted(["__version__", *names])


def test_perfbench_bindings_resolve():
    """Every function the benchmark's tracer wraps is still bound where it
    looks it up; a missing name would only fail a traced run."""
    import importlib
    import importlib.util

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, name) for module, name, _ in spans.BINDINGS
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert spans.BINDINGS and missing == []


def test_tracer_only_imports_are_bound():
    """An import kept only for the benchmark's tracer (``# noqa: F401``)
    must name a (module, name) pair of ``perfbench/spans.py``'s BINDINGS,
    so an import left behind when the tracer drops its binding fails
    here.  Reads spans.py without importing it."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    bindings = next(
        {(module, name) for module, name, _ in ast.literal_eval(node.value)}
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BINDINGS"])
    unbound = []
    for source in sorted(SRC.rglob("*.py")):
        module = ".".join(("lookback", *source.relative_to(SRC).with_suffix("").parts))
        lines = source.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines), str(source))):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and any("# noqa: F401" in line
                            for line in lines[node.lineno - 1:node.end_lineno])):
                unbound += [(module, alias.asname or alias.name) for alias in node.names
                            if (module, alias.asname or alias.name) not in bindings]
    assert unbound == []
