"""Imports point one way: the ``repro`` module graph has no cycle.

A static read of ``src/repro``.  The edges are each module's top-level
imports of ``repro.*`` (an ``if TYPE_CHECKING:`` block runs only under a
type checker and is skipped).  ``from pkg import sub`` resolves to the
submodule, and an import that enters a package from outside it also
runs that package's ``__init__``, so it adds an edge to the package too
(the root ``repro`` facade excepted).  With no cycle there is nothing
to dodge, so no function imports a ``repro`` module at its point of
use.  And since the harness's statistics are the only ``scipy.stats``
user, the runtime must load without any ``scipy`` module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = "repro"


def _modules():
    """Dotted module name -> (path, is_package) for every ``src/repro`` file."""
    found = {}
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        found[".".join(parts)] = (path, is_package)
    return found


MODULES = _modules()


def _is_type_checking(node):
    test = node.test
    name = test.attr if isinstance(test, ast.Attribute) else getattr(test, "id", "")
    return name == "TYPE_CHECKING"


def _import_statements(body, top_level=True):
    """Yield ``(statement, top_level)`` for every import under ``body``.

    Class bodies run at import time and count as top level; a function
    body runs when called.  ``if TYPE_CHECKING:`` blocks are skipped.
    """
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, top_level
        elif isinstance(node, ast.If) and _is_type_checking(node):
            yield from _import_statements(node.orelse, top_level)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _import_statements(node.body, False)
        elif isinstance(node, ast.ClassDef):
            yield from _import_statements(node.body, top_level)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _import_statements(getattr(node, field, []), top_level)


def _targets(module, is_package, node):
    """The ``repro`` modules one import statement loads by name."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        anchor = module.split(".")
        if not is_package:
            anchor.pop()
        anchor = anchor[: len(anchor) - (node.level - 1)]
        base = ".".join(anchor + ([base] if base else []))
    subs = [f"{base}.{alias.name}" for alias in node.names]
    return [sub for sub in subs if sub in MODULES] or [base]


def _in_repro(name):
    return name == PACKAGE or name.startswith(PACKAGE + ".")


def _edges(module, target):
    """``target`` itself plus every package ``__init__`` entered on the way."""
    parts = target.split(".")
    out = []
    for depth in range(2, len(parts) + 1):
        name = ".".join(parts[:depth])
        if name not in MODULES:
            break
        inside = module == name or module.startswith(name + ".")
        if name == target or (MODULES[name][1] and not inside):
            out.append(name)
    return out


def import_graph():
    """module -> set of ``repro`` modules its top-level imports run."""
    graph = {}
    for module, (path, is_package) in MODULES.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        deps = graph.setdefault(module, set())
        for node, top_level in _import_statements(tree.body):
            if not top_level:
                continue
            for target in _targets(module, is_package, node):
                if _in_repro(target):
                    deps.update(dep for dep in _edges(module, target) if dep != module)
    return graph


def find_cycle(graph):
    """One cycle as a list of modules (first == last), or ``None``."""
    state, stack = {}, []

    def visit(node):
        state[node] = "open"
        stack.append(node)
        for dep in sorted(graph.get(node, ())):
            if state.get(dep) == "open":
                return stack[stack.index(dep):] + [dep]
            if dep not in state:
                cycle = visit(dep)
                if cycle:
                    return cycle
        stack.pop()
        state[node] = "done"
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node)
            if cycle:
                return cycle
    return None


def test_the_module_graph_is_acyclic():
    graph = import_graph()
    # An import from outside a package runs its ``__init__`` too.
    assert {"repro.cluster", "repro.cluster.cluster"} <= graph["repro.core.engine"]
    cycle = find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_no_function_imports_a_repro_module():
    deferred = []
    for module, (path, is_package) in MODULES.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, top_level in _import_statements(tree.body):
            if top_level:
                continue
            if any(_in_repro(t) for t in _targets(module, is_package, node)):
                deferred.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert deferred == [], f"{len(deferred)} function-level repro imports: {deferred}"


def test_the_runtime_loads_no_scipy():
    probe = (
        "import sys, repro, repro.cli; "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=str(ROOT),
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = out.stdout.split()
    assert loaded == [], f"{len(loaded)} scipy modules loaded, first {loaded[:3]}"
