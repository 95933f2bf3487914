"""Every declared counter is counted somewhere, and every counted name
is declared.

A static read of ``src/``: each ``<registry>.add("name", ...)`` call
(on a ``perf`` or ``counters`` attribute) must name a counter of
:data:`repro.bench.counters.COUNTERS`, and each declared name must be
added by at least one such call, so a dead counter or a typo cannot
come back unnoticed.
"""

import ast
from pathlib import Path

from repro.bench.counters import COUNTERS

ROOT = Path(__file__).resolve().parents[1]
REGISTRIES = {"perf", "counters"}


def _registry_name(node: ast.expr) -> str:
    """``perf`` for ``self.perf`` / ``entity.perf`` / ``perf``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def counted_names():
    """name -> the ``file:line`` sites that add it; plus non-literal sites."""
    sites, dynamic = {}, []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add"
                and _registry_name(node.func.value) in REGISTRIES
                and node.args
            ):
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            name = node.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                sites.setdefault(name.value, []).append(where)
            else:
                dynamic.append(where)
    return sites, dynamic


def test_every_counted_name_is_declared_and_every_declared_name_counted():
    sites, dynamic = counted_names()
    assert dynamic == [], "count with a literal name so this check can see it"
    assert {name: where for name, where in sites.items() if name not in COUNTERS} == {}
    assert sorted(set(COUNTERS) - set(sites)) == []
