"""No source module grows past ~800 lines.

A module that long is split where its state separates (the Agent into
``rounds.py``, ``replicas.py``, ``vertextable.py``, ``shard.py`` and
``migration.py``), not squeezed under the limit.
"""

from pathlib import Path

LIMIT = 800
ROOT = Path(__file__).resolve().parents[1]


def test_no_source_module_exceeds_the_limit():
    sources = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert any(path.name == "rounds.py" for path in sources)
    sizes = {
        str(path.relative_to(ROOT)): len(path.read_text(encoding="utf-8").splitlines())
        for path in sources
    }
    assert {name: n for name, n in sizes.items() if n > LIMIT} == {}
