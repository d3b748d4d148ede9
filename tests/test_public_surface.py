"""Every public name has a caller in the package or the demos.

A name in ``labelcal.__all__`` that nothing outside the tests uses is
surface to keep without a purpose; this scan keeps it from regrowing.
"""

import ast
from pathlib import Path

import labelcal

ROOT = Path(__file__).resolve().parents[1]


def referenced_names(paths) -> set[str]:
    """Every name, attribute and imported name used in ``paths``, and the
    last part of each module a ``from ... import`` reads."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module.rsplit(".", 1)[-1])
    return names


def test_every_public_name_has_a_caller():
    package = [p for p in (ROOT / "src" / "labelcal").glob("*.py") if p.name != "__init__.py"]
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert len(package) > 10 and len(demos) > 5
    used = referenced_names([*package, *demos])
    assert [name for name in labelcal.__all__ if name not in used] == []
