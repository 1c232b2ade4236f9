"""Every import in src/ and tests/ is used.

Package ``__init__.py`` files re-export names, and ``from __future__``
imports change how a module compiles, so neither counts.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    files = [p for d in ("src", "tests") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert files
    found = [f"{p.relative_to(ROOT)}:{line}: {name}"
             for p in files for line, name in unused_imports(p)]
    assert found == []
