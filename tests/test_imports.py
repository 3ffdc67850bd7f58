"""No module of the package or of the tests imports a name it never uses.

No linter ships with the project, so this scan stands in for one: it parses
every module under src/ and tests/ and lists each name an import statement
binds but no expression of the module reads. `from __future__` imports and
the package's __init__.py, whose imports are its public re-exports, are not
scanned.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str):
    """(line, name) of each imported name that no expression of `source` reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport numpy.linalg\nfrom math import pi as tau, e\nprint(e, numpy)\n"
    assert unused_imports(source) == [(1, "os"), (3, "tau")]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert len(paths) > 10
    assert found == []
