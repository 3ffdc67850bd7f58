"""No module of the package or of the tests imports a name it never uses, no
module of the package but core writes a CSV itself, no module of the
package dispatches on a trainer's kind, and the package defines no private
top-level name that none of its modules reads.

No linter ships with the project, so these scans stand in for one. The first
parses every module under src/ and tests/ and lists each name an import
statement binds but no expression of the module reads. `from __future__`
imports and the package's __init__.py, whose imports are its public
re-exports, are not scanned. The second lists each reference to csv.writer
under src/ outside core.py: every CSV goes through core.write_csv, the one
place that knows the cell format. The third lists each comparison under
src/ that reads an attribute named kind: a trainer is used through its fit,
stability_bound and sigma_or_T, and its kind is report data only. The
fourth lists each private (underscore) top-level function, class or
constant under src/ that no module under src/ reads, as a name, an
attribute or a from-import: dead code left behind by a refactor.

The last test runs the CLI in a fresh interpreter and reads sys.modules:
importing the package, or running SGD, loads no scipy module, and an RRM
run loads scipy.linalg alone, for its Newton solve.
"""
import ast
import json
import os
import subprocess
import sys
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


def csv_writer_references(source: str):
    """Lines of `source` that read csv.writer or import it from csv."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "writer"
            and isinstance(node.value, ast.Name)
            and node.value.id == "csv"
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "csv"
            and any(alias.name == "writer" for alias in node.names)
        )
    ]


def test_the_scan_finds_a_csv_writer():
    source = "import csv\nfrom csv import reader, writer as w\nw = csv.writer(fh)\ncsv.reader(fh)\n"
    assert csv_writer_references(source) == [2, 3]


def test_only_core_references_csv_writer():
    paths = sorted((ROOT / "src").rglob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in paths
        if path.name != "core.py"
        for line in csv_writer_references(path.read_text())
    ]
    assert len(paths) > 5
    assert found == []
    core = ROOT / "src" / "tripletlab" / "core.py"
    assert len(csv_writer_references(core.read_text())) == 1


def kind_comparisons(source: str):
    """Lines of `source` with a comparison that reads an attribute named kind."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(
            isinstance(operand, ast.Attribute) and operand.attr == "kind"
            for operand in [node.left, *node.comparators]
        )
    ]


def test_the_scan_finds_a_kind_comparison():
    source = (
        'if trainer.kind == "rrm":\n'
        '    pass\n'
        'x = "sgd" != self.trainer.kind\n'
        'y = kind == "rrm"\n'
        'z = trainer.kind\n'
        'ok = a < b.kind in c\n'
    )
    assert kind_comparisons(source) == [1, 3, 6]


def test_no_module_compares_a_trainer_kind():
    paths = sorted((ROOT / "src").rglob("*.py"))
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in paths
        for line in kind_comparisons(path.read_text())
    ]
    assert len(paths) > 5
    assert found == []


def unread_private_names(sources):
    """(module, line, name) of each private top-level function, class or
    constant of `sources` ({module: source}) that no module of them reads:
    as a name, as an attribute, or in a from-import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [
                    name.id
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
            else:
                continue
            found += [
                (module, node.lineno, name)
                for name in defined
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return found


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "a": (
            "_LIMIT, _SPARE = 3, 4\n"
            "_unread: int = 5\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "class _Gone:\n"
            "    pass\n"
            "__version__ = '1'\n"
            "def _orphan():\n"
            "    _orphan_local = 1\n"
        ),
        "b": "from a import _helper\nimport a\nprint(a._SPARE)\n",
    }
    assert unread_private_names(sources) == [
        ("a", 2, "_unread"), ("a", 5, "_Gone"), ("a", 8, "_orphan")
    ]


def test_every_private_top_level_name_under_src_is_read():
    paths = sorted((ROOT / "src").rglob("*.py"))
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in paths}
    assert len(paths) > 5
    assert unread_private_names(sources) == []


SCIPY_MODULES = """
import json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import tripletlab.cli
loaded = {"import": scipy_modules()}
task = ["--seed", "12", "--d", "3", "--n-plus", "8", "--n-minus", "7"]
for command, flags in (("sgd", ["--T", "300"]), ("rrm", ["--lam", "0.1"])):
    code = tripletlab.cli.main([command, *task, *flags, "--outdir", sys.argv[1] + "/" + command])
    loaded[command] = scipy_modules() if code == 0 else code
print(json.dumps(loaded))
"""


def test_only_the_newton_solve_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", SCIPY_MODULES, str(tmp_path)], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded["import"] == [] and loaded["sgd"] == []
    assert "scipy.linalg" in loaded["rrm"]
    assert not any(name.startswith(("scipy.stats", "scipy.special")) for name in loaded["rrm"])
