"""No module of the package imports a name it does not use.

There is no linter in the toolchain, so this walks the syntax tree of each
module: every name bound by a module-level ``import`` must be read
somewhere in that module.  ``__init__.py`` only re-exports, so it is exempt.
"""

import ast
from pathlib import Path

import algebroids

PACKAGE = Path(algebroids.__file__).resolve().parent

# (module, name) pairs that are imported on purpose without being read
ALLOWED = {
    # bench/test_oracles.py reaches the cohomology module's namespace
    # through ``cli.cohomology.__globals__``
    ("cli", "cohomology"),
}


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_module_level_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path):
            if (path.stem, name) not in ALLOWED:
                found.append(f"{path.name}:{line}: {name}")
    assert found == []


def test_the_check_finds_an_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nimport sys as system\nfrom typing import Any, Sequence\n"
                    "def f(x: Sequence):\n    return system.argv\n")
    assert unused_imports(path) == [(1, "os"), (3, "Any")]
