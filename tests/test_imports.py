"""Lint checks on the syntax tree of each module of the package.

There is no linter in the toolchain, so these walk the syntax trees:

- no module imports a name it does not use: every name bound by a
  module-level ``import`` must be read somewhere in that module
  (``__init__.py`` only re-exports, so it is exempt);
- every import is at module level: no function or method body imports,
  so the import lints here see every name a module binds;
- only ``complexes.py`` and ``local_systems.py`` walk a spanning tree, that
  is read its ``parent`` or ``order``: every other module takes loop sums,
  holonomies and frames from the one pass each of those makes;
- only ``linalg.py`` reads the rows of a ``_RowSpace``, its ``echelon``:
  every other module asks for its ``pivots``, its length, ``reduce``,
  ``contains`` or ``reduced_rows``;
- a ``_RowSpace`` has one echelon form: no call in the package or its
  tests passes it a keyword or a second argument, so a second form cannot
  come back as a flag;
- the computations do not know the output format: ``linalg``,
  ``complexes``, ``local_systems``, ``cohomology``, ``algebroid`` and
  ``char_classes`` import neither ``jsonio`` nor ``cli``, and no module but
  ``cli`` imports ``cli``, which builds every report;
- only ``local_systems.py`` sets a system's flatness, that is assigns a
  ``_violations`` attribute: every other module asks ``check_flat``, so a
  system is tagged flat only by the law or by a construction that keeps it;
- only ``cohomology.py`` writes the untwisted cohomology a complex keeps,
  its ``_untwisted_spaces``: it stores, deletes or updates an entry, or
  rebinds the memo, so every entry is the data of a space it built with
  every check.  ``Complex.__init__`` declares the memo empty;
- no definition is dead: every function, method and class defined in the
  package (dunders aside) is referenced, as a name or an attribute, from
  the package or its tests;
- no option is dead: every parameter with a default, on a function or
  method of the package, is passed by some call in the package or its
  tests.  Calls are matched by name, and a class's call is its
  ``__init__``.
"""

import ast
from pathlib import Path

import algebroids

PACKAGE = Path(algebroids.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# (module, name) pairs that are imported on purpose without being read
ALLOWED = {
    # bench/test_oracles.py reaches the cohomology module's namespace
    # through ``cli.cohomology.__globals__``
    ("cli", "cohomology"),
    # bench/test_oracles.py reaches the cohomology module's namespace
    # through ``cli.cohomology.__globals__``
    ("cohomology", "solve"),
}


# the modules that may walk a spanning tree
TREE_WALKERS = {"complexes", "local_systems"}


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


def function_imports(path: Path) -> list:
    """Line of every import statement inside a function or method body, at
    any depth."""
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    return sorted({
        inner.lineno
        for node in ast.walk(tree)
        if isinstance(node, functions)
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    })


def test_no_import_inside_a_function():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in function_imports(path)
    ]
    assert found == []


def test_the_check_finds_an_import_inside_a_function(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nfrom . import linalg\n"
                    "def f():\n    import sys\n    return sys\n"
                    "class A:\n    import json\n"
                    "    def m(self):\n        def g():\n            from .cli import main\n"
                    "        if self:\n            from typing import Any\n        return g\n")
    assert function_imports(path) == [4, 10, 12]


def tree_walks(path: Path) -> list:
    """(line, attribute) of every ``.parent`` or ``.order`` in a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("parent", "order")
    )


def test_only_the_gauge_modules_walk_the_spanning_tree():
    found = []
    walkers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        walks = tree_walks(path)
        if walks:
            walkers.add(path.stem)
        if path.stem not in TREE_WALKERS:
            found.extend(f"{path.name}:{line}: .{attr}" for line, attr in walks)
    assert found == []
    assert walkers == TREE_WALKERS


def test_the_check_finds_a_tree_walk(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(tree, parents):\n    for v in tree.order[1:]:\n"
                    "        yield parents[v], tree.parent[v], tree.root\n")
    assert tree_walks(path) == [(2, "order"), (3, "parent")]


def echelon_reads(path: Path) -> list:
    """Line of every ``.echelon`` in a module: the rows of a ``_RowSpace``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "echelon"
    )


def test_only_linalg_reads_the_rows_of_a_row_space():
    found = []
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = echelon_reads(path)
        if lines:
            readers.add(path.stem)
        if path.stem != "linalg":
            found.extend(f"{path.name}:{line}: .echelon" for line in lines)
    assert found == []
    assert readers == {"linalg"}


def test_the_check_finds_a_read_of_the_rows(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(space, m):\n    n = len(space.echelon)\n    pivots = space.pivots\n"
                    "    return m.rows, [\n        space.echelon[p] for p in pivots]\n")
    assert echelon_reads(path) == [2, 5]


def row_space_options(path: Path) -> list:
    """Line of every call of ``_RowSpace``, by name or as an attribute, that
    passes a keyword, more than one argument or an unpacked argument."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "_RowSpace" and (
            node.keywords or len(node.args) > 1
            or any(isinstance(a, ast.Starred) for a in node.args)
        ):
            found.append(node.lineno)
    return sorted(found)


def test_a_row_space_has_one_form():
    found = [
        f"{path.parent.name}/{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
        for line in row_space_options(path)
    ]
    assert found == []


def test_the_check_finds_an_option_passed_to_a_row_space(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from algebroids import linalg\nfrom algebroids.linalg import _RowSpace\n"
                    "a = _RowSpace()\nb = _RowSpace([(1, 0)])\nc = _RowSpace([], reduced=True)\n"
                    "d = linalg._RowSpace(rows, True)\ne = linalg._RowSpace(rows)\n"
                    "f = _RowSpace(**options)\ng = _RowSpace(*parts)\nh = RowSpace([], True)\n")
    assert row_space_options(path) == [5, 6, 8, 9]


# the modules that compute, and so return objects and never report bytes
COMPUTATIONS = {"linalg", "complexes", "local_systems", "cohomology", "algebroid", "char_classes"}


def package_imports(path: Path) -> list:
    """(line, module) of every package module a module imports, at any
    depth: ``from .m import x``, ``from . import m``, ``import algebroids.m``,
    ``from algebroids.m import x`` and ``from algebroids import m``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            found.extend((node.lineno, p[1]) for p in parts if p[0] == "algebroids" and len(p) > 1)
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "algebroids":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.append((node.lineno, parts[0]))
            else:
                found.extend((node.lineno, alias.name) for alias in node.names)
    return sorted(found)


def test_the_computations_do_not_know_the_output_format():
    stems = {path.stem for path in PACKAGE.glob("*.py")}
    assert COMPUTATIONS <= stems
    found = [
        f"{path.name}:{line}: {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, module in package_imports(path)
        if (module == "cli" and path.stem != "cli")
        or (module == "jsonio" and path.stem in COMPUTATIONS)
    ]
    assert found == []


def test_the_check_finds_an_import_of_the_output_format(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os.path\nfrom .jsonio import dump_json\nfrom . import cli, linalg\n"
                    "import algebroids.jsonio as j\nfrom algebroids.cli import main\n"
                    "from algebroids import cohomology\nfrom json import dumps\n"
                    "def f():\n    from .cli import main\n    return main\n")
    assert package_imports(path) == [
        (2, "jsonio"), (3, "cli"), (3, "linalg"), (4, "jsonio"), (5, "cli"),
        (6, "cohomology"), (9, "cli"),
    ]


def flatness_writes(path: Path) -> list:
    """Line of every assignment to a ``._violations`` attribute in a module,
    plain, augmented, annotated or unpacked."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for part in ast.walk(target):
                if isinstance(part, ast.Attribute) and part.attr == "_violations":
                    found.append(part.lineno)
    return sorted(found)


def test_only_local_systems_sets_a_systems_flatness():
    found = []
    writers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = flatness_writes(path)
        if lines:
            writers.add(path.stem)
        if path.stem != "local_systems":
            found.extend(f"{path.name}:{line}: ._violations" for line in lines)
    assert found == []
    assert writers == {"local_systems"}


def test_the_check_finds_a_flatness_write(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("def f(L, M, N):\n    L._violations = ()\n    print(M._violations)\n"
                    "    a, N._violations = 1, None\n    L._violations += ()\n"
                    "    M._violations: tuple = ()\n")
    assert flatness_writes(path) == [2, 4, 5, 6]


# the dict methods that change a dict in place
MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__"}


def untwisted_writes(path: Path) -> list:
    """Line of every write to a ``._untwisted_spaces`` memo in a module: an
    assignment or deletion whose target holds the attribute, or a call of a
    mutating dict method on it.  The empty declaration ``self.
    _untwisted_spaces = {}`` is not a write."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def memo(node):
        return isinstance(node, ast.Attribute) and node.attr == "_untwisted_spaces"

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
            if (len(targets) == 1 and memo(targets[0]) and isinstance(targets[0].value, ast.Name)
                    and targets[0].value.id == "self" and isinstance(node.value, ast.Dict)
                    and not node.value.keys):
                continue
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS and memo(node.func.value)):
            found.append(node.lineno)
            continue
        else:
            continue
        found.extend(part.lineno for target in targets for part in ast.walk(target) if memo(part))
    return sorted(found)


def test_only_cohomology_writes_the_kept_untwisted_cohomology():
    found = []
    writers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = untwisted_writes(path)
        if lines:
            writers.add(path.stem)
        if path.stem != "cohomology":
            found.extend(f"{path.name}:{line}: ._untwisted_spaces" for line in lines)
    assert found == []
    assert writers == {"cohomology"}


def test_the_check_finds_a_write_to_the_kept_untwisted_cohomology(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("class C:\n    def __init__(self):\n        self._untwisted_spaces = {}\n"
                    "def f(c, d):\n    c._untwisted_spaces[2] = d\n    print(c._untwisted_spaces.get(2))\n"
                    "    del c._untwisted_spaces[2]\n    c._untwisted_spaces.setdefault(1, d)\n"
                    "    c._untwisted_spaces = {}\n    c._untwisted_spaces.update({})\n"
                    "    x, c._untwisted_spaces[0] = 1, d\n    c._untwisted_spaces |= {}\n"
                    "    self._untwisted_spaces = {1: d}\n")
    assert untwisted_writes(path) == [5, 7, 8, 9, 10, 11, 12, 13]


def definitions(path: Path) -> list:
    """(line, name) of every function, method and class a module defines,
    dunders aside."""
    tree = ast.parse(path.read_text(), filename=str(path))
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, kinds)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    )


def references(paths) -> set:
    """Every name read or written, and every attribute, in the given modules."""
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def test_every_definition_is_referenced():
    used = references(sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")))
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in definitions(path)
        if name not in used
    ]
    assert found == []


def test_the_check_finds_an_unreferenced_definition(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("class A:\n    def __init__(self):\n        pass\n"
                    "    def build(self):\n        return helper()\n"
                    "    def used(self):\n        pass\n"
                    "def helper():\n    return A().used\n")
    assert definitions(path) == [(1, "A"), (4, "build"), (6, "used"), (8, "helper")]
    unreferenced = [name for _, name in definitions(path) if name not in references([path])]
    assert unreferenced == ["build"]


def defaulted_parameters(path: Path) -> list:
    """(line, callee, parameter, position) of every parameter with a default
    on a function or method a module defines.  The callee of ``__init__`` is
    its class; ``position`` is the index among a call's positional arguments
    (``self`` or ``cls`` not counted), None for a keyword-only parameter."""
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                callee = owner if node.name == "__init__" else node.name
                skip = owner is not None
                first = len(positional) - len(args.defaults)
                for i in range(first, len(positional)):
                    found.append((node.lineno, callee, positional[i].arg, i - skip))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((node.lineno, callee, arg.arg, None))
                visit(node.body, None)

    visit(ast.parse(path.read_text(), filename=str(path)).body, None)
    return sorted(found)


def passed_arguments(paths) -> dict:
    """Per callee name, the keywords and positions its calls pass; ``*`` and
    ``**`` stand for unpacked positional and keyword arguments."""
    passed = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                got = passed.setdefault(name, set())
                got.update("*" if isinstance(a, ast.Starred) else i for i, a in enumerate(node.args))
                got.update(k.arg or "**" for k in node.keywords)
    return passed


def unpassed_defaults(modules, callers) -> list:
    passed = passed_arguments(callers)
    found = []
    for path in modules:
        for line, callee, param, position in defaulted_parameters(path):
            got = passed.get(callee, set())
            if not got & {param, "**"} and (position is None or not got & {position, "*"}):
                found.append(f"{path.name}:{line}: {callee}({param})")
    return found


def test_every_default_is_passed_by_some_call():
    modules = sorted(PACKAGE.glob("*.py"))
    assert unpassed_defaults(modules, modules + sorted(TESTS.glob("*.py"))) == []


def test_the_check_finds_a_default_no_call_passes(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("class A:\n    def __init__(self, x, y=0):\n        pass\n"
                    "    def m(self, z=1, *, w=2):\n        pass\n"
                    "def f(p, q=None, r=3):\n    return A(1, 2).m(w=5)\n"
                    "f(*[1], q=2)\n")
    assert defaulted_parameters(path) == [
        (2, "A", "y", 1), (4, "m", "w", None), (4, "m", "z", 0), (6, "f", "q", 1), (6, "f", "r", 2),
    ]
    assert unpassed_defaults([path], [path]) == ["sample.py:4: m(z)"]
