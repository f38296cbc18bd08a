"""The built-in models are built once per process and shared.

Whatever depends on the base alone is shared with it: the model itself,
the windings of its named loops and its untwisted cohomology.  Nothing a
query does may change a shared model or what it keeps, and the vertices
of the models a process keeps are bounded.  The counts pinned here
(row-space additions, spaces and model builds per query) show a lost
saving without a benchmark run.
"""

import copy
import gc
import importlib
import json
import weakref
from pathlib import Path

import pytest

from algebroids import circle_model, linalg, torus_grid, torus_model, trivial_system
from algebroids import complexes
from algebroids.cli import main
from algebroids.jsonio import builtin_complex

# the package exports the function ``cohomology`` under the module's name
COHOMOLOGY = importlib.import_module("algebroids.cohomology")
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "chern_weil"

CHAR_CLASSES = ["char-classes", "--check-surjectivity", "--json", "--complex", "builtin:torus",
                "--rep", "a=6/5,b=-35/3"]
CHERN_WEIL = ["chern-weil", "--json", "--complex", "builtin:torus3x3",
              "--rep-file", str(FIXTURES / "rep2_unipotent.json"),
              "--omega", str(FIXTURES / "omega_torus3x3_rank2.json"), "--max-k", "2"]


def recorder(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments,
    keyword arguments included."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("names", [
    ("builtin:torus", "builtin:torus3x3"),
    ("builtin:torus4x4",),
    ("builtin:torus3x6",),
    ("builtin:circle", "builtin:circle3"),
    ("builtin:circle6",),
])
def test_each_builtin_name_gives_one_model_per_process(names):
    models = [builtin_complex(name) for name in names for _ in range(3)]
    assert all(m is models[0] for m in models)


def test_the_constructors_hand_out_the_shared_models():
    assert torus_model() is torus_grid(3, 3) is torus_grid() is builtin_complex("builtin:torus")
    assert circle_model() is circle_model(3) is builtin_complex("builtin:circle3")
    assert torus_grid(3, 4) is not torus_grid(4, 3)


def held_vertices():
    return sum(c.vertex_count for c in complexes._shared_models.values())


def test_the_cache_never_holds_more_than_its_bound(fresh_models):
    bound = complexes.MAX_SHARED_VERTICES
    sizes = [bound // 4 + n for n in range(8)]
    built = []
    for n in sizes:
        built.append(circle_model(n))
        assert held_vertices() <= bound
    # the most recent models that fit are kept, and an evicted one is
    # built again
    assert [c.vertex_count for c in complexes._shared_models.values()] == sizes[-3:]
    assert all(circle_model(n) is c for n, c in zip(sizes[-3:], built[-3:]))
    again = circle_model(sizes[0])
    assert again is not built[0] and again == built[0]
    # a model over the bound alone is handed out but not kept, and evicts
    # nothing
    held = list(complexes._shared_models.values())
    large = circle_model(bound + 1)
    assert circle_model(bound + 1) is not large
    assert list(complexes._shared_models.values()) == held


def test_an_evicted_or_over_budget_model_dies_with_its_query(monkeypatch, fresh_models, capsys):
    """With the cycle collector off, a model the cache no longer holds is
    freed by reference counting once the query that used it returns, with
    the untwisted cohomology kept on it."""
    models = {}
    build = complexes.validate_complex

    def keep_a_weakref(*args, **kwargs):
        c = build(*args, **kwargs)
        models[c.name] = weakref.ref(c)
        return c

    monkeypatch.setattr(complexes, "validate_complex", keep_a_weakref)
    side = int(complexes.MAX_SHARED_VERTICES ** 0.5) + 1
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert main(CHAR_CLASSES) == 0
        assert 2 in models["torus3x3"]()._untwisted_spaces
        # over the bound alone: never kept
        assert main(["validate", "--complex", f"builtin:torus{side}x{side}"]) == 0
        assert models[f"torus{side}x{side}"]() is None
        # 900 + 100 vertices more evict the oldest model, the 3x3 torus
        for name in ("torus30x30", "torus10x10"):
            assert main(["validate", "--complex", f"builtin:{name}"]) == 0
        assert models["torus3x3"]() is None
        assert models["torus10x10"]() is builtin_complex("builtin:torus10x10")
    finally:
        if enabled:
            gc.enable()
    capsys.readouterr()


def test_the_names_of_one_benchmark_run_stay_shared(fresh_models):
    names = ["builtin:torus3x3", "builtin:torus5x5", "builtin:torus6x6", "builtin:torus4x4",
             "builtin:torus"]
    first = [builtin_complex(name) for name in names]
    for _ in range(3):
        assert all(builtin_complex(n) is c for n, c in zip(names, first))


def _state(c):
    tree = c.tree
    return c.tree, copy.deepcopy((
        c.vertex_count, c.simplices, c.named_loops, c.loop_cocycles,
        tree.parent, tree.order, tree.tree_edges, tree.non_tree_edges,
    ))


def _kept(c):
    """The untwisted cohomology a model keeps: the kept objects, and a deep
    copy of their plain data."""
    kept = dict(c._untwisted_spaces)
    return kept, copy.deepcopy({
        n: (vars(image), tails) for n, (image, tails) in kept.items()
    })


def test_no_subcommand_changes_a_shared_model(tmp_path, capsys):
    torus, circle = torus_model(), circle_model(3)
    before = {id(c): _state(c) for c in (torus, circle)}
    # the loop a of the 3x3 torus runs 0 -> 1 -> 2 -> 0
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({
        "schema_version": "1", "source": "builtin:circle3", "target": "builtin:torus",
        "vertex_map": [0, 1, 2],
    }))
    rep = ["--rep", "a=6/5,b=-35/3"]
    queries = [
        ["validate", "--complex", "builtin:torus", *rep, "--omega", "fundamental"],
        ["cohomology", "--complex", "builtin:torus", *rep],
        ["cohomology", "--complex", "builtin:circle3", "--rep", "a=-2"],
        CHAR_CLASSES,
        ["surjectivity", "--complex", "builtin:torus", *rep],
        ["pullback", "--map", str(map_path), *rep],
        CHERN_WEIL,
        ["chern-weil", "--complex", "builtin:torus", "--rep", "a=2,b=3", "--omega", "fundamental",
         "--max-k", "2"],
    ]
    for argv in queries:
        assert main(argv) == 0, argv
    capsys.readouterr()
    for c in (torus, circle):
        tree, state = before[id(c)]
        assert c.tree is tree
        assert _state(c)[1] == state
    assert torus_model() is torus and circle_model(3) is circle
    # what the first round kept, a second round reads and does not change
    kept = {id(c): _kept(c) for c in (torus, circle)}
    assert 2 in kept[id(torus)][0]
    for argv in queries:
        assert main(argv) == 0, argv
    capsys.readouterr()
    for c in (torus, circle):
        objects, data = kept[id(c)]
        assert c._untwisted_spaces.keys() == objects.keys()
        assert all(c._untwisted_spaces[n] is objects[n] for n in objects)
        assert _kept(c)[1] == data


def test_loop_sums_run_once_per_named_loop_per_model(monkeypatch, fresh_models, capsys):
    sums = recorder(monkeypatch, complexes, "loop_sums")
    for argv in [CHAR_CLASSES, CHERN_WEIL] * 2 + [
        ["surjectivity", "--complex", "builtin:torus", "--rep", "a=2,b=3"],
        ["cohomology", "--complex", "builtin:torus4x4", "--rep", "a=2,b=3"],
        ["cohomology", "--complex", "builtin:torus4x4", "--rep", "a=3,b=2"],
    ]:
        assert main(argv) == 0
    capsys.readouterr()
    loops = sorted(
        (c.name, next(name for name, w in c.loop_cocycles.items() if w is cochain))
        for c, cochain in sums
    )
    assert loops == [("torus3x3", "a"), ("torus3x3", "b"), ("torus4x4", "a"), ("torus4x4", "b")]


@pytest.mark.parametrize("argv, first, repeated", [(CHAR_CLASSES, 74, 47), (CHERN_WEIL, 55, 27)])
def test_one_query_pins_its_additions_and_builds(monkeypatch, fresh_models, capsys, argv, first,
                                                 repeated):
    """Row-space additions, spaces and model builds of one query, counted
    in process.  Before H^n was read off the echelon of B^n, the two
    queries made 97 and 79 additions; before the models were shared, each
    query built its model (and the surjectivity test a second one); before
    the model kept its untwisted cohomology, every query made as many
    additions as the first."""
    added = recorder(monkeypatch, linalg._RowSpace, "add")
    builds = recorder(monkeypatch, complexes, "validate_complex")
    spaces = recorder(monkeypatch, COHOMOLOGY, "cohomology")
    out = []
    for adds in (first, repeated, repeated):
        added.clear()
        spaces.clear()
        assert main(argv) == 0
        out.append(capsys.readouterr().out)
        assert len(added) == adds
    # a repeated query builds no space of the trivial line
    assert not [n for L, n in spaces if L == trivial_system(L.base, 1)]
    # the first query of the process builds its model, and no other does
    assert len(builds) == 1
    assert out[0] == out[1] == out[2]
