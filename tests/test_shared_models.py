"""The built-in models are built once per process and shared.

Whatever depends on the base alone is shared with it: the model itself and
the windings of its named loops.  Nothing a query does may change a shared
model, and the number of models a process keeps is bounded.  The counts
pinned here (row-space additions and model builds per query) show a lost
saving without a benchmark run.
"""

import copy
import json
from pathlib import Path

import pytest

from algebroids import circle_model, linalg, torus_grid, torus_model
from algebroids import complexes
from algebroids.cli import main
from algebroids.jsonio import builtin_complex

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "chern_weil"

CHAR_CLASSES = ["char-classes", "--check-surjectivity", "--json", "--complex", "builtin:torus",
                "--rep", "a=6/5,b=-35/3"]
CHERN_WEIL = ["chern-weil", "--json", "--complex", "builtin:torus3x3",
              "--rep-file", str(FIXTURES / "rep2_unipotent.json"),
              "--omega", str(FIXTURES / "omega_torus3x3_rank2.json"), "--max-k", "2"]


@pytest.fixture
def fresh_models():
    """An empty model cache, and an empty one again afterwards, so no
    model built under a test's wrappers outlives the test."""
    complexes._shared_model.cache_clear()
    yield
    complexes._shared_model.cache_clear()


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


def test_the_cache_never_holds_more_than_its_bound(fresh_models):
    bound = complexes.MAX_SHARED_MODELS
    built = []
    for n in range(3, 3 + 2 * bound):
        built.append(circle_model(n))
        assert complexes._shared_model.cache_info().currsize <= bound
    assert complexes._shared_model.cache_info().currsize == bound
    # the most recent models are kept, and an evicted one is built again
    assert all(circle_model(3 + 2 * bound - 1 - i) is built[-1 - i] for i in range(bound))
    again = circle_model(3)
    assert again is not built[0] and again == built[0]


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


@pytest.mark.parametrize("argv, adds", [(CHAR_CLASSES, 74), (CHERN_WEIL, 55)])
def test_one_query_pins_its_additions_and_builds(monkeypatch, fresh_models, capsys, argv, adds):
    """Row-space additions and model builds of one query, counted in
    process.  Before H^n was read off the echelon of B^n, the two queries
    made 97 and 79 additions; before the models were shared, each query
    built its model (and the surjectivity test a second one)."""
    added = recorder(monkeypatch, linalg._RowSpace, "add")
    builds = recorder(monkeypatch, complexes, "validate_complex")
    out = []
    for _ in range(3):
        added.clear()
        assert main(argv) == 0
        out.append(capsys.readouterr().out)
        assert len(added) == adds
    # the first query of the process builds its model, and no other does
    assert len(builds) == 1
    assert out[0] == out[1] == out[2]
