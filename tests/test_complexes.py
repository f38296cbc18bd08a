import itertools
import random
from collections import deque
from fractions import Fraction

import pytest

from algebroids import (
    Complex,
    DisconnectedComplexError,
    MapValidationError,
    MissingFaceError,
    NonIncreasingTupleError,
    SchemaError,
    circle_model,
    compose,
    constant_map,
    contiguous,
    identity_map,
    loop_pairing,
    loop_sums,
    simplicial_map,
    torus_grid,
    torus_model,
    validate_complex,
)

from conftest import rand_fraction, tree_loop


def test_validate_complex_accepts_triangle():
    c = validate_complex(3, [(0, 1), (0, 2), (1, 2), (0, 1, 2)])
    assert c.counts() == (3, 3, 1)
    assert c.euler_characteristic() == 1
    assert c.has_simplex((0, 1, 2))
    assert not c.has_simplex((0, 2, 1))
    assert [e for e in c.edges if 0 in e] == [(0, 1), (0, 2)]


def test_validate_complex_rejects_bad_input():
    with pytest.raises(NonIncreasingTupleError):
        validate_complex(3, [(1, 0), (0, 2), (1, 2)])
    with pytest.raises(NonIncreasingTupleError):
        validate_complex(2, [(0, 0), (0, 1)])
    with pytest.raises(MissingFaceError):
        validate_complex(3, [(0, 1), (0, 2), (0, 1, 2)])
    with pytest.raises(DisconnectedComplexError):
        validate_complex(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedComplexError):
        validate_complex(2, [])
    with pytest.raises(SchemaError):
        validate_complex(2, [(0, 5)])
    with pytest.raises(SchemaError):
        validate_complex(0, [])


def test_disconnection_names_the_first_unreached_vertex():
    # 3 and 4 are reached from 0, so the first vertex off the edges is 1;
    # vertices 6 and 7 lie on no edge at all
    with pytest.raises(DisconnectedComplexError) as info:
        validate_complex(8, [(0, 3), (3, 4), (1, 2), (1, 5), (2, 5)])
    assert info.value.details == {"vertex": 1}
    assert str(info.value) == "vertex 1 is not reachable from vertex 0"
    with pytest.raises(DisconnectedComplexError) as info:
        validate_complex(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    assert info.value.details == {"vertex": 6}


def test_a_named_loop_off_the_edges_is_a_schema_error():
    edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
    for path, text in (((0, 1, 3, 0), "(1, 3)"), ((0, 1, 1, 2, 0), "(1, 1)")):
        with pytest.raises(SchemaError) as info:
            validate_complex(4, edges, named_loops={"a": path})
        assert info.value.message == f"named loop a uses a missing edge {text}"


def test_circle_model_shape():
    c = circle_model(5)
    assert c.counts() == (5, 5)
    assert c.euler_characteristic() == 0
    assert (0, 4) in c.edges
    with pytest.raises(SchemaError):
        circle_model(2)


def test_torus_model_shape(torus):
    assert torus.counts() == (9, 27, 18)
    assert torus.euler_characteristic() == 0
    # each vertex is a hexagon center in this triangulation
    degrees = [0] * 9
    for edge in torus.edges:
        for v in edge:
            degrees[v] += 1
    assert degrees == [6] * 9


def test_torus_grid_rejects_small_grids():
    with pytest.raises(SchemaError):
        torus_grid(2, 3)
    with pytest.raises(SchemaError):
        torus_grid(3, 2)


def test_spanning_tree_of_torus_is_frozen(torus):
    tree = torus.tree
    assert tree.root == 0
    assert tree.tree_edges == frozenset(
        {(0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (0, 8), (1, 5), (1, 7)}
    )
    assert len(torus.tree.non_tree_edges) == 19
    # the BFS reaches 5 through 1, and the root is its own parent
    assert (tree.parent[5], tree.parent[1]) == (1, 0)
    assert tree.parent[0] == 0
    assert tree.order[0] == 0


def reference_tree(c):
    """The spanning tree as a search of its own builds it: breadth first
    from vertex 0 over adjacency lists of every vertex, sorted ascending.
    Returns parent, order, tree edges and the non-tree edges in edge order."""
    adjacency = {v: [] for v in range(c.vertex_count)}
    for i, j in c.edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    for v in adjacency:
        adjacency[v].sort()
    parent = [-1] * c.vertex_count
    parent[0] = 0
    order = [0]
    tree_edges = set()
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if parent[w] == -1:
                parent[w] = v
                order.append(w)
                tree_edges.add((min(v, w), max(v, w)))
                queue.append(w)
    chords = tuple(e for e in c.edges if e not in tree_edges)
    return tuple(parent), tuple(order), frozenset(tree_edges), chords


def random_connected_complex(rng):
    """A connected complex on shuffled vertex labels: a random tree, extra
    edges, and every triangle whose three edges are present, kept at random."""
    n = rng.randint(2, 14)
    labels = list(range(n))
    rng.shuffle(labels)
    edges = {tuple(sorted((labels[k], labels[rng.randrange(k)]))) for k in range(1, n)}
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.sample(range(n), 2)
        edges.add((min(i, j), max(i, j)))
    triangles = [
        t for t in itertools.combinations(range(n), 3)
        if all(f in edges for f in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2])))
        and rng.random() < 0.5
    ]
    return validate_complex(n, sorted(edges) + triangles)


GRIDS = [(r, c) for r in range(3, 9) for c in range(3, 9)]


@pytest.mark.parametrize(
    "build",
    [lambda rc=rc: torus_grid(*rc) for rc in GRIDS]
    + [lambda n=n: circle_model(n) for n in (3, 4, 5, 8, 13)]
    + [lambda seed=seed: random_connected_complex(random.Random(seed)) for seed in range(40)],
    ids=[f"torus{r}x{c}" for r, c in GRIDS]
    + [f"circle{n}" for n in (3, 4, 5, 8, 13)]
    + [f"random{seed}" for seed in range(40)],
)
def test_the_stored_tree_is_the_breadth_first_reference(build):
    c = build()
    tree = c.tree
    assert (tree.parent, tree.order, tree.tree_edges, c.tree.non_tree_edges) == reference_tree(c)
    assert tree.root == 0


def test_a_disconnected_complex_built_directly_raises():
    with pytest.raises(DisconnectedComplexError) as info:
        Complex(4, {1: [(0, 1), (2, 3)]})
    assert info.value.details == {"vertex": 2}
    with pytest.raises(DisconnectedComplexError):
        Complex(3, {})


def test_the_vertices_are_the_0_simplices(torus):
    assert torus.simplices_of_dim(0) == tuple((v,) for v in range(9))
    assert torus.has_simplex((8,)) and not torus.has_simplex((9,))
    assert not torus.has_simplex((-1,))


def test_named_loops_and_windings(torus):
    assert torus.named_loops["a"] == (0, 1, 2, 0)
    assert torus.named_loops["b"] == (0, 3, 6, 0)
    wa = torus.loop_cocycles["a"]
    wb = torus.loop_cocycles["b"]
    assert loop_pairing(wa, torus.named_loops["a"]) == 1
    assert loop_pairing(wa, torus.named_loops["b"]) == 0
    assert loop_pairing(wb, torus.named_loops["b"]) == 1
    assert loop_pairing(wb, torus.named_loops["a"]) == 0


def test_winding_cocycles_are_closed(torus, circle6):
    for c in (torus, circle6):
        for w in c.loop_cocycles.values():
            for i, j, k in c.triangles:
                s = w.get((i, j), Fraction(0)) + w.get((j, k), Fraction(0))
                assert s == w.get((i, k), Fraction(0))


@pytest.mark.parametrize("model", [torus_model, lambda: torus_grid(4, 4), lambda: circle_model(5)],
                         ids=["torus", "torus4x4", "circle5"])
def test_loop_sums_equal_the_pairing_along_each_tree_loop(model):
    """One potential pass gives, on every non-tree edge, the sum along the
    loop it closes, for cochains that need not be closed, sparse or not."""
    c = model()
    tree = c.tree
    rng = random.Random(41)
    for density in (1.0, 0.3, 0.0):
        cochain = {e: rand_fraction(rng) for e in c.edges if rng.random() < density}
        sums = loop_sums(c, cochain)
        assert list(sums) == list(c.tree.non_tree_edges)
        for (i, j), total in sums.items():
            loop = tree_loop(tree, i, j)
            assert loop[0] == loop[-1] == tree.root
            assert total == loop_pairing(cochain, loop)


def test_loop_pairing_reversal(torus):
    wa = torus.loop_cocycles["a"]
    loop = torus.named_loops["a"]
    assert loop_pairing(wa, tuple(reversed(loop))) == -1


def test_simplicial_map_validation(torus, circle3):
    with pytest.raises(MapValidationError):
        simplicial_map(circle3, torus, [0, 1])
    with pytest.raises(MapValidationError):
        simplicial_map(circle3, torus, [0, 1, 99])
    # sending an edge to a non-edge is rejected
    with pytest.raises(MapValidationError):
        simplicial_map(circle3, torus, [0, 1, 5])


def test_identity_and_compose(torus):
    ident = identity_map(torus)
    assert compose(ident, ident) == ident
    shifted = simplicial_map(
        torus, torus, [3 * ((v // 3 + 1) % 3) + v % 3 for v in range(9)]
    )
    assert compose(shifted, compose(shifted, shifted)) == ident


def test_constant_map_needs_vertex(torus, circle3):
    f = constant_map(circle3, torus, 4)
    # collapsed images are reported in reduced form
    assert f.image_simplex((0, 2)) == (4,)
    with pytest.raises(MapValidationError):
        constant_map(circle3, torus, 9)


def test_contiguity_catalog(torus, circle6):
    from conftest import circle_in_torus_maps

    link4, link0 = circle_in_torus_maps(circle6, torus)
    const4 = constant_map(circle6, torus, 4)
    const0 = constant_map(circle6, torus, 0)
    const1 = constant_map(circle6, torus, 1)
    assert contiguous(link4, const4)
    assert contiguous(link0, const0)
    assert contiguous(const0, const1)
    assert not contiguous(link4, const0)
    assert contiguous(link4, link4)


def test_covering_map_is_simplicial(torus, torus36):
    from conftest import torus_cover_map

    f = torus_cover_map(torus36, torus)
    assert f.image_simplex((0, 1)) in torus.edges
    # the long direction wraps twice
    assert [f(v) for v in range(6)] == [0, 1, 2, 0, 1, 2]
