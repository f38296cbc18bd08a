"""Finite ordered simplicial complexes, simplicial maps and spanning trees.

Vertices are the integers 0..N-1 and every simplex is stored as a strictly
increasing tuple, so each simplex carries the orientation induced by the
vertex order; the vertices are the 0-simplices.  Complexes are required to
be face-closed and connected; the connectivity requirement is what lets a
breadth-first spanning tree rooted at vertex 0 serve as a global gauge for
local systems.  That tree is built once, by the search that ``Complex``
runs at construction to test connectivity, and is stored on the complex.

Built-in models carry named loops (closed edge paths) together with winding
cocycles: rational 1-cocycles dual to those loops.  The winding data is what
turns a homotopy class of a loop into an exponent vector, which the
representation constructors use to fill in transports consistently.

``loop_sums`` sums an edge cochain around the loop each non-tree edge closes
in one pass down the spanning tree; ``loop_pairing`` sums one along any
vertex path.  Only this module and ``local_systems`` walk the tree.

The built-in models are fixed by their kind and size, so ``circle_model``
and ``torus_grid`` build each one once per process and hand every caller
the same object, while the models kept stay within ``MAX_SHARED_VERTICES``.
Whatever depends on a complex alone is kept on it once computed: the
windings of its named loops (``Complex.windings``) and, kept by the
``cohomology`` module, the plain data of its untwisted H^n
(``Complex._untwisted_spaces``).  Neither memo points back to the complex.
Complexes are immutable by convention, and a shared model above all: a
caller must not change its simplices, loops, cocycles, tree or memos.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import (
    DisconnectedComplexError,
    InputError,
    MapMismatchError,
    MapValidationError,
    MissingFaceError,
    NonIncreasingTupleError,
    SchemaError,
)


class Complex:
    """A finite, face-closed, connected, ordered simplicial complex.

    Construction runs the one breadth-first search of the complex, from
    vertex 0 with neighbors in ascending order.  It raises
    ``DisconnectedComplexError`` naming the first vertex it cannot reach,
    and it keeps the spanning tree and the non-tree edges it finds."""

    def __init__(self, vertex_count, simplices_by_dim, named_loops=None,
                 loop_cocycles=None, name=None):
        self.vertex_count = vertex_count
        simplices = {
            n: tuple(sorted(simps)) for n, simps in simplices_by_dim.items() if simps
        }
        # the search touches only vertices that lie on an edge, so a declared
        # vertex count far beyond the edges fails before any per-vertex memory
        adjacency: dict = {}
        for i, j in simplices.get(1, ()):
            adjacency.setdefault(i, []).append(j)
            adjacency.setdefault(j, []).append(i)
        parent = {0: 0}
        order = [0]
        tree_edges = set()
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in adjacency.get(v, ()):
                if w not in parent:
                    parent[w] = v
                    order.append(w)
                    tree_edges.add((min(v, w), max(v, w)))
                    queue.append(w)
        if len(parent) != vertex_count:
            missing = next(v for v in itertools.count() if v not in parent)
            raise DisconnectedComplexError(
                f"vertex {missing} is not reachable from vertex 0", vertex=missing
            )
        self.tree = SpanningTree(
            tuple(parent[v] for v in range(vertex_count)),
            tuple(order),
            frozenset(tree_edges),
            tuple(e for e in simplices.get(1, ()) if e not in tree_edges),
        )
        simplices[0] = tuple((v,) for v in range(vertex_count))
        self.simplices = simplices
        self.dimension = max(self.simplices)
        self.named_loops = dict(named_loops or {})
        self.loop_cocycles = dict(loop_cocycles or {})
        self.name = name
        self._sets = {n: frozenset(s) for n, s in self.simplices.items()}
        self._windings = {}  # named loop -> its loop_sums
        # degree -> the plain data of the untwisted H^n, kept by cohomology
        self._untwisted_spaces = {}

    @property
    def edges(self) -> tuple:
        return self.simplices.get(1, ())

    @property
    def triangles(self) -> tuple:
        return self.simplices.get(2, ())

    def simplices_of_dim(self, n: int) -> tuple:
        return self.simplices.get(n, ())

    def has_simplex(self, simplex) -> bool:
        t = tuple(simplex)
        return t in self._sets.get(len(t) - 1, frozenset())

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * len(simps) for n, simps in self.simplices.items())

    def counts(self) -> tuple:
        return tuple(
            len(self.simplices_of_dim(n)) for n in range(self.dimension + 1)
        )

    def windings(self, name: str) -> dict:
        """Per non-tree edge, in edge order, the winding of the loop that
        edge closes around the named loop: ``loop_sums`` of the loop's
        winding cocycle, computed once per complex and kept on it.  The
        memo holds edges and rationals only, so it points nowhere back;
        callers must not mutate it."""
        out = self._windings.get(name)
        if out is None:
            out = self._windings[name] = loop_sums(self, self.loop_cocycles[name])
        return out

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Complex)
            and self.vertex_count == other.vertex_count
            and self.simplices == other.simplices
        )

    __hash__ = None

    def __repr__(self):
        label = self.name or "complex"
        return f"Complex({label}, V={self.vertex_count}, counts={self.counts()})"


def validate_complex(vertex_count, simplices, named_loops=None,
                     loop_cocycles=None, name=None) -> Complex:
    """Check and build a complex, naming the first violation on failure: the
    simplices, then their faces, then (in ``Complex``) connectivity, then the
    named loops."""
    if not isinstance(vertex_count, int) or vertex_count < 1:
        raise SchemaError("vertex count must be a positive integer")
    by_dim: dict = {}
    for simplex in simplices:
        t = tuple(simplex)
        if len(t) < 2:
            raise SchemaError(f"simplex {t} has fewer than two vertices")
        if any(not isinstance(v, int) for v in t):
            raise SchemaError(f"simplex {t} has non-integer vertices")
        if any(v < 0 or v >= vertex_count for v in t):
            raise SchemaError(f"simplex {t} has a vertex outside 0..{vertex_count - 1}")
        if any(a >= b for a, b in zip(t, t[1:])):
            raise NonIncreasingTupleError(
                f"simplex {t} is not strictly increasing", simplex=t
            )
        by_dim.setdefault(len(t) - 1, set()).add(t)

    for n in sorted(by_dim, reverse=True):
        if n < 2:
            continue
        for simplex in sorted(by_dim[n]):
            for i in range(len(simplex)):
                face = simplex[:i] + simplex[i + 1:]
                if face not in by_dim.get(n - 1, set()):
                    raise MissingFaceError(
                        f"simplex {simplex} is missing its face {face}",
                        simplex=simplex,
                        face=face,
                    )

    c = Complex(
        vertex_count,
        by_dim,
        named_loops=named_loops,
        loop_cocycles=loop_cocycles,
        name=name,
    )
    for loop_name, path in c.named_loops.items():
        path = tuple(path)
        if len(path) < 2 or path[0] != path[-1]:
            raise SchemaError(f"named loop {loop_name} is not a closed path")
        step = _missing_step(c, path, stays=False)
        if step is not None:
            raise SchemaError(f"named loop {loop_name} uses a missing edge {step}")
        c.named_loops[loop_name] = path
    return c


def _missing_step(c: Complex, path, stays: bool):
    """The first step (u, w) of a vertex path that is not an edge of c, or
    None.  A step that stays at its vertex (u == w) passes when ``stays``."""
    for step in zip(path, path[1:]):
        if not (stays and step[0] == step[1]) and not c.has_simplex(sorted(step)):
            return step
    return None


def _require_edge_path(c: Complex, path) -> None:
    """Raise InputError naming the first step (u, w), u != w, of a vertex
    path that is not an edge of c."""
    step = _missing_step(c, path, stays=True)
    if step is not None:
        raise InputError(f"path step {step} is not an edge of the base", step=step)


# The most vertices the built-in models a process keeps may have together;
# the most recently used are kept, and a model larger than this alone is
# not kept at all.  The busiest traffic of the benchmark, dims_grid, asks
# one process for four names (torus3x3 to torus6x6, 86 vertices) and the
# other workloads for one or two, so every model of such a process is
# built once.  A torus from 3x3 to 30x30 takes 1.4 to 1.8 KB per vertex,
# and 3.5 to 6.5 KB with its untwisted H^0 to H^2 kept, so the models a
# process keeps, with their data, take about 7 MB at most.
MAX_SHARED_VERTICES = 1000

_shared_models = OrderedDict()  # (builder, sizes) -> model, oldest first


def _shared_model(build, *sizes) -> Complex:
    """``build(*sizes)``, once per builder and sizes while it stays among
    the most recently used models that fit in ``MAX_SHARED_VERTICES``."""
    key = (build, sizes)
    model = _shared_models.get(key)
    if model is not None:
        _shared_models.move_to_end(key)
        return model
    model = build(*sizes)
    if model.vertex_count <= MAX_SHARED_VERTICES:
        _shared_models[key] = model
        held = sum(m.vertex_count for m in _shared_models.values())
        while held > MAX_SHARED_VERTICES:
            _, old = _shared_models.popitem(last=False)
            held -= old.vertex_count
    return model


def circle_model(n: int = 3) -> Complex:
    """The n-gon circle.  The loop `a` runs once around 0 -> 1 -> ... -> 0
    and its winding cocycle counts signed crossings of the wrap edge.  One
    shared model per n and process."""
    return _shared_model(_build_circle, n)


def _build_circle(n: int) -> Complex:
    if n < 3:
        raise SchemaError("a circle model needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    loop = tuple(range(n)) + (0,)
    # traversing (n-1) -> 0 crosses the seam positively
    cocycle = {(0, n - 1): Fraction(-1)}
    return validate_complex(
        n,
        edges,
        named_loops={"a": loop},
        loop_cocycles={"a": cocycle},
        name=f"circle{n}",
    )


def torus_grid(rows: int = 3, cols: int = 3) -> Complex:
    """Grid triangulation of the torus with the given number of rows and
    columns, each square cell split along its down-right diagonal.  Loops:
    `a` runs along row 0, `b` down column 0.  Winding cocycles divide the
    per-edge column and row displacement by the grid period.  One shared
    model per size and process."""
    return _shared_model(_build_torus, rows, cols)


def _build_torus(rows: int, cols: int) -> Complex:
    if rows < 3 or cols < 3:
        raise SchemaError("a torus grid needs at least 3 rows and 3 columns")

    def vid(r, c):
        return (r % rows) * cols + (c % cols)

    simplices = set()
    for r in range(rows):
        for c in range(cols):
            a = vid(r, c)
            b = vid(r, c + 1)
            d = vid(r + 1, c + 1)
            e = vid(r + 1, c)
            simplices.add(tuple(sorted((a, b))))
            simplices.add(tuple(sorted((a, e))))
            simplices.add(tuple(sorted((a, d))))
            simplices.add(tuple(sorted((a, b, d))))
            simplices.add(tuple(sorted((a, e, d))))

    col_cocycle = {}
    row_cocycle = {}
    for simplex in simplices:
        if len(simplex) != 2:
            continue
        u, v = simplex
        dc = (v % cols - u % cols) % cols
        dr = (v // cols - u // cols) % rows
        col_step = 1 if dc == 1 else (-1 if dc == cols - 1 else 0)
        row_step = 1 if dr == 1 else (-1 if dr == rows - 1 else 0)
        if col_step:
            col_cocycle[(u, v)] = Fraction(col_step, cols)
        if row_step:
            row_cocycle[(u, v)] = Fraction(row_step, rows)

    loop_a = tuple(vid(0, c) for c in range(cols)) + (0,)
    loop_b = tuple(vid(r, 0) for r in range(rows)) + (0,)
    return validate_complex(
        rows * cols,
        sorted(simplices),
        named_loops={"a": loop_a, "b": loop_b},
        loop_cocycles={"a": col_cocycle, "b": row_cocycle},
        name=f"torus{rows}x{cols}",
    )


def torus_model() -> Complex:
    """The standard 3x3 torus: 9 vertices, 27 edges, 18 triangles."""
    return torus_grid(3, 3)


def loop_pairing(cocycle: dict, path: Sequence[int], zero=Fraction(0)):
    """Sum a sparse edge cocycle along a vertex path, respecting orientation.
    The sum starts at ``zero``: pass ``GF2(0)`` to pair a cocycle of bits."""
    total = zero
    for u, v in zip(path, path[1:]):
        value = cocycle.get((u, v) if u < v else (v, u))
        if value is not None:
            total = total + value if u < v else total - value
    return total


class SpanningTree:
    """Breadth-first spanning tree rooted at vertex 0: ``parent[v]`` is the
    vertex v was reached from, ``order`` lists parents first, and
    ``non_tree_edges`` are the other edges in edge order."""

    root = 0

    def __init__(self, parent, order, tree_edges, non_tree_edges):
        self.parent = parent
        self.order = order
        self.tree_edges = tree_edges
        self.non_tree_edges = non_tree_edges


def loop_sums(c: Complex, cochain: Mapping) -> dict:
    """Per non-tree edge (i, j), in edge order, the sum of an edge cochain w
    (missing edges are zero) around the based loop (i, j) closes: pot[i] +
    w(i, j) - pot[j], where pot[v] sums w along the tree from the root."""
    tree = c.tree
    zero = Fraction(0)
    pot = {tree.root: zero}
    for v in tree.order[1:]:
        u = tree.parent[v]
        w = cochain.get((u, v), zero) if u < v else -cochain.get((v, u), zero)
        pot[v] = pot[u] + w
    return {(i, j): pot[i] + cochain.get((i, j), zero) - pot[j] for i, j in tree.non_tree_edges}


class SimplicialMap:
    """A vertex map sending every simplex onto a simplex of the target."""

    def __init__(self, source: Complex, target: Complex, vertex_map: Sequence[int]):
        self.source = source
        self.target = target
        self.vertex_map = tuple(vertex_map)

    def __call__(self, v: int) -> int:
        return self.vertex_map[v]

    def image_simplex(self, simplex) -> tuple:
        return tuple(sorted({self.vertex_map[v] for v in simplex}))

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialMap)
            and self.source == other.source
            and self.target == other.target
            and self.vertex_map == other.vertex_map
        )

    __hash__ = None

    def __repr__(self):
        return f"SimplicialMap({list(self.vertex_map)})"


def simplicial_map(source: Complex, target: Complex, vertex_map: Sequence[int]) -> SimplicialMap:
    vertex_map = tuple(vertex_map)
    if len(vertex_map) != source.vertex_count:
        raise MapValidationError("vertex map length does not match the source")
    if any(v < 0 or v >= target.vertex_count for v in vertex_map):
        raise MapValidationError("vertex map hits a vertex outside the target")
    f = SimplicialMap(source, target, vertex_map)
    for n in range(1, source.dimension + 1):
        for simplex in source.simplices_of_dim(n):
            image = f.image_simplex(simplex)
            if not target.has_simplex(image):
                raise MapValidationError(
                    f"image {image} of simplex {simplex} is not a target simplex",
                    simplex=simplex,
                    image=image,
                )
    return f


def identity_map(c: Complex) -> SimplicialMap:
    return SimplicialMap(c, c, tuple(range(c.vertex_count)))


def constant_map(source: Complex, target: Complex, v: int) -> SimplicialMap:
    return simplicial_map(source, target, [v] * source.vertex_count)


def compose(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    """The composite g after f."""
    if f.target != g.source:
        raise MapMismatchError("maps are not composable")
    return simplicial_map(f.source, g.target, [g(f(v)) for v in range(f.source.vertex_count)])


def contiguous(f: SimplicialMap, g: SimplicialMap) -> bool:
    """Whether f and g are contiguous: for every simplex s the union
    f(s) and g(s) spans a simplex of the target.  Contiguous maps are
    homotopic, and this is the discrete witness used throughout."""
    if f.source != g.source or f.target != g.target:
        raise MapMismatchError("contiguity needs a common source and target")
    for n in range(f.source.dimension + 1):
        for simplex in f.source.simplices_of_dim(n):
            union = tuple(sorted({f(v) for v in simplex} | {g(v) for v in simplex}))
            if len(union) > 1 and not f.target.has_simplex(union):
                return False
    return True
