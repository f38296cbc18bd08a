"""Flat local systems of rational vector spaces on a simplicial complex.

A local system assigns to every edge (i, j) with i < j an invertible rational
matrix T(i, j), read as the parallel transport carrying the fiber at j to the
fiber at i.  Flatness is the triangle condition

    T(i, j) * T(j, k) = T(i, k)   for every triangle i < j < k,

which is exactly what makes the twisted coboundary square to zero.

Transport along a directed step u -> v means the matrix carrying the fiber at
v back to the fiber at u, so transport along a path multiplies step matrices
left to right and a closed loop based at vertex 0 gets a well-defined
holonomy in GL of the fiber there.  The breadth-first spanning tree fixes the
gauge: tree edges carry the identity, and each non-tree edge carries the
holonomy of the loop it closes.  ``_tree_gauge`` reads the frames and every
loop holonomy off one pass down the tree, for ``holonomy`` and H^0, and
``from_representation`` reads the windings of those loops off
``Complex.windings``, which each model computes once.  The holonomy of a
system is the plain mapping {non-tree edge: Matrix} of those loops, which
``from_representation`` takes back as explicit edge images.

A system keeps its dual once computed.  Nothing points back from a derived
system to its source, so no reference cycle forms.

Equal transports are usually one shared object: the tree edges carry one
identity, and ``from_representation`` builds one matrix per distinct winding
vector.  Every per-edge operation (inverse, dual, tensor, symmetric power,
the flatness law) runs once per distinct source object, so a derived system
costs one step per transport value and inherits the sharing.  The flatness
law multiplies only when neither factor is the identity, and its list of
violated triangles is computed once per system and kept on it.

The flatness law runs only on transports from outside the package:
``from_representation`` and the algebroid constructor run it, and a system
built by ``LocalSystem`` or ``with_edge`` runs it when first asked.  Derived
systems inherit its answer.  The trivial system is flat when it is built,
and ``dual``, ``sym_power`` and ``tensor_system`` are flat when their inputs
are known flat, so they keep that answer in the slot that ``check_flat``
fills.  A system nobody has checked passes on nothing.

Symmetric powers past ``MAX_SYM_RANK`` dimensions are refused before any
matrix is built: Sym^k of a rank-r fiber has C(r + k - 1, k) dimensions,
and its transports and invariant sections are dense in them.  A range of
powers whose dimensions sum past ``MAX_SYM_RANGE`` is refused the same way,
and so is any power past the top of the widest such range, Sym^219 of a
line.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

from .complexes import Complex, SimplicialMap, _require_edge_path
from .errors import (
    BaseMismatchError,
    InputError,
    NotFlatError,
    RelationViolationError,
    SingularMatrixError,
    UnknownGeneratorError,
    UnsupportedRankError,
)
from .linalg import Matrix

_ZERO = Fraction(0)

# the largest dimension of a symmetric power that ``sym_power`` builds for
# k >= 2: Sym^9 of a rank-3 fiber has 55, and a chern-weil query of it on
# the 4x4 torus answers in under a second
MAX_SYM_RANK = 55

# the largest summed dimension of the symmetric powers one chern-weil query
# builds: Sym^0 .. Sym^9 of a rank-3 fiber sum to 220 and answer in about
# 2 s on the 4x4 torus, as do Sym^0 .. Sym^219 of a line
MAX_SYM_RANGE = 220


def _as_matrix(value, rank=None) -> Matrix:
    if isinstance(value, Matrix):
        m = value
    elif isinstance(value, (int, Fraction)):
        m = Matrix([[value]])
    else:
        m = Matrix(value)
    if m.rows != m.cols:
        raise InputError("transport matrices must be square")
    if rank is not None and m.rows != rank:
        raise InputError(f"expected a {rank}x{rank} matrix, got {m.rows}x{m.cols}")
    return m


def _once_per_object(fn, known=()):
    """fn memoised by the identity of its matrix arguments, starting from the
    ``known`` pairs (matrix, fn(matrix)) of a one-argument fn.  The memo
    holds each entry's arguments, so no id it is keyed on is reused while it
    lives, and a temporary product may be a key."""
    memo = {(id(m),): ((m,), out) for m, out in known}

    def call(*matrices):
        key = tuple(map(id, matrices))
        try:
            return memo[key][1]
        except KeyError:
            out = fn(*matrices)
            memo[key] = (matrices, out)
            return out

    return call


def _times(a: Matrix, b: Matrix) -> Matrix:
    """``a * b``, where a factor that is the identity costs no product."""
    if a.is_identity():
        return b
    if b.is_identity():
        return a
    return a * b


def _inverted(m: Matrix, label) -> Matrix:
    """m^-1, or the error naming the transport ``label`` as singular."""
    try:
        return m.inverse()
    except SingularMatrixError:
        raise SingularMatrixError(
            f"transport for {label} is singular", generator=str(label)
        ) from None


class LocalSystem:
    """Edge transports over a fixed base complex.  Immutable by convention."""

    def __init__(self, base: Complex, rank: int, transport: Mapping, inverses=()):
        if rank < 1:
            raise UnsupportedRankError("fiber dimension must be at least 1")
        missing = [e for e in base.edges if e not in transport]
        if missing:
            raise InputError(f"no transport given for edge {missing[0]}")
        self.base = base
        self.rank = rank
        self.transport = {e: transport[e] for e in base.edges}
        # tree edges and trivial lines carry the identity, its own inverse;
        # ``inverses`` holds (transport, inverse) pairs known without an
        # elimination
        self._inverse = _once_per_object(
            lambda m: m if m.is_identity() else m.inverse(), inverses
        )
        self._dual = None
        self._violations = None
        self._holonomy = None

    def matrix(self, i: int, j: int) -> Matrix:
        """Transport along the increasing edge (i, j), fiber j to fiber i."""
        return self.transport[(i, j)]

    def step(self, u: int, w: int) -> Matrix:
        """Transport carrying the fiber at w to the fiber at u, for w either
        equal to u or joined to it by an edge."""
        if u == w:
            return Matrix.identity(self.rank)
        try:
            m = self.transport[(u, w) if u < w else (w, u)]
        except KeyError:
            raise InputError(f"step {(u, w)} is not an edge of the base", step=(u, w)) from None
        return m if u < w else self._inverse(m)

    def with_edge(self, edge, value) -> "LocalSystem":
        """Copy of the system with one edge transport replaced."""
        edge = tuple(edge)
        if edge not in self.transport:
            raise UnknownGeneratorError(f"{edge} is not an edge of the base")
        m = _as_matrix(value, self.rank)
        _inverted(m, edge)
        new = dict(self.transport)
        new[edge] = m
        return LocalSystem(self.base, self.rank, new)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, LocalSystem)
            and self.base == other.base
            and self.rank == other.rank
            and self.transport == other.transport
        )

    __hash__ = None

    def __repr__(self):
        return f"LocalSystem(rank={self.rank}, base={self.base!r})"


def trivial_system(c: Complex, rank: int = 1) -> LocalSystem:
    """Every edge carries the identity, so the system is flat when built."""
    ident = Matrix.identity(rank)
    L = LocalSystem(c, rank, {e: ident for e in c.edges})
    L._violations = ()
    return L


def _flat_if(derived: LocalSystem, *sources: LocalSystem) -> LocalSystem:
    """Tag a system built transport by transport from ``sources`` by a map
    that respects products (inverse transpose, Kronecker product, symmetric
    power) as flat when every source is known flat; else leave it unchecked."""
    if all(L._violations == () for L in sources):
        derived._violations = ()
    return derived


def check_flat(L: LocalSystem) -> list:
    """All triangles violating the transport composition law, in order.

    The law is evaluated once per distinct triple of transport objects, and
    a triple with an identity factor compares without a product, since
    I * b == c is exactly b == c.  The list is computed once per system and
    kept on it."""
    if L._violations is None:
        composes = _once_per_object(lambda a, b, c: _times(a, b) == c)
        L._violations = tuple(
            (i, j, k)
            for i, j, k in L.base.triangles
            if not composes(L.matrix(i, j), L.matrix(j, k), L.matrix(i, k))
        )
    return list(L._violations)


def is_flat(L: LocalSystem) -> bool:
    return not check_flat(L)


def _require_flat(L: LocalSystem) -> None:
    """Raise NotFlatError listing every violated triangle, if there is one."""
    violations = check_flat(L)
    if violations:
        raise NotFlatError("system is not flat", triangles=violations)


def from_representation(c: Complex, images: Mapping, rank: int | None = None) -> LocalSystem:
    """Build a flat system in tree gauge from generator images.

    Keys may be named loops of the base model (their images propagate to all
    non-tree edges through winding numbers) or explicit non-tree edges, which
    override.  Tree edges carry the identity.  The triangle relations are
    verified at the end and violations are reported, never repaired.

    The holonomy of a flat system is such a mapping of explicit edges, so
    ``from_representation(c, holonomy(L))`` puts L in tree gauge.
    """
    named = {}
    explicit = {}
    for key, value in images.items():
        if isinstance(key, str):
            if key not in c.named_loops:
                raise UnknownGeneratorError(
                    f"unknown generator name {key!r}", generator=key
                )
            named[key] = value
        else:
            edge = tuple(key)
            if len(edge) != 2 or not c.has_simplex(edge):
                raise UnknownGeneratorError(
                    f"{edge} is not an edge of the base", generator=str(edge)
                )
            explicit[edge] = value

    matrices = {k: _as_matrix(v) for k, v in {**named, **explicit}.items()}
    if matrices:
        ranks = {m.rows for m in matrices.values()}
        if len(ranks) > 1:
            raise InputError("generator images have mixed sizes")
        inferred = ranks.pop()
        if rank is not None and rank != inferred:
            raise InputError(f"expected rank {rank}, images have rank {inferred}")
        rank = inferred
    elif rank is None:
        rank = 1
    inverses = {key: _inverted(m, key) for key, m in matrices.items()}

    tree = c.tree
    for edge in explicit:
        if edge in tree.tree_edges:
            raise UnknownGeneratorError(
                f"edge {edge} is a tree edge and is gauge-fixed to the identity",
                generator=str(edge),
            )

    ident = Matrix.identity(rank)
    names = sorted(named)
    # every non-tree edge's winding around each named loop, kept on the model
    sums = {
        name: c.windings(name) for name in names if c.loop_cocycles.get(name) is not None
    }
    powers = {}

    def power(name, e):
        if (name, e) not in powers:
            base = matrices[name] if e > 0 else inverses[name]
            powers[name, e] = base.power(abs(e))
        return powers[name, e]

    # one matrix per distinct winding vector, and per distinct power; the
    # inverse of a product of powers is the product of the inverse powers
    # in reverse order, so no transport is inverted by an elimination
    by_winding = {(0,) * len(names): ident}
    known = [(matrices[edge], inverses[edge]) for edge in explicit]
    transport = {}
    for edge in c.edges:
        if edge in tree.tree_edges:
            transport[edge] = ident
            continue
        winding = []
        for name in names:
            if name not in sums:
                raise UnknownGeneratorError(
                    f"complex has no winding data for generator {name!r}", generator=name
                )
            value = sums[name][edge]
            if value.denominator != 1:
                raise InputError(f"winding of edge {edge} against {name!r} is fractional")
            winding.append(int(value))
        winding = tuple(winding)
        m = by_winding.get(winding)
        if m is None:
            m = m_inv = ident
            for name, e in zip(names, winding):
                if e:
                    m = _times(m, power(name, e))
                    m_inv = _times(power(name, -e), m_inv)
            by_winding[winding] = m
            known.append((m, m_inv))
        transport[edge] = m
    for edge in explicit:
        transport[edge] = matrices[edge]

    L = LocalSystem(c, rank, transport, known)
    violations = check_flat(L)
    if violations:
        raise RelationViolationError(
            "generator images violate the triangle relations",
            triangles=violations,
        )
    return L


def _tree_gauge(L: LocalSystem) -> tuple:
    """One pass down the spanning tree: ``(down, loops)``.  ``down[v]``
    carries the fiber at the root to the fiber at v along the tree, and
    ``loops[(i, j)]`` is the holonomy down[i]^-1 T(i, j) down[j] of the
    based loop the non-tree edge (i, j) closes.  A product with an identity
    factor is skipped, so a system in tree gauge costs no product at all."""
    tree = L.base.tree
    ident = Matrix.identity(L.rank)
    down = {tree.root: ident}
    up = {tree.root: ident}  # up[v] = down[v]^-1
    for v in tree.order[1:]:
        u = tree.parent[v]
        down[v] = _times(L.step(v, u), down[u])
        up[v] = _times(up[u], L.step(u, v))
    return down, {
        (i, j): _times(_times(up[i], L.matrix(i, j)), down[j]) for i, j in tree.non_tree_edges
    }


def holonomy(L: LocalSystem) -> dict:
    """The holonomy representation of a flat system: {non-tree edge: Matrix},
    in edge order, each the transport around the based loop that edge
    closes.  Computed once per system and kept on it, so the sign and log
    classes of a query share one pass; callers must not mutate it."""
    _require_flat(L)
    if L._holonomy is None:
        L._holonomy = _tree_gauge(L)[1]
    return L._holonomy


def holonomy_around(L: LocalSystem, path: Sequence[int]) -> Matrix:
    """Transport around an arbitrary closed vertex path: the product of its
    step matrices, left to right.  Each step must stay put or follow an
    edge."""
    path = tuple(path)
    if len(path) < 2 or path[0] != path[-1]:
        raise InputError("holonomy needs a closed path")
    _require_edge_path(L.base, path)
    out = Matrix.identity(L.rank)
    for u, w in zip(path, path[1:]):
        out = out * L.step(u, w)
    return out


def gauge_transform(L: LocalSystem, frames) -> LocalSystem:
    """Change the frame at every vertex: T'(i, j) = g_i T(i, j) g_j^{-1}.
    Gauge transforms preserve flatness and all cohomology."""
    g, inverse = {}, {}
    for v in range(L.base.vertex_count):
        try:
            value = frames[v]
        except (KeyError, IndexError):
            raise InputError(f"no frame given for vertex {v}", vertex=v) from None
        g[v] = _as_matrix(value, L.rank)
        inverse[v] = _inverted(g[v], f"vertex {v}")
    transport = {(i, j): g[i] * L.matrix(i, j) * inverse[j] for i, j in L.base.edges}
    return LocalSystem(L.base, L.rank, transport)


def dual(L: LocalSystem) -> LocalSystem:
    """The dual system: transports become inverse transposes, so the pairing
    of a dual section against a section is transport-invariant.  Computed
    once per system and kept on it, inverting each distinct transport
    object once, or not at all when the system already knows its inverse,
    as one built by ``from_representation`` does.  Flat when L is known
    flat."""
    if L._dual is None:
        flip = _once_per_object(lambda m: L._inverse(m).transpose())
        transport = {e: flip(m) for e, m in L.transport.items()}
        L._dual = _flat_if(LocalSystem(L.base, L.rank, transport), L)
    return L._dual


def tensor_system(L1: LocalSystem, L2: LocalSystem) -> LocalSystem:
    """Kronecker products of the transports; flat when both factors are
    known flat."""
    if L1.base != L2.base:
        raise BaseMismatchError("tensor product needs a common base")
    kron = _once_per_object(Matrix.kron)
    transport = {e: kron(L1.transport[e], L2.transport[e]) for e in L1.base.edges}
    return _flat_if(LocalSystem(L1.base, L1.rank * L2.rank, transport), L1, L2)


def tensor_power(L: LocalSystem, k: int) -> LocalSystem:
    # fold left, starting from the trivial line
    if k < 0:
        raise InputError("tensor power needs a nonnegative exponent")
    out = trivial_system(L.base, 1)
    for _ in range(k):
        out = tensor_system(out, L)
    return out


def _sym_monomials(rank: int, k: int) -> list:
    return list(itertools.combinations_with_replacement(range(rank), k))


def _bump(exponents: tuple, a: int) -> tuple:
    """The exponent vector of a monomial times the variable a."""
    return exponents[:a] + (exponents[a] + 1,) + exponents[a + 1 :]


def _sym_matrix(m: Matrix, k: int) -> Matrix:
    """Induced action on the k-th symmetric power, in the monomial basis
    ordered by combinations_with_replacement.  Multiplicative in m, so
    flatness is preserved.

    The column of a monomial w is the product of the columns of m that the
    letters of w name, a polynomial in r variables: the column of w without
    its largest letter times one more column of m.  So the expansion climbs
    one degree at a time and expands each monomial of each degree once.
    Monomials are exponent vectors, and the expansion runs in integers on
    d m, for d the common denominator of m's entries, then divides by d^k."""
    r = m.rows
    d = math.lcm(*(x.denominator for row in m.entries for x in row))
    # scaled[a]: the nonzero entries (i, d * m[i][a]) of column a
    scaled = [
        [(i, x.numerator * (d // x.denominator)) for i, x in enumerate(col) if x]
        for col in zip(*m.entries)
    ]
    zero = (0,) * r
    layer = {zero: {zero: 1}}  # monomial of degree j -> its column
    for _ in range(k):
        grown = {}
        for word, poly in layer.items():
            largest = max((a for a in range(r) if word[a]), default=0)
            for a in range(largest, r):
                column = {}
                for exponents, c in poly.items():
                    for i, x in scaled[a]:
                        key = _bump(exponents, i)
                        column[key] = column.get(key, 0) + c * x
                grown[_bump(word, a)] = column
        layer = grown
    monomials = [tuple(w.count(a) for a in range(r)) for w in _sym_monomials(r, k)]
    index = {w: i for i, w in enumerate(monomials)}
    scale = d**k
    rows = [[_ZERO] * len(monomials) for _ in monomials]
    for j, word in enumerate(monomials):
        for exponents, c in layer[word].items():
            if c:
                rows[index[exponents]][j] = Fraction(c, scale)
    return Matrix._trusted(tuple(map(tuple, rows)), len(monomials))


def _sym_rank(rank: int, k: int) -> int:
    """dim Sym^k of a rank-r fiber, C(r + k - 1, k), for k >= 0; an
    InputError past ``MAX_SYM_RANK``, before anything is built."""
    dim = math.comb(rank + k - 1, k)
    if dim > MAX_SYM_RANK:
        raise InputError(
            f"symmetric power {k} of a rank-{rank} fiber has dimension {dim}, "
            f"more than {MAX_SYM_RANK}",
            dimension=dim,
            limit=MAX_SYM_RANK,
        )
    return dim


def _sym_range_rank(rank: int, lo: int, hi: int) -> int:
    """The summed dimension of Sym^lo .. Sym^hi of a rank-r fiber, for
    0 <= lo <= hi, in closed form: C(r + hi, hi) - C(r + lo - 1, lo - 1),
    so a wide range costs no loop.  An InputError past ``MAX_SYM_RANGE``,
    and then for any hi of ``MAX_SYM_RANGE`` or more: Sym^k of a line is a
    line, so a narrow range of high powers passes the sum, but its
    transports climb all k degrees and grow to about k bits."""
    total = math.comb(rank + hi, hi) - (math.comb(rank + lo - 1, lo - 1) if lo else 0)
    if total > MAX_SYM_RANGE:
        raise InputError(
            f"symmetric powers {lo} to {hi} of a rank-{rank} fiber have dimension "
            f"{total} in all, more than {MAX_SYM_RANGE}",
            dimension=total,
            limit=MAX_SYM_RANGE,
        )
    if hi >= MAX_SYM_RANGE:
        raise InputError(
            f"symmetric power {hi} is past {MAX_SYM_RANGE - 1}, the highest power "
            f"of a line in a range of {MAX_SYM_RANGE} dimensions",
            power=hi,
            limit=MAX_SYM_RANGE - 1,
        )
    return total


def sym_power(L: LocalSystem, k: int) -> LocalSystem:
    """The k-th symmetric power: the trivial line for k = 0, and L itself
    for k = 1.  A power k >= 2 of dimension past ``MAX_SYM_RANK``, or of a
    line with k past the range bound (``_sym_range_rank``), raises
    InputError.  Flat when L is known flat."""
    if k < 0:
        raise InputError("symmetric power needs a nonnegative exponent")
    if k == 1:
        return L
    rank = _sym_rank(L.rank, k)
    _sym_range_rank(L.rank, k, k)
    sym = _once_per_object(lambda m: _sym_matrix(m, k))
    transport = {e: sym(m) for e, m in L.transport.items()}
    return _flat_if(LocalSystem(L.base, rank, transport), L)


def pullback_system(f: SimplicialMap, L: LocalSystem) -> LocalSystem:
    """Pull transports back along a simplicial map.  An edge collapsed by f
    carries the identity; otherwise it inherits the transport between the
    image vertices, oriented by the map rather than the vertex order."""
    if f.target != L.base:
        raise BaseMismatchError("map target does not match the system's base")
    transport = {}
    for i, j in f.source.edges:
        transport[(i, j)] = L.step(f(i), f(j))
    return LocalSystem(f.source, L.rank, transport)


def iso_rank1(L1: LocalSystem, L2: LocalSystem) -> bool:
    """Gauge-equivalence test for flat line systems: equality of holonomy on
    every non-tree generator.  Conjugation is invisible in rank 1, so this is
    a complete invariant there; higher rank is rejected."""
    if L1.rank != 1 or L2.rank != 1:
        raise UnsupportedRankError("isomorphism testing is limited to rank 1")
    if L1.base != L2.base:
        raise BaseMismatchError("systems live over different bases")
    return holonomy(L1) == holonomy(L2)
