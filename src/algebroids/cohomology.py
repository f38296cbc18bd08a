"""Twisted simplicial cochains and their cohomology.

Cochains take values in the fibers of a flat local system: the value on an
n-simplex lives in the fiber at the simplex's first (smallest) vertex.  The
coboundary transports the front face back to that vertex:

    (d phi)(v0, ..., v_{n+1})
        = T(v0, v1) * phi(v1, ..., v_{n+1})
          + sum_{i >= 1} (-1)^i phi(v0, ..., v_i dropped, ..., v_{n+1})

d squares to zero exactly when the system is flat.  The formula is written
once, in ``_coboundary_rows``: sparse rows of d_n that ``coboundary``
applies, ``coboundary_matrix`` makes dense for ``cohomology_dims`` and
``cohomology`` eliminates as they are.  So ``char-classes`` and
``chern-weil`` answer on tori up to 200x200, while the dims of the
``cohomology`` command run out of memory past about 80x80.  Everything
here is exact rational linear algebra over the one forward-only echelon of
the linalg module: kernels are read off its fully reduced rows, which are
unique, and quotient representatives depend only on spans, so bases are
stable across runs.  Dimensions alone need only ranks.

Each space holds Z^n in free-column form and keeps a forward-only echelon
form of B^n, and reads H^n off it by the greedy choice (both are defined
in the linalg module docstring): the representatives are the cocycles
whose column is not a pivot of B^n, and the coordinates of a class are the
entries of its residue at their columns.  So besides Z^n a space costs
one elimination, of B^n, and a class one reduction.

The untwisted H^n depends on the complex alone, so ``untwisted_space``
runs that elimination once per complex and degree: it keeps the echelon
and the representatives' tails, which point to no system and no complex,
in ``Complex._untwisted_spaces``, and wraps them around a fresh trivial
line on every later call.  Only this module writes that memo, and no
caller may change what it holds.  The fundamental cycle is read off the
kept H^2.

A section is flat exactly when its coboundary is zero.  A cochain keeps
that answer, and the H^0 representatives are flat when built, so only
sections from outside the package are tested.  Cochains computed by the
package itself are built by ``TwistedCochain._trusted``; the public
constructor still checks and coerces what callers pass.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Mapping, Sequence

from .complexes import Complex, SimplicialMap
from .errors import (
    BaseMismatchError,
    DegreeError,
    InputError,
    NotASubspaceError,
    NotClosedError,
    UnknownGeneratorError,
)
# ``solve`` is not called here, but bench/test_oracles.py reaches this
# module's namespace through ``cli.cohomology.__globals__["solve"]``.
from .linalg import (  # noqa: F401
    Matrix,
    _RowSpace,
    _coerce_rational,
    _dense,
    _kernel_tails,
    _leftmost_rows,
    _span_tails,
    _subtract,
    solve,
)
from .local_systems import (
    LocalSystem,
    _require_flat,
    _tree_gauge,
    pullback_system,
    tensor_system,
    trivial_system,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _normalize_simplex(key) -> tuple:
    if isinstance(key, int):
        return (key,)
    return tuple(key)


class TwistedCochain:
    """A degree-n cochain valued in a local system.  Missing simplices are
    zero-filled, so sparse dicts are fine as input.  Immutable by
    convention: a 0-cochain keeps the answer of its flatness test."""

    def __init__(self, system: LocalSystem, degree: int, values: Mapping | None = None):
        if degree < 0:
            raise DegreeError("cochain degree must be nonnegative")
        self.system = system
        self.degree = degree
        simplices = system.base.simplices_of_dim(degree)
        given = {}
        if values:
            for key, vec in values.items():
                given[_normalize_simplex(key)] = vec
        unknown = set(given) - set(simplices)
        if unknown:
            raise InputError(
                f"{sorted(unknown)[0]} is not a {degree}-simplex of the base"
            )
        zero = (Fraction(0),) * system.rank
        out = {}
        for s in simplices:
            vec = given.get(s)
            if vec is None:
                out[s] = zero
                continue
            if isinstance(vec, (int, float, Fraction)):
                vec = (vec,)
            vec = tuple(_coerce_rational(x) for x in vec)
            if len(vec) != system.rank:
                raise InputError(
                    f"value on {s} has length {len(vec)}, fiber rank is {system.rank}"
                )
            out[s] = vec
        self.values = out
        self._flat = None

    @classmethod
    def _trusted(cls, system: LocalSystem, degree: int, values: dict) -> "TwistedCochain":
        """A cochain the package computed itself, taken as it is: ``values``
        holds a tuple of ``system.rank`` Fractions for every degree-n simplex
        of the base, in simplex order.  Only values from outside the package
        need the checks and the coercion of the constructor."""
        phi = object.__new__(cls)
        phi.system = system
        phi.degree = degree
        phi.values = values
        phi._flat = None
        return phi

    def value(self, simplex) -> tuple:
        return self.values[_normalize_simplex(simplex)]

    def vector(self) -> tuple:
        """Flatten to a single coordinate vector, simplices in sorted order,
        fiber coordinates contiguous within each simplex."""
        out = []
        for s in self.system.base.simplices_of_dim(self.degree):
            out.extend(self.values[s])
        return tuple(out)

    def _check_compatible(self, other):
        if not isinstance(other, TwistedCochain):
            raise InputError("expected a cochain")
        if self.degree != other.degree or self.system != other.system:
            raise InputError("cochains live in different spaces")

    def __add__(self, other):
        self._check_compatible(other)
        values = {
            s: tuple(a + b for a, b in zip(v, other.values[s]))
            for s, v in self.values.items()
        }
        return TwistedCochain._trusted(self.system, self.degree, values)

    def __sub__(self, other):
        self._check_compatible(other)
        values = {
            s: tuple(a - b for a, b in zip(v, other.values[s]))
            for s, v in self.values.items()
        }
        return TwistedCochain._trusted(self.system, self.degree, values)

    def scale(self, scalar) -> "TwistedCochain":
        scalar = _coerce_rational(scalar)
        values = {s: tuple(scalar * a for a in v) for s, v in self.values.items()}
        return TwistedCochain._trusted(self.system, self.degree, values)

    def __neg__(self):
        return self.scale(-1)

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in v) for v in self.values.values())

    def __eq__(self, other):
        return (
            isinstance(other, TwistedCochain)
            and self.degree == other.degree
            and self.system == other.system
            and self.values == other.values
        )

    __hash__ = None

    def __repr__(self):
        support = sum(1 for v in self.values.values() if any(a != 0 for a in v))
        return f"TwistedCochain(degree={self.degree}, support={support})"


def _by_simplex(system: LocalSystem, degree: int, vec: Sequence) -> dict:
    """The values {simplex: fiber tuple} of a vector flattened as
    ``TwistedCochain.vector`` flattens them."""
    r = system.rank
    return {
        s: tuple(vec[i * r : (i + 1) * r])
        for i, s in enumerate(system.base.simplices_of_dim(degree))
    }


def zero_cochain(system: LocalSystem, degree: int) -> TwistedCochain:
    return TwistedCochain(system, degree)


def _act(t: Matrix, v: tuple) -> tuple:
    """``t.apply(v)``, or v itself when t is the identity."""
    return v if t.is_identity() else t.apply(v)


def _coboundary_rows(L: LocalSystem, n: int):
    """The rows of d_n : C^n -> C^{n+1} in the flattened coordinate bases,
    as ``{column: nonzero}``, r rows per (n+1)-simplex tau in simplex order:
    row a holds row a of the transport block T(tau_0, tau_1) at the front
    face and (-1)^i at fiber coordinate a of the face without tau_i.  The
    faces are distinct, so no entry is written twice."""
    r = L.rank
    col_of = {s: i * r for i, s in enumerate(L.base.simplices_of_dim(n))}
    signs = (_ONE, -_ONE)
    for tau in L.base.simplices_of_dim(n + 1):
        front = col_of[tau[1:]]
        faces = [(col_of[tau[:i] + tau[i + 1 :]], signs[i % 2]) for i in range(1, n + 2)]
        for a, entries in enumerate(L.matrix(tau[0], tau[1]).entries):
            row = {front + b: x for b, x in enumerate(entries) if x}
            for j, sign in faces:
                row[j + a] = sign
            yield row


def _apply_rows(L: LocalSystem, n: int, vec: Sequence):
    """d_n applied to ``vec``, one entry per row of ``_coboundary_rows``: an
    entry 1 or -1 adds or subtracts its coordinate, multiplying nothing."""
    for row in _coboundary_rows(L, n):
        terms = [vec[j] if x == 1 else -vec[j] if x == -1 else x * vec[j] for j, x in row.items()]
        yield sum(terms[1:], terms[0])


def coboundary(phi: TwistedCochain) -> TwistedCochain:
    """d phi, the rows of d_n applied to phi's vector.  With no
    (n+1)-simplices d phi is the empty cochain, and no vector is built."""
    L, n = phi.system, phi.degree
    if not L.base.simplices_of_dim(n + 1):
        return TwistedCochain._trusted(L, n + 1, {})
    out = list(_apply_rows(L, n, phi.vector()))
    return TwistedCochain._trusted(L, n + 1, _by_simplex(L, n + 1, out))


def is_flat_section(phi: TwistedCochain) -> bool:
    """Whether a 0-cochain is flat, ``coboundary(phi).is_zero()`` up to its
    first nonzero entry, kept on the cochain as ``check_flat`` keeps its own
    on a system.  The representatives of an H^0 space start out flat."""
    if phi.degree != 0:
        raise DegreeError("a flat section is a 0-cochain")
    if phi._flat is None:
        phi._flat = not any(_apply_rows(phi.system, 0, phi.vector()))
    return phi._flat


def coboundary_matrix(L: LocalSystem, n: int) -> Matrix:
    """Matrix of d_n : C^n -> C^{n+1} in the flattened coordinate bases:
    the rows of ``_coboundary_rows``, made dense."""
    if n < 0:
        raise DegreeError("coboundary degree must be nonnegative")
    ncols = len(L.base.simplices_of_dim(n)) * L.rank
    rows = []
    for row in _coboundary_rows(L, n):
        dense = [_ZERO] * ncols
        for j, x in row.items():
            dense[j] = x
        rows.append(tuple(dense))
    return Matrix._trusted(tuple(rows), ncols)


def _flat_sections(L: LocalSystem) -> dict:
    """H^0 = ker d_0 in free-column form, read off the fiber at vertex 0.

    A flat section is fixed by its value x at the root: with the frames of
    ``local_systems._tree_gauge`` it is down[v] x at each vertex v, and a
    non-tree edge (i, j) asks T(i, j) down[j] x = down[i] x, that is h x = x
    for the holonomy h = down[i]^-1 T(i, j) down[j] of its loop.  So H^0 is
    the joint fixed space of the distinct holonomies (the null space of the
    stacked R x R blocks h - I), extended by the frames, and no (E R) x (V R)
    matrix is built.  The rows of the blocks go into one echelon, and once
    it has rank R only zero is fixed.  Any basis of the fixed space extends
    to a basis of H^0, and the free-column form of a span is unique."""
    r = L.rank
    down, loops = _tree_gauge(L)
    ident = Matrix.identity(r)
    fixed = _RowSpace()
    # loops in tree gauge share a few transport objects: one block per object
    for h in {id(h): h for h in loops.values()}.values():
        if not h.is_identity():
            for row in (h - ident).entries:
                fixed.add(row)
                if len(fixed) == r:
                    return {}
    sections = []
    for x in _dense(_kernel_tails(fixed.reduced_rows(), r), r):
        sections.append([y for v in range(L.base.vertex_count) for y in _act(down[v], x)])
    return _span_tails(sections)


def _matrix_from_columns(cols, height: int) -> Matrix:
    if not cols:
        return Matrix([()] * height, cols=0)
    return Matrix(list(zip(*cols)), cols=len(cols))


class CohomologySpace:
    """H^n of a flat system: dimension, chosen cocycle representatives, and
    coordinates of arbitrary cocycles in the chosen basis.

    Built from a basis of Z^n and a spanning list of B^n.  The basis is
    brought to free-column form, the rank form of the echelon of B^n
    (forward elimination only, see ``linalg._RowSpace``) is computed once
    and kept, and H^n is read off it by the greedy choice; the linalg module
    docstring defines both.  B^n lies in Z^n exactly when every row of its
    echelon does, which is checked row by row.  The representatives are the
    basis vectors whose column is not a pivot of B^n; at degree 0 they are
    flat sections, as Z^0 is, and marked so.

    A cocycle's residue modulo B^n lies in Z^n and vanishes on the pivots,
    so it is the combination of the representatives with its own entries at
    their columns, and those entries are the coordinates of the class.  The
    rest of the residue is checked against that combination.  The residue
    that vanishes on the pivots of B^n is unique, so the coordinates do not
    depend on the echelon form."""

    def __init__(self, system, degree, z_vectors=(), b_vectors=()):
        self._wrap(system, degree, _quotient(degree, _span_tails(z_vectors), _RowSpace(b_vectors)))

    @classmethod
    def _from_kept(cls, system, degree, kept: tuple) -> "CohomologySpace":
        """The space whose ``_kept`` data is ``kept``, over ``system``: no
        elimination and no check, so ``kept`` must come from ``_quotient``
        over an equal system."""
        space = object.__new__(cls)
        space._wrap(system, degree, kept)
        return space

    def _wrap(self, system, degree, kept: tuple) -> None:
        # what the space computed, as plain data with no reference to a
        # system or a complex: the rank-form echelon of B^n and the
        # free-column tails of the representatives by column
        self.system = system
        self.degree = degree
        self._kept = kept
        self._image, self._tails = kept
        self.dimension = len(self._tails)

    @functools.cached_property
    def representatives(self) -> list:
        """The representative cocycles, built on first use."""
        system, degree = self.system, self.degree
        width = len(system.base.simplices_of_dim(degree)) * system.rank
        reps = [
            TwistedCochain._trusted(system, degree, _by_simplex(system, degree, v))
            for v in _dense(self._tails, width)
        ]
        if degree == 0:
            for phi in reps:
                phi._flat = True
        return reps

    def coordinates_of(self, phi: TwistedCochain) -> tuple:
        """Coefficients of phi's class in the representative basis."""
        if phi.degree != self.degree or phi.system != self.system:
            raise InputError("cochain does not live in this space")
        if not coboundary(phi).is_zero():
            raise NotClosedError("cochain is not a cocycle")
        vec = phi.vector()
        if not vec:
            return ()
        residue = self._image.reduce(vec)
        coeffs = tuple(residue.pop(c, _ZERO) for c in self._tails)
        for f, tail in zip(coeffs, self._tails.values()):
            if f and tail:
                _subtract(residue, f, tail)
        if residue:
            raise NotASubspaceError("cocycle is not in the computed kernel")
        return coeffs

    def class_of(self, phi: TwistedCochain) -> "CohomologyClass":
        return CohomologyClass(self.degree, self.coordinates_of(phi))

    def __repr__(self):
        return f"CohomologySpace(degree={self.degree}, dimension={self.dimension})"


def _quotient(degree: int, tails: dict, image: _RowSpace) -> tuple:
    """The ``_kept`` data of H^n for Z^n in free-column form, ``{column:
    tail}``, and the echelon of B^n: the echelon and the tails of the
    representatives.  Raises NotASubspaceError when B^n is not in Z^n."""
    if not image.within(tails):
        raise NotASubspaceError("coboundaries are not all cocycles", degree=degree)
    pivots = image.pivots
    return image, {c: tail for c, tail in tails.items() if c not in pivots}


class CohomologyClass:
    """Coordinates of a cohomology class in a space's representative basis."""

    __slots__ = ("degree", "coordinates")

    def __init__(self, degree: int, coordinates):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coordinates", tuple(_coerce_rational(x) for x in coordinates))

    def __setattr__(self, name, value):
        raise AttributeError("cohomology classes are immutable")

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coordinates)

    def __add__(self, other):
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        if self.degree != other.degree:
            raise DegreeError("cannot add classes of different degrees")
        if len(self.coordinates) != len(other.coordinates):
            raise InputError("cannot add classes of spaces of different dimensions")
        return CohomologyClass(
            self.degree, tuple(a + b for a, b in zip(self.coordinates, other.coordinates))
        )

    def scale(self, scalar) -> "CohomologyClass":
        scalar = _coerce_rational(scalar)
        return CohomologyClass(self.degree, tuple(scalar * a for a in self.coordinates))

    def __eq__(self, other):
        return (
            isinstance(other, CohomologyClass)
            and self.degree == other.degree
            and self.coordinates == other.coordinates
        )

    def __hash__(self):
        return hash((self.degree, self.coordinates))

    def __repr__(self):
        return f"CohomologyClass(degree={self.degree}, coordinates={self.coordinates})"


def cohomology(L: LocalSystem, n: int) -> CohomologySpace:
    """H^n of a flat system.  B^n is spanned by the columns of d_{n-1}, and
    Z^n is read off the reduced rows of d_n with leftmost pivots, as tails
    in free-column form.  Both come from the sparse rows of
    ``_coboundary_rows``, so no dense matrix is built."""
    if n < 0:
        raise DegreeError("cohomology degree must be nonnegative")
    _require_flat(L)
    image = _RowSpace()
    width = len(L.base.simplices_of_dim(n)) * L.rank
    if not width:
        tails = {}
    elif n == 0:
        tails = _flat_sections(L)
    else:
        columns = [{} for _ in range(len(L.base.simplices_of_dim(n - 1)) * L.rank)]
        for i, row in enumerate(_coboundary_rows(L, n - 1)):
            for j, x in row.items():
                columns[j][i] = x
        image = _RowSpace(columns)
        tails = _kernel_tails(_leftmost_rows(_coboundary_rows(L, n), width), width)
    return CohomologySpace._from_kept(L, n, _quotient(n, tails, image))


def cohomology_dims(L: LocalSystem, up_to: int | None = None) -> tuple:
    """Dimensions (dim H^0, ..., dim H^d), with d the base dimension by
    default, from ranks alone:

        dim H^n = dim C^n - rk d_n - rk d_{n-1},    rk d_{-1} = 0.

    The formula needs d_n d_{n-1} = 0, which holds exactly when L is flat,
    so flatness is checked first and a violation raises NotFlatError.  Each
    d_n up to the base dimension is built and ranked once; above it there
    are no cochains, and the dimensions are 0.  No representatives are
    chosen."""
    if up_to is not None and up_to < 0:
        raise DegreeError("cohomology degree must be nonnegative")
    top = L.base.dimension if up_to is None else up_to
    _require_flat(L)
    dims = []
    rank_prev = 0
    for n in range(min(top, L.base.dimension) + 1):
        d_n = coboundary_matrix(L, n)
        rank_n = d_n.rank()
        dims.append(d_n.cols - rank_n - rank_prev)
        rank_prev = rank_n
    return tuple(dims) + (0,) * (top - L.base.dimension)


def untwisted_space(c: Complex, n: int) -> CohomologySpace:
    """H^n with trivial rational coefficients, over a fresh trivial line.

    The first call per complex and degree runs ``cohomology`` with all its
    checks and keeps the space's plain data (``CohomologySpace._kept``) in
    ``Complex._untwisted_spaces``; every later call wraps that data around
    a fresh trivial line.  The data points to no system and no complex, so
    the memo makes no reference cycle, and it lives exactly as long as its
    complex."""
    L = trivial_system(c, 1)
    kept = c._untwisted_spaces.get(n)
    if kept is not None:
        return CohomologySpace._from_kept(L, n, kept)
    space = cohomology(L, n)
    c._untwisted_spaces[n] = space._kept
    return space


def untwisted_class(phi: TwistedCochain) -> CohomologyClass:
    """The class of a closed untwisted rank-1 cochain in the basis of
    ``untwisted_space``."""
    space = untwisted_space(phi.system.base, phi.degree)
    return space.class_of(phi)


def _perm_sign(seq) -> int:
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1 :])
    return -1 if inversions % 2 else 1


def pullback_cochain(f: SimplicialMap, phi: TwistedCochain) -> TwistedCochain:
    """Pull a cochain back along a simplicial map, valued in the pulled-back
    system.  Vertex images need not be monotone: the value is read off the
    sorted image simplex, transported to the fiber over the first image
    vertex, and signed by the sorting permutation.  Collapsed simplices get
    zero.  This extends precomposition and commutes with the coboundary."""
    if f.target != phi.system.base:
        raise BaseMismatchError("map target does not match the cochain's base")
    L = phi.system
    Lf = pullback_system(f, L)
    n = phi.degree
    out = {}
    for sigma in f.source.simplices_of_dim(n):
        image = tuple(f(v) for v in sigma)
        if len(set(image)) < len(image):
            continue
        ordered = tuple(sorted(image))
        moved = L.step(image[0], ordered[0]).apply(phi.value(ordered))
        sign = _perm_sign(image)
        out[sigma] = tuple(sign * x for x in moved)
    return TwistedCochain(Lf, n, out)


def induced_map(f: SimplicialMap, L: LocalSystem, n: int) -> Matrix:
    """Matrix of H^n(target; L) -> H^n(source; pullback L) in the chosen
    representative bases.  Degrees with no source simplices give the zero
    map into the zero space."""
    target_space = cohomology(L, n)
    source_space = cohomology(pullback_system(f, L), n)
    columns = [
        source_space.coordinates_of(pullback_cochain(f, rep))
        for rep in target_space.representatives
    ]
    return _matrix_from_columns(columns, source_space.dimension)


def cup(alpha: TwistedCochain, beta: TwistedCochain) -> TwistedCochain:
    """Cup product over the tensor system: evaluate alpha on the front face,
    beta on the back face transported to the front vertex.  Satisfies the
    Leibniz rule, so it descends to classes."""
    if alpha.system.base != beta.system.base:
        raise BaseMismatchError("cup product needs a common base complex")
    p, q = alpha.degree, beta.degree
    base = alpha.system.base
    system = tensor_system(alpha.system, beta.system)
    transport = beta.system.matrix
    out = {}
    for sigma in base.simplices_of_dim(p + q):
        a = alpha.values[sigma[: p + 1]]
        # carry beta's value back along the front face, one edge at a time
        b = beta.values[sigma[p:]]
        for k in range(p, 0, -1):
            b = _act(transport(sigma[k - 1], sigma[k]), b)
        out[sigma] = tuple(x * y for x in a for y in b)
    return TwistedCochain._trusted(system, p + q, out)


def cup_power(omega: TwistedCochain, k: int) -> TwistedCochain:
    """k-fold left-associated cup power; k = 0 is the constant 1 in the
    trivial line."""
    if k < 0:
        raise InputError("cup power needs a nonnegative exponent")
    base = omega.system.base
    ones = {v: (Fraction(1),) for v in base.simplices_of_dim(0)}
    out = TwistedCochain._trusted(trivial_system(base, 1), 0, ones)
    for _ in range(k):
        out = cup(out, omega)
    return out


def _pair_pointwise(values: Mapping, omega: TwistedCochain) -> TwistedCochain:
    """The untwisted cochain whose value on each simplex is the pairing of
    ``values`` at its first vertex (a vector per vertex, in the dual fiber)
    with omega's value there."""
    base = omega.system.base
    out = {}
    for sigma in base.simplices_of_dim(omega.degree):
        fv = values[sigma[:1]]
        ov = omega.values[sigma]
        out[sigma] = (sum(x * y for x, y in zip(fv, ov)),)
    return TwistedCochain._trusted(trivial_system(base, 1), omega.degree, out)


def fundamental_cycle(c: Complex) -> dict:
    """The 2-cycle spanning ker of the boundary, normalized so its first
    nonzero triangle coefficient is +1.  Exists uniquely for the closed
    surface models; anything else is rejected.  It is read off the
    untwisted H^2 the complex keeps, so only the first call per complex
    eliminates anything."""
    return _fundamental_cycle_of(untwisted_space(c, 2))


def _fundamental_cycle_of(space: CohomologySpace) -> dict:
    """``fundamental_cycle`` of the base of an untwisted H^2 space, with no
    elimination of its own.  The rows of the boundary d_2 are the columns of
    the untwisted coboundary d_1, which span B^2, so the reduced rows of the
    space's echelon of B^2 span them, and their kernel tails give the
    boundary's kernel.  Their pivots are rightmost and come in ascending
    order, so every tail lies right of its column, in triangle order: the
    one null vector of a surface model already has 1 as its first nonzero,
    and it is the cycle."""
    triangles = space.system.base.simplices_of_dim(2)
    kernel = _kernel_tails(space._image.reduced_rows(), len(triangles))
    if len(kernel) != 1:
        raise InputError(
            "complex does not carry a unique 2-cycle", cycle_space_dimension=len(kernel)
        )
    ((j, tail),) = kernel.items()
    return {triangles[i]: x for i, x in {j: _ONE, **tail}.items()}


def fundamental_cocycle(c: Complex) -> TwistedCochain:
    """An untwisted 2-cocycle pairing to 1 against the fundamental cycle,
    supported on a single triangle."""
    return _cocycle_dual_to(trivial_system(c, 1), fundamental_cycle(c))


def _cocycle_dual_to(system: LocalSystem, cycle: dict) -> TwistedCochain:
    """The cocycle of ``fundamental_cocycle`` in the trivial line ``system``,
    for the cycle already found."""
    first = next(t for t in system.base.simplices_of_dim(2) if t in cycle)
    return TwistedCochain(system, 2, {first: (1 / cycle[first],)})


def evaluate_on_chain(phi: TwistedCochain, chain: Mapping) -> Fraction:
    """Pair an untwisted rank-1 cochain against a chain given as a
    simplex -> coefficient map of ``phi.degree``-simplices of the base."""
    if phi.system.rank != 1:
        raise InputError("chain evaluation needs a rank-1 cochain")
    total = Fraction(0)
    for simplex, coeff in chain.items():
        value = phi.values.get(_normalize_simplex(simplex))
        if value is None:
            raise InputError(f"{simplex} is not a {phi.degree}-simplex of the base")
        total += _coerce_rational(coeff) * value[0]
    return total


def named_loop_cocycle(c: Complex, name: str) -> TwistedCochain:
    """The stored winding cocycle of a named loop as an untwisted 1-cochain;
    pairs to 1 against its own loop."""
    data = c.loop_cocycles.get(name)
    if data is None:
        raise UnknownGeneratorError(
            f"complex has no winding data for loop {name!r}", generator=name
        )
    return TwistedCochain(trivial_system(c, 1), 1, {e: (v,) for e, v in data.items()})
