"""Twisted simplicial cochains and their cohomology.

Cochains take values in the fibers of a flat local system: the value on an
n-simplex lives in the fiber at the simplex's first (smallest) vertex.  The
coboundary transports the front face back to that vertex:

    (d phi)(v0, ..., v_{n+1})
        = T(v0, v1) * phi(v1, ..., v_{n+1})
          + sum_{i >= 1} (-1)^i phi(v0, ..., v_i dropped, ..., v_{n+1})

d squares to zero exactly when the system is flat.  Everything here is exact
rational linear algebra over the one forward-only echelon of the linalg
module: kernels are read off its fully reduced rows, which are unique, and
quotient representatives depend only on spans, so bases are stable across
runs.  Dimensions alone need only ranks.

Each space keeps a forward-only echelon form of its coboundaries and reads
H^n off it.  With the cocycle basis in free-column form (each vector has
its own rightmost nonzero column, which the others vanish on), every pivot
of the coboundaries is one of those columns, and the representatives are
the basis vectors whose column is not a pivot: the greedy choice of
``quotient_basis``, since the span of B^n and the first basis vectors grows
exactly at a vector whose column is not a pivot.  The coordinates of a
class are the entries of its residue at the representatives' columns.  So
a space costs one elimination, of B^n, and a class one reduction.

The untwisted H^n depends on the complex alone, so ``untwisted_space``
runs that elimination once per complex and degree: it keeps the echelon,
the tails and the representative vectors, which point to no system and
no complex, in ``Complex._untwisted_spaces``, and wraps them around a
fresh trivial line on every later call.  Only this module writes that
memo, and no caller may change what it holds.  The fundamental cycle is
read off the kept H^2.

A section is tested for flatness edge by edge, T(i, j) phi(j) ==
phi(i), and both that test and the coboundary skip the product wherever
the transport is the identity, as it is on every tree edge in tree gauge.
A cochain keeps the test's answer, and the H^0 representatives are flat
when built, so only sections from outside the package are walked.
Cochains computed by the package itself are built by
``TwistedCochain._trusted``; the public constructor still checks and
coerces what callers pass.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .complexes import Complex, SimplicialMap, _require_edge_path, loop_pairing
from .errors import (
    BaseMismatchError,
    DegreeError,
    InputError,
    NotASubspaceError,
    NotClosedError,
    NotFlatError,
    UnknownGeneratorError,
)
# ``solve`` is not called here, but bench/test_oracles.py reaches this
# module's namespace through ``cli.cohomology.__globals__["solve"]``.
from .linalg import (  # noqa: F401
    Matrix,
    _RowSpace,
    _coerce_rational,
    _free_column_form,
    _free_column_kernel,
    _free_column_tails,
    _subtract,
    kernel_basis,
    solve,
)
from .local_systems import (
    LocalSystem,
    _require_flat,
    _tree_gauge,
    dual,
    pullback_system,
    tensor_system,
    trivial_system,
)

_ZERO = Fraction(0)


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

    @classmethod
    def from_vector(cls, system: LocalSystem, degree: int, vec: Sequence) -> "TwistedCochain":
        if len(vec) != len(system.base.simplices_of_dim(degree)) * system.rank:
            raise InputError("coordinate vector has the wrong length")
        return cls(system, degree, _by_simplex(system, degree, vec))

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


def coboundary(phi: TwistedCochain) -> TwistedCochain:
    L = phi.system
    n = phi.degree
    values = phi.values
    out = {}
    for tau in L.base.simplices_of_dim(n + 1):
        acc = list(_act(L.matrix(tau[0], tau[1]), values[tau[1:]]))
        sign = -1
        for i in range(1, n + 2):
            face_value = values[tau[:i] + tau[i + 1 :]]
            for a in range(L.rank):
                acc[a] += sign * face_value[a]
            sign = -sign
        out[tau] = tuple(acc)
    return TwistedCochain._trusted(L, n + 1, out)


def is_flat_section(phi: TwistedCochain) -> bool:
    """Whether a 0-cochain is flat: T(i, j) phi(j) == phi(i) on every edge
    (i, j), which is exactly ``coboundary(phi).is_zero()`` without building
    the coboundary.  The answer is computed once per cochain and kept on
    it, as ``check_flat`` keeps its own on a system; the representatives of
    an H^0 space start out flat."""
    if phi.degree != 0:
        raise DegreeError("a flat section is a 0-cochain")
    if phi._flat is None:
        L = phi.system
        values = phi.values
        phi._flat = all(
            _act(L.matrix(i, j), values[(j,)]) == values[(i,)] for i, j in L.base.edges
        )
    return phi._flat


def coboundary_matrix(L: LocalSystem, n: int) -> Matrix:
    """Matrix of d_n : C^n -> C^{n+1} in the flattened coordinate bases,
    assembled from its nonzeros: per (n+1)-simplex tau, the transport block
    T(tau_0, tau_1) at the front face and (-1)^i times the identity at the
    face without tau_i.  The faces are distinct, so no entry is written
    twice."""
    if n < 0:
        raise DegreeError("coboundary degree must be nonnegative")
    base = L.base
    r = L.rank
    src = base.simplices_of_dim(n)
    dst = base.simplices_of_dim(n + 1)
    col_of = {s: i for i, s in enumerate(src)}
    zero, one = Fraction(0), Fraction(1)
    signs = (one, -one)
    ncols = len(src) * r
    rows = []
    for tau in dst:
        block = [[zero] * ncols for _ in range(r)]
        j0 = col_of[tau[1:]] * r
        for a, entries in enumerate(L.matrix(tau[0], tau[1]).entries):
            block[a][j0 : j0 + r] = entries
        for i in range(1, n + 2):
            j0 = col_of[tau[:i] + tau[i + 1 :]] * r
            for a in range(r):
                block[a][j0 + a] = signs[i % 2]
        rows.extend(map(tuple, block))
    return Matrix._trusted(tuple(rows), ncols)


def _flat_sections(L: LocalSystem) -> list:
    """The basis of H^0 = ker d_0 that ``kernel_basis`` gives, read off the
    fiber at vertex 0.

    A flat section is fixed by its value x at the root: with the frames of
    ``local_systems._tree_gauge`` it is down[v] x at each vertex v, and a
    non-tree edge (i, j) asks T(i, j) down[j] x = down[i] x, that is h x = x
    for the holonomy h = down[i]^-1 T(i, j) down[j] of its loop.  So H^0 is
    the joint fixed space of the distinct holonomies (the null space of the
    stacked R x R blocks h - I), extended by the frames, and no (E R) x (V R)
    matrix is built.  The free-column form of a span, its reduced rows with
    rightmost pivots, is unique and is the form of ``kernel_basis``, so the
    free-column form of the extended vectors is that basis, entry for entry."""
    base, r = L.base, L.rank
    down, loops = _tree_gauge(L)
    ident = Matrix.identity(r)
    # loops in tree gauge share a few transport objects: one block per object
    distinct = {id(h): h for h in loops.values()}.values()
    blocks = [h - ident for h in distinct if not h.is_identity()]
    fixed = kernel_basis(Matrix([row for b in blocks for row in b.entries], cols=r))
    sections = []
    for x in fixed:
        values = []
        for v in range(base.vertex_count):
            values.extend(_act(down[v], x))
        sections.append(values)
    return _free_column_form(sections)


def _matrix_from_columns(cols, height: int) -> Matrix:
    if not cols:
        return Matrix([()] * height, cols=0)
    return Matrix(list(zip(*cols)), cols=len(cols))


class CohomologySpace:
    """H^n of a flat system: dimension, chosen cocycle representatives, and
    coordinates of arbitrary cocycles in the chosen basis.

    Built from a basis of Z^n and a spanning list of B^n.  The rank form of
    the echelon of B^n (forward elimination only, see ``linalg._RowSpace``)
    is computed once and kept, and H^n is read off it:

    - the Z^n basis is taken in free-column form (``linalg._free_column_tails``):
      each vector has its own rightmost nonzero column, 1 there, and the
      others vanish there.  ``kernel_basis`` and ``_flat_sections`` give
      that form, and any other basis is brought to it first;
    - every member of Z^n is the combination of the basis with its own
      entries at those columns as coefficients, so B^n lies in Z^n exactly
      when every row of its echelon is, which is checked row by row;
    - a nonzero combination of the basis has its rightmost nonzero at the
      column of its rightmost vector, so every pivot of B^n, the rightmost
      nonzero of a member of Z^n, is one of those columns;
    - the representatives are the basis vectors whose column is not a pivot
      of B^n.

    They are the greedy choice of ``quotient_basis``, each vector kept when
    it is not in the span of B^n and the vectors before it: the span of B^n
    and the first i vectors has the dimension i plus the number of pivots
    right of the i-th column, since the members of B^n with pivots at or
    left of it are combinations of those i vectors, so the span grows at
    the i-th vector exactly when its column is not a pivot.

    A cocycle's residue modulo B^n lies in Z^n and vanishes on the pivots,
    so it is the combination of the representatives with its own entries at
    their columns, and those entries are the coordinates of the class.  The
    rest of the residue is checked against that combination.  The residue
    that vanishes on the pivots of B^n is unique, so the coordinates do not
    depend on the echelon form."""

    def __init__(self, system, degree, z_vectors=(), b_vectors=()):
        image = _RowSpace(b_vectors)
        tails = _free_column_tails(z_vectors)
        if tails is None:
            z_vectors = _free_column_form(z_vectors)
            tails = _free_column_tails(z_vectors)
        if not image.within(tails):
            raise NotASubspaceError(
                "coboundaries are not all cocycles", degree=degree
            )
        pivots = image.pivots
        kept = [(c, v) for c, v in zip(tails, z_vectors) if c not in pivots]
        self._wrap(system, degree, (image, {c: tails[c] for c, _ in kept}, [v for _, v in kept]))

    @classmethod
    def _from_kept(cls, system, degree, kept: tuple) -> "CohomologySpace":
        """The space whose ``_kept`` data is ``kept``, over ``system``: no
        elimination and no check, so ``kept`` must come from a space built
        over an equal system."""
        space = object.__new__(cls)
        space._wrap(system, degree, kept)
        return space

    def _wrap(self, system, degree, kept: tuple) -> None:
        # what the space computed, as plain data with no reference to a
        # system or a complex: the rank-form echelon of B^n, the free-column
        # tails of the representatives by column, and their vectors
        self.system = system
        self.degree = degree
        self._kept = kept
        self._image, self._tails, self._rep_vectors = kept
        self.representatives = [
            TwistedCochain._trusted(system, degree, _by_simplex(system, degree, v))
            for v in self._rep_vectors
        ]
        self.dimension = len(self.representatives)

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

    def is_coboundary(self, phi: TwistedCochain) -> bool:
        return all(x == 0 for x in self.coordinates_of(phi))

    def __repr__(self):
        return f"CohomologySpace(degree={self.degree}, dimension={self.dimension})"


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
    if n < 0:
        raise DegreeError("cohomology degree must be nonnegative")
    _require_flat(L)
    if not L.base.simplices_of_dim(n):
        return CohomologySpace(L, n)
    if n == 0:
        return _flat_representatives(CohomologySpace(L, 0, _flat_sections(L)))
    image_columns = coboundary_matrix(L, n - 1).transpose().entries
    return CohomologySpace(L, n, kernel_basis(coboundary_matrix(L, n)), image_columns)


def cohomology_dims(L: LocalSystem, up_to: int | None = None) -> tuple:
    """Dimensions (dim H^0, ..., dim H^d), with d the base dimension by
    default, from ranks alone:

        dim H^n = dim C^n - rk d_n - rk d_{n-1},    rk d_{-1} = 0.

    The formula needs d_n d_{n-1} = 0, which holds exactly when L is flat,
    so flatness is checked first and a violation raises NotFlatError.  Each
    d_n is built and ranked once; no representatives are chosen."""
    top = L.base.dimension if up_to is None else up_to
    _require_flat(L)
    dims = []
    rank_prev = 0
    for n in range(top + 1):
        d_n = coboundary_matrix(L, n)
        rank_n = d_n.rank()
        dims.append(d_n.cols - rank_n - rank_prev)
        rank_prev = rank_n
    return tuple(dims)


def _flat_representatives(space: CohomologySpace) -> CohomologySpace:
    """Mark the representatives of an H^0 space flat: each is a basis
    vector of ker d_0."""
    for phi in space.representatives:
        phi._flat = True
    return space


def untwisted_space(c: Complex, n: int) -> CohomologySpace:
    """H^n with trivial rational coefficients, over a fresh trivial line.

    The first call per complex and degree runs ``cohomology`` with all its
    checks and keeps the space's plain data (``CohomologySpace._kept``) in
    ``Complex._untwisted_spaces``; every later call wraps that data around
    a fresh trivial line and rebuilds only the representative cochains.  The
    data points to no system and no complex, so the memo makes no reference
    cycle, and it lives exactly as long as its complex."""
    L = trivial_system(c, 1)
    kept = c._untwisted_spaces.get(n)
    if kept is not None:
        space = CohomologySpace._from_kept(L, n, kept)
        return _flat_representatives(space) if n == 0 else space
    space = cohomology(L, n)
    c._untwisted_spaces[n] = space._kept
    return space


def untwisted_class(phi: TwistedCochain) -> CohomologyClass:
    """The class of a closed untwisted rank-1 cochain in the basis of
    ``untwisted_space``."""
    space = untwisted_space(phi.system.base, phi.degree)
    return space.class_of(phi)


def _perm_sign(seq) -> int:
    inversions = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
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


def pair_flat(phi: TwistedCochain, omega: TwistedCochain) -> TwistedCochain:
    """Pair a flat 0-cochain of the dual system against a twisted cochain,
    producing an untwisted rational cochain.  Flatness of phi makes the
    pointwise pairing at the first vertex independent of transport choices,
    and the pairing then commutes with coboundaries."""
    if phi.degree != 0:
        raise InputError("pairing section must be a 0-cochain")
    if phi.system.base != omega.system.base:
        raise BaseMismatchError("pairing needs a common base complex")
    if phi.system != dual(omega.system):
        raise InputError("pairing section must live in the dual system")
    if not is_flat_section(phi):
        raise NotFlatError("pairing section is not flat")
    return _pair_pointwise(phi.values, omega)


def boundary_matrix(c: Complex, n: int) -> Matrix:
    """Simplicial boundary of n-chains in the sorted-simplex bases: the
    transpose of the untwisted coboundary d_{n-1}."""
    return coboundary_matrix(trivial_system(c, 1), n - 1).transpose()


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
    space's echelon of B^2 span them, and their free-column kernel is a
    basis of the boundary's kernel.  That basis is not the one
    ``kernel_basis`` of the boundary gives, but the kernel is
    one-dimensional on the surface models and ``_normalized_cycle`` scales
    the vector so its first nonzero is 1, so the cycle is the same."""
    c = space.system.base
    triangles = len(c.simplices_of_dim(2))
    return _normalized_cycle(c, _free_column_kernel(space._image.reduced_rows(), triangles))


def _normalized_cycle(c: Complex, basis: list) -> dict:
    if len(basis) != 1:
        raise InputError(
            "complex does not carry a unique 2-cycle", cycle_space_dimension=len(basis)
        )
    vec = basis[0]
    lead = next(x for x in vec if x != 0)
    triangles = c.simplices_of_dim(2)
    return {t: x / lead for t, x in zip(triangles, vec) if x != 0}


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


def evaluate_on_loop(phi: TwistedCochain, path: Sequence[int]) -> Fraction:
    """Sum an untwisted rank-1 1-cochain along a vertex path, with signs for
    traversal against the edge orientation (``loop_pairing`` on its values).
    Each step must stay put or follow an edge."""
    if phi.degree != 1 or phi.system.rank != 1:
        raise InputError("loop evaluation needs a rank-1 1-cochain")
    _require_edge_path(phi.system.base, path)
    return loop_pairing({e: v[0] for e, v in phi.values.items()}, path)


def named_loop_cocycle(c: Complex, name: str) -> TwistedCochain:
    """The stored winding cocycle of a named loop as an untwisted 1-cochain;
    pairs to 1 against its own loop."""
    data = c.loop_cocycles.get(name)
    if data is None:
        raise UnknownGeneratorError(
            f"complex has no winding data for loop {name!r}", generator=name
        )
    return TwistedCochain(trivial_system(c, 1), 1, {e: (v,) for e, v in data.items()})
