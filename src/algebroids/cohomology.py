"""Twisted simplicial cochains and their cohomology.

Cochains take values in the fibers of a flat local system: the value on an
n-simplex lives in the fiber at the simplex's first (smallest) vertex.  The
coboundary transports the front face back to that vertex:

    (d phi)(v0, ..., v_{n+1})
        = T(v0, v1) * phi(v1, ..., v_{n+1})
          + sum_{i >= 1} (-1)^i phi(v0, ..., v_i dropped, ..., v_{n+1})

d squares to zero exactly when the system is flat.  Everything here is exact
rational linear algebra: kernels, images and quotient representatives come
from the reduced row echelon forms of the linalg module, which are unique,
so bases are stable across runs.  Dimensions alone need only ranks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .complexes import Complex, SimplicialMap
from .errors import (
    BaseMismatchError,
    DegreeError,
    InputError,
    NotASubspaceError,
    NotClosedError,
    NotFlatError,
    UnknownGeneratorError,
)
from .linalg import Matrix, RATIONALS, kernel_basis, quotient_basis, solve
from .local_systems import LocalSystem, check_flat, dual, pullback_system, trivial_system


def _normalize_simplex(key) -> tuple:
    if isinstance(key, int):
        return (key,)
    return tuple(key)


class TwistedCochain:
    """A degree-n cochain valued in a local system.  Missing simplices are
    zero-filled, so sparse dicts are fine as input."""

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
            if isinstance(vec, (int, Fraction)):
                vec = (vec,)
            vec = tuple(Fraction(x) for x in vec)
            if len(vec) != system.rank:
                raise InputError(
                    f"value on {s} has length {len(vec)}, fiber rank is {system.rank}"
                )
            out[s] = vec
        self.values = out

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
        simplices = system.base.simplices_of_dim(degree)
        r = system.rank
        if len(vec) != len(simplices) * r:
            raise InputError("coordinate vector has the wrong length")
        values = {
            s: tuple(vec[i * r : (i + 1) * r]) for i, s in enumerate(simplices)
        }
        return cls(system, degree, values)

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
        return TwistedCochain(self.system, self.degree, values)

    def __sub__(self, other):
        self._check_compatible(other)
        values = {
            s: tuple(a - b for a, b in zip(v, other.values[s]))
            for s, v in self.values.items()
        }
        return TwistedCochain(self.system, self.degree, values)

    def scale(self, scalar) -> "TwistedCochain":
        scalar = Fraction(scalar)
        values = {s: tuple(scalar * a for a in v) for s, v in self.values.items()}
        return TwistedCochain(self.system, self.degree, values)

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


def zero_cochain(system: LocalSystem, degree: int) -> TwistedCochain:
    return TwistedCochain(system, degree)


def coboundary(phi: TwistedCochain) -> TwistedCochain:
    L = phi.system
    n = phi.degree
    out = {}
    for tau in L.base.simplices_of_dim(n + 1):
        acc = list(L.matrix(tau[0], tau[1]).apply(phi.value(tau[1:])))
        sign = -1
        for i in range(1, n + 2):
            face_value = phi.value(tau[:i] + tau[i + 1 :])
            for a in range(L.rank):
                acc[a] += sign * face_value[a]
            sign = -sign
        out[tau] = tuple(acc)
    return TwistedCochain(L, n + 1, out)


def coboundary_matrix(L: LocalSystem, n: int) -> Matrix:
    """Matrix of d_n : C^n -> C^{n+1} in the flattened coordinate bases,
    assembled from its nonzeros: per (n+1)-simplex tau, the transport block
    T(tau_0, tau_1) at the front face and (-1)^i times the identity at the
    face without tau_i.  The faces are distinct, so no entry is written
    twice."""
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
        rows.extend(block)
    return Matrix(rows, cols=ncols)


def _matrix_from_columns(cols, height: int) -> Matrix:
    if not cols:
        return Matrix([()] * height, cols=0)
    return Matrix(list(zip(*cols)), cols=len(cols))


class CohomologySpace:
    """H^n of a flat system: dimension, chosen cocycle representatives, and
    coordinates of arbitrary cocycles in the chosen basis."""

    def __init__(self, system, degree, representatives, rep_vectors, image_columns):
        self.system = system
        self.degree = degree
        self.representatives = representatives
        self.dimension = len(representatives)
        self._rep_vectors = rep_vectors
        self._image_columns = image_columns

    def coordinates_of(self, phi: TwistedCochain) -> tuple:
        """Coefficients of phi's class in the representative basis."""
        if phi.degree != self.degree or phi.system != self.system:
            raise InputError("cochain does not live in this space")
        if not coboundary(phi).is_zero():
            raise NotClosedError("cochain is not a cocycle")
        vec = phi.vector()
        if not vec:
            return ()
        m = _matrix_from_columns(list(self._rep_vectors) + list(self._image_columns), len(vec))
        coeffs = solve(m, vec)
        if coeffs is None:
            raise NotASubspaceError("cocycle is not in the computed kernel")
        return tuple(coeffs[: self.dimension])

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
        object.__setattr__(self, "coordinates", tuple(Fraction(x) for x in coordinates))

    def __setattr__(self, name, value):
        raise AttributeError("cohomology classes are immutable")

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coordinates)

    def __add__(self, other):
        if self.degree != other.degree:
            raise DegreeError("cannot add classes of different degrees")
        return CohomologyClass(
            self.degree, tuple(a + b for a, b in zip(self.coordinates, other.coordinates))
        )

    def scale(self, scalar) -> "CohomologyClass":
        scalar = Fraction(scalar)
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
    violations = check_flat(L)
    if violations:
        raise NotFlatError("system is not flat", triangles=violations)
    simplices = L.base.simplices_of_dim(n)
    if not simplices:
        return CohomologySpace(L, n, [], [], [])
    d_n = coboundary_matrix(L, n)
    z_vectors = kernel_basis(d_n)
    if n == 0:
        image_columns = []
    else:
        d_prev = coboundary_matrix(L, n - 1)
        image_columns = [
            tuple(d_prev.entries[i][j] for i in range(d_prev.rows))
            for j in range(d_prev.cols)
        ]
    rep_vectors = quotient_basis(z_vectors, image_columns)
    representatives = [TwistedCochain.from_vector(L, n, v) for v in rep_vectors]
    return CohomologySpace(L, n, representatives, rep_vectors, image_columns)


def cohomology_dims(L: LocalSystem, up_to: int | None = None) -> tuple:
    """Dimensions (dim H^0, ..., dim H^d), with d the base dimension by
    default, from ranks alone:

        dim H^n = dim C^n - rk d_n - rk d_{n-1},    rk d_{-1} = 0.

    The formula needs d_n d_{n-1} = 0, which holds exactly when L is flat,
    so flatness is checked first and a violation raises NotFlatError.  Each
    d_n is built and ranked once; no representatives are chosen."""
    top = L.base.dimension if up_to is None else up_to
    violations = check_flat(L)
    if violations:
        raise NotFlatError("system is not flat", triangles=violations)
    dims = []
    rank_prev = 0
    for n in range(top + 1):
        d_n = coboundary_matrix(L, n)
        rank_n = d_n.rank()
        dims.append(d_n.cols - rank_n - rank_prev)
        rank_prev = rank_n
    return tuple(dims)


def untwisted_space(c: Complex, n: int) -> CohomologySpace:
    """H^n with trivial rational coefficients."""
    return cohomology(trivial_system(c, 1), n)


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
    from .local_systems import tensor_system

    if alpha.system.base != beta.system.base:
        raise BaseMismatchError("cup product needs a common base complex")
    p, q = alpha.degree, beta.degree
    base = alpha.system.base
    system = tensor_system(alpha.system, beta.system)
    out = {}
    for sigma in base.simplices_of_dim(p + q):
        front = sigma[: p + 1]
        a = alpha.value(front)
        b = beta.system.transport_along(front).apply(beta.value(sigma[p:]))
        out[sigma] = tuple(x * y for x in a for y in b)
    return TwistedCochain(system, p + q, out)


def cup_power(omega: TwistedCochain, k: int) -> TwistedCochain:
    """k-fold left-associated cup power; k = 0 is the constant 1 in the
    trivial line."""
    if k < 0:
        raise InputError("cup power needs a nonnegative exponent")
    base = omega.system.base
    out = TwistedCochain(
        trivial_system(base, 1), 0, {(v,): (Fraction(1),) for v in range(base.vertex_count)}
    )
    for _ in range(k):
        out = cup(out, omega)
    return out


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
    if not coboundary(phi).is_zero():
        raise NotFlatError("pairing section is not flat")
    base = omega.system.base
    out = {}
    for sigma in base.simplices_of_dim(omega.degree):
        fv = phi.value((sigma[0],))
        ov = omega.value(sigma)
        out[sigma] = (sum(x * y for x, y in zip(fv, ov)),)
    return TwistedCochain(trivial_system(base, 1), omega.degree, out)


def boundary_matrix(c: Complex, n: int) -> Matrix:
    """Simplicial boundary of n-chains in the sorted-simplex bases."""
    src = c.simplices_of_dim(n)
    dst = c.simplices_of_dim(n - 1)
    row_of = {s: i for i, s in enumerate(dst)}
    rows = [[Fraction(0)] * len(src) for _ in range(len(dst))]
    for j, sigma in enumerate(src):
        sign = 1
        for i in range(n + 1):
            face = sigma[:i] + sigma[i + 1 :]
            rows[row_of[face]][j] += sign
            sign = -sign
    return Matrix(rows, cols=len(src))


def fundamental_cycle(c: Complex) -> dict:
    """The 2-cycle spanning ker of the boundary, normalized so its first
    nonzero triangle coefficient is +1.  Exists uniquely for the closed
    surface models; anything else is rejected."""
    basis = kernel_basis(boundary_matrix(c, 2))
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
    cycle = fundamental_cycle(c)
    first = next(t for t in c.simplices_of_dim(2) if t in cycle)
    return TwistedCochain(trivial_system(c, 1), 2, {first: (1 / cycle[first],)})


def evaluate_on_chain(phi: TwistedCochain, chain: Mapping) -> Fraction:
    """Pair an untwisted rank-1 cochain against a chain given as a
    simplex -> coefficient map."""
    if phi.system.rank != 1:
        raise InputError("chain evaluation needs a rank-1 cochain")
    total = Fraction(0)
    for simplex, coeff in chain.items():
        total += Fraction(coeff) * phi.value(simplex)[0]
    return total


def evaluate_on_loop(phi: TwistedCochain, path: Sequence[int]) -> Fraction:
    """Sum an untwisted rank-1 1-cochain along a vertex path, with signs for
    traversal against the edge orientation."""
    if phi.degree != 1 or phi.system.rank != 1:
        raise InputError("loop evaluation needs a rank-1 1-cochain")
    total = Fraction(0)
    for u, w in zip(path, path[1:]):
        if u < w:
            total += phi.value((u, w))[0]
        else:
            total -= phi.value((w, u))[0]
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
