import random
from fractions import Fraction

import pytest

from algebroids import (
    Complex,
    LocalSystem,
    Matrix,
    TwistedCochain,
    circle_model,
    coboundary_matrix,
    from_representation,
    gauge_transform,
    simplicial_map,
    torus_grid,
    torus_model,
    trivial_system,
    validate_complex,
)
from algebroids import complexes


@pytest.fixture
def fresh_models():
    """An empty model cache, and an empty one again afterwards, so the
    first query of a test builds its model and the untwisted cohomology
    kept with it, and no model built under a test's wrappers outlives the
    test."""
    complexes._shared_models.clear()
    yield
    complexes._shared_models.clear()


@pytest.fixture(scope="session")
def torus():
    return torus_model()


@pytest.fixture(scope="session")
def circle3():
    return circle_model(3)


@pytest.fixture(scope="session")
def circle6():
    return circle_model(6)


@pytest.fixture(scope="session")
def disk():
    # the full 2-simplex; contractible, so all flat systems have trivial holonomy
    return validate_complex(3, [(0, 1), (0, 2), (1, 2), (0, 1, 2)])


@pytest.fixture(scope="session")
def torus36():
    return torus_grid(3, 6)


@pytest.fixture(scope="session")
def tet():
    # solid tetrahedron: the smallest base with 3-simplices, where a
    # 2-cochain can genuinely fail to be closed
    import itertools

    simps = (
        list(itertools.combinations(range(4), 2))
        + list(itertools.combinations(range(4), 3))
        + [(0, 1, 2, 3)]
    )
    return validate_complex(4, simps)


def two_spheres():
    """The boundaries of two tetrahedra sharing vertex 3: simply connected,
    with two 2-cycles, so its top-degree H^2 has dimension 2."""
    import itertools

    simplices = []
    for vertices in ((0, 1, 2, 3), (3, 4, 5, 6)):
        simplices += itertools.combinations(vertices, 2)
        simplices += itertools.combinations(vertices, 3)
    return validate_complex(7, simplices)


def rand_fraction(rng, lo=-4, hi=4, nonzero=False):
    while True:
        q = Fraction(rng.randint(lo, hi), rng.randint(1, 3))
        if q != 0 or not nonzero:
            return q


def rand_invertible_scalar(rng):
    return rand_fraction(rng, nonzero=True)


def rand_invertible_matrix(rng, rank):
    if rank == 1:
        return Matrix([[rand_invertible_scalar(rng)]])
    # unit upper times unit lower triangular is always invertible
    upper = [[Fraction(1) if i == j else (rand_fraction(rng, -2, 2) if j > i else Fraction(0))
              for j in range(rank)] for i in range(rank)]
    lower = [[Fraction(1) if i == j else (rand_fraction(rng, -2, 2) if j < i else Fraction(0))
              for j in range(rank)] for i in range(rank)]
    return Matrix(upper) * Matrix(lower)


def commuting_pair(rng, rank):
    """Two commuting invertible matrices: conjugated diagonals with a shared
    frame, so torus grid relations hold at any rank."""
    p = rand_invertible_matrix(rng, rank)
    pi = p.inverse()
    def conj():
        diag = Matrix.diagonal([rand_invertible_scalar(rng) for _ in range(rank)])
        return p * diag * pi
    return conj(), conj()


def random_gauge(rng, L):
    frames = {v: rand_invertible_matrix(rng, L.rank) for v in range(L.base.vertex_count)}
    return gauge_transform(L, frames)


def random_flat_system(rng, c, rank=1, gauged=True):
    """A random flat system in (possibly gauged-away) tree gauge.  Named
    generators get commuting images; complexes without named loops only
    carry gauge transforms of the trivial system once triangles are present.
    """
    names = sorted(c.named_loops)
    if names:
        if rank == 1:
            images = {n: rand_invertible_scalar(rng) for n in names}
        else:
            pair = commuting_pair(rng, rank)
            images = {n: m for n, m in zip(names, pair)}
            for n in names[2:]:
                images[n] = Matrix.identity(rank)
        L = from_representation(c, images, rank=rank)
    elif not c.triangles:
        transport = {e: rand_invertible_matrix(rng, rank) for e in c.edges}
        L = LocalSystem(c, rank, transport)
    else:
        L = trivial_system(c, rank)
    return random_gauge(rng, L) if gauged else L


def random_cochain(rng, L, degree):
    values = {
        s: tuple(rand_fraction(rng) for _ in range(L.rank))
        for s in L.base.simplices_of_dim(degree)
    }
    return TwistedCochain(L, degree, values)


def image_columns(L, n) -> list:
    """The columns of d_{n-1}, the spanning list of B^n a space is built
    from; none for n = 0."""
    if n == 0:
        return []
    d_prev = coboundary_matrix(L, n - 1)
    return [tuple(row[j] for row in d_prev.entries) for j in range(d_prev.cols)]


def tree_loop(tree, i, j):
    """The based loop a non-tree edge (i, j) closes, written out vertex by
    vertex from ``tree.parent``: root to i along the tree, across the edge,
    j back to the root."""
    def to_root(v):
        path = [v]
        while v != tree.root:
            v = tree.parent[v]
            path.append(v)
        return path

    return tuple(reversed(to_root(i))) + tuple(to_root(j))


def torus_shift_map(t, dr, dc):
    return simplicial_map(
        t, t, [3 * ((v // 3 + dr) % 3) + (v % 3 + dc) % 3 for v in range(9)]
    )


def torus_swap_map(t):
    # (row, col) -> (col, row); lands on the other diagonal triangle of each cell
    return simplicial_map(t, t, [3 * (v % 3) + v // 3 for v in range(9)])


def torus_negate_map(t):
    # (row, col) -> (-col, -row)
    return simplicial_map(
        t, t, [3 * ((-(v % 3)) % 3) + (-(v // 3)) % 3 for v in range(9)]
    )


def torus_cover_map(t36, t):
    # wrap the 3x6 grid twice around the column direction
    return simplicial_map(t36, t, [3 * (v // 6) + (v % 6) % 3 for v in range(18)])


def circle_in_torus_maps(c6, t):
    """Loop embeddings and their contiguous companions on the 6-gon."""
    link_of_4 = simplicial_map(c6, t, [0, 1, 5, 8, 7, 3])
    link_of_0 = simplicial_map(c6, t, [1, 4, 3, 2, 8, 6])
    return link_of_4, link_of_0
