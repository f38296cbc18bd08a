"""Twisted cohomology dimensions against the group cohomology oracle.

Seeded commuting holonomies of four kinds (trivial, unipotent, diagonal
with some eigenvalues 1, and generic), conjugated by a random frame and
gauged at random, on tori from 3x3 to 8x8 and on circles; trivial and
unipotent ones, in tree gauge, on the 20x20 torus.  At rank 1 the only
unipotent matrix is the identity, so that kind is left out there.  The oracle's
cost does not grow with the grid, so it checks sizes the dense reference
cannot reach.
"""

import random
from fractions import Fraction

import pytest

from algebroids import (
    Matrix,
    circle_model,
    cohomology,
    cohomology_dims,
    from_representation,
    torus_grid,
    trivial_system,
)

from conftest import rand_invertible_matrix, random_gauge
from group_cohomology import group_cohomology_dims

KINDS = ("trivial", "unipotent", "partial", "generic")


def _kinds(rank) -> tuple:
    """The kinds that give distinct systems at this rank."""
    return tuple(k for k in KINDS if rank > 1 or k != "unipotent")


def _commuting_images(rng, kind, rank) -> tuple:
    """Two commuting invertible matrices of one kind, in a random frame:
    generic ones have no eigenvalue 1, so they fix no vector, and partial
    ones scale the first vector by 2, so at rank 1 too they are not both
    the identity."""
    one = Fraction(1)
    if kind == "trivial":
        pair = (Matrix.identity(rank),) * 2
    elif kind == "unipotent":
        jordan = Matrix(
            [[one if j in (i, i + 1) else 0 for j in range(rank)] for i in range(rank)]
        )
        pair = (jordan, jordan.power(-2))
    elif kind == "partial":
        pair = (Matrix.diagonal([Fraction(2), one, one][:rank]),
                Matrix.diagonal([one, one, Fraction(-1, 3)][:rank]))
    else:
        pair = (Matrix.diagonal([2, 3, Fraction(1, 5)][:rank]),
                Matrix.diagonal([Fraction(-1, 7), 11, 13][:rank]))
    p = rand_invertible_matrix(rng, rank)
    return tuple(p * m * p.inverse() for m in pair)


def _system(c, kind, rank, seed, gauged=True):
    rng = random.Random(seed)
    names = sorted(c.named_loops)
    images = dict(zip(names, _commuting_images(rng, kind, rank)))
    L = from_representation(c, images, rank=rank)
    return random_gauge(rng, L) if gauged else L


@pytest.mark.parametrize("rows, cols, rank", [
    (3, 3, 1), (3, 3, 2), (3, 3, 3), (3, 5, 2), (4, 4, 3), (5, 3, 1), (5, 5, 3),
    (6, 6, 2), (7, 4, 1), (8, 8, 1), (8, 8, 2),
])
def test_torus_dims_match_the_group_cohomology(rows, cols, rank):
    c = torus_grid(rows, cols)
    seen = set()
    for kind in _kinds(rank):
        L = _system(c, kind, rank, f"group:{rows}x{cols}:{rank}:{kind}")
        expected = group_cohomology_dims(L)
        assert tuple(cohomology(L, n).dimension for n in range(3)) == expected, kind
        assert cohomology_dims(L) == expected, kind
        seen.add(expected)
    # the kinds reach both zero and nonzero cohomology
    assert (0, 0, 0) in seen and len(seen) > 1


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 7])
def test_circle_dims_match_the_group_cohomology(n, rank):
    c = circle_model(n)
    for kind in _kinds(rank):
        L = _system(c, kind, rank, f"group:circle{n}:{rank}:{kind}")
        expected = group_cohomology_dims(L)
        assert tuple(cohomology(L, k).dimension for k in range(2)) == expected, kind
        assert cohomology_dims(L) == expected, kind


def test_the_oracle_knows_the_untwisted_torus_and_circle():
    assert group_cohomology_dims(trivial_system(torus_grid(3, 3), 2)) == (2, 4, 2)
    assert group_cohomology_dims(trivial_system(circle_model(3), 3)) == (3, 3)


@pytest.mark.parametrize("rank, kind", [(1, "trivial"), (2, "trivial"), (2, "unipotent")])
def test_the_20x20_torus_matches_the_group_cohomology(rank, kind):
    """At 20x20 the tails of Z^1 come off the integer back-reduction where
    its fill matters: the H^1 basis and the ranks of the dims must still
    agree with the oracle, for trivial and unipotent holonomies in a random
    frame (at rank 1 the only unipotent matrix is the identity).  The
    systems stay in tree gauge: a random gauge at every vertex makes a
    rank-2 case two to three times slower, and gauged systems are checked
    on the smaller tori above."""
    L = _system(torus_grid(20, 20), kind, rank, f"group:20x20:{rank}:{kind}", gauged=False)
    expected = group_cohomology_dims(L)
    assert cohomology(L, 1).dimension == expected[1]
    assert cohomology_dims(L) == expected
