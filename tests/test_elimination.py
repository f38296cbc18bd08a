"""Differential tests of the sparse elimination kernel.

``rref``, ``kernel_basis``, ``quotient_basis`` and ``solve`` must give
exactly what the dense reference in ``dense_reference.py`` gives, on seeded
random rational matrices of every awkward shape.
Ranks are also checked against sympy, and the rank-based
``cohomology_dims`` against the dimensions of the spaces ``cohomology``
builds.
"""

import random
from fractions import Fraction

import pytest

from algebroids import (
    Matrix,
    NotASubspaceError,
    circle_model,
    cohomology,
    cohomology_dims,
    kernel_basis,
    quotient_basis,
    rref,
    solve,
    torus_grid,
)

from conftest import random_flat_system
from dense_reference import (
    dense_kernel_basis,
    dense_quotient_basis,
    dense_rref,
    dense_solve,
)

KINDS = ("empty", "zero", "tall", "wide", "deficient", "duplicate")
SEEDS = range(6)


def _entry(rng):
    if rng.random() < 0.5:
        return Fraction(0)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _rows(rng, nrows, ncols):
    return [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]


def random_matrix(rng, kind):
    small, big = rng.randint(1, 4), rng.randint(5, 8)
    if kind == "empty":
        nrows, ncols = rng.choice([(0, small), (small, 0), (0, 0)])
        return Matrix([()] * nrows, cols=ncols)
    if kind == "zero":
        return Matrix.zeros(small, big)
    if kind == "tall":
        return Matrix(_rows(rng, big, small))
    if kind == "wide":
        return Matrix(_rows(rng, small, big))
    if kind == "deficient":
        inner = rng.randint(1, 3)
        return Matrix(_rows(rng, big, inner)) * Matrix(_rows(rng, inner, big - 1))
    rows = _rows(rng, small + 1, big)
    for _ in range(rng.randint(2, 4)):
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    return Matrix(rows)


def cases():
    for kind in KINDS:
        for seed in SEEDS:
            # the "rational-" prefix keeps the matrices these tests have
            # always drawn
            rng = random.Random(f"rational-{kind}-{seed}")
            yield rng, random_matrix(rng, kind)


def test_rref_matches_dense_reference():
    for _, m in cases():
        rank, red, pivots = rref(m)
        assert (rank, red.entries, pivots) == dense_rref(m.entries, m.cols)
        assert (red.rows, red.cols) == (m.rows, m.cols)


def test_kernel_basis_matches_dense_reference():
    for _, m in cases():
        basis = kernel_basis(m)
        assert basis == dense_kernel_basis(m)
        for v in basis:
            assert not any(m.apply(v))


def test_solve_matches_dense_reference():
    for rng, m in cases():
        x = [_entry(rng) for _ in range(m.cols)]
        consistent = m.apply(x)
        arbitrary = [_entry(rng) for _ in range(m.rows)]
        for rhs in (consistent, arbitrary):
            solution = solve(m, rhs)
            assert solution == dense_solve(m, rhs)
            if solution is not None:
                assert m.apply(solution) == tuple(rhs)
        assert solve(m, consistent) is not None


def test_quotient_basis_matches_dense_reference():
    for rng, m in cases():
        z = list(m.entries)
        b = []
        for _ in range(rng.randint(0, 3)):
            coeffs = [_entry(rng) for _ in z]
            b.append(tuple(sum((c * v[j] for c, v in zip(coeffs, z)), Fraction(0))
                           for j in range(m.cols)))
        b += [tuple(row) for row in rng.sample(z, min(len(z), 2))]
        rng.shuffle(b)
        assert quotient_basis(z, b) == dense_quotient_basis(z, b)

        outside = [_entry(rng) for _ in range(m.cols)]
        if dense_rref(z + [outside], m.cols)[0] == dense_rref(z, m.cols)[0]:
            continue
        b.insert(rng.randrange(len(b) + 1), tuple(outside))
        with pytest.raises(NotASubspaceError) as expected:
            dense_quotient_basis(z, b)
        with pytest.raises(NotASubspaceError) as got:
            quotient_basis(z, b)
        assert got.value.to_json() == expected.value.to_json()
        assert got.value.details["vector_index"] == b.index(tuple(outside))


def test_ranks_match_sympy_over_the_rationals():
    sympy = pytest.importorskip("sympy")
    for _, m in cases():
        theirs = sympy.Matrix(m.rows, m.cols, [
            sympy.Rational(x.numerator, x.denominator) for row in m.entries for x in row
        ])
        assert m.rank() == theirs.rank()


@pytest.mark.parametrize("base", [
    circle_model(3), circle_model(7), torus_grid(3, 3), torus_grid(3, 4), torus_grid(4, 4),
], ids=lambda c: f"{len(c.simplices_of_dim(0))}v{len(c.edges)}e")
@pytest.mark.parametrize("rank", [1, 2])
def test_cohomology_dims_match_cohomology_spaces(base, rank):
    rng = random.Random(f"{base.counts()}-{rank}")
    for _ in range(2):
        L = random_flat_system(rng, base, rank=rank, gauged=True)
        dims = cohomology_dims(L)
        assert dims == tuple(cohomology(L, n).dimension for n in range(base.dimension + 1))
        assert cohomology_dims(L, up_to=base.dimension + 2) == dims + (0, 0)
