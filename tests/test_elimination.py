"""Differential tests of the sparse elimination kernel.

``rref``, ``kernel_basis``, ``quotient_basis`` and ``solve`` must give
exactly what the dense reference in ``dense_reference.py`` gives, over the
rationals and over GF(2), on seeded random matrices of every awkward shape.
Ranks are also checked against sympy, and the rank-based
``cohomology_dims`` against the dimensions of the spaces ``cohomology``
builds.
"""

import random
from fractions import Fraction

import pytest

from algebroids import (
    BITS,
    GF2,
    Matrix,
    NotASubspaceError,
    RATIONALS,
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

DOMAINS = {"rational": RATIONALS, "bit": BITS}
KINDS = ("empty", "zero", "tall", "wide", "deficient", "duplicate")
SEEDS = range(6)


def _entry(rng, domain):
    if domain is BITS:
        return GF2(rng.random() < 0.4)
    if rng.random() < 0.5:
        return Fraction(0)
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def _rows(rng, domain, nrows, ncols):
    return [[_entry(rng, domain) for _ in range(ncols)] for _ in range(nrows)]


def random_matrix(rng, domain, kind):
    small, big = rng.randint(1, 4), rng.randint(5, 8)
    if kind == "empty":
        nrows, ncols = rng.choice([(0, small), (small, 0), (0, 0)])
        return Matrix([()] * nrows, domain, cols=ncols)
    if kind == "zero":
        return Matrix([[domain.zero] * big for _ in range(small)], domain, cols=big)
    if kind == "tall":
        return Matrix(_rows(rng, domain, big, small), domain)
    if kind == "wide":
        return Matrix(_rows(rng, domain, small, big), domain)
    if kind == "deficient":
        inner = rng.randint(1, 3)
        left = Matrix(_rows(rng, domain, big, inner), domain)
        right = Matrix(_rows(rng, domain, inner, big - 1), domain)
        return left * right
    rows = _rows(rng, domain, small + 1, big)
    for _ in range(rng.randint(2, 4)):
        rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(rows)))
    return Matrix(rows, domain)


def cases(domain_name):
    domain = DOMAINS[domain_name]
    for kind in KINDS:
        for seed in SEEDS:
            rng = random.Random(f"{domain_name}-{kind}-{seed}")
            yield rng, random_matrix(rng, domain, kind)


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
def test_rref_matches_dense_reference(domain_name):
    for _, m in cases(domain_name):
        rank, red, pivots = rref(m)
        assert (rank, red.entries, pivots) == dense_rref(m.entries, m.domain, m.cols)
        assert (red.rows, red.cols) == (m.rows, m.cols)


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
def test_kernel_basis_matches_dense_reference(domain_name):
    for _, m in cases(domain_name):
        basis = kernel_basis(m)
        assert basis == dense_kernel_basis(m)
        for v in basis:
            assert not any(m.apply(v))


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
def test_solve_matches_dense_reference(domain_name):
    for rng, m in cases(domain_name):
        x = [_entry(rng, m.domain) for _ in range(m.cols)]
        consistent = m.apply(x)
        arbitrary = [_entry(rng, m.domain) for _ in range(m.rows)]
        for rhs in (consistent, arbitrary):
            solution = solve(m, rhs)
            assert solution == dense_solve(m, rhs)
            if solution is not None:
                assert m.apply(solution) == tuple(rhs)
        assert solve(m, consistent) is not None


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
def test_quotient_basis_matches_dense_reference(domain_name):
    domain = DOMAINS[domain_name]
    for rng, m in cases(domain_name):
        z = list(m.entries)
        b = []
        for _ in range(rng.randint(0, 3)):
            coeffs = [_entry(rng, domain) for _ in z]
            b.append(tuple(sum((c * v[j] for c, v in zip(coeffs, z)), domain.zero)
                           for j in range(m.cols)))
        b += [tuple(row) for row in rng.sample(z, min(len(z), 2))]
        rng.shuffle(b)
        assert quotient_basis(z, b, domain) == dense_quotient_basis(z, b, domain)

        outside = [_entry(rng, domain) for _ in range(m.cols)]
        if dense_rref(z + [outside], domain, m.cols)[0] == dense_rref(z, domain, m.cols)[0]:
            continue
        b.insert(rng.randrange(len(b) + 1), tuple(outside))
        with pytest.raises(NotASubspaceError) as expected:
            dense_quotient_basis(z, b, domain)
        with pytest.raises(NotASubspaceError) as got:
            quotient_basis(z, b, domain)
        assert got.value.to_json() == expected.value.to_json()
        assert got.value.details["vector_index"] == b.index(tuple(outside))


def test_ranks_match_sympy_over_the_rationals():
    sympy = pytest.importorskip("sympy")
    for _, m in cases("rational"):
        theirs = sympy.Matrix(m.rows, m.cols, [
            sympy.Rational(x.numerator, x.denominator) for row in m.entries for x in row
        ])
        assert m.rank() == theirs.rank()


def test_ranks_match_sympy_over_gf2():
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    field = GF(2)
    for _, m in cases("bit"):
        theirs = DomainMatrix([[field(x.value) for x in row] for row in m.entries],
                              (m.rows, m.cols), field)
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
