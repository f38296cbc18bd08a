"""Differential tests of the sparse elimination kernel.

``rref``, ``kernel_basis``, ``quotient_basis`` and ``solve`` must give
exactly what the dense reference in ``dense_reference.py`` gives, on seeded
random rational matrices of every awkward shape.  The forward-only rank
form of the kernel must agree with the canonical reduced form and the
dense reference on everything a caller reads of a span: its rank,
membership, residues and null space.
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
    coboundary,
    coboundary_matrix,
    cohomology,
    cohomology_dims,
    kernel_basis,
    quotient_basis,
    rref,
    solve,
    torus_grid,
    zero_cochain,
)
from algebroids.cohomology import CohomologySpace
from algebroids.linalg import _RowSpace, _free_column_kernel

from conftest import image_columns, rand_fraction, random_cochain, random_flat_system
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


def _probes(rng, m):
    """Vectors to reduce against the rows of m: the rows themselves, random
    combinations of them (members of the span) and random vectors (mostly
    outside it)."""
    rows = list(m.entries)
    probes = rows + [tuple(_entry(rng) for _ in range(m.cols)) for _ in range(3)]
    for _ in range(3):
        coeffs = [_entry(rng) for _ in rows]
        probes.append(tuple(
            sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0)) for j in range(m.cols)
        ))
    return probes


def _dense_rank(rows, ncols):
    return dense_rref(rows, ncols)[0]


def test_rank_form_keeps_the_rank_of_the_reduced_form():
    for _, m in cases():
        rank, _, pivots = dense_rref(m.entries, m.cols)
        forward, reduced = _RowSpace(m.entries), _RowSpace(m.entries, reduced=True)
        assert len(forward) == len(reduced) == rank == m.rank()
        assert tuple(sorted(reduced.pivots)) == pivots


def test_rank_form_answers_membership_as_the_reduced_form_does():
    for rng, m in cases():
        forward, reduced = _RowSpace(m.entries), _RowSpace(m.entries, reduced=True)
        rank = _dense_rank(m.entries, m.cols)
        for v in _probes(rng, m):
            inside = _dense_rank(list(m.entries) + [v], m.cols) == rank
            assert forward.contains(v) == reduced.contains(v) == inside


def test_rank_form_residues_vanish_on_the_pivots_and_differ_by_the_span():
    """Each residue is zero in every pivot column, and the vector minus its
    residue lies in the span.  A residue with those two properties is
    unique, so on the rank form too ``reduce`` is linear, whatever order
    its heap cleared the pivots in."""
    for rng, m in cases():
        rank = _dense_rank(m.entries, m.cols)
        for space in (_RowSpace(m.entries), _RowSpace(m.entries, reduced=True)):
            for v in _probes(rng, m):
                residue = space.reduce(v)
                assert all(x for x in residue.values())
                assert not residue.keys() & space.pivots
                moved = tuple(x - residue.get(j, Fraction(0)) for j, x in enumerate(v))
                assert _dense_rank(list(m.entries) + [moved], m.cols) == rank
        forward = _RowSpace(m.entries)
        u, w = _probes(rng, m)[-2:]
        a, b = _entry(rng), _entry(rng)
        combined = forward.reduce(tuple(a * x + b * y for x, y in zip(u, w)))
        ru, rw = forward.reduce(u), forward.reduce(w)
        zero = Fraction(0)
        expected = {j: a * ru.get(j, zero) + b * rw.get(j, zero) for j in ru.keys() | rw.keys()}
        assert combined == {j: x for j, x in expected.items() if x}


def test_rank_form_kernel_spans_the_null_space():
    for _, m in cases():
        basis = _free_column_kernel(_RowSpace(m.entries), m.cols)
        assert len(basis) == len(dense_kernel_basis(m))
        assert _dense_rank(basis, m.cols) == len(basis)
        for v in basis:
            assert not any(m.apply(v))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_coordinates_on_the_rank_form_match_a_dense_solve(rank):
    """The coordinates a space reads off its forward-only image of B^n are
    the first dim entries of the dense solution of [representatives | B^n]
    x = phi, on random cocycles of gauged flat systems of each rank."""
    rng = random.Random(f"rank-form-coordinates:{rank}")
    for base in (circle_model(4), torus_grid(3, 3)):
        L = random_flat_system(rng, base, rank=rank, gauged=True)
        for n in range(base.dimension + 1):
            space = cohomology(L, n)
            image = image_columns(L, n)
            columns = [tuple(v) for v in space._rep_vectors] + image
            for _ in range(2):
                phi = zero_cochain(L, n)
                for rep in space.representatives:
                    phi = phi + rep.scale(rand_fraction(rng))
                if n > 0:
                    phi = phi + coboundary(random_cochain(rng, L, n - 1))
                vec = phi.vector()
                m = (Matrix(list(zip(*columns)), cols=len(columns)) if columns
                     else Matrix([()] * len(vec), cols=0))
                expected = dense_solve(m, vec)
                assert expected is not None
                assert space.coordinates_of(phi) == expected[: space.dimension], (base, n)


def test_a_coboundary_outside_the_cocycles_is_still_refused():
    """A space whose Z^n basis misses a coboundary raises
    NotASubspaceError, as quotient_basis does, and one whose smaller basis
    still spans B^n is built."""
    rng = random.Random("rank-form-not-a-subspace")
    refused = 0
    for rank in (1, 2):
        L = random_flat_system(rng, torus_grid(3, 3), rank=rank, gauged=True)
        z = kernel_basis(coboundary_matrix(L, 1))
        image = image_columns(L, 1)
        width = len(z[0])
        for i in range(0, len(z), 3):
            smaller = z[:i] + z[i + 1:]
            if _dense_rank(smaller + image, width) == _dense_rank(smaller, width):
                CohomologySpace(L, 1, smaller, image)
                continue
            refused += 1
            with pytest.raises(NotASubspaceError):
                CohomologySpace(L, 1, smaller, image)
            with pytest.raises(NotASubspaceError):
                quotient_basis(smaller, image)
    assert refused
