"""Differential tests of the sparse elimination kernel.

``rref``, ``kernel_basis``, ``solve`` and ``Matrix.inverse`` must give
exactly what the dense reference in ``dense_reference.py`` gives, on seeded
random rational matrices of every awkward shape and on the sparse
coboundaries of gauged flat systems, where elimination fills in.  The one echelon form of the kernel, forward-only
with rightmost pivots, must agree with the dense reference on everything a
caller reads of a span: its rank, pivots, membership, residues and null
space; and its back-reduced rows must be the mirrored dense reduced form of
the column-reversed rows, whatever order the rows come in.  The null
spaces and free-column forms the package holds as ``{column: tail}`` must
be the dense ones, column for column.
Ranks are also checked against sympy, and the rank-based
``cohomology_dims`` against the dimensions of the spaces ``cohomology``
builds.
"""
import math
import random
from fractions import Fraction

import pytest

from algebroids import (
    Matrix,
    NotASubspaceError,
    SingularMatrixError,
    circle_model,
    coboundary,
    coboundary_matrix,
    cohomology,
    cohomology_dims,
    dual,
    from_representation,
    kernel_basis,
    rref,
    solve,
    sym_power,
    torus_grid,
    trivial_system,
    zero_cochain,
)
from algebroids.cohomology import CohomologySpace
from algebroids.linalg import _RowSpace, _dense, _kernel_tails, _leftmost_rows, _span_tails

from conftest import (
    image_columns,
    rand_fraction,
    rand_invertible_matrix,
    random_cochain,
    random_flat_system,
    random_gauge,
    two_spheres,
    zero_matrix,
)
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
        return zero_matrix(small, big)
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


def _dense_rightmost_rows(rows, ncols):
    """The reduced rows with rightmost pivots, ``{pivot: {column: nonzero}}``,
    by the dense reference: ``dense_rref`` of the column-reversed rows,
    mirrored back."""
    _, red, pivots = dense_rref([tuple(row)[::-1] for row in rows], ncols)
    last = ncols - 1
    return {last - p: {last - j: x for j, x in enumerate(row) if x} for p, row in zip(pivots, red)}


def test_row_space_keeps_the_rank_and_the_pivots_of_the_dense_reference():
    """The rank is the dense rank, and the pivots, each row's rightmost
    nonzero, are the mirrored dense pivots of the column-reversed rows."""
    for _, m in cases():
        space = _RowSpace(m.entries)
        assert len(space) == _dense_rank(m.entries, m.cols) == m.rank()
        assert sorted(space.pivots) == sorted(_dense_rightmost_rows(m.entries, m.cols))


def test_row_space_answers_membership_as_the_dense_reference_does():
    for rng, m in cases():
        space = _RowSpace(m.entries)
        rank = _dense_rank(m.entries, m.cols)
        for v in _probes(rng, m):
            assert (not space.reduce(v)) == (_dense_rank(list(m.entries) + [v], m.cols) == rank)


def test_row_space_residues_vanish_on_the_pivots_and_differ_by_the_span():
    """Each residue is zero in every pivot column, and the vector minus its
    residue lies in the span.  A residue with those two properties is
    unique, so it is the dense one, the vector minus its entries at the
    pivots times the dense reduced rows, and ``reduce`` is linear, whatever
    order its heap cleared the pivots in."""
    zero = Fraction(0)
    for rng, m in cases():
        rank = _dense_rank(m.entries, m.cols)
        dense = _dense_rightmost_rows(m.entries, m.cols)
        space = _RowSpace(m.entries)
        for v in _probes(rng, m):
            residue = space.reduce(v)
            assert all(x for x in residue.values())
            assert not residue.keys() & space.pivots
            moved = tuple(x - residue.get(j, zero) for j, x in enumerate(v))
            assert _dense_rank(list(m.entries) + [moved], m.cols) == rank
            expected = list(v)
            for p, row in dense.items():
                f = v[p]
                for j, x in row.items():
                    expected[j] -= f * x
            assert residue == {j: x for j, x in enumerate(expected) if x}
        u, w = _probes(rng, m)[-2:]
        a, b = _entry(rng), _entry(rng)
        combined = space.reduce(tuple(a * x + b * y for x, y in zip(u, w)))
        ru, rw = space.reduce(u), space.reduce(w)
        expected = {j: a * ru.get(j, zero) + b * rw.get(j, zero) for j in ru.keys() | rw.keys()}
        assert combined == {j: x for j, x in expected.items() if x}


def test_reduced_rows_are_the_unique_dense_form_in_any_row_order():
    """The back-reduced rows are the mirrored ``dense_rref`` of the
    column-reversed rows, in ascending order of pivot, and the same for
    seeded permutations of the input rows, on every kind of ``cases()``."""
    for rng, m in cases():
        expected = _dense_rightmost_rows(m.entries, m.cols)
        rows = list(m.entries)
        for _ in range(3):
            reduced = _RowSpace(rows).reduced_rows()
            assert reduced == expected
            assert list(reduced) == sorted(reduced)
            for p, row in reduced.items():
                assert row[p] == 1 and max(row) == p and all(row.values())
                assert not row.keys() & (reduced.keys() - {p})
            rng.shuffle(rows)


def _coprime_denominators(count):
    """The first ``count`` integers above 2^31 coprime to every one before."""
    dens = []
    d = 2**31
    while len(dens) < count:
        d += 1
        if all(math.gcd(d, e) == 1 for e in dens):
            dens.append(d)
    return dens


def _hard_rows(rng, dens):
    """Sparse rows of entries up to 2^64 of both signs over pairwise coprime
    denominators above 2^31, with single-entry rows and rows equal up to
    scale mixed in: 9 columns, so the dense reference stays cheap."""
    def entry():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**64), rng.choice(dens))

    cols = 9
    rows = [[entry() if rng.random() < 0.6 else Fraction(0) for _ in range(cols)] for _ in range(5)]
    for _ in range(3):
        single = [Fraction(0)] * cols
        single[rng.randrange(cols)] = entry()
        rows.append(single)
    for _ in range(2):
        f = entry()
        rows.append([f * x for x in rng.choice(rows)])
    rng.shuffle(rows)
    return rows, cols


def _sym2_dual_blocks():
    """The transport blocks of Sym^2 of the dual of a gauged rank-3 system
    with a unipotent pair conjugated by a random frame, 6 x 6 each, as they
    stand and minus the identity (nilpotent, so rank deficient)."""
    rng = random.Random("hard:sym2-dual")
    one = Fraction(1)
    jordan = Matrix([[one if j in (i, i + 1) else 0 for j in range(3)] for i in range(3)])
    p = rand_invertible_matrix(rng, 3)
    images = {"a": p * jordan * p.inverse(), "b": p * jordan.power(-2) * p.inverse()}
    L = random_gauge(rng, from_representation(torus_grid(3, 3), images, rank=3))
    S = sym_power(dual(L), 2)
    for e in sorted(S.transport)[:6]:
        m = S.transport[e]
        yield [list(row) for row in m.entries], m.cols
        yield [list(row) for row in (m - Matrix.identity(m.rows)).entries], m.cols


def test_reduced_rows_on_hard_entries_are_the_dense_form_and_leave_the_echelon_alone():
    """The back-reduction runs on integer rows over one denominator each.
    On huge coprime denominators, huge numerators, single-entry rows, rows
    equal up to scale and gauged Sym^2-of-dual blocks it must still give
    the mirrored dense reduced rows, with nonzero Fraction values and a
    pivot entry of exactly 1, and two calls must agree and leave the
    forward echelon as it was: no returned row is an echelon row."""
    dens = _coprime_denominators(5)
    inputs = [_hard_rows(random.Random(f"hard:{seed}"), dens) for seed in range(6)]
    inputs += list(_sym2_dual_blocks())
    for rows, cols in inputs:
        space = _RowSpace(rows)
        before = {p: dict(row) for p, row in space.echelon.items()}
        first = space.reduced_rows()
        assert first == _dense_rightmost_rows(rows, cols)
        for p, row in first.items():
            assert all(type(x) is Fraction and x for x in row.values())
            assert type(row[p]) is Fraction and row[p] == 1
            assert row is not space.echelon[p]
        for row in first.values():
            row.clear()
        assert space.echelon == before
        assert space.reduced_rows() == _dense_rightmost_rows(rows, cols)
        assert space.echelon == before


def _sparse_coboundaries():
    """d_0 and d_1 of seeded gauged flat systems of rank 1 to 3 over the
    3x3 torus and two spheres: sparse rows whose elimination fills in."""
    for base in (torus_grid(3, 3), two_spheres()):
        for rank in (1, 2, 3):
            rng = random.Random(f"sparse-fill:{base.counts()}:{rank}")
            L = random_flat_system(rng, base, rank=rank, gauged=True)
            for n in (0, 1):
                yield rng, coboundary_matrix(L, n)


def test_sparse_coboundaries_match_the_dense_reference():
    for rng, m in _sparse_coboundaries():
        rank, red, pivots = rref(m)
        assert (rank, red.entries, pivots) == dense_rref(m.entries, m.cols)
        assert kernel_basis(m) == dense_kernel_basis(m)
        x = [_entry(rng) for _ in range(m.cols)]
        for rhs in (m.apply(x), [_entry(rng) for _ in range(m.rows)]):
            assert solve(m, rhs) == dense_solve(m, rhs)
        assert solve(m, m.apply(x)) is not None


def _tail_cases():
    """Every kind of ``cases()`` and the gauged d_0 and d_1 of rank 1 to 3."""
    yield from cases()
    yield from _sparse_coboundaries()


def test_kernel_tails_of_the_leftmost_reduced_rows_are_the_dense_kernel_basis():
    """On the reduced rows with leftmost pivots the tails are minus column
    j of the dense reduced rows at the pivots, each left of its column j,
    and their vectors are ``dense_kernel_basis``, entry for entry."""
    for _, m in _tail_cases():
        tails = _kernel_tails(_leftmost_rows(m.entries, m.cols), m.cols)
        _, red, pivots = dense_rref(m.entries, m.cols)
        assert tails == {
            j: {p: -row[j] for p, row in zip(pivots, red) if row[j]}
            for j in range(m.cols) if j not in pivots
        }
        assert list(tails) == sorted(tails)
        for j, tail in tails.items():
            assert all(p < j for p in tail) and not tail.keys() & tails.keys()
        basis = _dense(tails, m.cols)
        assert basis == dense_kernel_basis(m) == kernel_basis(m)
        for v in basis:
            assert not any(m.apply(v))


def test_kernel_tails_of_the_rightmost_reduced_rows_span_the_dense_null_space():
    """On the reduced rows with rightmost pivots the tails are minus column
    j of the dense reference's rows at the pivots, each right of its column
    j, and their vectors are an independent basis of the null space."""
    for _, m in _tail_cases():
        tails = _kernel_tails(_RowSpace(m.entries).reduced_rows(), m.cols)
        dense = _dense_rightmost_rows(m.entries, m.cols)
        assert tails == {
            j: {p: -row[j] for p, row in dense.items() if j in row}
            for j in range(m.cols) if j not in dense
        }
        for j, tail in tails.items():
            assert all(p > j for p in tail)
        basis = _dense(tails, m.cols)
        assert len(basis) == len(dense_kernel_basis(m))
        assert _dense_rank(basis, m.cols) == len(basis)
        for v in basis:
            assert not any(m.apply(v))


def test_span_tails_are_the_dense_free_column_form_in_any_order():
    """The free-column form of a span is the dense reduced form with
    rightmost pivots, without the pivot 1, whatever order the vectors come
    in; the form of a kernel basis is its own tails."""
    for rng, m in _tail_cases():
        expected = {
            p: {j: x for j, x in row.items() if j != p}
            for p, row in _dense_rightmost_rows(m.entries, m.cols).items()
        }
        rows = list(m.entries)
        for _ in range(2):
            tails = _span_tails(rows)
            assert tails == expected
            assert list(tails) == sorted(tails)
            rng.shuffle(rows)
        for j, tail in tails.items():
            assert all(k < j for k in tail) and not tail.keys() & tails.keys()
        kernel = _kernel_tails(_leftmost_rows(m.entries, m.cols), m.cols)
        assert _span_tails(kernel_basis(m)) == kernel
        assert _span_tails(_dense(kernel, m.cols)[::-1]) == kernel


def test_inverse_matches_the_dense_reduced_form_of_the_augmented_matrix():
    """``Matrix.inverse`` is the right block of ``dense_rref`` of [A | I],
    or refuses A when its left block has a rank below n, on seeded
    invertible and singular matrices from 0x0 up."""
    rng = random.Random("inverse-against-dense")
    singular = 0
    for n in (0, 1, 1, 2, 3, 4, 5) * 4:
        m = Matrix(_rows(rng, n, n), cols=n)
        if n > 1 and rng.random() < 0.3:
            # a repeated row, so singular for certain
            m = Matrix(list(m.entries[:-1]) + [m.entries[0]], cols=n)
        ident = Matrix.identity(n).entries
        _, red, _ = dense_rref([r + i for r, i in zip(m.entries, ident)], 2 * n)
        if _dense_rank(m.entries, n) < n:
            singular += 1
            with pytest.raises(SingularMatrixError):
                m.inverse()
            continue
        assert m.inverse().entries == tuple(row[n:] for row in red)
    assert singular


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_coordinates_on_the_rank_form_match_a_dense_solve(rank):
    """The coordinates a space reads off its forward-only image of B^n are
    the first dim entries of the dense solution of [representatives | B^n]
    x = phi, on random cocycles of gauged flat systems of each rank, also
    where the top degree has more than one class (two spheres)."""
    rng = random.Random(f"rank-form-coordinates:{rank}")
    for base in (circle_model(4), torus_grid(3, 3), two_spheres()):
        L = random_flat_system(rng, base, rank=rank, gauged=True)
        for n in range(base.dimension + 1):
            space = cohomology(L, n)
            image = image_columns(L, n)
            columns = [phi.vector() for phi in space.representatives] + image
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
    NotASubspaceError, as ``dense_quotient_basis`` does, and one whose
    smaller basis still spans B^n is built."""
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
                dense_quotient_basis(smaller, image)
    assert refused


def test_a_basis_holding_every_pivot_but_missing_part_of_the_image_is_refused():
    """Dropping a cocycle whose column B^1 does not pivot on leaves a
    basis in free-column form that still holds every pivot of B^1 among
    its columns.  Where a row of B^1 needs the dropped vector, the space is
    refused all the same, as ``dense_quotient_basis`` refuses it: the
    inclusion is checked entry by entry, not read off the pivots."""
    rng = random.Random("read-off-not-a-subspace")
    refused = 0
    for rank in (1, 2):
        L = random_gauge(rng, trivial_system(torus_grid(3, 3), rank))
        z = kernel_basis(coboundary_matrix(L, 1))
        image = image_columns(L, 1)
        pivots = set(_RowSpace(image).pivots)
        width = len(z[0])
        for i, c in enumerate(_span_tails(z)):
            if c in pivots:
                continue
            smaller = z[:i] + z[i + 1:]
            assert pivots <= _span_tails(smaller).keys()
            if _dense_rank(smaller + image, width) == _dense_rank(smaller, width):
                CohomologySpace(L, 1, smaller, image)
                continue
            refused += 1
            with pytest.raises(NotASubspaceError):
                CohomologySpace(L, 1, smaller, image)
            with pytest.raises(NotASubspaceError):
                dense_quotient_basis(smaller, image)
    assert refused


@pytest.mark.parametrize("base", [torus_grid(3, 3), two_spheres()])
def test_a_foreign_cocycle_basis_is_brought_to_free_column_form(base):
    """The constructor accepts any basis of Z^n: one that is not in
    free-column form gives the space of the free-column basis it spans,
    with the same representatives and coordinates."""
    rng = random.Random(f"foreign-basis:{base.name}")
    L = random_gauge(rng, trivial_system(base, 1))
    dims = []
    for n in range(1, base.dimension + 1):
        z = kernel_basis(coboundary_matrix(L, n))
        # reversed, doubled and each mixed with its successor: the same span
        r = z[::-1]
        mix = [rand_fraction(rng) for _ in r[1:]]
        foreign = [tuple(2 * a + f * b for a, b in zip(u, w))
                   for u, w, f in zip(r, r[1:], mix)] + [tuple(2 * a for a in r[-1])]
        width = len(z[0])
        assert _dense(_span_tails(foreign), width) == z != foreign
        assert _dense_rank(foreign, width) == len(z)
        image = image_columns(L, n)
        space, reference = CohomologySpace(L, n, foreign, image), cohomology(L, n)
        assert space._tails == reference._tails
        assert ([phi.vector() for phi in space.representatives]
                == [phi.vector() for phi in reference.representatives])
        assert space.dimension == reference.dimension
        dims.append(space.dimension)
        for _ in range(2):
            phi = coboundary(random_cochain(rng, L, n - 1))
            for rep in reference.representatives:
                phi = phi + rep.scale(rand_fraction(rng))
            assert space.coordinates_of(phi) == reference.coordinates_of(phi)
    assert max(dims) > 0
