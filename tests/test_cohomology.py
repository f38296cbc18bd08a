import importlib
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest

from algebroids import (
    CohomologyClass,
    DegreeError,
    DomainMismatchError,
    EdgeClass,
    InputError,
    Matrix,
    NotASubspaceError,
    NotClosedError,
    NotFlatError,
    TwistedCochain,
    canonical_edge_class,
    circle_model,
    coboundary,
    coboundary_matrix,
    cohomology,
    cohomology_dims,
    compose,
    cup,
    cup_power,
    dual,
    evaluate_on_chain,
    from_representation,
    fundamental_cycle,
    fundamental_cocycle,
    gauge_transform,
    identity_map,
    induced_map,
    kernel_basis,
    named_loop_cocycle,
    pullback_cochain,
    simplicial_map,
    solve,
    sym_power,
    tensor_system,
    torus_grid,
    trivial_system,
    untwisted_class,
    untwisted_space,
    zero_cochain,
)
from algebroids.cohomology import (
    CohomologySpace,
    _by_simplex,
    _coboundary_rows,
    is_flat_section,
)
from algebroids.jsonio import complex_from_json, complex_to_json, dump_json, resolve_complex_spec
from algebroids.linalg import _RowSpace, _span_tails

from conftest import (
    circle_in_torus_maps,
    image_columns,
    rand_fraction,
    rand_invertible_matrix,
    random_cochain,
    random_flat_system,
    random_gauge,
    torus_cover_map,
    torus_swap_map,
    two_spheres,
)
from dense_reference import dense_quotient_basis, reference_coboundary


def circle_oracle(t):
    """dim H^0 and H^1 of the circle with scalar holonomy t, computed from
    the kernel and cokernel of multiplication by (t - 1)."""
    fixed = 1 if t == 1 else 0
    return (fixed, fixed)


def torus_oracle(s, t):
    h0_s, _ = circle_oracle(s)
    h0_t, _ = circle_oracle(t)
    p, q = h0_s, h0_t
    return (p * q, 2 * p * q, p * q)


def test_cochain_construction(torus):
    L = trivial_system(torus)
    phi = TwistedCochain(L, 1, {(0, 1): 5, (1, 2): Fraction(1, 2)})
    assert phi.value((0, 1)) == (Fraction(5),)
    assert phi.value((0, 2)) == (Fraction(0),)
    assert phi.degree == 1
    with pytest.raises(InputError):
        TwistedCochain(L, 1, {(0, 5): 1})


def test_cochain_vector_round_trip(torus):
    rng = random.Random(3)
    L = random_flat_system(rng, torus, rank=2)
    phi = random_cochain(rng, L, 1)
    back = TwistedCochain(L, 1, _by_simplex(L, 1, phi.vector()))
    assert back == phi


def test_cochain_arithmetic(circle3):
    L = trivial_system(circle3)
    phi = TwistedCochain(L, 0, {(0,): 1, (1,): 2})
    psi = TwistedCochain(L, 0, {(1,): 1})
    assert (phi + psi).value((1,)) == (Fraction(3),)
    assert (phi - phi).is_zero()
    assert phi.scale(2).value((1,)) == (Fraction(4),)
    assert (-phi).value((0,)) == (Fraction(-1),)


@pytest.mark.parametrize("bad", [0.1, True, 1.0, "1"])
def test_cochains_and_classes_take_only_rationals(circle3, bad):
    """Every entry point coerces as ``Matrix`` does: a float would silently
    become its binary expansion and a bool an integer, so both are refused."""
    L = trivial_system(circle3)
    phi = TwistedCochain(L, 0, {(0,): 1})
    cls = CohomologyClass(0, (1,))
    attempts = [
        lambda: TwistedCochain(L, 0, {(0,): bad}),
        lambda: TwistedCochain(L, 0, {(0,): (bad,)}),
        lambda: phi.scale(bad),
        lambda: CohomologyClass(0, (bad,)),
        lambda: cls.scale(bad),
        lambda: evaluate_on_chain(phi, {(0,): bad}),
    ]
    for attempt in attempts:
        with pytest.raises(DomainMismatchError):
            attempt()
    assert phi.scale(Fraction(1, 3)).value((0,)) == (Fraction(1, 3),)
    assert evaluate_on_chain(phi, {(0,): 2, (1,): Fraction(1, 2)}) == 2


def test_untwisted_coboundary_is_finite_difference(circle3):
    L = trivial_system(circle3)
    phi = TwistedCochain(L, 0, {(0,): 1, (1,): 4, (2,): 9})
    d = coboundary(phi)
    assert d.value((0, 1)) == (Fraction(3),)
    assert d.value((1, 2)) == (Fraction(5),)
    assert d.value((0, 2)) == (Fraction(8),)


def test_twisted_coboundary_uses_front_transport(circle3):
    L = from_representation(circle3, {"a": 2})
    phi = TwistedCochain(L, 0, {(0,): 1, (1,): 1, (2,): 1})
    d = coboundary(phi)
    # d phi (u, v) = T(u, v) phi(v) - phi(u); only (1, 2) is twisted
    assert d.value((0, 1)) == (Fraction(0),)
    assert d.value((1, 2)) == (Fraction(1),)


def test_coboundary_squares_to_zero_randomized(torus, disk, circle6):
    rng = random.Random(5)
    for c in (torus, disk, circle6):
        for rank in (1, 2):
            L = random_flat_system(rng, c, rank=rank)
            phi = random_cochain(rng, L, 0)
            assert coboundary(coboundary(phi)).is_zero()
            m1 = coboundary_matrix(L, 1)
            m0 = coboundary_matrix(L, 0)
            if m1.rows and m0.rows:
                assert (m1 * m0).is_zero()


def test_coboundary_matrix_acts_as_coboundary(torus, tet):
    rng = random.Random(8)
    for c in (torus, tet):
        for rank in (1, 2, 3):
            L = random_flat_system(rng, c, rank=rank)
            for n in range(c.dimension + 1):
                phi = random_cochain(rng, L, n)
                m = coboundary_matrix(L, n)
                assert (m.rows, m.cols) == (len(c.simplices_of_dim(n + 1)) * rank,
                                            len(phi.vector()))
                assert m.apply(phi.vector()) == reference_coboundary(phi).vector()


def test_the_coboundary_rows_match_the_face_by_face_reference(torus, tet, disk, circle6):
    """Column j of ``coboundary_matrix`` is the reference coboundary of the
    j-th unit cochain, and the sparse rows are its rows without their
    zeros.  ``coboundary`` and ``is_flat_section`` agree with the reference
    on random cochains, and the flat-section test on H^0 representatives
    taken afresh.  Gauged systems of rank 1 to 3, at every degree: at the
    top one d_n has no rows."""
    rng = random.Random(26)
    for c in (torus, tet, disk, circle6, two_spheres()):
        for rank in (1, 2, 3):
            L = random_flat_system(rng, c, rank=rank)
            for n in range(c.dimension + 1):
                width = len(c.simplices_of_dim(n)) * rank
                m = coboundary_matrix(L, n)
                assert (m.rows, m.cols) == (len(c.simplices_of_dim(n + 1)) * rank, width)
                for j in range(width):
                    unit = [Fraction(0)] * width
                    unit[j] = Fraction(1)
                    e_j = TwistedCochain(L, n, _by_simplex(L, n, unit))
                    column = reference_coboundary(e_j).vector()
                    assert column == tuple(row[j] for row in m.entries)
                sparse = [{j: x for j, x in enumerate(row) if x} for row in m.entries]
                assert list(_coboundary_rows(L, n)) == sparse
                phi = random_cochain(rng, L, n)
                assert coboundary(phi) == reference_coboundary(phi)
                if n == 0:
                    assert is_flat_section(phi) == reference_coboundary(phi).is_zero()
                    for rep in cohomology(L, 0).representatives + [zero_cochain(L, 0)]:
                        fresh = TwistedCochain(L, 0, rep.values)
                        assert is_flat_section(fresh) and reference_coboundary(fresh).is_zero()


def test_coboundary_matrix_fails_without_flatness(torus):
    L = from_representation(torus, {"a": 2, "b": 1}).with_edge((1, 2), [[3]])
    with pytest.raises(NotFlatError):
        cohomology(L, 1)


def test_circle_dims_against_oracle():
    for t in (Fraction(1), Fraction(2), Fraction(-1), Fraction(3, 2)):
        c = circle_model(4)
        L = from_representation(c, {"a": t})
        assert cohomology_dims(L, 1) == circle_oracle(t)


def test_torus_dims_against_oracle(torus):
    for s, t in [(1, 1), (2, 1), (1, 2), (2, 3), (-1, 1), (1, 1)]:
        L = from_representation(torus, {"a": s, "b": t})
        assert cohomology_dims(L, 2) == torus_oracle(s, t)


def test_counterexample_has_no_twisted_cohomology(torus):
    L = from_representation(torus, {"a": 2, "b": 1})
    assert cohomology_dims(L, 2) == (0, 0, 0)


def test_untwisted_dims(torus, circle3, disk):
    assert cohomology_dims(trivial_system(circle3), 1) == (1, 1)
    assert cohomology_dims(trivial_system(torus), 2) == (1, 2, 1)
    assert cohomology_dims(trivial_system(disk), 2) == (1, 0, 0)


def test_rank_scales_euler_characteristic(torus, circle6, disk):
    rng = random.Random(7)
    for c in (torus, circle6, disk):
        chi = c.euler_characteristic()
        for rank in (1, 2):
            L = random_flat_system(rng, c, rank=rank)
            dims = cohomology_dims(L)
            alt = sum((-1) ** n * d for n, d in enumerate(dims))
            assert alt == rank * chi


def test_cohomology_rejects_bad_degree(torus):
    L = trivial_system(torus)
    with pytest.raises(DegreeError):
        cohomology(L, -1)
    # degrees above the dimension are empty, not an error
    assert cohomology(L, 3).dimension == 0


def test_cohomology_dims_refuse_a_negative_degree_and_pad_above_the_base(torus, monkeypatch):
    """A negative ``up_to`` is a degree error, as ``cohomology(L, -1)`` is
    (it used to give ()).  Above the base dimension there are no cochains,
    so no coboundary past d_2 is built and the dims are padded with zeros:
    ``up_to=200000`` used to build one empty coboundary per degree and took
    1.1 s."""
    module = importlib.import_module("algebroids.cohomology")
    L = trivial_system(torus)
    with pytest.raises(DegreeError):
        cohomology_dims(L, -1)
    built = []
    build = module.coboundary_matrix
    monkeypatch.setattr(module, "coboundary_matrix", lambda L, n: built.append(n) or build(L, n))
    assert cohomology_dims(L, 0) == (1,)
    assert cohomology_dims(L, 3) == (1, 2, 1, 0)
    assert built == [0, 0, 1, 2]
    start = time.perf_counter()
    dims = cohomology_dims(L, up_to=200000)
    assert time.perf_counter() - start < 0.1
    assert dims == (1, 2, 1) + (0,) * 199998
    assert built[4:] == [0, 1, 2]


def test_gauge_invariance_of_dims(torus):
    rng = random.Random(11)
    from conftest import random_gauge

    L = random_flat_system(rng, torus, rank=1)
    M = random_gauge(rng, L)
    assert cohomology_dims(L, 2) == cohomology_dims(M, 2)


def test_coordinates_of_accepts_only_cocycles(torus):
    L = trivial_system(torus)
    h1 = cohomology(L, 1)
    rng = random.Random(13)
    phi = random_cochain(rng, L, 0)
    d = coboundary(phi)
    assert h1.coordinates_of(d) == (Fraction(0), Fraction(0))
    assert h1.class_of(d).is_zero()
    bad = TwistedCochain(L, 1, {(0, 1): 1})
    with pytest.raises(NotClosedError):
        h1.coordinates_of(bad)


def test_class_arithmetic(torus):
    L = trivial_system(torus)
    h1 = untwisted_space(torus, 1)
    a = h1.class_of(named_loop_cocycle(torus, "a"))
    b = h1.class_of(named_loop_cocycle(torus, "b"))
    assert not a.is_zero()
    assert a != b
    assert (a + b).coordinates == (
        a.coordinates[0] + b.coordinates[0],
        a.coordinates[1] + b.coordinates[1],
    )
    assert a.scale(0).is_zero()
    assert a + b == b + a


def _loop_class(phi):
    """The canonical edge class of a closed untwisted rank-1 1-cochain."""
    return canonical_edge_class(phi.system.base, {e: v for e, (v,) in phi.values.items()})


def test_named_loop_cocycles_pair_with_loops(torus):
    alpha = named_loop_cocycle(torus, "a")
    beta = named_loop_cocycle(torus, "b")
    assert _loop_class(alpha).evaluate_loop(torus.named_loops["a"]) == 1
    assert _loop_class(alpha).evaluate_loop(torus.named_loops["b"]) == 0
    assert _loop_class(beta).evaluate_loop(torus.named_loops["b"]) == 1
    assert coboundary(alpha).is_zero()
    assert coboundary(beta).is_zero()


def test_induced_map_identity_and_composition(torus):
    L = trivial_system(torus)
    ident = identity_map(torus)
    assert induced_map(ident, L, 1).is_identity()
    f = torus_swap_map(torus)
    m_ff = induced_map(compose(f, f), L, 1)
    assert induced_map(f, L, 1).power(2) == m_ff
    assert m_ff.is_identity()


def test_induced_map_of_double_cover_multiplies_by_two(circle3, circle6):
    f = simplicial_map(circle6, circle3, [v % 3 for v in range(6)])
    L = trivial_system(circle3)
    assert induced_map(f, L, 1) == Matrix([[2]])


def test_induced_map_of_cover_on_torus(torus, torus36):
    f = torus_cover_map(torus36, torus)
    L = trivial_system(torus)
    m = induced_map(f, L, 1)
    # the degree 2 direction doubles, the other is preserved
    assert sorted(abs(m.entry(i, j)) for i in range(2) for j in range(2)) in (
        [0, 0, 1, 2],
        [0, 0, 2, 1],
    )
    assert m.rank() == 2


def test_induced_swap_exchanges_generators(torus):
    f = torus_swap_map(torus)
    h1 = untwisted_space(torus, 1)
    a = h1.class_of(named_loop_cocycle(torus, "a"))
    pulled_b = h1.class_of(pullback_cochain(f, named_loop_cocycle(torus, "b")))
    assert pulled_b == a


def test_pullback_cochain_is_chain_map(torus, circle6):
    rng = random.Random(17)
    link4, link0 = circle_in_torus_maps(circle6, torus)
    for f in (link4, link0):
        L = random_flat_system(rng, torus, rank=1)
        phi = random_cochain(rng, L, 0)
        psi = random_cochain(rng, L, 1)
        P = pullback_cochain(f, coboundary(phi))
        Q = coboundary(pullback_cochain(f, phi))
        assert P == Q
        assert coboundary(pullback_cochain(f, psi)) == pullback_cochain(
            f, coboundary(psi)
        )


def test_pullback_collapses_degenerate_simplices(torus, circle6):
    link4, _ = circle_in_torus_maps(circle6, torus)
    const = simplicial_map(circle6, torus, [4] * 6)
    L = trivial_system(torus)
    psi = TwistedCochain(L, 1, {e: 1 for e in torus.edges})
    assert pullback_cochain(const, psi).is_zero()


def test_cup_leibniz_randomized(torus):
    rng = random.Random(19)
    for _ in range(4):
        L = random_flat_system(rng, torus, rank=1)
        M = random_flat_system(rng, torus, rank=1)
        a0 = random_cochain(rng, L, 0)
        b1 = random_cochain(rng, M, 1)
        lhs = coboundary(cup(a0, b1))
        rhs = cup(coboundary(a0), b1) + cup(a0, coboundary(b1)).scale(1)
        assert lhs == rhs
        a1 = random_cochain(rng, L, 1)
        b0 = random_cochain(rng, M, 0)
        lhs = coboundary(cup(a1, b0))
        rhs = cup(coboundary(a1), b0) + cup(a1, coboundary(b0)).scale(-1)
        assert lhs == rhs


def test_cup_of_generators_pairs_with_fundamental_cycle(torus):
    alpha = named_loop_cocycle(torus, "a")
    beta = named_loop_cocycle(torus, "b")
    mu = fundamental_cycle(torus)
    ab = evaluate_on_chain(cup(alpha, beta), mu)
    ba = evaluate_on_chain(cup(beta, alpha), mu)
    assert abs(ab) == 1
    assert ba == -ab
    assert evaluate_on_chain(cup(alpha, alpha), mu) == 0


def test_cup_with_coboundary_is_coboundary(torus):
    rng = random.Random(23)
    L = trivial_system(torus)
    eta = random_cochain(rng, L, 0)
    alpha = named_loop_cocycle(torus, "a")
    h2 = untwisted_space(torus, 2)
    product = cup(coboundary(eta), alpha)
    assert h2.class_of(product).is_zero()
    assert untwisted_class(product) == h2.class_of(product)


def test_cup_power_reduces_to_iterated_cup(torus):
    L = from_representation(torus, {"a": 2, "b": 3})
    omega = zero_cochain(L, 2)
    assert cup_power(omega, 2).is_zero()
    rng = random.Random(29)
    psi = random_cochain(rng, L, 1)
    p2 = cup_power(psi, 2)
    assert p2.degree == 2
    assert p2.system == tensor_system(L, L)


@pytest.mark.parametrize("front", [0, 1, 2])
def test_cup_equals_the_product_along_the_front_face(front):
    """``cup`` carries beta's value back one edge at a time; the reference
    multiplies the step matrices along the front face first.  Both systems
    are gauged rank-2 ones, so every transport is a real matrix."""
    c = torus_grid(3, 3)
    rng = random.Random(70 + front)
    L1 = random_flat_system(rng, c, rank=2)
    L2 = random_flat_system(rng, c, rank=2)
    for back in range(c.dimension - front + 1):
        alpha = random_cochain(rng, L1, front)
        beta = random_cochain(rng, L2, back)
        product = cup(alpha, beta)
        for sigma in c.simplices_of_dim(front + back):
            path = sigma[: front + 1]
            carry = Matrix.identity(2)
            for u, w in zip(path, path[1:]):
                carry = carry * L2.step(u, w)
            b = carry.apply(beta.value(sigma[front:]))
            expected = tuple(x * y for x in alpha.value(path) for y in b)
            assert product.value(sigma) == expected


def _boundary_by_faces(c, n):
    """The simplicial boundary of n-chains, entry by entry: the sign of each
    face in each n-simplex."""
    src, dst = c.simplices_of_dim(n), c.simplices_of_dim(n - 1)
    row_of = {s: i for i, s in enumerate(dst)}
    rows = [[0] * len(src) for _ in dst]
    for j, sigma in enumerate(src):
        for i in range(n + 1):
            rows[row_of[sigma[:i] + sigma[i + 1 :]]][j] += (-1) ** i
    return Matrix(rows, cols=len(src))


def test_the_transposed_untwisted_coboundary_is_the_boundary(torus, tet, circle3):
    for c in (torus, tet, circle3):
        line = trivial_system(c, 1)
        for n in range(1, c.dimension + 1):
            assert coboundary_matrix(line, n - 1).transpose() == _boundary_by_faces(c, n)
        # above the top dimension: no n-chains, and then no (n-1)-chains
        top = coboundary_matrix(line, c.dimension).transpose()
        assert (top.rows, top.cols) == (len(c.simplices_of_dim(c.dimension)), 0)
        above = coboundary_matrix(line, c.dimension + 1).transpose()
        assert (above.rows, above.cols) == (0, 0)
        d_top = coboundary_matrix(trivial_system(c, 2), c.dimension)
        assert (d_top.rows, d_top.cols) == (0, 2 * len(c.simplices_of_dim(c.dimension)))


def test_degree_below_zero_is_a_degree_error(torus):
    with pytest.raises(DegreeError):
        coboundary_matrix(trivial_system(torus), -1)


def test_fundamental_cycle_is_unique_and_normalized(torus, disk):
    mu = fundamental_cycle(torus)
    m = coboundary_matrix(trivial_system(torus), 1)
    assert len(mu) == 18
    first = min(mu)
    assert mu[first] == 1
    with pytest.raises(InputError):
        fundamental_cycle(disk)


def test_fundamental_cocycle_pairs_to_one(torus):
    f = fundamental_cocycle(torus)
    mu = fundamental_cycle(torus)
    assert evaluate_on_chain(f, mu) == 1
    assert coboundary(f).is_zero()


def test_evaluate_loop_matches_edge_sum(torus):
    phi = EdgeClass(torus, {(0, 1): Fraction(1), (1, 2): Fraction(2), (0, 2): Fraction(4)})
    assert phi.evaluate_loop((0, 1, 2, 0)) == 1 + 2 - 4
    # open paths are fine too, traversal signs included
    assert phi.evaluate_loop((2, 1, 0)) == -2 - 1


def test_evaluate_loop_rejects_a_step_that_is_not_an_edge(torus):
    """Summing only the steps that are edges would give 2/3 and 0 here."""
    alpha = _loop_class(named_loop_cocycle(torus, "a"))
    for path, step in (((0, 7, 2, 0), (0, 7)), ((0, 5, 0), (0, 5))):
        with pytest.raises(InputError) as info:
            alpha.evaluate_loop(path)
        assert info.value.details == {"step": step}


def test_evaluate_on_chain_rejects_a_simplex_of_the_wrong_degree(torus):
    mu = fundamental_cocycle(torus)
    with pytest.raises(InputError, match=r"\(0, 1\) is not a 2-simplex"):
        evaluate_on_chain(mu, {(0, 1): 1})
    with pytest.raises(InputError):
        evaluate_on_chain(mu, {(0, 5, 7): 1})


def test_classes_add_only_classes_of_one_space():
    a, b = CohomologyClass(2, (1, 2)), CohomologyClass(2, (5,))
    with pytest.raises(InputError):
        a + b
    assert a.__add__(3) is NotImplemented
    with pytest.raises(TypeError):
        a + 3
    assert a + CohomologyClass(2, (5, 0)) == CohomologyClass(2, (6, 2))


def _h0_images(kind, names, rank):
    """Commuting generator images of one kind: trivial, unipotent, diagonal
    with some eigenvalues 1, or generic diagonal (no fixed vectors)."""
    one = Fraction(1)
    ident = Matrix.identity(rank)
    jordan = Matrix(
        [[one if j in (i, i + 1) else 0 for j in range(rank)] for i in range(rank)]
    )
    if kind == "trivial":
        pair = (ident, ident)
    elif kind == "unipotent":
        pair = (jordan, jordan.power(-2))
    elif kind == "diagonal":
        pair = (
            Matrix.diagonal([Fraction(2), one, one / 2][:rank]),
            Matrix.diagonal([Fraction(3), one, one / 3][:rank]),
        )
    else:
        pair = (Matrix.diagonal([2, 3, 5][:rank]), Matrix.diagonal([7, 11, 13][:rank]))
    return dict(zip(names, pair))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_h0_stops_eliminating_once_only_zero_is_fixed(monkeypatch, rank):
    """Every holonomy of a generic diagonal system has an invertible h - I,
    so the rows of the first block already have rank R: H^0 is 0 after R
    additions, whatever the number of distinct blocks, and no section is
    built.  A unipotent system fixes a line, and finds it."""
    added = []
    add = _RowSpace.add
    fiber = importlib.import_module("algebroids.cohomology")._flat_sections.__code__

    def counted_add(space, v):
        # frames are inverted through the same kernel: count only the rows
        # that the fiber's own echelon takes
        if sys._getframe(1).f_code is fiber:
            added.append(v)
        return add(space, v)

    monkeypatch.setattr(_RowSpace, "add", counted_add)
    c = torus_grid(4, 4)
    images = {kind: _h0_images(kind, sorted(c.named_loops), rank)
              for kind in ("generic", "unipotent")}
    L = random_gauge(random.Random(f"stop:{rank}"), from_representation(c, images["generic"]))
    added.clear()
    assert cohomology(L, 0).dimension == 0
    assert len(added) == rank
    assert cohomology(from_representation(c, images["unipotent"]), 0).dimension == 1


@pytest.mark.parametrize("model", ["torus", "torus4x4", "circle3"])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_fiber_h0_matches_kernel_of_d0(model, rank):
    """H^0 read off the fiber equals the free-column kernel of d_0, entry for
    entry, on gauge-transformed systems, their duals and Sym^2 duals."""
    c = {"torus": torus_grid(3, 3), "torus4x4": torus_grid(4, 4),
         "circle3": circle_model(3)}[model]
    rng = random.Random(f"fiber-h0:{model}:{rank}")
    dims = set()
    for kind in ("trivial", "unipotent", "diagonal", "generic"):
        L = from_representation(c, _h0_images(kind, sorted(c.named_loops), rank))
        L = random_gauge(rng, L)
        for S in (L, dual(L), sym_power(dual(L), 2)):
            expected = dense_quotient_basis(kernel_basis(coboundary_matrix(S, 0)), [])
            space = cohomology(S, 0)
            assert [phi.vector() for phi in space.representatives] == expected, kind
            dims.add(space.dimension)
    assert 0 in dims and max(dims) > 0


# two_spheres is simply connected, so only gauges of the trivial system
# live on it, and its top degree has a two-dimensional H^2
DIFFERENTIAL_BASES = {
    "torus": torus_grid(3, 3), "torus4x4": torus_grid(4, 4), "circle5": circle_model(5),
    "two_spheres": two_spheres(),
}
WITH_LOOPS = sorted(m for m, c in DIFFERENTIAL_BASES.items() if c.named_loops)


def _gauged_systems(model, rank):
    """Seeded gauge transforms of tree-gauge systems of every kind; rank 3,
    the dearest, keeps one kind with cohomology and one without."""
    c = DIFFERENTIAL_BASES[model]
    rng = random.Random(f"gauged:{model}:{rank}")
    if not c.named_loops:
        kinds = ("trivial",)
    elif rank == 3:
        kinds = ("unipotent", "generic")
    else:
        kinds = ("trivial", "unipotent", "diagonal", "generic")
    for kind in kinds:
        L = from_representation(c, _h0_images(kind, sorted(c.named_loops), rank), rank=rank)
        yield kind, random_gauge(rng, L)


def _solve_coordinates(space, image_columns, phi):
    """The coordinates as one solve of [representatives | image] x = phi, the
    way they were computed before the space kept the echelon image; None
    when phi is not in the span."""
    columns = [phi.vector() for phi in space.representatives] + image_columns
    vec = phi.vector()
    if columns:
        m = Matrix(list(zip(*columns)), cols=len(columns))
    else:
        m = Matrix([()] * len(vec), cols=0)
    coeffs = solve(m, vec)
    return None if coeffs is None else coeffs[: space.dimension]


@pytest.mark.parametrize("model", sorted(DIFFERENTIAL_BASES))
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_coordinates_of_matches_one_solve_against_reps_and_image(model, rank):
    """The representatives and coordinates read off the kept echelon image
    are the ones ``dense_quotient_basis`` chooses and a full solve of [reps |
    image] gives, on random cocycles of every degree."""
    rng = random.Random(f"coordinates:{model}:{rank}")
    dims = set()
    for kind, L in _gauged_systems(model, rank):
        for n in range(L.base.dimension + 1):
            space = cohomology(L, n)
            image = image_columns(L, n)
            if n > 0:
                z = kernel_basis(coboundary_matrix(L, n))
                reps = [phi.vector() for phi in space.representatives]
                assert reps == dense_quotient_basis(z, image), (kind, n)
            if model == "two_spheres":
                assert space.dimension == (rank, 0, 2 * rank)[n]
            dims.add(space.dimension)
            for _ in range(2):
                phi = zero_cochain(L, n)
                for rep in space.representatives:
                    phi = phi + rep.scale(rand_fraction(rng))
                if n > 0:
                    phi = phi + coboundary(random_cochain(rng, L, n - 1))
                expected = _solve_coordinates(space, image, phi)
                assert expected is not None
                assert space.coordinates_of(phi) == expected, (kind, n)
    assert 0 in dims and max(dims) > 0


@pytest.mark.parametrize("model", WITH_LOOPS)
def test_coordinates_of_still_rejects_what_the_kernel_does_not_span(model):
    """A space built on too small a kernel basis refuses a cocycle outside
    it, as the full solve does; a kernel basis that misses part of the image
    fails the inclusion check."""
    c = DIFFERENTIAL_BASES[model]
    L = random_gauge(random.Random(f"not-a-subspace:{model}"), trivial_system(c, 2))
    image = image_columns(L, 1)
    boundaries = dense_quotient_basis(image, [])
    space = CohomologySpace(L, 1, boundaries, image)
    assert space.dimension == 0
    loop = cohomology(L, 1).representatives[0]
    assert _solve_coordinates(space, image, loop) is None
    with pytest.raises(NotASubspaceError):
        space.coordinates_of(loop)
    assert space.coordinates_of(coboundary(random_cochain(random.Random(1), L, 0))) == ()
    with pytest.raises(NotASubspaceError):
        CohomologySpace(L, 1, boundaries[1:], image)


@pytest.mark.parametrize("model", sorted(DIFFERENTIAL_BASES))
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_flat_section_test_matches_the_coboundary(model, rank):
    """T(i, j) phi(j) == phi(i) on every edge decides flatness exactly as
    d phi == 0 does, on flat sections, their combinations, random sections
    and flat sections changed at one vertex."""
    rng = random.Random(f"flat-section:{model}:{rank}")
    seen = set()
    for kind, L in _gauged_systems(model, rank):
        for S in (L, dual(L), sym_power(dual(L), 2)):
            flat = cohomology(S, 0).representatives
            sections = list(flat) + [zero_cochain(S, 0), random_cochain(rng, S, 0)]
            if flat:
                combo = zero_cochain(S, 0)
                for phi in flat:
                    combo = combo + phi.scale(rand_fraction(rng, nonzero=True))
                bumped = dict(combo.values)
                v = (rng.randrange(S.base.vertex_count),)
                bumped[v] = tuple(x + 1 for x in bumped[v])
                sections += [combo, TwistedCochain(S, 0, bumped)]
            for phi in sections:
                flat_by_edges = is_flat_section(phi)
                assert flat_by_edges == coboundary(phi).is_zero(), kind
                seen.add(flat_by_edges)
        flat = cohomology(L, 0).representatives
        if flat:
            # a flat section of L fails on a copy of L broken at one edge
            # exactly there
            for edge in L.base.edges:
                broken = L.with_edge(edge, L.matrix(*edge).scale(2))
                phi = TwistedCochain(broken, 0, flat[0].values)
                assert not is_flat_section(phi)
                assert not coboundary(phi).is_zero()
    assert seen == {True, False}
    with pytest.raises(DegreeError):
        is_flat_section(zero_cochain(L, 1))


def _json_copy(c):
    """A complex read back from its JSON document: never shared, so it
    keeps nothing until a test asks it for a space."""
    return complex_from_json(json.loads(dump_json(complex_to_json(c))))


KEPT_BASES = ["builtin:circle5"] + [
    f"builtin:torus{r}x{c}" for r, c in itertools.product(range(3, 7), repeat=2)
] + ["json:two_spheres"]


@pytest.mark.parametrize("spec", KEPT_BASES)
def test_a_kept_untwisted_space_matches_a_fresh_build(spec):
    """A space wrapped around the data its complex keeps has the dimension,
    the representatives and the coordinates of a space built afresh, and
    still refuses a cochain that is not closed."""
    c = _json_copy(two_spheres()) if spec == "json:two_spheres" else resolve_complex_spec(spec)
    rng = random.Random(f"kept:{spec}")
    for n in range(3):
        untwisted_space(c, n)
        assert n in c._untwisted_spaces
        kept = untwisted_space(c, n)
        fresh = cohomology(trivial_system(c, 1), n)
        assert kept.system is not fresh.system and kept.system == fresh.system
        assert kept.dimension == fresh.dimension
        assert kept._tails == fresh._tails
        assert ([phi.vector() for phi in kept.representatives]
                == [phi.vector() for phi in fresh.representatives])
        if n == 0:
            assert all(phi._flat for phi in kept.representatives)
        L = fresh.system
        for _ in range(3):
            phi = zero_cochain(L, n)
            for rep in fresh.representatives:
                phi = phi + rep.scale(rand_fraction(rng))
            if n > 0:
                phi = phi + coboundary(random_cochain(rng, L, n - 1))
            assert kept.coordinates_of(phi) == fresh.coordinates_of(phi)
        if c.simplices_of_dim(n + 1):
            phi = random_cochain(rng, L, n)
            assert not coboundary(phi).is_zero()
            for space in (kept, fresh):
                with pytest.raises(NotClosedError):
                    space.coordinates_of(phi)


def test_a_kept_untwisted_space_keeps_the_subspace_checks(monkeypatch):
    """The first build checks B^n inside Z^n and keeps nothing when the
    check fails; a space kept on too small a kernel still refuses, when
    wrapped again, a cocycle outside it."""
    module = importlib.import_module("algebroids.cohomology")
    c = _json_copy(torus_grid(3, 3))
    L = trivial_system(c, 1)
    image = image_columns(L, 1)
    boundaries = dense_quotient_basis(image, [])
    monkeypatch.setattr(module, "_kernel_tails", lambda rows, cols: _span_tails(boundaries[1:]))
    with pytest.raises(NotASubspaceError):
        untwisted_space(c, 1)
    assert 1 not in c._untwisted_spaces
    monkeypatch.setattr(module, "_kernel_tails", lambda rows, cols: _span_tails(boundaries))
    assert untwisted_space(c, 1).dimension == 0
    monkeypatch.undo()
    loop = cohomology(L, 1).representatives[0]
    kept = untwisted_space(c, 1)
    assert kept.dimension == 0
    with pytest.raises(NotASubspaceError):
        kept.coordinates_of(loop)
