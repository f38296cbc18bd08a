import importlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from algebroids import (
    CohomologyClass,
    DegreeError,
    DomainMismatchError,
    InputError,
    Matrix,
    NotASubspaceError,
    NotClosedError,
    NotFlatError,
    TwistedCochain,
    boundary_matrix,
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
    evaluate_on_loop,
    from_representation,
    fundamental_cycle,
    fundamental_cocycle,
    gauge_transform,
    identity_map,
    induced_map,
    kernel_basis,
    named_loop_cocycle,
    pair_flat,
    pullback_cochain,
    quotient_basis,
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
from algebroids.cohomology import CohomologySpace, is_flat_section
from algebroids.jsonio import complex_from_json, complex_to_json, dump_json, resolve_complex_spec

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
    back = TwistedCochain.from_vector(L, 1, phi.vector())
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
                assert m.apply(phi.vector()) == coboundary(phi).vector()


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
    assert h1.is_coboundary(d)
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


def test_named_loop_cocycles_pair_with_loops(torus):
    alpha = named_loop_cocycle(torus, "a")
    beta = named_loop_cocycle(torus, "b")
    assert evaluate_on_loop(alpha, torus.named_loops["a"]) == 1
    assert evaluate_on_loop(alpha, torus.named_loops["b"]) == 0
    assert evaluate_on_loop(beta, torus.named_loops["b"]) == 1
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
    assert h2.is_coboundary(cup(coboundary(eta), alpha))


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


def test_boundary_matrix_is_the_transposed_untwisted_coboundary(torus, tet, circle3):
    for c in (torus, tet, circle3):
        for n in range(1, c.dimension + 1):
            assert boundary_matrix(c, n) == _boundary_by_faces(c, n)
        # above the top dimension: no n-chains, and then no (n-1)-chains
        top = boundary_matrix(c, c.dimension + 1)
        assert (top.rows, top.cols) == (len(c.simplices_of_dim(c.dimension)), 0)
        above = boundary_matrix(c, c.dimension + 2)
        assert (above.rows, above.cols) == (0, 0)
        d_top = coboundary_matrix(trivial_system(c, 2), c.dimension)
        assert (d_top.rows, d_top.cols) == (0, 2 * len(c.simplices_of_dim(c.dimension)))


def test_degree_below_zero_is_a_degree_error(torus):
    with pytest.raises(DegreeError):
        boundary_matrix(torus, 0)
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


def test_pair_flat_with_trivial_section(torus):
    L = from_representation(torus, {"a": 2, "b": 3})
    D = dual(L)
    # a flat section of the dual exists only when the system is trivial
    T = trivial_system(torus)
    phi = TwistedCochain(T, 0, {(v,): 1 for v in range(9)})
    omega = TwistedCochain(T, 2, {torus.triangles[0]: 1})
    paired = pair_flat(phi, omega)
    assert paired.system == T
    assert paired == omega
    with pytest.raises(InputError):
        pair_flat(phi, TwistedCochain(L, 2, {}))


def test_pair_flat_requires_flat_section(torus):
    T = trivial_system(torus)
    rng = random.Random(31)
    phi = random_cochain(rng, T, 0)
    if coboundary(phi).is_zero():
        phi = phi + TwistedCochain(T, 0, {(0,): 1})
    omega = TwistedCochain(T, 2, {torus.triangles[0]: 1})
    with pytest.raises(NotFlatError):
        pair_flat(phi, omega)


def test_pair_flat_sends_coboundaries_to_coboundaries(torus):
    T = trivial_system(torus)
    phi = TwistedCochain(T, 0, {(v,): 2 for v in range(9)})
    rng = random.Random(37)
    eta = random_cochain(rng, T, 1)
    paired = pair_flat(phi, coboundary(eta))
    assert untwisted_class(paired).is_zero()


def test_evaluate_on_loop_matches_edge_sum(torus):
    L = trivial_system(torus)
    phi = TwistedCochain(L, 1, {(0, 1): 1, (1, 2): 2, (0, 2): 4})
    assert evaluate_on_loop(phi, (0, 1, 2, 0)) == 1 + 2 - 4
    # open paths are fine too, traversal signs included
    assert evaluate_on_loop(phi, (2, 1, 0)) == -2 - 1


def test_evaluate_on_loop_rejects_a_step_that_is_not_an_edge(torus):
    """Summing only the steps that are edges would give 2/3 and 0 here."""
    alpha = named_loop_cocycle(torus, "a")
    for path, step in (((0, 7, 2, 0), (0, 7)), ((0, 5, 0), (0, 5))):
        with pytest.raises(InputError) as info:
            evaluate_on_loop(alpha, path)
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
            expected = quotient_basis(kernel_basis(coboundary_matrix(S, 0)), [])
            space = cohomology(S, 0)
            assert space._rep_vectors == expected, kind
            assert [phi.vector() for phi in space.representatives] == expected
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
    columns = list(space._rep_vectors) + image_columns
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
    are the ones ``quotient_basis`` chooses and a full solve of [reps |
    image] gives, on random cocycles of every degree."""
    rng = random.Random(f"coordinates:{model}:{rank}")
    dims = set()
    for kind, L in _gauged_systems(model, rank):
        for n in range(L.base.dimension + 1):
            space = cohomology(L, n)
            image = image_columns(L, n)
            if n > 0:
                z = kernel_basis(coboundary_matrix(L, n))
                assert space._rep_vectors == quotient_basis(z, image), (kind, n)
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
    boundaries = quotient_basis(image, [])
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
        assert kept._rep_vectors == fresh._rep_vectors
        assert [phi.vector() for phi in kept.representatives] == fresh._rep_vectors
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
    boundaries = quotient_basis(image, [])
    monkeypatch.setattr(module, "kernel_basis", lambda m: boundaries[1:])
    with pytest.raises(NotASubspaceError):
        untwisted_space(c, 1)
    assert 1 not in c._untwisted_spaces
    monkeypatch.setattr(module, "kernel_basis", lambda m: boundaries)
    assert untwisted_space(c, 1).dimension == 0
    monkeypatch.undo()
    loop = cohomology(L, 1).representatives[0]
    kept = untwisted_space(c, 1)
    assert kept.dimension == 0
    with pytest.raises(NotASubspaceError):
        kept.coordinates_of(loop)
