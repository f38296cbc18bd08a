import random
from fractions import Fraction

import pytest

from algebroids import (
    CohomologyClass,
    DegreeError,
    InputError,
    Matrix,
    NotClosedError,
    NotFlatError,
    TwistedCochain,
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
    named_loop_cocycle,
    pair_flat,
    pullback_cochain,
    simplicial_map,
    tensor_system,
    trivial_system,
    untwisted_class,
    untwisted_space,
    zero_cochain,
)

from conftest import (
    circle_in_torus_maps,
    rand_fraction,
    rand_invertible_matrix,
    random_cochain,
    random_flat_system,
    torus_cover_map,
    torus_swap_map,
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
