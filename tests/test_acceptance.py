"""Acceptance gate: one test per shipped guarantee, one printed verdict line
per criterion.  Everything here is exact arithmetic; no tolerances."""

import itertools
import random
from fractions import Fraction

from algebroids import (
    Matrix,
    NotClosedError,
    NotFlatError,
    TwistedCochain,
    canonical_edge_class,
    chern_weil,
    chern_weil_image,
    change_splitting,
    circle_model,
    coboundary,
    cohomology_dims,
    compose,
    constant_map,
    contiguous,
    cup,
    dual,
    evaluate_on_chain,
    from_representation,
    fundamental_cocycle,
    fundamental_cycle,
    induced_map,
    invariant_sections,
    iso_rank1,
    log_classes,
    make_algebroid,
    named_loop_cocycle,
    pullback_algebroid,
    pullback_cochain,
    pullback_system,
    simplicial_map,
    surjectivity_check,
    sym_power,
    tensor_power,
    trivial_system,
    untwisted_space,
    zero_cochain,
)

from conftest import (
    circle_in_torus_maps,
    rand_fraction,
    random_cochain,
    random_flat_system,
    random_gauge,
    torus_cover_map,
    torus_shift_map,
    torus_swap_map,
)


def _report(capsys, number, label, ok):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {number} ({label}): {verdict}")


def test_criterion_1_torus_counterexample(capsys, torus):
    ok = False
    try:
        L = from_representation(torus, {"a": 2, "b": 1})
        A0 = make_algebroid(L, zero_cochain(L, 2))
        # no invariant sections in degree one, so the image is {0} for every
        # curvature; sampled curvatures below make that concrete
        assert invariant_sections(A0, 1).dimension == 0
        rng = random.Random(101)
        omegas = [zero_cochain(L, 2), TwistedCochain(L, 2, {torus.triangles[0]: 1})]
        omegas += [random_cochain(rng, L, 2) for _ in range(5)]
        for omega in omegas:
            A = make_algebroid(L, omega)
            image = chern_weil_image(A)
            assert set(image) == {1}
            assert image[1] == []
        logs = log_classes(L)
        assert logs
        assert sorted(logs) == [2]
        assert not logs[2].is_zero()
        ok = True
    finally:
        _report(capsys, 1, "torus counterexample", ok)


def test_criterion_2_certified_surjectivity(capsys, torus):
    ok = False
    try:
        L = from_representation(torus, {"a": 2, "b": 3})
        surjective, certificate = surjectivity_check(L)
        assert surjective is True
        classes = log_classes(L)
        coords = {p: cls.coordinates() for p, cls in classes.items()}
        by_target = {cert.target: cert for cert in certificate}
        assert set(by_target) == {"a_dual", "b_dual", "fundamental"}
        # re-verify the degree-1 certificates coefficient by coefficient
        for name in ("a", "b"):
            cert = by_target[f"{name}_dual"]
            target = canonical_edge_class(torus, dict(torus.loop_cocycles[name]))
            n = len(torus.tree.non_tree_edges)
            combo = [Fraction(0)] * n
            for (p,), coeff in cert.terms:
                for i, x in enumerate(coords[p]):
                    combo[i] += coeff * x
            assert tuple(combo) == target.coordinates()
        # re-verify the degree-2 certificate against the fundamental class
        cert = by_target["fundamental"]
        h2 = untwisted_space(torus, 2)
        target = h2.class_of(fundamental_cocycle(torus))
        ((pair, coeff),) = cert.terms
        p, q = pair
        product = cup(classes[p].to_cochain(), classes[q].to_cochain())
        assert h2.class_of(product.scale(coeff)) == target
        # dependent or trivial holonomies must fail
        assert surjectivity_check(from_representation(torus, {"a": 2, "b": 2}))[0] is False
        assert surjectivity_check(from_representation(torus, {"a": 1, "b": 1}))[0] is False
        ok = True
    finally:
        _report(capsys, 2, "certified surjectivity", ok)


def test_criterion_3_oracle_equivalence(capsys, torus):
    ok = False
    try:
        def circle_oracle(t):
            fixed = 1 if t == 1 else 0
            return (fixed, fixed)

        combos = 0
        circle = circle_model(4)
        for t in (Fraction(1), Fraction(2), Fraction(-1), Fraction(3, 2)):
            L = from_representation(circle, {"a": t})
            assert cohomology_dims(L, 1) == circle_oracle(t)
            combos += 1
        for s, t in [
            (Fraction(1), Fraction(1)),
            (Fraction(2), Fraction(1)),
            (Fraction(1), Fraction(-1)),
            (Fraction(2), Fraction(3)),
            (Fraction(3, 2), Fraction(1)),
            (Fraction(-1), Fraction(-1)),
            (Fraction(1), Fraction(3, 2)),
            (Fraction(5), Fraction(5)),
        ]:
            L = from_representation(torus, {"a": s, "b": t})
            p = circle_oracle(s)[0]
            q = circle_oracle(t)[0]
            assert cohomology_dims(L, 2) == (p * q, 2 * p * q, p * q)
            combos += 1
        assert combos >= 8
        ok = True
    finally:
        _report(capsys, 3, "twisted dims match oracles", ok)


def test_criterion_4_structural_invariants(capsys, torus, circle6, disk):
    ok = False
    try:
        rng = random.Random(11)
        cases = 0
        for c in (torus, circle6, disk):
            for i in range(18):
                rank = 2 if i % 9 == 0 else 1
                L = random_flat_system(rng, c, rank=rank)
                phi = random_cochain(rng, L, 0)
                assert coboundary(coboundary(phi)).is_zero()
                if c.dimension >= 2:
                    psi = random_cochain(rng, L, 1)
                    assert coboundary(coboundary(psi)).is_zero()
                dims = cohomology_dims(L)
                alt = sum((-1) ** n * d for n, d in enumerate(dims))
                assert alt == L.rank * c.euler_characteristic()
                assert cohomology_dims(random_gauge(rng, L)) == dims
                M = random_flat_system(rng, c, rank=1)
                a0 = random_cochain(rng, L, 0)
                b1 = random_cochain(rng, M, 1)
                assert coboundary(cup(a0, b1)) == cup(coboundary(a0), b1) + cup(
                    a0, coboundary(b1)
                )
                if c.dimension >= 2:
                    a1 = random_cochain(rng, L, 1)
                    b0 = random_cochain(rng, M, 0)
                    assert coboundary(cup(a1, b0)) == cup(
                        coboundary(a1), b0
                    ) + cup(a1, coboundary(b0)).scale(-1)
                cases += 1
        assert cases >= 50
        ok = True
    finally:
        _report(capsys, 4, "structural invariants", ok)


def test_criterion_5_contiguity_invariance(capsys, torus, circle6, disk):
    ok = False
    try:
        link4, link0 = circle_in_torus_maps(circle6, torus)
        disk_incl = simplicial_map(disk, torus, [0, 1, 4])
        pairs = [
            (link4, constant_map(circle6, torus, 4)),
            (link0, constant_map(circle6, torus, 0)),
            (constant_map(circle6, torus, 0), constant_map(circle6, torus, 1)),
            (disk_incl, constant_map(disk, torus, 0)),
        ]
        for f, g in pairs:
            assert contiguous(f, g)
        rng = random.Random(13)
        checked = 0
        for i in range(10):
            L = random_flat_system(rng, torus, rank=1)
            omega = random_cochain(rng, L, 2)
            A = make_algebroid(L, omega)
            f, g = pairs[i % len(pairs)]
            pf = pullback_system(f, L)
            pg = pullback_system(g, L)
            assert iso_rank1(pf, pg)
            Af = pullback_algebroid(f, A)
            Ag = pullback_algebroid(g, A)
            for k in (0, 1):
                sf = invariant_sections(Af, k)
                sg = invariant_sections(Ag, k)
                assert sf.dimension == sg.dimension
                classes_f = sorted(
                    chern_weil(Af, phi, k).coordinates for phi in sf.representatives
                )
                classes_g = sorted(
                    chern_weil(Ag, phi, k).coordinates for phi in sg.representatives
                )
                assert classes_f == classes_g
            checked += 1
        assert checked >= 10
        ok = True
    finally:
        _report(capsys, 5, "contiguity invariance", ok)


def test_criterion_6_splitting_independence(capsys, torus):
    ok = False
    try:
        rng = random.Random(17)
        compared = 0
        for i in range(20):
            if i % 2 == 0:
                L = random_gauge(rng, trivial_system(torus, 1))
            else:
                L = random_flat_system(rng, torus, rank=1)
            omega = random_cochain(rng, L, 2)
            A = make_algebroid(L, omega)
            eta = random_cochain(rng, L, 1)
            B = change_splitting(A, eta)
            for k in (1, 2):
                basis = invariant_sections(A, k).representatives
                for phi in basis:
                    assert chern_weil(A, phi, k) == chern_weil(B, phi, k)
            compared += 1
        assert compared >= 20
        ok = True
    finally:
        _report(capsys, 6, "splitting independence", ok)


def test_criterion_7_functoriality(capsys, torus, circle6):
    ok = False
    try:
        link4, _ = circle_in_torus_maps(circle6, torus)
        g = torus_swap_map(torus)
        h = torus_shift_map(torus, 1, 2)
        L = trivial_system(torus)
        # contravariant composition on a composable triple, in degree 1
        m_f = induced_map(link4, L, 1)
        m_g = induced_map(g, pullback_system(g, L), 1)
        m_h = induced_map(h, pullback_system(compose(h, g), L), 1)
        triple = compose(h, compose(g, link4))
        assert induced_map(triple, L, 1) == m_f * m_g * m_h
        rng = random.Random(19)
        maps = [g, h, torus_shift_map(torus, 2, 1), torus_swap_map(torus)]
        cases = 0
        for i in range(10):
            adjoint = trivial_system(torus, 1)
            omega = random_cochain(rng, adjoint, 2)
            A = make_algebroid(adjoint, omega)
            f = maps[i % len(maps)]
            B = pullback_algebroid(f, A)
            phi = TwistedCochain(
                sym_power(dual(adjoint), 1),
                0,
                {(v,): rand_fraction(rng, nonzero=True) for v in range(9)},
            )
            flat_value = phi.value((0,))
            phi = TwistedCochain(
                phi.system, 0, {(v,): flat_value for v in range(9)}
            )
            pulled = TwistedCochain(
                sym_power(dual(B.adjoint), 1),
                0,
                pullback_cochain(f, phi).values,
            )
            target_cls = chern_weil(A, phi, 1)
            source_cls = chern_weil(B, pulled, 1)
            m2 = induced_map(f, trivial_system(torus), 2)
            assert source_cls.coordinates == m2.apply(target_cls.coordinates)
            cases += 1
        assert cases >= 10
        ok = True
    finally:
        _report(capsys, 7, "functoriality", ok)


def test_criterion_8_extension_criterion(capsys, torus, circle6, disk, tet):
    ok = False
    try:
        rng = random.Random(23)
        accepted = rejected = 0
        for i in range(30):
            c = (torus, disk, tet)[i % 3]
            L = random_flat_system(rng, c, rank=1)
            if c is tet:
                omega = coboundary(random_cochain(rng, L, 1))
            else:
                omega = random_cochain(rng, L, 2)
            A = make_algebroid(L, omega)
            assert A.adjoint == L
            accepted += 1
        for i in range(20):
            c = (torus, disk, tet)[i % 3]
            L = random_flat_system(rng, c, rank=1)
            edge = c.edges[rng.randrange(len(c.edges))]
            scale = L.transport[edge].scale(2)
            broken = L.with_edge(edge, scale)
            incident = [
                t
                for t in c.triangles
                if edge in [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]
            ]
            try:
                make_algebroid(broken, zero_cochain(broken, 2))
                assert False, "non-flat input must be rejected"
            except NotFlatError as exc:
                assert exc.details["triangles"] == incident
            rejected += 1
        for _ in range(5):
            L = random_flat_system(rng, tet, rank=1)
            planted = random_cochain(rng, L, 2)
            if coboundary(planted).is_zero():
                planted = planted + TwistedCochain(L, 2, {tet.triangles[0]: 1})
            try:
                make_algebroid(L, planted)
                assert False, "non-closed omega must be rejected"
            except NotClosedError as exc:
                assert exc.details["simplices"] == [(0, 1, 2, 3)]
            rejected += 1
        assert accepted + rejected >= 50
        ok = True
    finally:
        _report(capsys, 8, "extension criterion", ok)


def test_criterion_9_classical_sanity(capsys, torus, circle3):
    ok = False
    try:
        assert cohomology_dims(trivial_system(circle3), 1) == (1, 1)
        assert cohomology_dims(trivial_system(torus), 2) == (1, 2, 1)
        alpha = named_loop_cocycle(torus, "a")
        beta = named_loop_cocycle(torus, "b")
        mu = fundamental_cycle(torus)
        assert abs(evaluate_on_chain(cup(alpha, beta), mu)) == 1
        ok = True
    finally:
        _report(capsys, 9, "classical sanity", ok)
