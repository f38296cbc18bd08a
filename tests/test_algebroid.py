import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from algebroids import (
    InputError,
    Matrix,
    NotClosedError,
    NotFlatError,
    NotInvariantError,
    TwistedCochain,
    UnsupportedRankError,
    chern_weil,
    chern_weil_image,
    change_splitting,
    coboundary,
    compose,
    cup_power,
    dual,
    from_representation,
    fundamental_cocycle,
    gauge_transform,
    identity_map,
    induced_map,
    invariant_sections,
    make_algebroid,
    pullback_algebroid,
    pullback_cochain,
    sym_power,
    tensor_power,
    torus_grid,
    trivial_algebroid,
    trivial_system,
    untwisted_class,
    untwisted_space,
    validate_complex,
    zero_cochain,
)
from algebroids import cli, local_systems
from algebroids.cohomology import is_flat_section

from conftest import (
    rand_fraction,
    rand_invertible_matrix,
    rand_invertible_scalar,
    random_cochain,
    random_flat_system,
    random_gauge,
    torus_swap_map,
    torus_shift_map,
)


def test_trivial_algebroid(torus):
    A = trivial_algebroid(torus, 2)
    assert A.adjoint.rank == 2
    assert A.omega.is_zero()
    assert A.base is torus
    with pytest.raises(UnsupportedRankError):
        trivial_algebroid(torus, 0)


def test_make_algebroid_accepts_valid_input(torus):
    L = from_representation(torus, {"a": 2, "b": 3})
    omega = zero_cochain(L, 2)
    A = make_algebroid(L, omega)
    assert A.adjoint == L


def test_make_algebroid_reports_flatness_violations(torus):
    L = from_representation(torus, {"a": 2, "b": 1}).with_edge((1, 2), [[7]])
    with pytest.raises(NotFlatError) as info:
        make_algebroid(L, zero_cochain(L, 2))
    reported = info.value.details["triangles"]
    expected = [
        t
        for t in torus.triangles
        if (1, 2) in [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]
    ]
    assert reported == expected


def test_make_algebroid_reports_closedness_violations(tet):
    L = trivial_system(tet)
    omega = TwistedCochain(L, 2, {(0, 1, 2): 1})
    with pytest.raises(NotClosedError) as info:
        make_algebroid(L, omega)
    assert info.value.details["simplices"] == [(0, 1, 2, 3)]
    closed = TwistedCochain(L, 2, {t: 1 for t in tet.triangles})
    assert make_algebroid(L, closed).omega == closed


def test_make_algebroid_checks_omega_shape(torus):
    L = from_representation(torus, {"a": 2, "b": 3})
    with pytest.raises(InputError):
        make_algebroid(L, zero_cochain(L, 1))
    other = trivial_system(torus, 2)
    with pytest.raises(InputError):
        make_algebroid(L, zero_cochain(other, 2))


def test_invariant_sections_of_twisted_adjoint_vanish(torus):
    L = from_representation(torus, {"a": 2, "b": 1})
    A = make_algebroid(L, zero_cochain(L, 2))
    assert invariant_sections(A, 1).dimension == 0
    assert invariant_sections(A, 0).dimension == 1


def test_invariant_sections_even_powers_survive_sign_holonomy(torus):
    L = from_representation(torus, {"a": -1, "b": 1})
    A = make_algebroid(L, zero_cochain(L, 2))
    assert invariant_sections(A, 1).dimension == 0
    assert invariant_sections(A, 2).dimension == 1


def test_invariant_sections_of_trivial_adjoint(torus):
    A = trivial_algebroid(torus, 1)
    assert invariant_sections(A, 1).dimension == 1
    assert invariant_sections(A, 2).dimension == 1
    B = trivial_algebroid(torus, 2)
    # sym^k of a trivial rank-2 dual is trivial of rank k + 1
    assert invariant_sections(B, 1).dimension == 2
    assert invariant_sections(B, 2).dimension == 3


def test_chern_weil_of_fundamental_curvature(torus):
    adjoint = trivial_system(torus, 1)
    omega = fundamental_cocycle(torus)
    A = make_algebroid(adjoint, omega)
    phi = TwistedCochain(sym_power(dual(adjoint), 1), 0, {(v,): 3 for v in range(9)})
    cls = chern_weil(A, phi, 1)
    h2 = untwisted_space(torus, 2)
    assert cls == h2.class_of(omega).scale(3)
    assert not cls.is_zero()


def test_chern_weil_degree_zero_is_class_of_section(torus):
    A = trivial_algebroid(torus, 1)
    phi = TwistedCochain(
        sym_power(dual(A.adjoint), 0), 0, {(v,): 5 for v in range(9)}
    )
    cls = chern_weil(A, phi, 0)
    assert cls.degree == 0
    assert cls.coordinates == (Fraction(5),)


def test_chern_weil_rejects_wrong_section(torus):
    A = trivial_algebroid(torus, 1)
    rng = random.Random(3)
    bumpy = random_cochain(rng, sym_power(dual(A.adjoint), 1), 0)
    if coboundary(bumpy).is_zero():
        bumpy = bumpy + TwistedCochain(bumpy.system, 0, {(0,): 1})
    with pytest.raises(NotInvariantError):
        chern_weil(A, bumpy, 1)
    wrong_degree = zero_cochain(sym_power(dual(A.adjoint), 1), 1)
    with pytest.raises(NotInvariantError):
        chern_weil(A, wrong_degree, 1)


def test_chern_weil_image_of_twisted_counterexample_is_zero(torus):
    L = from_representation(torus, {"a": 2, "b": 1})
    for omega_values in ({}, {torus.triangles[0]: 1}):
        omega = TwistedCochain(L, 2, omega_values)
        A = make_algebroid(L, omega)
        image = chern_weil_image(A)
        assert set(image) == {1}
        assert image[1] == []


def test_chern_weil_image_of_trivial_algebroid(torus):
    adjoint = trivial_system(torus, 1)
    A = make_algebroid(adjoint, fundamental_cocycle(torus))
    image = chern_weil_image(A)
    assert len(image[1]) == 1
    assert not image[1][0].is_zero()
    B = trivial_algebroid(torus, 1)
    image = chern_weil_image(B)
    assert len(image[1]) == 1
    assert image[1][0].is_zero()


def test_splitting_independence(torus):
    rng = random.Random(5)
    for _ in range(5):
        L = random_flat_system(rng, torus, rank=1)
        omega = random_cochain(rng, L, 2)
        A = make_algebroid(L, omega)
        eta = random_cochain(rng, L, 1)
        B = change_splitting(A, eta)
        assert B.omega == A.omega + coboundary(eta)
        for k in (1, 2):
            sections = invariant_sections(A, k)
            for phi in sections.representatives:
                assert chern_weil(A, phi, k) == chern_weil(B, phi, k)


def test_change_splitting_validates_eta(torus):
    A = trivial_algebroid(torus, 1)
    with pytest.raises(InputError):
        change_splitting(A, zero_cochain(A.adjoint, 2))
    other = from_representation(torus, {"a": 2, "b": 1})
    with pytest.raises(InputError):
        change_splitting(A, zero_cochain(other, 1))


def test_pullback_algebroid_functoriality(torus):
    rng = random.Random(7)
    f = torus_shift_map(torus, 1, 1)
    g = torus_swap_map(torus)
    L = random_flat_system(rng, torus, rank=1)
    omega = random_cochain(rng, L, 2)
    A = make_algebroid(L, omega)
    lhs = pullback_algebroid(f, pullback_algebroid(g, A))
    rhs = pullback_algebroid(compose(g, f), A)
    assert lhs == rhs
    assert pullback_algebroid(identity_map(torus), A) == A


def test_chern_weil_commutes_with_pullback(torus):
    rng = random.Random(11)
    adjoint = trivial_system(torus, 1)
    omega = random_cochain(rng, adjoint, 2)
    A = make_algebroid(adjoint, omega)
    h2 = untwisted_space(torus, 2)
    for f in (torus_shift_map(torus, 1, 0), torus_swap_map(torus)):
        B = pullback_algebroid(f, A)
        phi = TwistedCochain(
            sym_power(dual(adjoint), 1), 0, {(v,): 1 for v in range(9)}
        )
        pulled_phi = pullback_cochain(f, phi)
        pulled_phi = TwistedCochain(
            sym_power(dual(B.adjoint), 1), 0, pulled_phi.values
        )
        cls_target = chern_weil(A, phi, 1)
        cls_source = chern_weil(B, pulled_phi, 1)
        m = induced_map(f, trivial_system(torus), 2)
        assert cls_source.coordinates == m.apply(cls_target.coordinates)


FIXTURES = Path(__file__).resolve().parent / "fixtures" / "chern_weil"


@pytest.mark.parametrize("rep", ["rep3_unipotent", "rep3_diagonal"])
def test_chern_weil_derives_once_per_distinct_transport(rep, monkeypatch, capsys):
    """A rank-3 chern-weil query on torus4x4 inverts each transport object,
    takes Sym^k of each object and tensors each pair of objects at most once.
    The counters keep every argument alive, so no id is reused."""
    calls = {"sym": [], "kron": [], "inverse": []}
    sym_matrix, kron, inverse = local_systems._sym_matrix, Matrix.kron, Matrix.inverse

    def counted(name, fn):
        def wrapper(*args):
            calls[name].append(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(local_systems, "_sym_matrix", counted("sym", sym_matrix))
    monkeypatch.setattr(Matrix, "kron", counted("kron", kron))
    monkeypatch.setattr(Matrix, "inverse", counted("inverse", inverse))
    code = cli.main([
        "chern-weil", "--json", "--min-k", "0", "--max-k", "2",
        "--complex", "builtin:torus4x4",
        "--rep-file", str(FIXTURES / f"{rep}.json"),
        "--omega", str(FIXTURES / "omega_torus4x4_rank3.json"),
    ])
    assert code == 0
    assert capsys.readouterr().out
    for name, records in calls.items():
        assert records, name
        keys = Counter(
            tuple(id(x) if isinstance(x, Matrix) else x for x in args) for args in records
        )
        assert max(keys.values()) == 1, name


def _pair_flat(phi, omega):
    """The untwisted cochain whose value on each simplex is the pairing of
    the dual section phi at its first vertex with omega's value there."""
    return TwistedCochain(trivial_system(omega.system.base, 1), omega.degree, {
        sigma: (sum(x * y for x, y in zip(phi.value(sigma[:1]), value)),)
        for sigma, value in omega.values.items()
    })


def _reference_chern_weil(A, phi, k, P):
    """The Chern-Weil class the long way round: embed phi as a section of
    the dual of P, the k-th tensor power of the adjoint (each word
    coordinate is the monomial coordinate of its sorted word, weighted by
    the product of the letter multiplicity factorials), check that the
    embedding is flat there, pair it with omega^k through ``_pair_flat`` and
    divide by k!.  Callers share P, so its dual is built once."""
    r = A.adjoint.rank
    mono_index = {m: i for i, m in enumerate(itertools.combinations_with_replacement(range(r), k))}
    words = []
    for word in itertools.product(range(r), repeat=k):
        key = tuple(sorted(word))
        weight = 1
        for count in Counter(key).values():
            weight *= math.factorial(count)
        words.append((mono_index[key], weight))
    power = cup_power(A.omega, k)
    assert power.system == P
    power = TwistedCochain(P, 2 * k, power.values)
    embedded = TwistedCochain(dual(P), 0, {
        (v,): tuple(phi.value((v,))[m] * weight for m, weight in words)
        for v in range(A.base.vertex_count)
    })
    assert is_flat_section(embedded)
    paired = _pair_flat(embedded, power).scale(Fraction(1, math.factorial(k)))
    return untwisted_space(A.base, 2 * k).class_of(paired)


def _conjugated_pair(rng, rank):
    """Commuting images with invariants in the symmetric powers of their
    dual: unipotent in rank 2, diagonal with reciprocal eigenvalues and a
    fixed line in rank 3, a sign in rank 1."""
    if rank == 1:
        return [Matrix([[rng.choice((1, -1))]]) for _ in range(2)]
    p = rand_invertible_matrix(rng, rank)
    pi = p.inverse()
    if rank == 2:
        return [p * Matrix([[1, rng.randint(1, 3)], [0, 1]]) * pi for _ in range(2)]
    images = []
    for _ in range(2):
        d = rand_invertible_scalar(rng)
        images.append(p * Matrix.diagonal([d, 1 / d, 1]) * pi)
    return images


def _sphere_product():
    """S^2 x S^2: the staircase triangulation of the product of two
    tetrahedron boundaries, vertex (x, y) numbered 4x + y.  Its H^4 is the
    cup square of its H^2, so k = 2 classes, where the word weights are
    not all 1, need not vanish; on a torus every class with k >= 2 is
    zero."""
    triangles = list(itertools.combinations(range(4), 3))
    top = set()
    for s, t in itertools.product(triangles, repeat=2):
        for steps in set(itertools.permutations((0, 0, 1, 1))):
            ij = [0, 0]
            path = [4 * s[0] + t[0]]
            for step in steps:
                ij[step] += 1
                path.append(4 * s[ij[0]] + t[ij[1]])
            top.add(tuple(path))
    return validate_complex(16, sorted({
        face for sigma in top for n in range(2, 6) for face in itertools.combinations(sigma, n)
    }))


def _gauged_system_and_curvature(rng, base, rank):
    """A seeded gauged flat system with invariants in the symmetric powers
    of its dual, and a closed 2-cochain in it.  On a torus every 2-cochain
    is closed; S^2 x S^2 is simply connected, so there the system is a
    gauged trivial one and the curvature a gauged combination of untwisted
    H^2 representatives with vector coefficients."""
    if base.named_loops:
        a, b = _conjugated_pair(rng, rank)
        L = random_gauge(rng, from_representation(base, {"a": a, "b": b}))
        return L, random_cochain(rng, L, 2)
    frames = {v: rand_invertible_matrix(rng, rank) for v in range(base.vertex_count)}
    L = gauge_transform(trivial_system(base, rank), frames)
    reps = untwisted_space(base, 2).representatives
    coeffs = [[rand_fraction(rng) for _ in range(rank)] for _ in reps]
    values = {}
    for sigma in base.simplices_of_dim(2):
        vec = [sum(rep.value(sigma)[0] * c[a] for rep, c in zip(reps, coeffs)) for a in range(rank)]
        values[sigma] = frames[sigma[0]].apply(vec)
    return L, TwistedCochain(L, 2, values)


@pytest.mark.parametrize("base", ["torus", "torus4x4", "s2xs2"])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_chern_weil_in_the_fiber_equals_the_dual_tensor_power_pairing(base, rank):
    """On seeded gauged flat systems, for omega and omega + d(eta) and
    k = 0..3, pairing in the fiber gives the class that the embedding into
    the dual of the tensor power gives through ``_pair_flat``."""
    c = {"torus": lambda: torus_grid(3, 3), "torus4x4": lambda: torus_grid(4, 4),
         "s2xs2": _sphere_product}[base]()
    rng = random.Random(f"{base} {rank}")
    L, omega = _gauged_system_and_curvature(rng, c, rank)
    # no 6-simplices: k = 3 on S^2 x S^2 lands in a zero space, as k >= 2
    # does on a torus, and its tensor power would only be slow to dualize
    powers = [tensor_power(L, k) for k in range(4 if c.dimension < 4 else 3)]
    compared, nonzero = 0, set()
    for omega in (omega, omega + coboundary(random_cochain(rng, L, 1))):
        A = make_algebroid(L, omega)
        for k, P in enumerate(powers):
            for phi in invariant_sections(A, k).representatives:
                cls = chern_weil(A, phi, k)
                assert cls == _reference_chern_weil(A, phi, k, P)
                compared += 1
                if not cls.is_zero():
                    nonzero.add(k)
    assert compared >= 4
    assert nonzero >= ({0, 1, 2} if c.dimension == 4 else {0})
