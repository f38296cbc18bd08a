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
    dual,
    from_representation,
    fundamental_cocycle,
    identity_map,
    induced_map,
    invariant_sections,
    make_algebroid,
    pullback_algebroid,
    pullback_cochain,
    sym_power,
    trivial_algebroid,
    trivial_system,
    untwisted_class,
    untwisted_space,
    zero_cochain,
)
from algebroids import cli, local_systems

from conftest import (
    random_cochain,
    random_flat_system,
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
            for phi in sections.basis:
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
