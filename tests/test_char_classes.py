import importlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from algebroids import (
    GF2,
    InputError,
    NotClosedError,
    UnsupportedBaseError,
    UnsupportedRankError,
    canonical_edge_class,
    circle_model,
    coboundary_matrix,
    cup,
    evaluate_on_chain,
    from_representation,
    fundamental_cocycle,
    fundamental_cycle,
    image_dims,
    kernel_basis,
    log_classes,
    pullback_system,
    sign_class,
    surjectivity_check,
    tensor_system,
    torus_model,
    trivial_system,
    untwisted_space,
    validate_complex,
)
from algebroids import char_classes, linalg, local_systems
from algebroids.cli import main
from algebroids.cohomology import _cocycle_dual_to, _fundamental_cycle_of
from algebroids.jsonio import resolve_complex_spec

from conftest import (
    random_flat_system,
    random_gauge,
    torus_cover_map,
    torus_swap_map,
    two_spheres,
)

# the package exports the function ``cohomology`` under the module's name
COHOMOLOGY = importlib.import_module("algebroids.cohomology")


def loop_pairs(cls, c):
    return {n: cls.evaluate_loop(c.named_loops[n]) for n in sorted(c.named_loops)}


def test_edge_class_rejects_a_step_that_is_not_an_edge(torus):
    cls = log_classes(from_representation(torus, {"a": 2, "b": 3}))[2]
    assert cls.evaluate_loop((0, 0, 1, 2, 0)) == 1
    for path, step in (((0, 7, 2, 0), (0, 7)), ((0, 5, 0), (0, 5))):
        with pytest.raises(InputError) as info:
            cls.evaluate_loop(path)
        assert info.value.details == {"step": step}


def test_canonical_edge_class_kills_coboundaries(torus):
    potential = {v: Fraction(v * v, 3) for v in range(9)}
    assignment = {(i, j): potential[j] - potential[i] for i, j in torus.edges}
    assert canonical_edge_class(torus, assignment).is_zero()
    with pytest.raises(NotClosedError):
        canonical_edge_class(torus, {(0, 1): Fraction(1)})


def test_canonical_edge_class_is_gauge_of_input(torus):
    # canonicalizing preserves every loop pairing
    wa = dict(torus.loop_cocycles["a"])
    cls = canonical_edge_class(torus, wa)
    assert cls.evaluate_loop(torus.named_loops["a"]) == 1
    assert cls.evaluate_loop(torus.named_loops["b"]) == 0


def test_sign_class_detects_negative_holonomy(torus):
    L = from_representation(torus, {"a": -2, "b": 3})
    s = sign_class(L)
    assert loop_pairs(s, torus) == {"a": GF2(1), "b": GF2(0)}
    M = from_representation(torus, {"a": -1, "b": -1})
    assert loop_pairs(sign_class(M), torus) == {"a": GF2(1), "b": GF2(1)}
    T = from_representation(torus, {"a": 2, "b": 3})
    assert sign_class(T).is_zero()


def test_sign_class_ignores_gauge(torus):
    rng = random.Random(3)
    L = from_representation(torus, {"a": -2, "b": 3})
    M = random_gauge(rng, L)
    assert sign_class(M) == sign_class(L)


def test_log_classes_of_counterexample(torus):
    L = from_representation(torus, {"a": 2, "b": 1})
    logs = log_classes(L)
    assert sorted(logs) == [2]
    assert loop_pairs(logs[2], torus) == {"a": 1, "b": 0}


def test_log_classes_distinct_primes_give_dual_basis(torus):
    L = from_representation(torus, {"a": 2, "b": 3})
    logs = log_classes(L)
    assert sorted(logs) == [2, 3]
    assert loop_pairs(logs[2], torus) == {"a": 1, "b": 0}
    assert loop_pairs(logs[3], torus) == {"a": 0, "b": 1}


def test_log_classes_merge_prime_powers(torus):
    L = from_representation(torus, {"a": 4, "b": 1})
    logs = log_classes(L)
    assert sorted(logs) == [2]
    assert loop_pairs(logs[2], torus) == {"a": 2, "b": 0}


def test_log_classes_shared_prime(torus):
    L = from_representation(torus, {"a": 2, "b": 4})
    logs = log_classes(L)
    assert sorted(logs) == [2]
    assert loop_pairs(logs[2], torus) == {"a": 1, "b": 2}


def test_log_classes_see_denominators(torus):
    L = from_representation(torus, {"a": Fraction(1, 2), "b": 3})
    logs = log_classes(L)
    assert loop_pairs(logs[2], torus) == {"a": -1, "b": 0}
    assert loop_pairs(logs[3], torus) == {"a": 0, "b": 1}


def test_log_classes_of_trivial_holonomy_are_empty(torus):
    assert log_classes(trivial_system(torus)) == {}
    L = from_representation(torus, {"a": -1, "b": 1})
    assert log_classes(L) == {}
    assert not sign_class(L).is_zero()


def test_classes_are_additive_under_tensor(torus):
    L = from_representation(torus, {"a": 2, "b": 3})
    M = from_representation(torus, {"a": 3, "b": 1})
    T = tensor_system(L, M)
    lt = log_classes(T)
    assert loop_pairs(lt[2], torus) == {"a": 1, "b": 0}
    assert loop_pairs(lt[3], torus) == {"a": 1, "b": 1}


def test_image_dims_catalog(torus):
    full = from_representation(torus, {"a": 2, "b": 3})
    assert image_dims(full) == {1: 2, 2: 1}
    partial = from_representation(torus, {"a": 2, "b": 1})
    assert image_dims(partial) == {1: 1, 2: 0}
    assert image_dims(trivial_system(torus)) == {1: 0, 2: 0}
    # same prime on both loops spans one line only
    shared = from_representation(torus, {"a": 2, "b": 4})
    assert image_dims(shared) == {1: 1, 2: 0}


def test_image_dims_on_circle(circle6):
    L = from_representation(circle6, {"a": 6})
    assert image_dims(L) == {1: 1}
    assert sorted(log_classes(L)) == [2, 3]


def test_rank_two_systems_are_rejected(torus):
    with pytest.raises(UnsupportedRankError):
        sign_class(trivial_system(torus, 2))
    with pytest.raises(UnsupportedRankError):
        log_classes(trivial_system(torus, 2))


def test_naturality_under_cover(torus, torus36):
    f = torus_cover_map(torus36, torus)
    L = from_representation(torus, {"a": 2, "b": 3})
    P = pullback_system(f, L)
    logs = log_classes(P)
    # loop a of the cover wraps a twice, so the exponent doubles
    assert logs[2].evaluate_loop(torus36.named_loops["a"]) == 2
    assert logs[3].evaluate_loop(torus36.named_loops["b"]) == 1


def test_naturality_under_swap(torus):
    f = torus_swap_map(torus)
    L = from_representation(torus, {"a": 2, "b": 3})
    P = pullback_system(f, L)
    logs = log_classes(P)
    assert loop_pairs(logs[2], torus) == {"a": 0, "b": 1}
    assert loop_pairs(logs[3], torus) == {"a": 1, "b": 0}


def test_gauge_invariance_of_log_classes(torus):
    rng = random.Random(5)
    L = from_representation(torus, {"a": Fraction(3, 2), "b": 5})
    M = random_gauge(rng, L)
    assert log_classes(M).keys() == log_classes(L).keys()
    for p, cls in log_classes(L).items():
        assert log_classes(M)[p] == cls


def test_surjectivity_of_independent_primes(torus):
    L = from_representation(torus, {"a": 2, "b": 3})
    ok, certificate = surjectivity_check(L)
    assert ok
    targets = [cert.target for cert in certificate]
    assert targets == ["a_dual", "b_dual", "fundamental"]
    a_cert, b_cert, f_cert = certificate
    assert a_cert.terms == [((2,), Fraction(1))]
    assert b_cert.terms == [((3,), Fraction(1))]
    ((pair, coeff),) = f_cert.terms
    assert pair == (2, 3)
    # the cup product of the two dual classes already pairs to +-1
    assert abs(coeff) == 1


def test_surjectivity_fails_with_shared_prime(torus):
    L = from_representation(torus, {"a": 2, "b": 4})
    ok, certificate = surjectivity_check(L)
    assert not ok
    assert certificate == []


def test_surjectivity_fails_with_trivial_direction(torus):
    L = from_representation(torus, {"a": 2, "b": 1})
    ok, _ = surjectivity_check(L)
    assert not ok
    ok, _ = surjectivity_check(trivial_system(torus))
    assert not ok


def test_surjectivity_with_composite_holonomy(torus):
    L = from_representation(torus, {"a": 6, "b": 10})
    ok, certificate = surjectivity_check(L)
    assert ok
    for cert in certificate:
        assert cert.terms


def test_surjectivity_needs_the_torus_model(circle6, torus36):
    with pytest.raises(UnsupportedBaseError):
        surjectivity_check(from_representation(circle6, {"a": 2}))
    with pytest.raises(UnsupportedBaseError):
        surjectivity_check(trivial_system(torus36))


def test_certified_cup_pairs_with_fundamental_cycle(torus):
    L = from_representation(torus, {"a": 2, "b": 3})
    logs = log_classes(L)
    mu = fundamental_cycle(torus)
    product = cup(logs[2].to_cochain(), logs[3].to_cochain())
    assert abs(evaluate_on_chain(product, mu)) == 1


def test_char_classes_json_shape(capsys):
    argv = ["char-classes", "--complex", "builtin:torus", "--rep", "a=-2,b=3", "--json"]
    assert main(argv + ["--check-surjectivity"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema_version"] == "1"
    assert len(data["generators"]) == 19
    assert len(data["sign"]) == 19
    assert set(data["logs"]) == {"2", "3"}
    assert data["image_dims"] == {"1": 2, "2": 1}
    assert data["surjective"] is True
    assert [c["target"] for c in data["certificate"]] == [
        "a_dual",
        "b_dual",
        "fundamental",
    ]
    assert main(argv) == 0
    plain = json.loads(capsys.readouterr().out)
    assert "surjective" not in plain


def test_random_rank1_systems_have_consistent_reports(torus):
    rng = random.Random(7)
    for _ in range(8):
        L = random_flat_system(rng, torus, rank=1)
        logs = log_classes(L)
        dims = image_dims(L)
        assert dims[1] <= len(logs)
        assert dims[2] <= 1
        for cls in logs.values():
            assert not cls.is_zero()


def count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_one_query_builds_each_derived_object_once(monkeypatch, fresh_models, capsys):
    # four primes: 2 and 3 span degree 1, so the image words are (2, 2),
    # (2, 3) and (3, 3), and surjectivity pairs all six; (2, 3) is shared
    # and certifies the fundamental class
    logs = count_calls(monkeypatch, char_classes, "log_classes")
    spaces = count_calls(monkeypatch, COHOMOLOGY, "cohomology")
    kernels = count_calls(monkeypatch, linalg, "kernel_basis")
    tails = count_calls(monkeypatch, COHOMOLOGY, "_kernel_tails")
    coboundaries = count_calls(monkeypatch, COHOMOLOGY, "_coboundary_rows")
    cups = count_calls(monkeypatch, char_classes, "cup")
    cochains = count_calls(monkeypatch, char_classes.EdgeClass, "to_cochain")
    gauges = count_calls(monkeypatch, local_systems, "_tree_gauge")
    argv = ["char-classes", "--check-surjectivity", "--json", "--complex", "builtin:torus",
            "--rep", "a=6/5,b=-35/3"]
    for first in (True, False):
        for calls in (logs, spaces, kernels, tails, coboundaries, cups, cochains, gauges):
            calls.clear()
        assert main(argv) == 0
        assert '"surjective": true' in capsys.readouterr().out
        assert len(logs) == 1
        assert len(gauges) == 1
        # the first query of the process builds the untwisted H^2, and no
        # other space; a later one reads it off the model
        assert [(L.rank, n) for L, n in spaces] == ([(1, 2)] if first else [])
        # no dense kernel: Z^2 is read off d_2, which has no rows, as
        # tails, and the cycle off the echelon form of B^2, which has rank
        # 17; the only rows of a coboundary are those of d_1 and d_2 for
        # that space, so the boundary d_2, whose rows are the columns of
        # d_1, is never built again, and a class in the top degree costs
        # no coboundary
        assert kernels == []
        assert [(len(rows), cols) for rows, cols in tails] == (
            [(0, 18), (17, 18)] if first else [(17, 18)])
        assert [(L.rank, n) for L, n in coboundaries] == ([(1, 1), (1, 2)] if first else [])
        # each of the four classes becomes a cochain once
        assert len(cochains) == 4
        pairs = [(tuple(a.values.items()), tuple(b.values.items())) for a, b in cups]
        assert len(pairs) == len(set(pairs)) == 8


def test_the_surjectivity_test_compares_the_shared_torus_with_itself(monkeypatch, capsys):
    """The base test of a surjectivity query on ``builtin:torus`` finds
    the one shared model on both sides, so it compares no simplices."""
    compared = count_calls(monkeypatch, type(torus_model()), "__eq__")
    for rep in ("a=2,b=3", "a=6/5,b=-35/3"):
        assert main(["surjectivity", "--complex", "builtin:torus", "--rep", rep]) == 0
    capsys.readouterr()
    assert compared and all(a is b is torus_model() for a, b in compared)


def reference_fundamental_cycle(c):
    """The fundamental cycle from the kernel of the boundary d_2, the
    transposed untwisted d_1, which ``kernel_basis`` eliminates on its own,
    scaled so its first nonzero is 1."""
    boundary = coboundary_matrix(trivial_system(c, 1), 1).transpose()
    basis = kernel_basis(boundary)
    if len(basis) != 1:
        raise InputError(
            "complex does not carry a unique 2-cycle", cycle_space_dimension=len(basis)
        )
    lead = next(x for x in basis[0] if x)
    return {t: x / lead for t, x in zip(c.simplices_of_dim(2), basis[0]) if x}


@pytest.mark.parametrize("spec", ["builtin:torus"] + [
    f"builtin:torus{r}x{c}" for r, c in itertools.product(range(3, 7), repeat=2) if r <= c
])
def test_the_cycle_read_off_h2_is_the_fundamental_cycle(spec):
    c = resolve_complex_spec(spec)
    space = untwisted_space(c, 2)
    cycle = _fundamental_cycle_of(space)
    assert list(cycle.items()) == list(reference_fundamental_cycle(c).items())
    assert list(fundamental_cycle(c).items()) == list(cycle.items())
    assert _cocycle_dual_to(space.system, cycle) == fundamental_cocycle(c)


def test_the_echelon_of_b2_is_built_forward_only(monkeypatch, fresh_models):
    """The untwisted H^2 of the 4x4 torus keeps the rank form of B^2: rows
    with rightmost pivots and no back-reduction, and H^2 is read off it.
    Every subtraction eliminates a column of B^2: Z^2 is all of C^2, its
    unit basis has no tails to subtract, and no copy of the echelon takes
    the unit vectors.  The fully reduced form took 538 row subtractions,
    and the rank form with that copy 132.  The model keeps the space, so
    a second call subtracts nothing."""
    subtractions = count_calls(monkeypatch, linalg, "_subtract")
    c = resolve_complex_spec("builtin:torus4x4")
    space = untwisted_space(c, 2)
    assert space.dimension == 1
    assert len(subtractions) == 66
    assert untwisted_space(c, 2).dimension == 1
    assert len(subtractions) == 66


@pytest.mark.parametrize("base, dimension", [
    # a disk: a 2-chain, but no cycle
    (validate_complex(3, [(0, 1), (0, 2), (1, 2), (0, 1, 2)]), 0),
    (two_spheres(), 2),
    # a graph: no triangles at all
    (validate_complex(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), 0),
])
def test_a_complex_without_a_unique_cycle_is_rejected_either_way(base, dimension):
    with pytest.raises(InputError) as direct:
        reference_fundamental_cycle(base)
    with pytest.raises(InputError) as read_off:
        fundamental_cycle(base)
    assert read_off.value.to_json() == direct.value.to_json()
    assert direct.value.details == {"cycle_space_dimension": dimension}


@pytest.mark.parametrize("argv, code", [
    # factoring comes before the base test in a report ...
    (["char-classes", "--check-surjectivity", "--complex", "builtin:torus4x4"], "BAD_INPUT"),
    # ... and after it in a surjectivity query
    (["surjectivity", "--complex", "builtin:torus4x4"], "UNSUPPORTED_BASE"),
])
def test_the_checks_keep_their_order(argv, code, capsys):
    # 2^89 - 1 is a prime past the factoring bound
    assert main(argv + ["--rep", f"a={2 ** 89 - 1},b=1"]) == 1
    assert capsys.readouterr().err.startswith(f"error [{code}]")
