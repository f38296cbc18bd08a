"""Seeded property tests of flat systems and their cohomology dimensions.

Flatness must survive every construction the package offers (gauge
transforms, duals, tensor and symmetric powers, pullbacks), checked afresh
on copies that carry no inherited answer, and the dimensions must obey the
Euler characteristic, ignore gauge transforms and, for rank-1 systems on
the torus, match the closed form.  Systems are drawn from hypothesis seeds,
and hypothesis runs derandomized without a database, so every run sees the
same examples.
"""

import random
from fractions import Fraction

import pytest

from algebroids import (
    LocalSystem,
    check_flat,
    circle_model,
    cohomology_dims,
    dual,
    from_representation,
    is_flat,
    pullback_system,
    sym_power,
    tensor_system,
    torus_grid,
    torus_model,
)

from conftest import (
    circle_in_torus_maps,
    random_flat_system,
    random_gauge,
    torus_cover_map,
    torus_negate_map,
    torus_shift_map,
    torus_swap_map,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TORUS = torus_model()
BASES = {"torus": TORUS, "torus4x4": torus_grid(4, 4), "circle5": circle_model(5)}
SEEDED = hypothesis.settings(max_examples=15, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)
models = st.sampled_from(sorted(BASES))
nonzero_rationals = st.builds(
    Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)
)


def _system(model, rank, seed):
    return random_flat_system(random.Random(seed), BASES[model], rank=rank)


def euler_characteristic(c) -> int:
    return sum((-1) ** n * len(c.simplices_of_dim(n)) for n in range(c.dimension + 1))


@SEEDED
@hypothesis.given(models, st.integers(1, 3), seeds, st.integers(0, 3))
def test_constructions_preserve_flatness(model, rank, seed, k):
    """Derived systems of flat ones inherit the flatness law's answer; an
    untagged copy of each proves it triangle by triangle."""
    L = _system(model, rank, seed)
    M = _system(model, 1 + seed % 2, seed + 1)
    assert is_flat(L) and is_flat(M)
    for derived in (
        random_gauge(random.Random(seed + 2), L),
        dual(L),
        tensor_system(L, M),
        tensor_system(dual(L), L),
        sym_power(L, k),
        sym_power(dual(L), k),
    ):
        copy = LocalSystem(derived.base, derived.rank, derived.transport)
        assert copy._violations is None
        assert check_flat(copy) == []
        assert is_flat(derived)


@SEEDED
@hypothesis.given(st.integers(1, 3), seeds)
def test_pullbacks_preserve_flatness(rank, seed):
    L = _system("torus", rank, seed)
    maps = [
        torus_shift_map(TORUS, 1, 2),
        torus_swap_map(TORUS),
        torus_negate_map(TORUS),
        torus_cover_map(torus_grid(3, 6), TORUS),
        *circle_in_torus_maps(circle_model(6), TORUS),
    ]
    for f in maps:
        assert is_flat(pullback_system(f, L))


@SEEDED
@hypothesis.given(models, st.integers(1, 2), seeds)
def test_alternating_sum_of_dims_is_rank_times_euler_characteristic(model, rank, seed):
    L = _system(model, rank, seed)
    dims = cohomology_dims(L)
    assert sum((-1) ** n * d for n, d in enumerate(dims)) == rank * euler_characteristic(L.base)


@SEEDED
@hypothesis.given(models, st.integers(1, 2), seeds)
def test_dims_are_gauge_invariant(model, rank, seed):
    L = _system(model, rank, seed)
    assert cohomology_dims(random_gauge(random.Random(seed + 1), L)) == cohomology_dims(L)


@SEEDED
@hypothesis.given(
    st.one_of(st.just(Fraction(1)), nonzero_rationals),
    st.one_of(st.just(Fraction(1)), nonzero_rationals),
    seeds,
)
@hypothesis.example(Fraction(1), Fraction(1), 0)
@hypothesis.example(Fraction(1), Fraction(-1), 0)
def test_rank1_torus_dims_match_the_closed_form(s, t, seed):
    """H^*(T^2; L_(s, t)) is Q, Q^2, Q for trivial holonomy and vanishes
    otherwise: the Koszul complex of (s - 1, t - 1) on Q."""
    L = from_representation(TORUS, {"a": s, "b": t})
    expected = (1, 2, 1) if s == t == 1 else (0, 0, 0)
    assert cohomology_dims(L) == expected
    assert cohomology_dims(random_gauge(random.Random(seed), L)) == expected
