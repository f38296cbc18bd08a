"""Oracle tests of the holonomy classes on randomly gauged rank-1 systems.

Each class is checked against the holonomy around the named loops, which
``holonomy_around`` computes by multiplying transports along the loop and so
shares no code with the tree-gauge pass of ``char_classes``: a log class
pairs with a loop to the p-adic valuation of its holonomy, and the sign class
to the sign bit.  The classes must also add under tensor products and ignore
gauge transforms.  Examples are drawn with a fixed seed.
"""

import random
from fractions import Fraction

import pytest

from algebroids import (
    GF2,
    NotFlatError,
    circle_model,
    from_representation,
    holonomy_around,
    image_dims,
    log_classes,
    sign_class,
    surjectivity_check,
    tensor_system,
    torus_grid,
    torus_model,
    trivial_system,
)

from conftest import random_gauge

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BASES = {"torus": torus_model(), "torus4x4": torus_grid(4, 4), "circle5": circle_model(5)}
PRIMES = (2, 3, 5, 7)
SEEDED = hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)


def valuation(q: Fraction, p: int) -> int:
    """The exponent of p in q, by repeated division."""
    out = 0
    num, den = abs(q.numerator), q.denominator
    while num % p == 0:
        num //= p
        out += 1
    while den % p == 0:
        den //= p
        out -= 1
    return out


@st.composite
def holonomy_values(draw):
    value = Fraction(draw(st.sampled_from((1, -1))))
    for p in PRIMES:
        value *= Fraction(p) ** draw(st.integers(-2, 2))
    return value


@st.composite
def gauged_systems(draw, base):
    """A rank-1 system with drawn loop holonomies, moved out of tree gauge by
    random vertex frames."""
    images = {name: draw(holonomy_values()) for name in sorted(base.named_loops)}
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_gauge(rng, from_representation(base, images))


def loop_holonomies(L):
    return {
        name: holonomy_around(L, loop).entries[0][0]
        for name, loop in L.base.named_loops.items()
    }


@pytest.mark.parametrize("name", sorted(BASES))
@SEEDED
@hypothesis.given(data=st.data())
def test_log_classes_pair_to_valuations_of_the_holonomy(name, data):
    base = BASES[name]
    L = data.draw(gauged_systems(base))
    logs = log_classes(L)
    assert set(logs) <= set(PRIMES)
    for loop_name, h in loop_holonomies(L).items():
        loop = base.named_loops[loop_name]
        for p in PRIMES:
            pairing = logs[p].evaluate_loop(loop) if p in logs else Fraction(0)
            assert type(pairing) is Fraction
            assert pairing == valuation(h, p), (loop_name, p, h)


@pytest.mark.parametrize("name", sorted(BASES))
@SEEDED
@hypothesis.given(data=st.data())
def test_sign_class_pairs_to_the_sign_of_the_holonomy(name, data):
    base = BASES[name]
    L = data.draw(gauged_systems(base))
    sign = sign_class(L)
    for loop_name, h in loop_holonomies(L).items():
        pairing = sign.evaluate_loop(base.named_loops[loop_name])
        assert type(pairing) is GF2
        assert pairing == GF2(1 if h < 0 else 0), (loop_name, h)


@pytest.mark.parametrize("name", sorted(BASES))
@SEEDED
@hypothesis.given(data=st.data())
def test_classes_add_under_tensor_products(name, data):
    base = BASES[name]
    L = data.draw(gauged_systems(base))
    M = data.draw(gauged_systems(base))
    T = tensor_system(L, M)
    logs = [log_classes(S) for S in (L, M, T)]
    zero = (Fraction(0),) * len(base.tree.non_tree_edges)

    def coords(classes, p):
        return classes[p].coordinates() if p in classes else zero

    for p in set().union(*logs):
        summed = tuple(a + b for a, b in zip(coords(logs[0], p), coords(logs[1], p)))
        assert coords(logs[2], p) == summed, p
    signs = [sign_class(S).coordinates() for S in (L, M, T)]
    assert signs[2] == tuple(a + b for a, b in zip(signs[0], signs[1]))


@pytest.mark.parametrize("name", sorted(BASES))
@SEEDED
@hypothesis.given(data=st.data())
def test_classes_are_gauge_invariant(name, data):
    base = BASES[name]
    L = data.draw(gauged_systems(base))
    M = random_gauge(random.Random(data.draw(st.integers(0, 2**32))), L)
    assert log_classes(M) == log_classes(L)
    assert sign_class(M) == sign_class(L)


def test_non_flat_systems_are_rejected():
    torus = torus_model()
    L = trivial_system(torus).with_edge((0, 1), 2)
    for extract in (sign_class, log_classes, image_dims, surjectivity_check):
        with pytest.raises(NotFlatError) as err:
            extract(L)
        assert err.value.details["triangles"]
