import math
import random
from fractions import Fraction

import pytest

from algebroids import (
    InputError,
    LocalSystem,
    Matrix,
    NotFlatError,
    RelationViolationError,
    SingularMatrixError,
    UnknownGeneratorError,
    UnsupportedRankError,
    check_flat,
    circle_model,
    compose,
    dual,
    from_representation,
    gauge_transform,
    holonomy,
    holonomy_around,
    identity_map,
    is_flat,
    iso_rank1,
    pullback_system,
    simplicial_map,
    sym_power,
    tensor_power,
    tensor_system,
    torus_grid,
    trivial_system,
    validate_complex,
)

from conftest import (
    circle_in_torus_maps,
    commuting_pair,
    random_flat_system,
    random_gauge,
    torus_cover_map,
    torus_shift_map,
    tree_loop,
)


def scalar(L, i, j):
    return L.matrix(i, j).entries[0][0]


def test_trivial_system_is_flat(torus):
    L = trivial_system(torus, 2)
    assert is_flat(L)
    assert L.matrix(0, 1).is_identity()
    assert L.step(1, 0).is_identity()


def test_torus_counterexample_transports(torus):
    L = from_representation(torus, {"a": 2, "b": 1})
    assert is_flat(L)
    # tree edges carry the identity, generator edges carry the images
    for edge in torus.tree.tree_edges:
        assert L.matrix(*edge).is_identity()
    assert scalar(L, 1, 2) == 2
    assert scalar(L, 3, 6) == 1
    # flatness forces the value on every other non-tree edge
    assert scalar(L, 2, 5) == Fraction(1, 2)
    assert holonomy_around(L, torus.named_loops["a"]) == Matrix([[2]])
    assert holonomy_around(L, torus.named_loops["b"]) == Matrix([[1]])


def test_circle_representation(circle3):
    L = from_representation(circle3, {"a": Fraction(3, 2)})
    assert is_flat(L)
    # both edges at the root are tree edges; (1, 2) closes the loop
    assert scalar(L, 0, 1) == 1
    assert scalar(L, 0, 2) == 1
    assert scalar(L, 1, 2) == Fraction(3, 2)
    assert holonomy_around(L, (0, 1, 2, 0)) == Matrix([[Fraction(3, 2)]])


def test_explicit_edge_overrides(torus):
    L = from_representation(torus, {"a": 2, "b": 1})
    M = from_representation(
        torus, {"a": 2, "b": 1, (2, 5): [[Fraction(1, 2)]]}
    )
    assert L == M


def test_from_representation_rejects_bad_keys(torus):
    with pytest.raises(UnknownGeneratorError):
        from_representation(torus, {"c": 2})
    with pytest.raises(UnknownGeneratorError):
        from_representation(torus, {(0, 5): 2})
    # tree edges are pinned to the identity and cannot be assigned
    with pytest.raises(UnknownGeneratorError):
        from_representation(torus, {"a": 2, "b": 1, (0, 1): 3})


# two triangle boundaries joined at vertex 0: the tree is (0, v) for every
# v, and the non-tree edges (1, 2) and (3, 4) close the loops a and b
WEDGE_EDGES = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]
WEDGE_LOOPS = {"a": (0, 1, 2, 0), "b": (0, 3, 4, 0)}


def test_a_named_loop_without_winding_data_is_unknown():
    c = validate_complex(5, WEDGE_EDGES, named_loops=WEDGE_LOOPS,
                         loop_cocycles={"a": {(1, 2): Fraction(1)}})
    with pytest.raises(UnknownGeneratorError, match="no winding data for generator 'b'"):
        from_representation(c, {"a": 2, "b": 3})


def test_a_cocycle_that_is_not_closed_gives_a_fractional_winding():
    # the cochain is 1/2 on (1, 3) alone, so it is not closed on (1, 2, 3),
    # and the loop 0 -> 2 -> 3 -> 1 -> 0 closed by (2, 3) winds -1/2 times
    c = validate_complex(
        4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (1, 2, 3)],
        named_loops={"a": (0, 1, 2, 0)},
        loop_cocycles={"a": {(1, 3): Fraction(1, 2)}},
    )
    with pytest.raises(InputError, match=r"winding of edge \(2, 3\) against 'a' is fractional"):
        from_representation(c, {"a": 2})


@pytest.mark.parametrize("half_edge, error, message", [
    ((1, 2), InputError, r"winding of edge \(1, 2\) against 'a' is fractional"),
    ((3, 4), UnknownGeneratorError, "no winding data for generator 'b'"),
])
def test_the_first_winding_error_is_raised_edge_by_edge(half_edge, error, message):
    """Edges are taken in order, and the names in sorted order on each edge:
    a fractional 'a' on the first non-tree edge wins over the missing 'b',
    and a missing 'b' wins over a fractional 'a' on a later edge."""
    c = validate_complex(5, WEDGE_EDGES, named_loops=WEDGE_LOOPS,
                         loop_cocycles={"a": {half_edge: Fraction(1, 2)}})
    with pytest.raises(error, match=message):
        from_representation(c, {"a": 2, "b": 3})


def test_from_representation_rejects_singular(torus):
    with pytest.raises(SingularMatrixError):
        from_representation(torus, {"a": 0, "b": 1})


def test_from_representation_rejects_noncommuting(torus):
    with pytest.raises(RelationViolationError) as info:
        from_representation(
            torus, {"a": [[1, 1], [0, 1]], "b": [[1, 0], [1, 1]]}
        )
    assert info.value.details["triangles"]


def test_commuting_rank2_images_accepted(torus):
    rng = random.Random(7)
    a, b = commuting_pair(rng, 2)
    L = from_representation(torus, {"a": a, "b": b})
    assert is_flat(L)
    assert holonomy_around(L, torus.named_loops["a"]) == a


def test_unnamed_generators_default_to_identity(torus):
    L = from_representation(torus, {"a": 2}, rank=1)
    assert holonomy_around(L, torus.named_loops["b"]).is_identity()
    assert holonomy_around(L, torus.named_loops["a"]) == Matrix([[2]])
    M = from_representation(torus, {"a": 2, "b": 1}, rank=1)
    assert L == M


def test_check_flat_reports_exact_triangles(torus):
    L = from_representation(torus, {"a": 2, "b": 1})
    broken = L.with_edge((1, 2), [[5]])
    bad = check_flat(broken)
    expected = [t for t in torus.triangles if (1, 2) in [(t[0], t[1]), (t[0], t[2]), (t[1], t[2])]]
    assert bad == expected
    with pytest.raises(NotFlatError):
        holonomy(broken)


def test_holonomy_round_trip(torus):
    rng = random.Random(11)
    L = random_flat_system(rng, torus, rank=1, gauged=False)
    h = holonomy(L)
    assert isinstance(h, dict)
    back = from_representation(torus, h)
    assert back == L
    assert iso_rank1(back, L)


def test_holonomy_keys_are_non_tree_edges(torus):
    L = from_representation(torus, {"a": 2, "b": 1})
    h = holonomy(L)
    assert set(h) == set(
        e for e in torus.edges if e not in torus.tree.tree_edges
    )
    assert h[(1, 2)] == Matrix([[2]])


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("model", ["torus", "torus4x4", "circle5"])
def test_holonomy_equals_the_product_around_each_tree_loop(model, rank):
    """The one pass down the tree gives, on every non-tree edge, the product
    of the step matrices around the loop it closes.  The systems are gauged,
    so no frame is the identity and every loop needs real products.  Rank-1
    gauges drawn from a few small scalars often make a partial product the
    identity, which exercises the identity shortcut on short-lived
    products."""
    c = {"torus": torus_grid(3, 3), "torus4x4": torus_grid(4, 4),
         "circle5": circle_model(5)}[model]
    tree = c.tree
    rng = random.Random(100 * rank + len(model))
    for _ in range(12):
        L = random_flat_system(rng, c, rank=rank)
        images = holonomy(L)
        assert list(images) == [e for e in c.edges if e not in tree.tree_edges]
        for (i, j), h in images.items():
            assert h == holonomy_around(L, tree_loop(tree, i, j))


def test_holonomy_around_requires_closed_path(torus):
    L = trivial_system(torus)
    with pytest.raises(InputError):
        holonomy_around(L, (0, 1, 2))


def test_holonomy_around_rejects_a_step_that_is_not_an_edge(torus):
    """(0, 5) and (0, 7) are not edges of the 3x3 torus; a step that stays
    at its vertex is still allowed."""
    L = from_representation(torus, {"a": 2, "b": 3})
    for path, step in (((0, 5, 0), (0, 5)), ((0, 7, 2, 0), (0, 7))):
        with pytest.raises(InputError) as info:
            holonomy_around(L, path)
        assert info.value.details == {"step": step}
    assert holonomy_around(L, (0, 0, 1, 1, 2, 0)) == Matrix([[2]])


def test_gauge_transform_round_trip(torus):
    rng = random.Random(13)
    from conftest import rand_invertible_matrix

    L = from_representation(torus, {"a": 2, "b": 3})
    g = {v: rand_invertible_matrix(rng, 1) for v in range(9)}
    M = gauge_transform(L, g)
    assert is_flat(M)
    assert iso_rank1(L, M)
    inv = {v: m.inverse() for v, m in g.items()}
    assert gauge_transform(M, inv) == L


def test_gauge_preserves_loop_holonomy_up_to_conjugation(torus):
    rng = random.Random(17)
    L = random_flat_system(rng, torus, rank=1)
    M = random_gauge(rng, L)
    for loop in torus.named_loops.values():
        # rank one: conjugation is trivial
        assert holonomy_around(M, loop) == holonomy_around(L, loop)


def test_dual_inverts_scalars(circle3):
    L = from_representation(circle3, {"a": 2})
    D = dual(L)
    assert holonomy_around(D, (0, 1, 2, 0)) == Matrix([[Fraction(1, 2)]])
    assert dual(D) == L


def test_dual_is_inverse_transpose(torus):
    rng = random.Random(19)
    L = random_flat_system(rng, torus, rank=2)
    D = dual(L)
    for i, j in torus.edges:
        assert D.matrix(i, j) == L.matrix(i, j).inverse().transpose()


def _fresh_dual(L):
    """The dual computed from scratch, bypassing every memo."""
    return LocalSystem(
        L.base, L.rank, {e: T.inverse().transpose() for e, T in L.transport.items()}
    )


def _same_entries(L, M):
    assert (L.base, L.rank) == (M.base, M.rank)
    for e in L.base.edges:
        assert L.matrix(*e).entries == M.matrix(*e).entries, e


@pytest.mark.parametrize("rank", [2, 3])
def test_dual_of_tensor_power_is_tensor_power_of_dual(torus, rank):
    rng = random.Random(41 + rank)
    L = random_flat_system(rng, torus, rank=rank)
    for k in range(4):
        P = tensor_power(L, k)
        _same_entries(dual(P), tensor_power(dual(L), k))
        _same_entries(dual(P), _fresh_dual(P))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_from_representation_inverts_its_transports_from_the_generators(monkeypatch, rank):
    """A system built from generator images carries the inverse of every
    transport, the inverse powers multiplied in reverse order: stepping
    against an edge and dualizing run no elimination, and give what
    inverting each transport gives.  Explicit non-tree edges, as the
    holonomy of a system names them, carry their inverses too."""
    rng = random.Random(f"known-inverses:{rank}")
    for c in (torus_grid(3, 3), torus_grid(4, 5)):
        L = random_flat_system(rng, c, rank=rank, gauged=False)
        for M in (L, from_representation(c, holonomy(random_gauge(rng, L)))):
            expected = _fresh_dual(M)
            inverted = []
            inverse = Matrix.inverse
            monkeypatch.setattr(Matrix, "inverse", lambda m: inverted.append(m) or inverse(m))
            _same_entries(dual(M), expected)
            steps = {(i, j): M.step(j, i) for i, j in c.edges}
            monkeypatch.setattr(Matrix, "inverse", inverse)
            assert inverted == []
            for (i, j), back in steps.items():
                assert back * M.matrix(i, j) == Matrix.identity(rank)


@pytest.mark.parametrize("rank", [2, 3])
def test_dual_is_an_involution_and_memoised(torus, rank):
    rng = random.Random(43 + rank)
    L = random_flat_system(rng, torus, rank=rank)
    D = dual(L)
    assert dual(L) is D
    _same_entries(D, _fresh_dual(L))
    assert dual(D) == L
    P = tensor_power(L, 2)
    assert dual(dual(P)) == P
    assert is_flat(D)


def test_tensor_and_powers(circle3):
    L = from_representation(circle3, {"a": 2})
    M = from_representation(circle3, {"a": 3})
    T = tensor_system(L, M)
    assert holonomy_around(T, (0, 1, 2, 0)) == Matrix([[6]])
    P = tensor_power(L, 3)
    assert holonomy_around(P, (0, 1, 2, 0)) == Matrix([[8]])
    assert tensor_power(L, 0) == trivial_system(circle3, 1)


def test_sym_power_scalar_case(circle3):
    L = from_representation(circle3, {"a": -1})
    S = sym_power(L, 2)
    assert S.rank == 1
    assert holonomy_around(S, (0, 1, 2, 0)) == Matrix([[1]])
    assert sym_power(L, 1) == L
    assert sym_power(L, 0) == trivial_system(circle3, 1)


def test_sym_power_rank_two(circle3):
    # sym^2 of a rank 2 system has rank 3; diagonal holonomy squares cleanly
    L = from_representation(circle3, {"a": [[2, 0], [0, 3]]})
    S = sym_power(L, 2)
    assert S.rank == 3
    h = holonomy_around(S, (0, 1, 2, 0))
    assert sorted(h.entry(i, i) for i in range(3)) == [4, 6, 9]


def test_pullback_functoriality(torus):
    rng = random.Random(23)
    L = random_flat_system(rng, torus, rank=1)
    f = torus_shift_map(torus, 1, 0)
    g = torus_shift_map(torus, 0, 2)
    lhs = pullback_system(f, pullback_system(g, L))
    rhs = pullback_system(compose(g, f), L)
    assert lhs == rhs
    assert pullback_system(identity_map(torus), L) == L


def test_pullback_of_collapsed_edges_is_identity(torus, circle6):
    link4, _ = circle_in_torus_maps(circle6, torus)
    L = from_representation(torus, {"a": 2, "b": 3})
    P = pullback_system(link4, L)
    assert is_flat(P)
    for i, j in circle6.edges:
        if link4(i) == link4(j):
            assert P.matrix(i, j).is_identity()


def test_cover_doubles_the_short_loop(torus, torus36):
    f = torus_cover_map(torus36, torus)
    L = from_representation(torus, {"a": 2, "b": 1})
    P = pullback_system(f, L)
    # loop a of the cover wraps the target loop a twice
    assert holonomy_around(P, torus36.named_loops["a"]) == Matrix([[4]])
    assert holonomy_around(P, torus36.named_loops["b"]) == Matrix([[1]])


def test_circle_double_cover(circle3, circle6):
    f = simplicial_map(circle6, circle3, [v % 3 for v in range(6)])
    L = from_representation(circle3, {"a": 5})
    P = pullback_system(f, L)
    assert holonomy_around(P, (0, 1, 2, 3, 4, 5, 0)) == Matrix([[25]])


def test_iso_rank1_distinguishes(torus):
    L = from_representation(torus, {"a": 2, "b": 1})
    M = from_representation(torus, {"a": 2, "b": -1})
    assert not iso_rank1(L, M)
    with pytest.raises(UnsupportedRankError):
        iso_rank1(trivial_system(torus, 2), trivial_system(torus, 2))


def test_random_flat_systems_are_flat(torus, circle6, disk):
    rng = random.Random(29)
    for c in (torus, circle6, disk):
        for rank in (1, 2):
            L = random_flat_system(rng, c, rank=rank)
            assert is_flat(L)
            assert L.rank == rank


def test_check_flat_lists_every_bad_triangle_with_shared_transports():
    """Four triangles built from shared transport objects.  The first is flat;
    each later one agrees with it on two of its three transports and breaks
    the law, so a flatness memo keyed on any two of the three objects would
    pass one of them."""
    triangles = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11)]
    bridges = [(2, 3), (5, 6), (8, 9)]
    edges = [e for t in triangles for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))]
    c = validate_complex(12, edges + bridges + triangles)
    A = Matrix([[1, 1], [0, 1]])
    B = Matrix([[2, 0], [0, 1]])
    C = A * B
    D, E, F = Matrix([[3, 0], [0, 1]]), Matrix([[1, 0], [1, 1]]), Matrix([[1, 2], [0, 1]])
    # (T(i, j), T(j, k), T(i, k)) per triangle
    laws = [(A, B, C), (A, B, D), (A, E, C), (F, B, C)]
    transport = {e: Matrix.identity(2) for e in bridges}
    for (i, j, k), (ij, jk, ik) in zip(triangles, laws):
        transport.update({(i, j): ij, (j, k): jk, (i, k): ik})
    L = LocalSystem(c, 2, transport)
    assert check_flat(L) == triangles[1:]
    assert not is_flat(L)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_equal_transports_are_one_object(rank):
    """One matrix per distinct transport value, and derived systems keep the
    sharing: no more objects than their source has."""
    c = torus_grid(4, 4)
    # distinct winding vectors give distinct values
    a = Matrix.diagonal([2, 3, 5][:rank])
    b = Matrix.diagonal([7, 11, 13][:rank])
    L = from_representation(c, {"a": a, "b": b})

    def objects(S):
        return len({id(m) for m in S.transport.values()})

    values = set(L.transport.values())
    assert objects(L) == len(values) < len(c.edges)
    D = dual(L)
    for S in (D, sym_power(D, 2), tensor_system(L, D), dual(tensor_power(L, 2))):
        assert objects(S) <= objects(L)


def _plain_law_violations(L) -> list:
    """The triangle law evaluated by a product on every triangle."""
    return [
        (i, j, k)
        for i, j, k in L.base.triangles
        if not L.matrix(i, j) * L.matrix(j, k) == L.matrix(i, k)
    ]


@pytest.mark.parametrize("model", ["torus", "torus4x4"])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_identity_aware_flatness_law_matches_the_product_law(model, rank):
    """Skipping the product when T(i, j) or T(j, k) is the identity lists the
    same triangles as multiplying on every triangle, on tree-gauge systems
    broken at random tree and non-tree edges.  (A circle has no triangles,
    so it has no law to break.)"""
    from conftest import rand_invertible_matrix

    c = {"torus": torus_grid(3, 3), "torus4x4": torus_grid(4, 4)}[model]
    rng = random.Random(f"identity-law:{model}:{rank}")
    tree = c.tree
    identity_factor_violated = False
    for trial in range(6):
        a, b = commuting_pair(rng, rank)
        L = from_representation(c, dict(zip(sorted(c.named_loops), (a, b))))
        assert check_flat(L) == _plain_law_violations(L) == []
        for edge in rng.sample(c.edges, 1 + trial % 3):
            L = L.with_edge(edge, rand_invertible_matrix(rng, rank))
        expected = _plain_law_violations(L)
        assert check_flat(L) == expected
        for i, j, k in expected:
            front, back = L.matrix(i, j), L.matrix(j, k)
            if ((i, j) in tree.tree_edges and front.is_identity()) or (
                (j, k) in tree.tree_edges and back.is_identity()
            ):
                identity_factor_violated = True
    assert identity_factor_violated


def test_flatness_is_checked_once_per_system(monkeypatch):
    """The violations are kept on the system: a second check multiplies
    nothing, and each caller gets its own list."""
    c = torus_grid(4, 4)
    L = from_representation(c, {"a": Matrix([[1, 1], [0, 1]]), "b": Matrix([[1, 2], [0, 1]])})
    L = L.with_edge((0, 1), Matrix([[2, 0], [0, 1]]))
    products = []
    mul = Matrix.__mul__

    def counting_mul(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    first = check_flat(L)
    assert first and products
    products.clear()
    first.append("mutated")
    assert check_flat(L) == first[:-1]
    assert products == []


def test_derived_systems_inherit_only_a_known_flat_answer(torus):
    """dual, sym_power and tensor_system of a flat system carry the flatness
    law's answer from the start.  Of a non-flat system, checked or not, they
    carry none, and checking them reports the triangles of their source."""
    flat = from_representation(torus, {"a": Matrix([[1, 1], [0, 1]])})
    assert flat._violations == ()
    for derived in (dual(flat), sym_power(flat, 2), tensor_system(flat, flat)):
        assert derived._violations == ()
    assert trivial_system(torus, 2)._violations == ()
    broken = flat.with_edge((1, 2), Matrix([[2, 0], [0, 1]]))
    expected = [t for t in torus.triangles if (1, 2) in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))]
    for checked in (False, True):
        L = LocalSystem(torus, 2, broken.transport)
        if checked:
            assert check_flat(L) == expected
        for derived in (dual(L), sym_power(L, 2), tensor_system(L, flat), tensor_system(flat, L)):
            assert derived._violations is None
            assert check_flat(derived) == expected


def test_sym_power_one_is_the_system_and_a_large_power_is_refused(torus):
    """Sym^1 builds nothing, and a power whose dimension passes
    MAX_SYM_RANK is refused before any transport is built."""
    from algebroids.local_systems import MAX_SYM_RANK

    L = from_representation(torus, {"a": Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])})
    assert sym_power(L, 1) is L
    assert sym_power(L, 9).rank == 55 <= MAX_SYM_RANK
    with pytest.raises(InputError) as info:
        sym_power(L, 10)
    assert info.value.details == {"dimension": 66, "limit": MAX_SYM_RANK}


def test_sym_matrix_matches_the_product_of_columns():
    """Each column of Sym^k(m) is the product of the columns of m its
    monomial names, expanded here one monomial at a time in Fractions."""
    from algebroids.local_systems import _sym_matrix, _sym_monomials

    def reference(m, k):
        monomials = _sym_monomials(m.rows, k)
        index = {w: i for i, w in enumerate(monomials)}
        rows = [[Fraction(0)] * len(monomials) for _ in monomials]
        for j, word in enumerate(monomials):
            poly = {(): Fraction(1)}
            for letter in word:
                grown = {}
                for partial, coeff in poly.items():
                    for i in range(m.rows):
                        key = tuple(sorted(partial + (i,)))
                        grown[key] = grown.get(key, 0) + coeff * m.entries[i][letter]
                poly = grown
            for key, coeff in poly.items():
                rows[index[key]][j] = coeff
        return rows

    rng = random.Random(31)
    for rank in (1, 2, 3, 4):
        for k in range(5):
            m = Matrix([
                [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 5))) if rng.random() < 0.7 else 0
                 for _ in range(rank)]
                for _ in range(rank)
            ])
            assert [list(row) for row in _sym_matrix(m, k).entries] == reference(m, k)


def test_gauge_transform_names_the_first_vertex_without_a_frame(torus):
    L = from_representation(torus, {"a": 2, "b": 3})
    for frames in ({0: 1}, [1, 2, 3]):
        missing = len(frames)
        with pytest.raises(InputError) as info:
            gauge_transform(L, frames)
        assert info.value.details == {"vertex": missing}


def test_a_step_that_is_not_an_edge_is_named(torus):
    """(0, 7) is not an edge of the 3x3 torus, in either direction."""
    L = from_representation(torus, {"a": 2, "b": 3})
    for u, w in ((0, 7), (7, 0)):
        with pytest.raises(InputError) as info:
            L.step(u, w)
        assert info.value.details == {"step": (u, w)}


def test_gauge_transform_inverts_each_frame_once(torus, monkeypatch):
    """One inversion per vertex, not one per edge: the 3x3 torus has 9
    frames and 27 edges."""
    rng = random.Random(29)
    from conftest import rand_invertible_matrix

    L = from_representation(torus, {"a": 2, "b": 3})
    frames = {v: rand_invertible_matrix(rng, 1) for v in range(torus.vertex_count)}
    inverse = Matrix.inverse
    calls = []

    def counted(m):
        calls.append(m)
        return inverse(m)

    monkeypatch.setattr(Matrix, "inverse", counted)
    M = gauge_transform(L, frames)
    assert len(calls) == torus.vertex_count < len(torus.edges)
    monkeypatch.undo()
    assert M.transport == {
        (i, j): frames[i] * L.matrix(i, j) * frames[j].inverse() for i, j in torus.edges
    }


def test_gauge_transform_eliminates_each_frame_once(torus, monkeypatch):
    """Inverting a frame is also its check: the 3x3 torus has 9 frames, and
    one gauge transform runs 9 eliminations.  A singular frame is still
    named by its vertex."""
    import sys

    from conftest import rand_invertible_matrix

    rng = random.Random(31)
    L = from_representation(torus, {"a": [[1, 1], [0, 1]], "b": [[1, 2], [0, 1]]})
    frames = {v: rand_invertible_matrix(rng, 2) for v in range(torus.vertex_count)}
    rref = sys.modules["algebroids.linalg"].rref
    calls = []

    def counted(m):
        calls.append(m)
        return rref(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("algebroids.") and getattr(module, "rref", None) is rref:
            monkeypatch.setattr(module, "rref", counted)
    gauge_transform(L, frames)
    assert len(calls) == torus.vertex_count == 9
    frames[4] = [[1, 2], [2, 4]]
    with pytest.raises(SingularMatrixError, match="^transport for vertex 4 is singular$") as info:
        gauge_transform(L, frames)
    assert info.value.details == {"generator": "vertex 4"}


def test_a_range_of_symmetric_powers_is_bounded_by_its_summed_dimension():
    from algebroids.local_systems import MAX_SYM_RANGE, _sym_range_rank

    for rank in range(1, 5):
        for lo in range(12):
            for hi in range(lo, 12):
                total = sum(math.comb(rank + k - 1, k) for k in range(lo, hi + 1))
                if total <= MAX_SYM_RANGE:
                    assert _sym_range_rank(rank, lo, hi) == total
                    continue
                with pytest.raises(InputError) as info:
                    _sym_range_rank(rank, lo, hi)
                assert info.value.details == {"dimension": total, "limit": MAX_SYM_RANGE}
    assert _sym_range_rank(3, 0, 9) == MAX_SYM_RANGE == _sym_range_rank(1, 0, 219)


def test_a_power_of_a_line_past_the_widest_range_is_refused(torus):
    """Sym^k of a line is a line, so neither dimension bound fires; a power
    past 219, the top of the widest range of a line, is refused before its
    transports climb all k degrees."""
    from algebroids.local_systems import MAX_SYM_RANGE

    line = from_representation(torus, {"a": -1, "b": 1})
    # the holonomies are signs, and 219 is odd
    assert holonomy(sym_power(line, MAX_SYM_RANGE - 1)) == holonomy(line)
    for k in (MAX_SYM_RANGE, 10**9):
        with pytest.raises(InputError) as info:
            sym_power(line, k)
        assert info.value.details == {"power": k, "limit": MAX_SYM_RANGE - 1}
