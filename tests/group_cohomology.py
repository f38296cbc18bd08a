"""The cohomology of the fundamental group, kept only as a test oracle.

The builtin tori and circles are aspherical, so the twisted cohomology of a
flat system L on one of them is the group cohomology H^*(pi_1; V) of its
fiber V, acted on by the holonomies of the named loops (Hatcher, Algebraic
Topology, 1.B; Brown, Cohomology of Groups).  Both loops of a torus start at
vertex 0, so their holonomies A and B commute, and H^* is the cohomology of
the Koszul complex

    V --d_0--> V^2 --d_1--> V,    d_0 v = ((A - I) v, (B - I) v),
                                  d_1 (x, y) = (B - I) x - (A - I) y.

On a circle it is the kernel and the cokernel of A - I.  The complexes have
r x 2r blocks whatever the grid size, and their ranks come from the dense
elimination of ``dense_reference``, so the oracle shares no elimination with
the package.  The ranks do not depend on the convention of the action (A or
its inverse, transposed or not), because A and B commute.
"""

from fractions import Fraction

from algebroids import holonomy_around

from dense_reference import dense_rref


def _minus_identity(m) -> list:
    return [[x - 1 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m.entries)]


def _product_is_zero(left, right) -> bool:
    return all(
        sum((row[k] * right[k][j] for k in range(len(right))), Fraction(0)) == 0
        for row in left
        for j in range(len(right[0]))
    )


def group_cohomology_dims(L) -> tuple:
    """(dim H^0, ..., dim H^d) of L on a torus or a circle model, from the
    holonomies of its named loops."""
    r = L.rank
    loops = L.base.named_loops
    a = _minus_identity(holonomy_around(L, loops["a"]))
    if sorted(loops) == ["a"]:
        rank = dense_rref(a, r)[0]
        return (r - rank, r - rank)
    if sorted(loops) != ["a", "b"]:
        raise ValueError(f"no group cohomology oracle for the loops {sorted(loops)}")
    b = _minus_identity(holonomy_around(L, loops["b"]))
    d_0 = a + b
    d_1 = [row_b + [-x for x in row_a] for row_a, row_b in zip(a, b)]
    assert _product_is_zero(d_1, d_0), "d_1 d_0 != 0: the holonomies do not commute"
    rank_0 = dense_rref(d_0, r)[0]
    rank_1 = dense_rref(d_1, 2 * r)[0]
    return (r - rank_0, 2 * r - rank_0 - rank_1, r - rank_1)
