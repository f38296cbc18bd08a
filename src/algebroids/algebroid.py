"""Commutative transitive algebroids over a simplicial base.

The discrete data is a pair: a flat local system (the adjoint bundle with
its induced connection) and a closed twisted 2-cochain (the curvature of a
splitting).  Both conditions are exactly the existence conditions for the
extension, so construction validates them and nothing else.

The Chern-Weil map pairs flat sections of symmetric powers of the dual
adjoint against cup powers of the curvature.  omega^k takes values in the
k-th tensor power of the adjoint, with one coordinate per word w of k
letters, and a symmetric functional phi reads a word through the monomial
m(w) of its sorted letters.  So the pairing is computed in the fiber, at the
first vertex of each simplex sigma:

    (1/k!) sum_w phi(sigma_0)[m(w)] * wt(w) * omega^k(sigma)[w],

where wt(w) is the product of the factorials of the letter multiplicities:
the canonical inclusion of symmetric functionals into multilinear ones.  No
system dual to the tensor power is built.  Cochain-level cup powers are not
symmetric, but the symmetrization makes the resulting class independent of
that: it is unchanged under change of splitting and commutes with pullback,
which is what the tests pin down.

An algebroid keeps the symmetric duals Sym^k(adjoint*) it builds, so
``invariant_sections`` and ``chern_weil`` share them and a query dualizes
the adjoint once and no other system.  The classes of all the sections of
one power k are computed together: the cup power omega^k, the untwisted
H^2k and the word weights are built once for them.  A power k whose H^2k is
the zero space (the base has no 2k-simplices) builds none of these: its
classes are zero once their sections are checked.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from .cohomology import (
    CohomologyClass,
    CohomologySpace,
    TwistedCochain,
    _pair_pointwise,
    coboundary,
    cohomology,
    cup_power,
    is_flat_section,
    pullback_cochain,
    untwisted_space,
)
from .complexes import Complex, SimplicialMap
from .errors import (
    InputError,
    NotClosedError,
    NotFlatError,
    NotInvariantError,
    UnsupportedRankError,
)
from .local_systems import (
    LocalSystem,
    _sym_monomials,
    check_flat,
    dual,
    pullback_system,
    sym_power,
    trivial_system,
)


class CommAlgebroid:
    """Validated pair (adjoint system, extension 2-cocycle).

    Also holds, per symmetric power k and built on first use, the symmetric
    dual of the adjoint that degree-k invariant sections live in."""

    def __init__(self, adjoint: LocalSystem, omega: TwistedCochain):
        self.adjoint = adjoint
        self.omega = omega
        self._sym_duals = {}

    def _sym_dual(self, k: int) -> LocalSystem:
        """Sym^k of the dual adjoint: the home of degree-k invariant sections."""
        if k not in self._sym_duals:
            self._sym_duals[k] = sym_power(dual(self.adjoint), k)
        return self._sym_duals[k]

    @property
    def base(self) -> Complex:
        return self.adjoint.base

    def __eq__(self, other):
        return (
            isinstance(other, CommAlgebroid)
            and self.adjoint == other.adjoint
            and self.omega == other.omega
        )

    __hash__ = None

    def __repr__(self):
        return f"CommAlgebroid(rank={self.adjoint.rank}, base={self.base!r})"


def make_algebroid(L: LocalSystem, omega: TwistedCochain) -> CommAlgebroid:
    """Validate the two extension conditions and assemble the algebroid.

    Violations are reported with the exact simplices at fault: non-flat
    transports list their triangles, a non-closed omega lists the 3-simplices
    where its coboundary is nonzero.
    """
    violations = check_flat(L)
    if violations:
        raise NotFlatError(
            "adjoint transports do not admit an extension: flatness fails",
            triangles=violations,
        )
    if omega.degree != 2:
        raise InputError("extension cocycle must have degree 2")
    if omega.system != L:
        raise InputError("extension cocycle must take values in the adjoint system")
    d_omega = coboundary(omega)
    if not d_omega.is_zero():
        bad = [s for s, v in d_omega.values.items() if any(x != 0 for x in v)]
        raise NotClosedError(
            "extension cocycle is not closed", simplices=bad
        )
    return CommAlgebroid(L, omega)


def trivial_algebroid(c: Complex, fiber_dim: int = 1) -> CommAlgebroid:
    if fiber_dim < 1:
        raise UnsupportedRankError("fiber dimension must be at least 1")
    adjoint = trivial_system(c, fiber_dim)
    return CommAlgebroid(adjoint, TwistedCochain(adjoint, 2))


def invariant_sections(A: CommAlgebroid, k: int) -> CohomologySpace:
    """Flat sections of the k-th symmetric power of the dual adjoint, the
    domain of the degree-k Chern-Weil map: its H^0, whose representatives
    are the section basis."""
    if k < 0:
        raise InputError("symmetric power must be nonnegative")
    return cohomology(A._sym_dual(k), 0)


def _word_weights(r: int, k: int) -> list:
    """Per word of k letters in range(r), in the row-major order of the
    flattened tensor power: the index of its sorted word among the
    monomials, and wt(w) / k!."""
    mono_index = {m: i for i, m in enumerate(_sym_monomials(r, k))}
    words = []
    for word in itertools.product(range(r), repeat=k):
        key = tuple(sorted(word))
        weight = 1
        for count in Counter(key).values():
            weight *= math.factorial(count)
        words.append((mono_index[key], Fraction(weight, math.factorial(k))))
    return words


def chern_weil(A: CommAlgebroid, phi: TwistedCochain, k: int) -> CohomologyClass:
    """The class (1/k!) < phi, omega cup ... cup omega > in H^{2k} with
    rational coefficients.  phi must be a flat section of the k-th symmetric
    dual; k = 0 returns the class of the constant phi itself.  A base with
    no 2k-simplices has H^{2k} = 0: phi is checked all the same, and the
    class in the zero space is returned without building omega^k."""
    return _power_classes(A, k, [phi])[0]


def _power_classes(A: CommAlgebroid, k: int, sections) -> list:
    """``chern_weil`` of each of several sections of the same power k.
    Every section is checked first; then omega^k, the untwisted H^{2k} and
    the word weights are built once for all of them, and not at all when
    there is no section or no 2k-simplex."""
    if k < 0:
        raise InputError("symmetric power must be nonnegative")
    for phi in sections:
        if phi.degree != 0 or phi.system != A._sym_dual(k):
            raise NotInvariantError(
                f"section does not live in the degree-{k} symmetric dual of the adjoint"
            )
        if not is_flat_section(phi):
            raise NotInvariantError("section is not invariant under the adjoint transport")
    if not sections or not A.base.simplices_of_dim(2 * k):
        return [CohomologyClass(2 * k, ()) for _ in sections]
    words = _word_weights(A.adjoint.rank, k)
    omega_k = cup_power(A.omega, k)
    space = untwisted_space(A.base, 2 * k)
    classes = []
    for phi in sections:
        weighted = {v: tuple(x[m] * w for m, w in words) for v, x in phi.values.items()}
        classes.append(space.class_of(_pair_pointwise(weighted, omega_k)))
    return classes


def chern_weil_image(A: CommAlgebroid) -> dict:
    """Chern-Weil classes of a basis of invariant sections, per symmetric
    power k >= 1.  Powers whose target degree 2k exceeds the base dimension
    are omitted (their classes land in zero spaces)."""
    return {
        k: _power_classes(A, k, invariant_sections(A, k).representatives)
        for k in range(1, A.base.dimension // 2 + 1)
    }


def change_splitting(A: CommAlgebroid, eta: TwistedCochain) -> CommAlgebroid:
    """Replace the splitting: the curvature moves by the coboundary of eta.
    Revalidates, although closedness is automatic."""
    if eta.degree != 1 or eta.system != A.adjoint:
        raise InputError("splitting change must be a 1-cochain over the adjoint")
    return make_algebroid(A.adjoint, A.omega + coboundary(eta))


def pullback_algebroid(f: SimplicialMap, A: CommAlgebroid) -> CommAlgebroid:
    """Pull both pieces back along a simplicial map and revalidate."""
    adjoint = pullback_system(f, A.adjoint)
    omega = pullback_cochain(f, A.omega)
    return make_algebroid(adjoint, omega)
