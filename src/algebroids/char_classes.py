"""Characteristic classes of rank-1 flat systems read off the holonomy.

``holonomy`` puts a rank-1 system in tree gauge in one pass down the
spanning tree: tree edges carry 1, and each non-tree edge carries the
holonomy h of the loop it closes.  A nonzero rational h factors as sign
times a product of prime powers.  The sign bits (h < 0) give a 1-cocycle
with bit coefficients; the exponent of each prime gives a rational
1-cocycle.  Both vanish on the tree, so two systems get equal class data
exactly when their holonomy representations agree.

The span of the log classes, together with its cup powers, is the part of
the cohomology of the classifying space that the system can see.  On the
torus model a certificate is produced for surjectivity: explicit prime-class
combinations hitting each basis vector of H^1 and H^2.

One query makes one ``_ClassQuery``.  It checks the rank and flatness
first and then builds each derived object on first use and shares it
with every reader: the log classes (one ``log_classes`` call, over the
holonomy the system keeps), the fundamental cycle, and one cochain or cup
product per word of primes, so the image words of ``brho_image``, the cup
pairs of ``surjectivity_check`` and the fundamental-class certificate
share each product.  ``brho_image``, ``image_dims`` and
``surjectivity_check`` are thin wrappers over it, and nothing it holds
outlives the query.  What depends on the base alone is kept with the
base: the untwisted H^n spaces (``untwisted_space``), off which the
fundamental cycle is read, and the windings of the named loops, which
the loop-dual certificates target.  The surjectivity test compares the
base against the shared torus model, so on that model it compares one
object with itself.

This module returns objects only: the command line reads a query, its
classes and its ``Certificate`` records, and builds every report itself.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Mapping

from .cohomology import (
    TwistedCochain,
    _cocycle_dual_to,
    _matrix_from_columns,
    cup,
    evaluate_on_chain,
    fundamental_cycle,
    untwisted_space,
)
from .complexes import Complex, _require_edge_path, loop_pairing, loop_sums, torus_model
from .errors import (
    InputError,
    NotClosedError,
    UnsupportedBaseError,
    UnsupportedRankError,
)
from .linalg import FormalLog, GF2, Matrix, _RowSpace, _coprime_base, solve
from .local_systems import LocalSystem, _require_flat, holonomy, trivial_system


class EdgeClass:
    """A degree-1 class in its canonical gauge: one coefficient per non-tree
    edge, tree edges implicitly zero.  Coefficients are rationals, or
    ``GF2`` bits for the sign class, and ``zero`` is the zero of their type;
    only nonzero coefficients are stored."""

    def __init__(self, base: Complex, values: Mapping, zero=Fraction(0)):
        self.base = base
        self.zero = zero
        self.values = {tuple(e): v for e, v in values.items() if v}

    def coordinates(self) -> tuple:
        return tuple(self.values.get(e, self.zero) for e in self.base.tree.non_tree_edges)

    def evaluate_loop(self, path) -> object:
        """Pair against a closed vertex path, each step of which stays put or
        follows an edge; gauge-invariant because the representative vanishes
        on the spanning tree."""
        _require_edge_path(self.base, path)
        return loop_pairing(self.values, path, self.zero)

    def is_zero(self) -> bool:
        return not self.values

    def to_cochain(self) -> TwistedCochain:
        """The canonical representative as an untwisted rational 1-cochain."""
        if not isinstance(self.zero, Fraction):
            raise InputError("only rational classes convert to cochains")
        return TwistedCochain(
            trivial_system(self.base, 1), 1, {e: (v,) for e, v in self.values.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, EdgeClass)
            and self.base == other.base
            and type(self.zero) is type(other.zero)
            and self.values == other.values
        )

    __hash__ = None

    def __repr__(self):
        return f"EdgeClass({type(self.zero).__name__}, support={len(self.values)})"


def canonical_edge_class(c: Complex, assignment: Mapping) -> EdgeClass:
    """Canonicalize a rational 1-cocycle given as edge -> coefficient:
    subtract the coboundary of the tree potential so every tree edge
    vanishes, which leaves on each non-tree edge the sum around the loop it
    closes (``loop_sums``).  The input must be closed; violations are
    reported, not repaired."""
    zero = Fraction(0)
    values = {tuple(e): assignment.get(e, zero) for e in c.edges}
    bad = []
    for i, j, k in c.triangles:
        if values[(i, j)] + values[(j, k)] - values[(i, k)] != 0:
            bad.append((i, j, k))
    if bad:
        raise NotClosedError("edge assignment is not a cocycle", triangles=bad)
    return EdgeClass(c, loop_sums(c, values))


def _require_rank1_flat(L: LocalSystem) -> None:
    if L.rank != 1:
        raise UnsupportedRankError("class extraction is limited to rank-1 systems")
    _require_flat(L)


def sign_class(L: LocalSystem) -> EdgeClass:
    """The orientation class: bit 1 on the non-tree edges whose loop has
    negative holonomy.  Zero exactly when every loop holonomy is positive."""
    _require_rank1_flat(L)
    bits = {
        e: GF2(1) for e, h in holonomy(L).items() if h.entries[0][0] < 0
    }
    return EdgeClass(L.base, bits, GF2(0))


def log_classes(L: LocalSystem) -> dict:
    """One rational class per prime appearing in the holonomy: the class
    whose pairing with any loop is the exponent of that prime in the loop's
    holonomy.  Each non-tree edge holds the exponent of the prime in the
    holonomy of the loop it closes; primes absent from every loop are
    omitted.

    The numerators and denominators of the distinct holonomy values are
    first refined into a coprime base, and only the base elements are
    factored, each within ``MAX_FACTOR_BITS``.  So a loop whose holonomy is
    a product of large generators is accepted when each generator is."""
    _require_rank1_flat(L)
    loops = {e: h.entries[0][0] for e, h in holonomy(L).items()}
    values = set(loops.values())
    base = _coprime_base(
        sorted({abs(h.numerator) for h in values} | {h.denominator for h in values})
    )
    logs = {b: FormalLog.of(b) for b in base}
    exponents = {}
    by_prime = {}
    for e, h in loops.items():
        coeffs = exponents.get(h)
        if coeffs is None:
            coeffs = exponents[h] = {}
            for part, sign in ((abs(h.numerator), 1), (h.denominator, -1)):
                for b in base:
                    while part % b == 0:
                        part //= b
                        for p in logs[b].primes():
                            coeffs[p] = coeffs.get(p, 0) + sign * logs[b].coefficient(p)
        for p in sorted(coeffs):
            by_prime.setdefault(p, {})[e] = coeffs[p]
    return {p: EdgeClass(L.base, by_prime[p]) for p in sorted(by_prime)}


class _ClassQuery:
    """The derived objects of one query about a rank-1 system, each built
    on first use and shared by every reader of the query."""

    def __init__(self, L: LocalSystem):
        _require_rank1_flat(L)
        self.system = L
        self.base = L.base
        self._products = {}  # word of primes -> cochain of their cup product

    @functools.cached_property
    def logs(self) -> dict:
        return log_classes(self.system)

    @functools.cached_property
    def cycle(self) -> dict:
        return fundamental_cycle(self.base)

    def product(self, word: tuple) -> TwistedCochain:
        """The left-associated cup product of the log classes of a word of
        primes; a one-letter word is the class's cochain."""
        out = self._products.get(word)
        if out is None:
            if len(word) == 1:
                out = self.logs[word[0]].to_cochain()
            else:
                out = cup(self.product(word[:-1]), self.product(word[-1:]))
            self._products[word] = out
        return out

    def image(self) -> dict:
        """``brho_image``: degree 1 keeps each prime whose class is not in
        the span of the ones before; degree n spans the sorted words of n
        kept primes (cup is graded-commutative at class level, so sorted
        words span the products)."""
        classes = self.logs
        span = _RowSpace()
        kept = [p for p in sorted(classes) if span.add(classes[p].coordinates())]
        out = {1: (len(kept), [classes[p] for p in kept])}
        for degree in range(2, self.base.dimension + 1):
            space = untwisted_space(self.base, degree)
            coord_span = _RowSpace()
            basis = []
            for word in itertools.combinations_with_replacement(kept, degree):
                cls = space.class_of(self.product(word))
                if not cls.is_zero() and coord_span.add(cls.coordinates):
                    basis.append(cls)
            out[degree] = (len(basis), basis)
        return out

    def surjectivity(self) -> tuple:
        """``surjectivity_check``.  The base test runs before the log
        classes are read, so ``surjectivity_check`` rejects a base other
        than the torus model before it factors anything."""
        c = self.base
        if c != torus_model() or set(c.named_loops) != {"a", "b"}:
            raise UnsupportedBaseError("surjectivity is decided on the torus model only")
        classes = self.logs
        primes = sorted(classes)
        # row per loop, column per prime: the exponents of the prime on the loop
        pairing = Matrix(
            [[classes[p].evaluate_loop(c.named_loops[name]) for p in primes] for name in ("a", "b")],
            cols=len(primes),
        )
        degree_one_full = pairing.rank() == 2
        cup_pairings = {
            pair: evaluate_on_chain(self.product(pair), self.cycle)
            for pair in itertools.combinations(primes, 2)
        }
        degree_two_full = any(v != 0 for v in cup_pairings.values())

        surjective = degree_one_full and degree_two_full
        if not surjective:
            return False, []

        certificate = [
            _certify_loop_dual(c, classes, "a"),
            _certify_loop_dual(c, classes, "b"),
            _certify_fundamental(self, cup_pairings),
        ]
        return True, certificate


def brho_image(L: LocalSystem) -> dict:
    """Dimensions and bases of the subspace of rational cohomology hit by
    the log classes, degree by degree: degree 1 is their span, higher
    degrees are spanned by cup products of the degree-1 basis."""
    return _ClassQuery(L).image()


def image_dims(L: LocalSystem) -> dict:
    return {degree: dim for degree, (dim, _) in brho_image(L).items()}


class Certificate:
    """One certified identity: a linear combination of prime classes (or of
    their pairwise cup products) that equals a target basis class.  Each
    term is a pair (tuple of primes, rational coefficient)."""

    def __init__(self, target: str, degree: int, terms):
        self.target = target
        self.degree = degree
        self.terms = list(terms)

    def __repr__(self):
        return f"Certificate(target={self.target!r}, terms={self.terms!r})"


def surjectivity_check(L: LocalSystem) -> tuple:
    """Decide whether the log classes generate the full rational cohomology
    of the torus model, with an exactly verified certificate.

    Surjectivity needs rank 2 in degree 1 (two primes with independent
    exponent vectors on the loops) and a nonzero cup pairing against the
    fundamental cycle in degree 2.  The certificate expresses the two loop
    duals and the fundamental class as explicit combinations, and each
    combination is re-evaluated against the canonical bases before being
    returned.
    """
    return _ClassQuery(L).surjectivity()


def _certify_loop_dual(c: Complex, classes: dict, name: str) -> Certificate:
    """Solve for a prime-class combination equal to the canonical class of
    the named loop's dual cocycle (its windings, as ``canonical_edge_class``
    reads them), then verify the equality coefficient by coefficient."""
    target = EdgeClass(c, c.windings(name))
    primes = sorted(classes)
    columns = [classes[p].coordinates() for p in primes]
    height = len(c.tree.non_tree_edges)
    solution = solve(_matrix_from_columns(columns, height), target.coordinates())
    if solution is None:
        raise InputError(f"loop dual {name!r} is not in the span of the log classes")
    terms = [((p,), coeff) for p, coeff in zip(primes, solution) if coeff != 0]
    combo = [Fraction(0)] * height
    for (p,), coeff in terms:
        for i, x in enumerate(classes[p].coordinates()):
            combo[i] += coeff * x
    if tuple(combo) != target.coordinates():
        raise InputError(f"certificate for {name!r} failed verification")
    return Certificate(f"{name}_dual", 1, terms)


def _certify_fundamental(query: _ClassQuery, cup_pairings: dict) -> Certificate:
    """Scale one nonvanishing cup product to pair to 1 with the fundamental
    cycle, then verify it equals the fundamental cocycle's class in H^2."""
    space = untwisted_space(query.base, 2)
    target = space.class_of(_cocycle_dual_to(space.system, query.cycle))
    pair = next(pq for pq, v in cup_pairings.items() if v != 0)
    coeff = 1 / cup_pairings[pair]
    achieved = space.class_of(query.product(pair).scale(coeff))
    if achieved != target:
        raise InputError("fundamental-class certificate failed verification")
    return Certificate("fundamental", 2, [(pair, coeff)])
