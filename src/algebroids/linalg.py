"""Exact linear algebra over the rationals.

Every matrix entry is a ``fractions.Fraction``; an entry of any other type,
a float, a bool or a ``GF2`` bit among them, is rejected with
``DomainMismatchError``.  All arithmetic is exact; there is no floating
point and no tolerance anywhere in this package.  Two scalar types live
beside the matrices for the holonomy classes: ``GF2``, the bits of the sign
class, and ``FormalLog``, the prime factorization behind the log classes,
which ``_coprime_base`` lets callers apply to coprime parts of their values
instead of to whole products.

The public constructors coerce and shape-check every entry.  Results of
the package's own arithmetic (products, sums, Kronecker products, scaling,
identities, transposes, inverses and reduced echelon forms) are built by
``Matrix._trusted``, which takes entries that are already tuples of
Fractions as they are.

Matrices are stored dense, but all row reduction goes through one sparse
kernel, ``_RowSpace``: ``{column: nonzero}`` rows in one echelon form, each
pivot at its row's rightmost nonzero, eliminated forward only.  Spans,
membership, ranks and residues are read off it as it stands, and the
canonical answers off its fully reduced rows (``_RowSpace.reduced_rows``),
which are unique, so they are fixed by the input alone and not by the order
of elimination.  ``rref``, ``kernel_basis``, ``solve``, ``Matrix.rank`` and
``Matrix.inverse`` give the form with leftmost pivots: they eliminate the
rows with their columns reversed and mirror the reduced rows back.  The
greedy representatives of ``quotient_basis`` depend only on spans, and a
residue that vanishes on a given set of pivot columns is unique.

A basis in free-column form, as ``kernel_basis`` gives it, has one
rightmost nonzero column per vector, and the other vectors vanish there.
``_free_column_tails`` recognizes the form and ``_free_column_form``
brings any basis to it; membership in such a span is read off a vector's
own entries, which ``_RowSpace.within`` uses to check an inclusion of
spans without eliminating the larger one.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DomainMismatchError,
    InputError,
    NotASubspaceError,
    SingularMatrixError,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class GF2:
    """An element of the field with two elements."""

    __slots__ = ("value",)

    def __init__(self, value=0):
        if isinstance(value, GF2):
            value = value.value
        self.value = int(value) & 1

    def __add__(self, other):
        return GF2(self.value ^ GF2(other).value)

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        return GF2(self.value & GF2(other).value)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GF2(other)
        if other.value == 0:
            raise ZeroDivisionError("division by zero in GF(2)")
        return GF2(self.value)

    def __eq__(self, other):
        if isinstance(other, int):
            other = GF2(other)
        return isinstance(other, GF2) and self.value == other.value

    def __hash__(self):
        return hash(("GF2", self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"GF2({self.value})"


# The part of an integer left after trial division below _TRIAL_LIMIT may
# have at most MAX_FACTOR_BITS bits: Pollard rho then needs about 2**16
# steps on the hardest case, two 32-bit primes, and Miller-Rabin with the
# first 13 prime bases is exact below 3.3 * 10**24 (Sorenson and Webster
# 2015).
MAX_FACTOR_BITS = 64
_TRIAL_LIMIT = 1000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n with 41 < n < 3.3 * 10**24."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of an odd composite n: Pollard's rho with Brent's
    cycle detection (Pollard 1975; Brent 1980).  The start and increment are
    fixed, so the factor found is reproducible."""
    for c in itertools.count(1):
        x = y = 2
        g, steps, power = 1, 0, 1
        while g == 1:
            if steps == power:
                x, steps, power = y, 0, 2 * power
            y = (y * y + c) % n
            steps += 1
            g = math.gcd(x - y, n)
        if g != n:
            return g


def _prime_factors(n: int) -> dict:
    """Factor a positive integer into {prime: exponent}.  Raises InputError
    when the part left after trial division has more than MAX_FACTOR_BITS
    bits."""
    factors = {}
    d = 2
    while d < _TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n.bit_length() > MAX_FACTOR_BITS:
        raise InputError(
            f"cannot factor {n}: more than {MAX_FACTOR_BITS} bits left after "
            f"trial division by the primes below {_TRIAL_LIMIT}",
            bits=n.bit_length(),
        )
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        # m has no prime factor below d, so m < d * d makes it prime
        if m < d * d or _is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            f = _rho_factor(m)
            pending += [f, m // f]
    return factors


def _coprime_base(values) -> list:
    """Pairwise coprime integers above 1, in order of discovery, such that
    every positive integer in ``values`` is a product of their powers (factor
    refinement; Bach, Driscoll and Shallit 1993).  Only gcds are taken, so a
    value whose large prime factors also occur in other values splits into
    parts that can be factored alone: a loop holonomy a * b of two large
    generators is refined to a and b."""
    base = []
    for n in values:
        pending = [n]
        while pending:
            x = pending.pop()
            if x == 1:
                continue
            for i, b in enumerate(base):
                g = math.gcd(x, b)
                if g > 1:
                    # the product of base and pending falls by g, so this ends
                    del base[i]
                    pending += [g, b // g, x // g]
                    break
            else:
                base.append(x)
    return base


class FormalLog:
    """log |q| for a nonzero rational q, as the integer combination of the
    symbols log p, p prime, given by the prime factorization of q.  The
    coefficient of log p is the p-adic valuation of q.

    Each numerator and denominator is factored by trial division, Miller-Rabin
    and Pollard rho; one with more than ``MAX_FACTOR_BITS`` bits left after
    trial division raises ``InputError`` instead of running for hours.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {p: Fraction(c) for p, c in coeffs.items() if c}

    @classmethod
    def of(cls, q) -> "FormalLog":
        q = Fraction(q)
        if q == 0:
            raise ZeroDivisionError("log of zero")
        coeffs = _prime_factors(abs(q.numerator))
        for p, e in _prime_factors(q.denominator).items():
            coeffs[p] = coeffs.get(p, 0) - e
        return cls(coeffs)

    def coefficient(self, p: int) -> Fraction:
        return self.coeffs.get(p, _ZERO)

    def primes(self) -> tuple:
        return tuple(sorted(self.coeffs))


def _coerce_rational(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise DomainMismatchError(
        f"cannot coerce {type(x).__name__} into the rational domain"
    )


class Matrix:
    """Immutable dense matrix of rationals."""

    __slots__ = ("rows", "cols", "entries", "_identity")

    def __init__(self, entries: Iterable[Iterable], cols: int | None = None):
        coerced = tuple(tuple(_coerce_rational(x) for x in row) for row in entries)
        nrows = len(coerced)
        if nrows:
            ncols = len(coerced[0])
            if any(len(r) != ncols for r in coerced):
                raise InputError("matrix rows have unequal lengths")
            if cols is not None and cols != ncols:
                raise InputError("explicit column count disagrees with rows")
        else:
            if cols is None:
                raise InputError("a matrix with no rows needs an explicit column count")
            ncols = cols
        self.rows = nrows
        self.cols = ncols
        self.entries = coerced
        self._identity = None

    @classmethod
    def _trusted(cls, entries: tuple, cols: int) -> "Matrix":
        """A matrix of entries the package computed itself, taken as they
        are: a tuple of tuples of ``cols`` Fractions each.  Only values
        from outside the package need the coercion and the shape checks of
        the constructor."""
        m = object.__new__(cls)
        m.rows = len(entries)
        m.cols = cols
        m.entries = entries
        m._identity = None
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        """The n x n identity: one shared matrix per rank up to
        ``_SHARED_IDENTITY_RANK``, so two identity transports of a fiber
        compare as one object."""
        if 0 <= n <= _SHARED_IDENTITY_RANK:
            return _shared_identity(n)
        return _identity_matrix(n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._trusted(tuple((_ZERO,) * cols for _ in range(rows)), cols)

    @classmethod
    def diagonal(cls, values: Sequence) -> "Matrix":
        n = len(values)
        return cls([[values[i] if i == j else _ZERO for j in range(n)] for i in range(n)])

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("shape mismatch in matrix addition")
        return Matrix._trusted(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            ),
            self.cols,
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Matrix._trusted(tuple(tuple(-x for x in row) for row in self.entries), self.cols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise InputError("shape mismatch in matrix product")
            cols = tuple(zip(*other.entries)) if other.rows else ()
            out = []
            for row in self.entries:
                new = []
                for j in range(other.cols):
                    acc = _ZERO
                    for a, b in zip(row, (cols[j] if cols else ())):
                        acc = acc + a * b
                    new.append(acc)
                out.append(tuple(new))
            return Matrix._trusted(tuple(out), other.cols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "Matrix":
        s = _coerce_rational(scalar)
        return Matrix._trusted(tuple(tuple(s * x for x in row) for row in self.entries), self.cols)

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.cols:
            raise InputError("vector length does not match matrix columns")
        v = [_coerce_rational(x) for x in vec]
        out = []
        for row in self.entries:
            acc = _ZERO
            for a, b in zip(row, v):
                acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        # with no rows, zip sees no columns: the transpose has cols empty rows
        return Matrix._trusted(
            tuple(zip(*self.entries)) if self.rows else ((),) * self.cols, self.rows
        )

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def rank(self) -> int:
        # len(_RowSpace(...)) is faster, but bench/run.py's peak RSS grows with its answers
        return rref(self)[0]

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise SingularMatrixError("only square matrices can be inverted")
        n = self.rows
        ident = Matrix.identity(n).entries
        aug = Matrix._trusted(tuple(r + i for r, i in zip(self.entries, ident)), 2 * n)
        rank, red, pivots = rref(aug)
        # pivots escape into the identity block exactly when self is singular
        if rank < n or any(p >= n for p in pivots):
            raise SingularMatrixError("matrix is singular")
        return Matrix._trusted(tuple(row[n:] for row in red.entries), n)

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise InputError("matrix power needs a square matrix")
        base = self if k >= 0 else self.inverse()
        out = None  # the identity, which no product needs
        k = abs(k)
        # repeated squaring; powers of one matrix commute, so the exact
        # result equals the k-fold product
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return Matrix.identity(self.rows) if out is None else out

    def kron(self, other: "Matrix") -> "Matrix":
        out = []
        for r1 in self.entries:
            for r2 in other.entries:
                out.append(tuple(a * b for a in r1 for b in r2))
        return Matrix._trusted(tuple(out), self.cols * other.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def is_identity(self) -> bool:
        """Whether the matrix is the identity.  The entries are tuples, so
        the answer is decided once per matrix and kept on it."""
        if self._identity is None:
            self._identity = self.rows == self.cols and all(
                x == (1 if i == j else 0)
                for i, row in enumerate(self.entries)
                for j, x in enumerate(row)
            )
        return self._identity

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)
        return f"Matrix([{body}])"


def _identity_matrix(n: int) -> Matrix:
    return Matrix._trusted(
        tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)), n
    )


# the largest fiber a query builds is a symmetric power of at most
# local_systems.MAX_SYM_RANK dimensions; identities up to it are shared
_SHARED_IDENTITY_RANK = 55
_shared_identity = functools.cache(_identity_matrix)


def _subtract(target: dict, f, row: dict) -> None:
    """target -= f * row on sparse rows, in place; entries that cancel are
    dropped, so every stored value is nonzero."""
    for j, x in row.items():
        y = target.get(j)
        if y is None:
            target[j] = -f * x
        else:
            y = y - f * x
            if y:
                target[j] = y
            else:
                del target[j]


class _RowSpace:
    """Sparse echelon accumulator: the one elimination kernel of the package.

    Rows are ``{column: nonzero}`` dicts, one per pivot column.  Each row's
    pivot is its rightmost nonzero and its pivot entry is one.  A new row is
    not eliminated from the old ones, so there is no back-reduction while
    rows are added.  Subtracting a row with pivot p changes only columns at
    or left of p, so ``reduce`` clears the pivot columns of a vector from
    the right, through a max-heap of the ones it meets.

    The residue that ``reduce`` returns is the one vector that vanishes in
    every pivot column and differs from the input by a member of the span:
    two such residues differ by a member of the span that vanishes in every
    pivot column, and in an echelon basis the row with the rightmost pivot
    of any nonzero combination is the only one with a nonzero in that
    column.  So the residue does not depend on the order in which the
    vectors arrive, and neither does ``reduced_rows``.
    """

    def __init__(self, vectors=()):
        self.echelon = {}  # pivot column -> row
        for vec in vectors:
            self.add(vec)

    def __len__(self):
        return len(self.echelon)

    @property
    def pivots(self):
        """The pivot columns, as a set-like view."""
        return self.echelon.keys()

    def reduce(self, vec) -> dict:
        """The residue of vec modulo the row space: zero in every pivot
        column, returned as a new sparse dict."""
        v = {j: x for j, x in enumerate(vec) if x}
        rows = self.echelon
        queued = {j for j in v if j in rows}
        heap = [-j for j in queued]
        heapq.heapify(heap)
        while heap:
            p = -heapq.heappop(heap)
            f = v.get(p)
            if f is None:
                continue
            row = rows[p]
            _subtract(v, f, row)
            # every later pivot lies left of p, so column p stays clear
            for j in row:
                if j in rows and j not in queued:
                    queued.add(j)
                    heapq.heappush(heap, -j)
        return v

    def add(self, vec) -> bool:
        """Add vec to the span; True when it was not in it already."""
        residue = self.reduce(vec)
        if not residue:
            return False
        p = max(residue)
        inv = _ONE / residue[p]
        self.echelon[p] = {j: inv * x for j, x in residue.items()}
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def reduced_rows(self) -> dict:
        """The reduced row echelon form of the span with rightmost pivots,
        ``{pivot: row}`` in ascending order of pivot: each row has 1 at its
        pivot and 0 at every other pivot.  The pivots are walked in
        ascending order, and each row subtracts the already reduced rows at
        the other pivot columns it holds.  A reduced row is nonzero only at
        its pivot and left of it off the pivots, so a subtraction clears
        its column and touches no other pivot entry: one pass is enough."""
        reduced = {}
        for p in sorted(self.echelon):
            row = dict(self.echelon[p])
            for k in [k for k in row if k in reduced]:
                _subtract(row, row[k], reduced[k])
            reduced[p] = row
        return reduced

    def within(self, tails: dict) -> bool:
        """Whether the span lies inside the span of a basis in free-column
        form, given by its ``_free_column_tails``.  A vector x lies in that
        span exactly when x is the combination of the basis vectors with
        its own entries at their columns as coefficients, so each row is
        checked entry for entry, off those columns."""
        for row in self.echelon.values():
            rest = {j: x for j, x in row.items() if j not in tails}
            for c, f in row.items():
                tail = tails.get(c)
                if tail:
                    _subtract(rest, f, tail)
            if rest:
                return False
        return True


def _leftmost_rows(rows, width: int) -> dict:
    """The reduced row echelon form of ``rows`` with leftmost pivots,
    ``{pivot: row}``: the mirror of the reduced rows of the rows with their
    ``width`` columns reversed."""
    last = width - 1
    mirrored = _RowSpace(row[::-1] for row in rows).reduced_rows()
    return {last - p: {last - j: x for j, x in row.items()} for p, row in mirrored.items()}


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns (rank, reduced matrix, pivot column indices).  The reduced
    matrix has the nonzero rows in pivot order followed by zero rows, so it
    keeps the shape of m.
    """
    reduced = _leftmost_rows(m.entries, m.cols)
    pivots = tuple(sorted(reduced))
    rows = [[_ZERO] * m.cols for _ in range(m.rows)]
    for dense, p in zip(rows, pivots):
        for j, x in reduced[p].items():
            dense[j] = x
    return len(pivots), Matrix._trusted(tuple(map(tuple, rows)), m.cols), pivots


def kernel_basis(m: Matrix) -> list:
    """Deterministic basis of the null space, one vector per free column."""
    return _free_column_kernel(_leftmost_rows(m.entries, m.cols), m.cols)


def _free_column_kernel(reduced: dict, cols: int) -> list:
    """The null space basis of the reduced rows ``reduced``, ``{pivot:
    row}`` over ``cols`` columns: one vector per free column j, with 1 at j,
    0 at the other free columns, and minus ``reduced[p][j]`` at each pivot
    p.  Row p is 0 at every other pivot, so that entry makes it vanish.
    With leftmost pivots this is the basis of ``kernel_basis``."""
    basis = []
    for j in range(cols):
        if j in reduced:
            continue
        v = [_ZERO] * cols
        v[j] = _ONE
        for p, row in reduced.items():
            x = row.get(j)
            if x is not None:
                v[p] = -x
        basis.append(tuple(v))
    return basis


def _free_column_tails(vectors):
    """For a basis in free-column form, {column: tail} in order, or None
    when ``vectors`` are not in that form.

    In free-column form each vector has its own rightmost nonzero column,
    the vectors come in ascending order of it, the entry there is 1, and
    every other vector of the basis vanishes there.  ``kernel_basis`` gives
    its basis in this form.  A vector's tail is its nonzeros left of its
    column, ``{column: entry}``; no tail meets a column of the basis."""
    tails = {}
    last = -1
    for v in vectors:
        c = len(v) - 1
        while c >= 0 and not v[c]:
            c -= 1
        if c <= last or v[c] != 1:
            return None
        tail = {j: x for j, x in enumerate(v[:c]) if x}
        if not tails.keys().isdisjoint(tail):
            return None
        tails[c] = tail
        last = c
    return tails


def _free_column_form(vectors) -> list:
    """The basis of span(vectors) in free-column form (see
    ``_free_column_tails``): the reduced row echelon form with rightmost
    pivots, in ascending order of pivot.  It is unique, so it is read off
    the echelon of the vectors as they come."""
    if not vectors:
        return []
    width = len(vectors[0])
    out = []
    for row in _RowSpace(vectors).reduced_rows().values():
        dense = [_ZERO] * width
        for j, x in row.items():
            dense[j] = x
        out.append(tuple(dense))
    return out


def quotient_basis(z_vectors, b_vectors) -> list:
    """Representatives for span(z) / span(b).

    The inclusion span(b) <= span(z) is verified, not assumed.  Returned
    representatives are actual members of ``z_vectors`` chosen greedily in
    input order, so the answer is deterministic and visibly lives in span(z).
    """
    z_vectors = [tuple(_coerce_rational(x) for x in v) for v in z_vectors]
    b_vectors = [tuple(_coerce_rational(x) for x in v) for v in b_vectors]
    lengths = {len(v) for v in z_vectors} | {len(v) for v in b_vectors}
    if len(lengths) > 1:
        raise InputError("vectors of unequal length")

    span_z = _RowSpace(z_vectors)
    for i, v in enumerate(b_vectors):
        if not span_z.contains(v):
            raise NotASubspaceError(
                "second span is not contained in the first", vector_index=i
            )

    accum = _RowSpace(b_vectors)
    return [v for v in z_vectors if accum.add(v)]


def solve(m: Matrix, rhs: Sequence):
    """One exact solution of m x = rhs with free variables set to zero,
    or None when the system is inconsistent."""
    if len(rhs) != m.rows:
        raise InputError("right-hand side length does not match matrix rows")
    rhs = [_coerce_rational(x) for x in rhs]
    reduced = _leftmost_rows((row + (b,) for row, b in zip(m.entries, rhs)), m.cols + 1)
    if m.cols in reduced:
        return None
    x = [_ZERO] * m.cols
    for p, row in reduced.items():
        x[p] = row.get(m.cols, _ZERO)
    return tuple(x)
