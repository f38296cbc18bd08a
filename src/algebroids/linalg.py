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
kernel, ``_RowSpace``, whose rows are ``{column: nonzero}`` dicts in one of
two echelon forms.  ``rref``, ``kernel_basis``, ``solve``, ``Matrix.rank``
and ``Matrix.inverse`` read the canonical one, the fully reduced row
echelon form with each row's pivot at its leftmost nonzero.  It is unique,
so ranks, pivots, the free-column kernel basis and the zero-free-variable
solutions are fixed by the input alone: they are reproducible across runs
and platforms and do not depend on the order of elimination.  Callers that
read only a span, membership and residues, use the rank form: forward
elimination only, each row's pivot at its rightmost nonzero, and no
back-reduction.  ``quotient_basis`` is one.  The greedy representatives
depend only on spans, and a residue that vanishes on a given set of pivot
columns is unique, so what they return does not depend on the form either.
"""

from __future__ import annotations

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
        return cls._trusted(
            tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)), n
        )

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

    Rows are ``{column: nonzero}`` dicts, one per pivot column, and each
    row's pivot entry is one.  Two forms are kept:

    - **Rank form** (the default), for callers that read only the span:
      membership, ranks and residues.  Each row's pivot is its rightmost
      nonzero, and a new row is not eliminated from the old ones, so there
      is no back-reduction.  Subtracting a row with pivot p changes only
      columns at or left of p, so ``reduce`` clears the pivot columns of a
      vector from the right, through a max-heap of the ones it meets.
    - **Reduced form** (``reduced=True``), the canonical one that ``rref``,
      ``kernel_basis`` and ``solve`` print from: each row's pivot is its
      leftmost nonzero and no other row has a nonzero in a pivot column.  A
      vector is reduced in a single pass, and a new row is eliminated from
      the old rows in its pivot column.  The reduced row echelon form of a
      span is unique, so these rows do not depend on the order in which
      the vectors arrive.

    In either form the residue that ``reduce`` returns is the one vector
    that vanishes in every pivot column and differs from the input by a
    member of the span: two such residues differ by a member of the span
    that vanishes in every pivot column, and in an echelon basis the row
    with the extreme pivot of any nonzero combination is the only one with
    a nonzero in that column.  So what a caller reads of the span, and of
    residues against a fixed set of pivots, does not depend on the form.
    """

    def __init__(self, vectors=(), reduced=False):
        self.reduced = reduced
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
        if self.reduced:
            for p in [j for j in v if j in rows]:
                _subtract(v, v[p], rows[p])
            return v
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
        p = min(residue) if self.reduced else max(residue)
        inv = _ONE / residue[p]
        new = {j: inv * x for j, x in residue.items()}
        if self.reduced:
            for row in self.echelon.values():
                f = row.get(p)
                if f is not None:
                    _subtract(row, f, new)
        self.echelon[p] = new
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def copy(self) -> "_RowSpace":
        out = _RowSpace(reduced=self.reduced)
        out.echelon = {p: dict(row) for p, row in self.echelon.items()}
        return out


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns (rank, reduced matrix, pivot column indices).  The reduced
    matrix has the nonzero rows in pivot order followed by zero rows, so it
    keeps the shape of m.
    """
    space = _RowSpace(m.entries, reduced=True)
    pivots = tuple(sorted(space.echelon))
    rows = [[_ZERO] * m.cols for _ in range(m.rows)]
    for dense, p in zip(rows, pivots):
        for j, x in space.echelon[p].items():
            dense[j] = x
    return len(pivots), Matrix._trusted(tuple(map(tuple, rows)), m.cols), pivots


def kernel_basis(m: Matrix) -> list:
    """Deterministic basis of the null space, one vector per free column."""
    return _free_column_kernel(_RowSpace(m.entries, reduced=True), m.cols)


def _free_column_kernel(space: _RowSpace, cols: int) -> list:
    """The null space basis of a matrix whose rows span ``space`` and that
    has ``cols`` columns, read off either echelon form: one vector per free
    column j, with 1 at j, 0 at the other free columns, and at each pivot
    the value that makes its row vanish.  On the reduced form that is minus
    column j of the rows, the basis of ``kernel_basis``.  On the rank form
    a row's other nonzeros lie left of its pivot, so the pivots are solved
    for in ascending order; the vectors then span the same null space, but
    as another basis of it."""
    rows = space.echelon
    ascending = sorted(rows)
    basis = []
    for j in range(cols):
        if j in rows:
            continue
        v = [_ZERO] * cols
        v[j] = _ONE
        if space.reduced:
            for p in ascending:
                x = rows[p].get(j)
                if x is not None:
                    v[p] = -x
        else:
            for p in ascending:
                v[p] = -sum((x * v[k] for k, x in rows[p].items() if k != p), _ZERO)
        basis.append(tuple(v))
    return basis


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
    space = _RowSpace((row + (b,) for row, b in zip(m.entries, rhs)), reduced=True)
    if m.cols in space.echelon:
        return None
    x = [_ZERO] * m.cols
    for p, row in space.echelon.items():
        x[p] = row.get(m.cols, _ZERO)
    return tuple(x)
