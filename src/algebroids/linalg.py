"""Exact linear algebra over pluggable scalar domains.

Three scalar domains are supported: arbitrary-precision rationals
(``fractions.Fraction``), the two-element field ``GF2``, and ``FormalLog``,
the rational vector space spanned by the symbols log p for p prime.  All
arithmetic is exact; there is no floating point and no tolerance anywhere in
this package.

Matrices are stored dense, but all row reduction goes through one sparse
kernel, ``_RowSpace``: rows are ``{column: nonzero}`` dicts kept in fully
reduced row echelon form, each vector is reduced against them in a single
pass, and each row's pivot is its leftmost nonzero.  ``rref``,
``kernel_basis``, ``quotient_basis``, ``solve``, ``Matrix.rank`` and
``Matrix.inverse`` are thin wrappers over it.  The reduced row echelon form
of a matrix is unique, so ranks, pivots, the free-column kernel basis, the
greedy quotient representatives and the zero-free-variable solutions are
fixed by the input alone: they are reproducible across runs and platforms
and do not depend on the order of elimination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DomainMismatchError,
    InputError,
    NotASubspaceError,
    SingularMatrixError,
)


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


def _prime_factors(n: int) -> dict:
    """Factor a positive integer by trial division.  Inputs here are the
    numerators and denominators of holonomy values, so they stay small."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


class FormalLog:
    """A finite rational combination of the symbols log p, p prime.

    ``FormalLog.of(q)`` encodes log |q| for a nonzero rational q through the
    prime factorization of q, so additivity log(q1*q2) = log q1 + log q2
    holds exactly and the symbols log p stay linearly independent over the
    rationals for free.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        for p, c in (coeffs or {}).items():
            c = Fraction(c)
            if c:
                clean[int(p)] = c
        self.coeffs = clean

    @classmethod
    def of(cls, q) -> "FormalLog":
        q = Fraction(q)
        if q == 0:
            raise ZeroDivisionError("log of zero")
        coeffs: dict = {}
        for p, e in _prime_factors(abs(q.numerator)).items():
            coeffs[p] = coeffs.get(p, 0) + e
        for p, e in _prime_factors(q.denominator).items():
            coeffs[p] = coeffs.get(p, 0) - e
        return cls(coeffs)

    def coefficient(self, p: int) -> Fraction:
        return self.coeffs.get(p, Fraction(0))

    def primes(self) -> tuple:
        return tuple(sorted(self.coeffs))

    def __add__(self, other):
        if not isinstance(other, FormalLog):
            return NotImplemented
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, Fraction(0)) + c
        return FormalLog(out)

    def __sub__(self, other):
        if not isinstance(other, FormalLog):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return FormalLog({p: -c for p, c in self.coeffs.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return FormalLog({p: c * scalar for p, c in self.coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self.coeffs
        return isinstance(other, FormalLog) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "FormalLog(0)"
        parts = [f"{c}*log({p})" for p, c in sorted(self.coeffs.items())]
        return "FormalLog(" + " + ".join(parts) + ")"


def _coerce_rational(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise DomainMismatchError(
        f"cannot coerce {type(x).__name__} into the rational domain"
    )


def _coerce_bit(x):
    if isinstance(x, GF2):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return GF2(x)
    raise DomainMismatchError(f"cannot coerce {type(x).__name__} into GF(2)")


def _coerce_log(x):
    if isinstance(x, FormalLog):
        return x
    if x == 0 and isinstance(x, int):
        return FormalLog()
    raise DomainMismatchError(
        f"cannot coerce {type(x).__name__} into the formal-log domain"
    )


class Domain:
    """Tag object describing one scalar domain usable in matrices."""

    __slots__ = ("name", "zero", "one", "is_field", "coerce")

    def __init__(self, name, zero, one, is_field, coerce):
        self.name = name
        self.zero = zero
        self.one = one
        self.is_field = is_field
        self.coerce = coerce

    def __repr__(self):
        return f"Domain({self.name})"


RATIONALS = Domain("rational", Fraction(0), Fraction(1), True, _coerce_rational)
BITS = Domain("bit", GF2(0), GF2(1), True, _coerce_bit)
LOGS = Domain("formal-log", FormalLog(), None, False, _coerce_log)


class Matrix:
    """Immutable dense matrix over a single scalar domain."""

    __slots__ = ("rows", "cols", "domain", "entries")

    def __init__(self, entries: Iterable[Iterable], domain: Domain = RATIONALS, cols: int | None = None):
        coerced = tuple(tuple(domain.coerce(x) for x in row) for row in entries)
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
        self.domain = domain
        self.entries = coerced

    @classmethod
    def identity(cls, n: int, domain: Domain = RATIONALS) -> "Matrix":
        if domain.one is None:
            raise DomainMismatchError(f"{domain.name} has no multiplicative identity")
        z, o = domain.zero, domain.one
        return cls([[o if i == j else z for j in range(n)] for i in range(n)], domain)

    @classmethod
    def zeros(cls, rows: int, cols: int, domain: Domain = RATIONALS) -> "Matrix":
        z = domain.zero
        return cls([[z] * cols for _ in range(rows)], domain, cols=cols)

    @classmethod
    def diagonal(cls, values: Sequence, domain: Domain = RATIONALS) -> "Matrix":
        n = len(values)
        z = domain.zero
        return cls(
            [[values[i] if i == j else z for j in range(n)] for i in range(n)], domain
        )

    def _check_domain(self, other: "Matrix"):
        if self.domain.name != other.domain.name:
            raise DomainMismatchError(
                f"mixed scalar domains: {self.domain.name} and {other.domain.name}"
            )

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_domain(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("shape mismatch in matrix addition")
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
            self.domain,
            cols=self.cols,
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Matrix(
            [[-x for x in row] for row in self.entries], self.domain, cols=self.cols
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            self._check_domain(other)
            if self.cols != other.rows:
                raise InputError("shape mismatch in matrix product")
            z = self.domain.zero
            cols = tuple(zip(*other.entries)) if other.rows else ()
            out = []
            for row in self.entries:
                new = []
                for j in range(other.cols):
                    acc = z
                    for a, b in zip(row, (cols[j] if cols else ())):
                        acc = acc + a * b
                    new.append(acc)
                out.append(new)
            return Matrix(out, self.domain, cols=other.cols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "Matrix":
        s = self.domain.coerce(scalar)
        return Matrix(
            [[s * x for x in row] for row in self.entries], self.domain, cols=self.cols
        )

    def apply(self, vec: Sequence) -> tuple:
        if len(vec) != self.cols:
            raise InputError("vector length does not match matrix columns")
        v = [self.domain.coerce(x) for x in vec]
        z = self.domain.zero
        out = []
        for row in self.entries:
            acc = z
            for a, b in zip(row, v):
                acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.entries)) if self.rows else [], self.domain, cols=self.rows)

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    def rank(self) -> int:
        return rref(self)[0]

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise SingularMatrixError("only square matrices can be inverted")
        n = self.rows
        ident = Matrix.identity(n, self.domain)
        aug = Matrix(
            [list(r) + list(i) for r, i in zip(self.entries, ident.entries)],
            self.domain,
        )
        rank, red, pivots = rref(aug)
        # pivots escape into the identity block exactly when self is singular
        if rank < n or any(p >= n for p in pivots):
            raise SingularMatrixError("matrix is singular")
        return Matrix([row[n:] for row in red.entries], self.domain, cols=n)

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise InputError("matrix power needs a square matrix")
        base = self if k >= 0 else self.inverse()
        out = Matrix.identity(self.rows, self.domain)
        k = abs(k)
        # repeated squaring; powers of one matrix commute, so the exact
        # result equals the k-fold product
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def kron(self, other: "Matrix") -> "Matrix":
        self._check_domain(other)
        out = []
        for r1 in self.entries:
            for r2 in other.entries:
                out.append([a * b for a in r1 for b in r2])
        return Matrix(out, self.domain, cols=self.cols * other.cols)

    def is_zero(self) -> bool:
        z = self.domain.zero
        return all(x == z for row in self.entries for x in row)

    def is_identity(self) -> bool:
        if self.rows != self.cols or self.domain.one is None:
            return False
        z, o = self.domain.zero, self.domain.one
        return all(
            x == (o if i == j else z)
            for i, row in enumerate(self.entries)
            for j, x in enumerate(row)
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.domain.name == other.domain.name
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.domain.name, self.rows, self.cols, self.entries))

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

    Rows are ``{column: nonzero}`` dicts kept in fully reduced row echelon
    form: each row's pivot is its leftmost nonzero and equals one, and no
    other row has a nonzero in a pivot column.  A vector is reduced against
    the rows in a single pass, and a new row is eliminated from the old rows
    in its pivot column, so the form stays fully reduced after every
    ``add``.  The reduced row echelon form of a span is unique, so the rows
    do not depend on the order in which the vectors arrive.
    """

    def __init__(self, domain: Domain, vectors=()):
        if not domain.is_field:
            raise DomainMismatchError(
                f"row reduction needs a field domain, {domain.name} is not one"
            )
        self.domain = domain
        self.rows = {}  # pivot column -> row
        for vec in vectors:
            self.add(vec)

    def reduce(self, vec) -> dict:
        """The residue of vec modulo the row space: zero in every pivot
        column, returned as a new sparse dict."""
        v = {j: x for j, x in enumerate(vec) if x}
        rows = self.rows
        for p in [j for j in v if j in rows]:
            _subtract(v, v[p], rows[p])
        return v

    def add(self, vec) -> bool:
        """Add vec to the span; True when it was not in it already."""
        residue = self.reduce(vec)
        if not residue:
            return False
        p = min(residue)
        inv = self.domain.one / residue[p]
        new = {j: inv * x for j, x in residue.items()}
        for row in self.rows.values():
            f = row.get(p)
            if f is not None:
                _subtract(row, f, new)
        self.rows[p] = new
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns (rank, reduced matrix, pivot column indices).  The reduced
    matrix has the nonzero rows in pivot order followed by zero rows, so it
    keeps the shape of m.
    """
    space = _RowSpace(m.domain, m.entries)
    z = m.domain.zero
    pivots = tuple(sorted(space.rows))
    rows = [[z] * m.cols for _ in range(m.rows)]
    for dense, p in zip(rows, pivots):
        for j, x in space.rows[p].items():
            dense[j] = x
    return len(pivots), Matrix(rows, m.domain, cols=m.cols), pivots


def kernel_basis(m: Matrix) -> list:
    """Deterministic basis of the null space, one vector per free column."""
    space = _RowSpace(m.domain, m.entries)
    z, o = m.domain.zero, m.domain.one
    basis = []
    for j in range(m.cols):
        if j in space.rows:
            continue
        v = [z] * m.cols
        v[j] = o
        for p, row in space.rows.items():
            x = row.get(j)
            if x is not None:
                v[p] = -x
        basis.append(tuple(v))
    return basis


def quotient_basis(z_vectors, b_vectors, domain: Domain = RATIONALS) -> list:
    """Representatives for span(z) / span(b).

    The inclusion span(b) <= span(z) is verified, not assumed.  Returned
    representatives are actual members of ``z_vectors`` chosen greedily in
    input order, so the answer is deterministic and visibly lives in span(z).
    """
    z_vectors = [tuple(domain.coerce(x) for x in v) for v in z_vectors]
    b_vectors = [tuple(domain.coerce(x) for x in v) for v in b_vectors]
    lengths = {len(v) for v in z_vectors} | {len(v) for v in b_vectors}
    if len(lengths) > 1:
        raise InputError("vectors of unequal length")

    span_z = _RowSpace(domain, z_vectors)
    for i, v in enumerate(b_vectors):
        if not span_z.contains(v):
            raise NotASubspaceError(
                "second span is not contained in the first", vector_index=i
            )

    accum = _RowSpace(domain, b_vectors)
    return [v for v in z_vectors if accum.add(v)]


def solve(m: Matrix, rhs: Sequence):
    """One exact solution of m x = rhs with free variables set to zero,
    or None when the system is inconsistent."""
    if len(rhs) != m.rows:
        raise InputError("right-hand side length does not match matrix rows")
    rhs = [m.domain.coerce(x) for x in rhs]
    space = _RowSpace(m.domain, (row + (b,) for row, b in zip(m.entries, rhs)))
    if m.cols in space.rows:
        return None
    x = [m.domain.zero] * m.cols
    for p, row in space.rows.items():
        x[p] = row.get(m.cols, m.domain.zero)
    return tuple(x)
