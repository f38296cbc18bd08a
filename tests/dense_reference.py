"""Dense Gauss-Jordan elimination and the coboundary simplex by simplex,
kept only as test oracles.

This is the row reduction the package once ran on every query: dense rows,
pivot in the leftmost column that has a nonzero, taken from the first such
row.  The differential tests compare the sparse kernel in ``linalg`` with
it.  Kernel bases, quotient representatives and solutions are rebuilt here
from this one loop, so they share no code with the package.  The
coboundary is summed face by face on each simplex, as the package once did,
so it shares no code with the package's sparse rows of d_n.
"""

from fractions import Fraction

from algebroids import NotASubspaceError, TwistedCochain


def dense_rref(rows, ncols):
    """(rank, reduced rows as tuples, pivot columns) of the given rows."""
    z = Fraction(0)
    rows = [list(r) for r in rows]
    nr = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nr):
            if rows[i][c] != z:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != z:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return r, tuple(tuple(row) for row in rows), tuple(pivots)


def dense_kernel_basis(m):
    """One null vector per free column, read off the reduced rows."""
    _, red, pivots = dense_rref(m.entries, m.cols)
    z, o = Fraction(0), Fraction(1)
    basis = []
    for j in range(m.cols):
        if j in pivots:
            continue
        v = [z] * m.cols
        v[j] = o
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][j]
        basis.append(tuple(v))
    return basis


def dense_solve(m, rhs):
    """The solution with free variables zero, or None if inconsistent."""
    aug = [tuple(row) + (Fraction(b),) for row, b in zip(m.entries, rhs)]
    _, red, pivots = dense_rref(aug, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][m.cols]
    return tuple(x)


def _new_columns(first, second, width):
    """The indices i of the vectors of ``second`` that are not in the span
    of ``first`` and second[:i]: the pivot columns of the matrix whose
    columns are the vectors of first, then second, past first."""
    columns = list(first) + list(second)
    rows = [tuple(v[j] for v in columns) for j in range(width)]
    _, _, pivots = dense_rref(rows, len(columns))
    return [p - len(first) for p in pivots if p >= len(first)]


def dense_quotient_basis(z_vectors, b_vectors):
    """Greedy representatives of span(z) / span(b) in input order: v is kept
    when it is not in the span of b and the vectors of z before it.  The
    first vector of b outside span(z) raises NotASubspaceError."""
    width = len((list(z_vectors) + list(b_vectors) or [()])[0])
    outside = _new_columns(z_vectors, b_vectors, width)
    if outside:
        raise NotASubspaceError(
            "second span is not contained in the first", vector_index=outside[0]
        )
    return [tuple(z_vectors[i]) for i in _new_columns(b_vectors, z_vectors, width)]


def reference_coboundary(phi):
    """d phi, one (n+1)-simplex tau at a time: T(tau_0, tau_1) times the
    value on the front face, plus (-1)^i times the value on the face without
    tau_i for each i >= 1."""
    L, n = phi.system, phi.degree
    out = {}
    for tau in L.base.simplices_of_dim(n + 1):
        acc = list(L.matrix(tau[0], tau[1]).apply(phi.value(tau[1:])))
        for i in range(1, n + 2):
            face_value = phi.value(tau[:i] + tau[i + 1 :])
            for a in range(L.rank):
                acc[a] += (-1) ** i * face_value[a]
        out[tau] = tuple(acc)
    return TwistedCochain(L, n + 1, out)
