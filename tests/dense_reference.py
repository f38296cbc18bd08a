"""Dense Gauss-Jordan elimination, kept only as a test oracle.

This is the row reduction the package once ran on every query: dense rows,
pivot in the leftmost column that has a nonzero, taken from the first such
row.  The differential tests compare the sparse kernel in ``linalg`` with
it.  Kernel bases, quotient representatives and solutions are rebuilt here
from this one loop, so they share no code with the package.
"""

from algebroids import NotASubspaceError


def dense_rref(rows, domain, ncols):
    """(rank, reduced rows as tuples, pivot columns) of the given rows."""
    z = domain.zero
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
        inv = domain.one / rows[r][c]
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
    _, red, pivots = dense_rref(m.entries, m.domain, m.cols)
    z, o = m.domain.zero, m.domain.one
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
    aug = [tuple(row) + (m.domain.coerce(b),) for row, b in zip(m.entries, rhs)]
    _, red, pivots = dense_rref(aug, m.domain, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [m.domain.zero] * m.cols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][m.cols]
    return tuple(x)


def dense_quotient_basis(z_vectors, b_vectors, domain):
    """Greedy representatives of span(z) / span(b) in input order, by rank
    counts: v is kept when it raises the rank of b plus the kept vectors."""
    width = len((list(z_vectors) + list(b_vectors) or [()])[0])

    def rank(vectors):
        return dense_rref(vectors, domain, width)[0]

    z_vectors = [tuple(v) for v in z_vectors]
    base = rank(z_vectors)
    for i, v in enumerate(b_vectors):
        if rank(z_vectors + [tuple(v)]) > base:
            raise NotASubspaceError(
                "second span is not contained in the first", vector_index=i
            )
    kept = [tuple(v) for v in b_vectors]
    reps = []
    for v in z_vectors:
        if rank(kept + [v]) > rank(kept):
            kept.append(v)
            reps.append(v)
    return reps
