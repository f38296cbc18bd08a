"""Answer checks for the benchmark, computed without calling the program.

Every check takes the program's stdout (the ``--json`` report) together
with the inputs the benchmark generated, and raises ``OracleError`` naming
the first disagreement.  The expected values come from closed forms on the
torus, from exact elimination on the small holonomy matrices done here, or
from invariants that any correct answer satisfies (closedness on the
triangles, linearity in omega, invariance under a coboundary shift).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction


class OracleError(AssertionError):
    """The program's answer disagrees with the oracle."""


def fail(message: str):
    raise OracleError(message)


# --- exact elimination on small matrices -------------------------------------


def rank(rows) -> int:
    """Rank over the rationals, by plain Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def transpose(m):
    return [list(col) for col in zip(*m)]


def matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def fixed_space_dim(matrices) -> int:
    """dim of {v : M v = v for every M}, i.e. n - rank of the stacked M - I."""
    n = len(matrices[0])
    stacked = []
    for m in matrices:
        for i in range(n):
            stacked.append([m[i][j] - (1 if i == j else 0) for j in range(n)])
    return n - rank(stacked)


def sym_power(m, k: int):
    """Action of m on degree-k polynomials in n variables, where m sends the
    variable x_j to sum_i m[i][j] x_i; columns indexed by sorted exponent
    tuples."""
    n = len(m)
    monomials = list(itertools.combinations_with_replacement(range(n), k))
    index = {w: i for i, w in enumerate(monomials)}
    out = [[Fraction(0)] * len(monomials) for _ in monomials]
    for col, word in enumerate(monomials):
        terms = {(): Fraction(1)}
        for j in word:
            nxt = {}
            for key, coeff in terms.items():
                for i in range(n):
                    if m[i][j] != 0:
                        new = tuple(sorted(key + (i,)))
                        nxt[new] = nxt.get(new, 0) + coeff * m[i][j]
            terms = nxt
        for key, coeff in terms.items():
            out[index[key]][col] += coeff
    return out


# --- the torus grid, built here from its definition ---------------------------


def torus_triangles(rows: int, cols: int) -> list:
    """Triangles of the grid torus: each cell (r, c) split along its
    down-right diagonal, vertices numbered r * cols + c."""
    def vid(r, c):
        return (r % rows) * cols + (c % cols)

    out = set()
    for r in range(rows):
        for c in range(cols):
            a, b, d, e = vid(r, c), vid(r, c + 1), vid(r + 1, c + 1), vid(r + 1, c)
            out.add(tuple(sorted((a, b, d))))
            out.add(tuple(sorted((a, e, d))))
    return sorted(out)


def torus_edges(rows: int, cols: int) -> list:
    return sorted({e for t in torus_triangles(rows, cols) for e in itertools.combinations(t, 2)})


def loop_a(cols: int) -> tuple:
    """Row 0 of the grid, left to right and back to vertex 0."""
    return tuple(range(cols)) + (0,)


def loop_b(rows: int, cols: int) -> tuple:
    """Column 0 of the grid, top to bottom and back to vertex 0."""
    return tuple(r * cols for r in range(rows)) + (0,)


def loop_sum(values: dict, path) -> Fraction:
    """Sum an edge cochain along a vertex path; edges missing from
    ``values`` (the spanning-tree edges) count as zero."""
    total = Fraction(0)
    for u, w in zip(path, path[1:]):
        if u < w:
            total += values.get((u, w), 0)
        else:
            total -= values.get((w, u), 0)
    return total


# --- number theory ------------------------------------------------------------


def valuation(q: Fraction, p: int) -> int:
    """Exponent of the prime p in the nonzero rational q."""
    v = 0
    n, d = abs(q.numerator), q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


# --- parsing helpers ----------------------------------------------------------


def parse_report(stdout: str) -> dict:
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError as exc:
        fail(f"stdout is not one JSON document: {exc}")
    if not isinstance(data, dict) or data.get("schema_version") != "1":
        fail("report is not a schema_version 1 object")
    return data


def rational(text) -> Fraction:
    if not isinstance(text, str) or "/" not in text:
        fail(f"expected an 'n/d' rational, got {text!r}")
    return Fraction(text)


def edge_of(key: str) -> tuple:
    parts = key.split("_")
    if len(parts) != 3 or parts[0] != "edge":
        fail(f"malformed generator key {key!r}")
    return int(parts[1]), int(parts[2])


# --- dims_grid ----------------------------------------------------------------


def rank1_dims(a: Fraction, b: Fraction) -> tuple:
    """Twisted cohomology of the torus with rank-1 holonomy (a, b): the
    trivial system has (1, 2, 1), every other one has nothing."""
    pq = int(a == 1 and b == 1)
    return (pq, 2 * pq, pq)


def commuting_dims(a, b) -> tuple:
    """dims for a commuting pair of holonomy matrices on the torus.  H0 is
    the common fixed space; by Poincare duality with the dual system H2 is
    the common fixed space of the transposes; chi = 0 gives H1."""
    h0 = fixed_space_dim([a, b])
    h2 = fixed_space_dim([transpose(a), transpose(b)])
    return (h0, h0 + h2, h2)


def check_dims(stdout: str, expected: tuple, rank_: int) -> None:
    data = parse_report(stdout)
    if data.get("rank") != rank_:
        fail(f"rank {data.get('rank')!r}, expected {rank_}")
    want = {str(n): d for n, d in enumerate(expected)}
    if data.get("dims") != want:
        fail(f"dims {data.get('dims')!r}, expected {want}")


# --- classes_torus -------------------------------------------------------------


def _check_edge_class(name, values, triangles, modulus=None):
    for i, j, k in triangles:
        s = values.get((i, j), 0) + values.get((j, k), 0) - values.get((i, k), 0)
        if (s % modulus if modulus else s) != 0:
            fail(f"{name} is not closed on triangle {(i, j, k)}")


def valuation_table(a: Fraction, b: Fraction, primes) -> dict:
    """prime -> (v_p(a), v_p(b)) for the primes with a nonzero entry;
    ``primes`` must hold every prime dividing a or b."""
    table = {p: (valuation(a, p), valuation(b, p)) for p in sorted(set(primes))}
    for i, q in enumerate((a, b)):
        rest = abs(q)
        for p, v in table.items():
            rest /= Fraction(p) ** v[i]
        if rest != 1:
            raise ValueError(f"{q} has a prime factor outside {sorted(table)}")
    return {p: v for p, v in table.items() if v != (0, 0)}


def _check_classes_core(data: dict, a: Fraction, b: Fraction, table: dict) -> None:
    """Checks shared by char-classes: generators, sign bits, log classes and
    image dims on the 3x3 torus."""
    rows = cols = 3
    edges = torus_edges(rows, cols)
    triangles = torus_triangles(rows, cols)
    gens = [edge_of(k) for k in data.get("generators", [])]
    vertices = rows * cols
    if len(gens) != len(edges) - (vertices - 1) or not set(gens) <= set(edges):
        fail("generators are not the non-tree edges of the 3x3 torus")
    la, lb = loop_a(cols), loop_b(rows, cols)

    sign = data.get("sign")
    if not isinstance(sign, list) or len(sign) != len(gens):
        fail("sign bits do not match the generators")
    bits = dict(zip(gens, sign))
    _check_edge_class("sign class", bits, triangles, modulus=2)
    got = (loop_sum(bits, la) % 2, loop_sum(bits, lb) % 2)
    if got != (int(a < 0), int(b < 0)):
        fail(f"sign class pairs to {got} on the loops, expected {(int(a < 0), int(b < 0))}")

    logs = data.get("logs", {})
    if sorted(int(p) for p in logs) != sorted(table):
        fail(f"log classes for primes {sorted(logs)}, expected {sorted(table)}")
    for p, want in table.items():
        values = dict(zip(gens, (rational(x) for x in logs[str(p)])))
        _check_edge_class(f"log class p={p}", values, triangles)
        got = (loop_sum(values, la), loop_sum(values, lb))
        if got != want:
            fail(f"log class p={p} pairs to {got} on the loops, expected {want}")

    r = rank(list(table.values())) if table else 0
    want_dims = {"1": r, "2": int(r == 2)}
    if data.get("image_dims") != want_dims:
        fail(f"image dims {data.get('image_dims')!r}, expected {want_dims}")


def check_certificate(data: dict, table: dict) -> None:
    """The surjectivity verdict and certificate against the valuation table:
    loop duals sum to the unit vectors, the fundamental term pairs to 1."""
    surjective = rank(list(table.values())) == 2 if table else False
    if data.get("surjective") is not surjective:
        fail(f"surjective {data.get('surjective')!r}, expected {surjective}")
    certs = data.get("certificate")
    if not surjective:
        if certs != []:
            fail("a non-surjective answer carries a certificate")
        return
    targets = [c.get("target") for c in certs]
    if targets != ["a_dual", "b_dual", "fundamental"]:
        fail(f"certificate targets {targets}")
    for cert, unit in zip(certs[:2], ((1, 0), (0, 1))):
        total = [Fraction(0), Fraction(0)]
        for term in cert["terms"]:
            (p,) = term["primes"]
            coeff = rational(term["coefficient"])
            if p not in table:
                fail(f"{cert['target']} uses prime {p} with no log class")
            total[0] += coeff * table[p][0]
            total[1] += coeff * table[p][1]
        if tuple(total) != unit:
            fail(f"{cert['target']} sums to {tuple(total)}, expected {unit}")
    terms = certs[2]["terms"]
    if len(terms) != 1:
        fail("the fundamental certificate must have one term")
    p, q = terms[0]["primes"]
    if p not in table or q not in table:
        fail("the fundamental certificate uses a prime with no log class")
    det = table[p][0] * table[q][1] - table[p][1] * table[q][0]
    if rational(terms[0]["coefficient"]) * det != 1:
        fail(f"fundamental term {terms[0]} does not pair to 1")


def check_char_classes(stdout: str, a: Fraction, b: Fraction, primes) -> None:
    """``char-classes --check-surjectivity --json`` on builtin:torus; the
    benchmark built a and b from ``primes``, so it knows their factors."""
    data = parse_report(stdout)
    table = valuation_table(a, b, primes)
    _check_classes_core(data, a, b, table)
    check_certificate(data, table)


def check_surjectivity(stdout: str, a: Fraction, b: Fraction, primes) -> None:
    """``surjectivity --json`` on builtin:torus."""
    check_certificate(parse_report(stdout), valuation_table(a, b, primes))


# --- chern_weil_rank2 ---------------------------------------------------------


def section_counts(a, b, max_k: int) -> list:
    """dims of the invariant sections of Sym^k of the dual: the common fixed
    space of Sym^k of the transposed holonomy (the inverse does not change a
    fixed space)."""
    out = []
    for k in range(max_k + 1):
        mats = [sym_power(transpose(a), k), sym_power(transpose(b), k)]
        out.append(fixed_space_dim(mats))
    return out


def check_chern_weil(outputs: list, a, b, max_k: int = 2) -> None:
    """Three reports for one representation: omega1, omega2 and
    omega1 + omega2 + d(eta).  Section counts come from the holonomy; the
    k = 1 classes of the third must be the sum of the first two, which
    holds only if the classes are additive in omega and blind to the
    coboundary."""
    counts = section_counts(a, b, max_k)
    k1 = []
    for stdout in outputs:
        powers = parse_report(stdout).get("powers", {})
        if sorted(powers) != [str(k) for k in range(max_k + 1)]:
            fail(f"powers {sorted(powers)}")
        for k in range(max_k + 1):
            entry = powers[str(k)]
            if entry.get("invariant_sections") != counts[k]:
                fail(f"k={k}: {entry.get('invariant_sections')} invariant sections, expected {counts[k]}")
            classes = entry.get("classes")
            if not isinstance(classes, list) or len(classes) != counts[k]:
                fail(f"k={k}: one class per invariant section expected")
            width = {0: 1, 1: 1}.get(k, 0)  # H^0 and H^2 of the torus are lines
            if any(len(c) != width for c in classes):
                fail(f"k={k}: classes must have {width} coordinates")
        if powers["0"]["classes"] != [["1/1"]]:
            fail(f"k=0 classes {powers['0']['classes']}, expected [['1/1']]")
        k1.append([rational(c[0]) for c in powers["1"]["classes"]])
    c1, c2, combined = k1
    if combined != [x + y for x, y in zip(c1, c2)]:
        fail("k=1 classes are not additive in omega, or move with a coboundary")


def check_repeat(first: str, again: str) -> None:
    if first != again:
        fail("the same query printed different bytes on repetition")
