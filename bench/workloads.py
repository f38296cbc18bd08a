"""Seeded query generation for the three benchmark workloads.

A workload is a sequence of rounds.  Every round has the same make-up (the
same kinds of case in the same order), and only the drawn values change, so
runs of any length and seed see the same mix of query shapes.  Round ``i``
depends on nothing but the workload name, the seed and ``i``.  A case is
one oracle unit: one or more CLI queries and the check of their answers.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

import oracles

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class Case:
    """CLI queries whose answers are checked together."""

    __slots__ = ("kind", "argvs", "check")

    def __init__(self, kind: str, argvs: list, check):
        self.kind = kind
        self.argvs = argvs
        self.check = check


# --- drawing values -----------------------------------------------------------


def small_rational(rng: random.Random) -> Fraction:
    """A signed p/q for distinct p, q in {3, 5, 7}.  Entry size drives the
    cost of exact elimination, so every draw has the same size."""
    p, q = rng.sample((3, 5, 7), 2)
    return Fraction(p, q) if rng.random() < 0.5 else -Fraction(p, q)


def identity(n: int) -> list:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def inverse(m: list) -> list:
    n = len(m)
    aug = [list(row) + e for row, e in zip(m, identity(n))]
    for c in range(n):
        p = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def conjugator(rng: random.Random, n: int) -> list:
    """D P D for the dense unimodular P = (I + strict upper ones)(I + strict
    lower ones) and a drawn diagonal sign matrix D.  Every draw is dense
    with entries of the same size, so the cost of a conjugated pair does not
    hinge on which conjugator came up."""
    upper = [[Fraction(int(j >= i)) for j in range(n)] for i in range(n)]
    lower = [[Fraction(int(j <= i)) for j in range(n)] for i in range(n)]
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    p = oracles.matmul(upper, lower)
    return [[signs[i] * p[i][j] * signs[j] for j in range(n)] for i in range(n)]


def conjugate_pair(rng: random.Random, a: list, b: list) -> tuple:
    """(P a P^-1, P b P^-1) for a drawn conjugator P; commuting stays."""
    p = conjugator(rng, len(a))
    pinv = inverse(p)
    return (oracles.matmul(oracles.matmul(p, a), pinv), oracles.matmul(oracles.matmul(p, b), pinv))


def unipotent_pair(rng: random.Random, n: int) -> tuple:
    """I + x N and I + y N with N the full nilpotent Jordan block."""
    pair = []
    for _ in range(2):
        x = small_rational(rng)
        m = identity(n)
        for i in range(n - 1):
            m[i][i + 1] = x
        pair.append(m)
    return conjugate_pair(rng, *pair)


def diagonal_pair(rng: random.Random, diag_a: list, diag_b: list) -> tuple:
    def diag(values):
        m = identity(len(values))
        for i, v in enumerate(values):
            m[i][i] = Fraction(v)
        return m

    return conjugate_pair(rng, diag(diag_a), diag(diag_b))


def prime_ratio(rng: random.Random, primes: list) -> Fraction:
    """A signed p1 p2 / p3 of the given primes.  The number of primes sets
    the number of log classes and so the cost of a query; it is fixed."""
    q = Fraction(primes[0] * primes[1], primes[2])
    return q if rng.random() < 0.5 else -q


# --- writing inputs -----------------------------------------------------------


def text(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def inline_rep(a, b) -> str:
    return f"a={text(a)},b={text(b)}"


def write_json(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def rep_document(a: list, b: list) -> dict:
    return {
        "schema_version": "1",
        "rank": len(a),
        "entries": {
            "a": [[text(x) for x in row] for row in a],
            "b": [[text(x) for x in row] for row in b],
        },
    }


def omega_document(values: dict) -> dict:
    return {
        "schema_version": "1",
        "degree": 2,
        "values": {
            "simplex_" + "_".join(map(str, t)): [text(x) for x in vec] for t, vec in values.items()
        },
    }


# --- workloads ----------------------------------------------------------------


class Workload:
    """Base: ``round(i)`` returns the cases of round i; files for round i
    are written under ``inputs`` with names that start ``r<i>_``."""

    name = ""

    def __init__(self, seed: int, inputs: str):
        self.seed = seed
        self.inputs = inputs

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{i}")

    def path(self, i: int, label: str) -> str:
        return os.path.join(self.inputs, f"r{i}_{label}.json")

    def warmup_argvs(self) -> list:
        """One fixed query per subcommand, independent of the seed."""
        raise NotImplementedError

    def round(self, i: int) -> list:
        raise NotImplementedError


def _dims_case(kind, argv, expected, rank_):
    return Case(kind, [argv], lambda outs: oracles.check_dims(outs[0], expected, rank_))


class DimsGrid(Workload):
    name = "dims_grid"

    def warmup_argvs(self):
        rep = write_json(os.path.join(self.inputs, "warmup_rep.json"), rep_document(identity(2), identity(2)))
        return [["cohomology", "--json", "--complex", "builtin:torus3x3", "--rep-file", rep]]

    def round(self, i):
        rng = self.rng(i)
        cases = []
        # an odd count with the 6x6 queries in the middle, so the median
        # query of a run falls inside one cluster of like queries
        rank1 = [
            ("torus5x5", lambda: (Fraction(1), small_rational(rng))),
            ("torus5x5", lambda: (Fraction(-1), small_rational(rng))),
            ("torus6x6", lambda: (small_rational(rng), small_rational(rng))),
            ("torus6x6", lambda: (small_rational(rng), small_rational(rng))),
            ("torus6x6", lambda: (small_rational(rng), small_rational(rng))),
        ]
        for grid, draw in rank1:
            a, b = draw()
            argv = ["cohomology", "--json", "--complex", f"builtin:{grid}", "--rep", inline_rep(a, b)]
            cases.append(_dims_case(f"{grid} rank 1", argv, oracles.rank1_dims(a, b), 1))
        s, t = small_rational(rng), small_rational(rng)
        rank2 = [
            ("unipotent", unipotent_pair(rng, 2)),
            ("diagonal, one trivial line", diagonal_pair(rng, [1, s], [1, t])),
        ]
        for j, (label, (a, b)) in enumerate(rank2):
            path = write_json(self.path(i, f"rep{j}"), rep_document(a, b))
            argv = ["cohomology", "--json", "--complex", "builtin:torus4x4", "--rep-file", path]
            cases.append(_dims_case(f"torus4x4 rank 2 {label}", argv, oracles.commuting_dims(a, b), 2))
        return cases


class ClassesTorus(Workload):
    name = "classes_torus"

    def warmup_argvs(self):
        return [
            ["char-classes", "--check-surjectivity", "--json", "--complex", "builtin:torus", "--rep", "a=2/1,b=3/1"],
            ["surjectivity", "--json", "--complex", "builtin:torus", "--rep", "a=2/1,b=3/1"],
        ]

    def _case(self, kind, a, b):
        rep = inline_rep(a, b)
        argvs = [
            ["char-classes", "--check-surjectivity", "--json", "--complex", "builtin:torus", "--rep", rep],
            ["surjectivity", "--json", "--complex", "builtin:torus", "--rep", rep],
        ]

        def check(outs):
            oracles.check_char_classes(outs[0], a, b, SMALL_PRIMES)
            oracles.check_surjectivity(outs[1], a, b, SMALL_PRIMES)

        return Case(kind, argvs, check)

    def round(self, i):
        rng = self.rng(i)
        cases = []
        for _ in range(3):
            p = rng.sample(SMALL_PRIMES, 6)
            cases.append(self._case("generic", prime_ratio(rng, p[:3]), prime_ratio(rng, p[3:])))
        p = rng.choice(SMALL_PRIMES)
        i_a, i_b = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([-3, -2, -1, 1, 2, 3])
        sign_a, sign_b = rng.choice([1, -1]), rng.choice([1, -1])
        cases.append(self._case("one prime", sign_a * Fraction(p) ** i_a, sign_b * Fraction(p) ** i_b))
        q = prime_ratio(rng, rng.sample(SMALL_PRIMES, 3))
        cases.append(self._case("equal", q, q))
        cases.append(self._case("a=1", Fraction(1), prime_ratio(rng, rng.sample(SMALL_PRIMES, 3))))
        return cases


def _random_omega(rng, triangles, rank_):
    return {t: [small_rational(rng) for _ in range(rank_)] for t in triangles}


def _coboundary_at_zero(eta: dict, triangles, rank_) -> dict:
    """d(eta) for a 1-cochain supported on edges (0, w).  Vertex 0 is the
    first vertex of every triangle it lies on, so no transport enters:
    (d eta)(0, v1, v2) = eta(0, v1) - eta(0, v2)."""
    zero = [Fraction(0)] * rank_
    out = {}
    for t in triangles:
        if t[0] == 0:
            e1, e2 = eta.get((0, t[1]), zero), eta.get((0, t[2]), zero)
            out[t] = [x - y for x, y in zip(e1, e2)]
    return out


class ChernWeilRank2(Workload):
    name = "chern_weil_rank2"

    def warmup_argvs(self):
        zero, one, two = Fraction(0), Fraction(1), Fraction(2)
        rep = write_json(os.path.join(self.inputs, "warmup_rep.json"), rep_document(
            [[one, one], [zero, one]], [[one, two], [zero, one]]))
        omega = write_json(os.path.join(self.inputs, "warmup_omega.json"), omega_document(
            {t: [one, zero] for t in oracles.torus_triangles(3, 3)}))
        return [["chern-weil", "--json", "--min-k", "0", "--max-k", "2", "--complex", "builtin:torus3x3",
                 "--rep-file", rep, "--omega", omega]]

    def round(self, i):
        rng = self.rng(i)
        u, v = small_rational(rng), small_rational(rng)
        # two cheap, two middle and two dear representations: the median
        # query of a run falls inside the middle pair
        groups = [
            (3, "rank 2 diagonal", diagonal_pair(rng, [u, 1 / u], [v, 1 / v])),
            (3, "rank 2 unipotent", unipotent_pair(rng, 2)),
            (4, "rank 2 unipotent", unipotent_pair(rng, 2)),
            (4, "rank 2 unipotent", unipotent_pair(rng, 2)),
            (3, "rank 3 unipotent", unipotent_pair(rng, 3)),
            (3, "rank 3 diagonal", diagonal_pair(rng, [1, v, 1 / v], [1, u, 1 / u])),
        ]
        cases = []
        for j, (n, label, (a, b)) in enumerate(groups):
            r = len(a)
            triangles = oracles.torus_triangles(n, n)
            rep = write_json(self.path(i, f"rep{j}"), rep_document(a, b))
            w1 = _random_omega(rng, triangles, r)
            w2 = _random_omega(rng, triangles, r)
            eta = {e: [small_rational(rng) for _ in range(r)]
                   for e in oracles.torus_edges(n, n) if e[0] == 0}
            d_eta = _coboundary_at_zero(eta, triangles, r)
            zero = [0] * r
            omegas = [w1, w2, {t: [x + y + z for x, y, z in zip(w1[t], w2[t], d_eta.get(t, zero))]
                               for t in triangles}]
            argvs = []
            for k, w in enumerate(omegas):
                path = write_json(self.path(i, f"omega{j}_{k}"), omega_document(w))
                argvs.append(["chern-weil", "--json", "--min-k", "0", "--max-k", "2",
                              "--complex", f"builtin:torus{n}x{n}", "--rep-file", rep, "--omega", path])
            cases.append(Case(f"torus{n}x{n} {label}", argvs,
                              lambda outs, a=a, b=b: oracles.check_chern_weil(outs, a, b)))
        return cases


WORKLOADS = {w.name: w for w in (DimsGrid, ClassesTorus, ChernWeilRank2)}
