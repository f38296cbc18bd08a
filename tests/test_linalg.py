import random
from fractions import Fraction

import pytest

from algebroids import (
    Complex,
    DomainMismatchError,
    FormalLog,
    GF2,
    InputError,
    Matrix,
    NotASubspaceError,
    SingularMatrixError,
    kernel_basis,
    quotient_basis,
    rref,
    solve,
    torus_model,
    trivial_system,
)
from algebroids.local_systems import MAX_SYM_RANK

from conftest import rand_invertible_matrix


def test_matrix_identity_and_zeros():
    i2 = Matrix.identity(2)
    assert i2.is_identity()
    assert Matrix.zeros(2, 3).is_zero()
    assert i2 * i2 == i2


def test_identities_up_to_the_largest_fiber_are_shared(monkeypatch):
    """One identity object per rank up to MAX_SYM_RANK, so two trivial
    lines over one model compare by identity on every edge, and call no
    matrix or complex comparison that is not of an object with itself."""
    for n in range(MAX_SYM_RANK + 1):
        assert Matrix.identity(n) is Matrix.identity(n)
        assert Matrix.identity(n).is_identity()
    past = MAX_SYM_RANK + 1
    assert Matrix.identity(past) == Matrix.identity(past)
    assert Matrix.identity(past) is not Matrix.identity(past)
    torus = torus_model()
    first, second = trivial_system(torus, 1), trivial_system(torus, 1)
    compared = []
    for cls in (Matrix, Complex):
        original = cls.__eq__
        monkeypatch.setattr(cls, "__eq__", lambda a, b, eq=original: compared.append((a, b)) or eq(a, b))
    assert first is not second and first == second
    assert all(a is b for a, b in compared)


@pytest.mark.parametrize("rows, cols", [(0, 5), (5, 0), (0, 0), (2, 3)])
def test_transpose_swaps_the_shape_of_degenerate_matrices(rows, cols):
    t = Matrix.zeros(rows, cols).transpose()
    assert (t.rows, t.cols) == (cols, rows)
    assert t == Matrix.zeros(cols, rows)
    assert t.transpose() == Matrix.zeros(rows, cols)


def test_matrix_shapes_are_checked():
    with pytest.raises(InputError):
        Matrix([[1, 2], [3]])
    with pytest.raises(InputError):
        Matrix([], cols=None)
    with pytest.raises(InputError):
        Matrix([[1, 2]]) + Matrix([[1], [2]])
    with pytest.raises(InputError):
        Matrix([[1, 2]]) * Matrix([[1, 2]])


def test_domain_mixing_rejected():
    with pytest.raises(DomainMismatchError):
        Matrix([[GF2(1)]])
    with pytest.raises(DomainMismatchError):
        Matrix([[1]]).apply([GF2(1)])
    with pytest.raises(DomainMismatchError):
        Matrix([[0.5]])
    with pytest.raises(DomainMismatchError):
        Matrix([[True]])


def test_inverse_round_trip():
    m = Matrix([[2, 1], [1, 1]])
    assert m * m.inverse() == Matrix.identity(2)
    assert m.inverse() * m == Matrix.identity(2)


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrixError):
        Matrix([[1, 2], [2, 4]]).inverse()
    with pytest.raises(SingularMatrixError):
        Matrix([[1, 2]]).inverse()


def test_power_negative_exponent():
    m = Matrix([[2]])
    assert m.power(3) == Matrix([[8]])
    assert m.power(-2) == Matrix([[Fraction(1, 4)]])
    assert m.power(0).is_identity()


@pytest.mark.parametrize("rows", [
    [[Fraction(2, 3), Fraction(-5, 7)], [Fraction(3, 4), Fraction(1, 5)]],
    [[Fraction(1, 2), Fraction(2, 3), Fraction(-1, 4)],
     [Fraction(-3, 5), Fraction(1, 7), Fraction(5, 6)],
     [Fraction(2), Fraction(-1, 3), Fraction(4, 9)]],
])
def test_power_equals_repeated_product(rows):
    m = Matrix(rows)
    inv = m.inverse()
    for k in range(-6, 7):
        expected = Matrix.identity(m.rows)
        for _ in range(abs(k)):
            expected = expected * (m if k > 0 else inv)
        assert m.power(k) == expected, k
    # the first power is m itself: repeated squaring starts from no
    # identity product
    assert m.power(1) is m


def test_kron_mixed_product_rule():
    a = Matrix([[1, 2], [0, 1]])
    b = Matrix([[3]])
    c = Matrix([[1, 1], [2, 0]])
    d = Matrix([[2]])
    assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)


def test_rref_is_deterministic_and_reduced():
    m = Matrix([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    rank, red, pivots = rref(m)
    assert rank == 2
    assert pivots == (0, 1)
    assert red.entries[0] == (Fraction(1), Fraction(0), Fraction(-1))
    assert red.entries[1] == (Fraction(0), Fraction(1), Fraction(2))


def test_kernel_basis_annihilates():
    m = Matrix([[1, 2, 3], [2, 4, 6]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in m.apply(v))


def test_kernel_of_empty_matrices():
    assert kernel_basis(Matrix([], cols=3)) == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]
    assert kernel_basis(Matrix([(), ()], cols=0)) == []


def test_quotient_basis_counts():
    z = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    b = [(2, 2, 0)]
    reps = quotient_basis(z, b)
    assert len(reps) == 1
    assert reps[0] in z


def test_quotient_basis_rejects_non_subspace():
    with pytest.raises(NotASubspaceError):
        quotient_basis([(1, 0)], [(0, 1)])


def test_solve_consistent_and_inconsistent():
    m = Matrix([[1, 2], [3, 4]])
    x = solve(m, (5, 11))
    assert m.apply(x) == (Fraction(5), Fraction(11))
    assert solve(Matrix([[1, 1], [1, 1]]), (0, 1)) is None
    assert solve(Matrix([(), ()], cols=0), (0, 0)) == ()


def test_random_inverse_consistency():
    rng = random.Random(101)
    for _ in range(20):
        m = rand_invertible_matrix(rng, 3)
        assert m * m.inverse() == Matrix.identity(3)
        assert m.rank() == 3


def test_gf2_arithmetic():
    one, zero = GF2(1), GF2(0)
    assert one + one == zero
    assert one - one == zero
    assert -one == one
    assert one * one == one
    assert one / one == one
    with pytest.raises(ZeroDivisionError):
        one / zero
    assert GF2(7) == one


def test_formal_log_factorization():
    l12 = FormalLog.of(12)
    assert l12.coefficient(2) == 2
    assert l12.coefficient(3) == 1
    assert l12.coefficient(5) == 0
    assert l12.primes() == (2, 3)
    # sign is discarded: the log tracks |q|
    l = FormalLog.of(Fraction(-3, 4))
    assert (l.primes(), l.coefficient(2), l.coefficient(3)) == ((2, 3), -2, 1)
    assert FormalLog.of(1).primes() == ()
    with pytest.raises(ZeroDivisionError):
        FormalLog.of(0)


P61 = 2**61 - 1
P31, Q31 = 2**31 - 1, 2147483629


@pytest.mark.parametrize("q, expected", [
    # a 61-bit prime: Miller-Rabin, no trial division up to its root
    (P61, {P61: 1}),
    # a 62-bit semiprime of two 31-bit primes, and a prime square: Pollard rho
    (P31 * Q31, {P31: 1, Q31: 1}),
    (Fraction(7, P31 * P31), {7: 1, P31: -2}),
    # small factors, then a large prime cofactor
    (Fraction(-(2**5) * 3 * 997 * P61, 1009 * 5**3), {2: 5, 3: 1, 997: 1, P61: 1, 1009: -1, 5: -3}),
    # every factor small: no size bound applies
    (2**200 * 3**50, {2: 200, 3: 50}),
], ids=["prime61", "semiprime62", "prime-square", "mixed", "smooth"])
def test_formal_log_factors_large_integers(q, expected):
    log = FormalLog.of(q)
    assert log.primes() == tuple(sorted(expected))
    assert {p: log.coefficient(p) for p in log.primes()} == expected


def test_formal_log_factors_random_products():
    rng = random.Random(61)
    primes = [2, 3, 997, 1009, 65537, 2147483647, 4294967291, 1000000007]
    for _ in range(40):
        expected = {p: rng.randint(-2, 2) for p in rng.sample(primes, 3)}
        expected = {p: e for p, e in expected.items() if e}
        q = Fraction(1)
        for p, e in expected.items():
            q *= Fraction(p) ** e
        # the part without factors below 1000 must stay within 64 bits
        big = Fraction(1)
        for p, e in expected.items():
            if p > 1000:
                big *= Fraction(p) ** e
        if max(big.numerator.bit_length(), big.denominator.bit_length()) > 64:
            continue
        log = FormalLog.of(q)
        assert {p: log.coefficient(p) for p in log.primes()} == expected


def test_formal_log_rejects_a_large_cofactor():
    with pytest.raises(InputError) as err:
        FormalLog.of(Fraction(3, 2**89 - 1))
    assert err.value.details["bits"] == 89


def test_coprime_base_refines_products_into_coprime_parts():
    """Every value is a product of powers of the base, the base is pairwise
    coprime, and products of large primes split into the primes whenever
    each also occurs apart from the others."""
    from math import gcd

    from algebroids.linalg import _coprime_base

    rng = random.Random(1993)
    primes = [2, 3, 5, 997, 65537, 2147483647, 2305843009213693951, 18446744073709551557]
    for _ in range(30):
        values = []
        for _ in range(rng.randint(1, 5)):
            n = 1
            for p in rng.sample(primes, rng.randint(0, 3)):
                n *= p ** rng.randint(1, 3)
            values.append(n)
        base = _coprime_base(values)
        assert all(b > 1 for b in base)
        assert all(gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1 :])
        for n in values:
            for b in base:
                while n % b == 0:
                    n //= b
            assert n == 1
    big_a, big_b = primes[-2], primes[-1]
    assert sorted(_coprime_base([big_a * big_b, big_a])) == [big_a, big_b]
    assert _coprime_base([big_a * big_b]) == [big_a * big_b]
    assert _coprime_base([1, 1]) == []
