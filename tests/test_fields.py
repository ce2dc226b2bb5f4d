import random
import time

import pytest

from quadlie.fields import GF, QQ, CharTwo, DivisionByZero, Field, FieldMismatch, _is_prime


def test_rational_arithmetic_examples():
    assert QQ(1) / QQ(2) + QQ(1) / QQ(3) == QQ(5) / QQ(6)
    assert QQ(5) / QQ(6) - QQ(1) / QQ(3) == QQ(1) / QQ(2)
    assert str(QQ(5) / QQ(6)) == "5/6"


def test_prime_field_inverse():
    F5 = GF(5)
    assert F5(2).inverse() == F5(3)
    assert F5(1) / F5(2) == F5(3)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ(1) / QQ(0)
    with pytest.raises(DivisionByZero):
        GF(7)(0).inverse()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        QQ(1) + GF(5)(1)


def test_canonical_representation():
    # reduced fraction with positive denominator; residues in [0, p)
    assert str(QQ(2) / QQ(-4)) == "-1/2"
    assert GF(7)(-1).v == 6
    assert GF(7)(15).v == 1


def test_field_interning():
    assert GF(5) is GF(5)
    assert QQ is not GF(5)
    with pytest.raises(ValueError):
        GF(6)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division_below_1000():
    for n in range(1000):
        assert _is_prime(n) == _trial_division(n), n


def test_large_prime_modulus_is_fast():
    start = time.perf_counter()
    F = Field(10**18 + 3)
    assert time.perf_counter() - start < 1.0
    assert F(-1).v == 10**18 + 2
    assert F(123456789).inverse() * F(123456789) == F.one
    assert (F(987654321) ** 2).sqrt() == F(987654321)


def test_composite_and_oversized_moduli_rejected():
    with pytest.raises(ValueError, match="prime"):
        Field(10**18 + 1)  # divisible by 101
    with pytest.raises(ValueError, match="2\\*\\*64"):
        Field(2**64 + 13)


def test_require_odd_char():
    with pytest.raises(CharTwo):
        GF(2).require_odd_char()
    GF(3).require_odd_char()
    QQ.require_odd_char()


def test_field_axioms_random_triples():
    rng = random.Random(0)
    for field, draw in [
        (QQ, lambda: QQ(rng.randint(-9, 9)) / QQ(rng.randint(1, 9))),
        (GF(7), lambda: GF(7)(rng.randrange(7))),
    ]:
        for _ in range(200):
            a, b, c = draw(), draw(), draw()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert a + (-a) == field.zero
            if a:
                assert a * a.inverse() == field.one


def test_is_square_examples():
    assert (QQ(4) / QQ(9)).is_square()
    assert not QQ(2).is_square()
    assert not QQ(-4).is_square()
    # brute-force oracle over GF(7)
    squares = {(x * x) % 7 for x in range(7)}
    for a in range(7):
        assert GF(7)(a).is_square() == (a in squares)
    assert GF(7)(2).is_square()  # 3^2 = 2 mod 7


def test_is_square_properties():
    rng = random.Random(1)
    for _ in range(100):
        a = QQ(rng.randint(-9, 9)) / QQ(rng.randint(1, 9))
        assert (a * a).is_square()
        b = GF(11)(rng.randrange(11))
        assert (b * b).is_square()
        # multiplying by a nonzero square preserves squareness
        s = GF(11)(rng.randrange(1, 11))
        assert (b * s * s).is_square() == b.is_square()


def test_sqrt():
    assert (QQ(4) / QQ(9)).sqrt() == QQ(2) / QQ(3)
    assert QQ(2).sqrt() is None
    s = GF(7)(2).sqrt()
    assert s is not None and s * s == GF(7)(2)
    assert GF(7)(3).sqrt() is None


def test_sqrt_prime_field_returns_root_in_lower_half():
    # p = 17 and 41 are 1 mod 8, the slowest case of the root finder
    for p in (3, 5, 13, 17, 41, 97):
        F = GF(p)
        for a in range(p):
            roots = [s for s in range(p) if s * s % p == a]
            got = F(a).sqrt()
            if roots:
                assert got is not None and got.v == min(roots), (p, a)
            else:
                assert got is None, (p, a)


def test_pow():
    assert QQ(2) ** 10 == QQ(1024)
    assert GF(5)(2) ** -1 == GF(5)(3)
    assert (QQ(2) / QQ(3)) ** -2 == QQ(9) / QQ(4)
