"""Scalar arithmetic, canonicalisation and serialisation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permod.ring import (
    GF,
    QQ,
    ZZ,
    RingError,
    RingSpec,
    is_prime,
    primitive_int_vector,
)


def test_ring_names_round_trip():
    for ring in (QQ, ZZ, GF(2), GF(97)):
        assert RingSpec.from_name(ring.name) == ring


def test_prime_modulus_checked():
    with pytest.raises(RingError):
        GF(4)
    with pytest.raises(RingError):
        GF(1)
    GF(2), GF(3), GF(7919)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == primes


def test_is_prime_matches_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert all(is_prime(n) == trial(n) for n in range(10**5))


def test_is_prime_large_and_pseudoprimes():
    assert is_prime(2**61 - 1)
    assert RingSpec.from_name("GF(2305843009213693951)").p == 2**61 - 1
    # Carmichael numbers and a strong pseudoprime to the bases 2, 3, 5, 7
    for n in (561, 41041, 3215031751):
        assert not is_prime(n)
    with pytest.raises(RingError):
        GF(2**89 - 1)  # prime, but beyond the range the test is exact on


def test_unknown_kind_rejected():
    with pytest.raises(RingError):
        RingSpec("R")
    with pytest.raises(RingError):
        RingSpec("Q", 5)


def test_normalize_canonical():
    assert QQ.normalize(Fraction(2, 4)) == Fraction(1, 2)
    assert GF(5).normalize(-3) == 2
    assert GF(5).normalize(Fraction(1, 2)) == 3  # inverse of 2 mod 5
    assert ZZ.normalize(Fraction(6, 3)) == 2
    with pytest.raises(RingError):
        ZZ.normalize(Fraction(1, 2))
    with pytest.raises(RingError):
        GF(5).normalize(Fraction(1, 5))


def test_parse_format():
    assert QQ.parse("3/2") == Fraction(3, 2)
    assert QQ.format(Fraction(-1, 3)) == "-1/3"
    assert GF(2).parse("1 mod 2") == 1
    assert GF(2).format(1) == "1 mod 2"
    assert GF(3).parse("5") == 2
    assert ZZ.parse("-7") == -7
    with pytest.raises(RingError):
        QQ.parse("1/0")
    with pytest.raises(RingError):
        GF(3).parse("1 mod 5")
    with pytest.raises(RingError):
        ZZ.parse("3/2")
    with pytest.raises(RingError):
        QQ.parse("0.5")


@given(st.fractions(max_denominator=50))
def test_q_round_trip(q):
    assert QQ.parse(QQ.format(q)) == q


@given(st.integers(-10**6, 10**6))
def test_z_round_trip(n):
    assert ZZ.parse(ZZ.format(n)) == n


@given(st.integers(0, 6))
def test_gf7_round_trip(r):
    ring = GF(7)
    assert ring.parse(ring.format(r)) == r


def test_field_arithmetic():
    ring = GF(7)
    assert ring.neg(0) == 0


def test_primitive_int_vector():
    assert primitive_int_vector([Fraction(1, 2), Fraction(-1, 3)]) == [3, -2]
    assert primitive_int_vector([Fraction(-2), Fraction(4)]) == [1, -2]
    assert primitive_int_vector([]) == []
