from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foursub.errors import DivisionByZero, ParseError, UnsupportedField
from foursub.fields import (
    GF,
    QQ,
    FieldSpec,
    Poly,
    _is_prime,
    format_poly,
    is_irreducible,
    monic_irreducibles,
    parse_poly,
    poly_factor_list,
    poly_power,
)

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


class TestFieldSpec:
    def test_from_name(self):
        assert FieldSpec.from_name("F2") == F2
        assert FieldSpec.from_name("F101").p == 101
        assert FieldSpec.from_name("Q") == QQ

    def test_from_name_rejects_garbage(self):
        # ASCII digits only: re's \d and int() also take other scripts' digits
        for bad in ["F4", "F1", "F", "q", "GF2", "2", "F-3", "F٥", "F+5", "F5_0", "F²"]:
            with pytest.raises(ParseError):
                FieldSpec.from_name(bad)

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError):
            GF(6)

    def test_primality_matches_a_sieve(self):
        limit = 200_000
        sieve = bytearray([1]) * limit
        sieve[0] = sieve[1] = 0
        for d in range(2, int(limit**0.5) + 1):
            if sieve[d]:
                sieve[d * d :: d] = bytearray(len(range(d * d, limit, d)))
        assert [n for n in range(limit) if _is_prime(n)] == [
            n for n in range(limit) if sieve[n]
        ]

    def test_primality_rejects_pseudoprimes(self):
        # 561 and 41041 are Carmichael numbers; 3215031751 is a strong
        # pseudoprime to the bases 2, 3, 5 and 7, 3825123056546413051 to
        # every prime base up to 23
        for n in (561, 41041, 3215031751, 3825123056546413051):
            assert not _is_prime(n)
            with pytest.raises(ValueError):
                GF(n)
        assert _is_prime(2**61 - 1) and _is_prime(10000000000000061)

    def test_field_sizes_past_the_exact_bound_rejected(self):
        # the Miller-Rabin bases 2..37 are proved exact only below 3.18e23
        big = 318665857834031151167461
        with pytest.raises(ValueError):
            GF(big)
        with pytest.raises(ParseError):
            FieldSpec.from_name(f"F{big}")
        with pytest.raises(ParseError):
            FieldSpec.from_name("F" + "7" * 5000)

    def test_prime_arithmetic(self):
        assert F2.add(1, 1) == 0
        assert F5.inv(3) == 2
        assert F5.mul(3, F5.inv(3)) == 1
        assert F3.neg(1) == 2
        assert F5.div(1, 4) == 4

    def test_rational_arithmetic(self):
        a = QQ.convert(Fraction(2, 3))
        b = QQ.convert(Fraction(1, 6))
        assert QQ.add(a, b) == Fraction(5, 6)
        assert QQ.inv(Fraction(-4, 7)) == Fraction(-7, 4)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            F3.inv(0)
        with pytest.raises(DivisionByZero):
            QQ.div(1, 0)

    def test_elements(self):
        assert list(F3.elements()) == [0, 1, 2]
        with pytest.raises(UnsupportedField):
            QQ.elements()

    def test_parse_scalar(self):
        assert F5.parse_scalar("-1") == 4
        assert QQ.parse_scalar("3/4") == Fraction(3, 4)
        with pytest.raises(ParseError):
            QQ.parse_scalar("3/0")
        with pytest.raises(ParseError):
            F2.parse_scalar("x")
        for bad in ["١", "-٣", "1/٢", "+1", "1_0", "²", "3/0٢"]:
            with pytest.raises(ParseError):
                F5.parse_scalar(bad)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
@settings(deadline=None, max_examples=60)
def test_prime_field_axioms(p, a, b, c):
    f = GF(p)
    a, b, c = a % p, b % p, c % p
    assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1


class TestPoly:
    def test_normalization(self):
        p = Poly.make(F2, [1, 1, 0, 0])
        assert p.coeffs == (1, 1)
        assert p.degree == 1
        assert Poly.zero(F3).degree == -1

    def test_arithmetic(self):
        t = Poly.t(F3)
        assert (t * t).coeffs == (0, 0, 1)
        p = parse_poly(F3, "t+1") * parse_poly(F3, "t+2")  # t^2 + 3t + 2 = t^2 + 2
        assert p.coeffs == (2, 0, 1)
        assert p.scale(2).coeffs == (1, 0, 2) and p.scale(2).monic() == p

    def test_poly_power(self):
        p = parse_poly(F2, "t+1")
        assert poly_power(p, 2).coeffs == (1, 0, 1)  # (t+1)^2 = t^2+1 over F2
        with pytest.raises(ValueError):
            poly_power(p, 0)

    def test_eval(self):
        p = parse_poly(F5, "t^2+3t+1")
        assert p.eval(2) == (4 + 6 + 1) % 5

    def test_parse_format_roundtrip(self):
        for field, text in [
            (F2, "t^2+t+1"),
            (F3, "t^3+2t+1"),
            (QQ, "t^2+1"),
            (QQ, "t^2-1/2t+3"),
        ]:
            p = parse_poly(field, text)
            assert parse_poly(field, format_poly(p)) == p

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_poly(F2, "t^^2")
        with pytest.raises(ParseError):
            parse_poly(F2, "")
        with pytest.raises(ParseError):
            parse_poly(F2, "u+1")
        for bad in ["t+١", "t^٢+1", "٢t+1", "t^²", "t+1_0", "t+1\n"]:
            with pytest.raises(ParseError):
                parse_poly(F5, bad)


class TestIrreducibility:
    def test_known_values_f2(self):
        assert is_irreducible(parse_poly(F2, "t^2+t+1"))
        assert not is_irreducible(parse_poly(F2, "t^2+1"))  # (t+1)^2
        assert is_irreducible(parse_poly(F2, "t^3+t+1"))
        assert not is_irreducible(parse_poly(F2, "t^4+t^2+1"))

    def test_known_values_f3(self):
        assert is_irreducible(parse_poly(F3, "t^2+1"))
        assert not is_irreducible(parse_poly(F3, "t^2+2"))  # (t+1)(t+2)

    def test_rationals(self):
        assert is_irreducible(parse_poly(QQ, "t^2+1"))
        assert not is_irreducible(parse_poly(QQ, "t^2-1"))
        assert is_irreducible(parse_poly(QQ, "t^3-2"))
        assert not is_irreducible(parse_poly(QQ, "t^3+1"))
        with pytest.raises(UnsupportedField):
            is_irreducible(parse_poly(QQ, "t^4+1"))

    def test_degree_one_always(self):
        assert is_irreducible(parse_poly(F2, "t"))
        assert is_irreducible(parse_poly(QQ, "t-7"))

    def test_rejects_nonmonic_and_constant(self):
        with pytest.raises(ValueError):
            is_irreducible(Poly.make(F3, [1, 2]))  # 2t+1 not monic
        with pytest.raises(ValueError):
            is_irreducible(Poly.one(F2))

    def test_monic_irreducibles_counts(self):
        # Classical counts: deg 2 over F_p has (p^2-p)/2 irreducibles.
        assert len(monic_irreducibles(F2, 1)) == 2
        assert len(monic_irreducibles(F2, 2)) == 1
        assert len(monic_irreducibles(F3, 2)) == 3
        assert len(monic_irreducibles(F2, 3)) == 2

    def test_factor_list(self):
        p = parse_poly(F2, "t^4+t^2+1")  # = (t^2+t+1)^2 over F2
        assert poly_factor_list(p) == ((parse_poly(F2, "t^2+t+1"), 2),)
        q = parse_poly(QQ, "t^2-1")
        factors = dict(poly_factor_list(q))
        assert factors == {parse_poly(QQ, "t-1"): 1, parse_poly(QQ, "t+1"): 1}


@given(st.integers(0, 2**12))
@settings(deadline=None, max_examples=40)
def test_factorization_multiplies_back_f3(n):
    coeffs = []
    while n:
        coeffs.append(n % 3)
        n //= 3
    coeffs.append(1)  # force monic, degree >= 1
    p = Poly.make(F3, coeffs)
    prod = Poly.one(F3)
    for q, e in poly_factor_list(p):
        prod = prod * poly_power(q, e)
    assert prod == p
