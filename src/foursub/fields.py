"""Exact field arithmetic: prime fields F_p and the rationals.

Elements are represented by raw values (canonical residues ``0..p-1`` as
``int`` for prime fields, reduced :class:`fractions.Fraction` for the
rationals); :class:`FieldSpec` supplies the arithmetic on them.  Polynomials
over either field live here as well, including irreducibility testing and
the factorization helpers the decomposition machinery relies on.
"""

from __future__ import annotations

import itertools
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DivisionByZero,
    FieldMismatch,
    ParseError,
    UnsupportedField,
)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test on the prime bases 2 to 37, which
    decide every n below 318665857834031151167461 (about 3.18e23) exactly
    (Sorenson and Webster, 2015).  Larger n raise ValueError."""
    if n >= 318665857834031151167461:
        raise ValueError(f"field size {n} is too large (must be below 3.18e23)")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for a in bases:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
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


@dataclass(frozen=True)
class FieldSpec:
    """A supported base field: ``F_p`` for ``p`` prime, or the rationals.

    ``p is None`` denotes the rationals.
    """

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"field size {self.p} is not prime")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(p)

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(None)

    @staticmethod
    def from_name(name: str) -> "FieldSpec":
        """Parse a field flag: ``F<p>`` or ``Q``."""
        name = name.strip()
        if name == "Q":
            return FieldSpec(None)
        m = re.fullmatch(r"F([0-9]+)", name)
        if not m:
            raise ParseError(f"unknown field {name!r} (expected F<p> or Q)")
        try:
            return FieldSpec(int(m.group(1)))
        except ValueError as e:
            raise ParseError(str(e)) from None

    # -- basic queries ---------------------------------------------------

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    @property
    def name(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"

    def __str__(self) -> str:  # pragma: no cover - debugging nicety
        return self.name

    def elements(self):
        """Iterate all elements in canonical order (prime fields only)."""
        if self.p is None:
            raise UnsupportedField("cannot enumerate the rationals")
        return range(self.p)

    # -- raw arithmetic ----------------------------------------------------
    # Raw values: int residues (prime field) or Fraction (rationals).

    def zero(self):
        return 0 if self.p is not None else Fraction(0)

    def one(self):
        return 1 if self.p is not None else Fraction(1)

    def convert(self, x):
        """Coerce an integer (numpy integers included) or a Fraction into
        this field's raw form; any other type, float and str among them,
        raises TypeError."""
        if type(x) is int:  # the common case, first: one call per parsed entry
            return x % self.p if self.p is not None else Fraction(x)
        if isinstance(x, Fraction):
            if self.p is None:
                return Fraction(x)
            if x.denominator == 1:
                return x.numerator % self.p
            return self.div(x.numerator % self.p, x.denominator % self.p)
        if isinstance(x, numbers.Integral):
            return self.convert(int(x))
        raise TypeError(f"cannot convert {type(x).__name__} {x!r} to {self.name}")

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        if self.p is not None:
            return pow(a, self.p - 2, self.p)
        return 1 / a

    def div(self, a, b):
        if not b:
            raise DivisionByZero("division by zero")
        if self.p is not None:
            return (a * pow(b, self.p - 2, self.p)) % self.p
        return a / b

    # -- text form ---------------------------------------------------------

    def parse_scalar(self, text: str):
        """Parse ``-?digits`` or ``-?digits/digits`` into a raw value, with
        ASCII digits only."""
        text = text.strip()
        m = re.fullmatch(r"(-?[0-9]+)(?:/([1-9][0-9]*))?", text)
        if not m:
            raise ParseError(f"bad scalar {text!r}")
        num = int(m.group(1))
        if m.group(2) is None:
            return self.convert(num)
        den = int(m.group(2))
        if self.p is not None:
            return self.div(num % self.p, den % self.p)
        return Fraction(num, den)

    def format_scalar(self, a) -> str:
        return str(a)  # a Fraction prints as n or n/d


QQ = FieldSpec.rationals()


def GF(p: int) -> FieldSpec:
    """The prime field with ``p`` elements."""
    return FieldSpec.prime(p)


# ---------------------------------------------------------------------------
# Polynomials


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial over a :class:`FieldSpec`.

    ``coeffs`` holds raw field values, lowest degree first, with no trailing
    zeros; the zero polynomial has an empty coefficient tuple.
    """

    field: FieldSpec
    coeffs: tuple

    @staticmethod
    def make(field: FieldSpec, coeffs) -> "Poly":
        raw = [field.convert(c) for c in coeffs]
        while raw and not raw[-1]:
            raw.pop()
        return Poly(field, tuple(raw))

    @staticmethod
    def zero(field: FieldSpec) -> "Poly":
        return Poly(field, ())

    @staticmethod
    def one(field: FieldSpec) -> "Poly":
        return Poly.make(field, [1])

    @staticmethod
    def t(field: FieldSpec) -> "Poly":
        """The monic degree-1 polynomial with zero constant term."""
        return Poly.make(field, [0, 1])

    # -- queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            return self.field.zero()
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return not self.is_zero and self.leading == self.field.one()

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.field.zero()

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field.name} vs {other.field.name}")

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        if self.is_zero or other.is_zero:
            return Poly.zero(f)
        out = [f.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Poly.make(f, out)

    def scale(self, c) -> "Poly":
        f = self.field
        c = f.convert(c)
        return Poly.make(f, [f.mul(c, a) for a in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.field.inv(self.leading))

    def eval(self, x):
        """Evaluate at a raw field value (Horner)."""
        f = self.field
        acc = f.zero()
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def __str__(self) -> str:
        return format_poly(self)


def poly_power(p: Poly, s: int) -> Poly:
    """``p`` raised to a positive integer power ``s``."""
    if s < 1:
        raise ValueError(f"exponent must be positive, got {s}")
    out = p
    for _ in range(s - 1):
        out = out * p
    return out


# -- text form --------------------------------------------------------------

_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)(?P<coef>[0-9]+(?:/[1-9][0-9]*)?)?(?P<var>t(?:\^(?P<exp>[0-9]+))?)?"
)


def parse_poly(field: FieldSpec, text: str) -> Poly:
    """Parse polynomial text such as ``t^2+t+1``, ``t-1`` or ``2t^3+1/2``."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ParseError(f"bad polynomial {text!r}")
    coeffs: dict[int, object] = {}
    f = field
    for term in terms:
        m = _TERM_RE.fullmatch(term)
        if not m or (m.group("coef") is None and m.group("var") is None):
            raise ParseError(f"bad polynomial term {term!r} in {text!r}")
        coef_text = m.group("coef")
        if coef_text is None:
            c = f.one()
        else:
            c = f.parse_scalar(coef_text)
        if m.group("sign") == "-":
            c = f.neg(c)
        if m.group("var") is None:
            k = 0
        elif m.group("exp") is None:
            k = 1
        else:
            k = int(m.group("exp"))
        coeffs[k] = f.add(coeffs.get(k, f.zero()), c)
    deg = max(coeffs)
    return Poly.make(field, [coeffs.get(i, f.zero()) for i in range(deg + 1)])


def format_poly(p: Poly) -> str:
    """Render a polynomial in the same syntax :func:`parse_poly` accepts."""
    if p.is_zero:
        return "0"
    f = p.field
    parts: list[str] = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if not c:
            continue
        neg = (f.p is None) and c < 0
        mag = -c if neg else c
        if k == 0:
            body = f.format_scalar(mag)
        else:
            var = "t" if k == 1 else f"t^{k}"
            body = var if mag == f.one() else f"{f.format_scalar(mag)}{var}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("-" if neg else "+") + body)
    return "".join(parts)


# -- irreducibility -----------------------------------------------------------


def _monic_polys(field: FieldSpec, degree: int):
    """All monic polynomials of exactly the given degree over a prime field."""
    one = field.one()
    for tail in itertools.product(field.elements(), repeat=degree):
        yield Poly(field, tuple(tail) + (one,))


def is_irreducible(p: Poly, field: FieldSpec | None = None) -> bool:
    """Whether a monic polynomial of degree >= 1 is irreducible, by sympy
    (the factorization dependency), in any degree over F_p and Q."""
    if field is not None and field != p.field:
        raise FieldMismatch(f"{field.name} vs {p.field.name}")
    if not p.is_monic:
        raise ValueError("irreducibility is defined here for monic polynomials")
    if p.degree < 1:
        raise ValueError("irreducibility requires degree >= 1")
    if p.degree == 1:
        return True
    return _to_sympy(p).is_irreducible


@lru_cache(maxsize=None)
def monic_irreducibles(field: FieldSpec, degree: int) -> tuple[Poly, ...]:
    """All monic irreducible polynomials of the given degree (prime fields)."""
    if not field.is_prime_field:
        raise UnsupportedField("cannot enumerate irreducibles over the rationals")
    return tuple(p for p in _monic_polys(field, degree) if is_irreducible(p))


# -- factorization (via sympy; infrastructure for the splitting machinery) ---


def _to_sympy(p: Poly):
    import sympy

    t = sympy.Symbol("t")
    coeffs_high_first = list(reversed(p.coeffs))
    if p.field.is_prime_field:
        return sympy.Poly(coeffs_high_first, t, modulus=p.field.p, symmetric=False)
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in coeffs_high_first],
        t,
        domain="QQ",
    )


def _from_sympy(field: FieldSpec, sp) -> Poly:
    coeffs_high_first = sp.all_coeffs()
    if field.is_prime_field:
        raw = [int(c) % field.p for c in coeffs_high_first]
    else:
        raw = [Fraction(c.p, c.q) for c in coeffs_high_first]
    return Poly.make(field, list(reversed(raw)))


@lru_cache(maxsize=None)
def poly_factor_list(p: Poly) -> tuple[tuple[Poly, int], ...]:
    """Monic irreducible factorization of a monic polynomial.

    Returns ``((factor, multiplicity), ...)`` sorted by (degree, coefficients),
    so the result is deterministic.
    """
    if not p.is_monic:
        raise ValueError("factorization implemented for monic polynomials only")
    _, factors = _to_sympy(p).factor_list()
    out = []
    for sp, mult in factors:
        q = _from_sympy(p.field, sp).monic()
        out.append((q, int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, _poly_sort_key(fm[0])))
    return tuple(out)


def _poly_sort_key(p: Poly):
    if p.field.is_prime_field:
        return tuple(p.coeffs)
    return tuple((c.numerator, c.denominator) for c in p.coeffs)


def coprime_split(mu: Poly) -> tuple[Poly, Poly] | None:
    """Split a monic polynomial as ``A * B`` with gcd(A, B) = 1, both
    nonconstant, or return ``None`` when the polynomial is primary
    (a power of a single irreducible)."""
    if mu.degree < 2:
        return None
    factors = poly_factor_list(mu)
    if len(factors) < 2:
        return None
    head, mult = factors[0]
    a = poly_power(head, mult)
    b = Poly.one(mu.field)
    for q, m in factors[1:]:
        b = b * poly_power(q, m)
    return a, b
