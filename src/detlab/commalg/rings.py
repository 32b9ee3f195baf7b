"""Exact sparse multivariate polynomials over QQ or a prime field.

Coefficients are ints reduced mod p over F_p.  In characteristic zero a
coefficient is an int when its value is integral and a `fractions.Fraction`
with denominator > 1 otherwise.  `PolyRing.coeff` is the one normalization
into that format, and arithmetic has one idiom: add plain `+`/`*` results in
one dict, then normalize each sum once, dropping zeros (`PolyRing.coeffs`).
The one exception is the Groebner engine's reduction loops, which reduce mod
p inline and normalize characteristic-zero sums at the engine's exit.
Monomials are exponent tuples.  All variables sit in degree one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add


def integral(c):
    """A rational as a characteristic-zero coefficient: an int or an integral
    `Fraction` becomes an int, any other `Fraction` is returned unchanged."""
    return c.numerator if c.denominator == 1 else c


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PolyRing:
    nvars: int
    char: int = 0
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.nvars < 0:
            raise ValueError("negative variable count")
        if self.char != 0 and not _is_prime(self.char):
            raise ValueError(f"characteristic {self.char} is not prime")
        if not self.names:
            object.__setattr__(self, "names", tuple(f"x{i}" for i in range(self.nvars)))
        elif len(self.names) != self.nvars:
            raise ValueError("wrong number of variable names")

    # -- coefficient field ---------------------------------------------------
    def coeff(self, value):
        """`value` as a coefficient: the one normalization, applied once to
        each plain sum (only the Groebner engine's reduction loops reduce
        inline).  Takes an int or a `Fraction`; any other type, a float or
        a string included, raises TypeError.  Over F_p, a/b is
        a * b^-1 mod p, and ZeroDivisionError is raised when p divides b."""
        p = self.char
        if type(value) is int:
            return value % p if p else value
        if type(value) is not Fraction:
            raise TypeError(f"coefficient {value!r}: use an int or a Fraction")
        if not p:
            return integral(value)
        if value.denominator % p == 0:
            raise ZeroDivisionError(f"{value} has no value mod {p}")
        return value.numerator * pow(value.denominator, p - 2, p) % p

    def coeffs(self, sums: dict) -> dict:
        """The nonzero coefficients of a dict of plain `+`/`*` sums, each
        normalized once by `coeff`: how every sum outside the Groebner
        engine's reduction loops ends."""
        coeff = self.coeff
        return {k: c for k, s in sums.items() if (c := coeff(s))}

    def coeff_inv(self, a):
        if self.char:
            if a % self.char == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.char - 2, self.char)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return integral(1 / Fraction(a))

    @property
    def zero_mono(self) -> tuple[int, ...]:
        return (0,) * self.nvars

    # -- polynomial constructors ----------------------------------------------
    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = self.coeff(c)
        return Polynomial(self, {self.zero_mono: c} if c else {})

    def variable(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise ValueError(f"no variable {i}")
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {mono: self.coeff(1)})


class Terms:
    """Sparse dict from key to nonzero coefficient, with the sums that
    `Polynomial` (monomial keys) and `Vector` ((position, monomial) keys)
    share."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = acc.get(k, 0) + c
        return type(self)(self.ring, self.ring.coeffs(acc))

    def __neg__(self):
        return type(self)(self.ring, self.ring.coeffs({k: -c for k, c in self.terms.items()}))

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.terms == other.terms


class Polynomial(Terms):
    """Sparse polynomial: dict from exponent tuple to nonzero coefficient."""

    __slots__ = ()

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if other.ring != self.ring:
            raise ValueError(f"product of polynomials over {self.ring} and {other.ring}")
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                acc[m] = acc.get(m, 0) + c1 * c2
        return Polynomial(self.ring, self.ring.coeffs(acc))

    def scaled(self, c) -> "Polynomial":
        ring = self.ring
        c = ring.coeff(c)
        return Polynomial(ring, ring.coeffs({m: v * c for m, v in self.terms.items()}))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items(), key=lambda t: (-sum(t[0]), t[0])):
            mono = "*".join(
                f"{self.ring.names[i]}^{e}" if e > 1 else self.ring.names[i]
                for i, e in enumerate(m)
                if e
            )
            if mono:
                bits.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits)

    __repr__ = __str__


def poly_det(rows: list[list[Polynomial]]) -> Polynomial:
    """Determinant of a small square polynomial matrix by Laplace expansion."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    ring = rows[0][0].ring
    if n == 1:
        return rows[0][0]
    acc: dict = {}
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        sign = -1 if j % 2 else 1
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        for m, c in (entry * poly_det(minor)).terms.items():
            acc[m] = acc.get(m, 0) + sign * c
    return Polynomial(ring, ring.coeffs(acc))
