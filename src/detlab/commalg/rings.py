"""Exact sparse multivariate polynomials over QQ or a prime field.

Coefficients are `fractions.Fraction` in characteristic zero and plain ints
reduced mod p otherwise; monomials are exponent tuples.  All variables sit in
degree one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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
        if self.char:
            return int(value) % self.char
        if isinstance(value, Fraction):
            return value
        return Fraction(value)

    def coeff_add(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def coeff_mul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def coeff_neg(self, a):
        return (-a) % self.char if self.char else -a

    def coeff_inv(self, a):
        if self.char:
            if a % self.char == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.char - 2, self.char)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    @property
    def zero_mono(self) -> tuple[int, ...]:
        return (0,) * self.nvars

    # -- polynomial constructors ----------------------------------------------
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

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

    def monomial(self, expo, c=1) -> "Polynomial":
        c = self.coeff(c)
        return Polynomial(self, {tuple(expo): c} if c else {})


class Polynomial:
    """Sparse polynomial: dict from exponent tuple to nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def __add__(self, other: "Polynomial") -> "Polynomial":
        ring = self.ring
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = ring.coeff_add(out.get(m, 0), c)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(ring, out)

    def __neg__(self) -> "Polynomial":
        ring = self.ring
        return Polynomial(ring, {m: ring.coeff_neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        ring = self.ring
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = ring.coeff_add(out.get(m, 0), ring.coeff_mul(c1, c2))
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(ring, out)

    def scaled(self, c) -> "Polynomial":
        ring = self.ring
        c = ring.coeff(c)
        if not c:
            return ring.zero()
        return Polynomial(ring, {m: ring.coeff_mul(v, c) for m, v in self.terms.items()})

    def evaluate(self, point):
        """Exact evaluation at a point (list of field elements)."""
        ring = self.ring
        total = ring.coeff(0)
        for m, c in self.terms.items():
            val = c
            for i, e in enumerate(m):
                for _ in range(e):
                    val = ring.coeff_mul(val, point[i])
            total = ring.coeff_add(total, val)
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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
    total = ring.zero()
    for j in range(n):
        entry = rows[0][j]
        if entry.is_zero():
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sub = poly_det(minor)
        term = entry * sub
        total = total + (term if j % 2 == 0 else -term)
    return total
