"""Graded free modules, module elements, maps, and presentations.

Grading convention: a free module carries the degree of each basis generator.
A module element is homogeneous of degree d when every term (pos, mono)
satisfies deg(mono) + degrees[pos] = d.  A map is homogeneous of degree zero
when each column is homogeneous of the degree of its source generator, so a
nonzero entry at (row, col) has polynomial degree
source_degree(col) - target_degree(row).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .rings import Polynomial, PolyRing, Terms


@dataclass(frozen=True)
class FreeModule:
    ring: PolyRing
    degrees: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def basis_vector(self, pos: int) -> "Vector":
        return Vector(self.ring, {(pos, self.ring.zero_mono): self.ring.coeff(1)})


class Vector(Terms):
    """Element of a free module: dict from (position, exponent tuple) to coeff."""

    __slots__ = ()

    def component(self, pos: int) -> Polynomial:
        return Polynomial(
            self.ring, {m: c for (p, m), c in self.terms.items() if p == pos}
        )

    def degree(self, degrees: tuple[int, ...]) -> int:
        """Degree of a homogeneous vector; raises if not homogeneous."""
        degs = {sum(m) + degrees[p] for (p, m) in self.terms}
        if len(degs) > 1:
            raise ValueError(f"vector is not homogeneous: degrees {sorted(degs)}")
        return degs.pop() if degs else 0

    def poly_scaled(self, p: Polynomial) -> "Vector":
        acc: dict = {}
        for (pos, m1), c1 in self.terms.items():
            for m2, c2 in p.terms.items():
                t = (pos, tuple(map(add, m1, m2)))
                acc[t] = acc.get(t, 0) + c1 * c2
        return Vector(self.ring, self.ring.coeffs(acc))

    def shifted_positions(self, offset: int) -> "Vector":
        return Vector(self.ring, {(p + offset, m): c for (p, m), c in self.terms.items()})

    def __repr__(self):
        return f"Vector({dict(sorted(self.terms.items()))})"


@dataclass
class ModuleMap:
    """Map of graded free modules, stored as columns (images of source gens)."""

    source: FreeModule
    target: FreeModule
    columns: list[Vector]

    def __post_init__(self):
        if len(self.columns) != self.source.rank:
            raise ValueError("column count must match source rank")

    @staticmethod
    def from_entries(
        source: FreeModule, target: FreeModule, entries: list[list[Polynomial]]
    ) -> "ModuleMap":
        """entries[row][col], rows indexed by target generators."""
        ring = source.ring
        cols = []
        for c in range(source.rank):
            terms: dict = {}
            for r in range(target.rank):
                for m, v in entries[r][c].terms.items():
                    terms[(r, m)] = v
            cols.append(Vector(ring, terms))
        return ModuleMap(source, target, cols)

    def entry(self, row: int, col: int) -> Polynomial:
        return self.columns[col].component(row)

    def entries(self) -> list[list[Polynomial]]:
        return [
            [self.entry(r, c) for c in range(self.source.rank)]
            for r in range(self.target.rank)
        ]

    def apply(self, v: Vector) -> Vector:
        """Image of `v`: the products of its terms with the columns' terms
        are added as plain sums in one dict, and each sum becomes a ring
        coefficient once, zeros dropped, through `PolyRing.coeffs`.  That is
        the one arithmetic idiom outside the Groebner engine's reduction
        loops (see `rings`)."""
        ring = self.source.ring
        acc: dict = {}
        get = acc.get
        for (pos, m2), c2 in v.terms.items():
            for (p, m1), c1 in self.columns[pos].terms.items():
                t = (p, tuple(map(add, m1, m2)))
                acc[t] = get(t, 0) + c1 * c2
        return Vector(ring, ring.coeffs(acc))

    def compose(self, inner: "ModuleMap") -> "ModuleMap":
        """self o inner (inner applied first)."""
        cols = [self.apply(c) for c in inner.columns]
        return ModuleMap(inner.source, self.target, cols)

    def kronecker(self, other: "ModuleMap") -> "ModuleMap":
        """Tensor product of maps; indices are (self-major, other-minor)."""
        ring = self.source.ring
        s_degs = tuple(
            a + b for a in self.source.degrees for b in other.source.degrees
        )
        t_degs = tuple(
            a + b for a in self.target.degrees for b in other.target.degrees
        )
        src = FreeModule(ring, s_degs)
        tgt = FreeModule(ring, t_degs)
        t2 = other.target.rank
        cols = []
        for c1 in self.columns:
            for c2 in other.columns:
                acc: dict = {}
                for (p1, m1), v1 in c1.terms.items():
                    for (p2, m2), v2 in c2.terms.items():
                        t = (p1 * t2 + p2, tuple(map(add, m1, m2)))
                        acc[t] = acc.get(t, 0) + v1 * v2
                cols.append(Vector(ring, ring.coeffs(acc)))
        return ModuleMap(src, tgt, cols)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.columns)


@dataclass
class ModulePresentation:
    """Graded module given by generators and relations: coker of a map."""

    generators: FreeModule
    relations: ModuleMap

    def __post_init__(self):
        if self.relations.target.degrees != self.generators.degrees:
            raise ValueError("relations must land in the generator module")

    @property
    def ring(self) -> PolyRing:
        return self.generators.ring

    @property
    def gen_degrees(self) -> tuple[int, ...]:
        return self.generators.degrees

    @property
    def relation_vectors(self) -> list[Vector]:
        return self.relations.columns

    @staticmethod
    def from_relations(
        generators: FreeModule, vectors: list[Vector]
    ) -> "ModulePresentation":
        degs = tuple(v.degree(generators.degrees) for v in vectors)
        src = FreeModule(generators.ring, degs)
        return ModulePresentation(generators, ModuleMap(src, generators, list(vectors)))


@dataclass
class HilbertSeries:
    """numerator / (1-t)^denom_power with an integer Laurent numerator.

    Every series of one ring is computed over the same denominator
    (1-t)^nvars, so `+` and `==` work on numerators alone and raise
    ValueError when the denominators differ.  `canonical()` cancels the
    common (1-t) factors; its power is the Krull dimension."""

    numerator: dict[int, int]
    denom_power: int

    def __post_init__(self):
        self.numerator = {d: c for d, c in self.numerator.items() if c}

    def canonical(self) -> "HilbertSeries":
        num = self.numerator
        denom = self.denom_power
        while denom > 0 and num and sum(num.values()) == 0:
            expos = sorted(num)
            q: dict[int, int] = {}
            acc = 0
            for d in range(expos[0], expos[-1] + 1):
                acc += num.get(d, 0)
                if acc:
                    q[d] = acc
            num = q
            denom -= 1
        return HilbertSeries(num, denom)

    def shifted(self, k: int) -> "HilbertSeries":
        return HilbertSeries({d + k: c for d, c in self.numerator.items()}, self.denom_power)

    def _same_denominator(self, other: "HilbertSeries") -> None:
        if other.denom_power != self.denom_power:
            raise ValueError(f"series over (1-t)^{self.denom_power} and (1-t)^{other.denom_power}")

    def __add__(self, other: "HilbertSeries") -> "HilbertSeries":
        self._same_denominator(other)
        num = dict(self.numerator)
        for d, c in other.numerator.items():
            num[d] = num.get(d, 0) + c
        return HilbertSeries(num, self.denom_power)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        self._same_denominator(other)
        return self.numerator == other.numerator

    def __str__(self) -> str:
        num = " + ".join(
            f"{c}*t^{d}" for d, c in sorted(self.numerator.items())
        ) or "0"
        return f"({num}) / (1-t)^{self.denom_power}"


# ---------------------------------------------------------------------------
# JSON exchange format: polynomial = list of [coeff-string, exponent-array];
# maps = row-major nested lists plus source/target degree arrays.


def poly_to_json(p: Polynomial) -> list:
    return [[str(c), list(m)] for m, c in sorted(p.terms.items())]


def ring_to_json(ring: PolyRing) -> dict:
    return {"nvars": ring.nvars, "char": ring.char, "names": list(ring.names)}


def map_to_json(fmap: ModuleMap) -> dict:
    return {
        "source_degrees": list(fmap.source.degrees),
        "target_degrees": list(fmap.target.degrees),
        "matrix": [[poly_to_json(e) for e in row] for row in fmap.entries()],
    }


def presentation_to_json(pres: ModulePresentation) -> dict:
    return {
        "ring": ring_to_json(pres.ring),
        "generator_degrees": list(pres.gen_degrees),
        "relations": map_to_json(pres.relations),
    }
