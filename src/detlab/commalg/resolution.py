"""Minimal graded free resolutions and Betti tables.

A resolution steps through the image path that `wedge_module` and
`hom_module` use.  A relation with a constant entry marks a redundant
generator (for homogeneous relations the two are the same), so such a
module is first re-presented by `image_presentation` on the
`minimal_generators` of the basis modulo a Groebner basis of the relations;
`image_presentation` returns minimal relations, and any other module has its
own relations trimmed by `minimal_generators`.  Those relations are the
first differential, and each next one is the relation map of
`image_presentation` of the one before, until its source has rank 0.  Every
kernel is trimmed to minimal generators, so graded Nakayama makes the
resolution minimal; a constant entry left in a differential raises, as a
nonzero d∘d does, so both checks hold under `python -O`.

Trimming completes the Groebner basis of the kept relations only through
the degree being tested (`minimal_generators`), which is exact for these
homogeneous relations; no S-pair above the top candidate degree is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import BlockBasis, groebner, minimal_generators
from .homs import image_presentation
from .modules import FreeModule, HilbertSeries, ModuleMap, ModulePresentation, Vector


@dataclass
class Resolution:
    """Chain of maps F_k -> ... -> F_1 -> F_0 resolving coker(F_1 -> F_0)."""

    f0: FreeModule
    maps: list[ModuleMap]

    @property
    def length(self) -> int:
        return len(self.maps)

    def module(self, i: int) -> FreeModule:
        return self.f0 if i == 0 else self.maps[i - 1].source

    def betti(self) -> dict[tuple[int, int], int]:
        """(homological index, internal degree) -> rank."""
        out: dict[tuple[int, int], int] = {}
        for i in range(self.length + 1):
            for d in self.module(i).degrees:
                out[(i, d)] = out.get((i, d), 0) + 1
        return out

    def betti_ranks(self) -> list[int]:
        return [self.module(i).rank for i in range(self.length + 1)]

    def verify_complex(self) -> bool:
        for i in range(len(self.maps) - 1):
            if not self.maps[i].compose(self.maps[i + 1]).is_zero():
                return False
        return True

    def euler_series(self) -> HilbertSeries:
        """The alternating sum of the free modules' series, read off the
        Betti table over (1-t)^nvars; equals the Hilbert series of the
        resolved module when the complex is a resolution."""
        num: dict[int, int] = {}
        for (i, d), rank in self.betti().items():
            num[d] = num.get(d, 0) + (-1) ** i * rank
        return HilbertSeries(num, self.f0.ring.nvars)


def _has_constant_entry(vectors: list[Vector]) -> bool:
    return any(not any(m) for v in vectors for (_, m) in v.terms)


def free_resolution(pres: ModulePresentation) -> Resolution:
    """Minimal graded free resolution of the presented module.

    Raises RuntimeError if more than nvars + 1 steps are needed, if the
    differentials do not compose to zero, or if one has a constant entry
    (the resolution would not be minimal).
    """
    ring = pres.ring
    gens = pres.generators
    if _has_constant_entry(pres.relation_vectors):
        gb = BlockBasis(groebner(ring, pres.relation_vectors, gens.degrees), gens.rank, 1)
        basis = [gens.basis_vector(i) for i in range(gens.rank)]
        kept = minimal_generators(ring, basis, gens.degrees, gb)
        src = FreeModule(ring, tuple(v.degree(gens.degrees) for v in kept))
        pres = image_presentation(ModuleMap(src, gens, kept), gb)
        step = pres.relations
    else:
        rel = minimal_generators(ring, pres.relation_vectors, pres.gen_degrees)
        step = ModulePresentation.from_relations(gens, rel).relations
    maps: list[ModuleMap] = []
    while step.source.rank:
        maps.append(step)
        if len(maps) > ring.nvars + 1:
            raise RuntimeError("resolution exceeded the expected length bound")
        step = image_presentation(step).relations
    res = Resolution(pres.generators, maps)
    if not res.verify_complex():
        raise RuntimeError("resolution differentials do not compose to zero")
    if any(_has_constant_entry(d.columns) for d in maps):
        raise RuntimeError("resolution is not minimal: a differential has a constant entry")
    return res
