"""Free resolutions of graded modules, minimization, and Betti tables.

The resolution is built by iterated kernels: trim the current relations to a
minimal generating set, make them the next differential, and compute
generators (not a Groebner basis) of its kernel by elimination.  Trimming
every step keeps the complex
minimal except possibly at the generator stage, where a non-minimal
presentation can leave constant entries in the first differential; a
unit-clearing pass removes those.

Trimming completes the Groebner basis of the kept relations only through
the degree being tested (`minimal_generators`), which is exact for these
homogeneous relations; no S-pair above the top candidate degree is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import kernel_vectors, minimal_generators
from .hilbert import free_module_series
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

    def has_constant_entry(self) -> bool:
        zero = self.f0.ring.zero_mono
        return any(
            any(m == zero for (_, m) in col.terms)
            for d in self.maps
            for col in d.columns
        )

    def euler_series(self) -> HilbertSeries:
        """Alternating sum of the free-module series; equals the Hilbert
        series of the resolved module when the complex is a resolution."""
        n = self.f0.ring.nvars
        out = free_module_series(self.f0.degrees, n)
        for i, d in enumerate(self.maps):
            out = out + free_module_series(d.source.degrees, n).scaled((-1) ** (i + 1))
        return out


def _find_unit(maps: list[ModuleMap], zero_mono) -> tuple[int, int, int] | None:
    for k, d in enumerate(maps):
        for c, col in enumerate(d.columns):
            for (p, m), v in col.terms.items():
                if m == zero_mono:
                    return (k, p, c)
    return None


def _drop_position(vec: Vector, pos: int) -> Vector:
    return Vector(
        vec.ring,
        {
            (p if p < pos else p - 1, m): c
            for (p, m), c in vec.terms.items()
            if p != pos
        },
    )


def _minimize(f0: FreeModule, maps: list[ModuleMap]) -> tuple[FreeModule, list[ModuleMap]]:
    ring = f0.ring
    zero = ring.zero_mono
    maps = [ModuleMap(d.source, d.target, list(d.columns)) for d in maps]
    while True:
        found = _find_unit(maps, zero)
        if found is None:
            break
        k, r, c = found
        d = maps[k]
        unit = d.columns[c].terms[(r, zero)]
        inv = ring.coeff_inv(unit)
        pivot_col = d.columns[c]
        new_cols = []
        for j, col in enumerate(d.columns):
            if j == c:
                continue
            entry = col.component(r)
            if not entry.is_zero():
                col = col - pivot_col.poly_scaled(entry.scaled(inv))
            new_cols.append(_drop_position(col, r))
        src_degs = tuple(x for j, x in enumerate(d.source.degrees) if j != c)
        tgt_degs = tuple(x for j, x in enumerate(d.target.degrees) if j != r)
        new_src = FreeModule(ring, src_degs)
        new_tgt = FreeModule(ring, tgt_degs)
        maps[k] = ModuleMap(new_src, new_tgt, new_cols)
        if k + 1 < len(maps):
            nxt = maps[k + 1]
            cols = [_drop_position(col, c) for col in nxt.columns]
            maps[k + 1] = ModuleMap(nxt.source, new_src, cols)
        if k == 0:
            f0 = new_tgt
        else:
            prev = maps[k - 1]
            cols = [col for j, col in enumerate(prev.columns) if j != r]
            maps[k - 1] = ModuleMap(new_tgt, prev.target, cols)
    while maps and maps[-1].source.rank == 0:
        maps.pop()
    return f0, maps


def free_resolution(pres: ModulePresentation) -> Resolution:
    """Minimal graded free resolution of the presented module.

    Each kernel is trimmed to minimal generators, so with a minimally
    generated presentation the output is already minimal; a final pass
    clears any constant entries left by redundant generators.  Raises
    RuntimeError if more than nvars + 1 steps are needed or if the
    differentials do not compose to zero.
    """
    ring = pres.ring
    f0 = pres.generators
    rel = [v for v in pres.relation_vectors if not v.is_zero()]
    maps: list[ModuleMap] = []
    current = f0
    while rel:
        ming = minimal_generators(ring, rel, current.degrees)
        if not ming:
            break
        degs = tuple(v.degree(current.degrees) for v in ming)
        step = ModuleMap(FreeModule(ring, degs), current, ming)
        maps.append(step)
        if len(maps) > ring.nvars + 1:
            raise RuntimeError("resolution exceeded the expected length bound")
        rel = kernel_vectors(step)
        current = step.source
    f0, maps = _minimize(f0, maps)
    res = Resolution(f0, maps)
    if not res.verify_complex():
        raise RuntimeError("resolution differentials do not compose to zero")
    return res
