"""Hilbert series via the leading-term module of a Groebner basis.

The leading-term module of the relations splits per position into monomial
ideals, so the series of the presentation is a degree-shifted sum of monomial
quotient numerators, all over (1-t)^nvars.  The monomial numerator uses the
classic variable-pivot recursion with memoization.
"""

from __future__ import annotations

from .groebner import groebner, top_key
from .modules import HilbertSeries, ModulePresentation


def _minimalize(gens: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []
    for m in sorted(gens, key=sum):
        if not any(all(g[i] <= m[i] for i in range(len(m))) for g in out):
            out.append(m)
    return tuple(sorted(out))


def _mono_numerator(gens: tuple[tuple[int, ...], ...], cache: dict) -> dict[int, int]:
    """Numerator of the Hilbert series of S/I for a monomial ideal I."""
    if not gens:
        return {0: 1}
    if any(sum(m) == 0 for m in gens):
        return {}
    hit = cache.get(gens)
    if hit is not None:
        return hit
    if len(gens) == 1:
        out = {0: 1, sum(gens[0]): -1}
        cache[gens] = out
        return out
    nvars = len(gens[0])
    supports = [tuple(i for i, e in enumerate(m) if e) for m in gens]
    pairwise_coprime = all(
        not set(supports[i]) & set(supports[j])
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    )
    if pairwise_coprime:
        out = {0: 1}
        for m in gens:
            d = sum(m)
            nxt: dict[int, int] = {}
            for e, c in out.items():
                nxt[e] = nxt.get(e, 0) + c
                nxt[e + d] = nxt.get(e + d, 0) - c
            out = {e: c for e, c in nxt.items() if c}
        cache[gens] = out
        return out
    # pivot on the most frequent variable
    counts = [0] * nvars
    for s in supports:
        for i in s:
            counts[i] += 1
    x = max(range(nvars), key=lambda i: counts[i])
    # I + (x): generators not involving x, with numerator times (1 - t)
    sub = _minimalize([m for m in gens if m[x] == 0])
    left = _mono_numerator(sub, cache)
    out: dict[int, int] = {}
    for e, c in left.items():
        out[e] = out.get(e, 0) + c
        out[e + 1] = out.get(e + 1, 0) - c
    # t * (I : x)
    quot = _minimalize(
        [tuple(e - 1 if i == x and e else e for i, e in enumerate(m)) for m in gens]
    )
    right = _mono_numerator(quot, cache)
    for e, c in right.items():
        out[e + 1] = out.get(e + 1, 0) + c
    out = {e: c for e, c in out.items() if c}
    cache[gens] = out
    return out


def hilbert_series(pres: ModulePresentation, relations_gb=None) -> HilbertSeries:
    """Hilbert series of the presented module, numerator over (1-t)^nvars."""
    ring = pres.ring
    degrees = pres.gen_degrees
    if relations_gb is None:
        relations_gb = groebner(ring, pres.relation_vectors, degrees=degrees)
    leads: dict[int, list[tuple[int, ...]]] = {}
    for v in relations_gb:
        pos, mono = max(v.terms, key=top_key)
        leads.setdefault(pos, []).append(mono)
    num: dict[int, int] = {}
    cache: dict = {}
    for pos in range(len(degrees)):
        gens = _minimalize(leads.get(pos, []))
        part = _mono_numerator(gens, cache)
        for e, c in part.items():
            d = e + degrees[pos]
            num[d] = num.get(d, 0) + c
            if not num[d]:
                del num[d]
    return HilbertSeries(num, ring.nvars)


def free_module_series(degrees: tuple[int, ...], nvars: int) -> HilbertSeries:
    num: dict[int, int] = {}
    for d in degrees:
        num[d] = num.get(d, 0) + 1
    return HilbertSeries(num, nvars)
