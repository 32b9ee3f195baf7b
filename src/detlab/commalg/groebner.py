"""Buchberger engine for submodules of graded free modules.

Monomial order: graded reverse lexicographic on ring monomials, extended
term-over-position to module terms.  The one other order is the block
elimination order of `kernel_vectors`: an engine built with `split=t` makes
every term at a position below `t` (the target block) larger than every term
at or above it (the source block), so basis elements led in the source block
lie in it and span the kernel; they form no S-pairs among themselves.

Packed terms.  Inside the engine a module term `(pos, mono)` is one Python
int whose natural order is the term order.  From the most significant end it
holds: the elimination flag (one bit, set for positions below the split), the
total degree, one field per variable holding `DEG_MAX - exponent` with the
last variable most significant, and `POS_MAX - pos`.  Every field is 16 bits
wide; the top bit of each degree and exponent field is a guard bit that is
zero in a term.  Hence

- multiplying a term by a monomial is one addition: `t * (u / v)` packs as
  `t + (u - v)` for any terms `u`, `v` at a common position;
- `lead | t` at a common position is one guard-bit test:
  `((lead | guards) - t) & guards == guards`;
- lcm and coprimality of leads are field-wise operations on the same ints.

A term may have total degree at most `DEG_MAX` (2**15 - 1) and position at
most `POS_MAX` (2**16 - 1); beyond either the engine raises `OverflowError`
instead of carrying into the next field, both where terms enter and where a
multiplication could leave the range.  `Vector`, `grevlex_key` and everything
this module returns keep the tuple form `(pos, mono)`.

Coefficients are in `PolyRing`'s format.  The reduction loops are the one
place that does not sum and then normalize through `PolyRing.coeff`: they
reduce mod p inline, and `_vector`, the engine's one exit, turns an integral
`Fraction` that characteristic-zero reduction can leave back into an int.

Every completed engine is built by `membership_engine`: seed a known
Groebner basis, add the generators, complete.  `groebner` reads the reduced
basis off one, `kernel_vectors` the source-led elements of an elimination
one, and `hilbert_series` and `contains` use one as it is.  The known basis
is a `BlockBasis`.  The packed encoding is affine in the position, so `seed`
packs each base vector once and lists that element, in base order, under
every block's slot (`t - lead` carries the offset into the tail); a pair's
lcm and pending entry sit at its newer element's position.

Pair management follows Gebauer-Moller.  The coprime (product) criterion is
only applied when both elements are supported in a single position, where the
rank-one proof applies verbatim; the chain criteria are position-safe.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from itertools import groupby, islice
from typing import Iterable, Sequence

from .modules import ModuleMap, Vector
from .rings import PolyRing, integral

Term = tuple[int, tuple[int, ...]]

FIELD_BITS = 16
DEG_MAX = (1 << (FIELD_BITS - 1)) - 1
POS_MAX = (1 << FIELD_BITS) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


def grevlex_key(mono: tuple[int, ...]):
    return (sum(mono), tuple(-e for e in reversed(mono)))


class TermCodec:
    """Packs module terms into ints ordered like the term order: grevlex
    term-over-position, with positions below `split` dominating everything
    else (no elimination block when `split` is 0).  See the module docstring
    for the layout."""

    def __init__(self, nvars: int, split: int):
        self.nvars = nvars
        self.split = split
        ones = sum(1 << (FIELD_BITS * (i + 1)) for i in range(nvars))
        self.deg_shift = FIELD_BITS * (nvars + 1)
        self.flag = 1 << (self.deg_shift + FIELD_BITS)
        self.exp_mask = ones * _FIELD_MASK
        self.exp_max = ones * DEG_MAX
        self.guards = ones << (FIELD_BITS - 1)
        # divisor form of a lead: exponent guards set, plus the degree field's
        # guard so the subtraction stays nonnegative
        self.div_bits = self.guards | (1 << (self.deg_shift + FIELD_BITS - 1))
        self._keep = self.flag | POS_MAX
        self._fmt = struct.Struct(f"<{nvars}H")

    def pack(self, term: Term) -> int:
        pos, mono = term
        deg = sum(mono)
        if deg > DEG_MAX:
            raise OverflowError(f"term degree {deg} exceeds the packed limit {DEG_MAX}")
        if not 0 <= pos <= POS_MAX:
            raise OverflowError(f"position {pos} outside the packed range 0..{POS_MAX}")
        expo = int.from_bytes(self._fmt.pack(*mono), "little") << FIELD_BITS
        return (
            (self.flag if pos < self.split else 0)
            | (deg << self.deg_shift)
            | (self.exp_max - expo)
            | (POS_MAX - pos)
        )

    def unpack(self, gk: int) -> Term:
        expo = (self.exp_max - (gk & self.exp_mask)) >> FIELD_BITS
        mono = self._fmt.unpack(expo.to_bytes(2 * self.nvars, "little"))
        return POS_MAX - (gk & POS_MAX), mono

    def degree(self, gk: int) -> int:
        return (gk >> self.deg_shift) & _FIELD_MASK

    def divides(self, a: int, b: int) -> bool:
        """Does the monomial of `a` divide that of `b` (same position)?"""
        guards = self.guards
        return ((a | self.div_bits) - b) & guards == guards

    def lcm(self, a: int, b: int) -> int:
        """Packed lcm of two terms at the same position.  The degree field
        may exceed DEG_MAX (up to 2 * DEG_MAX); such an lcm orders correctly
        but is never multiplied out (see `_Elt.limit`)."""
        ca, cb = a & self.exp_mask, b & self.exp_mask
        ge = ((ca | self.guards) - cb) & self.guards  # guard set where ca >= cb
        sel = ge - (ge >> (FIELD_BITS - 1))  # value bits of those fields
        c = ca - (ca & sel) + (cb & sel)  # field-wise min of complements
        # fields sum mod 2**16 - 1; exact since the degree is below that
        deg = ((self.exp_max - c) >> FIELD_BITS) % _FIELD_MASK
        return (a & self._keep) | (deg << self.deg_shift) | c

    def support(self, gk: int) -> int:
        """Guard bits of the variables occurring in the term."""
        return ((self.exp_max - (gk & self.exp_mask)) + self.exp_max) & self.guards


@dataclass(frozen=True)
class BlockBasis:
    """Groebner basis of N^blocks' relations: block k holds N's `gb` shifted by k*rank."""

    gb: Sequence[Vector]
    rank: int
    blocks: int


NO_QUOTIENT = BlockBasis((), 0, 0)


class _Elt:
    """Basis element: packed terms, lead first, plus precomputed lead data."""

    __slots__ = (
        "idx", "terms", "lead", "lead_pos", "slot", "ldiv", "limit", "support",
        "single_pos",
    )

    def __init__(self, idx: int, terms: dict, lead: int, codec: TermCodec):
        self.idx = idx
        self.terms = terms
        self.lead = lead
        self.slot = lead & POS_MAX
        self.lead_pos = POS_MAX - self.slot
        self.ldiv = lead | codec.div_bits
        # t * (g / lead) stays in range iff t < limit (t at the lead's position)
        span = max(map(codec.degree, terms)) - codec.degree(lead)
        self.limit = (lead & codec.flag) | ((DEG_MAX - span + 1) << codec.deg_shift)
        self.support = codec.support(lead)
        self.single_pos = all(k & POS_MAX == self.slot for k in terms)


class GroebnerEngine:
    """Incremental Buchberger over a free module.

    `degrees` (degree of each position) only steers pair selection; it is
    the grading of the ambient free module.  `split` selects the
    term order: 0 is grevlex term-over-position, and `t > 0` is the block
    elimination order in which positions below `t` dominate everything else.
    """

    def __init__(self, ring: PolyRing, degrees: Sequence[int], split: int = 0):
        self.ring = ring
        self.codec = TermCodec(ring.nvars, split)
        self.degrees = tuple(degrees)
        self.basis: list[_Elt] = []
        # packed position field -> basis elements led there, in index order
        self._by_pos: dict[int, list[_Elt]] = {}
        self._pairs: list = []
        # packed position field -> {(i, j): packed lcm} of pairs not yet
        # processed or dropped
        self._pending: dict[int, dict[tuple[int, int], int]] = {}
        self._blocks = 0  # blocks sharing the seeded elements

    # -- packing at the boundary -------------------------------------------------
    def _pack(self, terms: dict) -> dict:
        pack = self.codec.pack
        return {pack(t): c for t, c in terms.items()}

    def _vector(self, terms: dict) -> Vector:
        unpack = self.codec.unpack
        return Vector(self.ring, {unpack(k): integral(c) for k, c in terms.items()})

    # -- basic helpers ---------------------------------------------------------
    def _monic(self, terms: dict) -> dict:
        """Scale so the lead coefficient is one and put the lead first."""
        lead = max(terms)
        c = terms[lead]
        ring = self.ring
        if c != 1:
            if ring.char:
                p = ring.char
                inv = ring.coeff_inv(c)
                terms = {t: v * inv % p for t, v in terms.items()}
            elif type(c) is int and all(type(v) is int and not v % c for v in terms.values()):
                terms = {t: v // c for t, v in terms.items()}
            else:
                inv = ring.coeff_inv(c)
                terms = {t: ring.coeff(v * inv) for t, v in terms.items()}
        if next(iter(terms)) != lead:
            terms = {lead: terms[lead], **terms}
        return terms

    # -- reduction ---------------------------------------------------------------
    def reduce_terms(self, terms: dict) -> dict:
        """Full normal form of a packed term dict against the current basis."""
        p = self.ring.char
        by_pos = self._by_pos
        guards = self.codec.guards
        heappush, heappop = heapq.heappush, heapq.heappop
        work = dict(terms)
        out: dict = {}
        heap = [-t for t in work]
        heapq.heapify(heap)
        while heap:
            t = -heappop(heap)
            c = work.pop(t, 0)
            if not c:
                continue
            for g in by_pos.get(t & POS_MAX, ()):
                if (g.ldiv - t) & guards == guards:
                    break
            else:
                out[t] = c
                continue
            if t >= g.limit:
                raise OverflowError(f"reduction leaves the packed degree range 0..{DEG_MAX}")
            delta = t - g.lead
            # the lead term cancels t exactly; the tail follows it
            if p:
                q = c % p
                for gk, gc in islice(g.terms.items(), 1, None):
                    nt = gk + delta
                    cur = work.get(nt)
                    if cur is None:
                        nv = -q * gc % p
                        if nv:
                            work[nt] = nv
                            heappush(heap, -nt)
                    else:
                        nv = (cur - q * gc) % p
                        if nv:
                            work[nt] = nv
                        else:
                            del work[nt]
            else:
                for gk, gc in islice(g.terms.items(), 1, None):
                    nt = gk + delta
                    cur = work.get(nt)
                    if cur is None:
                        work[nt] = -c * gc
                        heappush(heap, -nt)
                    else:
                        nv = cur - c * gc
                        if nv:
                            work[nt] = nv
                        else:
                            del work[nt]
        return out

    def normal_form(self, v: Vector) -> Vector:
        return self._vector(self.reduce_terms(self._pack(v.terms)))

    # -- pair bookkeeping ---------------------------------------------------------
    def _update_pairs(self, t: _Elt) -> None:
        """Gebauer-Moller update after appending basis element t; a source-led
        element of an elimination engine forms no pairs (`kernel_vectors`)."""
        codec = self.codec
        if codec.split and t.lead_pos >= codec.split:
            return
        guards, div_bits = codec.guards, codec.div_bits
        peers = [g for g in self._by_pos[t.slot] if g is not t]
        # at t's position: a seeded peer may sit at a lower block's position
        lcms = {g.idx: codec.lcm(t.lead, g.lead) for g in peers}
        pending = self._pending.setdefault(t.slot, {})

        # B criterion: drop pending pairs strictly covered by the new element
        tdiv = t.ldiv
        dropped = [
            pk
            for pk, old in pending.items()
            if (tdiv - old) & guards == guards
            and lcms[pk[0]] != old
            and lcms[pk[1]] != old
        ]
        for pk in dropped:
            del pending[pk]

        # M criterion: keep (i,t) only if no other lcm strictly divides it; a
        # strict divisor has lower degree, hence a smaller packed value
        values = [(lj, lj | div_bits) for lj in sorted(set(lcms.values()))]
        survivors = []
        for g in peers:
            li = lcms[g.idx]
            for lj, ljdiv in values:
                if lj >= li:
                    survivors.append(g)
                    break
                if (ljdiv - li) & guards == guards:
                    break

        # F criterion: one pair per lcm value; a coprime member kills its class
        by_lcm: dict[int, list[_Elt]] = {}
        for g in survivors:
            by_lcm.setdefault(lcms[g.idx], []).append(g)
        sdeg0 = self.degrees[t.lead_pos]
        for lcm_val, members in by_lcm.items():
            if t.single_pos and any(
                g.single_pos and not g.support & t.support for g in members
            ):
                continue
            pk = (members[0].idx, t.idx)
            pending[pk] = lcm_val
            heapq.heappush(
                self._pairs, (codec.degree(lcm_val) + sdeg0, lcm_val) + pk
            )

    def _install(self, terms: dict) -> _Elt:
        terms = self._monic(terms)
        elt = _Elt(len(self.basis), terms, next(iter(terms)), self.codec)
        self.basis.append(elt)
        self._by_pos.setdefault(elt.slot, []).append(elt)
        return elt

    # -- public driving -------------------------------------------------------------
    def seed(self, known: BlockBasis) -> None:
        """Install the Groebner basis `known`: one element per nonzero base vector,
        shared by every block and paired only with later ones.  Must come first."""
        if self.basis or self._pairs:
            raise RuntimeError("seed must come first")
        rank, blocks = known.rank, known.blocks
        if blocks * rank - 1 > POS_MAX:
            raise OverflowError(f"{blocks} blocks of rank {rank} leave the positions 0..{POS_MAX}")
        if blocks > 1 and 0 < self.codec.split < blocks * rank:
            raise ValueError("a shared block basis must lie below the elimination split")
        for v in known.gb if blocks else ():
            if not v.is_zero():
                self._install(self._pack(v.terms))
        base = list(self._by_pos.items())
        for k in range(1, blocks):
            self._by_pos.update((slot - k * rank, list(elts)) for slot, elts in base)
        self._blocks = blocks

    def add_generator(self, v: Vector) -> bool:
        """Reduce and append; returns True when the reduction is nonzero."""
        r = self.reduce_terms(self._pack(v.terms))
        if not r:
            return False
        self._update_pairs(self._install(r))
        return True

    def complete(self, degree: int | None = None) -> None:
        """Process the S-pairs, by increasing graded degree, up to `degree`
        if given.  For input homogeneous in the engine's `degrees`, the basis
        then reduces every member of degree <= `degree` to zero."""
        p = self.ring.char
        basis, pairs, pending = self.basis, self._pairs, self._pending
        while pairs and (degree is None or pairs[0][0] <= degree):
            _, lcm, i, j = heapq.heappop(pairs)
            fi, fj = basis[i], basis[j]
            if pending[fj.slot].pop((i, j), None) is None:
                continue  # dropped by the B criterion
            if lcm >= fi.limit or lcm >= fj.limit:
                raise OverflowError(f"S-pair leaves the packed degree range 0..{DEG_MAX}")
            di, dj = lcm - fi.lead, lcm - fj.lead
            s = {k + di: c for k, c in fi.terms.items()}
            for k, c in fj.terms.items():
                nt = k + dj
                nv = s.get(nt, 0) - c
                if p:
                    nv %= p
                if nv:
                    s[nt] = nv
                else:
                    s.pop(nt, None)
            r = self.reduce_terms(s)
            if r:
                self._update_pairs(self._install(r))

    def reduced_basis(self) -> list[Vector]:
        """Reduced Groebner basis: minimal lead terms, fully tail-reduced,
        sorted by lead term.

        A tail term lies below its own lead, so no element with that lead
        can reduce it, and normal forms modulo a Groebner basis are unique:
        reducing a kept element's tail by the whole basis gives the tail of
        its interreduced form.  Shared block elements would read as block 0's."""
        if self._blocks > 1:
            raise RuntimeError("reduced_basis of a shared block basis")
        self.complete()
        divides = self.codec.divides
        # per position, the first of equals among the leads no other divides
        kept = [
            g
            for elts in self._by_pos.values()
            for g in elts
            if not any(h.idx < g.idx if h.lead == g.lead else divides(h.lead, g.lead) for h in elts)
        ]
        kept.sort(key=lambda g: g.lead)
        out = []
        for g in kept:
            tail = dict(islice(g.terms.items(), 1, None))
            out.append(self._vector({g.lead: g.terms[g.lead], **self.reduce_terms(tail)}))
        return out


# ---------------------------------------------------------------------------
# Convenience fronts


def membership_engine(
    ring: PolyRing, vectors: Iterable[Vector], degrees: Sequence[int], gb: BlockBasis, split: int = 0
) -> GroebnerEngine:
    """The completed engine on `vectors` over `gb`, a Groebner basis known
    beforehand (seeded once, so it forms no pairs among itself), in the term
    order `split` selects."""
    eng = GroebnerEngine(ring, degrees, split)
    eng.seed(gb)
    for v in vectors:
        eng.add_generator(v)
    eng.complete()
    return eng


def groebner(ring: PolyRing, vectors: Iterable[Vector], degrees: Sequence[int]) -> list[Vector]:
    """Reduced Groebner basis of the submodule generated by `vectors`."""
    return membership_engine(ring, vectors, degrees, NO_QUOTIENT).reduced_basis()


def kernel_vectors(fmap: ModuleMap, target_quotient_gb: BlockBasis) -> list[Vector]:
    """Generators, not a Groebner basis, of the kernel of source -> target/Q.

    `target_quotient_gb` must be a Groebner basis, in the engine's default
    grevlex term-over-position order, of the submodule Q of the target that
    is being quotiented out (`NO_QUOTIENT` for a plain kernel of a map of
    free modules).

    No S-pair between source-led elements is formed: it would combine two
    elements supported in the source alone.  So the target-led elements and
    a Groebner basis of the source-led ones' span are a Groebner basis of the
    graph module, and by elimination the source-led elements, returned in
    basis order and not interreduced, span the kernel.  The order puts every
    target position above every source position, so each term of a
    source-led element lies in the source block, and shifting its positions
    down by the target rank reads it in the source.
    """
    ring = fmap.source.ring
    t = fmap.target.rank
    s = fmap.source.rank
    one = ring.coeff(1)
    graph = [
        Vector(ring, {**fmap.columns[j].terms, (t + j, ring.zero_mono): one}) for j in range(s)
    ]
    degrees = fmap.target.degrees + fmap.source.degrees
    eng = membership_engine(ring, graph, degrees, target_quotient_gb, split=t)
    return [eng._vector(g.terms).shifted_positions(-t) for g in eng.basis if g.lead_pos >= t]


def minimal_generators(
    ring: PolyRing,
    vectors: Sequence[Vector],
    degrees: tuple[int, ...],
    quotient_gb: BlockBasis = NO_QUOTIENT,
) -> list[Vector]:
    """Extract a minimal generating set from homogeneous module generators,
    optionally modulo a submodule given by a homogeneous block basis.

    Processes by increasing degree; a candidate already inside the submodule
    generated by the kept ones (plus the quotient) is dropped (graded
    Nakayama makes the greedy sweep exact).  Before the candidates of degree
    d, the basis is completed only through degree d, which decides
    membership in degree d exactly for graded input; a kept candidate's
    pairs all lie above d, since no earlier lead divides its lead, so one
    truncated completion per degree suffices.  Non-homogeneous input raises
    ValueError; a quotient is checked on its base vectors alone, since each
    block's degrees must be block 0's shifted by one constant.
    """

    def canon(v: Vector):
        return (v.degree(degrees), [(p, grevlex_key(m), str(c)) for (p, m), c in sorted(v.terms.items())])

    r, blocks = quotient_gb.rank, quotient_gb.blocks
    if len({(k, degrees[k * r + i] - degrees[i]) for k in range(blocks) for i in range(r)}) > blocks:
        raise ValueError("quotient blocks must be degree shifts of block 0")
    for q in quotient_gb.gb if blocks else ():
        q.degree(degrees)  # raises ValueError unless homogeneous
    eng = GroebnerEngine(ring, degrees)
    eng.seed(quotient_gb)
    kept: list[Vector] = []
    candidates = sorted((v for v in vectors if not v.is_zero()), key=canon)
    for deg, batch in groupby(candidates, key=lambda v: v.degree(degrees)):
        eng.complete(deg)
        kept.extend(v for v in batch if eng.add_generator(v))
    return kept