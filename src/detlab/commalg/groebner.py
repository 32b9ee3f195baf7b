"""Buchberger engine for submodules of graded free modules.

Monomial order: graded reverse lexicographic on ring monomials, extended
term-over-position to module terms.  Kernels are computed by elimination: a
block order makes every target-component term larger than every
source-component term, so basis elements supported in the source block cut
out the kernel.

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
multiplication could leave the range.  `Vector`, the order keys `top_key`,
`elim_key` and `grevlex_key`, and everything this module returns keep the
tuple form `(pos, mono)`.

Coefficients: over F_p they are ints in [0, p).  In characteristic zero they
stay ints inside the engine while they are integral (the determinantal
presentations have 3-bit coefficients) and are `Fraction` again wherever they
leave it.

Pair management follows Gebauer-Moller.  The coprime (product) criterion is
only applied when both elements are supported in a single position, where the
rank-one proof applies verbatim; the chain criteria are position-safe.
"""

from __future__ import annotations

import heapq
import struct
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Sequence

from .modules import FreeModule, ModuleMap, Vector
from .rings import PolyRing

Term = tuple[int, tuple[int, ...]]

FIELD_BITS = 16
DEG_MAX = (1 << (FIELD_BITS - 1)) - 1
POS_MAX = (1 << FIELD_BITS) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


def grevlex_key(mono: tuple[int, ...]):
    return (sum(mono), tuple(-e for e in reversed(mono)))


def top_key(term: Term):
    pos, mono = term
    return (0, grevlex_key(mono), -pos)


class _BlockKey:
    """Block order key: positions below `split` dominate everything else."""

    __slots__ = ("split",)

    def __init__(self, split: int):
        self.split = split

    def __call__(self, term: Term):
        pos, mono = term
        return (1 if pos < self.split else 0, grevlex_key(mono), -pos)


def elim_key(split: int) -> Callable[[Term], tuple]:
    """Block order: positions below `split` dominate everything else."""
    return _BlockKey(split)


class TermCodec:
    """Packs module terms into ints ordered like `top_key` (split 0) or
    `elim_key(split)`; see the module docstring for the layout."""

    def __init__(self, nvars: int, split: int = 0):
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


def _codec_for(ring: PolyRing, key) -> TermCodec:
    if key is top_key:
        return TermCodec(ring.nvars)
    if isinstance(key, _BlockKey):
        return TermCodec(ring.nvars, key.split)
    raise ValueError("the engine supports the top_key and elim_key orders only")


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

    `key` is `top_key` or an `elim_key(split)`.  `degrees` (degree of each
    position) only steers pair selection; it is the grading of the ambient
    free module when known.
    """

    def __init__(
        self,
        ring: PolyRing,
        key: Callable[[Term], tuple] = top_key,
        degrees: Sequence[int] | None = None,
    ):
        self.ring = ring
        self.codec = _codec_for(ring, key)
        self.degrees = tuple(degrees) if degrees is not None else None
        self.basis: list[_Elt] = []
        # packed position field -> basis elements led there, in index order
        self._by_pos: dict[int, list[_Elt]] = {}
        self._pairs: list = []
        # packed position field -> {(i, j): packed lcm} of pairs not yet
        # processed or dropped
        self._pending: dict[int, dict[tuple[int, int], int]] = {}

    # -- conversion at the boundary ----------------------------------------------
    def _pack(self, terms: dict) -> dict:
        pack = self.codec.pack
        if self.ring.char:
            return {pack(t): c for t, c in terms.items()}
        return {pack(t): _integral(c) if type(c) is Fraction else c for t, c in terms.items()}

    def _vector(self, terms: dict) -> Vector:
        unpack = self.codec.unpack
        if self.ring.char:
            return Vector(self.ring, {unpack(k): c for k, c in terms.items()})
        return Vector(
            self.ring,
            {unpack(k): c if type(c) is Fraction else Fraction(c) for k, c in terms.items()},
        )

    # -- basic helpers ---------------------------------------------------------
    def _pos_degree(self, pos: int) -> int:
        return self.degrees[pos] if self.degrees is not None else 0

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
                terms = {t: _integral(v * inv) for t, v in terms.items()}
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
        """Gebauer-Moller update after appending basis element t."""
        codec = self.codec
        guards, div_bits = codec.guards, codec.div_bits
        peers = [g for g in self._by_pos[t.slot] if g is not t]
        lcms = {g.idx: codec.lcm(g.lead, t.lead) for g in peers}
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
        sdeg0 = self._pos_degree(t.lead_pos)
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
    def seed(self, vectors: Iterable[Vector]) -> None:
        """Install vectors assumed to be a pairwise-complete Groebner basis.

        No pairs are generated among them; later elements pair against them
        normally.  Must be called before any add/complete.
        """
        if self.basis or self._pairs:
            raise RuntimeError("seed must come first")
        for v in vectors:
            if not v.is_zero():
                self._install(self._pack(v.terms))

    def add_generator(self, v: Vector) -> bool:
        """Reduce and append; returns True when the reduction is nonzero."""
        r = self.reduce_terms(self._pack(v.terms))
        if not r:
            return False
        self._update_pairs(self._install(r))
        return True

    def complete(self) -> None:
        p = self.ring.char
        basis, pairs, pending = self.basis, self._pairs, self._pending
        while pairs:
            _, lcm, i, j = heapq.heappop(pairs)
            fi, fj = basis[i], basis[j]
            if pending[fi.slot].pop((i, j), None) is None:
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

    def _minimal_leads(self, elts: Iterable[_Elt]) -> list[_Elt]:
        """Elements whose lead no other element's lead divides (first of equals)."""
        divides = self.codec.divides
        elts = list(elts)
        by_pos = _by_slot(elts)
        return [
            g
            for g in elts
            if not any(
                h is not g
                and divides(h.lead, g.lead)
                and (h.lead != g.lead or h.idx < g.idx)
                for h in by_pos[g.slot]
            )
        ]

    def _interreduced(self, keep: list[_Elt]) -> list[dict]:
        """Each kept element's terms fully reduced by the other kept ones."""
        by_pos = _by_slot(keep)
        out = []
        for g in keep:
            view = _ReducerView(self, by_pos, g)
            r = view.reduce_terms(g.terms)
            if r:
                out.append(self._monic(r))
        return out

    def reduced_basis(self) -> list[Vector]:
        """Reduced Groebner basis: minimal lead terms, fully tail-reduced,
        sorted by lead term."""
        self.complete()
        reduced = self._interreduced(self._minimal_leads(self.basis))
        reduced.sort(key=lambda terms: next(iter(terms)))
        return [self._vector(r) for r in reduced]


class _ReducerView:
    """Reduction against the elements of `by_pos` other than `skip` (for
    interreduction)."""

    def __init__(self, engine: GroebnerEngine, by_pos: dict, skip: _Elt):
        self.ring = engine.ring
        self.codec = engine.codec
        self._by_pos = dict(by_pos)
        self._by_pos[skip.slot] = [g for g in by_pos[skip.slot] if g is not skip]

    reduce_terms = GroebnerEngine.reduce_terms


def _by_slot(elts: list[_Elt]) -> dict[int, list[_Elt]]:
    out: dict[int, list[_Elt]] = {}
    for g in elts:
        out.setdefault(g.slot, []).append(g)
    return out


def _integral(c):
    """A characteristic-zero coefficient as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


# ---------------------------------------------------------------------------
# Convenience fronts


def groebner(
    ring: PolyRing,
    vectors: Iterable[Vector],
    key: Callable[[Term], tuple] = top_key,
    degrees: Sequence[int] | None = None,
) -> list[Vector]:
    """Reduced Groebner basis of the submodule generated by `vectors`."""
    eng = GroebnerEngine(ring, key, degrees)
    for v in vectors:
        eng.add_generator(v)
    return eng.reduced_basis()


def groebner_ideal(ring: PolyRing, polys) -> list:
    """Reduced Groebner basis of an ideal, as rank-one vectors' polynomials."""
    from .rings import Polynomial

    vecs = [Vector(ring, {(0, m): c for m, c in p.terms.items()}) for p in polys]
    gb = groebner(ring, vecs)
    return [Polynomial(ring, {m: c for (_, m), c in v.terms.items()}) for v in gb]


def ideal_to_vectors(ring: PolyRing, polys, rank: int, positions=None) -> list[Vector]:
    """Embed ideal generators at every position of a rank-`rank` module."""
    out = []
    for pos in positions if positions is not None else range(rank):
        for p in polys:
            out.append(Vector(ring, {(pos, m): c for m, c in p.terms.items()}))
    return out


def normal_form(ring: PolyRing, v: Vector, basis: Iterable[Vector],
                key: Callable[[Term], tuple] = top_key) -> Vector:
    """Normal form against an arbitrary basis (assumed a Groebner basis)."""
    eng = GroebnerEngine(ring, key)
    eng.seed(basis)
    return eng.normal_form(v)


def kernel_vectors(
    fmap: ModuleMap, target_quotient_gb: Sequence[Vector] = ()
) -> list[Vector]:
    """Generators (a Groebner basis) of the kernel of source -> target/Q.

    `target_quotient_gb` must be a TOP-grevlex Groebner basis of the
    submodule Q of the target that is being quotiented out (empty for a
    plain kernel of a map of free modules).
    """
    ring = fmap.source.ring
    t = fmap.target.rank
    s = fmap.source.rank
    degrees = fmap.target.degrees + fmap.source.degrees
    eng = GroebnerEngine(ring, elim_key(t), degrees)
    eng.seed(target_quotient_gb)
    one = ring.coeff(1)
    for j in range(s):
        terms = dict(fmap.columns[j].terms)
        terms[(t + j, ring.zero_mono)] = one
        eng.add_generator(Vector(ring, terms))
    eng.complete()
    # elements led in the source block live entirely in it (elimination order)
    keep = eng._minimal_leads(g for g in eng.basis if g.lead_pos >= t)
    out = [eng._vector(r).restricted(t, t + s, -t) for r in eng._interreduced(keep)]
    out.sort(key=lambda v: [(p, grevlex_key(m)) for p, m in sorted(v.terms)])
    return out


def syzygies(fmap: ModuleMap) -> ModuleMap:
    """Map whose image is the kernel of fmap (columns generate the kernel)."""
    cols = kernel_vectors(fmap)
    degs = tuple(c.degree(fmap.source.degrees) for c in cols)
    src = FreeModule(fmap.source.ring, degs)
    return ModuleMap(src, fmap.source, cols)


def minimal_generators(
    ring: PolyRing,
    vectors: Sequence[Vector],
    degrees: tuple[int, ...],
    quotient_gb: Sequence[Vector] = (),
) -> list[Vector]:
    """Extract a minimal generating set from homogeneous module generators,
    optionally modulo a submodule given by a Groebner basis.

    Processes by increasing degree; a candidate already inside the submodule
    generated by the kept ones (plus the quotient) is dropped (graded
    Nakayama makes the greedy sweep exact).
    """

    def canon(v: Vector):
        return (v.degree(degrees), [(p, grevlex_key(m), str(c)) for (p, m), c in sorted(v.terms.items())])

    eng = GroebnerEngine(ring, top_key, degrees)
    eng.seed(quotient_gb)
    kept: list[Vector] = []
    for v in sorted((v for v in vectors if not v.is_zero()), key=canon):
        if eng.add_generator(v):
            kept.append(v)
            eng.complete()
    return kept