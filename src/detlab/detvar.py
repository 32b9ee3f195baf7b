"""Determinantal rings and their distinguished Cohen-Macaulay modules.

Builds the quotient of a polynomial ring by the (l+1)-minors of a generic
matrix, the images of wedge powers of the transposed generic map over that
quotient, their endomorphism blocks, and the certificates: projective
dimension equals the expected codimension (Auslander-Buchsbaum),
transpose-side duality, and box-complement symmetry of the endomorphism ring.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace

from .commalg import (
    BlockBasis,
    FreeModule,
    HilbertSeries,
    HomModule,
    ModuleMap,
    ModulePresentation,
    PolyRing,
    Polynomial,
    Vector,
    contains,
    free_resolution,
    hilbert_series,
    hom_module,
    image_presentation,
    poly_det,
    random_rank,
)
from .commalg.groebner import groebner
from .partitions import Partition, conjugate, enumerate_box


# ---------------------------------------------------------------------------
# Setup


@dataclass
class DetSetup:
    m: int
    n: int
    l: int
    ring: PolyRing
    matrix: list[list[Polynomial]]  # m rows, n columns
    minors: list[Polynomial]
    # R = S / (minors) as a cyclic module; its relations are the reduced
    # Groebner basis of the minors
    quotient: ModulePresentation
    codim: int

    @property
    def char(self) -> int:
        return self.ring.char

    def box(self) -> list[Partition]:
        return list(enumerate_box(self.l, self.m - self.l))


def _minors(entries: list[list[Polynomial]], k: int) -> list[list[Polynomial]]:
    """The k-minors of a matrix, rows and columns indexed by lex-ordered
    k-subsets; the one 0-minor is 1."""
    one = entries[0][0].ring.one()
    row_sets = itertools.combinations(range(len(entries)), k)
    col_sets = list(itertools.combinations(range(len(entries[0])), k))
    return [
        [poly_det([[entries[i][j] for j in cs] for i in rs]) if k else one for cs in col_sets]
        for rs in row_sets
    ]


def generic_setup(m: int, n: int, l: int, char: int = 0) -> DetSetup:
    """Generic m x n matrix of indeterminates and its (l+1)-minor ideal,
    with the codimension verified against (n-l)(m-l)."""
    if not (1 <= l < min(m, n)):
        raise ValueError("need 1 <= l < min(m, n)")
    names = tuple(f"x{i + 1}_{j + 1}" for i in range(m) for j in range(n))
    ring = PolyRing(m * n, char, names)
    matrix = [[ring.variable(i * n + j) for j in range(n)] for i in range(m)]
    minors = [p for row in _minors(matrix, l + 1) for p in row]
    ideal = [Vector(ring, {(0, mo): c for mo, c in p.terms.items()}) for p in minors]
    gb = groebner(ring, ideal, (0,))
    quotient = ModulePresentation.from_relations(FreeModule(ring, (0,)), gb)
    dim = hilbert_series(quotient).canonical().denom_power
    codim = ring.nvars - dim
    expected = (n - l) * (m - l)
    if codim != expected:
        raise AssertionError(f"codim {codim} != expected {expected}")
    return DetSetup(m, n, l, ring, matrix, minors, quotient, codim)


def flip_setup(setup: DetSetup) -> DetSetup:
    """Same ring and ideal, with the generic matrix transposed (m and n swap).

    A transpose has the same minors, so the minors, the quotient R and the
    codimension are reused."""
    t = [[setup.matrix[i][j] for i in range(setup.m)] for j in range(setup.n)]
    return DetSetup(setup.n, setup.m, setup.l, setup.ring, t, setup.minors,
                    setup.quotient, setup.codim)


# ---------------------------------------------------------------------------
# Wedge maps


def phi_dual(setup: DetSetup) -> ModuleMap:
    """Transpose of the generic matrix, as a degree-zero graded map."""
    ring = setup.ring
    src = FreeModule(ring, (0,) * setup.m)
    tgt = FreeModule(ring, (-1,) * setup.n)
    entries = [[setup.matrix[c][r] for c in range(setup.m)] for r in range(setup.n)]
    return ModuleMap.from_entries(src, tgt, entries)


def exterior_power_matrix(fmap: ModuleMap, k: int) -> ModuleMap:
    """k-th exterior power: entries are k-minors indexed by lex-ordered
    k-subsets (increasing rows and columns carry sign +1)."""
    ring = fmap.source.ring
    rows = fmap.target.rank
    cols = fmap.source.rank
    if k < 0 or k > min(rows, cols):
        raise ValueError(f"exterior power {k} out of range")
    row_sets = itertools.combinations(range(rows), k)
    col_sets = itertools.combinations(range(cols), k)
    src = FreeModule(ring, tuple(sum(fmap.source.degrees[j] for j in cs) for cs in col_sets))
    tgt = FreeModule(ring, tuple(sum(fmap.target.degrees[i] for i in rs) for rs in row_sets))
    return ModuleMap.from_entries(src, tgt, _minors(fmap.entries(), k))


def wedge_alpha_map(setup: DetSetup, shape) -> ModuleMap:
    """Tensor of column-wise exterior powers of the transposed generic map."""
    shape = Partition.of(shape)
    if not shape.fits_in_box(setup.l, setup.m - setup.l):
        raise ValueError(
            f"{shape.parts} outside the {setup.l} x {setup.m - setup.l} box"
        )
    cols = conjugate(shape).parts
    phi = phi_dual(setup)
    out = exterior_power_matrix(phi, 0)
    for c in cols:
        out = out.kronecker(exterior_power_matrix(phi, c))
    return out


# ---------------------------------------------------------------------------
# The image modules


@dataclass
class ImageModule:
    """Image of a graded map over the determinantal quotient, presented by
    source generators and the kernel of the map into the quotient target."""

    shape: Partition
    setup: DetSetup
    fmap: ModuleMap
    presentation: ModulePresentation


def prod_binomial(l: int, shape) -> int:
    out = 1
    for c in conjugate(Partition.of(shape)).parts:
        out *= math.comb(l, c)
    return out


def wedge_module(setup: DetSetup, shape) -> ImageModule:
    """Image of the wedge-power map over the quotient; the empty shape gives
    the quotient ring itself."""
    shape = Partition.of(shape)
    fmap = wedge_alpha_map(setup, shape)
    quotient_gb = BlockBasis(setup.quotient.relation_vectors, 1, fmap.target.rank)
    return ImageModule(shape, setup, fmap, image_presentation(fmap, quotient_gb))


# ---------------------------------------------------------------------------
# Certificates


@dataclass
class MCMCertificate:
    shape: tuple[int, ...] | None
    pd: int
    expected: int
    annihilated: bool
    betti_ranks: list[int]
    char: int
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.annihilated and self.pd == self.expected

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape) if self.shape is not None else None,
            "pd": self.pd,
            "expected_codim": self.expected,
            "annihilated": self.annihilated,
            "betti_ranks": self.betti_ranks,
            "char": self.char,
            "pass": self.passed,
        }


def certify_mcm(
    pres: ModulePresentation, setup: DetSetup, shape=None
) -> MCMCertificate:
    """Maximal Cohen-Macaulayness certificate: the module is killed by the
    minors and its minimal free resolution over the polynomial ring has
    length exactly the codimension (depth bookkeeping via
    Auslander-Buchsbaum)."""
    annihilated = contains(
        setup.ring,
        pres.relation_vectors,
        pres.gen_degrees,
        (
            pres.generators.basis_vector(i).poly_scaled(p)
            for p in setup.minors
            for i in range(pres.generators.rank)
        ),
    )
    res = free_resolution(pres)
    return MCMCertificate(
        tuple(shape.parts) if isinstance(shape, Partition) else shape,
        res.length,
        setup.codim,
        annihilated,
        res.betti_ranks(),
        setup.char,
    )


@dataclass
class RankCheckResult:
    shape: tuple[int, ...]
    predicted: int
    ranks: list[int]
    seed: int
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(r == self.predicted for r in self.ranks)

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "predicted": self.predicted,
            "ranks": self.ranks,
            "seed": self.seed,
            "pass": self.passed,
        }


def rank_check(module: ImageModule, trials: int, seed: int) -> RankCheckResult:
    """Specialize the generic matrix to random rank-l points and compare the
    wedge-map rank with the product of column binomials.  A point is u v^T
    with u = (I_l; A) and v = (I_l; B), so its top l x l block is I_l and its
    rank is exactly l in every characteristic; A and B take entries from
    1..7 in char 0 and from all of F_p.  The rank-l matrices form one
    GL_m x GL_n orbit, so every such point predicts the same rank."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    setup = module.setup
    l = setup.l
    rng = random.Random(seed)
    low, high = (0, setup.char - 1) if setup.char else (1, 7)

    def factor(rows: int) -> list[list[int]]:
        """(I_l; A) with A a random (rows - l) x l block."""
        identity = [[int(i == k) for k in range(l)] for i in range(l)]
        return identity + [[rng.randint(low, high) for _ in range(l)] for _ in range(rows - l)]

    ranks = []
    for _ in range(trials):
        u, v = factor(setup.m), factor(setup.n)
        point = [
            setup.ring.coeff(sum(a * b for a, b in zip(ui, vj))) for ui in u for vj in v
        ]
        ranks.append(random_rank(module.fmap, point))
    return RankCheckResult(
        tuple(module.shape.parts), prod_binomial(l, module.shape), ranks, seed
    )


# ---------------------------------------------------------------------------
# Endomorphism ring


@dataclass
class EndomorphismRing:
    setup: DetSetup
    summands: list[ImageModule]
    blocks: dict[tuple[int, int], HomModule]


def endomorphism_ring(setup: DetSetup) -> EndomorphismRing:
    """All Hom blocks between the box wedge-image modules; requires m <= n for
    the Cohen-Macaulay certification route."""
    if setup.m > setup.n:
        raise ValueError("endomorphism certification requires m <= n; flip the setup")
    summands = [wedge_module(setup, a) for a in setup.box()]
    # one relation basis per Hom target, shared by its column of blocks
    gbs = [groebner(setup.ring, b.presentation.relation_vectors, b.presentation.gen_degrees)
           for b in summands]
    blocks = {}
    for i, a in enumerate(summands):
        for j, b in enumerate(summands):
            blocks[(i, j)] = hom_module(a.presentation, b.presentation, gb=gbs[j])
    return EndomorphismRing(setup, summands, blocks)


def certify_end_mcm(end: EndomorphismRing) -> dict:
    """Blockwise Cohen-Macaulay certificates for the endomorphism ring; each
    distinct block presentation (generator degrees, relation vectors) is
    certified once per call, and blocks sharing one get equal copies."""
    out, certs = {}, {}
    for (i, j), pres in sorted(end.blocks.items()):
        key = (pres.gen_degrees, tuple(tuple(sorted(v.terms.items())) for v in pres.relation_vectors))
        if key not in certs:
            certs[key] = certify_mcm(pres, end.setup)
        shapes = (end.summands[i].shape.parts, end.summands[j].shape.parts)
        out[shapes] = replace(certs[key], betti_ranks=list(certs[key].betti_ranks))
    return out


# ---------------------------------------------------------------------------
# Transpose-side duality (the flip)


@dataclass
class FlipSummandReport:
    shape: tuple[int, ...]
    well_defined: bool
    columns_in_hom: bool
    surjective: bool
    series_match: bool
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = (
            self.well_defined
            and self.columns_in_hom
            and self.surjective
            and self.series_match
        )

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "well_defined": self.well_defined,
            "columns_in_hom": self.columns_in_hom,
            "surjective": self.surjective,
            "series_match": self.series_match,
            "pass": self.passed,
        }


@dataclass
class FlipReport:
    summands: list[FlipSummandReport]
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(s.passed for s in self.summands)


def check_flip(setup: DetSetup) -> FlipReport:
    """Certify that each transpose-side summand is the dual of the straight
    side: the canonical pairing map is well defined, surjective, and matches
    Hilbert series (so it is an isomorphism)."""
    if setup.m > setup.n:
        raise ValueError("requires m <= n")
    ring = setup.ring
    flipped = flip_setup(setup)
    reports = []
    for shape in setup.box():
        t1 = wedge_module(setup, shape)
        t2 = wedge_module(flipped, shape)
        dual = hom_module(t1.presentation, setup.quotient, gb=setup.quotient.relation_vectors)
        # pairing columns: the transposed-side wedge matrix columns, read in
        # the ambient of Hom(t1, R) (one coordinate per t1 generator)
        w2 = t2.fmap
        tau_cols = list(w2.columns)
        degs = dual.ambient.degrees
        # a Groebner basis by construction, so each membership engine seeds it
        ideal = BlockBasis(setup.quotient.relation_vectors, 1, dual.ambient.rank)
        well_defined = contains(
            ring, (), degs, (w2.apply(v) for v in t2.presentation.relation_vectors),
            gb=ideal,
        )
        columns_in_hom = contains(ring, dual.hom_generators, degs, tau_cols, gb=ideal)
        surjective = contains(ring, tau_cols, degs, dual.hom_generators, gb=ideal)
        series_match = hilbert_series(dual) == hilbert_series(
            t2.presentation
        ).shifted(shape.size)
        reports.append(
            FlipSummandReport(
                tuple(shape.parts), well_defined, columns_in_hom, surjective, series_match
            )
        )
    return FlipReport(reports)


# ---------------------------------------------------------------------------
# Box-complement symmetry of the endomorphism ring


def box_complement(shape, l: int, width: int) -> Partition:
    """Reverse complement of a shape inside the l x width box; an involution."""
    padded = Partition.of(shape).padded(l)
    return Partition(tuple(width - padded[l - 1 - i] for i in range(l)))


@dataclass
class EndDualReport:
    m: int
    n: int
    l: int
    char: int
    involution_ok: bool
    pair_shifts: dict[tuple[tuple[int, ...], tuple[int, ...]], int | None]
    uniform_shift: bool
    total_series_equal: bool
    # biduality certificate per summand, in box order
    reflexive: dict[tuple[int, ...], bool]
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = (
            self.involution_ok
            and self.uniform_shift
            and self.total_series_equal
            and all(self.reflexive.values())
        )

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "l": self.l,
            "char": self.char,
            "involution_ok": self.involution_ok,
            "pair_shifts": [
                {"alpha": list(a), "beta": list(b), "shift": s}
                for (a, b), s in sorted(self.pair_shifts.items())
            ],
            "uniform_shift": self.uniform_shift,
            "total_series_equal": self.total_series_equal,
            "reflexive": [{"alpha": list(a), "pass": ok} for a, ok in self.reflexive.items()],
            "pass": self.passed,
        }


def series_shift(a: HilbertSeries, b: HilbertSeries) -> int | None:
    """The k with a == t^k * b, or None."""
    if not a.numerator and not b.numerator:
        return 0
    if not a.numerator or not b.numerator:
        return None
    k = min(a.numerator) - min(b.numerator)
    return k if a == b.shifted(k) else None


def check_end_dual(setup: DetSetup) -> EndDualReport:
    """The dual summands permute by the box complement: Hom blocks of the
    duals match Hom blocks of the complements up to one uniform degree shift,
    and the total endomorphism series is unchanged by dualizing.

    The straight blocks Hom(T_a, T_b) are those of `endomorphism_ring`; the
    complement side of each pair is a lookup among them, since complementing
    permutes the box.  A complement that leaves the box fails the involution
    check and gives its pairs shift None.  The duals Hom(T_a, R) are the
    blocks Hom(T_a, T_()) of the same ring: `hom_module` reads its target
    only through the generator degrees and the reduced Groebner basis of the
    relations, and these agree for T_() and R.

    The dual blocks are read off the same ring.  Tensor-Hom adjunction gives
    the graded isomorphism Hom(T_a^*, T_b^*) = Hom(T_b, T_a^**), and when T_a
    is reflexive that is the block Hom(T_b, T_a).  Reflexivity is certified
    per summand: T_a is the image of `wedge_alpha_map` in a free R-module,
    hence torsion-free over the domain R, so the natural map T_a -> T_a^** is
    injective of degree 0; equal Hilbert series of T_a and T_a^** then make
    it bijective in every degree.  A summand that fails the certificate
    fails the report; there is no fallback that computes the Hom modules of
    the duals.  The dual total is the straight total summed in transposed
    order, so `total_series_equal` holds by construction; the certificate is
    its evidence.
    """
    end = endomorphism_ring(setup)
    box = [t.shape for t in end.summands]
    idx = {a: i for i, a in enumerate(box)}
    width = setup.m - setup.l
    comp = {a: box_complement(a, setup.l, width) for a in box}
    involution_ok = all(
        comp[a] in idx and box_complement(comp[a], setup.l, width) == a for a in box
    )
    series = {key: hilbert_series(block) for key, block in end.blocks.items()}
    duals = [end.blocks[(i, idx[Partition()])] for i in range(len(box))]
    reflexive = {
        t.shape.parts: hilbert_series(hom_module(d, setup.quotient, gb=setup.quotient.relation_vectors))
        == hilbert_series(t.presentation)
        for t, d in zip(end.summands, duals)
    }
    shifts: dict = {}
    total_dual: HilbertSeries | None = None
    for i, a in enumerate(box):
        for j, b in enumerate(box):
            lhs = series[(j, i)]  # Hom(T_a^*, T_b^*) = Hom(T_b, T_a)
            rhs = series.get((idx.get(comp[a]), idx.get(comp[b])))
            shifts[(a.parts, b.parts)] = None if rhs is None else series_shift(lhs, rhs)
            total_dual = lhs if total_dual is None else total_dual + lhs
    total_straight: HilbertSeries | None = None
    for s in series.values():
        total_straight = s if total_straight is None else total_straight + s
    values = set(shifts.values())
    uniform = None not in values and len(values) == 1
    totals_equal = total_dual == total_straight
    return EndDualReport(
        setup.m, setup.n, setup.l, setup.char, involution_ok, shifts, uniform, totals_equal,
        reflexive,
    )
