import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from detlab.commalg import (
    NO_QUOTIENT,
    BlockBasis,
    FreeModule,
    GroebnerEngine,
    HilbertSeries,
    ModuleMap,
    ModulePresentation,
    PolyRing,
    Polynomial,
    Vector,
    contains,
    hilbert_series,
    kernel_vectors,
    minimal_generators,
)
from detlab.commalg.groebner import (
    DEG_MAX,
    POS_MAX,
    TermCodec,
    grevlex_key,
    groebner,
    membership_engine,
)
from detlab.commalg.hilbert import _minimalize, _mono_numerator
from detlab.detvar import endomorphism_ring, generic_setup, wedge_alpha_map, wedge_module

R2 = PolyRing(2, 0, ("x", "y"))
X, Y = R2.variable(0), R2.variable(1)


def test_groebner_submodule_is_importable_by_name():
    import detlab.commalg.groebner as g

    assert g.GroebnerEngine is GroebnerEngine and callable(g.groebner)


def ideal_vec(ring, p):
    return Vector(ring, {(0, m): c for m, c in p.terms.items()})


def top_key(term):
    """Reference order key: grevlex, extended term-over-position."""
    pos, mono = term
    return (0, grevlex_key(mono), -pos)


def elim_key(split):
    """Reference block order key: positions below `split` dominate."""
    return lambda term: (1 if term[0] < split else 0, grevlex_key(term[1]), -term[0])


def groebner_ideal(ring, polys):
    """Reduced Groebner basis of an ideal, as polynomials."""
    gb = groebner(ring, [ideal_vec(ring, p) for p in polys], (0,))
    return [Polynomial(ring, {m: c for (_, m), c in v.terms.items()}) for v in gb]


def test_groebner_examples():
    gb = groebner_ideal(R2, [X * X - Y * Y, X * X + Y * Y])
    assert sorted(str(g) for g in gb) == ["x^2", "y^2"]
    assert groebner_ideal(R2, []) == []
    R4 = PolyRing(4, 0, ("a", "b", "c", "d"))
    a, b, c, d = (R4.variable(i) for i in range(4))
    det = a * d - b * c
    gb = groebner_ideal(R4, [det])
    assert len(gb) == 1 and gb[0].terms.keys() == det.terms.keys()


def test_groebner_deterministic():
    gens = [X * X - Y * Y, X * Y + Y * Y, Y * Y * Y]
    one = groebner_ideal(R2, gens)
    two = groebner_ideal(R2, gens)
    assert [g.terms for g in one] == [g.terms for g in two]


def test_normal_form_membership():
    eng = GroebnerEngine(R2, (0,))
    for p in [X * X - Y * Y, X * Y]:
        eng.add_generator(ideal_vec(R2, p))
    eng.complete()
    # x^3 = x*(x^2 - y^2) + y*(xy) is in the ideal
    x3 = X * X * X
    assert eng.normal_form(ideal_vec(R2, x3)).is_zero()
    assert not eng.normal_form(ideal_vec(R2, X)).is_zero()


def term(ring, expo, c):
    """The polynomial c * x^expo (zero when c is)."""
    return ring.constant(c) * Polynomial(ring, {tuple(expo): 1})


def rand_poly(rng, ring, deg):
    out = ring.constant(0)
    for _ in range(3):
        e1 = rng.randint(0, deg)
        e2 = deg - e1
        out = out + term(ring, (e1, e2), rng.randint(-3, 3))
    return out


def test_normal_form_idempotent_and_linear():
    rng = random.Random(7)
    eng = GroebnerEngine(R2, (0,))
    for p in [X * X - Y * Y, X * Y * Y]:
        eng.add_generator(ideal_vec(R2, p))
    eng.complete()
    for _ in range(25):
        f = rand_poly(rng, R2, 3)
        g = rand_poly(rng, R2, 3)
        nf = eng.normal_form(ideal_vec(R2, f))
        again = eng.normal_form(nf)
        assert again.terms == nf.terms
        nfg = eng.normal_form(ideal_vec(R2, g))
        both = eng.normal_form(ideal_vec(R2, f + g))
        assert both.terms == (nf + nfg).terms


def test_koszul_syzygy():
    F = FreeModule(R2, (1, 1))
    T = FreeModule(R2, (0,))
    f = ModuleMap.from_entries(F, T, [[X, Y]])
    syz = kernel_vectors(f, NO_QUOTIENT)
    assert len(syz) == 1
    assert f.apply(syz[0]).is_zero()
    # the kernel is generated by (y, -x) up to sign
    assert {p for p, _ in syz[0].terms} == {0, 1}


def test_identity_has_no_syzygies():
    F = FreeModule(R2, (0,))
    f = ModuleMap.from_entries(F, F, [[R2.one()]])
    assert kernel_vectors(f, NO_QUOTIENT) == []


def test_kernel_through_quotient():
    # kernel of S --x--> S/(x^2) is (x)
    F = FreeModule(R2, (1,))
    T = FreeModule(R2, (0,))
    f = ModuleMap.from_entries(F, T, [[X]])
    q = [ideal_vec(R2, X * X)]
    ker = kernel_vectors(f, BlockBasis(groebner(R2, q, (0,)), 1, 1))
    assert len(ker) == 1
    assert ker[0].terms == {(0, (1, 0)): R2.coeff(1)}


def _series(free, vectors):
    return hilbert_series(
        ModulePresentation.from_relations(free, [v for v in vectors if not v.is_zero()])
    )


def copies(quotient):
    """The shifted copies a block basis stands for, written out."""
    return [v.shifted_positions(k * quotient.rank) for k in range(quotient.blocks) for v in quotient.gb]


def kernel_oracle(fmap, quotient_gb, out, source_gb=NO_QUOTIENT) -> bool:
    """Do `out`, with the copies of the seeded source basis, generate the
    kernel of source -> target/Q?  Checked without the elimination engine:
    every generator maps into Q (`contains`), and their span has the Hilbert
    series that the exact sequence
    0 -> ker -> source -> target/Q -> target/(Q + im f) -> 0 forces; a
    graded submodule of the kernel with the kernel's series is the kernel."""
    tgt = fmap.target
    out = [*out, *copies(source_gb)]
    if not contains(tgt.ring, (), tgt.degrees, (fmap.apply(v) for v in out), gb=quotient_gb):
        return False
    written = copies(quotient_gb)
    mod_q, mod_image = _series(tgt, written), _series(tgt, [*written, *fmap.columns])
    image = dict(mod_q.numerator)
    for d, c in mod_image.numerator.items():
        image[d] = image.get(d, 0) - c
    return _series(fmap.source, out) == HilbertSeries(image, mod_q.denom_power)


def drop_top_degree(fmap, out):
    """Mutant kernel output: every vector of the top degree removed."""
    degs = [v.degree(fmap.source.degrees) for v in out]
    return [v for v, d in zip(out, degs) if d != max(degs, default=None)]


WEDGE_KERNEL_CASES = [((2, 4, 1), 0), ((3, 3, 1), 0), ((3, 3, 2), 0), ((3, 4, 2), 32003)]


def wedge_kernels(mnl, char):
    setup = generic_setup(*mnl, char=char)
    for alpha in setup.box():
        fmap = wedge_alpha_map(setup, alpha)
        q = BlockBasis(setup.quotient.relation_vectors, 1, fmap.target.rank)
        yield fmap, q, kernel_vectors(fmap, q)


def hom_kernels(monkeypatch, mnl=(3, 3, 1)):
    """Every kernel `commalg.homs` takes while building the End ring of
    `mnl` over F_32003, with its seeded source basis: the relations of the
    summands, then the constraint kernel (seeded with N's relations in every
    slot) and the relations of each block."""
    from detlab.commalg import homs

    calls = []

    def recording(fmap, quotient_gb, source_gb=NO_QUOTIENT):
        out = kernel_vectors(fmap, quotient_gb, source_gb)
        calls.append((fmap, quotient_gb, source_gb, out))
        return out

    monkeypatch.setattr(homs, "kernel_vectors", recording)
    end = endomorphism_ring(generic_setup(*mnl, char=32003))
    assert len(calls) == len(end.summands) + 2 * len(end.blocks)
    return calls


@pytest.mark.parametrize("mnl,char", WEDGE_KERNEL_CASES)
def test_kernel_vectors_oracle_on_wedge_maps(mnl, char):
    for fmap, q, out in wedge_kernels(mnl, char):
        assert kernel_oracle(fmap, q, out)


def test_kernel_vectors_oracle_on_hom_kernels(monkeypatch):
    calls = hom_kernels(monkeypatch)
    assert len(calls) == 3 + 18
    for fmap, q, source, out in calls:
        assert kernel_oracle(fmap, q, out, source)


@pytest.mark.parametrize("mnl", [(3, 3, 1), (3, 4, 2)])
def test_seeded_source_basis_is_known_kernel(monkeypatch, mnl):
    """Seeding N's relations at the source side of a constraint kernel is
    sound: they map into the target quotient, and no returned vector lies in
    their span (each is in normal form against the seed)."""
    seeded = [c for c in hom_kernels(monkeypatch, mnl) if c[2].blocks]
    assert len(seeded) == 9
    for fmap, q, source, out in seeded:
        ring, degs = fmap.source.ring, fmap.source.degrees
        known = copies(source)
        assert contains(ring, (), fmap.target.degrees, (fmap.apply(v) for v in known), gb=q)
        assert not any(contains(ring, known, degs, [v]) for v in out)


@pytest.mark.parametrize("mnl,char", WEDGE_KERNEL_CASES)
def test_kernel_oracle_rejects_dropped_top_degree_on_wedge_maps(mnl, char):
    assert not all(
        kernel_oracle(fmap, q, drop_top_degree(fmap, out))
        for fmap, q, out in wedge_kernels(mnl, char)
    )


def test_kernel_oracle_rejects_dropped_top_degree_on_hom_kernels(monkeypatch):
    # every seeded constraint kernel is rejected although the seeded copies
    # remain, so not only because the mutant's generating set is empty
    rejected = [
        not kernel_oracle(f, q, drop_top_degree(f, out), source)
        for f, q, source, out in hom_kernels(monkeypatch)
        if source.blocks
    ]
    assert len(rejected) == 9 and all(rejected)


def test_minimal_generators_drops_redundant():
    vecs = [ideal_vec(R2, X), ideal_vec(R2, X * X), ideal_vec(R2, Y)]
    ming = minimal_generators(R2, vecs, (0,))
    assert len(ming) == 2


def test_minimal_generators_mod_quotient():
    q = BlockBasis(groebner(R2, [ideal_vec(R2, X)], (0,)), 1, 1)
    vecs = [ideal_vec(R2, X + Y), ideal_vec(R2, Y)]
    ming = minimal_generators(R2, vecs, (0,), q)
    assert len(ming) == 1


def test_minimal_generators_rejects_nonhomogeneous_quotient():
    # degree truncation is exact only for graded input
    q = BlockBasis([ideal_vec(R2, X * X + Y)], 1, 1)
    with pytest.raises(ValueError):
        minimal_generators(R2, [ideal_vec(R2, X)], (0,), q)
    with pytest.raises(ValueError):
        minimal_generators(R2, [ideal_vec(R2, X * X + Y)], (0,))


def reference_minimal_generators(ring, vectors, degrees, quotient_gb=NO_QUOTIENT):
    """The sweep without degree truncation: the same candidate order, with a
    full completion after every kept candidate."""

    def canon(v):
        return (v.degree(degrees), [(p, grevlex_key(m), str(c)) for (p, m), c in sorted(v.terms.items())])

    eng = GroebnerEngine(ring, degrees)
    eng.seed(quotient_gb)
    kept = []
    for v in sorted((v for v in vectors if not v.is_zero()), key=canon):
        if eng.add_generator(v):
            kept.append(v)
            eng.complete()
    return kept


def checked_against_reference(monkeypatch, *modules):
    """Make every `minimal_generators` call through `modules` also run the
    reference sweep and require the same vectors in the same order."""
    calls = []

    def checked(ring, vectors, degrees, quotient_gb=NO_QUOTIENT):
        got = minimal_generators(ring, vectors, degrees, quotient_gb)
        assert got == reference_minimal_generators(ring, vectors, degrees, quotient_gb)
        calls.append(len(got))
        return got

    for module in modules:
        monkeypatch.setattr(module, "minimal_generators", checked)
    return calls


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("mnl", [(2, 4, 1), (3, 3, 1), (3, 4, 2)])
def test_minimal_generators_matches_reference_on_resolutions(monkeypatch, mnl, char):
    from detlab.commalg import homs, resolution

    calls = checked_against_reference(monkeypatch, resolution, homs)
    setup = generic_setup(*mnl, char=char)
    for alpha in setup.box():
        resolution.free_resolution(wedge_module(setup, alpha).presentation)
    # one presentation and at least one resolution step per box shape
    assert len(calls) >= 2 * len(setup.box())


def test_minimal_generators_matches_reference_on_hom_inputs(monkeypatch):
    from detlab.commalg import homs

    calls = checked_against_reference(monkeypatch, homs)
    end = endomorphism_ring(generic_setup(3, 3, 1, char=32003))
    # the 3 summand presentations, then generators and relations of each of
    # the 9 blocks
    assert len(end.summands) == 3 and len(end.blocks) == 9 and len(calls) == 3 + 18


def test_end_ring_installs_each_base_vector_once(monkeypatch):
    """The (3,3,1) End ring over F_32003 installs this many basis elements
    when each seeded block basis is packed once (6,676 when every block copy
    was installed) and each constraint kernel is seeded with N's relations
    at its source (2,122 without that seed); the count is exact, so
    written-out copies or an unseeded source fail here."""
    setup = generic_setup(3, 3, 1, char=32003)
    installs = []
    real = GroebnerEngine._install
    monkeypatch.setattr(
        GroebnerEngine, "_install", lambda self, terms: installs.append(1) or real(self, terms)
    )
    endomorphism_ring(setup)
    assert len(installs) == 1650


@st.composite
def graded_inputs(draw):
    """A ring in 2-3 variables, a graded free module of rank 1-2, random
    homogeneous vectors in it, optionally a homogeneous quotient, and
    candidates that are members: sums of two multiples of the others, so
    that membership tests need the S-pairs of the candidate's degree."""
    nvars = draw(st.integers(2, 3))
    ring = PolyRing(nvars, draw(st.sampled_from([0, 32003])))
    degrees = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=2)))
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])

    def monomial(degree):
        picks = draw(st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree))
        return tuple(picks.count(i) for i in range(nvars))

    def vector():
        total = draw(st.integers(1, 3))
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            pos = draw(st.integers(0, len(degrees) - 1))
            terms[(pos, monomial(total - degrees[pos]))] = ring.coeff(draw(coeff))
        return Vector(ring, terms)

    def member(pool):
        a, b = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2))
        da, db = a.degree(degrees), b.degree(degrees)
        total = max(da, db) + draw(st.integers(0, 1))
        return a.poly_scaled(term(ring, monomial(total - da), draw(coeff))) + b.poly_scaled(
            term(ring, monomial(total - db), draw(coeff))
        )

    vectors = [vector() for _ in range(draw(st.integers(2, 6)))]
    quotient = [vector() for _ in range(draw(st.integers(0, 2)))]
    vectors += [member(vectors + quotient) for _ in range(draw(st.integers(0, 4)))]
    return ring, vectors, degrees, groebner(ring, quotient, degrees=degrees)


@given(graded_inputs())
@settings(max_examples=150, deadline=None)
def test_minimal_generators_matches_reference_property(case):
    ring, vectors, degrees, quotient_gb = case
    quotient_gb = BlockBasis(quotient_gb, len(degrees), 1)
    assert minimal_generators(ring, vectors, degrees, quotient_gb) == (
        reference_minimal_generators(ring, vectors, degrees, quotient_gb)
    )


@st.composite
def block_inputs(draw):
    """A block basis over a ring in 2-3 variables (a Groebner basis of random
    homogeneous relations of a free module of rank 1-2, in 1-3 blocks whose
    degrees are the base degrees shifted by a constant each), the term order
    (grevlex, or every block below the elimination split), generators and
    probes: random homogeneous vectors across all blocks."""
    nvars = draw(st.integers(2, 3))
    ring = PolyRing(nvars, draw(st.sampled_from([0, 32003])))
    base = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=2)))
    blocks = draw(st.integers(1, 3))
    shifts = draw(st.lists(st.integers(-1, 1), min_size=blocks, max_size=blocks))
    degrees = tuple(d + s for s in shifts for d in base)
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])

    def vector(degs):
        total = max(degs) + draw(st.integers(0, 2))
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            pos = draw(st.integers(0, len(degs) - 1))
            picks = draw(st.lists(st.integers(0, nvars - 1), min_size=total - degs[pos], max_size=total - degs[pos]))
            terms[(pos, tuple(picks.count(i) for i in range(nvars)))] = ring.coeff(draw(coeff))
        return Vector(ring, terms)

    gb = groebner(ring, [vector(base) for _ in range(draw(st.integers(1, 3)))], base)
    split = draw(st.sampled_from([0, blocks * len(base)]))
    gens = [vector(degrees) for _ in range(draw(st.integers(0, 3)))]
    probes = [vector(degrees) for _ in range(4)]
    return ring, degrees, BlockBasis(gb, len(base), blocks), split, gens, probes


@given(block_inputs())
# a block-1 generator pairs with the base element shared into its slot; that
# pair's lcm must sit at the generator's position, not at the base's
@example((
    R2, (0, 0, 0, 0),
    BlockBasis([Vector(R2, {(0, (2, 0)): R2.coeff(1), (1, (2, 0)): R2.coeff(1)})], 2, 2),
    0, [Vector(R2, {(2, (0, 0)): R2.coeff(1)})], [Vector(R2, {(0, (2, 0)): R2.coeff(1)})],
))
@settings(max_examples=150, deadline=None)
def test_block_seeded_normal_forms_match_written_copies(case):
    """An engine seeded with a block basis (one shared element per base
    vector) and one completed on the written-out copies as generators, with
    no seed, agree on every normal form: normal forms modulo a Groebner basis
    are unique."""
    ring, degrees, quotient, split, gens, probes = case
    seeded = membership_engine(ring, gens, degrees, quotient, split)
    written = membership_engine(ring, copies(quotient) + gens, degrees, NO_QUOTIENT, split)
    assert len(seeded.basis) <= len(written.basis)
    for v in probes + copies(quotient) + gens:
        assert seeded.normal_form(v) == written.normal_form(v)


def test_block_seed_guards():
    """Guards the written-out copies gave: no block past the packed
    positions, no shared block across the elimination split, no reduced basis
    read off shared elements; zero blocks install nothing.  A source basis
    sits above the known one and obeys the same position bound."""
    one = R2.coeff(1)
    base = [Vector(R2, {(0, (1, 0)): one})]
    half = (POS_MAX + 1) // 2
    with pytest.raises(OverflowError):
        GroebnerEngine(R2, (0,)).seed(BlockBasis(base, half + 1, 2))
    GroebnerEngine(R2, (0,)).seed(BlockBasis(base, half, 2))
    with pytest.raises(ValueError):
        GroebnerEngine(R2, (0, 0, 0), split=1).seed(BlockBasis(base, 1, 2))
    eng = GroebnerEngine(R2, (0, 0), split=2)
    eng.seed(BlockBasis(base, 1, 2))
    assert eng.normal_form(Vector(R2, {(1, (2, 0)): one})).is_zero()
    eng = GroebnerEngine(R2, (0, 0))
    eng.seed(BlockBasis(base, 1, 2))
    with pytest.raises(RuntimeError):
        eng.reduced_basis()
    eng = GroebnerEngine(R2, ())
    eng.seed(BlockBasis(base, 1, 0))
    assert eng.basis == []
    # a source basis starts at the split, above the known basis, and stays in
    # range; with no target (split 0) it is the whole kernel
    with pytest.raises(ValueError):
        GroebnerEngine(R2, (0, 0)).seed(BlockBasis(base, 1, 1), BlockBasis(base, 1, 1))
    eng = GroebnerEngine(R2, (0,))
    eng.seed(NO_QUOTIENT, BlockBasis(base, 1, 1))
    assert len(eng.basis) == 1
    with pytest.raises(OverflowError):
        GroebnerEngine(R2, (0,), split=2).seed(NO_QUOTIENT, BlockBasis(base, half, 2))
    eng = GroebnerEngine(R2, (0, 0, 0), split=1)
    eng.seed(NO_QUOTIENT, BlockBasis(base, 1, 2))
    assert len(eng.basis) == 1 and eng.normal_form(Vector(R2, {(2, (2, 0)): one})).is_zero()


def divides(a, b):
    """Does the term a divide the term b (same position)?"""
    return a[0] == b[0] and all(x <= y for x, y in zip(a[1], b[1]))


def reference_reduced_basis(ring, vectors, degrees):
    """Interreduction written out on the completed basis of the same engine
    run: keep the first of each minimal lead, and reduce each kept element,
    lead included, by the other kept ones (Vector arithmetic, one top term
    at a time), then make it monic; sorted by increasing lead."""
    eng = GroebnerEngine(ring, degrees)
    for v in vectors:
        eng.add_generator(v)
    eng.complete()
    basis = [eng._vector(g.terms) for g in eng.basis]
    leads = [max(v.terms, key=top_key) for v in basis]
    kept = [
        i
        for i, a in enumerate(leads)
        if not any(j < i if b == a else divides(b, a) for j, b in enumerate(leads))
    ]
    out = []
    for i in kept:
        rest, nf = basis[i], {}
        while not rest.is_zero():
            t = max(rest.terms, key=top_key)
            c = rest.terms[t]
            j = next((j for j in kept if j != i and divides(leads[j], t)), None)
            if j is None:
                nf[t] = c
                rest = rest - Vector(ring, {t: c})
                continue
            q = tuple(x - y for x, y in zip(t[1], leads[j][1]))
            factor = ring.coeff(c * ring.coeff_inv(basis[j].terms[leads[j]]))
            rest = rest - basis[j].poly_scaled(term(ring, q, factor))
        inv = ring.coeff_inv(nf[leads[i]])
        out.append(Vector(ring, {t: ring.coeff(c * inv) for t, c in nf.items()}))
    return sorted(out, key=lambda v: top_key(max(v.terms, key=top_key)))


@given(graded_inputs())
@settings(max_examples=150, deadline=None)
def test_groebner_is_the_reduced_basis(case):
    ring, vectors, degrees, quotient_gb = case
    gb = groebner(ring, vectors + quotient_gb, degrees)
    leads = [max(v.terms, key=top_key) for v in gb]
    assert all(v.terms[lead] == 1 for v, lead in zip(gb, leads))
    tails = [t for v, lead in zip(gb, leads) for t in v.terms if t != lead]
    assert not any(divides(lead, t) for lead in leads for t in tails)
    assert leads == sorted(leads, key=top_key)
    assert gb == reference_reduced_basis(ring, vectors + quotient_gb, degrees)


def reference_hilbert_series(pres):
    """The series from the leads of the reduced Groebner basis of the
    relations."""
    gb = groebner(pres.ring, pres.relation_vectors, degrees=pres.gen_degrees)
    leads = {}
    for v in gb:
        pos, mono = max(v.terms, key=top_key)
        leads.setdefault(pos, []).append(mono)
    num = {}
    cache = {}
    for pos, d in enumerate(pres.gen_degrees):
        for e, c in _mono_numerator(_minimalize(leads.get(pos, [])), cache).items():
            num[e + d] = num.get(e + d, 0) + c
    return HilbertSeries({e: c for e, c in num.items() if c}, pres.ring.nvars)


@given(graded_inputs())
@settings(max_examples=150, deadline=None)
def test_hilbert_series_matches_reduced_basis_leads(case):
    ring, vectors, degrees, quotient_gb = case
    pres = ModulePresentation.from_relations(FreeModule(ring, degrees), vectors + quotient_gb)
    got, want = hilbert_series(pres), reference_hilbert_series(pres)
    assert (got.numerator, got.denom_power) == (want.numerator, want.denom_power)


@st.composite
def monomial_ideals(draw):
    """(nvars, minimal generators) of a monomial ideal in 1..4 variables:
    any generators, one generator, or pairwise coprime generators."""
    nvars = draw(st.integers(1, 4))
    mono = st.tuples(*[st.integers(0, 3)] * nvars)
    kind = draw(st.sampled_from(["any", "one", "coprime"]))
    if kind == "any":
        gens = draw(st.lists(mono, max_size=5))
    elif kind == "one":
        gens = [draw(mono)]
    else:
        # each variable joins one generator's support, or none (-1)
        owner = draw(st.tuples(*[st.integers(-1, nvars - 1)] * nvars))
        gens = [
            tuple(draw(st.integers(1, 3)) if owner[i] == g else 0 for i in range(nvars))
            for g in sorted(set(owner) - {-1})
        ]
    return nvars, _minimalize(gens)


@given(monomial_ideals())
@settings(max_examples=200, deadline=None)
def test_mono_numerator_counts_standard_monomials(case):
    """Numerator / (1-t)^nvars counts, in each degree through 6, the
    monomials that no generator divides."""
    nvars, gens = case
    num = _mono_numerator(gens, {})
    for d in range(7):
        standard = sum(
            1
            for e in itertools.product(range(d + 1), repeat=nvars)
            if sum(e) == d and not any(all(a >= b for a, b in zip(e, g)) for g in gens)
        )
        series = sum(c * math.comb(d - k + nvars - 1, nvars - 1) for k, c in num.items() if k <= d)
        assert series == standard, (gens, d)


def test_module_groebner_over_prime_field():
    Rp = PolyRing(2, 32003, ("x", "y"))
    xp, yp = Rp.variable(0), Rp.variable(1)
    gb = groebner_ideal(Rp, [xp * xp - yp * yp, xp * xp + yp * yp])
    assert sorted(str(g) for g in gb) == ["x^2", "y^2"]


def test_char_two_arithmetic():
    Rp = PolyRing(1, 2, ("x",))
    x = Rp.variable(0)
    assert (x + x).is_zero()


def test_coeff_inv_is_exact():
    inv = PolyRing(2).coeff_inv(3)
    assert type(inv) is Fraction and inv == Fraction(1, 3)
    assert PolyRing(2).coeff_inv(Fraction(-2, 5)) == Fraction(-5, 2)
    assert PolyRing(2, 7).coeff_inv(3) == 5


def test_packed_range_is_guarded():
    eng = GroebnerEngine(R2, (0,))
    edge = Vector(R2, {(0, (DEG_MAX - 1, 1)): R2.coeff(1)})
    assert eng.normal_form(edge) == edge
    with pytest.raises(OverflowError):
        eng.normal_form(Vector(R2, {(0, (2**15, 0)): R2.coeff(1)}))
    with pytest.raises(OverflowError):
        eng.normal_form(Vector(R2, {(POS_MAX + 1, (1, 0)): R2.coeff(1)}))
    # e0*x reduces to -e1*y^5 under the block order: a reduction step raises
    # the degree by 4, so e0*x^a is refused once a + 4 exceeds DEG_MAX
    one = R2.coeff(1)
    eng = GroebnerEngine(R2, (0, 0), split=1)
    eng.seed(BlockBasis([Vector(R2, {(0, (1, 0)): one, (1, (0, 5)): one})], 2, 1))
    a = DEG_MAX - 4
    nf = eng.normal_form(Vector(R2, {(0, (a, 0)): one}))
    assert nf.terms == {(1, (a - 1, 5)): -one}
    with pytest.raises(OverflowError):
        eng.normal_form(Vector(R2, {(0, (a + 1, 0)): one}))


NV = 4


def monos(max_exp=20):
    return st.tuples(*[st.integers(0, max_exp)] * NV)


terms = st.tuples(st.integers(0, 6), monos())


@given(terms, terms, st.integers(0, 7))
@settings(max_examples=300)
def test_packed_order_matches_keys(a, b, split):
    for codec, key in ((TermCodec(NV, 0), top_key), (TermCodec(NV, split), elim_key(split))):
        pa, pb = codec.pack(a), codec.pack(b)
        assert (pa < pb) == (key(a) < key(b))
        assert (pa == pb) == (a == b)
        assert codec.unpack(pa) == a


@given(terms, terms, monos(), st.integers(0, 7))
@settings(max_examples=300)
def test_shift_by_addition(t, other, d, split):
    codec = TermCodec(NV, split)
    (pos, mono), (opos, omono) = t, other
    # the shift by d, read off any term at any position
    delta = codec.pack((opos, tuple(map(sum, zip(omono, d))))) - codec.pack(other)
    shifted = (pos, tuple(map(sum, zip(mono, d))))
    assert codec.pack(t) + delta == codec.pack(shifted)


@given(st.integers(0, 6), monos(4), monos(4), st.integers(0, 7))
@settings(max_examples=300)
def test_guard_bit_divisibility_and_lcm(pos, a, b, split):
    codec = TermCodec(NV, split)
    pa, pb = codec.pack((pos, a)), codec.pack((pos, b))
    assert codec.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    lcm = tuple(map(max, a, b))
    assert codec.lcm(pa, pb) == codec.pack((pos, lcm))
    coprime = all(x == 0 or y == 0 for x, y in zip(a, b))
    assert (not codec.support(pa) & codec.support(pb)) == coprime


def eng_nf(ring, basis_vec, poly):
    eng = GroebnerEngine(ring, (0,))
    eng.seed(BlockBasis([basis_vec], 1, 1))
    return eng.normal_form(ideal_vec(ring, poly))


@pytest.mark.parametrize("char", [0, 32003])
def test_coefficients_leave_the_engine_in_field_form(char):
    ring = PolyRing(2, char, ("x", "y"))
    x, y = ring.variable(0), ring.variable(1)
    F = FreeModule(ring, (1, 1))
    f = ModuleMap.from_entries(F, FreeModule(ring, (0,)), [[x.scaled(2), y.scaled(3)]])
    gb = groebner(ring, [ideal_vec(ring, x * x.scaled(2) - y * y), ideal_vec(ring, x * y.scaled(3))], (0,))
    eng = GroebnerEngine(ring, (0,))
    for v in gb:
        eng.add_generator(v)
    eng.complete()
    nf = eng.normal_form(ideal_vec(ring, x * x.scaled(5) + y * y.scaled(7) + x))
    out = [nf, *gb, *eng.reduced_basis(), *kernel_vectors(f, NO_QUOTIENT)]
    # 2x + 3y is made monic as x + 3/2 y; reducing 2x and x by it leaves -3y
    # (an integral result of fractional arithmetic) and -3/2 y
    (monic,) = groebner(ring, [ideal_vec(ring, x.scaled(2) + y.scaled(3))], (0,))
    two_x = eng_nf(ring, monic, x.scaled(2))
    one_x = eng_nf(ring, monic, x)
    out += [monic, two_x, one_x]
    coeffs = [c for v in out for c in v.terms.values()]
    assert coeffs
    for c in coeffs:
        if char:
            assert type(c) is int and 0 <= c < char
        else:
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
    X0, Y0 = (0, (1, 0)), (0, (0, 1))
    gen = {X0: Fraction(2), Y0: Fraction(3)}
    want = {t: c / gen[X0] for t, c in gen.items()}
    want_two_x = {Y0: -2 * want[Y0]}
    want_one_x = {Y0: -want[Y0]}
    if char:
        want, want_two_x, want_one_x = (
            {t: c.numerator * pow(c.denominator, -1, char) % char for t, c in w.items()}
            for w in (want, want_two_x, want_one_x)
        )
    assert monic.terms == want
    assert two_x.terms == want_two_x
    assert one_x.terms == want_one_x
    if not char:
        assert [type(monic.terms[X0]), type(monic.terms[Y0])] == [int, Fraction]
        assert type(two_x.terms[Y0]) is int and type(one_x.terms[Y0]) is Fraction
