import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from detlab.commalg import (
    FreeModule,
    GroebnerEngine,
    ModuleMap,
    ModulePresentation,
    PolyRing,
    Polynomial,
    Vector,
    elim_key,
    groebner,
    groebner_ideal,
    kernel_vectors,
    minimal_generators,
    syzygies,
    top_key,
)
from detlab.commalg.groebner import DEG_MAX, POS_MAX, TermCodec

R2 = PolyRing(2, 0, ("x", "y"))
X, Y = R2.variable(0), R2.variable(1)


def ideal_vec(ring, p):
    return Vector(ring, {(0, m): c for m, c in p.terms.items()})


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
    eng = GroebnerEngine(R2)
    for p in [X * X - Y * Y, X * Y]:
        eng.add_generator(ideal_vec(R2, p))
    eng.complete()
    # x^3 = x*(x^2 - y^2) + y*(xy) is in the ideal
    x3 = X * X * X
    assert eng.normal_form(ideal_vec(R2, x3)).is_zero()
    assert not eng.normal_form(ideal_vec(R2, X)).is_zero()


def rand_poly(rng, ring, deg):
    out = ring.zero()
    for _ in range(3):
        e1 = rng.randint(0, deg)
        e2 = deg - e1
        out = out + ring.monomial((e1, e2), rng.randint(-3, 3))
    return out


def test_normal_form_idempotent_and_linear():
    rng = random.Random(7)
    eng = GroebnerEngine(R2)
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
    syz = syzygies(f)
    assert syz.source.rank == 1
    assert f.compose(syz).is_zero()
    col = syz.columns[0]
    # the kernel is generated by (y, -x) up to sign
    assert {p for p, _ in col.terms} == {0, 1}


def test_identity_has_no_syzygies():
    F = FreeModule(R2, (0,))
    f = ModuleMap.from_entries(F, F, [[R2.one()]])
    assert kernel_vectors(f) == []


def test_kernel_through_quotient():
    # kernel of S --x--> S/(x^2) is (x)
    F = FreeModule(R2, (1,))
    T = FreeModule(R2, (0,))
    f = ModuleMap.from_entries(F, T, [[X]])
    q = [ideal_vec(R2, X * X)]
    ker = kernel_vectors(f, groebner(R2, q))
    assert len(ker) == 1
    assert ker[0].terms == {(0, (1, 0)): R2.coeff(1)}


def test_minimal_generators_drops_redundant():
    vecs = [ideal_vec(R2, X), ideal_vec(R2, X * X), ideal_vec(R2, Y)]
    ming = minimal_generators(R2, vecs, (0,))
    assert len(ming) == 2


def test_minimal_generators_mod_quotient():
    q = groebner(R2, [ideal_vec(R2, X)])
    vecs = [ideal_vec(R2, X + Y), ideal_vec(R2, Y)]
    ming = minimal_generators(R2, vecs, (0,), q)
    assert len(ming) == 1


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
    eng = GroebnerEngine(R2)
    edge = Vector(R2, {(0, (DEG_MAX - 1, 1)): R2.coeff(1)})
    assert eng.normal_form(edge) == edge
    with pytest.raises(OverflowError):
        eng.normal_form(Vector(R2, {(0, (2**15, 0)): R2.coeff(1)}))
    with pytest.raises(OverflowError):
        eng.normal_form(Vector(R2, {(POS_MAX + 1, (1, 0)): R2.coeff(1)}))
    # e0*x reduces to -e1*y^5 under the block order: a reduction step raises
    # the degree by 4, so e0*x^a is refused once a + 4 exceeds DEG_MAX
    one = R2.coeff(1)
    eng = GroebnerEngine(R2, elim_key(1))
    eng.seed([Vector(R2, {(0, (1, 0)): one, (1, (0, 5)): one})])
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
    for codec, key in ((TermCodec(NV), top_key), (TermCodec(NV, split), elim_key(split))):
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


@pytest.mark.parametrize("char", [0, 32003])
def test_coefficients_leave_the_engine_in_field_form(char):
    ring = PolyRing(2, char, ("x", "y"))
    x, y = ring.variable(0), ring.variable(1)
    F = FreeModule(ring, (1, 1))
    f = ModuleMap.from_entries(F, FreeModule(ring, (0,)), [[x.scaled(2), y.scaled(3)]])
    gb = groebner(ring, [ideal_vec(ring, x * x.scaled(2) - y * y), ideal_vec(ring, x * y.scaled(3))])
    eng = GroebnerEngine(ring)
    for v in gb:
        eng.add_generator(v)
    eng.complete()
    nf = eng.normal_form(ideal_vec(ring, x * x.scaled(5) + y * y.scaled(7) + x))
    out = [nf, *gb, *eng.reduced_basis(), *kernel_vectors(f)]
    coeffs = [c for v in out for c in v.terms.values()]
    assert coeffs
    for c in coeffs:
        if char:
            assert type(c) is int and 0 <= c < char
        else:
            assert type(c) is Fraction
