"""`ModuleMap.apply` and `compose` against their definition: the image of a
vector is the sum over its terms of the column scaled by the term's monomial,
added up one `Vector` at a time.  Every result keeps the coefficient format:
an int mod p over F_p; in characteristic zero an int when integral and a
`Fraction` with denominator > 1 otherwise."""

import random
from fractions import Fraction

import pytest

from detlab.commalg import FreeModule, ModuleMap, Polynomial, PolyRing, Vector
from detlab.commalg.modules import poly_from_json, poly_to_json

P = 32003
COEFFS = {
    0: [1, 2, -1, -5, Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3)],
    P: [1, 2, P - 1, P - 2, 16002],
}


def reference_apply(fmap: ModuleMap, v: Vector) -> Vector:
    ring = fmap.source.ring
    out = Vector(ring, {})
    for (pos, m), c in v.terms.items():
        out = out + fmap.columns[pos].poly_scaled(Polynomial(ring, {m: c}))
    return out


def rand_vector(rng, ring, rank, nterms) -> Vector:
    terms = {}
    for _ in range(nterms):
        mono = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        c = ring.coeff(rng.choice(COEFFS[ring.char]))
        terms[(rng.randrange(rank), mono)] = c
    return Vector(ring, terms)


def rand_map(rng, ring, src_rank, tgt_rank) -> ModuleMap:
    cols = [rand_vector(rng, ring, tgt_rank, rng.randint(0, 6)) for _ in range(src_rank)]
    return ModuleMap(FreeModule(ring, (0,) * src_rank), FreeModule(ring, (0,) * tgt_rank), cols)


def assert_field_coefficients(v: Vector):
    p = v.ring.char
    for c in v.terms.values():
        assert c != 0
        if p:
            assert type(c) is int and 0 <= c < p
        else:
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


@pytest.mark.parametrize("char", [0, P])
def test_apply_and_compose_match_reference(char):
    ring = PolyRing(3, char)
    rng = random.Random(char + 12)
    for _ in range(60):
        a, b, c = (rng.randint(1, 4) for _ in range(3))
        outer, inner = rand_map(rng, ring, b, a), rand_map(rng, ring, c, b)
        v = rand_vector(rng, ring, b, rng.randint(0, 8))
        got = outer.apply(v)
        assert got == reference_apply(outer, v)
        assert_field_coefficients(got)
        composed = outer.compose(inner)
        assert composed.source == inner.source and composed.target == outer.target
        assert composed.columns == [reference_apply(outer, col) for col in inner.columns]
        for col in composed.columns:
            assert_field_coefficients(col)


@pytest.mark.parametrize("char", [0, P])
def test_apply_drops_cancelled_terms(char):
    """Terms that cancel leave no zero coefficient behind, whether the
    coefficients are integral, fractional or mod p."""
    ring = PolyRing(2, char)
    rng = random.Random(char + 5)
    for _ in range(30):
        col = rand_vector(rng, ring, 3, rng.randint(1, 6))
        fmap = ModuleMap(FreeModule(ring, (0, 0)), FreeModule(ring, (0, 0, 0)), [col, -col])
        mono = (rng.randint(0, 2), rng.randint(0, 2))
        c = ring.coeff(rng.choice(COEFFS[char]))
        v = Vector(ring, {(0, mono): c, (1, mono): c})
        assert reference_apply(fmap, v).is_zero()
        assert fmap.apply(v).is_zero()
        # a partial cancellation keeps exactly the surviving terms
        w = Vector(ring, {(0, mono): c, (1, mono): ring.coeff_add(c, c)})
        got = fmap.apply(w)
        assert got == reference_apply(fmap, w)
        assert_field_coefficients(got)


HALF = Fraction(1, 2)


def test_halves_cancel_to_an_int():
    """1/2 + 1/2 is the int 1 wherever two coefficients are summed: checked
    against the same sums done on plain `Fraction` dicts."""
    ring = PolyRing(2)
    x, y = (1, 0), (0, 1)
    xy = (1, 1)
    half = ring.coeff(HALF)
    assert type(half) is Fraction

    p = Polynomial(ring, {x: half, y: 3})
    want = {x: HALF + HALF, y: Fraction(6)}
    got = (p + p).terms
    assert got == want and [type(got[m]) for m in (x, y)] == [int, int]

    v = Vector(ring, {(0, x): half, (1, y): half})
    got = (v + v).terms
    assert got == {(0, x): HALF + HALF, (1, y): HALF + HALF}
    assert {type(c) for c in got.values()} == {int}

    # (x/2 + y/2) * (x + y): the two products in xy cancel their halves
    w = Vector(ring, {(0, x): half, (0, y): half})
    q = Polynomial(ring, {x: 1, y: 1})
    want: dict = {}
    for (pos, m1), c1 in w.terms.items():
        for m2, c2 in q.terms.items():
            t = (pos, tuple(a + b for a, b in zip(m1, m2)))
            want[t] = want.get(t, Fraction(0)) + Fraction(c1) * Fraction(c2)
    got = w.poly_scaled(q).terms
    assert got == want and type(got[(0, xy)]) is int
    assert type(got[(0, (2, 0))]) is Fraction

    fmap = ModuleMap(
        FreeModule(ring, (1, 1)),
        FreeModule(ring, (0,)),
        [Vector(ring, {(0, x): half}), Vector(ring, {(0, y): half})],
    )
    got = fmap.apply(Vector(ring, {(0, y): 1, (1, x): 1})).terms
    assert got == {(0, xy): HALF * 1 + HALF * 1} and type(got[(0, xy)]) is int


def test_coeff_inv_returns_ints_when_integral():
    ring = PolyRing(1)
    one, three, half = ring.coeff_inv(1), ring.coeff_inv(Fraction(1, 3)), ring.coeff_inv(2)
    assert (one, three, half) == (1, 3, Fraction(1, 2))
    assert (type(one), type(three), type(half)) == (int, int, Fraction)
    assert ring.coeff("4/2") == 2 and type(ring.coeff("4/2")) is int


def test_poly_json_round_trip_keeps_the_format():
    ring = PolyRing(2)
    data = [["-4", [0, 1]], ["3/2", [1, 0]]]
    p = poly_from_json(ring, data)
    assert p.terms == {(0, 1): Fraction(-4), (1, 0): Fraction(3, 2)}
    assert type(p.terms[(0, 1)]) is int and type(p.terms[(1, 0)]) is Fraction
    assert poly_to_json(p) == data
    fp = poly_from_json(PolyRing(2, P), [["-4", [0, 1]]])
    assert fp.terms == {(0, 1): P - 4}
