"""`ModuleMap.apply` and `compose` against their definition: the image of a
vector is the sum over its terms of the column scaled by the term's monomial,
added up one `Vector` at a time."""

import random
from fractions import Fraction

import pytest

from detlab.commalg import FreeModule, ModuleMap, Polynomial, PolyRing, Vector

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
            assert type(c) is Fraction


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
