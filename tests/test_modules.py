"""Polynomial, vector and map arithmetic against a reference written here,
without `PolyRing`: each result is summed as plain `Fraction`s and reduced
once, mod p over F_p, with zero sums dropped.  F_2 and F_3 make cancellation
to zero common.  Every result keeps the coefficient format: an int mod p
over F_p; in characteristic zero an int when integral and a `Fraction` with
denominator > 1 otherwise."""

import random
from fractions import Fraction

import pytest

from detlab.commalg import FreeModule, ModuleMap, Polynomial, PolyRing, Vector
from detlab.commalg.homs import matrix_rank
from detlab.commalg.modules import poly_to_json

P = 32003
CHARS = [0, 2, 3, P]
RATIONALS = [1, 2, -1, -5, Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3)]


def draw(rng, char):
    """A nonzero coefficient in the field format, drawn without `PolyRing`."""
    return rng.randrange(1, char) if char else rng.choice(RATIONALS)


def reference(char, pairs) -> dict:
    """The sum of (key, value) pairs per key, as `Fraction`s reduced mod p
    once at the end over F_p; zero sums are dropped."""
    acc: dict = {}
    for k, v in pairs:
        acc[k] = acc.get(k, Fraction(0)) + Fraction(v)
    if char:
        acc = {k: int(v) % char for k, v in acc.items()}
    return {k: v for k, v in acc.items() if v}


def mono_add(m1, m2):
    return tuple(a + b for a, b in zip(m1, m2))


def reference_apply(fmap: ModuleMap, v: Vector) -> dict:
    return reference(fmap.source.ring.char, [
        ((p, mono_add(m1, m2)), c1 * c2)
        for (pos, m2), c2 in v.terms.items()
        for (p, m1), c1 in fmap.columns[pos].terms.items()
    ])


def rand_poly(rng, ring, nterms) -> Polynomial:
    return Polynomial(ring, {
        tuple(rng.randint(0, 1) for _ in range(ring.nvars)): draw(rng, ring.char)
        for _ in range(nterms)
    })


def rand_vector(rng, ring, rank, nterms) -> Vector:
    terms = {}
    for _ in range(nterms):
        mono = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        terms[(rng.randrange(rank), mono)] = draw(rng, ring.char)
    return Vector(ring, terms)


def rand_map(rng, ring, src_rank, tgt_rank) -> ModuleMap:
    cols = [rand_vector(rng, ring, tgt_rank, rng.randint(0, 6)) for _ in range(src_rank)]
    return ModuleMap(FreeModule(ring, (0,) * src_rank), FreeModule(ring, (0,) * tgt_rank), cols)


def assert_field_coefficients(x):
    """`x` is a `Polynomial` or a `Vector`."""
    p = x.ring.char
    for c in x.terms.values():
        assert c != 0
        if p:
            assert type(c) is int and 0 <= c < p
        else:
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


def negated(terms: dict) -> list:
    return [(k, -c) for k, c in terms.items()]


@pytest.mark.parametrize("char", CHARS)
def test_polynomial_arithmetic_matches_reference(char):
    ring = PolyRing(2, char)
    rng = random.Random(char + 3)
    for _ in range(80):
        f, g = rand_poly(rng, ring, rng.randint(0, 4)), rand_poly(rng, ring, rng.randint(0, 4))
        c = rng.choice([0, draw(rng, char)])
        ft, gt = list(f.terms.items()), list(g.terms.items())
        cases = [
            (f + g, ft + gt),
            (f - g, ft + negated(g.terms)),
            (-f, negated(f.terms)),
            (f - f, []),
            (f * g, [(mono_add(m1, m2), c1 * c2) for m1, c1 in ft for m2, c2 in gt]),
            (f.scaled(c), [(m, v * c) for m, v in ft]),
        ]
        for got, pairs in cases:
            assert got.terms == reference(char, pairs)
            assert_field_coefficients(got)


@pytest.mark.parametrize("other", [PolyRing(3), PolyRing(2, 2), PolyRing(2, 0, ("x", "y"))])
def test_product_over_different_rings_raises(other):
    f = PolyRing(2).variable(0)
    with pytest.raises(ValueError):
        f * other.variable(1)
    with pytest.raises(ValueError):
        other.variable(1) * f


@pytest.mark.parametrize("char", CHARS)
def test_vector_arithmetic_matches_reference(char):
    ring = PolyRing(2, char)
    rng = random.Random(char + 4)
    for _ in range(80):
        v, w = (rand_vector(rng, ring, 2, rng.randint(0, 5)) for _ in range(2))
        f = rand_poly(rng, ring, rng.randint(0, 3))
        vt, wt = list(v.terms.items()), list(w.terms.items())
        cases = [
            (v + w, vt + wt),
            (v - w, vt + negated(w.terms)),
            (-v, negated(v.terms)),
            (v - v, []),
            (v.poly_scaled(f), [
                ((pos, mono_add(m1, m2)), c1 * c2)
                for (pos, m1), c1 in vt for m2, c2 in f.terms.items()
            ]),
        ]
        for got, pairs in cases:
            assert got.terms == reference(char, pairs)
            assert_field_coefficients(got)


@pytest.mark.parametrize("char", CHARS)
def test_apply_and_compose_match_reference(char):
    ring = PolyRing(3, char)
    rng = random.Random(char + 12)
    for _ in range(60):
        a, b, c = (rng.randint(1, 4) for _ in range(3))
        outer, inner = rand_map(rng, ring, b, a), rand_map(rng, ring, c, b)
        v = rand_vector(rng, ring, b, rng.randint(0, 8))
        got = outer.apply(v)
        assert got.terms == reference_apply(outer, v)
        assert_field_coefficients(got)
        composed = outer.compose(inner)
        assert composed.source == inner.source and composed.target == outer.target
        assert [col.terms for col in composed.columns] == [
            reference_apply(outer, col) for col in inner.columns
        ]
        for col in composed.columns:
            assert_field_coefficients(col)


@pytest.mark.parametrize("char", CHARS)
def test_kronecker_matches_reference(char):
    ring = PolyRing(2, char)
    rng = random.Random(char + 7)
    for _ in range(30):
        a = rand_map(rng, ring, rng.randint(1, 3), rng.randint(1, 3))
        b = rand_map(rng, ring, rng.randint(1, 3), rng.randint(1, 3))
        kron = a.kronecker(b)
        t2 = b.target.rank
        assert (kron.source.rank, kron.target.rank) == (
            a.source.rank * b.source.rank, a.target.rank * t2
        )
        want = [
            reference(char, [
                ((p1 * t2 + p2, mono_add(m1, m2)), v1 * v2)
                for (p1, m1), v1 in c1.terms.items()
                for (p2, m2), v2 in c2.terms.items()
            ])
            for c1 in a.columns for c2 in b.columns
        ]
        assert [col.terms for col in kron.columns] == want
        for col in kron.columns:
            assert_field_coefficients(col)


def reference_rank(char, rows) -> int:
    """Rank by Gaussian elimination on `Fraction`s, or on ints mod p."""
    red = (lambda x: x % char) if char else Fraction
    inv = (lambda x: pow(x, -1, char)) if char else (lambda x: 1 / x)
    mat = [[red(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(mat[0])):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] * inv(mat[rank][c])
            mat[i] = [red(x - f * y) for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("char", CHARS)
def test_matrix_rank_matches_reference(char):
    """Random matrices, some with a row that is a combination of two others."""
    rng = random.Random(char + 9)
    ring = PolyRing(1, char)

    def field(x):
        x = Fraction(x)
        if char:
            return int(x) % char
        return x.numerator if x.denominator == 1 else x

    ranks = set()
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        mat = [[rng.choice([0, draw(rng, char)]) for _ in range(cols)] for _ in range(rows)]
        if rows >= 3:
            s, t = draw(rng, char), draw(rng, char)
            mat[2] = [field(s * x + t * y) for x, y in zip(mat[0], mat[1])]
        want = reference_rank(char, mat)
        assert matrix_rank(ring, mat) == want
        ranks.add((rows, cols, want))
    assert any(want < min(rows, cols) for rows, cols, want in ranks)


@pytest.mark.parametrize("char", CHARS)
def test_apply_drops_cancelled_terms(char):
    """Terms that cancel leave no zero coefficient behind, whether the
    coefficients are integral, fractional or mod p."""
    ring = PolyRing(2, char)
    rng = random.Random(char + 5)
    for _ in range(30):
        col = rand_vector(rng, ring, 3, rng.randint(1, 6))
        fmap = ModuleMap(FreeModule(ring, (0, 0)), FreeModule(ring, (0, 0, 0)), [col, -col])
        mono = (rng.randint(0, 2), rng.randint(0, 2))
        c = draw(rng, char)
        v = Vector(ring, {(0, mono): c, (1, mono): c})
        assert reference_apply(fmap, v) == {}
        assert fmap.apply(v).is_zero()
        # a partial cancellation keeps exactly the surviving terms
        w = Vector(ring, ring.coeffs({(0, mono): c, (1, mono): c + c}))
        got = fmap.apply(w)
        assert got.terms == reference_apply(fmap, w)
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
    assert ring.coeff(Fraction(4, 2)) == 2 and type(ring.coeff(Fraction(4, 2))) is int


def test_coeff_maps_every_rational_exactly():
    """Over F_p a/b is a * b^-1 mod p, and p dividing b raises
    ZeroDivisionError; a float or a string raises TypeError in every
    characteristic; a characteristic-zero `Fraction` is kept as it is."""
    f7 = PolyRing(2, 7)
    assert f7.constant(Fraction(1, 2)).terms == {(0, 0): 4}
    assert (f7.constant(Fraction(3, 2)) * f7.variable(0)).terms == {(1, 0): 5}
    assert (f7.coeff(Fraction(3, 2)), f7.coeff(Fraction(-1, 3)), f7.coeff(Fraction(14, 3))) == (5, 2, 0)
    for bad in (Fraction(1, 7), Fraction(3, 14)):
        with pytest.raises(ZeroDivisionError):
            f7.coeff(bad)
    for char in CHARS:
        ring = PolyRing(1, char)
        for value in (0.1, 2.0, "3/2"):
            with pytest.raises(TypeError):
                ring.coeff(value)
        rng = random.Random(char)
        for _ in range(50):
            a, b = rng.randint(-99, 99), rng.randint(1, 99)
            if char and b % char == 0:
                continue
            c = ring.coeff(Fraction(a, b))
            if char:
                assert type(c) is int and 0 <= c < char and (c * b - a) % char == 0
            else:
                assert c == Fraction(a, b)
    third = Fraction(1, 3)
    assert PolyRing(1).coeff(third) is third
    assert PolyRing(1).coeff(-7) == -7 and PolyRing(1, 7).coeff(-7) == 0


def poly_from_json(ring, data):
    """The reader of the JSON exchange format: [coefficient, exponents] pairs."""
    return Polynomial(ring, {tuple(expo): ring.coeff(Fraction(c)) for c, expo in data})


def test_poly_json_round_trip_keeps_the_format():
    ring = PolyRing(2)
    data = [["-4", [0, 1]], ["3/2", [1, 0]]]
    p = poly_from_json(ring, data)
    assert p.terms == {(0, 1): Fraction(-4), (1, 0): Fraction(3, 2)}
    assert type(p.terms[(0, 1)]) is int and type(p.terms[(1, 0)]) is Fraction
    assert poly_to_json(p) == data
    fp = poly_from_json(PolyRing(2, P), [["-4", [0, 1]]])
    assert fp.terms == {(0, 1): P - 4}
