import random
from fractions import Fraction

import pytest

from detlab.commalg import (
    FreeModule,
    GroebnerEngine,
    ModuleMap,
    ModulePresentation,
    PolyRing,
    Vector,
    block_copies,
    contains,
    hilbert_series,
    hom_module,
    matrix_rank,
    random_rank,
)
from detlab.commalg.homs import membership_engine
from detlab.detvar import generic_setup, wedge_module

R2 = PolyRing(2, 0, ("x", "y"))
X, Y = R2.variable(0), R2.variable(1)


def cyclic(ring, polys):
    F = FreeModule(ring, (0,))
    vecs = [Vector(ring, {(0, m): c for m, c in p.terms.items()}) for p in polys]
    return ModulePresentation.from_relations(F, vecs)


def test_hom_free_free():
    free = ModulePresentation.from_relations(FreeModule(R2, (0,)), [])
    h = hom_module(free, free)
    assert h.generators.rank == 1
    assert len(h.relation_vectors) == 0


def test_hom_cyclic_self():
    sx = cyclic(R2, [X])
    h = hom_module(sx, sx)
    assert h.generators.rank == 1
    assert hilbert_series(h) == hilbert_series(sx)


def test_dual_of_free_and_torsion():
    free = ModulePresentation.from_relations(FreeModule(R2, (0,)), [])
    assert hom_module(free, free).generators.rank == 1
    assert hom_module(cyclic(R2, [X]), free).generators.rank == 0


def test_end_of_wedge_module_is_quotient_ring():
    setup = generic_setup(2, 2, 1)
    t1 = wedge_module(setup, (1,))
    h = hom_module(t1.presentation, t1.presentation)
    assert hilbert_series(h) == hilbert_series(setup.quotient)


def test_dual_reflexive_series():
    setup = generic_setup(2, 2, 1)
    rq = setup.quotient
    t1 = wedge_module(setup, (1,))
    d = hom_module(t1.presentation, rq)
    dd = hom_module(d, rq)
    assert hilbert_series(dd) == hilbert_series(t1.presentation)


@pytest.mark.parametrize("char", [0, 32003])
def test_contains_seeds_a_known_basis(monkeypatch, char):
    """A Groebner basis passed as `gb` gives the membership answers it gives
    among the generators, and building the engine on it reduces nothing."""
    setup = generic_setup(3, 3, 1, char=char)
    dual = hom_module(wedge_module(setup, (1,)).presentation, setup.quotient)
    degs = dual.ambient.degrees
    ideal = block_copies(setup.quotient.relation_vectors, 1, dual.ambient.rank)
    probes = dual.hom_generators + [dual.ambient.basis_vector(i) for i in range(dual.ambient.rank)]
    for gens in ([], dual.hom_generators):
        for v in probes:
            want = contains(setup.ring, gens + ideal, degs, [v])
            assert contains(setup.ring, gens, degs, [v], gb=ideal) == want
    calls = []
    real = GroebnerEngine.reduce_terms
    monkeypatch.setattr(
        GroebnerEngine, "reduce_terms", lambda self, terms: calls.append(1) or real(self, terms)
    )
    eng = membership_engine(setup.ring, (), degs, gb=ideal)
    assert calls == [] and len(eng.basis) == len(ideal)


@pytest.mark.parametrize("mnl,char", [((2, 3, 1), 0), ((3, 3, 1), 32003)])
def test_dual_into_empty_shape_image_is_dual_into_quotient(mnl, char):
    """T_() presents R, so Hom(T_a, T_()) is Hom(T_a, R) vector for vector:
    the End ring's column () holds the duals."""
    setup = generic_setup(*mnl, char=char)
    t0 = wedge_module(setup, ())
    for alpha in setup.box():
        ta = wedge_module(setup, alpha).presentation
        a, b = hom_module(ta, t0.presentation), hom_module(ta, setup.quotient)
        assert a.generators == b.generators
        assert a.relation_vectors == b.relation_vectors
        assert a.hom_generators == b.hom_generators
        assert a.ambient == b.ambient


def test_hom_grading_shifts():
    # Hom(S(-1), S) has its generator in degree -1
    shifted = ModulePresentation.from_relations(FreeModule(R2, (1,)), [])
    free = ModulePresentation.from_relations(FreeModule(R2, (0,)), [])
    h = hom_module(shifted, free)
    assert h.gen_degrees == (-1,)


def test_random_rank_cases():
    zero = ModuleMap.from_entries(
        FreeModule(R2, (0,)), FreeModule(R2, (0,)), [[R2.constant(0)]]
    )
    assert random_rank(zero, [R2.coeff(1), R2.coeff(2)]) == 0
    F3 = FreeModule(R2, (0, 0, 0))
    ident = ModuleMap.from_entries(
        F3, F3, [[R2.one() if i == j else R2.constant(0) for j in range(3)] for i in range(3)]
    )
    assert random_rank(ident, [R2.coeff(1), R2.coeff(1)]) == 3
    # det [[x^2, y^3], [x y, y^2]] = x y^2 (x - y^2) vanishes at (4, 2) only
    # when every power is taken
    F2 = FreeModule(R2, (0, 0))
    powers = ModuleMap.from_entries(F2, F2, [[X * X, Y * Y * Y], [X * Y, Y * Y]])
    assert random_rank(powers, [R2.coeff(4), R2.coeff(2)]) == 1
    assert random_rank(powers, [R2.coeff(3), R2.coeff(2)]) == 2


def naive_value(poly, point):
    ring = poly.ring
    total = ring.coeff(0)
    for m, c in poly.terms.items():
        val = c
        for x, e in zip(point, m):
            for _ in range(e):
                val = ring.coeff(val * x)
        total = ring.coeff(total + val)
    return total


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("mnl", [(2, 4, 1), (3, 3, 2)])
def test_random_rank_matches_entrywise_evaluation(mnl, char):
    """The one-pass specialization agrees with evaluating every entry on its
    own, at uniform points, rank-l points u v^T and (char 0) a rank-l point
    with a non-integral coordinate."""
    m, n, l = mnl
    setup = generic_setup(m, n, l, char=char)
    ring = setup.ring
    rng = random.Random(m * n * l + char)
    hi = char - 1 if char else 9
    points = [[ring.coeff(rng.randint(0, hi)) for _ in range(m * n)]]
    for trial in range(2):
        u = [[rng.randint(1, hi) for _ in range(l)] for _ in range(m)]
        v = [[rng.randint(1, hi) for _ in range(l)] for _ in range(n)]
        if trial and not char:
            u[0][0] = Fraction(1, 2)
        points.append([
            ring.coeff(sum(u[i][k] * v[j][k] for k in range(l)))
            for i in range(m) for j in range(n)
        ])
    if not char:
        assert any(x.denominator != 1 for x in points[-1])
    for shape in setup.box():
        fmap = wedge_module(setup, shape).fmap
        for point in points:
            naive = [[naive_value(e, point) for e in row] for row in fmap.entries()]
            assert random_rank(fmap, point) == matrix_rank(ring, naive), (shape, point)


def test_random_rank_generic_matrix_at_rank_one_point():
    setup = generic_setup(2, 3, 1)
    from detlab.detvar import phi_dual

    u = [2, 3]
    v = [1, 4, 5]
    point = [setup.ring.coeff(u[i] * v[j]) for i in range(2) for j in range(3)]
    assert random_rank(phi_dual(setup), point) == 1

