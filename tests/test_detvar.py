import itertools
import json
import math
import random
from pathlib import Path

import pytest

from detlab.bott import bott_cohomology
from detlab.cli import DEFAULT_SEED
from detlab.commalg import (
    FreeModule,
    ModuleMap,
    ModulePresentation,
    PolyRing,
    Polynomial,
    Vector,
    hilbert_series,
    hom_module,
    matrix_rank,
    poly_det,
)
from detlab.commalg.groebner import groebner
from detlab.detvar import (
    ImageModule,
    box_complement,
    certify_end_mcm,
    certify_mcm,
    check_end_dual,
    check_flip,
    endomorphism_ring,
    exterior_power_matrix,
    flip_setup,
    generic_setup,
    phi_dual,
    prod_binomial,
    rank_check,
    series_shift,
    wedge_alpha_map,
    wedge_module,
)
from detlab.partitions import Partition, conjugate, weyl_dim
from detlab.schurcalc import SchurSum, cauchy_expand, exterior_expand


def test_generic_setup_examples():
    s = generic_setup(2, 2, 1)
    assert s.codim == 1 and len(s.minors) == 1
    s = generic_setup(2, 3, 1)
    assert s.codim == 2 and len(s.minors) == 3
    s = generic_setup(3, 3, 2)
    assert s.codim == 1 and len(s.minors) == 1
    s = generic_setup(3, 4, 2)
    assert s.codim == 2 and len(s.minors) == math.comb(3, 3) * math.comb(4, 3)


def test_generic_setup_rejects_bad_l():
    with pytest.raises(ValueError):
        generic_setup(2, 2, 2)
    with pytest.raises(ValueError):
        generic_setup(2, 2, -1)
    # l = 0 has an empty box, which no box checker can take
    with pytest.raises(ValueError):
        generic_setup(2, 3, 0)


def test_exterior_power_trivial_cases():
    s = generic_setup(2, 3, 1)
    phi = phi_dual(s)
    assert exterior_power_matrix(phi, 1).entries() == phi.entries()
    # top wedge of a 2x2 block is the determinant
    s22 = generic_setup(2, 2, 1)
    top = exterior_power_matrix(phi_dual(s22), 2)
    assert top.source.rank == 1 and top.target.rank == 1
    assert top.entry(0, 0).terms == s22.minors[0].terms or top.entry(0, 0).terms == {
        m: -c for m, c in s22.minors[0].terms.items()
    }
    ring = PolyRing(1, 0)
    F3 = FreeModule(ring, (0, 0, 0))
    ident = ModuleMap.from_entries(
        F3, F3, [[ring.one() if i == j else ring.constant(0) for j in range(3)] for i in range(3)]
    )
    w = exterior_power_matrix(ident, 2)
    assert w.entries() == [
        [ring.one() if i == j else ring.constant(0) for j in range(3)] for i in range(3)
    ]


def rand_poly_matrix(rng, ring, rows, cols, deg):
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            p = ring.constant(0)
            for _ in range(2):
                e = [0] * ring.nvars
                for _ in range(deg):
                    e[rng.randrange(ring.nvars)] += 1
                p = p + ring.constant(rng.randint(-2, 2)) * Polynomial(ring, {tuple(e): 1})
            row.append(p)
        out.append(row)
    return out


def test_cauchy_binet_functoriality():
    ring = PolyRing(2, 0, ("s", "t"))
    rng = random.Random(11)
    for rows, mid, cols, k in [(3, 3, 3, 2), (4, 3, 4, 2), (3, 4, 3, 3), (4, 4, 4, 3)]:
        A = ModuleMap.from_entries(
            FreeModule(ring, (0,) * mid),
            FreeModule(ring, (-1,) * rows),
            rand_poly_matrix(rng, ring, rows, mid, 1),
        )
        B = ModuleMap.from_entries(
            FreeModule(ring, (1,) * cols),
            FreeModule(ring, (0,) * mid),
            rand_poly_matrix(rng, ring, mid, cols, 1),
        )
        AB = A.compose(B)
        lhs = exterior_power_matrix(AB, k)
        rhs = exterior_power_matrix(A, k).compose(exterior_power_matrix(B, k))
        assert lhs.entries() == rhs.entries()


def test_wedge_alpha_map_shapes():
    s = generic_setup(2, 3, 1)
    w = wedge_alpha_map(s, ())
    assert w.source.rank == 1 and w.target.rank == 1
    assert w.entry(0, 0) == s.ring.one()
    w = wedge_alpha_map(s, (1,))
    assert (w.target.rank, w.source.rank) == (3, 2)
    assert w.entry(0, 0).terms == s.matrix[0][0].terms

    s332 = generic_setup(3, 3, 2)
    w = wedge_alpha_map(s332, (1, 1))  # conjugate (2): one wedge-square factor
    assert (w.target.rank, w.source.rank) == (3, 3)
    # entries are 2-minors of the transpose, independently expanded
    xt = [[s332.matrix[j][i] for j in range(3)] for i in range(3)]
    rows = list(itertools.combinations(range(3), 2))
    for a, rs in enumerate(rows):
        for b, cs in enumerate(rows):
            minor = poly_det([[xt[i][j] for j in cs] for i in rs])
            assert w.entry(a, b).terms == minor.terms


def test_wedge_alpha_map_rejects_outside_box():
    s = generic_setup(2, 3, 1)
    with pytest.raises(ValueError):
        wedge_alpha_map(s, (2,))  # box is 1 x 1


def test_wedge_module_empty_shape_is_quotient():
    s = generic_setup(2, 3, 1)
    t0 = wedge_module(s, ())
    assert hilbert_series(t0.presentation) == hilbert_series(s.quotient)
    assert t0.presentation.generators.rank == 1


def test_wedge_module_generator_counts():
    s = generic_setup(3, 3, 1)
    for alpha in s.box():
        mod = wedge_module(s, alpha)
        expected = math.prod(math.comb(3, c) for c in conjugate(alpha).parts)
        assert mod.presentation.generators.rank == expected


def test_annihilation():
    for m, n, l in [(2, 3, 1), (3, 3, 2)]:
        s = generic_setup(m, n, l)
        for alpha in s.box():
            mod = wedge_module(s, alpha)
            assert certify_mcm(mod.presentation, s, alpha).annihilated


def test_certify_mcm_examples():
    s = generic_setup(2, 2, 1)
    cert = certify_mcm(wedge_module(s, (1,)).presentation, s, Partition((1,)))
    assert cert.passed and cert.pd == 1
    s = generic_setup(2, 3, 1)
    cert = certify_mcm(wedge_module(s, (1,)).presentation, s, Partition((1,)))
    assert cert.passed and cert.pd == 2


@pytest.mark.parametrize("char", [0, 32003])
def test_certify_mcm_reaches_341(char):
    """(3,4,1) alpha=(1): a resolution of length 6 over 12 variables."""
    s = generic_setup(3, 4, 1, char=char)
    cert = certify_mcm(wedge_module(s, (1,)).presentation, s, Partition((1,)))
    assert cert.passed and cert.pd == 6
    assert tuple(cert.betti_ranks) == (3, 12, 34, 60, 52, 18, 1)


def test_certify_mcm_negative_control():
    s = generic_setup(2, 2, 1)
    ring = s.ring
    var0 = tuple(1 if i == 0 else 0 for i in range(ring.nvars))
    bad = ModulePresentation.from_relations(
        FreeModule(ring, (0,)), [Vector(ring, {(0, var0): ring.coeff(1)})]
    )
    cert = certify_mcm(bad, s)
    assert not cert.passed
    assert not cert.annihilated


def test_rank_check_matches_pieri_dimension():
    """Fiber rank at a rank-l point equals the wedge dimension of an l-space,
    which also equals the total dimension of the characteristic-zero
    decomposition."""
    for m, n, l in [(2, 3, 1), (3, 4, 2)]:
        s = generic_setup(m, n, l)
        for alpha in s.box():
            mod = wedge_module(s, alpha)
            rc = rank_check(mod, trials=2, seed=5)
            assert rc.passed
            assert rc.predicted == exterior_expand(alpha, l).dimension()
            assert rc.predicted == prod_binomial(l, alpha)


def test_rank_check_over_prime_field():
    s = generic_setup(2, 3, 1, char=32003)
    mod = wedge_module(s, (1,))
    assert rank_check(mod, trials=2, seed=9).passed


@pytest.mark.parametrize("char", [0, 2, 3, 32003])
@pytest.mark.parametrize("mnl", [(2, 3, 1), (3, 3, 1), (3, 4, 2)])
def test_rank_check_points_have_rank_l(mnl, char, monkeypatch):
    """Every sampled point is a rank-l matrix, by elimination, and every
    trial on every box shape gives the predicted rank, in char 0 and over
    F_2, F_3 and F_32003."""
    import detlab.detvar as dv

    m, n, l = mnl
    s = generic_setup(m, n, l, char=char)
    points = []
    real = dv.random_rank

    def recorded(fmap, point):
        points.append(point)
        return real(fmap, point)

    monkeypatch.setattr(dv, "random_rank", recorded)
    trials = 3
    for alpha in s.box():
        points.clear()
        rc = rank_check(wedge_module(s, alpha), trials=trials, seed=DEFAULT_SEED)
        assert rc.predicted == prod_binomial(l, alpha)
        assert rc.ranks == [rc.predicted] * trials, (alpha, rc.ranks)
        assert rc.passed
        assert len(points) == trials
        for point in points:
            rows = [point[i * n:(i + 1) * n] for i in range(m)]
            assert matrix_rank(s.ring, rows) == l, (alpha, rows)


def test_rank_check_rejects_zero_trials():
    mod = wedge_module(generic_setup(2, 2, 1), (1,))
    with pytest.raises(ValueError):
        rank_check(mod, trials=0, seed=DEFAULT_SEED)


def test_single_column_shapes_match_plain_wedges():
    # when l = m-1 the one-column modules are images of single wedge powers
    s = generic_setup(3, 3, 2)
    phi = phi_dual(s)
    for a in (1, 2):
        shape = Partition((1,) * a)
        mod = wedge_module(s, shape)
        direct = exterior_power_matrix(phi, a)
        assert [c.terms for c in mod.fmap.columns] == [c.terms for c in direct.columns]


def bott_h0(l, m, n, alpha, t) -> int:
    """dim H^0(Grass(l, m), E_alpha x Sym_t(C^n x Q)), with E_alpha the
    characteristic-zero expansion of the column wedges of Q."""
    sym_t = SchurSum(l)
    for g, (_, dim_n) in cauchy_expand(t, l, n):
        sym_t.add(g.padded(l), dim_n)
    return sum(
        mult * bott_cohomology(l, m, x, (0,) * (m - l)).dim(0)
        for x, mult in exterior_expand(alpha, l).tensor(sym_t).items()
    )


def series_coefficients(s, upto):
    """Power-series coefficients of `s` in degrees 0..upto: c * t^d over
    (1-t)^n adds c * C(k - d + n - 1, n - 1) in each degree k >= d."""
    n = s.denom_power
    return [
        sum(
            c * (math.comb(k - d + n - 1, n - 1) if n else int(k == d))
            for d, c in s.numerator.items()
            if d <= k
        )
        for k in range(upto + 1)
    ]


def test_bott_predicts_wedge_image_hilbert_functions():
    """The Groebner side against the Bott side, computed independently: the
    degree-t piece of each box wedge image T_alpha is the space of global
    sections of its bundle twisted by Sym_t(C^n x Q), for t = 0..4."""
    for m, n, l, char in [(2, 3, 1, 0), (3, 3, 1, 0), (3, 3, 2, 0), (3, 4, 2, 32003)]:
        s = generic_setup(m, n, l, char=char)
        for alpha in s.box():
            got = series_coefficients(hilbert_series(wedge_module(s, alpha).presentation), 4)
            want = [bott_h0(l, m, n, alpha, t) for t in range(5)]
            assert got == want, ((m, n, l, char), alpha.parts, got, want)


def test_tilting_summand_counts():
    for mnl, count in (((2, 2, 1), 2), ((2, 3, 1), 2), ((3, 3, 2), 3)):
        setup = generic_setup(*mnl, char=32003)
        summands = endomorphism_ring(setup).summands
        assert [t.shape for t in summands] == setup.box() and len(summands) == count


def test_endomorphism_ring_structure():
    s = generic_setup(2, 3, 1)
    end = endomorphism_ring(s)
    assert len(end.blocks) == 4
    certs = certify_end_mcm(end)
    assert all(c.passed for c in certs.values())


def test_endomorphism_requires_m_le_n():
    with pytest.raises(ValueError):
        endomorphism_ring(generic_setup(3, 2, 1))


def test_flip_setup_transposes():
    s = generic_setup(2, 3, 1)
    f = flip_setup(s)
    assert (f.m, f.n) == (3, 2)
    assert f.ring is s.ring
    assert f.codim == s.codim
    assert f.matrix[0][1].terms == s.matrix[1][0].terms
    # the reused basis equals one computed afresh from the transpose's 2-minors
    minors = [
        poly_det([[f.matrix[i][j] for j in (0, 1)] for i in rows])
        for rows in itertools.combinations(range(3), 2)
    ]
    fresh = groebner(
        s.ring, [Vector(s.ring, {(0, mo): c for mo, c in p.terms.items()}) for p in minors], (0,)
    )
    assert [v.terms for v in f.quotient.relation_vectors] == [v.terms for v in fresh]


def test_check_flip_small():
    for m, n, l in [(2, 2, 1), (2, 3, 1)]:
        rep = check_flip(generic_setup(m, n, l))
        assert rep.passed, rep.summands


def test_box_complement_examples():
    assert box_complement((), 1, 1).parts == (1,)
    assert box_complement((1,), 1, 1).parts == ()
    # (3,3,2): fixes (1), swaps () and (1,1)
    assert box_complement((1,), 2, 1).parts == (1,)
    assert box_complement((), 2, 1).parts == (1, 1)
    assert box_complement((1, 1), 2, 1).parts == ()


def test_check_end_dual_small():
    rep = check_end_dual(generic_setup(2, 2, 1))
    assert rep.passed
    assert set(rep.pair_shifts.values()) == {0}


FROZEN_REPORTS = Path(__file__).resolve().parent / "data" / "frozen_reports.json"


@pytest.mark.parametrize(
    "m,n,l,char", [(2, 3, 1, 0), (3, 3, 2, 0), (3, 3, 1, 32003), (3, 4, 2, 32003)]
)
def test_end_dual_and_flip_reports_are_frozen(m, n, l, char):
    frozen = json.loads(FROZEN_REPORTS.read_text())
    s = generic_setup(m, n, l, char=char)
    want = json.dumps(frozen[f"check-end-dual m={m} n={n} l={l} char={char}"], indent=2)
    assert json.dumps(check_end_dual(s).to_json(), indent=2) == want
    # the frozen flip reports also name the setup; the report carries only
    # its cases and verdict
    want = frozen[f"check-flip m={m} n={n} l={l} char={char}"]
    rep = check_flip(s)
    assert [c.to_json() for c in rep.summands] == want["cases"]
    assert rep.passed is want["pass"]


def test_check_end_dual_complement_outside_box_fails(monkeypatch):
    import detlab.detvar as dv

    real = dv.box_complement

    def leaky(shape, l, width):
        if Partition.of(shape).parts == (1,):
            return Partition((width + 1,))
        return real(shape, l, width)

    monkeypatch.setattr(dv, "box_complement", leaky)
    rep = check_end_dual(generic_setup(2, 2, 1))
    assert rep.involution_ok is False
    assert not rep.passed
    assert rep.pair_shifts[((1,), ())] is None
    assert rep.to_json()["pass"] is False


def hom_of_duals_series(end) -> dict:
    """Reference for `check_end_dual`'s pair loop: the series of every
    Hom(T_a^*, T_b^*), each Hom module computed from scratch."""
    box = [t.shape for t in end.summands]
    duals = [end.blocks[(i, box.index(Partition()))] for i in range(len(box))]
    gbs = [groebner(d.ring, d.relation_vectors, d.gen_degrees) for d in duals]
    return {
        (i, j): hilbert_series(hom_module(duals[i], duals[j], gbs[j]))
        for i in range(len(box))
        for j in range(len(box))
    }


@pytest.mark.parametrize(
    "m,n,l,char", [(2, 3, 1, 0), (3, 3, 2, 0), (3, 3, 1, 32003), (3, 4, 2, 32003)]
)
def test_end_dual_blocks_match_hom_of_duals(m, n, l, char):
    s = generic_setup(m, n, l, char=char)
    end = endomorphism_ring(s)
    box = [t.shape for t in end.summands]
    series = {key: hilbert_series(block) for key, block in end.blocks.items()}
    rep = check_end_dual(s)
    comp = [box.index(box_complement(a, l, m - l)) for a in box]
    for (i, j), want in hom_of_duals_series(end).items():
        a, b = box[i].parts, box[j].parts
        assert series[(j, i)] == want, (a, b)
        assert rep.pair_shifts[(a, b)] == series_shift(want, series[(comp[i], comp[j])])
    assert rep.reflexive == {a.parts: True for a in box}
    assert rep.passed


def _drop_relation(real, shape, r):
    """A `wedge_module` whose presentation of `shape` lacks relation r."""

    def wedge(setup, sh):
        mod = real(setup, sh)
        if mod.shape != shape:
            return mod
        rels = list(mod.presentation.relation_vectors)
        del rels[r]
        pres = ModulePresentation.from_relations(mod.presentation.generators, rels)
        return ImageModule(mod.shape, setup, mod.fmap, pres)

    return wedge


# every relation on (2,3,1); the first and last of each summand on (3,3,1)
# (all 51 single drops on these two setups fail the certificate)
DROPS = [((2, 3, 1), a, r) for a in ((), (1,)) for r in range(3)] + [
    ((3, 3, 1), a, r) for a, last in (((), 8), ((1,), 8), ((2,), 26)) for r in (0, last)
]


@pytest.mark.parametrize(
    "mnl,shape,r",
    DROPS,
    ids=[f"{''.join(map(str, d))}-alpha{''.join(map(str, a)) or 0}-rel{r}" for d, a, r in DROPS],
)
def test_end_dual_dropped_relation_fails_biduality(monkeypatch, mnl, shape, r):
    import detlab.detvar as dv

    s = generic_setup(*mnl)
    real = dv.wedge_module
    assert len(real(s, shape).presentation.relation_vectors) > r
    monkeypatch.setattr(dv, "wedge_module", _drop_relation(real, Partition(shape), r))
    rep = check_end_dual(s)
    assert rep.reflexive[shape] is False
    assert not rep.passed
    assert {"alpha": list(shape), "pass": False} in rep.to_json()["reflexive"]


@pytest.mark.parametrize("m,n,l", [(2, 3, 1), (3, 3, 2)])
def test_end_dual_builds_k_squared_plus_k_hom_modules(monkeypatch, m, n, l):
    import detlab.detvar as dv

    calls = []

    def counting(M, N, **kw):
        calls.append(1)
        return hom_module(M, N, **kw)

    monkeypatch.setattr(dv, "hom_module", counting)
    s = generic_setup(m, n, l)
    k = len(s.box())
    assert check_end_dual(s).passed
    assert len(calls) == k * k + k
