import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from detlab import bott
from detlab.bott import (
    bott_cohomology,
    check_dualizing_vanishing,
    check_fm_kernel,
    check_hom_vanishing,
    check_tilting_grass,
    check_tilting_springer,
    cohomology_of,
)
from detlab.partitions import all_partitions, enumerate_box, weyl_dim
from detlab.schurcalc import SchurSum, cauchy_expand, column_fold, exterior_expand


def serre_dual_term(l, m, x, y):
    """Weights of the Serre-dual pure term: dual bundle twisted by the
    canonical bundle det(Q)^{-(m-l)} x det(R)^{l}."""
    xd = tuple(-v for v in reversed(x))
    yd = tuple(-v for v in reversed(y))
    return (tuple(v - (m - l) for v in xd), tuple(v + l for v in yd))


def test_line_bundles_on_p1():
    assert bott_cohomology(1, 2, (0,), (1,)).is_zero()  # O(-1)
    t = bott_cohomology(1, 2, (0,), (2,))  # O(-2)
    assert t.degrees() == {1: 1}
    t = bott_cohomology(1, 2, (3,), (0,))  # O(3)
    assert t.degrees() == {0: 4}


def test_grass24_repeat_kills():
    assert bott_cohomology(2, 4, (1, -1), (0, 0)).is_zero()


def test_structure_sheaf():
    t = cohomology_of(4, SchurSum.unit(2))
    assert t.degrees() == {0: 1}


def test_grass24_hom_shadow_vanishes_everywhere():
    # (wedge^2 Q)^dual x Sym^2 Q
    qsum = SchurSum(2, {(-1, -1): 1}).tensor(SchurSum(2, {(2, 0): 1}))
    assert cohomology_of(4, qsum).is_zero()


def test_top_wedge_sub_is_minus_one_twist():
    # wedge^(m-1) of the sub on projective (m-1)-space has no cohomology
    assert bott_cohomology(1, 3, (0,), (1, 1)).is_zero()


def test_rejects_non_dominant():
    with pytest.raises(ValueError):
        bott_cohomology(2, 4, (0, 1), (0, 0))


@st.composite
def pure_terms(draw):
    m = draw(st.integers(2, 5))
    l = draw(st.integers(1, m - 1))
    x = tuple(sorted(draw(st.lists(st.integers(-4, 4), min_size=l, max_size=l)), reverse=True))
    y = tuple(
        sorted(draw(st.lists(st.integers(-4, 4), min_size=m - l, max_size=m - l)), reverse=True)
    )
    return l, m, x, y


@given(pure_terms())
@settings(max_examples=200)
def test_bott_trichotomy(term):
    l, m, x, y = term
    t = bott_cohomology(l, m, x, y)
    assert len(t.entries) <= 1
    for deg in t.entries:
        assert 0 <= deg <= l * (m - l)


@given(pure_terms())
@settings(max_examples=150)
def test_serre_duality(term):
    l, m, x, y = term
    d = l * (m - l)
    t = bott_cohomology(l, m, x, y)
    xd, yd = serre_dual_term(l, m, x, y)
    td = bott_cohomology(l, m, xd, yd)
    dims = t.degrees()
    dual_dims = td.degrees()
    assert dims == {d - i: v for i, v in dual_dims.items()}


def test_global_sections_of_schur_bundles():
    for m in (2, 3, 4):
        for l in range(1, m):
            for delta in all_partitions(4, max_rows=l):
                t = cohomology_of(m, SchurSum(l, {delta.padded(l): 1}))
                assert t.degrees() == {0: weyl_dim(delta.padded(m))}


def euler(table):
    return sum((-1) ** deg * dim for deg, dim in table.degrees().items())


def test_euler_additivity():
    # Q x (wedge^2 Q)^dual x det(Q) = Q, whose sections are the 4-dim space
    qsum = SchurSum(2, {(1, 0): 1})
    for w in ((-1, -1), (1, 1)):
        qsum = qsum.tensor(SchurSum(2, {w: 1}))
    total = cohomology_of(4, qsum)
    by_terms = 0
    for x, mult in sorted(qsum.terms.items()):
        by_terms += mult * euler(bott_cohomology(2, 4, x, (0, 0)))
    assert euler(total) == by_terms
    assert total.degrees() == {0: 4}


def test_cohomology_of_rejects_non_dominant_terms():
    with pytest.raises(ValueError):
        cohomology_of(4, SchurSum(2, {(1, 1): 1, (0, 1): 2}))
    with pytest.raises(ValueError):
        cohomology_of(1, SchurSum.unit(2))


@pytest.mark.parametrize("l, m", [(2, 5), (3, 6)])
def test_cohomology_of_is_the_sum_of_its_pure_terms(l, m):
    """The whole table of every box Hom pair, not only its Euler
    characteristic, is the sum of mult * bott_cohomology over its terms,
    with a fresh term memo per call and with one memo shared by all pairs."""
    unit = (0,) * (m - l)
    pairs = list(bott._hom_pairs(l, m))
    assert len(pairs) == math.comb(m, l) ** 2
    shared = {}
    for inputs, (_, s), fold in pairs:
        qsum = fold.twist(s)
        want = bott.CohomologyTable(m)
        for x, mult in sorted(qsum.terms.items()):
            for deg, row in bott_cohomology(l, m, x, unit).entries.items():
                for w, k in row.items():
                    want.add(deg, w, mult * k)
        assert cohomology_of(m, qsum).entries == want.entries, inputs
        assert cohomology_of(m, qsum, shared).entries == want.entries, inputs


def test_one_term_memo_serves_several_m():
    # (0, -3) has H^1 on Grass(2, 4) and no cohomology on Grass(2, 5)
    qsum = SchurSum(2, {(0, -3): 1, (2, -1): 1, (1, 1): 2, (-1, -4): 1})
    fresh = {m: cohomology_of(m, qsum).entries for m in (4, 5)}
    assert fresh[4] != fresh[5]
    memo = {}
    for m in (4, 5, 4, 5):
        assert cohomology_of(m, qsum, memo).entries == fresh[m]


def test_non_dominant_terms_raise_on_every_call_with_a_memo():
    memo = {}
    bad = SchurSum(2, {(1, 1): 1, (0, 1): 2})
    for _ in range(2):
        with pytest.raises(ValueError):
            cohomology_of(4, bad, memo)
    assert (4, (0, 1)) not in memo


@pytest.mark.parametrize("l, m", [(1, 3), (2, 5), (3, 6), (3, 7), (4, 8)])
def test_hom_pairs_match_the_tensor_of_both_wedge_expansions(l, m):
    """Oracle: each Hom pair's sum, in box order, is the tensor of the two
    box wedge expansions, exterior_expand(alpha).dual() x det^t x
    exterior_expand(beta), at twists 0, 1 and 2; the sum is its E_gamma
    twisted by det^s, and E_gamma is the column fold of its key's gamma."""
    box = enumerate_box(l, m - l)
    memo, folds = {}, {}
    for twist in (0, 1, 2):
        det = SchurSum(l, {(twist,) * l: 1})
        sources = {a: exterior_expand(a, l).dual().tensor(det, memo) for a in box}
        pairs = list(bott._hom_pairs(l, m, twist))
        assert len(pairs) == len(box) ** 2
        for (alpha, beta), (inputs, (gamma, s), fold) in zip(itertools.product(box, box), pairs):
            assert dict(inputs) == {"alpha": alpha.parts, "beta": beta.parts}
            assert s == twist - alpha.part(0)
            assert fold == column_fold(gamma, l, folds, memo), (twist, inputs)
            want = sources[alpha].tensor(exterior_expand(beta, l), memo)
            assert fold.twist(s) == want, (twist, inputs)


def test_hom_vanishing_examples():
    assert check_hom_vanishing(2, 4, (2, 2), (2, 1)).passed
    assert check_hom_vanishing(1, 2, (1,), ()).passed
    assert check_hom_vanishing(2, 5, (3, 1), (4, 4)).passed


def test_hom_vanishing_rejects_bad_input():
    with pytest.raises(ValueError):
        check_hom_vanishing(2, 4, (3, 1), ())  # alpha outside the box
    with pytest.raises(ValueError):
        check_hom_vanishing(2, 4, (2, 2), (1, 1, 1))  # delta too tall
    with pytest.raises(ValueError):
        check_hom_vanishing(0, 3, (), ())  # l = 0
    with pytest.raises(ValueError):
        check_hom_vanishing(2, 2, (), (1,))  # l = m


def test_checker_cases_go_through_cohomology_of(monkeypatch):
    calls = []
    inner = bott.cohomology_of

    def counting(m, qsum, *rest):
        calls.append(m)
        return inner(m, qsum, *rest)

    monkeypatch.setattr(bott, "cohomology_of", counting)
    assert len(check_tilting_grass(1, 3).cases) == 9
    assert len(calls) == 9
    # one straightening per distinct Hom bundle E_gamma x det^s (per t)
    calls.clear()
    assert len(check_tilting_grass(3, 8).cases) == 3136
    assert len(calls) == 861
    calls.clear()
    assert len(check_tilting_springer(3, 6, 6, 2).cases) == 1200
    assert len(calls) == 540


def unshared_cases(l, m, n, t_max, kind):
    """The cases of one checker computed pair by pair with nothing shared:
    each pair's sum is the tensor of its own wedge expansions (and det^t),
    tensored with its own Sym_t and straightened with a fresh term memo."""
    box = enumerate_box(l, m - l)
    if kind == "fm":
        pairs = [((("alpha", a.parts),), exterior_expand(a, l).dual()) for a in box]
    else:
        twist = n - m if kind == "dualizing" else 0
        det = SchurSum(l, {(twist,) * l: 1})
        pairs = [((("alpha", a.parts), ("beta", b.parts)),
                  exterior_expand(a, l).dual().tensor(det).tensor(exterior_expand(b, l)))
                 for a, b in itertools.product(box, box)]
    if kind == "grass":
        steps = [((), SchurSum.unit(l))]
    else:
        aux = l if kind == "fm" else n
        syms = [SchurSum(l, {g.padded(l): d for g, (_, d) in cauchy_expand(t, l, aux)})
                for t in range(t_max + 1)]
        steps = [((("t", t),), sym) for t, sym in enumerate(syms)]
    cases = []
    for tag, sym in steps:
        for inputs, qsum in pairs:
            table = cohomology_of(m, qsum.tensor(sym))
            cases.append(bott.CheckCase(tag + inputs, tuple(table.degrees().items()),
                                        table.vanishes_above()))
    return cases


@pytest.mark.parametrize("l, m", [(1, 3), (2, 4), (2, 5), (3, 6)])
def test_shared_cases_match_the_unshared_pair_by_pair_cases(l, m):
    """Sharing E_gamma x det^s, its Sym_t tensor and its straightening across
    the pairs of one key changes no case of any Hom checker."""
    n, t_max = m + 1, 2
    checks = {
        "grass": check_tilting_grass(l, m),
        "springer": check_tilting_springer(l, m, n, t_max),
        "dualizing": check_dualizing_vanishing(l, m, n, t_max),
        "fm": check_fm_kernel(l, m, n, t_max),
    }
    for kind, rep in checks.items():
        assert rep.cases == unshared_cases(l, m, n, t_max, kind), kind


def test_tilting_grass_counts():
    rep = check_tilting_grass(1, 3)
    assert rep.passed and len(rep.cases) == 9
    rep = check_tilting_grass(2, 4)
    assert rep.passed and len(rep.cases) == 36
    rep = check_tilting_grass(2, 5)
    assert rep.passed and len(rep.cases) == 100


def test_tilting_grass_reaches_4_8():
    rep = check_tilting_grass(4, 8)
    assert rep.passed and len(rep.cases) == 4900


def test_tilting_springer_examples():
    assert check_tilting_springer(1, 2, 2, 3).passed
    assert check_tilting_springer(1, 2, 3, 3).passed
    assert check_tilting_springer(2, 3, 3, 2).passed


def test_dualizing_examples():
    assert check_dualizing_vanishing(1, 2, 3, 3).passed
    assert check_dualizing_vanishing(1, 2, 2, 3).passed
    assert check_dualizing_vanishing(2, 3, 4, 2).passed


def test_dualizing_rejects_m_greater_n():
    with pytest.raises(ValueError):
        check_dualizing_vanishing(1, 3, 2, 2)


@pytest.mark.parametrize(
    "check", [check_tilting_springer, check_dualizing_vanishing, check_fm_kernel]
)
def test_degreewise_checks_reject_negative_tmax(check):
    with pytest.raises(ValueError):
        check(1, 2, 2, -1)


def test_fm_kernel_examples():
    assert check_fm_kernel(1, 2, 3, 4).passed
    assert check_fm_kernel(2, 4, 4, 2).passed
    assert check_fm_kernel(1, 3, 3, 4).passed


def test_reports_declare_characteristic_zero():
    rep = check_tilting_grass(1, 2)
    assert any("characteristic" in a for a in rep.assumptions)
