import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from detlab.commalg import (
    FreeModule,
    HilbertSeries,
    ModuleMap,
    ModulePresentation,
    PolyRing,
    Vector,
    free_resolution,
    hilbert_series,
    poly_det,
)
from detlab.commalg.resolution import Resolution
from detlab.detvar import generic_setup, wedge_module

R2 = PolyRing(2, 0, ("x", "y"))
SRC = str(Path(__file__).resolve().parent.parent / "src")


def ideal_pres(ring, polys, gens=1):
    F = FreeModule(ring, (0,) * gens)
    vecs = [Vector(ring, {(0, m): c for m, c in p.terms.items()}) for p in polys]
    return ModulePresentation.from_relations(F, vecs)


def test_principal_ideal_length_one():
    pres = ideal_pres(R2, [R2.variable(0)])
    res = free_resolution(pres)
    assert res.length == 1
    assert res.betti_ranks() == [1, 1]


def test_hypersurface_quotient():
    pres = generic_setup(2, 2, 1).quotient
    res = free_resolution(pres)
    assert res.length == 1
    assert res.betti_ranks() == [1, 1]
    assert hilbert_series(pres).canonical().numerator == {0: 1, 1: 1}


def test_codim_two_quotient():
    pres = generic_setup(2, 3, 1).quotient
    res = free_resolution(pres)
    assert res.length == 2
    assert res.betti_ranks() == [1, 3, 2]
    assert res.verify_complex()


def test_maximal_minor_gorenstein_betti():
    pres = generic_setup(3, 3, 1).quotient
    res = free_resolution(pres)
    assert res.betti_ranks() == [1, 9, 16, 9, 1]


def test_euler_series_matches_hilbert():
    for m, n, l in [(2, 2, 1), (2, 3, 1), (3, 3, 2)]:
        setup = generic_setup(m, n, l)
        pres = setup.quotient
        res = free_resolution(pres)
        assert res.euler_series() == hilbert_series(pres)


def dropped_generator(res, k):
    """`res` with the last generator of F_k (k >= 1) removed: one Betti
    entry less."""
    maps = list(res.maps)
    d = maps[k - 1]
    src = FreeModule(d.source.ring, d.source.degrees[:-1])
    maps[k - 1] = ModuleMap(src, d.target, d.columns[:-1])
    if k < len(maps):
        nxt = maps[k]
        cols = [
            Vector(col.ring, {(p, mo): c for (p, mo), c in col.terms.items() if p < src.rank})
            for col in nxt.columns
        ]
        maps[k] = ModuleMap(nxt.source, src, cols)
    return Resolution(res.f0, maps)


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("mnl", [(2, 4, 1), (3, 3, 1), (3, 4, 2)])
def test_euler_series_of_box_modules_is_their_hilbert_series(mnl, char):
    """The alternating sum read off the Betti table is the module's series,
    and no resolution with one Betti entry dropped passes that check."""
    setup = generic_setup(*mnl, char=char)
    for alpha in setup.box():
        pres = wedge_module(setup, alpha).presentation
        res = free_resolution(pres)
        want = hilbert_series(pres)
        assert res.euler_series() == want, alpha
        for k in range(1, res.length + 1):
            broken = dropped_generator(res, k)
            assert sum(broken.betti().values()) == sum(res.betti().values()) - 1
            assert broken.euler_series() != want, (alpha, k)


def test_series_over_different_denominators_raise():
    a, b = HilbertSeries({0: 1}, 2), HilbertSeries({0: 1, 1: -1}, 3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a == b
    assert a + a == HilbertSeries({0: 2}, 2)
    assert a + HilbertSeries({0: -1}, 2) == HilbertSeries({}, 2)


def test_minimization_collapses_redundant_generator():
    # present the free module S with a redundant generator: e1 = x*e0
    x = R2.variable(0)
    F = FreeModule(R2, (0, 1))
    rel = Vector(R2, {(1, (0, 0)): R2.coeff(-1), (0, (1, 0)): R2.coeff(1)})
    pres = ModulePresentation.from_relations(F, [rel])
    res = free_resolution(pres)
    assert res.length == 0
    assert res.f0.degrees == (0,)


def test_resolution_differentials_compose_to_zero():
    for m, n, l in [(2, 3, 1), (3, 3, 2)]:
        setup = generic_setup(m, n, l)
        for alpha in setup.box():
            res = free_resolution(wedge_module(setup, alpha).presentation)
            assert res.verify_complex()
            assert not any(
                not any(m) for d in res.maps for col in d.columns for (_, m) in col.terms
            )


def test_perturbed_differential_fails_verify_complex():
    """Adding c * x^mono to one entry of one differential changes one
    composite by c * x^mono times a nonzero column, so the check must fail
    for a non-integral c (which the int-first sums must not lose) as well
    as for an integral one."""
    res = free_resolution(wedge_module(generic_setup(2, 3, 1), (1,)).presentation)
    assert res.verify_complex() and res.length >= 2
    ring = res.f0.ring
    for k, d in enumerate(res.maps):
        for delta in (Fraction(1, 2), Fraction(1)):
            col = d.columns[0]
            t = min(col.terms)
            terms = {**col.terms, t: ring.coeff(col.terms[t] + delta)}
            bumped = Vector(ring, {u: c for u, c in terms.items() if c})
            maps = list(res.maps)
            maps[k] = ModuleMap(d.source, d.target, [bumped, *d.columns[1:]])
            assert not Resolution(res.f0, maps).verify_complex(), (k, delta)


def test_hilbert_free_module():
    R4 = PolyRing(4, 0)
    pres = ModulePresentation.from_relations(FreeModule(R4, (0,)), [])
    s = hilbert_series(pres).canonical()
    assert s.numerator == {0: 1} and s.denom_power == 4


def test_hilbert_artinian():
    pres = ideal_pres(R2, [R2.variable(0), R2.variable(1)])
    s = hilbert_series(pres).canonical()
    assert s.numerator == {0: 1} and s.denom_power == 0


def series_coefficients(s, upto):
    """Power-series coefficients of `s` in degrees 0..upto: c * t^d over
    (1-t)^n adds c * C(k - d + n - 1, n - 1) in each degree k >= d."""
    n = s.denom_power
    return [
        sum(
            c * (comb(k - d + n - 1, n - 1) if n else int(k == d))
            for d, c in s.numerator.items()
            if d <= k
        )
        for k in range(upto + 1)
    ]


def test_hilbert_with_shifted_generators():
    F = FreeModule(R2, (-2, 3))
    pres = ModulePresentation.from_relations(F, [])
    s = hilbert_series(pres)
    assert s == HilbertSeries({-2: 1, 3: 1}, 2)
    # degree -2 generator contributes from degree -2 on
    coeffs = series_coefficients(s, 4)
    assert coeffs[0] == 3  # monomials of degree 2 in 2 vars on the shifted gen
    assert coeffs[3] == 6 + 1


# Betti ranks of wedge images, recorded from detlab 0.1.0 in both
# characteristics; minimal Betti numbers are invariants, so any correct
# implementation reproduces them over Q and over F_32003.
FROZEN_BETTI_RANKS = {
    ((2, 4, 1), ()): [1, 6, 8, 3],
    ((2, 4, 1), (1,)): [2, 4, 4, 2],
    ((3, 3, 1), (2,)): [6, 24, 36, 24, 6],
    ((3, 4, 2), (1,)): [3, 6, 3],
    ((3, 4, 2), (1, 1)): [3, 4, 1],
}


def test_betti_tables_agree_between_characteristics():
    """Guard against bad-prime artifacts across the whole acceptance grid,
    and against representation bugs that hit both fields alike."""
    seen = set()
    for m, n, l in [(2, 2, 1), (2, 3, 1), (2, 4, 1), (3, 3, 1), (3, 3, 2), (3, 4, 2)]:
        b0 = {}
        for char in (0, 32003):
            setup = generic_setup(m, n, l, char=char)
            tables = {}
            for alpha in setup.box():
                res = free_resolution(wedge_module(setup, alpha).presentation)
                tables[alpha.parts] = sorted(res.betti().items())
                frozen = FROZEN_BETTI_RANKS.get(((m, n, l), alpha.parts))
                if frozen is not None:
                    assert res.betti_ranks() == frozen, ((m, n, l), alpha.parts, char)
                    seen.add(((m, n, l), alpha.parts, char))
            b0[char] = tables
        assert b0[0] == b0[32003], (m, n, l)
    assert seen == {key + (char,) for key in FROZEN_BETTI_RANKS for char in (0, 32003)}


def test_degenerate_modules():
    zero_mod = ModulePresentation.from_relations(FreeModule(R2, ()), [])
    res = free_resolution(zero_mod)
    assert res.length == 0 and res.f0.rank == 0
    s = hilbert_series(zero_mod).canonical()
    assert s.numerator == {}
    # zero relations on a nonzero module
    free = ModulePresentation.from_relations(FreeModule(R2, (0,)), [])
    assert free_resolution(free).length == 0


def test_perturbed_syzygy_fails_under_optimize():
    """The complex check is an explicit raise, so `python -O` keeps it: a
    second syzygy with one doubled coefficient must make free_resolution
    fail."""
    script = textwrap.dedent(
        """
        import sys
        from detlab.commalg import Vector, homs, resolution
        from detlab.detvar import generic_setup, wedge_module

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        pres = wedge_module(generic_setup(2, 3, 1), (1,)).presentation
        real = homs.kernel_vectors
        done = []

        def perturbed(*args, **kwargs):
            vecs = real(*args, **kwargs)
            if vecs and not done:
                done.append(True)
                v = vecs[0]
                t, c = min(v.terms.items())
                vecs[0] = Vector(v.ring, {**v.terms, t: v.ring.coeff(c + c)})
            return vecs

        homs.kernel_vectors = perturbed
        try:
            resolution.free_resolution(pres)
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit("free_resolution accepted a perturbed syzygy")
        """
    )
    r = run_optimized(script)
    assert r.returncode == 0, r.stderr
    assert "do not compose to zero" in r.stdout


def test_duplicated_syzygy_fails_minimality_under_optimize():
    """Minimality is an explicit raise too: a kernel whose minimal generators
    come back with one of them twice leaves a constant entry in the next
    differential, and free_resolution must fail under `python -O`."""
    script = textwrap.dedent(
        """
        import sys
        from detlab.commalg import homs, resolution
        from detlab.detvar import generic_setup, wedge_module

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        pres = wedge_module(generic_setup(2, 3, 1), (1,)).presentation
        real = homs.minimal_generators
        done = []

        def duplicated(*args, **kwargs):
            kept = real(*args, **kwargs)
            if kept and not done:
                done.append(True)
                kept.append(kept[0])
            return kept

        homs.minimal_generators = duplicated
        try:
            resolution.free_resolution(pres)
        except RuntimeError as exc:
            print(exc)
        else:
            sys.exit("free_resolution accepted a duplicated syzygy")
        """
    )
    r = run_optimized(script)
    assert r.returncode == 0, r.stderr
    assert "not minimal" in r.stdout


def run_optimized(script):
    return subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )


def with_redundant_generator(pres):
    """`pres` (generators in degree 0) with one more generator e of degree 1
    and the relation e - x_0 e_0 - x_1 e_1 (e_1 = e_0 on a cyclic module)."""
    ring = pres.ring
    r = pres.generators.rank
    F = FreeModule(ring, pres.gen_degrees + (1,))
    rel = (
        F.basis_vector(r)
        - F.basis_vector(0).poly_scaled(ring.variable(0))
        - F.basis_vector(min(1, r - 1)).poly_scaled(ring.variable(1))
    )
    return ModulePresentation.from_relations(F, [*pres.relation_vectors, rel])


def test_redundant_generator_leaves_the_betti_table():
    """A presentation with a redundant generator is re-presented on a
    minimal one before resolving, so the graded Betti table is the one of
    the minimal presentation, over Q and over F_32003."""
    for char in (0, 32003):
        for mnl in [(2, 4, 1), (3, 3, 1), (3, 3, 2), (3, 4, 2)]:
            setup = generic_setup(*mnl, char=char)
            for alpha in setup.box():
                pres = wedge_module(setup, alpha).presentation
                assert set(pres.gen_degrees) == {0}
                padded = with_redundant_generator(pres)
                want = free_resolution(pres).betti()
                assert free_resolution(padded).betti() == want, (mnl, alpha.parts, char)
