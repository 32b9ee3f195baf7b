"""Verification grids: each function returns checkable cases for one family
of claims; `run_suite` aggregates a quick or full profile.

Case dicts are deterministic given (parameters, seed) so reports can be
compared byte for byte.
"""

from __future__ import annotations

import math
from typing import Iterable

from . import bott
from .commalg import (
    FreeModule,
    ModulePresentation,
    Vector,
    free_resolution,
    hilbert_series,
)
from .detvar import (
    certify_end_mcm,
    certify_mcm,
    check_end_dual,
    check_flip,
    endomorphism_ring,
    generic_setup,
    rank_check,
    wedge_module,
)
from .partitions import all_partitions, enumerate_box
from .schurcalc import (
    SchurSum,
    cauchy_expand,
    lr_coefficients,
    schur_character,
)

TILT_GRASS_GRID = [(1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6)]
SPRINGER_GRID = [(1, 2, 2), (1, 2, 3), (1, 3, 3), (2, 3, 3), (2, 3, 4)]
MCM_GRID = [(2, 2, 1), (2, 3, 1), (2, 4, 1), (3, 3, 1), (3, 3, 2), (3, 4, 2)]
END_GRID = [(2, 2, 1), (2, 3, 1), (3, 3, 2), (3, 3, 1)]
FLIP_GRID = [(2, 2, 1), (2, 3, 1), (3, 3, 2)]


def _case(name: str, passed: bool, **detail) -> dict:
    out = {"name": name, "pass": bool(passed)}
    out.update(detail)
    return out


# ---------------------------------------------------------------------------
# Cohomology checkers


def tilt_grass_cases(grid: Iterable[tuple[int, int]] = TILT_GRASS_GRID) -> list[dict]:
    out = []
    for l, m in grid:
        rep = bott.check_tilting_grass(l, m)
        out.append(
            _case(f"tilt-grass l={l} m={m}", rep.passed, pairs=len(rep.cases))
        )
    return out


def prop31_cases(max_m: int, delta_max: int) -> list[dict]:
    out = []
    for m in range(2, max_m + 1):
        for l in range(1, m):
            deltas = all_partitions(delta_max, max_rows=l)
            bad = 0
            count = 0
            for alpha in enumerate_box(l, m - l):
                for delta in deltas:
                    rep = bott.check_hom_vanishing(l, m, alpha, delta)
                    count += 1
                    if not rep.passed:
                        bad += 1
            out.append(
                _case(f"hom-vanishing l={l} m={m}", bad == 0, cases=count, failures=bad)
            )
    return out


def degreewise_cases(grid=SPRINGER_GRID, t_max: int = 3) -> list[dict]:
    """The springer, dualizing and fm-kernel checks on every grid point, one
    family after the other."""
    out = []
    for name, check in (
        ("tilt-springer", bott.check_tilting_springer),
        ("dualizing", bott.check_dualizing_vanishing),
        ("fm-kernel", bott.check_fm_kernel),
    ):
        for l, m, n in grid:
            rep = check(l, m, n, t_max)
            out.append(
                _case(
                    f"{name} l={l} m={m} n={n} tmax={t_max}",
                    rep.passed,
                    cases=len(rep.cases),
                )
            )
    return out


def example_grass24_shadow_case() -> dict:
    """Hom(wedge^2 Q, Sym^2 Q) on Grass(2,4) has zero cohomology everywhere,
    including degree zero."""
    qsum = SchurSum(2, {(-1, -1): 1}).tensor(SchurSum(2, {(2, 0): 1}))
    table = bott.cohomology_of(4, qsum)
    return _case("grass24-endQ-shadow", table.is_zero(), degrees=table.degrees())


# ---------------------------------------------------------------------------
# Module-theoretic checkers


def mcm_cases(grid=MCM_GRID, char: int = 0) -> list[dict]:
    out = []
    for m, n, l in grid:
        setup = generic_setup(m, n, l, char=char)
        for alpha in setup.box():
            mod = wedge_module(setup, alpha)
            cert = certify_mcm(mod.presentation, setup, alpha)
            out.append(
                _case(
                    f"mcm m={m} n={n} l={l} alpha={list(alpha.parts)} char={char}",
                    cert.passed,
                    pd=cert.pd,
                    expected=cert.expected,
                    betti=cert.betti_ranks,
                )
            )
    return out


def end_mcm_cases(grid=END_GRID, char: int = 0) -> list[dict]:
    out = []
    for m, n, l in grid:
        setup = generic_setup(m, n, l, char=char)
        ring_blocks = certify_end_mcm(endomorphism_ring(setup))
        ok = all(c.passed for c in ring_blocks.values())
        out.append(
            _case(
                f"end-mcm m={m} n={n} l={l} char={char}",
                ok,
                blocks={str(k): c.pd for k, c in sorted(ring_blocks.items())},
            )
        )
    return out


def flip_cases(grid=FLIP_GRID, char: int = 0) -> list[dict]:
    out = []
    for m, n, l in grid:
        rep = check_flip(generic_setup(m, n, l, char=char))
        out.append(
            _case(
                f"flip m={m} n={n} l={l} char={char}",
                rep.passed,
                summands=[s.to_json() for s in rep.summands],
            )
        )
    return out


def end_dual_cases(grid=FLIP_GRID, char: int = 0) -> list[dict]:
    out = []
    for m, n, l in grid:
        rep = check_end_dual(generic_setup(m, n, l, char=char))
        out.append(
            _case(
                f"end-dual m={m} n={n} l={l} char={char}",
                rep.passed,
                involution=rep.involution_ok,
                uniform_shift=rep.uniform_shift,
                totals_equal=rep.total_series_equal,
                reflexive=rep.to_json()["reflexive"],
            )
        )
    return out


def rank_cases(grid=MCM_GRID, *, seeds: int, base_seed: int) -> list[dict]:
    out = []
    for m, n, l in grid:
        setup = generic_setup(m, n, l)
        for alpha in setup.box():
            result = rank_check(wedge_module(setup, alpha), trials=seeds, seed=base_seed)
            out.append(
                _case(
                    f"rank m={m} n={n} l={l} alpha={list(alpha.parts)}",
                    result.passed,
                    predicted=result.predicted,
                    seeds=seeds,
                )
            )
    return out


# ---------------------------------------------------------------------------
# Oracle cross-checks


def lr_character_cases(max_total: int, nvars: int) -> list[dict]:
    shapes = all_partitions(max_total)
    bad = 0
    count = 0
    for a in shapes:
        for b in shapes:
            if a.size + b.size > max_total or a.size + b.size == 0:
                continue
            count += 1
            lhs = schur_character(a, nvars) * schur_character(b, nvars)
            rhs = None
            for g, c in lr_coefficients(a, b).items():
                term = schur_character(g, nvars).scaled(c)
                rhs = term if rhs is None else rhs + term
            if lhs != rhs:
                bad += 1
    return [_case(f"lr-vs-character total<={max_total}", bad == 0, cases=count)]


def cauchy_cases(t_max: int, l_max: int) -> list[dict]:
    bad = 0
    count = 0
    for t in range(t_max + 1):
        for l1 in range(1, l_max + 1):
            for l2 in range(1, l_max + 1):
                total = sum(d1 * d2 for _, (d1, d2) in cauchy_expand(t, l1, l2))
                count += 1
                if total != math.comb(l1 * l2 + t - 1, t):
                    bad += 1
    return [_case(f"cauchy-identity t<={t_max}", bad == 0, cases=count)]


def box_count_cases(max_uv: int) -> list[dict]:
    bad = 0
    for u in range(1, max_uv + 1):
        for v in range(1, max_uv + 1):
            if len(enumerate_box(u, v)) != math.comb(u + v, u):
                bad += 1
    return [_case(f"box-counts uv<={max_uv}", bad == 0)]


def resolution_complex_cases(grid=((2, 3, 1), (3, 3, 2))) -> list[dict]:
    out = []
    for m, n, l in grid:
        setup = generic_setup(m, n, l)
        ok = True
        for alpha in setup.box():
            pres = wedge_module(setup, alpha).presentation
            res = free_resolution(pres)
            if not res.verify_complex():
                ok = False
            if res.euler_series() != hilbert_series(pres):
                ok = False
        out.append(_case(f"resolution-consistency m={m} n={n} l={l}", ok))
    return out


# ---------------------------------------------------------------------------
# Negative controls


def negative_control_cases(inject_corruption: bool) -> list[dict]:
    out = []
    setup = generic_setup(2, 2, 1)
    ring = setup.ring
    var0 = tuple(1 if i == 0 else 0 for i in range(ring.nvars))
    bad = ModulePresentation.from_relations(
        FreeModule(ring, (0,)), [Vector(ring, {(0, var0): ring.coeff(1)})]
    )
    cert = certify_mcm(bad, setup)
    out.append(
        _case(
            "negative-control coordinate-hyperplane",
            not cert.passed,
            pd=cert.pd,
            annihilated=cert.annihilated,
        )
    )
    if inject_corruption:
        mod = wedge_module(setup, (1,))
        pres = mod.presentation
        corrupted = ModulePresentation.from_relations(
            pres.generators, pres.relation_vectors[1:]
        )
        cert = certify_mcm(corrupted, setup, mod.shape)
        out.append(
            _case(
                "injected-corruption wedge-module relation dropped",
                cert.passed,  # expected to FAIL, which fails the suite
                pd=cert.pd,
                annihilated=cert.annihilated,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Profiles


def run_suite(profile: str, inject_corruption: bool, seed: int) -> dict:
    cases: list[dict] = []
    if profile == "quick":
        cases += box_count_cases(4)
        cases += lr_character_cases(4, 2)
        cases += cauchy_cases(3, 2)
        cases += tilt_grass_cases([(1, 2), (1, 3), (2, 4)])
        cases += prop31_cases(4, 3)
        cases += [example_grass24_shadow_case()]
        cases += degreewise_cases([(1, 2, 2), (1, 2, 3)], 2)
        cases += mcm_cases([(2, 2, 1), (2, 3, 1)])
        cases += end_mcm_cases([(2, 2, 1)])
        cases += flip_cases([(2, 2, 1)])
        cases += end_dual_cases([(2, 2, 1)])
        cases += rank_cases([(2, 2, 1), (2, 3, 1)], seeds=2, base_seed=seed)
        cases += resolution_complex_cases([(2, 3, 1)])
    elif profile == "full":
        cases += box_count_cases(5)
        cases += lr_character_cases(6, 3)
        cases += cauchy_cases(5, 3)
        cases += tilt_grass_cases()
        cases += prop31_cases(5, 6)
        cases += [example_grass24_shadow_case()]
        cases += degreewise_cases()
        cases += mcm_cases()
        cases += end_mcm_cases()
        cases += flip_cases()
        cases += end_dual_cases()
        cases += rank_cases(seeds=5, base_seed=seed)
        cases += resolution_complex_cases()
    else:
        raise ValueError(f"unknown profile {profile!r}")
    cases += negative_control_cases(inject_corruption)
    return {
        "profile": profile,
        "cases": cases,
        "pass": all(c["pass"] for c in cases),
    }
