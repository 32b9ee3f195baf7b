"""Verification profiles.  A profile is a list of `detlab` command lines,
which `cli` runs through each subcommand's own handler; the cross-checks
that have no subcommand (LR vs character, Cauchy, the Grass(2,4) shadow and
the negative controls) are here.

Case dicts are deterministic given (parameters, seed) so reports can be
compared byte for byte.
"""

from __future__ import annotations

import math

from . import bott
from .commalg import FreeModule, ModulePresentation, Vector
from .detvar import certify_mcm, generic_setup, wedge_module
from .partitions import all_partitions, enumerate_box
from .schurcalc import (
    SchurSum,
    cauchy_expand,
    lr_coefficients,
    schur_character,
)


def _case(name: str, passed: bool, **detail) -> dict:
    out = {"name": name, "pass": bool(passed)}
    out.update(detail)
    return out


def _is_full(profile: str) -> bool:
    if profile not in ("quick", "full"):
        raise ValueError(f"unknown profile {profile!r}")
    return profile == "full"


def _box_shapes(grid) -> list[str]:
    """The options naming every box shape of every setup (m, n, l) in grid;
    the empty shape is written "0"."""
    return [
        f"--m {m} --n {n} --l {l} --alpha {','.join(map(str, alpha.parts)) or '0'}"
        for m, n, l in grid
        for alpha in enumerate_box(l, m - l)
    ]


def command_lines(profile: str, seed: int) -> list[str]:
    """The `detlab` argument lines of a profile, one per verdict."""
    if _is_full(profile):
        max_uv, max_m, delta_max, tmax, trials = 5, 5, 6, 3, 5
        grass = [(1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6)]
        degreewise = [(1, 2, 2), (1, 2, 3), (1, 3, 3), (2, 3, 3), (2, 3, 4)]
        mcm = [(2, 2, 1), (2, 3, 1), (2, 4, 1), (3, 3, 1), (3, 3, 2), (3, 4, 2)]
        end = [(2, 2, 1), (2, 3, 1), (3, 3, 2), (3, 3, 1)]
        flip = [(2, 2, 1), (2, 3, 1), (3, 3, 2)]
        resolve = [(2, 3, 1), (3, 3, 2)]
    else:
        max_uv, max_m, delta_max, tmax, trials = 4, 4, 3, 2, 2
        grass = [(1, 2), (1, 3), (2, 4)]
        degreewise = [(1, 2, 2), (1, 2, 3)]
        mcm = [(2, 2, 1), (2, 3, 1)]
        end = flip = [(2, 2, 1)]
        resolve = [(2, 3, 1)]
    uvs = range(1, max_uv + 1)
    lines = [f"partitions --u {u} --v {v}" for u in uvs for v in uvs]
    lines += [f"check-tilt-grass --l {l} --m {m}" for l, m in grass]
    lines += [
        f"check-prop31 --l {l} --m {m} --delta-max {delta_max}"
        for m in range(2, max_m + 1)
        for l in range(1, m)
    ]
    lines += [
        f"{name} --l {l} --m {m} --n {n} --tmax {tmax}"
        for name in ("check-tilt-springer", "check-dualizing", "check-fm")
        for l, m, n in degreewise
    ]
    for name, grid in (
        ("check-mcm", mcm),
        ("check-end-mcm", end),
        ("check-flip", flip),
        ("check-end-dual", flip),
    ):
        lines += [f"{name} --m {m} --n {n} --l {l}" for m, n, l in grid]
    lines += [f"check-rank {s} --trials {trials} --seed {seed}" for s in _box_shapes(mcm)]
    lines += [f"resolve {s}" for s in _box_shapes(resolve)]
    return lines


# ---------------------------------------------------------------------------
# Oracle cross-checks


def cross_check_cases(profile: str, inject_corruption: bool) -> list[dict]:
    """The verdicts of a profile that no subcommand gives."""
    lr, cauchy = ((6, 3), (5, 3)) if _is_full(profile) else ((4, 2), (3, 2))
    return (
        lr_character_cases(*lr)
        + cauchy_cases(*cauchy)
        + [example_grass24_shadow_case()]
        + negative_control_cases(inject_corruption)
    )


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


def example_grass24_shadow_case() -> dict:
    """Hom(wedge^2 Q, Sym^2 Q) on Grass(2,4) has zero cohomology everywhere,
    including degree zero."""
    qsum = SchurSum(2, {(-1, -1): 1}).tensor(SchurSum(2, {(2, 0): 1}))
    table = bott.cohomology_of(4, qsum)
    return _case("grass24-endQ-shadow", table.is_zero(), degrees=table.degrees())


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
