"""Acceptance gate: one test per verification criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.

Everything runs over the rationals (the prime-field fallback is exercised in
the cross-check below); tolerances are exact integer / exact series equality
throughout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from detlab import bott, suite
from detlab.commalg import FreeModule, ModulePresentation, Vector, free_resolution, hilbert_series
from detlab.detvar import (
    DEFAULT_SEED,
    certify_end_mcm,
    certify_mcm,
    check_end_dual,
    check_flip,
    endomorphism_ring,
    generic_setup,
    rank_check,
    wedge_module,
)
from detlab.partitions import enumerate_box


def report(name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}")
    assert passed, f"{name} failed: {detail}"


def test_criterion_1_tilting_on_grassmannians():
    cases = suite.tilt_grass_cases([(1, 2), (1, 3), (1, 4), (2, 4), (2, 5), (3, 6)])
    report(
        "1 ext-vanishing between box wedge bundles",
        all(c["pass"] for c in cases),
        f"({sum(c['pairs'] for c in cases)} pairs)",
    )


def test_criterion_2_hom_vanishing_grid():
    cases = suite.prop31_cases(max_m=5, delta_max=6)
    report(
        "2 dual-wedge against Schur bundle vanishing, m<=5 |delta|<=6",
        all(c["pass"] for c in cases),
        f"({sum(c['cases'] for c in cases)} bundles)",
    )


def test_criterion_3_grass24_shadow():
    case = suite.example_grass24_shadow_case()
    report(
        "3 Grass(2,4) Hom(wedge^2 Q, Sym^2 Q) vanishes in every degree",
        case["pass"],
        str(case["degrees"]),
    )


def test_criterion_4_degreewise_vanishing():
    grid = [(1, 2, 2), (1, 2, 3), (1, 3, 3), (2, 3, 3), (2, 3, 4)]
    cases = suite.degreewise_cases(grid, 3)
    report(
        "4 degreewise vanishing (total space / dualizing twist / kernel), tmax=3",
        all(c["pass"] for c in cases),
        f"({len(cases)} grids)",
    )


def test_criterion_5_wedge_modules_are_mcm():
    grid = [(2, 2, 1), (2, 3, 1), (2, 4, 1), (3, 3, 1), (3, 3, 2), (3, 4, 2)]
    cases = suite.mcm_cases(grid, char=0)
    detail = "; ".join(f"{c['name']}: pd={c['pd']}" for c in cases if not c["pass"])
    report(
        "5 projective dimension equals codimension for every box shape",
        all(c["pass"] for c in cases),
        detail or f"({len(cases)} modules, exact integer equality)",
    )


def test_criterion_6_endomorphism_ring_mcm():
    cases = suite.end_mcm_cases([(2, 2, 1), (2, 3, 1), (3, 3, 2), (3, 3, 1)], char=0)
    report(
        "6 endomorphism blocks all have pd = codim (incl. 3,3,1 blockwise)",
        all(c["pass"] for c in cases),
        f"({len(cases)} setups)",
    )


def test_criterion_7_flip_duality():
    cases = suite.flip_cases([(2, 2, 1), (2, 3, 1), (3, 3, 2)], char=0)
    report(
        "7 transpose-side summands are the duals (surjective + equal series)",
        all(c["pass"] for c in cases),
    )


def test_criterion_8_end_self_duality():
    cases = suite.end_dual_cases([(2, 2, 1), (2, 3, 1), (3, 3, 2)], char=0)
    report(
        "8 dual endomorphism series equal + box-complement involution",
        all(c["pass"] for c in cases),
    )


def test_criterion_9_oracle_cross_checks():
    cases = (
        suite.lr_character_cases(6, 3)
        + suite.cauchy_cases(5, 3)
        + suite.rank_cases(seeds=5, base_seed=DEFAULT_SEED)
        + suite.resolution_complex_cases()
    )
    report(
        "9 oracle cross-checks (LR/character, Cauchy identity, ranks, d o d = 0)",
        all(c["pass"] for c in cases),
        f"({len(cases)} groups)",
    )


def test_criterion_10_negative_controls():
    cases = suite.negative_control_cases(False)
    ok = all(c["pass"] for c in cases)
    # the child must import this checkout's package, or exit 1 means nothing
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-m", "detlab", "suite", "--profile", "quick",
         "--inject-corruption"],
        capture_output=True,
        text=True,
        env=env,
    )
    corrupted_fails = r.returncode == 1 and "Traceback" not in r.stderr
    report(
        "10 negative controls (bad module FAILs; corrupted suite exits 1)",
        ok and corrupted_fails,
        f"(corrupted exit={r.returncode})",
    )
