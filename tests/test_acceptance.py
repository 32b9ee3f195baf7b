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

from detlab import suite
from detlab.cli import DEFAULT_SEED, build_parser


def report(name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}")
    assert passed, f"{name} failed: {detail}"


def full_profile(*subcommands: str) -> list[tuple[str, bool, list]]:
    """(line, passed, cases) of each full-profile command line of the given
    subcommands, run through that subcommand's own CLI handler."""
    parser = build_parser()
    out = []
    for line in suite.command_lines("full", DEFAULT_SEED):
        args = parser.parse_args(line.split())
        if args.subcommand in subcommands:
            _, _, cases, passed = args.run(args)
            out.append((line, passed, cases))
    return out


def test_criterion_1_tilting_on_grassmannians():
    lines = full_profile("check-tilt-grass")
    report(
        "1 ext-vanishing between box wedge bundles",
        all(passed for _, passed, _ in lines),
        f"({sum(len(cases) for _, _, cases in lines)} pairs)",
    )


def test_criterion_2_hom_vanishing_grid():
    lines = full_profile("check-prop31")
    report(
        "2 dual-wedge against Schur bundle vanishing, m<=5 |delta|<=6",
        all(passed for _, passed, _ in lines),
        f"({sum(len(cases) for _, _, cases in lines)} bundles)",
    )


def test_criterion_3_grass24_shadow():
    case = suite.example_grass24_shadow_case()
    report(
        "3 Grass(2,4) Hom(wedge^2 Q, Sym^2 Q) vanishes in every degree",
        case["pass"],
        str(case["degrees"]),
    )


def test_criterion_4_degreewise_vanishing():
    lines = full_profile("check-tilt-springer", "check-dualizing", "check-fm")
    report(
        "4 degreewise vanishing (total space / dualizing twist / kernel), tmax=3",
        all(passed for _, passed, _ in lines),
        f"({len(lines)} grids)",
    )


def test_criterion_5_wedge_modules_are_mcm():
    lines = full_profile("check-mcm")
    modules = [(line, case) for line, _, cases in lines for case in cases]
    detail = "; ".join(
        f"{line} alpha={case['shape']}: pd={case['pd']}" for line, case in modules if not case["pass"]
    )
    report(
        "5 projective dimension equals codimension for every box shape",
        all(passed for _, passed, _ in lines),
        detail or f"({len(modules)} modules, exact integer equality)",
    )


def test_criterion_6_endomorphism_ring_mcm():
    lines = full_profile("check-end-mcm")
    report(
        "6 endomorphism blocks all have pd = codim (incl. 3,3,1 blockwise)",
        all(passed for _, passed, _ in lines),
        f"({len(lines)} setups)",
    )


def test_criterion_7_flip_duality():
    lines = full_profile("check-flip")
    report(
        "7 transpose-side summands are the duals (surjective + equal series)",
        all(passed for _, passed, _ in lines),
    )


def test_criterion_8_end_self_duality():
    lines = full_profile("check-end-dual")
    report(
        "8 dual endomorphism series equal + box-complement involution",
        all(passed for _, passed, _ in lines),
    )


def test_criterion_9_oracle_cross_checks():
    verdicts = [c["pass"] for c in suite.lr_character_cases(6, 3) + suite.cauchy_cases(5, 3)]
    verdicts += [passed for _, passed, _ in full_profile("check-rank", "resolve")]
    report(
        "9 oracle cross-checks (LR/character, Cauchy identity, ranks, Euler series)",
        all(verdicts),
        f"({len(verdicts)} groups)",
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
