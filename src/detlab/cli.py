"""Batch verification runner.

Every checker is a subcommand producing a deterministic report: text by
default, JSON with --json (byte-identical across runs for the same
parameters and seed; wall time is only shown in the text output for that
reason).  Exit code 0 means every case passed, 1 signals a mathematical
failure, 2 a usage error.  Partitions are written as comma-separated parts
with the literal "0" for the empty partition.

Each subcommand is declared once in `build_parser`, with its handler as the
`run` default that `main` calls; the subcommands on one determinantal setup
share --m --n --l --char through `_on_setup`.  The suite runner `_suite`
parses each command line of a `suite.command_lines` profile and calls that
line's own handler, one case a line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import partial

from . import __version__, bott, suite
from .commalg import free_resolution, hilbert_series, presentation_to_json
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
from .partitions import Partition, all_partitions, enumerate_box
from .schurcalc import lr_coefficients

REPORT_VERSION = 1
DEFAULT_SEED = 20240611


def parse_shape(text: str) -> Partition:
    if text.strip() == "0":
        return Partition()
    try:
        return Partition(tuple(int(x) for x in text.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}: {exc}") from exc


def parse_weight(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad weight {text!r}") from exc


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Handlers: each returns (parameters, char, cases, passed), except that a
# setup handler gets the setup and leaves m, n, l and char to _on_setup


def _partitions(args):
    box = enumerate_box(args.u, args.v)
    cases = [{"partition": list(p.parts)} for p in box]
    ok = len(box) == math.comb(args.u + args.v, args.u)
    return {"u": args.u, "v": args.v, "count": len(box)}, 0, cases, ok


def _lr(args):
    a, b = parse_shape(args.a), parse_shape(args.b)
    coeffs = lr_coefficients(a, b)
    cases = [
        {"gamma": list(g.parts), "coefficient": c}
        for g, c in sorted(coeffs.items(), key=lambda t: t[0].parts)
    ]
    ok = all(g.size == a.size + b.size for g in coeffs)
    return {"a": list(a.parts), "b": list(b.parts)}, 0, cases, ok


def _bott(args):
    x, y = parse_weight(args.x), parse_weight(args.y)
    table = bott.bott_cohomology(args.l, args.m, x, y)
    cases = [
        {
            "degree": deg,
            "weights": [
                {"weight": list(w), "multiplicity": mult}
                for w, mult in sorted(table.entries[deg].items())
            ],
            "dimension": table.dim(deg),
        }
        for deg in sorted(table.entries)
    ]
    return (
        {"l": args.l, "m": args.m, "x": list(x), "y": list(y)},
        0,
        cases,
        True,
    )


def _check_prop31(args):
    """The parameters name --alpha and --delta when given, and --delta-max
    only when the deltas are enumerated."""
    parameters = {"l": args.l, "m": args.m}
    if args.alpha is not None:
        alphas = [parse_shape(args.alpha)]
        parameters["alpha"] = list(alphas[0].parts)
    else:
        alphas = list(enumerate_box(args.l, args.m - args.l))
    if args.delta is not None:
        deltas = [parse_shape(args.delta)]
        parameters["delta"] = list(deltas[0].parts)
    else:
        deltas = all_partitions(args.delta_max, max_rows=args.l)
        parameters["delta_max"] = args.delta_max
    cases = []
    for alpha in alphas:
        for delta in deltas:
            rep = bott.check_hom_vanishing(args.l, args.m, alpha, delta)
            cases.extend(c.to_json() for c in rep.cases)
    return parameters, 0, cases, all(c["pass"] for c in cases)


def _bott_check(check, fields, args):
    """A Bott checker called with the options named in fields, in order."""
    rep = check(*(getattr(args, f) for f in fields))
    return rep.parameters, 0, [c.to_json() for c in rep.cases], rep.passed


def _on_setup(check, args):
    """Build the setup from --m --n --l --char and hand it to check, which
    returns (parameters after m, n, l; cases; passed)."""
    setup = generic_setup(args.m, args.n, args.l, char=args.char)
    parameters, cases, passed = check(args, setup)
    return {"m": args.m, "n": args.n, "l": args.l, **parameters}, args.char, cases, passed


def _build_talpha(args, setup):
    mod = wedge_module(setup, parse_shape(args.alpha))
    case = {
        "shape": list(mod.shape.parts),
        "generators": mod.presentation.generators.rank,
        "relations": len(mod.presentation.relation_vectors),
        "presentation": presentation_to_json(mod.presentation),
    }
    return {"alpha": list(mod.shape.parts)}, [case], True


def _resolve(args, setup):
    """Passes when the Euler series of the resolution's Betti table is the
    module's Hilbert series (`free_resolution` itself raises when d o d is
    not 0)."""
    mod = wedge_module(setup, parse_shape(args.alpha))
    res = free_resolution(mod.presentation)
    betti = [
        {"index": i, "degree": d, "rank": r}
        for (i, d), r in sorted(res.betti().items())
    ]
    case = {
        "shape": list(mod.shape.parts),
        "pd": res.length,
        "betti_ranks": res.betti_ranks(),
        "betti": betti,
    }
    passed = res.euler_series() == hilbert_series(mod.presentation)
    return {"alpha": list(mod.shape.parts)}, [case], passed


def _check_mcm(args, setup):
    parameters = {}
    if args.alpha is not None:
        shapes = [parse_shape(args.alpha)]
        parameters["alpha"] = list(shapes[0].parts)
    else:
        shapes = setup.box()
    cases = []
    for shape in shapes:
        mod = wedge_module(setup, shape)
        cert = certify_mcm(mod.presentation, setup, shape)
        cases.append(cert.to_json())
    return parameters, cases, all(c["pass"] for c in cases)


def _check_end_mcm(args, setup):
    certs = certify_end_mcm(endomorphism_ring(setup))
    cases = [
        {
            "alpha": list(a),
            "beta": list(b),
            **cert.to_json(),
        }
        for (a, b), cert in sorted(certs.items())
    ]
    return {}, cases, all(c["pass"] for c in cases)


def _check_flip(args, setup):
    rep = check_flip(setup)
    return {}, [s.to_json() for s in rep.summands], rep.passed


def _check_end_dual(args, setup):
    rep = check_end_dual(setup)
    return {}, [rep.to_json()], rep.passed


def _check_rank(args, setup):
    mod = wedge_module(setup, parse_shape(args.alpha))
    result = rank_check(mod, trials=args.trials, seed=args.seed)
    return (
        {"alpha": list(mod.shape.parts), "trials": args.trials},
        [result.to_json()],
        result.passed,
    )


def _suite(args):
    """Each command line of the profile through its own handler, one case a
    line, then the cross-checks that have no subcommand."""
    parser = build_parser()
    cases = []
    for line in suite.command_lines(args.profile, args.seed):
        sub = parser.parse_args(line.split())
        _, _, sub_cases, passed = sub.run(sub)
        cases.append({"name": line, "pass": bool(passed), "cases": len(sub_cases)})
    cases += suite.cross_check_cases(args.profile, args.inject_corruption)
    return (
        {"profile": args.profile, "inject_corruption": args.inject_corruption},
        0,
        cases,
        all(c["pass"] for c in cases),
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="detlab",
        description="verification workbench for determinantal rings and "
        "Grassmannian tilting checks",
    )
    p.add_argument("--version", action="version", version=f"detlab {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def command(name, helptext, run, *ints):
        """Declare a subcommand: a required int option per name in ints,
        --json, and run as its handler."""
        sp = sub.add_parser(name, help=helptext)
        for option in ints:
            sp.add_argument(f"--{option}", type=int, required=True)
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        sp.set_defaults(run=run)
        return sp

    def setup_command(name, helptext, check):
        """Declare a subcommand on one determinantal setup (see _on_setup)."""
        sp = command(name, helptext, partial(_on_setup, check), "m", "n", "l")
        sp.add_argument("--char", type=int, default=0, help="0 or a prime")
        return sp

    command("partitions", "enumerate partitions in a box", _partitions, "u", "v")

    sp = command("lr", "Littlewood-Richardson product", _lr)
    sp.add_argument("--a", type=str, required=True)
    sp.add_argument("--b", type=str, required=True)

    sp = command("bott", "cohomology of one pure weight term", _bott, "l", "m")
    sp.add_argument("--x", type=str, required=True, help="quotient-side weight")
    sp.add_argument("--y", type=str, required=True, help="sub-side weight")

    sp = command(
        "check-prop31",
        "higher cohomology of dual box wedges against Schur bundles",
        _check_prop31,
        "l",
        "m",
    )
    sp.add_argument("--alpha", type=str, default=None)
    sp.add_argument("--delta", type=str, default=None)
    sp.add_argument("--delta-max", type=int, default=6)

    command(
        "check-tilt-grass",
        "pairwise ext-vanishing on the Grassmannian",
        partial(_bott_check, bott.check_tilting_grass, ("l", "m")),
        "l",
        "m",
    )

    for name, helptext, check in [
        ("check-tilt-springer", "degreewise ext-vanishing on the resolution total space",
         bott.check_tilting_springer),
        ("check-dualizing", "degreewise vanishing against the dualizing twist",
         bott.check_dualizing_vanishing),
        ("check-fm", "degreewise kernel-pushforward vanishing", bott.check_fm_kernel),
    ]:
        run = partial(_bott_check, check, ("l", "m", "n", "tmax"))
        sp = command(name, helptext, run, "l", "m", "n")
        sp.add_argument("--tmax", type=int, default=3)

    sp = setup_command("build-talpha", "dump a wedge-image module presentation", _build_talpha)
    sp.add_argument("--alpha", type=str, required=True)

    sp = setup_command("resolve", "minimal free resolution of a wedge-image module", _resolve)
    sp.add_argument("--alpha", type=str, required=True)

    sp = setup_command("check-mcm", "projective dimension equals codimension", _check_mcm)
    sp.add_argument("--alpha", type=str, default=None)

    setup_command("check-end-mcm", "blockwise endomorphism-ring MCM check", _check_end_mcm)
    setup_command("check-flip", "transpose-side summands are the duals", _check_flip)
    setup_command("check-end-dual", "box-complement symmetry of End", _check_end_dual)

    sp = setup_command("check-rank", "random rank-l specialization oracle", _check_rank)
    sp.add_argument("--alpha", type=str, required=True)
    sp.add_argument("--trials", type=int, default=5)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)

    sp = command("suite", "aggregate verification grid", _suite)
    sp.add_argument("--profile", choices=["quick", "full"], default="quick")
    sp.add_argument(
        "--inject-corruption",
        action="store_true",
        help="negative-control fixture: corrupt a module relation so the "
        "suite must fail with exit code 1",
    )
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return p


def render_text(report: dict, elapsed: float) -> str:
    lines = [
        f"detlab {report['version']} :: {report['subcommand']}",
        f"parameters: {json.dumps(report['parameters'])}"
        f"  char={report['char']}  seed={report['seed']}",
    ]
    for case in report["cases"]:
        status = "" if "pass" not in case else ("ok   " if case["pass"] else "FAIL ")
        summary = {k: v for k, v in case.items() if k not in ("pass", "presentation")}
        lines.append(f"  {status}{json.dumps(summary)}")
    lines.append(
        f"{'PASS' if report['pass'] else 'FAIL'}"
        f" ({len(report['cases'])} cases, {elapsed:.2f}s)"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.time()
    try:
        parameters, char, cases, passed = args.run(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "report_version": REPORT_VERSION,
        "tool": "detlab",
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": parameters,
        "char": char,
        "seed": getattr(args, "seed", DEFAULT_SEED),
        "cases": cases,
        "pass": passed,
    }
    text = json.dumps(report, indent=2) if args.json else render_text(report, time.time() - start)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader stopped early (`| head`): that is not a failed case, so
        # keep the verdict's exit status, and send what is left to devnull
        # so that the interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
