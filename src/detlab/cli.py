"""Batch verification runner.

Every checker is a subcommand producing a deterministic report: text by
default, JSON with --json (byte-identical across runs for the same
parameters and seed; wall time is only shown in the text output for that
reason).  Exit code 0 means every case passed, 1 signals a mathematical
failure, 2 a usage error.  Partitions are written as comma-separated parts
with the literal "0" for the empty partition.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__, bott, suite
from .commalg import free_resolution, presentation_to_json
from .detvar import (
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
from .partitions import Partition, all_partitions, enumerate_box
from .schurcalc import lr_coefficients

REPORT_VERSION = 1


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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="detlab",
        description="verification workbench for determinantal rings and "
        "Grassmannian tilting checks",
    )
    p.add_argument("--version", action="version", version=f"detlab {__version__}")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, char=False, tmax=False, seed=False):
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        if char:
            sp.add_argument("--char", type=int, default=0, help="0 or a prime")
        if tmax:
            sp.add_argument("--tmax", type=int, default=3)
        if seed:
            sp.add_argument("--seed", type=int, default=DEFAULT_SEED)

    sp = sub.add_parser("partitions", help="enumerate partitions in a box")
    sp.add_argument("--u", type=int, required=True)
    sp.add_argument("--v", type=int, required=True)
    common(sp)

    sp = sub.add_parser("lr", help="Littlewood-Richardson product")
    sp.add_argument("--a", type=str, required=True)
    sp.add_argument("--b", type=str, required=True)
    common(sp)

    sp = sub.add_parser("bott", help="cohomology of one pure weight term")
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--x", type=str, required=True, help="quotient-side weight")
    sp.add_argument("--y", type=str, required=True, help="sub-side weight")
    common(sp)

    sp = sub.add_parser(
        "check-prop31", help="higher cohomology of dual box wedges against Schur bundles"
    )
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--alpha", type=str, default=None)
    sp.add_argument("--delta", type=str, default=None)
    sp.add_argument("--delta-max", type=int, default=6)
    common(sp)

    sp = sub.add_parser("check-tilt-grass", help="pairwise ext-vanishing on the Grassmannian")
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    common(sp)

    for name, helptext in [
        ("check-tilt-springer", "degreewise ext-vanishing on the resolution total space"),
        ("check-dualizing", "degreewise vanishing against the dualizing twist"),
        ("check-fm", "degreewise kernel-pushforward vanishing"),
    ]:
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--l", type=int, required=True)
        sp.add_argument("--m", type=int, required=True)
        sp.add_argument("--n", type=int, required=True)
        common(sp, tmax=True)

    sp = sub.add_parser("build-talpha", help="dump a wedge-image module presentation")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--alpha", type=str, required=True)
    common(sp, char=True)

    sp = sub.add_parser("resolve", help="minimal free resolution of a wedge-image module")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--alpha", type=str, required=True)
    common(sp, char=True)

    sp = sub.add_parser("check-mcm", help="projective dimension equals codimension")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--alpha", type=str, default=None)
    common(sp, char=True)

    sp = sub.add_parser("check-end-mcm", help="blockwise endomorphism-ring MCM check")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    common(sp, char=True)

    sp = sub.add_parser("check-flip", help="transpose-side summands are the duals")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    common(sp, char=True)

    sp = sub.add_parser("check-end-dual", help="box-complement symmetry of End")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    common(sp, char=True)

    sp = sub.add_parser("check-rank", help="random rank-l specialization oracle")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int, required=True)
    sp.add_argument("--alpha", type=str, required=True)
    sp.add_argument("--trials", type=int, default=5)
    common(sp, char=True, seed=True)

    sp = sub.add_parser("suite", help="aggregate verification grid")
    sp.add_argument("--profile", choices=["quick", "full"], default="quick")
    sp.add_argument(
        "--inject-corruption",
        action="store_true",
        help="negative-control fixture: corrupt a module relation so the "
        "suite must fail with exit code 1",
    )
    common(sp, seed=True)
    return p


# ---------------------------------------------------------------------------
# Handlers: each returns (parameters, char, cases, passed)


def _from_check_report(rep: bott.CheckReport):
    return rep.parameters, 0, [c.to_json() for c in rep.cases], rep.passed


def handle(args, seed: int) -> tuple[dict, int, list[dict], bool]:
    sc = args.subcommand

    if sc == "partitions":
        box = enumerate_box(args.u, args.v)
        cases = [{"partition": list(p.parts)} for p in box]
        import math

        ok = len(box) == math.comb(args.u + args.v, args.u)
        return {"u": args.u, "v": args.v, "count": len(box)}, 0, cases, ok

    if sc == "lr":
        a, b = parse_shape(args.a), parse_shape(args.b)
        coeffs = lr_coefficients(a, b)
        cases = [
            {"gamma": list(g.parts), "coefficient": c}
            for g, c in sorted(coeffs.items(), key=lambda t: t[0].parts)
        ]
        ok = all(g.size == a.size + b.size for g in coeffs)
        return {"a": list(a.parts), "b": list(b.parts)}, 0, cases, ok

    if sc == "bott":
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

    if sc == "check-prop31":
        alphas = (
            [parse_shape(args.alpha)]
            if args.alpha is not None
            else list(enumerate_box(args.l, args.m - args.l))
        )
        deltas = (
            [parse_shape(args.delta)]
            if args.delta is not None
            else all_partitions(args.delta_max, max_rows=args.l)
        )
        cases = []
        for alpha in alphas:
            for delta in deltas:
                rep = bott.check_hom_vanishing(args.l, args.m, alpha, delta)
                cases.extend(c.to_json() for c in rep.cases)
        return (
            {"l": args.l, "m": args.m, "delta_max": args.delta_max},
            0,
            cases,
            all(c["pass"] for c in cases),
        )

    if sc == "check-tilt-grass":
        return _from_check_report(bott.check_tilting_grass(args.l, args.m))
    if sc == "check-tilt-springer":
        return _from_check_report(
            bott.check_tilting_springer(args.l, args.m, args.n, args.tmax)
        )
    if sc == "check-dualizing":
        return _from_check_report(
            bott.check_dualizing_vanishing(args.l, args.m, args.n, args.tmax)
        )
    if sc == "check-fm":
        return _from_check_report(bott.check_fm_kernel(args.l, args.m, args.n, args.tmax))

    if sc == "build-talpha":
        setup = generic_setup(args.m, args.n, args.l, char=args.char)
        mod = wedge_module(setup, parse_shape(args.alpha))
        case = {
            "shape": list(mod.shape.parts),
            "generators": mod.presentation.generators.rank,
            "relations": len(mod.presentation.relation_vectors),
            "presentation": presentation_to_json(mod.presentation),
        }
        return (
            {"m": args.m, "n": args.n, "l": args.l, "alpha": list(mod.shape.parts)},
            args.char,
            [case],
            True,
        )

    if sc == "resolve":
        setup = generic_setup(args.m, args.n, args.l, char=args.char)
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
        return (
            {"m": args.m, "n": args.n, "l": args.l, "alpha": list(mod.shape.parts)},
            args.char,
            [case],
            True,
        )

    if sc == "check-mcm":
        setup = generic_setup(args.m, args.n, args.l, char=args.char)
        shapes = (
            [parse_shape(args.alpha)] if args.alpha is not None else setup.box()
        )
        cases = []
        for shape in shapes:
            mod = wedge_module(setup, shape)
            cert = certify_mcm(mod.presentation, setup, shape)
            cases.append(cert.to_json())
        return (
            {"m": args.m, "n": args.n, "l": args.l},
            args.char,
            cases,
            all(c["pass"] for c in cases),
        )

    if sc == "check-end-mcm":
        setup = generic_setup(args.m, args.n, args.l, char=args.char)
        certs = certify_end_mcm(endomorphism_ring(setup))
        cases = [
            {
                "alpha": list(a),
                "beta": list(b),
                **cert.to_json(),
            }
            for (a, b), cert in sorted(certs.items())
        ]
        return (
            {"m": args.m, "n": args.n, "l": args.l},
            args.char,
            cases,
            all(c["pass"] for c in cases),
        )

    if sc == "check-flip":
        setup = generic_setup(args.m, args.n, args.l, char=args.char)
        rep = check_flip(setup)
        return (
            {"m": args.m, "n": args.n, "l": args.l},
            args.char,
            [s.to_json() for s in rep.summands],
            rep.passed,
        )

    if sc == "check-end-dual":
        setup = generic_setup(args.m, args.n, args.l, char=args.char)
        rep = check_end_dual(setup)
        return (
            {"m": args.m, "n": args.n, "l": args.l},
            args.char,
            [rep.to_json()],
            rep.passed,
        )

    if sc == "check-rank":
        setup = generic_setup(args.m, args.n, args.l, char=args.char)
        mod = wedge_module(setup, parse_shape(args.alpha))
        result = rank_check(mod, trials=args.trials, seed=seed)
        return (
            {
                "m": args.m,
                "n": args.n,
                "l": args.l,
                "alpha": list(mod.shape.parts),
                "trials": args.trials,
            },
            args.char,
            [result.to_json()],
            result.passed,
        )

    if sc == "suite":
        result = suite.run_suite(args.profile, args.inject_corruption, seed)
        return (
            {"profile": args.profile, "inject_corruption": args.inject_corruption},
            0,
            result["cases"],
            result["pass"],
        )

    raise UsageError(f"unknown subcommand {sc!r}")


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
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.time()
    try:
        seed = getattr(args, "seed", DEFAULT_SEED)
        parameters, char, cases, passed = handle(args, seed)
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
        "seed": seed,
        "cases": cases,
        "pass": passed,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_text(report, time.time() - start))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
