"""Workload case lists, each mirroring one `detlab suite` family.

A workload is built once per run from the imported library (`lib`, a
namespace of detlab modules) and its set-up objects.  It yields *units*:
groups of *steps* that share state (a step that certifies a module leaves the
module for the rank check after it).  Each step is one verdict: `run(state)`
makes one public checker call, plus building the inputs that call consumes,
and is what gets timed; `check(result)` compares the verdict with its known
answer outside the timed region and returns None or the reason it is wrong.

Case order is shuffled per pass by the run's seeded generator, which also
draws the rank-check specialization seeds, so the library only ever sees
inputs generated from the workload seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import knowns

FP = 32003

RESOLVE_GRID = [
    (2, 4, 1), (2, 5, 1), (2, 6, 1), (3, 3, 1), (3, 3, 2),
    (3, 4, 2), (3, 5, 2), (4, 4, 3), (4, 5, 3),
]
NEGATIVE_CONTROL_SETUP = (2, 2, 1)
RANK_TRIALS = 5  # the check-rank default
ENDO_GRID = [(2, 4, 1), (2, 5, 1), (3, 3, 1), (3, 3, 2), (3, 4, 2)]
# check_end_dual on (3,4,2) alone takes about 6 s, a third of the pass; without
# it two passes fit in one run
ENDO_NO_DUAL = {(3, 4, 2)}
TILT_GRASS = [(3, 7), (3, 8)]
SPRINGER = [(3, 6, 6, 2), (2, 5, 5, 3)]  # (l, m, n, t_max)
PROP31 = (6, 8)  # (max m, max |delta|), as suite.prop31_cases(6, 8)
LR_CHARACTER = (8, 4)  # (max |a| + |b|, variables)


@dataclass
class Step:
    label: str
    run: Callable[[dict], object]
    check: Callable[[object], str | None]


@dataclass
class Unit:
    steps: list[Step]
    shuffle_steps: bool = False


def _need(cond: bool, why: str) -> str | None:
    return None if cond else why


def _first_problem(*problems) -> str | None:
    return next((p for p in problems if p is not None), None)


# ---------------------------------------------------------------------------
# resolve: char 0 wedge images, MCM certificates, rank checks, negative controls


def resolve_setup(lib) -> dict:
    gen = lib.detvar.generic_setup
    setups = {g: gen(*g) for g in RESOLVE_GRID}
    setups[NEGATIVE_CONTROL_SETUP] = gen(*NEGATIVE_CONTROL_SETUP)
    return setups


def _mcm_check(m, n, l, alpha, cert) -> str | None:
    betti = tuple(cert.betti_ranks)
    problems = [
        _need(cert.passed, "certificate failed"),
        _need(cert.annihilated, "not annihilated by the minors"),
        _need(cert.pd == (n - l) * (m - l), f"pd {cert.pd} != {(n - l) * (m - l)}"),
        _need(
            sum((-1) ** i * b for i, b in enumerate(betti)) == 0,
            "alternating Betti sum is not 0 (module not torsion)",
        ),
        _need(
            betti == knowns.RESOLVE_BETTI[((m, n, l), alpha)],
            f"Betti ranks {betti} differ from the frozen table",
        ),
    ]
    if not alpha and l == m - 1:
        en = knowns.eagon_northcott(m, n)
        problems.append(_need(betti == en, f"Betti ranks {betti} != Eagon-Northcott {en}"))
    return _first_problem(*problems)


def _expected_rank(l: int, alpha: tuple[int, ...]) -> int:
    # product over the columns of alpha of binomial(l, column length)
    out = 1
    for j in range(alpha[0] if alpha else 0):
        out *= math.comb(l, sum(1 for a in alpha if a > j))
    return out


def resolve_units(lib, setups) -> list[Unit]:
    dv = lib.detvar
    units = []
    for m, n, l in RESOLVE_GRID:
        setup = setups[(m, n, l)]
        for shape in setup.box():
            alpha = tuple(shape.parts)

            def certify(state, setup=setup, shape=shape):
                mod = state["mod"] = dv.wedge_module(setup, shape)
                return dv.certify_mcm(mod.presentation, setup, shape)

            def rank(state):
                return dv.rank_check(
                    state["mod"], trials=RANK_TRIALS, seed=state["rng"].randrange(2**31)
                )

            expected_rank = _expected_rank(l, alpha)
            units.append(Unit([
                Step(
                    f"mcm {m},{n},{l} {alpha}", certify,
                    lambda c, k=(m, n, l, alpha): _mcm_check(*k, c),
                ),
                Step(
                    f"rank {m},{n},{l} {alpha}", rank,
                    lambda r, e=expected_rank: _first_problem(
                        _need(r.predicted == e, f"predicted rank {r.predicted} != {e}"),
                        _need(r.passed, f"ranks {r.ranks} != {e}"),
                    ),
                ),
            ]))

    neg = setups[NEGATIVE_CONTROL_SETUP]
    ca = lib.commalg

    def hyperplane(state):
        ring = neg.ring
        var0 = tuple(1 if i == 0 else 0 for i in range(ring.nvars))
        pres = ca.ModulePresentation.from_relations(
            ca.FreeModule(ring, (0,)), [ca.Vector(ring, {(0, var0): ring.coeff(1)})]
        )
        return dv.certify_mcm(pres, neg)

    def dropped_relation(state):
        mod = dv.wedge_module(neg, (1,))
        pres = mod.presentation
        broken = ca.ModulePresentation.from_relations(
            pres.generators, pres.relation_vectors[1:]
        )
        return dv.certify_mcm(broken, neg, mod.shape)

    must_fail = lambda c: _need(not c.passed, "negative control was certified MCM")  # noqa: E731
    units.append(Unit([Step("negative coordinate-hyperplane", hyperplane, must_fail)]))
    units.append(Unit([Step("negative wedge-relation-dropped", dropped_relation, must_fail)]))
    return units


# ---------------------------------------------------------------------------
# endo: F_p endomorphism rings, flip duality, box-complement symmetry


def endo_setup(lib) -> dict:
    return {g: lib.detvar.generic_setup(*g, char=FP) for g in ENDO_GRID}


def endo_units(lib, setups) -> list[Unit]:
    dv = lib.detvar
    units = []
    for m, n, l in ENDO_GRID:
        setup = setups[(m, n, l)]
        box = [tuple(a.parts) for a in setup.box()]
        codim = (n - l) * (m - l)
        frozen = knowns.END_BETTI[(m, n, l)]

        def end_check(certs, box=box, codim=codim, frozen=frozen):
            return _first_problem(
                _need(len(certs) == len(box) ** 2, f"{len(certs)} blocks"),
                _need(all(c.passed for c in certs.values()), "a Hom block is not MCM"),
                _need(all(c.pd == codim for c in certs.values()), "a block has pd != codim"),
                _need(
                    {k: tuple(c.betti_ranks) for k, c in certs.items()} == frozen,
                    "block Betti ranks differ from the frozen table",
                ),
            )

        def flip_check(rep, box=box):
            return _first_problem(
                _need(len(rep.summands) == len(box), f"{len(rep.summands)} summands"),
                _need(rep.passed, "flip duality failed"),
            )

        def dual_check(rep, box=box):
            return _first_problem(
                _need(len(rep.pair_shifts) == len(box) ** 2, "wrong pair count"),
                _need(rep.involution_ok, "box complement is not an involution"),
                _need(rep.uniform_shift, "dual Hom blocks shift non-uniformly"),
                _need(rep.total_series_equal, "total series changed by dualizing"),
                _need(rep.passed, "end-dual failed"),
            )

        steps = [
            Step(
                f"end-mcm {m},{n},{l}",
                lambda st, s=setup: dv.certify_end_mcm(dv.endomorphism_ring(s)),
                end_check,
            ),
            Step(f"flip {m},{n},{l}", lambda st, s=setup: dv.check_flip(s), flip_check),
        ]
        if (m, n, l) not in ENDO_NO_DUAL:
            steps.append(Step(
                f"end-dual {m},{n},{l}", lambda st, s=setup: dv.check_end_dual(s), dual_check
            ))
        units.append(Unit(steps, shuffle_steps=True))
    return units


# ---------------------------------------------------------------------------
# bott: characteristic-zero cohomology oracle and the LR/character cross-check


def bott_setup(lib) -> dict:
    return {}


def _report_check(expected_cases: int):
    def check(rep):
        return _first_problem(
            _need(len(rep.cases) == expected_cases, f"{len(rep.cases)} cases != {expected_cases}"),
            _need(all(c.passed for c in rep.cases) and rep.passed, "a vanishing failed"),
        )

    return check


def bott_units(lib, setups) -> list[Unit]:
    bt, pt, sc = lib.bott, lib.partitions, lib.schurcalc
    steps = []
    for l, m in TILT_GRASS:
        steps.append(Step(
            f"tilt-grass {l},{m}",
            lambda st, l=l, m=m: bt.check_tilting_grass(l, m),
            _report_check(math.comb(m, l) ** 2),
        ))
    for l, m, n, t in SPRINGER:
        pairs = math.comb(m, l) ** 2
        for fn, count in (
            (bt.check_tilting_springer, (t + 1) * pairs),
            (bt.check_dualizing_vanishing, (t + 1) * pairs),
            (bt.check_fm_kernel, (t + 1) * math.comb(m, l)),
        ):
            steps.append(Step(
                f"{fn.__name__} {l},{m},{n},{t}",
                lambda st, fn=fn, a=(l, m, n, t): fn(*a),
                _report_check(count),
            ))
    max_m, delta_max = PROP31
    one_case = _report_check(1)
    for m in range(2, max_m + 1):
        for l in range(1, m):
            deltas = pt.all_partitions(delta_max, max_rows=l)
            for alpha in pt.enumerate_box(l, m - l):
                for delta in deltas:
                    steps.append(Step(
                        f"hom-vanishing {l},{m} {alpha.parts} {delta.parts}",
                        lambda st, a=(l, m, alpha, delta): bt.check_hom_vanishing(*a),
                        one_case,
                    ))
    max_total, nvars = LR_CHARACTER
    shapes = pt.all_partitions(max_total)

    def lr_vs_character(a, b):
        lhs = sc.schur_character(a, nvars) * sc.schur_character(b, nvars)
        rhs = None
        for g, c in sc.lr_coefficients(a, b).items():
            term = sc.schur_character(g, nvars).scaled(c)
            rhs = term if rhs is None else rhs + term
        return lhs, rhs

    for a in shapes:
        for b in shapes:
            if 0 < a.size + b.size <= max_total:
                steps.append(Step(
                    f"lr-character {a.parts} {b.parts}",
                    lambda st, a=a, b=b: lr_vs_character(a, b),
                    lambda pair: _need(pair[0] == pair[1], "LR expansion != character product"),
                ))
    return [Unit([s]) for s in steps]


WORKLOADS = {
    "resolve": (resolve_setup, resolve_units),
    "endo": (endo_setup, endo_units),
    "bott": (bott_setup, bott_units),
}
