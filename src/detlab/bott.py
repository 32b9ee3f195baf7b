"""Characteristic-zero cohomology oracle for homogeneous bundles on Grass(l, m).

A bundle is reduced to a sum of pure terms L_x(Q) x L_y(R), where Q is the
rank-l tautological quotient and R the rank-(m-l) sub.  Cohomology of a pure
term comes from the dotted Weyl-group action on the concatenated weight: add
rho = (m-1, ..., 0); a repeated entry kills everything, otherwise the unique
nonzero degree is the inversion count.

A sum of bundles is written in one way, as a Q-side SchurSum (trivial on the
R side); `bott_cohomology` takes a single pure term with an R-side weight.
`cohomology_of(m, qsum)` takes the cohomology of qsum(Q) on
Grass(qsum.rank, m) one pure term at a time, through the same per-term
straightening as `bott_cohomology`, and every vanishing checker builds the
Q-side sum of each case and calls it.  With E_alpha the tensor of wedge^c Q
over the columns c of alpha, (wedge^c Q)^dual = wedge^{l-c} Q x det(Q)^{-1}
makes Hom(E_alpha, E_beta) x det^t = E_gamma x det^{t - alpha_1}, with gamma
the columns l - c < l of alpha and those of beta: a Hom pair is one wedge
power, keyed by (gamma, s = t - alpha_1).  A checker call straightens each
key once and its pairs share the result; a degreewise checker tensors each
E_gamma with Sym_t once per t, then twists: (V x det^s) x W = (V x W) x det^s.
These memos are freed with the verdict; weight tables, wedge expansions and
Weyl dimensions are kept per process and immutable (see `schurcalc`).
Bott's sort-and-sign and Brauer-Klimyk share `partitions.straighten`.

Everything here is characteristic zero: every `CheckReport` names that
assumption in `assumptions`, and the command line reports char 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, sub
from typing import Iterable

from .partitions import Partition, conjugate, enumerate_box, straighten, weyl_dim
from .schurcalc import SchurSum, cauchy_expand, column_fold, exterior_expand

CHAR_ZERO_NOTE = "characteristic-zero cohomology oracle"


# ---------------------------------------------------------------------------
# Cohomology tables


@dataclass
class CohomologyTable:
    """Map degree -> {dominant GL(m) weight: multiplicity}, with dimensions."""

    m: int
    entries: dict[int, dict[tuple[int, ...], int]] = field(default_factory=dict)

    def add(self, degree: int, weight: tuple[int, ...], mult: int) -> None:
        if mult == 0:
            return
        row = self.entries.setdefault(degree, {})
        row[weight] = row.get(weight, 0) + mult
        if row[weight] == 0:
            del row[weight]
        if not row:
            del self.entries[degree]

    def dim(self, degree: int) -> int:
        return sum(mult * weyl_dim(w) for w, mult in self.entries.get(degree, {}).items())

    def degrees(self) -> dict[int, int]:
        return {deg: self.dim(deg) for deg in sorted(self.entries)}

    def is_zero(self) -> bool:
        return not self.entries

    def vanishes_above(self) -> bool:
        """No cohomology in any positive degree."""
        return all(deg <= 0 for deg in self.entries)


def _need_grassmannian(l: int, m: int) -> None:
    """Grass(l, m) with a nonempty l x (m-l) box: raise unless 1 <= l < m."""
    if not 1 <= l < m:
        raise ValueError("need 1 <= l < m")


def _pure_term(rho: range, x: tuple, y: tuple) -> tuple:
    """H^*(L_x(Q) x L_y(R)) on Grass(len(x), m), rho = (m-1..0): (degree, weight) or ()."""
    if list(x) != sorted(x, reverse=True):
        raise ValueError(f"weight {x} is not dominant")
    st = straighten(map(add, x + y, rho))
    return () if st is None else (st[0], tuple(map(sub, st[1], rho)))


def bott_cohomology(l: int, m: int, x: Iterable[int], y: Iterable[int]) -> CohomologyTable:
    """Cohomology of the pure term L_x(Q) x L_y(R) on Grass(l, m)."""
    _need_grassmannian(l, m)
    x = tuple(int(v) for v in x)
    y = tuple(int(v) for v in y)
    if len(x) != l or len(y) != m - l:
        raise ValueError(f"weights must have lengths {l} and {m - l}")
    if any(a < b for a, b in zip(y, y[1:])):
        raise ValueError(f"weight {y} is not dominant")
    table = CohomologyTable(m)
    term = _pure_term(range(m - 1, -1, -1), x, y)
    if term:
        table.add(*term, 1)
    return table


def cohomology_of(m: int, qsum: SchurSum, memo: dict | None = None) -> CohomologyTable:
    """Cohomology of qsum(Q) on Grass(qsum.rank, m), term by pure term in dict
    order (the table is the same in any), each read from `memo` (a fresh dict
    when None) under (m, weight), put there once it passes the dominance check."""
    if qsum.rank > m:
        raise ValueError(f"rank {qsum.rank} exceeds m = {m}")
    memo = {} if memo is None else memo
    table = CohomologyTable(m)
    unit = (0,) * (m - qsum.rank)
    rho = range(m - 1, -1, -1)
    for x, mult in qsum.terms.items():
        term = memo.get((m, x))
        if term is None:
            term = memo[m, x] = _pure_term(rho, x, unit)
        if term:
            table.add(*term, mult)
    return table


# ---------------------------------------------------------------------------
# Vanishing checkers


@dataclass(slots=True)
class CheckCase:
    inputs: tuple  # (name, value) pairs, shared between cases where they repeat
    degrees: tuple  # (degree, dimension) pairs in increasing degree
    passed: bool

    def to_json(self) -> dict:
        return {
            "input": dict(self.inputs),
            "degrees": {str(k): v for k, v in self.degrees},
            "pass": self.passed,
        }


@dataclass
class CheckReport:
    parameters: dict
    cases: list[CheckCase]
    passed: bool
    assumptions: tuple[str, ...] = (CHAR_ZERO_NOTE,)


def _report(parameters: dict, cases: list[CheckCase]) -> CheckReport:
    return CheckReport(parameters, cases, all(c.passed for c in cases))


def _outcome(m: int, qsum: SchurSum, memo: dict | None = None) -> tuple:
    """(degrees, passed) of one case: qsum(Q) on Grass(qsum.rank, m) has no H^{>0}."""
    table = cohomology_of(m, qsum, memo)
    return tuple(table.degrees().items()), table.vanishes_above()


def _hom_pairs(l: int, m: int, twist: int = 0):
    """Yield (inputs, (gamma, s), E_gamma) for every pair in the l x (m-l) box:
    Hom(E_alpha, E_beta) x det(Q)^twist = E_gamma x det(Q)^{s = twist - alpha_1},
    E_gamma one column fold shared by its pairs; E_gamma must hold the top
    weight beta - rev(alpha) + alpha_1, which det^s moves to that of the pair."""
    rows = [(("alpha", a.parts), ("beta", a.parts), list(conjugate(a).parts), a.padded(l))
            for a in enumerate_box(l, m - l)]
    folds, memo = {}, {}
    for a_input, _, a_cols, a_pad in rows:
        duals = [l - c for c in a_cols if c < l]
        s = twist - a_pad[0]
        low = tuple(a_pad[0] - a for a in reversed(a_pad))
        for _, b_input, b_cols, b_pad in rows:
            gamma = tuple(sorted(duals + b_cols, reverse=True))
            fold = column_fold(gamma, l, folds, memo)
            top = tuple(a + b for a, b in zip(low, b_pad))
            if fold.terms.get(top, 0) < 1:
                raise RuntimeError(f"E_gamma of Hom({a_input[1]}, {b_input[1]}) lacks {top}")
            yield (a_input, b_input), (gamma, s), fold


def _degreewise(l: int, m: int, n: int, t_max: int, aux_dim: int, pairs: list) -> CheckReport:
    """One case per degree t <= t_max and per (inputs, (base, s), sum) pair:
    the sum tensored with Sym_t(aux x Q), aux trivial of dim aux_dim, and
    twisted by det(Q)^s has no higher cohomology.  Per t, each base's sum is
    tensored with Sym_t once and each of its twists straightened once."""
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    shifts: dict = {}
    for _, (base, s), qsum in pairs:
        shifts.setdefault(base, (qsum, set()))[1].add(s)
    cases, products, terms = [], {}, {}
    for t in range(t_max + 1):
        sym = SchurSum(l, {g.padded(l): d for g, (_, d) in cauchy_expand(t, l, aux_dim)})
        outcomes = {}
        for base, (qsum, twists) in shifts.items():
            product = qsum.tensor(sym, products)
            outcomes |= {(base, s): _outcome(m, product.twist(s), terms) for s in twists}
        cases += [CheckCase((("t", t), *inputs), *outcomes[key]) for inputs, key, _ in pairs]
    return _report({"l": l, "m": m, "n": n, "t_max": t_max}, cases)


def check_hom_vanishing(l: int, m: int, alpha, delta) -> CheckReport:
    """Higher cohomology of (wedge^{alpha'}Q)^dual x L_delta(Q) vanishes,
    for alpha in the l x (m-l) box and any shape delta with <= l rows."""
    _need_grassmannian(l, m)
    alpha, delta = Partition.of(alpha), Partition.of(delta)
    if not alpha.fits_in_box(l, m - l):
        raise ValueError(f"{alpha.parts} does not fit in the {l} x {m - l} box")
    if len(delta) > l:
        raise ValueError(f"{delta.parts} has more than {l} rows")
    qsum = exterior_expand(alpha, l).dual().tensor(SchurSum(l, {delta.padded(l): 1}))
    case = CheckCase((("alpha", alpha.parts), ("delta", delta.parts)), *_outcome(m, qsum))
    return _report({"l": l, "m": m}, [case])


def check_tilting_grass(l: int, m: int) -> CheckReport:
    """No higher self-extensions between box wedge powers of Q: for every
    pair (alpha, beta) in the box, H^{>0}(Hom(wedge^{alpha'}Q, wedge^{beta'}Q)) = 0."""
    _need_grassmannian(l, m)
    cases, outcomes, terms = [], {}, {}
    for inputs, key, fold in _hom_pairs(l, m):
        if key not in outcomes:
            outcomes[key] = _outcome(m, fold.twist(key[1]), terms)
        cases.append(CheckCase(inputs, *outcomes[key]))
    return _report({"l": l, "m": m}, cases)


def check_tilting_springer(l: int, m: int, n: int, t_max: int) -> CheckReport:
    """Degreewise vanishing making the pulled-back bundle tilting on the
    total space: Sym_t of (trivial n-dim) x Q tensored into each Hom pair
    has no higher cohomology, for t <= t_max."""
    if not (1 <= l < min(m, n)):
        raise ValueError("need 1 <= l < min(m, n)")
    return _degreewise(l, m, n, t_max, n, list(_hom_pairs(l, m)))


def check_dualizing_vanishing(l: int, m: int, n: int, t_max: int) -> CheckReport:
    """Degreewise vanishing against the dualizing twist det(Q)^{n-m}, needed
    for the endomorphism module to be maximal Cohen-Macaulay; requires m <= n."""
    if m > n:
        raise ValueError("requires m <= n")
    _need_grassmannian(l, m)
    return _degreewise(l, m, n, t_max, n, list(_hom_pairs(l, m, n - m)))


def check_fm_kernel(l: int, m: int, n: int, t_max: int) -> CheckReport:
    """Degreewise vanishing behind the kernel pushforward in the derived
    embedding: H^{>0}((wedge^{alpha'}Q)^dual x Sym_t(Q x W)) = 0, with W a
    trivial l-dimensional factor (a fiber of the second quotient bundle)."""
    if m > n:
        raise ValueError("requires m <= n")
    _need_grassmannian(l, m)
    pairs = [((("alpha", a.parts),), (a, 0), exterior_expand(a, l).dual())
             for a in enumerate_box(l, m - l)]
    return _degreewise(l, m, n, t_max, l, pairs)
