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
Q-side sum of each case and calls it.  Each Hom pair is one SchurSum.tensor
of box wedge powers of Q and their duals, tensored with Sym_t(aux x Q) degree
by degree where the check is degreewise.  Each checker call owns one product
memo for its tensors, so an irreducible product is computed once per verdict
and freed with it; the weight tables and wedge-power expansions the tensors
start from are computed once per process and kept immutable (see
`schurcalc`), and so is each Weyl dimension.  Bott's sort-and-sign and the
Brauer-Klimyk tensor product share `partitions.straighten`.

Everything here is characteristic zero and every report says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .partitions import Partition, enumerate_box, straighten, weyl_dim
from .schurcalc import SchurSum, cauchy_expand, exterior_expand

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

    def euler(self) -> int:
        return sum((-1) ** deg * self.dim(deg) for deg in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def vanishes_above(self) -> bool:
        """No cohomology in any positive degree."""
        return all(deg <= 0 for deg in self.entries)


def _add_pure_term(table: CohomologyTable, x: tuple, y: tuple, mult: int) -> None:
    """Add mult times the cohomology of L_x(Q) x L_y(R) on Grass(len(x), table.m)."""
    for w in (x, y):
        if list(w) != sorted(w, reverse=True):
            raise ValueError(f"weight {w} is not dominant")
    rho = range(table.m - 1, -1, -1)
    st = straighten([a + b for a, b in zip(x + y, rho)])
    if st is not None:
        inversions, v = st
        table.add(inversions, tuple(a - b for a, b in zip(v, rho)), mult)


def bott_cohomology(l: int, m: int, x: Iterable[int], y: Iterable[int]) -> CohomologyTable:
    """Cohomology of the pure term L_x(Q) x L_y(R) on Grass(l, m)."""
    x = tuple(int(v) for v in x)
    y = tuple(int(v) for v in y)
    if len(x) != l or len(y) != m - l:
        raise ValueError(f"weights must have lengths {l} and {m - l}")
    table = CohomologyTable(m)
    _add_pure_term(table, x, y, 1)
    return table


def cohomology_of(m: int, qsum: SchurSum) -> CohomologyTable:
    """Cohomology of qsum(Q) on Grass(qsum.rank, m), term by pure term."""
    if qsum.rank > m:
        raise ValueError(f"rank {qsum.rank} exceeds m = {m}")
    table = CohomologyTable(m)
    unit = (0,) * (m - qsum.rank)
    for x, mult in qsum.items():
        _add_pure_term(table, x, unit, mult)
    return table


# ---------------------------------------------------------------------------
# Vanishing checkers


@dataclass(slots=True)
class CheckCase:
    inputs: dict
    degrees: dict[int, int]
    passed: bool

    def to_json(self) -> dict:
        return {
            "input": self.inputs,
            "degrees": {str(k): v for k, v in sorted(self.degrees.items())},
            "pass": self.passed,
        }


@dataclass
class CheckReport:
    check: str
    parameters: dict
    cases: list[CheckCase]
    passed: bool
    assumptions: tuple[str, ...] = (CHAR_ZERO_NOTE,)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "parameters": self.parameters,
            "assumptions": list(self.assumptions),
            "cases": [c.to_json() for c in self.cases],
            "pass": self.passed,
        }


def _report(check: str, parameters: dict, cases: list[CheckCase]) -> CheckReport:
    return CheckReport(check, parameters, cases, all(c.passed for c in cases))


def _case(inputs: dict, m: int, qsum: SchurSum) -> CheckCase:
    """One case: qsum(Q) on Grass(qsum.rank, m) has no higher cohomology."""
    table = cohomology_of(m, qsum)
    return CheckCase(inputs, table.degrees(), table.vanishes_above())


def _hom_pairs(l: int, m: int, twist: int = 0):
    """Yield (inputs, Q-side sum) of Hom(wedge^{alpha'}Q, wedge^{beta'}Q) x
    det(Q)^twist for every pair in the l x (m-l) box."""
    det = SchurSum(l)
    det.add((twist,) * l)
    memo: dict = {}
    wedges = {alpha: exterior_expand(alpha, l) for alpha in enumerate_box(l, m - l)}
    for alpha, source in wedges.items():
        dual = source.dual().tensor(det, memo)
        for beta, target in wedges.items():
            yield {"alpha": alpha.parts, "beta": beta.parts}, dual.tensor(target, memo)


def _degreewise(check: str, l: int, m: int, n: int, t_max: int, aux_dim: int,
                pairs: list) -> CheckReport:
    """One case per degree t <= t_max and per (inputs, Q-side sum) pair: the
    pair's sum tensored with Sym_t(aux x Q), aux trivial of dim aux_dim, has
    no higher cohomology."""
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    cases = []
    memo: dict = {}
    for t in range(t_max + 1):
        sym = SchurSum(l)
        for g, (_, dim_aux) in cauchy_expand(t, l, aux_dim):
            sym.add(g.padded(l), dim_aux)
        for inputs, qsum in pairs:
            cases.append(_case({"t": t, **inputs}, m, qsum.tensor(sym, memo)))
    return _report(check, {"l": l, "m": m, "n": n, "t_max": t_max}, cases)


def check_hom_vanishing(l: int, m: int, alpha, delta) -> CheckReport:
    """Higher cohomology of (wedge^{alpha'}Q)^dual x L_delta(Q) vanishes,
    for alpha in the l x (m-l) box and any shape delta with <= l rows."""
    alpha, delta = Partition.of(alpha), Partition.of(delta)
    if not alpha.fits_in_box(l, m - l):
        raise ValueError(f"{alpha.parts} does not fit in the {l} x {m - l} box")
    if len(delta) > l:
        raise ValueError(f"{delta.parts} has more than {l} rows")
    schur = SchurSum(l)
    schur.add(delta.padded(l))
    case = _case(
        {"alpha": alpha.parts, "delta": delta.parts},
        m,
        exterior_expand(alpha, l).dual().tensor(schur),
    )
    return _report("hom-vanishing", {"l": l, "m": m}, [case])


def check_tilting_grass(l: int, m: int) -> CheckReport:
    """No higher self-extensions between box wedge powers of Q: for every
    pair (alpha, beta) in the box, H^{>0}(Hom(wedge^{alpha'}Q, wedge^{beta'}Q)) = 0."""
    cases = [_case(inputs, m, qsum) for inputs, qsum in _hom_pairs(l, m)]
    return _report("tilting-grassmannian", {"l": l, "m": m}, cases)


def check_tilting_springer(l: int, m: int, n: int, t_max: int = 3) -> CheckReport:
    """Degreewise vanishing making the pulled-back bundle tilting on the
    total space: Sym_t of (trivial n-dim) x Q tensored into each Hom pair
    has no higher cohomology, for t <= t_max."""
    if not (1 <= l < min(m, n)):
        raise ValueError("need 1 <= l < min(m, n)")
    return _degreewise("tilting-springer", l, m, n, t_max, n, list(_hom_pairs(l, m)))


def check_dualizing_vanishing(l: int, m: int, n: int, t_max: int = 3) -> CheckReport:
    """Degreewise vanishing against the dualizing twist det(Q)^{n-m}, needed
    for the endomorphism module to be maximal Cohen-Macaulay; requires m <= n."""
    if m > n:
        raise ValueError("requires m <= n")
    if not 1 <= l < m:
        raise ValueError("need 1 <= l < m")
    pairs = list(_hom_pairs(l, m, n - m))
    return _degreewise("dualizing-vanishing", l, m, n, t_max, n, pairs)


def check_fm_kernel(l: int, m: int, n: int, t_max: int = 3) -> CheckReport:
    """Degreewise vanishing behind the kernel pushforward in the derived
    embedding: H^{>0}((wedge^{alpha'}Q)^dual x Sym_t(Q x W)) = 0, with W a
    trivial l-dimensional factor (a fiber of the second quotient bundle)."""
    if m > n:
        raise ValueError("requires m <= n")
    if not 1 <= l < m:
        raise ValueError("need 1 <= l < m")
    pairs = [
        ({"alpha": alpha.parts}, exterior_expand(alpha, l).dual())
        for alpha in enumerate_box(l, m - l)
    ]
    return _degreewise("fm-kernel-vanishing", l, m, n, t_max, l, pairs)
