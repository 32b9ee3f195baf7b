"""Characteristic-zero Schur calculus.

Littlewood-Richardson products are computed combinatorially, by enumerating
skew semistandard fillings whose reverse reading word is a lattice word.  A
separate tableau-based character oracle (semistandard Young tableaux) serves
as an independent cross-check; the two never share code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .partitions import Partition, conjugate, weyl_dim


@dataclass
class SchurSum:
    """Multiplicity map over dominant GL(rank) weights of a fixed length.

    Weights whose normalization needs more than `rank` nonzero rows vanish
    for GL(rank) and are dropped at insertion time.
    """

    rank: int
    terms: dict[tuple[int, ...], int] = field(default_factory=dict)

    def add(self, weight: tuple[int, ...], mult: int = 1) -> None:
        if mult == 0:
            return
        w = tuple(int(x) for x in weight)
        if len(w) != self.rank:
            raise ValueError(f"weight {w} has length {len(w)}, expected {self.rank}")
        if any(w[i] < w[i + 1] for i in range(len(w) - 1)):
            raise ValueError(f"weight {w} is not dominant")
        self.terms[w] = self.terms.get(w, 0) + mult
        if self.terms[w] == 0:
            del self.terms[w]

    def items(self):
        return sorted(self.terms.items())

    def dimension(self) -> int:
        return sum(mult * weyl_dim(w) for w, mult in self.terms.items())

    def tensor(self, other: "SchurSum") -> "SchurSum":
        if other.rank != self.rank:
            raise ValueError("rank mismatch")
        out = SchurSum(self.rank)
        for x, mx in self.terms.items():
            for y, my in other.terms.items():
                for z, mz in tensor_weights(x, y, self.rank).terms.items():
                    out.add(z, mx * my * mz)
        return out

    @staticmethod
    def unit(rank: int) -> "SchurSum":
        s = SchurSum(rank)
        s.add((0,) * rank, 1)
        return s

    def __eq__(self, other) -> bool:
        return isinstance(other, SchurSum) and self.rank == other.rank and self.terms == other.terms


@dataclass
class SymCharacter:
    """Symmetric polynomial as an exponent-vector table (the tableau oracle)."""

    nvars: int
    coeffs: dict[tuple[int, ...], int] = field(default_factory=dict)

    def add(self, expo: tuple[int, ...], c: int) -> None:
        if c == 0:
            return
        cur = self.coeffs.get(expo, 0) + c
        if cur:
            self.coeffs[expo] = cur
        else:
            del self.coeffs[expo]

    def __mul__(self, other: "SymCharacter") -> "SymCharacter":
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        out = SymCharacter(self.nvars)
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out.add(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return out

    def __add__(self, other: "SymCharacter") -> "SymCharacter":
        out = SymCharacter(self.nvars, dict(self.coeffs))
        for e, c in other.coeffs.items():
            out.add(e, c)
        return out

    def scaled(self, k: int) -> "SymCharacter":
        return SymCharacter(self.nvars, {e: k * c for e, c in self.coeffs.items()} if k else {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, SymCharacter) and self.nvars == other.nvars and self.coeffs == other.coeffs


# ---------------------------------------------------------------------------
# Littlewood-Richardson by skew lattice fillings


def _candidate_shapes(a: Partition, b: Partition):
    """Partitions g containing a with |g| = |a|+|b|, g_1 <= a_1 + b_1."""
    total = a.size + b.size
    maxrows = len(a) + len(b)
    maxfirst = a.part(0) + b.part(0)

    def rec(row: int, prev: int, remaining: int, acc: list[int]):
        if remaining == 0:
            if a.part(row) == 0:
                yield Partition(tuple(acc))
            return
        if row >= maxrows:
            return
        lo = max(a.part(row), 1)
        hi = min(prev, remaining)
        for g in range(hi, lo - 1, -1):
            acc.append(g)
            yield from rec(row + 1, g, remaining - g, acc)
            acc.pop()

    yield from rec(0, maxfirst, total, [])


def _lr_fillings(g: Partition, a: Partition, b: Partition) -> int:
    """Count LR fillings of g/a with content b.

    Cells are filled in reading order (rows top to bottom, each row right to
    left) so the lattice-word condition can be enforced incrementally.
    Fillings are weakly increasing along rows, strictly increasing down
    columns.
    """
    nrows = len(g)
    cells = []
    for i in range(nrows):
        for j in range(g.part(i) - 1, a.part(i) - 1, -1):
            cells.append((i, j))
    nvals = len(b)
    remaining = list(b.parts)
    fill: dict[tuple[int, int], int] = {}
    count = 0
    counts = [0] * (nvals + 1)

    def rec(idx: int) -> None:
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        i, j = cells[idx]
        right = fill.get((i, j + 1))
        above = fill.get((i - 1, j))
        hi = right if right is not None else nvals
        lo = (above + 1) if above is not None else 1
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0:
                continue
            # lattice condition on the reading word so far
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            fill[(i, j)] = v
            remaining[v - 1] -= 1
            counts[v] += 1
            rec(idx + 1)
            counts[v] -= 1
            remaining[v - 1] += 1
            del fill[(i, j)]

    rec(0)
    return count


def lr_coefficients(a, b) -> dict[Partition, int]:
    """All g with nonzero Littlewood-Richardson coefficient c^g_{ab}."""
    a, b = Partition.of(a), Partition.of(b)
    if not b.parts:
        return {a: 1}
    if not a.parts:
        return {b: 1}
    out: dict[Partition, int] = {}
    for g in _candidate_shapes(a, b):
        c = _lr_fillings(g, a, b)
        if c:
            out[g] = c
    return out


# ---------------------------------------------------------------------------
# Pieri columns, box expansions, weights with negative entries


def _add_vertical_strip(base: tuple[int, ...], size: int, maxrows: int):
    """Shapes obtained from base by adding `size` boxes, at most one per row."""
    padded = list(base) + [0] * (maxrows - len(base))
    for rows in combinations(range(maxrows), size):
        new = padded[:]
        for r in rows:
            new[r] += 1
        ok = all(new[i] >= new[i + 1] for i in range(maxrows - 1))
        # column-strict growth: can only put a box in row r if the result
        # still is a partition; no other condition for a vertical strip
        if ok:
            yield tuple(x for x in new if x)


def exterior_expand(alpha, l: int) -> SchurSum:
    """Decomposition of the tensor of column exterior powers for rank l.

    For shape alpha with conjugate columns (c_1, ..., c_r), expands
    wedge^{c_1} V x ... x wedge^{c_r} V with dim V = l by iterated column
    Pieri products.  The key alpha itself appears with multiplicity one.
    """
    alpha = Partition.of(alpha)
    if len(alpha) > l:
        raise ValueError(f"shape {alpha.parts} has more than {l} rows")
    cols = conjugate(alpha).parts
    current: dict[tuple[int, ...], int] = {(): 1}
    for c in cols:
        nxt: dict[tuple[int, ...], int] = {}
        for shape, mult in current.items():
            for new in _add_vertical_strip(shape, c, l):
                nxt[new] = nxt.get(new, 0) + mult
        current = nxt
    out = SchurSum(l)
    for shape, mult in current.items():
        out.add(Partition(shape).padded(l), mult)
    mult = out.terms.get(alpha.padded(l), 1)
    if mult != 1:
        raise RuntimeError(f"{alpha.parts} has multiplicity {mult} in its own expansion")
    return out


def tensor_weights(x, y, l: int) -> SchurSum:
    """Tensor product decomposition of two dominant GL(l) weights.

    Entries may be negative; both inputs are shifted to partitions, combined
    with the Littlewood-Richardson rule, and the keys shifted back.
    """
    xe = tuple(int(v) for v in x)
    ye = tuple(int(v) for v in y)
    if len(xe) != l or len(ye) != l:
        raise ValueError(f"weights must have length {l}")
    for w in (xe, ye):
        if any(w[i] < w[i + 1] for i in range(l - 1)):
            raise ValueError(f"weight {w} is not dominant")
    cx = max(0, -min(xe, default=0))
    cy = max(0, -min(ye, default=0))
    a = Partition(tuple(v + cx for v in xe))
    b = Partition(tuple(v + cy for v in ye))
    out = SchurSum(l)
    for g, mult in lr_coefficients(a, b).items():
        if len(g) > l:
            continue
        out.add(tuple(v - cx - cy for v in g.padded(l)), mult)
    return out


def cauchy_expand(t: int, l1: int, l2: int) -> list[tuple[Partition, tuple[int, int]]]:
    """Degree-t piece of Sym(V x W): shapes g of t with at most min(l1,l2)
    rows, each carrying the pair of dimensions (dim L_g V, dim L_g W)."""
    if t < 0:
        raise ValueError("degree must be nonnegative")
    maxrows = min(l1, l2)
    out = []

    def rec(row, prev, remaining, acc):
        if remaining == 0:
            g = Partition(tuple(acc))
            out.append((g, (weyl_dim(g.padded(l1)), weyl_dim(g.padded(l2)))))
            return
        if row >= maxrows:
            return
        for p in range(min(prev, remaining), 0, -1):
            acc.append(p)
            rec(row + 1, p, remaining - p, acc)
            acc.pop()

    rec(0, t, t, [])
    return sorted(out, key=lambda it: it[0].parts)


# ---------------------------------------------------------------------------
# Tableau oracle


def semistandard_tableaux(shape, nvals: int):
    """Yield all SSYT of the given shape with entries in 1..nvals."""
    shape = Partition.of(shape)
    rows = shape.parts
    if len(rows) > nvals:
        return
    tab = [[0] * r for r in rows]

    def rec(i, j):
        if i == len(rows):
            yield [row[:] for row in tab]
            return
        ni, nj = (i, j + 1) if j + 1 < rows[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, tab[i][j - 1])
        if i > 0 and j < rows[i - 1]:
            lo = max(lo, tab[i - 1][j] + 1)
        for v in range(lo, nvals + 1):
            tab[i][j] = v
            yield from rec(ni, nj)

    if not rows:
        yield []
        return
    yield from rec(0, 0)


def schur_character(g, nvars: int) -> SymCharacter:
    """Schur polynomial s_g(x_1..x_nvars) by tableau enumeration; zero when g
    has more than nvars rows."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    g = Partition.of(g)
    out = SymCharacter(nvars)
    for tab in semistandard_tableaux(g, nvars):
        expo = [0] * nvars
        for row in tab:
            for v in row:
                expo[v - 1] += 1
        out.add(tuple(expo), 1)
    return out


def count_ssyt(shape, nvals: int) -> int:
    return sum(1 for _ in semistandard_tableaux(shape, nvals))
