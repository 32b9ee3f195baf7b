"""Characteristic-zero Schur calculus.

Tensor products of GL(rank) modules are bilinear over pairs of irreducible
terms.  Each pair, shifted to last entries 0, is multiplied by the
Brauer-Klimyk rule: the weights of the smaller factor, read off its tableau
character, are added to the highest weight of the other factor and
straightened by the dotted Weyl action (`partitions.straighten`).  Littlewood-Richardson products
are computed combinatorially, by enumerating skew semistandard fillings whose
reverse reading word is a lattice word, and serve as the independent
reference for those tensor products.  The tableau character oracle
(semistandard Young tableaux) cross-checks LR; LR and the character oracle
never share code paths.  A character is a `commalg` `Polynomial` over Q in
nvars variables, so the cross-check multiplies, adds and compares with the
polynomial arithmetic.

Tables are computed once per process and kept as immutable tuples: the
weight table of each (shape, rank), enumerated from tableaux
(`_character_table`, read by the Brauer-Klimyk step and `schur_character`),
and the expansion of each box wedge power (`_exterior_table`, copied out by
`exterior_expand`).  A tensor of column wedge powers wedge^c V is one path,
`column_fold`, which tensors in one column at a time and keeps each prefix.
Products and folds are computed once per verdict, in memo dicts the caller
owns and passes in, so they are freed when the verdict returns.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field

from .commalg import Polynomial, PolyRing
from .partitions import (
    Partition, canonical_parts, conjugate, partitions_of, straighten, weyl_dim,
)


@dataclass
class SchurSum:
    """Multiplicity map over dominant GL(rank) weights of length `rank`.

    `add` raises ValueError on a weight of another length or one that is not
    dominant; a key whose multiplicity sums to zero is removed.
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

    def dual(self) -> "SchurSum":
        """The dual module: each weight w becomes -w reversed."""
        return SchurSum(
            self.rank, {tuple(-v for v in reversed(w)): mult for w, mult in self.terms.items()}
        )

    def twist(self, s: int) -> "SchurSum":
        """The tensor with det^s: each weight w becomes w + (s, ..., s)."""
        return SchurSum(self.rank, {tuple(v + s for v in w): k for w, k in self.terms.items()})

    def tensor(self, other: "SchurSum", memo: dict | None = None) -> "SchurSum":
        """The tensor product, bilinear over pairs of terms.  Each pair is
        shifted to last entries 0 and its product read from `memo` (a fresh
        dict when None), where `_irreducible_product` puts it on first use;
        a caller that passes one memo to many calls shares the products."""
        if other.rank != self.rank:
            raise ValueError("rank mismatch")
        memo = {} if memo is None else memo
        acc: dict[tuple[int, ...], int] = {}
        ys = [(tuple(v - y[-1] for v in y), y[-1], my) for y, my in other.terms.items()]
        for x, mx in self.terms.items():
            x0 = tuple(v - x[-1] for v in x)
            for y0, cy, my in ys:
                c = x[-1] + cy
                product = memo.get((x0, y0))
                if product is None:
                    product = memo[x0, y0] = _irreducible_product(x0, y0)
                for z, k in product:
                    z = tuple(v + c for v in z)
                    acc[z] = acc.get(z, 0) + mx * my * k
        out = SchurSum(self.rank, {z: k for z, k in acc.items() if k})
        dims = self.dimension(), other.dimension()
        if out.dimension() != dims[0] * dims[1]:
            raise RuntimeError(f"tensor product of dimension {out.dimension()}, "
                               f"expected {dims[0]} * {dims[1]}")
        return out

    @staticmethod
    def unit(rank: int) -> "SchurSum":
        s = SchurSum(rank)
        s.add((0,) * rank, 1)
        return s


def _irreducible_product(x: tuple[int, ...], y: tuple[int, ...]) -> tuple:
    """Brauer-Klimyk for two partitions of length rank: every weight mu of the
    smaller factor gives sign(w) V_{w(x + mu + rho) - rho}, where w sorts
    x + mu + rho and a repeated entry gives nothing.  Returns the immutable
    (weight, multiplicity) pairs of V_x x V_y."""
    if weyl_dim(y) > weyl_dim(x):
        x, y = y, x
    rho = range(len(x) - 1, -1, -1)
    shifted = [a + r for a, r in zip(x, rho)]
    acc: dict[tuple[int, ...], int] = {}
    for mu, k in _character_table(canonical_parts(y), len(y)):
        st = straighten([a + b for a, b in zip(shifted, mu)])
        if st is not None:
            inversions, v = st
            z = tuple(a - r for a, r in zip(v, rho))
            acc[z] = acc.get(z, 0) + (-1) ** inversions * k
    return tuple((z, k) for z, k in acc.items() if k)


# ---------------------------------------------------------------------------
# Littlewood-Richardson by skew lattice fillings


def _candidate_shapes(a: Partition, b: Partition):
    """Partitions g containing a with |g| = |a|+|b|, g_1 <= a_1 + b_1, in
    decreasing lex order."""
    for parts in partitions_of(a.size + b.size, len(a) + len(b), a.part(0) + b.part(0)):
        if len(parts) >= len(a) and all(g >= x for g, x in zip(parts, a.parts)):
            yield Partition(parts)


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
# Box expansions and weights with negative entries


def exterior_expand(alpha, l: int) -> SchurSum:
    """Decomposition of the tensor of column exterior powers for rank l.

    For shape alpha with conjugate columns (c_1, ..., c_r), expands
    wedge^{c_1} V x ... x wedge^{c_r} V with dim V = l as a fold of
    SchurSum.tensor over the column weights (1^c, 0^(l-c)).  The key alpha
    itself appears with multiplicity one.  The result is a fresh copy of the
    cached expansion, so mutating it changes no later answer.
    """
    alpha = Partition.of(alpha)
    if len(alpha) > l:
        raise ValueError(f"shape {alpha.parts} has more than {l} rows")
    return SchurSum(l, dict(_exterior_table(alpha.parts, l)))


def column_fold(columns: tuple[int, ...], l: int, folds: dict, memo: dict | None = None) -> SchurSum:
    """wedge^{c_1} V x ... x wedge^{c_r} V, dim V = l, for `columns` in 0..l:
    the fold of columns[:-1] tensored with (1^c_r, 0^(l-c_r)).  Every fold made
    is kept in `folds`, a dict the caller owns, and shared with it."""
    if not columns:
        return SchurSum.unit(l)
    out = folds.get(columns)
    if out is None:
        c = columns[-1]
        column = SchurSum(l, {(1,) * c + (0,) * (l - c): 1})
        out = folds[columns] = column_fold(columns[:-1], l, folds, memo).tensor(column, memo)
    return out


@functools.cache
def _exterior_table(parts: tuple[int, ...], l: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The (weight, multiplicity) pairs of `exterior_expand(parts, l)`, for
    canonical `parts` with at most l rows."""
    out = column_fold(conjugate(parts).parts, l, {})
    mult = out.terms.get(Partition(parts).padded(l), 1)
    if mult != 1:
        raise RuntimeError(f"{parts} has multiplicity {mult} in its own expansion")
    return tuple(out.terms.items())


def tensor_weights(x, y, l: int) -> SchurSum:
    """Tensor product decomposition of two dominant GL(l) weights, whose
    entries may be negative: the one-term case of SchurSum.tensor."""
    xs, ys = SchurSum(l), SchurSum(l)
    xs.add(x)
    ys.add(y)
    return xs.tensor(ys)


def cauchy_expand(t: int, l1: int, l2: int) -> list[tuple[Partition, tuple[int, int]]]:
    """Degree-t piece of Sym(V x W): shapes g of t with at most min(l1,l2)
    rows, each carrying the pair of dimensions (dim L_g V, dim L_g W)."""
    if t < 0:
        raise ValueError("degree must be nonnegative")
    shapes = [Partition(p) for p in sorted(partitions_of(t, min(l1, l2), t))]
    return [(g, (weyl_dim(g.padded(l1)), weyl_dim(g.padded(l2)))) for g in shapes]


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


@functools.cache
def _character_table(parts: tuple[int, ...], nvars: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The (exponent vector, tableau count) pairs of s_parts(x_1..x_nvars);
    `parts` is canonical, so (2, 1, 0) and (2, 1) share one entry."""
    counts = Counter(
        tuple(sum(row.count(v) for row in tab) for v in range(1, nvars + 1))
        for tab in semistandard_tableaux(parts, nvars)
    )
    return tuple(counts.items())


def schur_character(g, nvars: int) -> Polynomial:
    """Schur polynomial s_g(x_1..x_nvars) over Q, by tableau enumeration; zero
    when g has more than nvars rows.  Its terms are a fresh copy of the cached
    weight table, so mutating them changes no later answer."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    return Polynomial(PolyRing(nvars), dict(_character_table(Partition.of(g).parts, nvars)))
