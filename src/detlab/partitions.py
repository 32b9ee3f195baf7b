"""Partitions, GL(m) weights, and partitions-in-a-box enumeration.

Conventions: partitions are weakly decreasing tuples of nonnegative integers,
canonical form has no trailing zeros.  Weights are arbitrary integer tuples;
a weight is dominant when weakly decreasing.  The canonical total order on
partitions is lexicographic on the part tuples.  `partitions_of` is the one
partition enumerator and `straighten` the one dotted Weyl-group
sort-and-sign step of the package.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence


def canonical_parts(seq: Sequence[int]) -> tuple[int, ...]:
    """Validate weak decrease / nonnegativity and strip trailing zeros."""
    parts = tuple(int(x) for x in seq)
    for i, x in enumerate(parts):
        if x < 0:
            raise ValueError(f"negative part {x} in {parts}")
        if i > 0 and parts[i - 1] < x:
            raise ValueError(f"parts not weakly decreasing: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "parts", canonical_parts(self.parts))

    @staticmethod
    def of(seq) -> "Partition":
        if isinstance(seq, Partition):
            return seq
        return Partition(tuple(seq))

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def part(self, i: int) -> int:
        """i-th part, zero beyond the last row."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0

    def padded(self, length: int) -> tuple[int, ...]:
        if length < len(self.parts):
            raise ValueError(f"cannot pad {self.parts} to length {length}")
        return self.parts + (0,) * (length - len(self.parts))

    def fits_in_box(self, rows: int, cols: int) -> bool:
        return len(self.parts) <= rows and (not self.parts or self.parts[0] <= cols)

    # lexicographic order (the canonical total order here); () is minimal
    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __le__(self, other: "Partition") -> bool:
        return self.parts <= other.parts

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


def conjugate(p) -> Partition:
    """Transpose of the Young diagram; an involution."""
    parts = Partition.of(p).parts
    if not parts:
        return Partition()
    return Partition(tuple(sum(1 for x in parts if x > j) for j in range(parts[0])))


def partitions_of(total: int, max_rows: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """The partitions of `total` with at most `max_rows` parts, each at most
    `max_part`, as part tuples in decreasing lexicographic order.  Total 0
    gives only (); a positive total with `max_rows <= 0` gives nothing."""
    if total == 0:
        yield ()
        return
    if max_rows <= 0 or total > max_rows * max_part:
        return
    for first in range(min(max_part, total), 0, -1):
        for rest in partitions_of(total - first, max_rows - 1, first):
            yield (first,) + rest


def enumerate_box(u: int, v: int) -> tuple[Partition, ...]:
    """All partitions inside the u x v box, lex sorted; binomial(u+v, u) of them."""
    if u < 1 or v < 1:
        raise ValueError("box dimensions must be positive")
    members = sorted(Partition(p) for size in range(u * v + 1) for p in partitions_of(size, u, v))
    if len(members) != math.comb(u + v, u):
        raise RuntimeError(
            f"{len(members)} partitions in the {u} x {v} box, expected "
            f"binomial({u + v}, {u})"
        )
    return tuple(members)


def weyl_dim(w) -> int:
    """Dimension of the irreducible GL module with dominant weight w.

    Product formula prod_{i<j} (w_i - w_j + j - i)/(j - i), evaluated with the
    division done last so every intermediate stays an exact integer.
    Invariant under adding a constant to all entries.  Each weight is
    evaluated once per process.
    """
    return _weyl_dim(tuple(w))


@functools.cache
def _weyl_dim(w: tuple[int, ...]) -> int:
    entries = tuple(int(x) for x in w)
    m = len(entries)
    if any(entries[i] < entries[i + 1] for i in range(m - 1)):
        raise ValueError(f"weight {entries} is not dominant")
    num = 1
    den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= entries[i] - entries[j] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise RuntimeError(f"Weyl product for {entries} is not an integer")
    return q


def straighten(v) -> tuple[int, tuple[int, ...]] | None:
    """Sort v into strictly decreasing order: (inversion count, sorted tuple),
    or None when an entry repeats (one sort, one set); 0 inversions when the
    sort moved nothing, else counted by bisection.

    This is the dotted Weyl-group step shared by Bott's theorem and the
    Brauer-Klimyk rule, applied to a weight that already has rho added.
    """
    v = tuple(v)
    s = tuple(sorted(v, reverse=True))
    if len(set(s)) < len(s):
        return None
    if s == v:
        return 0, s
    seen: list[int] = []  # the entries so far, increasing
    inversions = 0
    for a in v:
        k = bisect_left(seen, a)  # earlier entries below a
        inversions += k
        seen.insert(k, a)
    return inversions, s


def all_partitions(max_size: int, max_rows: int | None = None) -> list[Partition]:
    """Every partition of size at most max_size (optionally with at most
    max_rows rows), by size and then in decreasing lex order."""
    if max_size < 0:
        raise ValueError(f"need max_size >= 0, got {max_size}")
    if max_rows is not None and max_rows < 0:
        raise ValueError(f"need max_rows >= 0, got {max_rows}")
    rows = max_size if max_rows is None else max_rows
    return [Partition(p) for total in range(max_size + 1) for p in partitions_of(total, rows, total)]
