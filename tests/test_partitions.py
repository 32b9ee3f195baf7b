import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from detlab.partitions import (
    Partition,
    all_partitions,
    conjugate,
    enumerate_box,
    partitions_of,
    straighten,
    weyl_dim,
)
from detlab.schurcalc import semistandard_tableaux


def test_canonical_form_strips_trailing_zeros():
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition(()).parts == ()


def test_increasing_parts_rejected():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((1, -1))


def test_conjugate_examples():
    assert conjugate((2, 1)).parts == (2, 1)
    assert conjugate((3, 1)).parts == (2, 1, 1)
    assert conjugate(()).parts == ()


def test_conjugate_involution_exhaustive():
    for p in all_partitions(12):
        assert conjugate(conjugate(p)) == p


def test_enumerate_box_examples():
    assert enumerate_box(1, 2) == (Partition(), Partition((1,)), Partition((2,)))
    assert len(enumerate_box(2, 2)) == 6
    assert [p.parts for p in enumerate_box(1, 1)] == [(), (1,)]


def test_enumerate_box_counts():
    for u in range(1, 6):
        for v in range(1, 6):
            box = enumerate_box(u, v)
            assert len(box) == math.comb(u + v, u)
            members = list(box)
            assert members == sorted(members)
            assert len(set(m.parts for m in members)) == len(members)
            assert all(m.fits_in_box(u, v) for m in members)


def test_weyl_dim_examples():
    assert weyl_dim((1, 0)) == 2
    assert weyl_dim((1, 1, 0, 0)) == 6 == math.comb(4, 2)
    assert weyl_dim((2, 0)) == 3


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim((0, 1))


dominant_weights = st.lists(st.integers(-5, 5), min_size=1, max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@given(dominant_weights, st.integers(-3, 3))
def test_weyl_dim_shift_invariant(w, c):
    shifted = tuple(x + c for x in w)
    assert weyl_dim(w) == weyl_dim(shifted)


def test_weyl_dim_counts_tableaux():
    for m in range(1, 5):
        for p in all_partitions(6, max_rows=m):
            assert weyl_dim(p.padded(m)) == sum(1 for _ in semistandard_tableaux(p, m))


def test_weyl_dim_cache_keeps_validation():
    assert weyl_dim((1, 0)) == 2
    with pytest.raises(ValueError):
        weyl_dim((0, 1))
    with pytest.raises(ValueError):
        weyl_dim((0, 1))
    assert weyl_dim([2, 0]) == 3


def test_lex_minimum_is_empty():
    assert Partition((1, 1, 1)) < Partition((2, 1))
    for p in all_partitions(5):
        assert Partition() <= p


def test_straighten_examples():
    assert straighten((3, 1, 0)) == (0, (3, 1, 0))
    assert straighten((0, 1, 3)) == (3, (3, 1, 0))
    assert straighten((1, 3, -2)) == (1, (3, 1, -2))
    assert straighten((2, 0, 2)) is None
    assert straighten(()) == (0, ())


@given(st.lists(st.integers(-6, 6), max_size=6))
def test_straighten_sign_is_parity_of_swaps(v):
    st_v = straighten(v)
    if len(set(v)) < len(v):
        assert st_v is None
        return
    # bubble sort: each adjacent swap removes exactly one inversion
    w, swaps = list(v), 0
    for i in range(len(w)):
        for j in range(len(w) - 1 - i):
            if w[j] < w[j + 1]:
                w[j], w[j + 1] = w[j + 1], w[j]
                swaps += 1
    assert st_v == (swaps, tuple(w))


def quadratic_straighten(v):
    """The O(n^2) pair count that `straighten` used before it counted by
    bisection, kept here as its oracle."""
    n = len(v)
    s = tuple(sorted(v, reverse=True))
    if len(set(s)) < n:
        return None
    return sum(1 for i in range(n) for j in range(i + 1, n) if v[i] < v[j]), s


@given(
    st.lists(st.integers(-12, 12), max_size=10)
    | st.lists(st.integers(-40, 40), max_size=12, unique=True)
)
@settings(max_examples=400)
def test_straighten_matches_the_quadratic_count(v):
    assert straighten(v) == quadratic_straighten(v)
    assert straighten(tuple(v)) == quadratic_straighten(v)


def weakly_decreasing(max_rows, max_part):
    """Brute force: every weakly decreasing tuple of at most `max_rows`
    entries in 1..max_part, keyed by its sum."""
    out = {}
    for k in range(max(max_rows, 0) + 1):
        for p in itertools.product(range(1, max_part + 1), repeat=k):
            if all(a >= b for a, b in zip(p, p[1:])):
                out.setdefault(sum(p), []).append(p)
    return out


def test_partitions_of_matches_brute_force_in_decreasing_lex_order():
    for max_rows in range(-2, 6):
        for max_part in range(-2, 7):
            want = weakly_decreasing(max_rows, max_part)
            for total in range(-1, 11):
                got = list(partitions_of(total, max_rows, max_part))
                assert got == sorted(want.get(total, []), reverse=True), (total, max_rows, max_part)


def test_all_partitions_is_by_size_then_decreasing_lex():
    for max_size, max_rows in [(n, None) for n in range(7)] + [(8, r) for r in range(4)]:
        want = weakly_decreasing(max_size if max_rows is None else max_rows, max_size)
        got = [p.parts for p in all_partitions(max_size, max_rows=max_rows)]
        assert got == [p for total in range(max_size + 1) for p in sorted(want.get(total, []), reverse=True)]


def test_all_partitions_rejects_negative_bounds():
    with pytest.raises(ValueError):
        all_partitions(-1)
    with pytest.raises(ValueError):
        all_partitions(3, max_rows=-1)
    assert all_partitions(3, max_rows=0) == [Partition()]


def test_enumerate_box_is_the_sorted_box():
    for u in range(1, 5):
        for v in range(1, 5):
            want = weakly_decreasing(u, v)
            assert [p.parts for p in enumerate_box(u, v)] == sorted(p for ps in want.values() for p in ps)
