import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from detlab import cli, partitions, schurcalc
from detlab.partitions import Partition, all_partitions, conjugate, weyl_dim
from detlab.schurcalc import (
    SchurSum,
    cauchy_expand,
    exterior_expand,
    lr_coefficients,
    schur_character,
    semistandard_tableaux,
    tensor_weights,
)


def parts_map(coeffs):
    return {g.parts: c for g, c in coeffs.items()}


def test_lr_examples():
    assert parts_map(lr_coefficients((1,), (1,))) == {(2,): 1, (1, 1): 1}
    assert parts_map(lr_coefficients((2, 1), (1,))) == {
        (3, 1): 1,
        (2, 2): 1,
        (2, 1, 1): 1,
    }
    assert parts_map(lr_coefficients((), (3, 2))) == {(3, 2): 1}


def test_lr_classic_value():
    # s_21 * s_21: the (3,2,1) coefficient is 2
    out = parts_map(lr_coefficients((2, 1), (2, 1)))
    assert out[(3, 2, 1)] == 2
    assert out[(4, 2)] == 1
    assert sum(c for c in out.values()) == 8


def test_lr_degree_additivity():
    for a in all_partitions(4):
        for b in all_partitions(4):
            for g, c in lr_coefficients(a, b).items():
                assert c > 0
                assert g.size == a.size + b.size


def test_lr_symmetry():
    shapes = all_partitions(4)
    for a in shapes:
        for b in shapes:
            if a.size + b.size > 8:
                continue
            assert lr_coefficients(a, b) == lr_coefficients(b, a)


def test_character_consistency():
    """LR multiplicities against the independent tableau oracle."""
    shapes = all_partitions(6)
    for nvars in (2, 3):
        for a in shapes:
            for b in shapes:
                if a.size + b.size > 6 or a.size + b.size == 0:
                    continue
                lhs = schur_character(a, nvars) * schur_character(b, nvars)
                rhs = None
                for g, c in lr_coefficients(a, b).items():
                    t = schur_character(g, nvars).scaled(c)
                    rhs = t if rhs is None else rhs + t
                assert lhs == rhs, (a.parts, b.parts, nvars)


def test_exterior_expand_examples():
    assert exterior_expand((2, 1), 3).terms == {(2, 1, 0): 1, (1, 1, 1): 1}
    assert exterior_expand((2, 1), 2).terms == {(2, 1): 1}
    assert exterior_expand((1,), 1).terms == {(1,): 1}
    assert exterior_expand((2, 2), 2).terms == {(2, 2): 1}


def test_exterior_expand_rejects_tall_shapes():
    with pytest.raises(ValueError):
        exterior_expand((1, 1, 1), 2)


def test_exterior_expand_leading_multiplicity_one():
    for l in (2, 3):
        for p in all_partitions(6, max_rows=l):
            s = exterior_expand(p, l)
            assert s.terms[p.padded(l)] == 1


def test_exterior_expand_dimension():
    for l in (1, 2, 3):
        for p in all_partitions(6, max_rows=l):
            s = exterior_expand(p, l)
            expected = math.prod(math.comb(l, c) for c in conjugate(p).parts)
            assert s.dimension() == expected


def test_exterior_expand_hands_out_a_fresh_copy():
    want = {(2, 1, 0): 1, (1, 1, 1): 1}
    poisoned = exterior_expand((2, 1, 0), 3)
    poisoned.add((3, 0, 0), 4)
    poisoned.terms[(2, 1, 0)] = 9
    assert exterior_expand((2, 1), 3).terms == want
    table = schurcalc._exterior_table((2, 1), 3)
    assert isinstance(table, tuple) and dict(table) == want


def test_tensor_weights_examples():
    assert tensor_weights((0, 0), (2, 0), 2).terms == {(2, 0): 1}
    assert tensor_weights((-1, -1), (2, 0), 2).terms == {(1, -1): 1}
    assert tensor_weights((1, 0), (0, -1), 2).terms == {(1, -1): 1, (0, 0): 1}


def test_tensor_weights_reduces_to_lr():
    for l in (2, 3):
        shapes = [p for p in all_partitions(3, max_rows=l)]
        for a in shapes:
            for b in shapes:
                if a.size + b.size > 6:
                    continue
                got = tensor_weights(a.padded(l), b.padded(l), l).terms
                want = {}
                for g, c in lr_coefficients(a, b).items():
                    if len(g) <= l:
                        want[g.padded(l)] = c
                assert got == want


def test_tensor_weights_rejects_non_dominant():
    with pytest.raises(ValueError):
        tensor_weights((0, 1), (0, 0), 2)


def test_cauchy_examples():
    assert [g.parts for g, _ in cauchy_expand(0, 2, 2)] == [()]
    out = cauchy_expand(2, 2, 2)
    assert {g.parts: d for g, d in out} == {(2,): (3, 3), (1, 1): (1, 1)}
    assert sum(d1 * d2 for _, (d1, d2) in out) == math.comb(5, 2)
    assert [g.parts for g, _ in cauchy_expand(3, 1, 5)] == [(3,)]


def test_cauchy_dimension_identity():
    for t in range(6):
        for l1 in (1, 2, 3):
            for l2 in (1, 2, 3):
                total = sum(d1 * d2 for _, (d1, d2) in cauchy_expand(t, l1, l2))
                assert total == math.comb(l1 * l2 + t - 1, t)


def test_cauchy_expand_is_ascending_over_the_row_bound():
    for t in range(9):
        for l1 in (1, 2, 3):
            for l2 in (1, 2, 3):
                rows = min(l1, l2)
                want = sorted(
                    p
                    for k in range(rows + 1)
                    for p in itertools.product(range(t, 0, -1), repeat=k)
                    if sum(p) == t and all(a >= b for a, b in zip(p, p[1:]))
                )
                got = cauchy_expand(t, l1, l2)
                assert [g.parts for g, _ in got] == want
                assert all(d == (weyl_dim(g.padded(l1)), weyl_dim(g.padded(l2))) for g, d in got)


def test_lr_coefficients_come_in_decreasing_lex_order():
    shapes = all_partitions(8)
    for a in shapes:
        for b in shapes:
            if a.size + b.size > 8:
                continue
            out = lr_coefficients(a, b)
            keys = [g.parts for g in out]
            assert keys == sorted(keys, reverse=True)
            # every g contains a and b, and the dimensions over C^8 add up
            assert all(g.size == a.size + b.size for g in out)
            assert all(
                len(g) >= len(p) and all(x >= y for x, y in zip(g.parts, p.parts))
                for g in out for p in (a, b)
            )
            assert sum(c * weyl_dim(g.padded(8)) for g, c in out.items()) == (
                weyl_dim(a.padded(8)) * weyl_dim(b.padded(8))
            )


def test_schur_character_examples():
    assert schur_character((1,), 2).terms == {(1, 0): 1, (0, 1): 1}
    assert schur_character((2, 1), 2).terms == {(2, 1): 1, (1, 2): 1}
    assert schur_character((1, 1, 1), 2).terms == {}


def test_schur_character_hands_out_a_fresh_copy():
    expected = {}
    for tab in semistandard_tableaux((2, 1), 3):
        expo = tuple(sum(row.count(v) for row in tab) for v in (1, 2, 3))
        expected[expo] = expected.get(expo, 0) + 1
    poisoned = schur_character((2, 1, 0), 3)
    poisoned.terms[2, 1, 0] += 5
    poisoned.terms[7, 0, 0] = 1
    assert schur_character((2, 1), 3).terms == expected


def test_character_table_is_immutable_and_shared_by_trailing_zeros():
    table = schurcalc._character_table((2, 1), 3)
    assert isinstance(table, tuple)
    assert all(isinstance(pair, tuple) and isinstance(pair[0], tuple) for pair in table)
    schur_character((2, 1, 0), 3)
    assert schurcalc._character_table((2, 1), 3) is table


def test_cold_and_warm_reports_are_byte_identical(capsys):
    commands = [
        ["check-tilt-grass", "--l", "2", "--m", "5", "--json"],
        ["check-tilt-springer", "--l", "2", "--m", "3", "--n", "4", "--tmax", "3", "--json"],
        ["check-fm", "--l", "2", "--m", "4", "--n", "5", "--tmax", "2", "--json"],
    ]
    tables = [schurcalc._character_table, schurcalc._exterior_table, partitions._weyl_dim]
    filled = set()
    for argv in commands:
        for table in tables:
            table.cache_clear()
        assert cli.main(argv) == 0
        cold = capsys.readouterr().out
        filled |= {i for i, table in enumerate(tables) if table.cache_info().currsize}
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == cold
    # each per-process table is filled by at least one command
    assert filled == set(range(len(tables)))


def test_character_symmetry():
    c = schur_character((3, 1), 3)
    for e, v in c.terms.items():
        assert c.terms[tuple(sorted(e))] == v


def test_schur_sum_drops_and_validates():
    s = SchurSum(2)
    s.add((1, 1), 2)
    s.add((1, 1), -2)
    assert s.terms == {}
    with pytest.raises(ValueError):
        s.add((0, 1), 1)
    with pytest.raises(ValueError):
        s.add((1, 0, 0), 1)


def test_schur_sum_dual():
    s = exterior_expand((2, 1), 3)
    assert s.dual().terms == {(0, -1, -2): 1, (-1, -1, -1): 1}
    assert s.dual().dual() == s
    assert s.dual().dimension() == s.dimension()


# ---------------------------------------------------------------------------
# Brauer-Klimyk against Littlewood-Richardson


def lr_shift_and_filter(x, y, l: int) -> dict:
    """Reference decomposition of L_x x L_y for GL(l): shift both weights to
    partitions, expand by Littlewood-Richardson, drop shapes with more than
    l rows and shift back."""
    cx, cy = max(0, -x[-1]), max(0, -y[-1])
    a = Partition(tuple(v + cx for v in x))
    b = Partition(tuple(v + cy for v in y))
    return {
        tuple(v - cx - cy for v in g.padded(l)): c
        for g, c in lr_coefficients(a, b).items()
        if len(g) <= l
    }


@st.composite
def gl_weights(draw, l: int):
    """A dominant GL(l) weight with entries in -2..2."""
    return tuple(sorted(draw(st.lists(st.integers(-2, 2), min_size=l, max_size=l)), reverse=True))


@st.composite
def weight_pairs(draw):
    l = draw(st.integers(1, 4))
    return l, draw(gl_weights(l)), draw(gl_weights(l))


@st.composite
def sum_pairs(draw):
    l = draw(st.integers(1, 4))
    sums = []
    for _ in range(2):
        s = SchurSum(l)
        for w in draw(st.lists(gl_weights(l), min_size=1, max_size=3, unique=True)):
            s.add(w, draw(st.integers(1, 3)))
        sums.append(s)
    return sums


@settings(deadline=None)
@given(weight_pairs())
def test_tensor_weights_matches_lr_reference(case):
    l, x, y = case
    assert tensor_weights(x, y, l).terms == lr_shift_and_filter(x, y, l)


@settings(deadline=None)
@given(sum_pairs())
def test_schur_sum_tensor_matches_lr_reference(sums):
    s, t = sums
    want = SchurSum(s.rank)
    for x, mx in s.terms.items():
        for y, my in t.terms.items():
            for z, mz in lr_shift_and_filter(x, y, s.rank).items():
                want.add(z, mx * my * mz)
    got = s.tensor(t)
    assert got == want
    assert got == t.tensor(s)
    assert got.dimension() == s.dimension() * t.dimension()


# ---------------------------------------------------------------------------
# The pairwise memoized tensor against the sum-level Brauer-Klimyk loop


def sum_level_brauer_klimyk(s: SchurSum, t: SchurSum) -> SchurSum:
    """Reference tensor product: merge the weights of the factor of smaller
    dimension, read from the tableau character of each term shifted by its
    last entry, and straighten each against every highest weight of the
    other factor."""
    small, big = (t, s) if t.dimension() <= s.dimension() else (s, t)
    weights: dict = {}
    for w, mult in small.terms.items():
        c = w[-1]
        for expo, k in schur_character(tuple(v - c for v in w), s.rank).terms.items():
            mu = tuple(e + c for e in expo)
            weights[mu] = weights.get(mu, 0) + mult * k
    rho = tuple(range(s.rank - 1, -1, -1))
    acc: dict = {}
    for x, mx in big.terms.items():
        for mu, mmu in weights.items():
            straight = partitions.straighten([a + b + r for a, b, r in zip(x, mu, rho)])
            if straight is None:
                continue
            inversions, v = straight
            z = tuple(a - r for a, r in zip(v, rho))
            acc[z] = acc.get(z, 0) + (-1) ** inversions * mx * mmu
    return SchurSum(s.rank, {z: c for z, c in acc.items() if c})


SHARED_MEMO: dict = {}


@settings(deadline=None)
@given(st.lists(sum_pairs(), min_size=1, max_size=3))
def test_schur_sum_tensor_matches_sum_level_oracle(pairs):
    """Fresh memo, one memo across the calls of one example (mixed ranks),
    and one memo across every example the test draws."""
    local: dict = {}
    for s, t in pairs:
        want = sum_level_brauer_klimyk(s, t)
        assert s.tensor(t) == want
        assert s.tensor(t, local) == want
        assert t.tensor(s, local) == want
        assert s.tensor(t, SHARED_MEMO) == want


def test_one_memo_across_ranks_matches_oracle_and_lr():
    """Box exterior powers of ranks 1-4 through one memo: equal to the
    sum-level loop, and on these partition sums to Littlewood-Richardson."""
    memo: dict = {}
    for l in (1, 2, 3, 4):
        sums = [exterior_expand(p, l) for p in all_partitions(3, max_rows=l)]
        for s in sums:
            for t in sums:
                got = s.tensor(t, memo)
                assert got == sum_level_brauer_klimyk(s, t)
                want = SchurSum(l)
                for x, mx in s.terms.items():
                    for y, my in t.terms.items():
                        for g, c in lr_coefficients(x, y).items():
                            if len(g) <= l:
                                want.add(g.padded(l), mx * my * c)
                assert got == want
    assert {len(x) for x, _ in memo} == {1, 2, 3, 4}


def test_poisoned_memo_entry_fails_the_dimension_check():
    s = SchurSum(2, {(1, 0): 2, (0, -1): 1})
    memo: dict = {}
    want = s.tensor(s, memo)
    key = ((1, 0), (1, 0))
    assert dict(memo[key]) == {(2, 0): 1, (1, 1): 1}
    memo[key] = (((2, 0), 1),)
    with pytest.raises(RuntimeError, match="dimension"):
        s.tensor(s, memo)
    del memo[key]
    assert s.tensor(s, memo) == want
