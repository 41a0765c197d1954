"""Gale-Ryser tests, initial realization construction and static cells."""

import functools
import itertools
import operator
import random

import pytest

import bipsample as bp
from bipsample.oracle import _cells_mask, _enumerate_bits, _static_set_reference
from bipsample.realizability import _gale_ryser


def test_gale_ryser_examples():
    assert bp.gale_ryser_realizable(bp.DegreeSequence((2, 2), (2, 2)))
    assert not bp.gale_ryser_realizable(bp.DegreeSequence((3, 1), (1, 1, 1)))
    # equal sums but a zero column starves the degree-3 row
    assert not bp.gale_ryser_realizable(bp.DegreeSequence((3, 1, 0), (2, 2, 0)))
    # realizable despite the zero column: rows stack on the first two columns
    assert bp.gale_ryser_realizable(bp.DegreeSequence((2, 2, 2), (3, 3, 0)))
    assert _exists_brute([2, 2, 2], [3, 3, 0])


def _exists_brute(a, b):
    n, nc = len(a), len(b)
    if sum(a) != sum(b):
        return False

    def rec(i, colrem):
        if i == n:
            return all(c == 0 for c in colrem)
        avail = [j for j in range(nc) if colrem[j] > 0]
        if len(avail) < a[i]:
            return False
        for sub in itertools.combinations(avail, a[i]):
            for j in sub:
                colrem[j] -= 1
            if rec(i + 1, colrem):
                for j in sub:
                    colrem[j] += 1
                return True
            for j in sub:
                colrem[j] += 1
        return False

    return rec(0, list(b))


def test_gale_ryser_agrees_with_brute_force_up_to_3x3():
    for n in range(1, 4):
        for nc in range(1, 4):
            for a in itertools.product(range(nc + 1), repeat=n):
                for b in itertools.product(range(n + 1), repeat=nc):
                    want = _exists_brute(list(a), list(b))
                    got = bp.gale_ryser_realizable(bp.DegreeSequence(a, b))
                    assert got == want, (a, b)


def test_gale_ryser_agrees_with_brute_force_up_to_5x5_sorted():
    # sorted sequences cover every instance up to row/column relabeling,
    # which changes neither side of the comparison; unequal sums are both
    # trivially unrealizable
    for n in range(1, 6):
        for nc in range(1, 6):
            for a in itertools.combinations_with_replacement(range(nc, -1, -1), n):
                sa = sum(a)
                for b in itertools.combinations_with_replacement(range(n, -1, -1), nc):
                    if sum(b) != sa:
                        continue
                    want = _exists_brute(list(a), list(b))
                    got = bp.gale_ryser_realizable(bp.DegreeSequence(a, b))
                    assert got == want, (a, b)


def test_gale_ryser_agrees_with_brute_force_sampled_5x5():
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(4, 5)
        nc = rng.randint(4, 5)
        a = [rng.randint(0, nc) for _ in range(n)]
        b = [rng.randint(0, n) for _ in range(nc)]
        if rng.random() < 0.6:
            # realizable more often: rebuild column sums from a random matrix
            matrix = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(n)]
            a = [sum(r) for r in matrix]
            b = [sum(matrix[i][j] for i in range(n)) for j in range(nc)]
        want = _exists_brute(a, b)
        assert bp.gale_ryser_realizable(bp.DegreeSequence(a, b)) == want


def test_gale_ryser_internal_handles_negatives():
    assert not _gale_ryser([-1, 1], [0, 0])


def _gale_ryser_reference(a, b):
    """The textbook form: sum(min(b_j, k)) recomputed for every k."""
    if any(d < 0 for d in a) or any(d < 0 for d in b):
        return False
    if sum(a) != sum(b):
        return False
    lhs = 0
    for k, ak in enumerate(sorted(a, reverse=True), start=1):
        lhs += ak
        if lhs > sum(min(bj, k) for bj in b):
            return False
    return True


def test_gale_ryser_running_sum_matches_reference():
    rng = random.Random(41)
    verdicts = set()
    for _ in range(4000):
        n = rng.randint(0, 7)
        nc = rng.randint(0, 7)
        # degrees from -1 up to past the other side's size
        a = [rng.randint(-1, nc + 2) for _ in range(n)]
        b = [rng.randint(-1, n + 2) for _ in range(nc)]
        if rng.random() < 0.7 and b:
            # equal sums most of the time, so the inequalities decide
            b[rng.randrange(nc)] += sum(a) - sum(b)
        want = _gale_ryser_reference(a, b)
        assert _gale_ryser(a, b) == want, (a, b)
        verdicts.add((want, sum(a) == sum(b), min(a + b, default=0) < 0))
    assert (True, True, False) in verdicts and (False, True, False) in verdicts
    assert (False, False, False) in verdicts and (False, True, True) in verdicts


def test_initial_realization_2x2_identity():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    assert bp.initial_realization(inst).matrix == ((1, 0), (0, 1))


def test_initial_realization_forced_antidiagonal():
    inst = bp.Instance(
        bp.DegreeSequence((1, 1, 1), (1, 1, 1)),
        bp.FixedSet.from_cells(3, 3, forced_edges=[(0, 2), (1, 1), (2, 0)]),
    )
    assert bp.initial_realization(inst).matrix == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_initial_realization_with_non_edge_matching():
    inst = bp.Instance(
        bp.DegreeSequence((1, 1, 1, 1), (2, 1, 1)),
        bp.FixedSet.from_cells(
            4, 3, forced_non_edges=[(0, 0), (1, 1), (2, 2)]
        ),
    )
    g = bp.initial_realization(inst)
    assert g in bp.enumerate_realizations(inst)


def test_initial_realization_deterministic():
    inst = bp.Instance.unconstrained((2, 2, 1), (2, 2, 1))
    assert bp.initial_realization(inst) == bp.initial_realization(inst)


def test_initial_realization_infeasible_cases():
    with pytest.raises(bp.Infeasible):
        bp.initial_realization(bp.Instance.unconstrained((3, 1), (1, 1, 1)))
    with pytest.raises(bp.Infeasible):
        bp.initial_realization(
            bp.Instance(
                bp.DegreeSequence((1, 1), (1, 1)),
                bp.FixedSet.from_cells(2, 2, forced_edges=[(0, 0), (0, 1)]),
            )
        )
    # degrees fine, but the mask blocks every completion
    with pytest.raises(bp.Infeasible):
        bp.initial_realization(
            bp.Instance(
                bp.DegreeSequence((1, 1), (1, 1)),
                bp.FixedSet.from_cells(2, 2, forced_non_edges=[(0, 0), (0, 1)]),
            )
        )


def test_static_set_full_row():
    ss = bp.static_set(bp.DegreeSequence((3,), (1, 1, 1)))
    assert ss.forced_edges == {(0, 0), (0, 1), (0, 2)}
    assert ss.forced_non_edges == set()


def test_static_set_zero_column():
    ss = bp.static_set(bp.DegreeSequence((1,), (1, 0)))
    assert ss.forced_edges == {(0, 0)}
    assert ss.forced_non_edges == {(0, 1)}


def test_static_set_2x2_unique_realization():
    # (2,1),(2,1) has the single realization [[1,1],[1,0]]: every cell is
    # static, three as edges and one as a non-edge.
    ss = bp.static_set(bp.DegreeSequence((2, 1), (2, 1)))
    assert ss.forced_edges == {(0, 0), (0, 1), (1, 0)}
    assert ss.forced_non_edges == {(1, 1)}


def test_static_set_requires_realizable():
    s = bp.DegreeSequence((3, 1), (1, 1, 1))
    with pytest.raises(bp.NotRealizable):
        bp.static_set(s)
    g = bp.initial_realization(bp.Instance.unconstrained((1, 1), (1, 1, 0)))
    with pytest.raises(bp.NotRealizable):
        bp.static_set(s, g)


def test_static_set_matches_enumeration_ground_truth():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        matrix = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(n)]
        a = [sum(r) for r in matrix]
        b = [sum(matrix[i][j] for i in range(n)) for j in range(nc)]
        ss = bp.static_set(bp.DegreeSequence(a, b))
        bits = _enumerate_bits(a, b)
        every = functools.reduce(operator.and_, bits)
        none = ~functools.reduce(operator.or_, bits) & ((1 << n * nc) - 1)
        assert _cells_mask(ss.forced_edges, n, nc) == every
        assert _cells_mask(ss.forced_non_edges, n, nc) == none


def _random_realizable(rng, max_rows, max_cols):
    """Margins of a random 0/1 matrix, often with an empty or a full row
    and column, and that matrix."""
    n = rng.randint(1, max_rows)
    nc = rng.randint(1, max_cols)
    p = rng.choice((0.0, 1.0, rng.random(), rng.random()))
    matrix = [[int(rng.random() < p) for _ in range(nc)] for _ in range(n)]
    if rng.random() < 0.5:
        matrix[rng.randrange(n)] = [rng.randint(0, 1)] * nc
    if rng.random() < 0.5:
        j, v = rng.randrange(nc), rng.randint(0, 1)
        for row in matrix:
            row[j] = v
    a = [sum(r) for r in matrix]
    b = [sum(c) for c in zip(*matrix)]
    return bp.DegreeSequence(a, b), matrix


def test_static_set_matches_gale_ryser_reference():
    rng = random.Random(2024)
    shapes = set()
    for _ in range(3000):
        s, matrix = _random_realizable(rng, 8, 8)
        want = _static_set_reference(s)
        g = bp.Realization(bp.Instance.unconstrained(s.row_degrees, s.col_degrees), matrix)
        assert bp.static_set(s) == want, s
        assert bp.static_set(s, g) == want, s
        degrees = s.row_degrees + s.col_degrees
        shapes.add((s.n == 1, s.n_cols == 1, 0 in degrees,
                    any(d == s.n_cols for d in s.row_degrees)))
    # 1xN and Nx1 grids, zero and full rows all occur
    assert (True, False, True, False) in shapes and (False, True, False, True) in shapes
    assert (False, False, True, True) in shapes


def test_static_set_same_from_every_realization():
    rng = random.Random(31)
    several = partial = 0
    for _ in range(200):
        n, nc = rng.randint(3, 5), rng.randint(3, 5)
        matrix = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(n)]
        inst = bp.Instance.unconstrained(
            [sum(r) for r in matrix], [sum(c) for c in zip(*matrix)]
        )
        want = bp.static_set(inst.degrees)
        states = bp.enumerate_realizations(inst)
        for g in states:
            assert bp.static_set(inst.degrees, g) == want, g.matrix
        several += len(states) > 1
        partial += 0 < want.size() < n * nc
    assert several >= 150 and partial >= 100


def test_static_set_rejects_realization_of_other_margins():
    s = bp.DegreeSequence((2, 1), (2, 1))
    other = bp.initial_realization(bp.Instance.unconstrained((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        bp.static_set(s, other)
    wider = bp.initial_realization(bp.Instance.unconstrained((2, 1), (1, 1, 1)))
    with pytest.raises(ValueError):
        bp.static_set(s, wider)
    # the margins are read from the matrix, not from the instance it claims
    unchecked = bp.Realization(bp.Instance.unconstrained((2, 1), (2, 1)),
                               [[1, 0], [0, 1]], validate=False)
    with pytest.raises(ValueError):
        bp.static_set(s, unchecked)


def test_swappable_cells_are_never_static():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    ss = bp.static_set(inst.degrees)
    # every cell sits on the single 4-swap of this instance
    assert ss.forced_edges == set() and ss.forced_non_edges == set()


def test_partition_fixed_set_empty_mask():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    f, redundant = bp.partition_fixed_set(inst, bp.static_set(inst.degrees))
    assert not f.cells and redundant == frozenset()


def test_partition_fixed_set_fully_redundant():
    inst = bp.Instance(
        bp.DegreeSequence((2, 1), (2, 1)),
        bp.FixedSet.from_cells(2, 2, forced_edges=[(0, 0)], forced_non_edges=[(1, 1)]),
    )
    f, redundant = bp.partition_fixed_set(inst, bp.static_set(inst.degrees))
    assert not f.cells
    assert redundant == {(0, 0), (1, 1)}


def test_partition_fixed_set_polarity_conflict():
    inst = bp.Instance(
        bp.DegreeSequence((2, 1), (2, 1)),
        bp.FixedSet.from_cells(2, 2, forced_edges=[(1, 1)]),
    )
    with pytest.raises(bp.PolarityConflict):
        bp.partition_fixed_set(inst, bp.static_set(inst.degrees))


def test_partition_keeps_realization_set():
    # instances keep exactly the same realizations after dropping the
    # redundant cells
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 4)
        nc = rng.randint(2, 4)
        matrix = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(n)]
        a = [sum(r) for r in matrix]
        b = [sum(matrix[i][j] for i in range(n)) for j in range(nc)]
        cells = [(i, j) for i in range(n) for j in range(nc)]
        support = rng.sample(cells, rng.randint(0, min(5, len(cells))))
        fe = [c for c in support if matrix[c[0]][c[1]]]
        fn = [c for c in support if not matrix[c[0]][c[1]]]
        inst = bp.Instance(
            bp.DegreeSequence(a, b),
            bp.FixedSet.from_cells(n, nc, forced_edges=fe, forced_non_edges=fn),
        )
        reduced, _ = bp.partition_fixed_set(inst, bp.static_set(inst.degrees))
        reduced_inst = bp.Instance(inst.degrees, reduced)
        got = [g.matrix for g in bp.enumerate_realizations(reduced_inst)]
        want = [g.matrix for g in bp.enumerate_realizations(inst)]
        assert got == want
