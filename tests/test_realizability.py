"""Gale-Ryser tests, initial realization construction and static cells."""

import functools
import itertools
import operator
import random
from collections import Counter
from pathlib import Path

import pytest

import bipsample as bp
from bipsample.oracle import _cells_mask, _enumerate_bits, _static_set_reference
from bipsample.realizability import _gale_ryser
from streams import GOLDEN_START, start_digest

ROOT = Path(__file__).resolve().parents[1]


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


class _DinicReference:
    """The adjacency-list Dinic that ``initial_realization`` ran before it
    moved onto bit masks, kept as the reference its replay is checked
    against: arcs in insertion order, an explicit stack of arcs per
    blocking-flow search."""

    def __init__(self, n_nodes):
        self.adj = [[] for _ in range(n_nodes)]
        self.to = []
        self.cap = []

    def add_edge(self, u, v, cap):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s, t):
        adj, to, cap = self.adj, self.to, self.cap
        flow = 0
        n = len(adj)
        while True:
            level = [-1] * n
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in adj[u]:
                    v = to[e]
                    if cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * n
            path = []
            u = s
            while True:
                if u == t:
                    pushed = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= pushed
                        cap[e ^ 1] += pushed
                    flow += pushed
                    path.clear()
                    u = s
                    continue
                arcs = adj[u]
                while it[u] < len(arcs):
                    e = arcs[it[u]]
                    if cap[e] > 0 and level[to[e]] == level[u] + 1:
                        break
                    it[u] += 1
                else:
                    if not path:
                        break
                    u = to[path.pop() ^ 1]
                    it[u] += 1
                    continue
                path.append(e)
                u = to[e]


def _initial_realization_reference(inst):
    """``initial_realization`` as it was on ``_DinicReference``: the
    matrix, or the ``Infeasible`` it raised."""
    n, nc = inst.n, inst.n_cols
    a = list(inst.degrees.row_degrees)
    b = list(inst.degrees.col_degrees)
    if sum(a) != sum(b):
        raise bp.Infeasible("row and column degree sums differ")
    mask = inst.fixed.mask
    for i in range(n):
        for j in range(nc):
            if mask[i][j] == bp.FORCED_EDGE:
                a[i] -= 1
                b[j] -= 1
    if any(d < 0 for d in a):
        raise bp.Infeasible("a row has more forced edges than its degree")
    if any(d < 0 for d in b):
        raise bp.Infeasible("a column has more forced edges than its degree")
    src, snk = 0, n + nc + 1
    net = _DinicReference(n + nc + 2)
    for i in range(n):
        net.add_edge(src, 1 + i, a[i])
    cell_edge = {}
    for i in range(n):
        for j in range(nc):
            if mask[i][j] == bp.FREE:
                cell_edge[(i, j)] = len(net.to)
                net.add_edge(1 + i, 1 + n + j, 1)
    for j in range(nc):
        net.add_edge(1 + n + j, snk, b[j])
    if net.max_flow(src, snk) != sum(a):
        if not bp.gale_ryser_realizable(inst.degrees):
            raise bp.Infeasible("degree sequence has no realization")
        raise bp.Infeasible("no realization satisfies the fixed cells and degrees")
    matrix = [[int(v == bp.FORCED_EDGE) for v in row] for row in mask]
    for (i, j), e in cell_edge.items():
        if net.cap[e] == 0:
            matrix[i][j] = 1
    return tuple(map(tuple, matrix))


def _start_outcome(build, inst):
    """The start matrix ``build`` gives for ``inst``, or its Infeasible
    message."""
    try:
        got = build(inst)
    except bp.Infeasible as exc:
        return "infeasible", str(exc)
    return got if isinstance(got, tuple) else got.matrix


def _random_flow_instance(rng):
    """A 1x1 to 14x14 instance: the margins of a random matrix, sometimes
    nudged off, with random pins (a few of them wrong), some rows pinned
    in every cell, and zero-degree rows and columns."""
    n, nc = rng.randint(1, 14), rng.randint(1, 14)
    density = rng.choice((0.0, 0.1, 0.3, 0.5, 0.7, 1.0, rng.random()))
    matrix = [[int(rng.random() < density) for _ in range(nc)] for _ in range(n)]
    for i in rng.sample(range(n), rng.randint(0, n // 3)):
        matrix[i] = [0] * nc
    for j in rng.sample(range(nc), rng.randint(0, nc // 3)):
        for row in matrix:
            row[j] = 0
    a = [sum(row) for row in matrix]
    b = [sum(col) for col in zip(*matrix)]
    if rng.random() < 0.3:
        i, j = rng.randrange(n), rng.randrange(nc)
        a[i] = max(0, a[i] + rng.choice((-1, 1)))
        b[j] = max(0, b[j] + rng.choice((-1, 1)))
    pin = rng.choice((0.0, 0.1, 0.3, 0.6))
    wrong = rng.choice((0.0, 0.0, 0.05, 0.2))
    mask = []
    for row in matrix:
        every = rng.random() < 0.1
        cells = []
        for v in row:
            if every or rng.random() < pin:
                v ^= rng.random() < wrong
                cells.append(bp.FORCED_EDGE if v else bp.FORCED_NON_EDGE)
            else:
                cells.append(bp.FREE)
        mask.append(cells)
    return bp.Instance(bp.DegreeSequence(a, b), bp.FixedSet(mask))


def test_initial_realization_replays_the_adjacency_list_dinic():
    # the same start matrix, or the same Infeasible message, as the
    # adjacency-list Dinic on every committed instance and 2,400 random ones
    from bipsample import cli

    committed = sorted((ROOT / "bench" / "instances").glob("*.txt"))
    cases = [(p.name, cli.parse_instance(p.read_text())) for p in committed]
    rng = random.Random(19)
    cases += [(f"random {t}", _random_flow_instance(rng)) for t in range(2400)]
    seen = Counter()
    for name, inst in cases:
        want = _start_outcome(_initial_realization_reference, inst)
        assert _start_outcome(bp.initial_realization, inst) == want, name
        seen[want[1] if want[0] == "infeasible" else "feasible"] += 1
        seen["zero degree"] += 0 in inst.degrees.row_degrees + inst.degrees.col_degrees
        seen["pinned row"] += any(all(row) for row in inst.fixed.mask)
    assert len(committed) == 104
    assert seen["feasible"] > 800 and seen["zero degree"] > 500
    assert seen["pinned row"] > 200
    assert len(seen) == 8, seen  # and each of the five Infeasible messages


def test_start_realizations_are_pinned():
    assert start_digest() == GOLDEN_START


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
    rng, pins = random.Random(2024), random.Random(5)
    shapes = set()
    for _ in range(3000):
        s, matrix = _random_realizable(rng, 8, 8)
        want = _static_set_reference(s)
        g = bp.Realization(bp.Instance.unconstrained(s.row_degrees, s.col_degrees), matrix)
        assert bp.static_set(s) == want, s
        assert bp.static_set(s, g) == want, s
        # the static set is the sequence's, whatever cells g's instance pins
        mask = [[pins.choice((bp.FREE, 2 - v)) for v in row] for row in matrix]
        pinned = bp.Realization(bp.Instance(s, bp.FixedSet(mask)), matrix)
        assert bp.static_set(s, pinned) == want, s
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


def _partition_reference(inst, f_prime):
    """``partition_fixed_set`` cell by cell in row-major order, as it was
    written before it read the fixed cells alone."""
    mask = [list(row) for row in inst.fixed.mask]
    redundant = set()
    for i, row in enumerate(mask):
        for j, v in enumerate(row):
            if v == bp.FORCED_EDGE and (i, j) in f_prime.forced_non_edges:
                raise bp.PolarityConflict(
                    f"cell ({i}, {j}) is forced as an edge but is a non-edge "
                    "in every realization of the sequence")
            if v == bp.FORCED_NON_EDGE and (i, j) in f_prime.forced_edges:
                raise bp.PolarityConflict(
                    f"cell ({i}, {j}) is forced as a non-edge but is an edge "
                    "in every realization of the sequence")
            if (v == bp.FORCED_EDGE and (i, j) in f_prime.forced_edges) or (
                    v == bp.FORCED_NON_EDGE and (i, j) in f_prime.forced_non_edges):
                redundant.add((i, j))
                mask[i][j] = bp.FREE
    return bp.FixedSet(mask), frozenset(redundant)


def test_partition_matches_the_cell_by_cell_reference():
    # the same working set and redundant cells, or the same first conflict
    rng = random.Random(23)
    seen = set()
    for _ in range(1500):
        n, nc = rng.randint(1, 6), rng.randint(1, 6)
        matrix = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(n)]
        seq = bp.DegreeSequence(map(sum, matrix), map(sum, zip(*matrix)))
        mask = [[rng.choice((0, 0, 1, 2)) for _ in range(nc)] for _ in range(n)]
        inst = bp.Instance(seq, bp.FixedSet(mask))
        f_prime = bp.static_set(seq)
        outcomes = []
        for partition in (bp.partition_fixed_set, _partition_reference):
            try:
                outcomes.append(partition(inst, f_prime))
            except bp.PolarityConflict as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], (matrix, mask)
        if isinstance(outcomes[0], str):  # the conflicting cell's forced kind
            seen.add(outcomes[0].split(" but")[0].rsplit(" ", 1)[1])
        else:
            seen.add("ok")
    assert seen == {"ok", "edge", "non-edge"}


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
