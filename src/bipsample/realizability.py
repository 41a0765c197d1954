"""Feasibility of degree sequences and instances: Gale-Ryser tests, a
deterministic max-flow construction of one realization, and the static
edge/non-edge set of a sequence."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FORCED_EDGE,
    FORCED_NON_EDGE,
    FREE,
    DegreeSequence,
    FixedSet,
    Infeasible,
    Instance,
    NotRealizable,
    PolarityConflict,
    Realization,
)


@dataclass(frozen=True)
class StaticSet:
    """Cells whose value is the same in every realization of a sequence."""

    forced_edges: frozenset[tuple[int, int]]
    forced_non_edges: frozenset[tuple[int, int]]

    def size(self) -> int:
        return len(self.forced_edges) + len(self.forced_non_edges)


def _gale_ryser(a: list[int], b: list[int]) -> bool:
    """Gale-Ryser test on raw degree lists; negatives fail immediately.

    The right-hand side sum(min(b_j, k) for j) equals the number of columns
    with degree >= 1, plus those with degree >= 2, ..., up to >= k, so it
    is kept as a running sum over those counts.  k never exceeds len(a),
    so column degrees are capped there.
    """
    if any(d < 0 for d in a) or any(d < 0 for d in b):
        return False
    if sum(a) != sum(b):
        return False
    n = len(a)
    at_least = [0] * (n + 1)
    for bj in b:
        at_least[min(bj, n)] += 1
    for k in range(n - 1, 0, -1):
        at_least[k] += at_least[k + 1]
    lhs = rhs = 0
    for k, ak in enumerate(sorted(a, reverse=True), start=1):
        lhs += ak
        rhs += at_least[k]
        if lhs > rhs:
            return False
    return True


def gale_ryser_realizable(s: DegreeSequence) -> bool:
    """True iff a 0/1 matrix with margins ``s`` exists."""
    return _gale_ryser(list(s.row_degrees), list(s.col_degrees))


class _Dinic:
    """Deterministic max-flow on a small network (adjacency in insertion order)."""

    def __init__(self, n_nodes: int):
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        n = len(self.adj)
        while True:
            level = [-1] * n
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in self.adj[u]:
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.adj[u]):
                    e = self.adj[u][it[u]]
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[e]))
                        if got:
                            self.cap[e] -= got
                            self.cap[e ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 30)
                if not pushed:
                    break
                flow += pushed


def initial_realization(inst: Instance) -> Realization:
    """Build one realization of ``inst`` deterministically, or raise Infeasible.

    Forced edges are pre-placed and margins decremented; forced non-edges
    are deleted; the remaining margins are met by a unit-capacity max-flow
    over the free cells (source -> rows -> columns -> sink).
    """
    n, nc = inst.n, inst.n_cols
    a = list(inst.degrees.row_degrees)
    b = list(inst.degrees.col_degrees)
    if sum(a) != sum(b):
        raise Infeasible("row and column degree sums differ")

    mask = inst.fixed.mask
    for i in range(n):
        for j in range(nc):
            if mask[i][j] == FORCED_EDGE:
                a[i] -= 1
                b[j] -= 1
    if any(d < 0 for d in a):
        raise Infeasible("a row has more forced edges than its degree")
    if any(d < 0 for d in b):
        raise Infeasible("a column has more forced edges than its degree")

    # Nodes: 0 = source, 1..n = rows, n+1..n+nc = columns, last = sink.
    src, snk = 0, n + nc + 1
    net = _Dinic(n + nc + 2)
    for i in range(n):
        net.add_edge(src, 1 + i, a[i])
    cell_edge: dict[tuple[int, int], int] = {}
    for i in range(n):
        for j in range(nc):
            if mask[i][j] == FREE:
                cell_edge[(i, j)] = len(net.to)
                net.add_edge(1 + i, 1 + n + j, 1)
    for j in range(nc):
        net.add_edge(1 + n + j, snk, b[j])

    need = sum(a)
    if net.max_flow(src, snk) != need:
        raise Infeasible("no realization satisfies the fixed cells and degrees")

    matrix = [[0] * nc for _ in range(n)]
    for i in range(n):
        for j in range(nc):
            if mask[i][j] == FORCED_EDGE:
                matrix[i][j] = 1
    for (i, j), e in cell_edge.items():
        if net.cap[e] == 0:  # saturated unit edge carries flow
            matrix[i][j] = 1
    return Realization(inst, matrix)


def static_set(s: DegreeSequence) -> StaticSet:
    """Cells equal in every realization of ``s``, by per-cell Gale-Ryser tests.

    Cell (i, j) is a forced non-edge iff decrementing a_i and b_j kills
    realizability (no realization carries an edge there); it is a forced
    edge iff the same test on the complement degrees fails (no realization
    of the complement carries an edge there, so every realization of ``s``
    does).
    """
    if not gale_ryser_realizable(s):
        raise NotRealizable("degree sequence has no realization")
    return _static_set_with_skips(s, skip=frozenset())


def _static_set_with_skips(s: DegreeSequence, skip) -> StaticSet:
    n, nc = s.n, s.n_cols
    a, b = list(s.row_degrees), list(s.col_degrees)
    a_op = [nc - d for d in a]
    b_op = [n - d for d in b]
    edges = set()
    non_edges = set()
    for i in range(n):
        for j in range(nc):
            if (i, j) in skip:
                continue
            a[i] -= 1
            b[j] -= 1
            if not _gale_ryser(a, b):
                non_edges.add((i, j))
            a[i] += 1
            b[j] += 1
            a_op[i] -= 1
            b_op[j] -= 1
            if not _gale_ryser(a_op, b_op):
                edges.add((i, j))
            a_op[i] += 1
            b_op[j] += 1
    assert not (edges & non_edges), "a cell cannot be forced both ways"
    return StaticSet(frozenset(edges), frozenset(non_edges))


def static_set_pruned(s: DegreeSequence, g: Realization) -> StaticSet:
    """Same result as ``static_set`` but skips every cell on a 2x2 checkerboard
    of ``g``: those cells flip under the corresponding swap, so they cannot
    be static."""
    if not gale_ryser_realizable(s):
        raise NotRealizable("degree sequence has no realization")
    if g.instance.degrees != s:
        raise ValueError("realization does not match the degree sequence")
    m = g.matrix
    n, nc = s.n, s.n_cols
    skip: set[tuple[int, int]] = set()
    for i1 in range(n):
        for i2 in range(i1 + 1, n):
            for j1 in range(nc):
                for j2 in range(j1 + 1, nc):
                    quad = (m[i1][j1], m[i1][j2], m[i2][j1], m[i2][j2])
                    if quad == (1, 0, 0, 1) or quad == (0, 1, 1, 0):
                        skip.update({(i1, j1), (i1, j2), (i2, j1), (i2, j2)})
    return _static_set_with_skips(s, skip=frozenset(skip))


def partition_fixed_set(
    inst: Instance, f_prime: StaticSet
) -> tuple[FixedSet, frozenset[tuple[int, int]]]:
    """Split the instance's fixed cells into the redundant part (already
    static for the sequence) and the working part the chains must respect.

    Raises PolarityConflict when a fixed cell contradicts the static set:
    such an instance has no realization.
    """
    n, nc = inst.n, inst.n_cols
    mask = [list(row) for row in inst.fixed.mask]
    redundant = set()
    for i in range(n):
        for j in range(nc):
            v = mask[i][j]
            if v == FREE:
                continue
            if v == FORCED_EDGE and (i, j) in f_prime.forced_non_edges:
                raise PolarityConflict(
                    f"cell ({i}, {j}) is forced as an edge but is a non-edge "
                    "in every realization of the sequence"
                )
            if v == FORCED_NON_EDGE and (i, j) in f_prime.forced_edges:
                raise PolarityConflict(
                    f"cell ({i}, {j}) is forced as a non-edge but is an edge "
                    "in every realization of the sequence"
                )
            if (v == FORCED_EDGE and (i, j) in f_prime.forced_edges) or (
                v == FORCED_NON_EDGE and (i, j) in f_prime.forced_non_edges
            ):
                redundant.add((i, j))
                mask[i][j] = FREE
    return FixedSet(mask), frozenset(redundant)
