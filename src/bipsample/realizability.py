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
        """Dinic's algorithm.  Each phase builds BFS levels, then walks
        blocking-flow paths with an explicit stack of arcs: advance along
        the current arc of the path's end, retreat past a dead end (moving
        its tail's current-arc pointer on), and augment on reaching ``t``,
        then start again from ``s``."""
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
            path: list[int] = []
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


def initial_realization(inst: Instance) -> Realization:
    """Build one realization of ``inst`` deterministically, or raise Infeasible.

    Forced edges are pre-placed and margins decremented; forced non-edges
    are deleted; the remaining margins are met by a unit-capacity max-flow
    over the free cells (source -> rows -> columns -> sink).  When the flow
    falls short, the message tells a degree sequence with no realization
    (Gale-Ryser) from fixed cells that rule every realization out.
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
        if not gale_ryser_realizable(inst.degrees):
            raise Infeasible("degree sequence has no realization")
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


def static_set(s: DegreeSequence, g: Realization | None = None) -> StaticSet:
    """Cells equal in every realization of ``s``, from one realization.

    ``g`` is any realization whose margins are ``s`` (a ``ValueError`` if
    they are not); without it one is built by max-flow.  Orient every cell
    of ``g``: an edge (1) points from its row to its column, a non-edge (0)
    from its column to its row.  Two realizations differ by alternating
    cycles, which are exactly the directed cycles of this orientation, so
    a cell is static iff its row and its column lie in different strongly
    connected components (Ryser's interchange theorem; Brualdi 1980 on
    invariant positions).  One iterative Tarjan (1972) pass finds them:
    O(n*m) after the max-flow.
    """
    if not gale_ryser_realizable(s):
        raise NotRealizable("degree sequence has no realization")
    n = s.n
    if g is None:
        grid = initial_realization(
            Instance.unconstrained(s.row_degrees, s.col_degrees)
        ).matrix
    else:
        grid = g.matrix
        if (
            len(grid) != n
            or any(len(row) != s.n_cols for row in grid)
            or tuple(map(sum, grid)) != s.row_degrees
            or tuple(map(sum, zip(*grid))) != s.col_degrees
        ):
            raise ValueError("realization does not match the degree sequence")
    # Nodes: rows 0..n-1, then column j as node n + j.
    succ = [[n + j for j, v in enumerate(row) if v] for row in grid]
    succ += [[i for i, v in enumerate(col) if not v] for col in zip(*grid)]
    comp = _strong_components(succ)
    edges = []
    non_edges = []
    for i, row in enumerate(grid):
        ci = comp[i]
        for j, v in enumerate(row):
            if comp[n + j] != ci:
                (edges if v else non_edges).append((i, j))
    return StaticSet(frozenset(edges), frozenset(non_edges))


def _strong_components(succ: list[list[int]]) -> list[int]:
    """Strongly connected component id of every node: Tarjan's algorithm
    with an explicit stack of (node, successor iterator) frames."""
    index = [-1] * len(succ)
    low = [0] * len(succ)
    comp = [-1] * len(succ)
    stack: list[int] = []
    counter = n_comps = 0
    for root in range(len(succ)):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        frames = [(root, iter(succ[root]))]
        while frames:
            v, successors = frames[-1]
            for w in successors:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    frames.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:  # w is still on the stack
                    low[v] = index[w]
            else:
                frames.pop()
                if frames:
                    u = frames[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = n_comps
                        if w == v:
                            break
                    n_comps += 1
    return comp


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
