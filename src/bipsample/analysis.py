"""Structural detectors on the fixed set (matchings, exact-length cycles,
forests) and the chain recommendation cascade."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .core import FixedSet, MoveSet, NoUsableBound


@dataclass(frozen=True)
class FGraph:
    """The fixed cells viewed as a bipartite graph, polarity ignored."""

    n: int
    n_cols: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_cells(cls, n: int, n_cols: int, cells: Iterable[tuple[int, int]]) -> "FGraph":
        return cls(n, n_cols, frozenset((i, j) for i, j in cells))

    def row_adj(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {}
        for i, j in sorted(self.edges):
            adj.setdefault(i, []).append(j)
        return adj

    def col_adj(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {}
        for i, j in sorted(self.edges):
            adj.setdefault(j, []).append(i)
        return adj

    @cached_property
    def _block_list(self) -> tuple["FGraph", ...]:
        """The biconnected blocks, built on first use and then kept, so the
        detectors of one ``analyze`` split F once."""
        return tuple(_blocks(self))


@dataclass(frozen=True)
class AnalysisReport:
    """What the fixed set looks like and which chain that licenses."""

    has_3_matching: bool
    has_8_cycle: bool
    is_forest: bool
    min_excluded_ell: int | None
    recommended: MoveSet


def max_matching_at_least(f: FGraph, k: int) -> bool:
    """True iff the fixed-cell graph has a matching of size >= k.

    Augmenting-path search with an early exit once k edges are matched.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    row_adj = f.row_adj()
    match_col: dict[int, int] = {}
    matched = 0

    def augment(i: int, seen: set[int]) -> bool:
        for j in row_adj.get(i, ()):
            if j in seen:
                continue
            seen.add(j)
            if j not in match_col or augment(match_col[j], seen):
                match_col[j] = i
                return True
        return False

    for i in sorted(row_adj):
        if augment(i, set()):
            matched += 1
            if matched >= k:
                return True
    return False


def _blocks(f: FGraph) -> list[FGraph]:
    """The biconnected blocks of the fixed-cell graph, one FGraph each.

    Iterative Hopcroft-Tarjan: a DFS keeps a stack of the edges it has
    walked; when a child's low point does not reach above its parent, the
    edges walked since the tree edge into that child, that edge included,
    form one block.  Row i is vertex 2i and column j is vertex 2j+1.
    Every edge lies in exactly one block, and a bridge is a block of its
    own.
    """
    adj: dict[int, list[int]] = {}
    for i, j in sorted(f.edges):
        adj.setdefault(2 * i, []).append(2 * j + 1)
        adj.setdefault(2 * j + 1, []).append(2 * i)
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    walked: list[tuple[int, int]] = []
    blocks: list[FGraph] = []
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, neighbours = stack[-1]
            for w in neighbours:
                if w == parent:
                    continue
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    walked.append((v, w))
                    stack.append((w, v, iter(adj[w])))
                    break
                if disc[w] < disc[v]:  # back edge to an ancestor
                    walked.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if parent < 0:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    cells = []
                    while True:
                        x, y = walked.pop()
                        cells.append((x // 2, y // 2) if x % 2 == 0 else (y // 2, x // 2))
                        if (x, y) == (parent, v):
                            break
                    blocks.append(FGraph.from_cells(f.n, f.n_cols, cells))
    return blocks


def _block_has_cycle(f: FGraph, length: int) -> bool:
    """Exact-length cycle search by DFS, exponential in ``length``."""
    row_adj = f.row_adj()
    col_adj = f.col_adj()

    # DFS over alternating row/col vertices, canonical start: the cycle's
    # smallest row vertex, so each cycle is generated once.
    def extend(start_row: int, vertex: int, on_row: bool, rows_used: set, cols_used: set, depth: int) -> bool:
        if depth == length:
            return start_row in (col_adj.get(vertex, ()) if not on_row else ())
        if on_row:
            for j in row_adj.get(vertex, ()):
                if j not in cols_used:
                    cols_used.add(j)
                    if extend(start_row, j, False, rows_used, cols_used, depth + 1):
                        return True
                    cols_used.discard(j)
        else:
            for i in col_adj.get(vertex, ()):
                if i > start_row and i not in rows_used:
                    rows_used.add(i)
                    if extend(start_row, i, True, rows_used, cols_used, depth + 1):
                        return True
                    rows_used.discard(i)
        return False

    for start in sorted(row_adj):
        if extend(start, start, True, {start}, set(), 1):
            return True
    return False


def has_cycle_of_length(f: FGraph, length: int) -> bool:
    """True iff the fixed-cell graph contains a simple cycle on exactly
    ``length`` vertices (``length`` even).

    A simple cycle lies inside one biconnected block, and a cycle on
    ``length`` vertices alternates ``length/2`` rows with ``length/2``
    columns.  So the exponential search runs only on the blocks with at
    least that many rows and columns; when no block has them, the answer
    is no without any search.
    """
    if length % 2 or length < 4:
        raise ValueError("cycle length must be an even integer >= 4")
    half = length // 2
    for block in f._block_list:
        rows = {i for i, _ in block.edges}
        cols = {j for _, j in block.edges}
        if len(rows) >= half and len(cols) >= half and _block_has_cycle(block, length):
            return True
    return False


def is_forest(f: FGraph) -> bool:
    """True iff the fixed-cell graph is acyclic.

    A biconnected block of two or more edges holds a cycle and a single
    edge holds none, so F is a forest iff each of its blocks is a single
    edge (a bridge).
    """
    return all(len(block.edges) == 1 for block in f._block_list)


def analyze(f: FixedSet, n: int, n_cols: int) -> AnalysisReport:
    """Run the recommendation cascade on the fixed set.

    Matching test first (plain trades suffice), then the 8-cycle test
    (trades plus circle trades), then the smallest even cycle length
    missing from F, capped at 2*min(n, n_cols).  If every candidate length
    occurs, no bounded-swap chain is available and NoUsableBound is raised.

    F is split into its biconnected blocks once per call, and each cycle
    test searches only the blocks large enough to hold the cycle (see
    ``has_cycle_of_length``), so a length that no block can hold is ruled
    out in time linear in |F|.  The search inside
    a qualifying block is still exponential in the cycle length.
    """
    fg = FGraph.from_cells(n, n_cols, f.cells)
    has_3_matching = max_matching_at_least(fg, 3)
    has_8_cycle = has_cycle_of_length(fg, 8)
    forest = is_forest(fg)

    min_excluded_ell: int | None = None
    for ell in range(4, min(n, n_cols) + 1):
        present = has_8_cycle if ell == 4 else has_cycle_of_length(fg, 2 * ell)
        if not present:
            min_excluded_ell = ell
            break

    if not has_3_matching:
        recommended = MoveSet.trades()
    elif not has_8_cycle:
        recommended = MoveSet.trades_plus_circle()
    elif min_excluded_ell is not None:
        recommended = MoveSet.swaps_up_to(2 * min_excluded_ell - 2)
    else:
        raise NoUsableBound(
            "every even cycle length up to the grid bound occurs in the fixed set"
        )
    return AnalysisReport(
        has_3_matching=has_3_matching,
        has_8_cycle=has_8_cycle,
        is_forest=forest,
        min_excluded_ell=min_excluded_ell,
        recommended=recommended,
    )
