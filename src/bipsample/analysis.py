"""Structural detectors on the fixed set (matchings, exact-length cycles,
forests) and the chain recommendation cascade."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import count
from operator import or_
from typing import Iterable

from .core import FixedSet, MoveSet, NoUsableBound, _check_cell


@dataclass(frozen=True)
class FGraph:
    """The fixed cells viewed as a bipartite graph, polarity ignored: bit j
    of ``rows[i]`` is set when cell (i, j) is fixed, for ``n`` rows over
    ``n_cols`` columns."""

    n: int
    n_cols: int
    rows: tuple[int, ...]

    @classmethod
    def from_cells(cls, n: int, n_cols: int, cells: Iterable[tuple[int, int]]) -> "FGraph":
        rows = [0] * n
        for i, j in cells:
            _check_cell(i, j, n, n_cols)  # a negative index would wrap
            rows[i] |= 1 << j
        return cls(n, n_cols, tuple(rows))

    @cached_property
    def _neighbours(self) -> tuple[int, ...]:
        """Each vertex's neighbours as a mask, the column masks derived
        once: row i is vertex i and column j is vertex n + j."""
        n = self.n
        nbrs = [m << n for m in self.rows] + [0] * self.n_cols
        for i in range(n):
            m = nbrs[i]
            while m:
                low = m & -m
                nbrs[low.bit_length() - 1] |= 1 << i
                m ^= low
        return tuple(nbrs)

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

    Augmenting-path search with an early exit once k edges are matched, so
    it recurses at most k deep.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = f.rows
    match_col: dict[int, int] = {}  # a matched column's bit -> its row
    seen = 0  # the columns this augmenting search has reached

    def augment(i: int) -> bool:
        nonlocal seen
        cand = rows[i]
        while cand:
            bit = cand & -cand
            cand ^= bit
            if not seen & bit:
                seen |= bit
                if bit not in match_col or augment(match_col[bit]):
                    match_col[bit] = i
                    return True
        return False

    matched = 0
    for i in range(f.n):
        seen = 0
        matched += augment(i)
        if matched >= k:
            return True
    return False


def _blocks(f: FGraph) -> list[FGraph]:
    """The biconnected blocks of the fixed-cell graph, one FGraph each.

    Iterative Hopcroft-Tarjan on the masks: a DFS keeps a stack of the
    edges it has walked; when a child's low point does not reach above its
    parent, the edges walked since the tree edge into that child, that
    edge included, form one block.  Every edge lies in exactly one block,
    and a bridge is a block of its own.  A block is the FGraph of its own
    rows, renumbered in order, over the same columns, so the split costs
    O(n + n_cols + |F|) however many blocks F has.
    """
    n = f.n
    rest = list(f._neighbours)  # each vertex's neighbours not walked yet
    disc = [-1] * len(rest)
    low = [0] * len(rest)
    order = count()
    walked: list[tuple[int, int]] = []
    blocks: list[FGraph] = []
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = next(order)
        stack = [(root, -1)]
        while stack:
            v, parent = stack[-1]
            nbrs = rest[v]
            while nbrs:
                bit = nbrs & -nbrs
                nbrs ^= bit
                w = bit.bit_length() - 1
                if disc[w] < 0:
                    rest[v] = nbrs
                    disc[w] = low[w] = next(order)
                    walked.append((v, w))
                    stack.append((w, v))
                    break
                if disc[w] < disc[v] and w != parent:  # back edge to an ancestor
                    walked.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if parent < 0:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    block: dict[int, int] = {}
                    edge = None
                    while edge != (parent, v):
                        edge = x, y = walked.pop()
                        i, j = (x, y - n) if x < n else (y, x - n)
                        block[i] = block.get(i, 0) | 1 << j
                    masks = tuple(block[i] for i in sorted(block))
                    blocks.append(FGraph(len(masks), f.n_cols, masks))
    return blocks


def _block_has_cycle(f: FGraph, length: int) -> bool:
    """Exact-length cycle search, exponential in ``length``: a depth-first
    walk that finds each cycle from its smallest row, trying a row's
    columns and a column's rows above the start in ascending order, off
    the path.  Its stack of untried neighbour masks, one per vertex on the
    path, is explicit, so no recursion limit bounds it.  The last row
    closes the cycle if it shares a column off the path with the start."""
    nbrs = f._neighbours
    for start in range(f.n):
        first = nbrs[start]
        free = -2 << start  # the rows above the start, and the columns, off the path
        todo = [first]  # the untried neighbours of each vertex on the path
        path: list[int] = []  # the bit of each vertex after the start
        while todo:
            cand = todo[-1]
            if not cand:
                todo.pop()
                if path:
                    free |= path.pop()
                continue
            bit = cand & -cand
            todo[-1] = cand ^ bit
            ahead = nbrs[bit.bit_length() - 1] & free
            if len(todo) + 2 == length:  # bit is the cycle's last row
                if ahead & first:
                    return True
            else:
                free ^= bit
                path.append(bit)
                todo.append(ahead)
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
        wide = len(block.rows) >= half and reduce(or_, block.rows).bit_count() >= half
        if wide and _block_has_cycle(block, length):
            return True
    return False


def is_forest(f: FGraph) -> bool:
    """True iff the fixed-cell graph is acyclic: iff each of its blocks is
    a single edge (a bridge), a block of one row, since a block of two or
    more edges holds a cycle and so two or more rows."""
    return all(len(block.rows) == 1 for block in f._block_list)


def analyze(f: FixedSet, n: int, n_cols: int) -> AnalysisReport:
    """Run the recommendation cascade on the fixed set.

    Matching test first (plain trades suffice), then the 8-cycle test
    (trades plus circle trades), then the smallest even cycle length
    missing from F, capped at 2*min(n, n_cols).  If every candidate length
    occurs, no bounded-swap chain is available and NoUsableBound is raised.

    F is its row masks, split into biconnected blocks once per call; a
    cycle length that no block can hold is ruled out in time linear in |F|
    (see ``has_cycle_of_length``), and the search inside a block that can
    is exponential in the length.
    """
    fg = FGraph(n, n_cols, f.fixed_masks)
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
