"""Feasibility of degree sequences and instances: Gale-Ryser tests, a
deterministic max-flow construction of one realization, and the static
edge/non-edge set of a sequence."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .core import (
    _DIGIT_VALUES,
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
    mask_digits,
)

# Map the binary digits "0" and "1" to the values 1 and 0.
_ZERO_VALUES = bytes.maketrans(b"01", b"\x01\x00")


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


def initial_realization(inst: Instance) -> Realization:
    """Build one realization of ``inst`` deterministically, or raise Infeasible.

    Forced edges are pre-placed and margins decremented; forced non-edges
    are deleted; the remaining margins are met by a unit-capacity max-flow
    over the free cells (source -> rows -> columns -> sink).  When the flow
    falls short, the message tells a degree sequence with no realization
    (Gale-Ryser) from fixed cells that rule every realization out.

    The flow is Dinic's (1970), with the network's arcs in insertion
    order: the source's arcs to rows 0..n-1; a row's arcs to its free
    columns, ascending; a column's reverse arcs to the rows whose flow uses
    it, ascending, then its arc to the sink.  It runs on bit masks per row
    and column (the free columns of a row, the cells the flow uses from
    either side, the spare capacities) and finds the same flow an
    adjacency-list Dinic with that arc order finds, for three reasons:

    1. BFS levels are shortest residual distances, so a layer-by-layer
       search over masks gives the same levels.  It stops at the first
       column layer holding a column with spare sink capacity: nodes past
       the sink's level are never on an augmenting path, so leaving them
       unlevelled changes no flow.
    2. In the first phase every path is source -> row -> column -> sink.
       The blocking-flow search is then first-fit: rows in order, each
       row's free columns in order, skipping full columns; one loop over
       the row masks.
    3. Later phases replay the search with current-arc pointers.  The
       next arc of a node is the lowest admissible bit at or above its
       pointer; a retreat moves the parent's pointer one past the child.
       Every path carries exactly one unit.
    """
    a = list(inst.degrees.row_degrees)
    b = list(inst.degrees.col_degrees)
    if sum(a) != sum(b):
        raise Infeasible("row and column degree sums differ")

    # Row masks: the forced edges and the free cells of each row.
    pinned = inst.fixed.edge_masks
    full = (1 << inst.n_cols) - 1
    free = [full ^ m for m in inst.fixed.fixed_masks]
    for i, edges in enumerate(pinned):
        a[i] -= edges.bit_count()
        while edges:
            low = edges & -edges
            b[low.bit_length() - 1] -= 1
            edges ^= low
    if any(d < 0 for d in a):
        raise Infeasible("a row has more forced edges than its degree")
    if any(d < 0 for d in b):
        raise Infeasible("a column has more forced edges than its degree")

    flow, used = _max_flow(free, a, b)
    if flow != sum(a):
        if not gale_ryser_realizable(inst.degrees):
            raise Infeasible("degree sequence has no realization")
        raise Infeasible("no realization satisfies the fixed cells and degrees")
    return Realization.from_masks(inst, map(int.__or__, pinned, used))


def _max_flow(free: list[int], a: list[int], b: list[int]) -> tuple[int, list[int]]:
    """The max-flow of ``initial_realization`` on masks: ``free[i]`` is
    row i's free-cell mask, ``a`` and ``b`` are the row and column
    capacities.  Returns the flow's value and the columns each row's flow
    uses."""
    n, nc = len(a), len(b)
    used = [0] * n  # the columns each row's flow uses
    users = [0] * nc  # the rows each column's flow uses
    # Phase 1: first-fit, rows in order, each row's free columns in order.
    spare_a = a.copy()
    spare_b = b.copy()
    open_cols = sum(1 << j for j in range(nc) if b[j])
    flow = 0
    for i in range(n):
        left = spare_a[i]
        fits = free[i] & open_cols
        while left and fits:
            low = fits & -fits
            fits ^= low
            j = low.bit_length() - 1
            used[i] |= low
            users[j] |= 1 << i
            left -= 1
            spare_b[j] -= 1
            if not spare_b[j]:
                open_cols ^= low
        flow += spare_a[i] - left
        spare_a[i] = left
    open_rows = sum(1 << i for i in range(n) if spare_a[i])
    # Later phases: levels by BFS over masks, then the blocking flow.
    while open_rows and open_cols:
        row_layers = [open_rows]
        col_layers = []
        seen_rows, seen_cols = open_rows, 0
        frontier = open_rows
        while True:
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                i = low.bit_length() - 1
                reach |= free[i] & ~used[i]
            reach &= ~seen_cols
            if not reach:
                break
            col_layers.append(reach)
            seen_cols |= reach
            if reach & open_cols:
                break
            cols = reach
            reach = 0
            while cols:
                low = cols & -cols
                cols ^= low
                reach |= users[low.bit_length() - 1]
            reach &= ~seen_rows
            if not reach:
                break
            row_layers.append(reach)
            seen_rows |= reach
            frontier = reach
        if not (col_layers and col_layers[-1] & open_cols):
            break
        flow += _blocking_flow(
            free, used, users, spare_a, spare_b, row_layers, col_layers
        )
        open_rows = sum(1 << i for i in range(n) if spare_a[i])
        open_cols = sum(1 << j for j in range(nc) if spare_b[j])
    return flow, used


def _blocking_flow(free, used, users, spare_a, spare_b, row_layers, col_layers):
    """One Dinic phase after the first, in place: unit augmenting paths
    along the level layers, found with current-arc pointers.  A pointer is
    the lowest column (of a row) or row (of a column or the source) its
    node's next arc may lead to; a column's sink arc follows its row arcs.
    Admissible arcs only go out of use within a phase, so a pointer moves
    only when an arc is taken or retreated from, and a dead end stays one."""
    last = len(col_layers) - 1
    row_ptr = [0] * len(free)
    col_ptr = [0] * len(spare_b)
    src_ptr = 0
    flow = 0
    path: list[int] = []  # row, column, row, column, ...
    while True:
        depth = len(path)
        if not depth:
            cand = row_layers[0] >> src_ptr << src_ptr
            while cand:
                low = cand & -cand
                i = low.bit_length() - 1
                if spare_a[i]:
                    break
                cand ^= low
            else:
                return flow
            src_ptr = i
            path.append(i)
        elif depth & 1:  # a row at level depth
            i = path[-1]
            p = row_ptr[i]
            cand = free[i] & ~used[i] & col_layers[depth >> 1] >> p << p
            if cand:
                j = (cand & -cand).bit_length() - 1
                row_ptr[i] = j
                path.append(j)
            else:
                path.pop()
                if depth == 1:
                    src_ptr = i + 1
                else:
                    col_ptr[path[-1]] = i + 1
        else:  # a column at level depth
            j = path[-1]
            p = col_ptr[j]
            d = depth >> 1
            cand = users[j] & row_layers[d] >> p << p if d < len(row_layers) else 0
            if cand:
                i = (cand & -cand).bit_length() - 1
                col_ptr[j] = i
                path.append(i)
            elif d - 1 == last and spare_b[j]:
                # The sink: the path's row-to-column cells join the flow,
                # its column-to-row cells leave it.
                spare_a[path[0]] -= 1
                spare_b[j] -= 1
                for t in range(0, depth, 2):
                    r, c = path[t], path[t + 1]
                    used[r] |= 1 << c
                    users[c] |= 1 << r
                    if t + 2 < depth:
                        r = path[t + 2]
                        used[r] &= ~(1 << c)
                        users[c] &= ~(1 << r)
                flow += 1
                path.clear()
            else:
                path.pop()
                row_ptr[path[-1]] = j + 1


def static_set(s: DegreeSequence, g: Realization | None = None) -> StaticSet:
    """Cells equal in every realization of ``s``, from one realization.

    ``g`` is any realization whose instance has the degrees ``s`` (a
    ``ValueError`` if not); without it one is built by max-flow.  Orient
    every cell of ``g``: an edge (1) points from its row to its column, a
    non-edge (0) from its column to its row.  Two realizations differ by
    alternating cycles, which are exactly the directed cycles of this
    orientation, so a cell is static iff its row and its column lie in
    different strongly connected components (Ryser's interchange theorem;
    Brualdi 1980 on invariant positions): the columns outside the column
    mask of its row's component.  One iterative Tarjan (1972) pass finds
    them: O(n*m) after the max-flow.
    """
    if not gale_ryser_realizable(s):
        raise NotRealizable("degree sequence has no realization")
    if g is None:
        g = initial_realization(Instance.unconstrained(s.row_degrees, s.col_degrees))
    elif g.instance.degrees != s:
        raise ValueError("realization does not match the degree sequence")
    n, nc = s.n, s.n_cols
    masks = g.masks
    # Nodes: rows 0..n-1, then column j as node n + j.  A row's arcs go to
    # its 1s, a column's to its 0s, read off the grid's digits in one pass.
    cells = "".join(mask_digits(masks, nc)).encode()
    ones, zeros = cells.translate(_DIGIT_VALUES), cells.translate(_ZERO_VALUES)
    col_nodes, row_nodes = range(n, n + nc), range(n)
    succ = [list(compress(col_nodes, ones[i * nc:(i + 1) * nc])) for i in range(n)]
    succ += [list(compress(row_nodes, zeros[j::nc])) for j in range(nc)]
    comp = _strong_components(succ)
    reach = [0] * (n + nc)  # each component's column mask
    for j, c in enumerate(comp[n:]):
        reach[c] |= 1 << j
    full = (1 << nc) - 1
    edges, non_edges = [], []
    for i, m in enumerate(masks):
        static = full & ~reach[comp[i]]
        while static:
            low = static & -static
            static ^= low
            (edges if m & low else non_edges).append((i, low.bit_length() - 1))
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
    static = dict.fromkeys(f_prime.forced_edges, FORCED_EDGE)
    static.update(dict.fromkeys(f_prime.forced_non_edges, FORCED_NON_EDGE))
    mask = [list(row) for row in inst.fixed.mask]
    redundant = set()
    for i, j in sorted(inst.fixed.cells):  # row-major, so the first conflict is named
        v = mask[i][j]
        pinned = static.get((i, j))
        if pinned == v:
            redundant.add((i, j))
            mask[i][j] = FREE
        elif pinned is not None:
            kinds = ("an edge", "a non-edge") if v == FORCED_EDGE else ("a non-edge", "an edge")
            raise PolarityConflict(
                f"cell ({i}, {j}) is forced as {kinds[0]} but is {kinds[1]} "
                "in every realization of the sequence"
            )
    return FixedSet(mask), frozenset(redundant)
