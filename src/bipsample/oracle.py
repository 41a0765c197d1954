"""Brute-force ground truth: exhaustive enumeration of small instances,
state graphs under each move set, exact transition-probability accounting,
and the verification driver that sweeps an instance pool and machine-checks
every connectivity, distance, reversibility and static-set claim that
applies to it.

Every state is one int, its row masks packed (layout below); the trade and
circle ledgers read and rotate its rows.  Cell sets are masks in that layout:
an instance's support marks its fixed cells and its pattern which of them
are edges, and the two pin the enumeration and name each pool instance.
A degree sequence's static edges and non-edges are two masks as well, and
a state graph lists each state's neighbours by index, found by integer
tests on the XOR of two states."""

from __future__ import annotations

import functools
import itertools
import random
import sys
import time
from dataclasses import dataclass, field
from math import comb, exp, lgamma, log

from . import chains
from .analysis import FGraph, has_cycle_of_length, is_forest, max_matching_at_least
from .core import (
    FORCED_EDGE,
    FORCED_NON_EDGE,
    FREE,
    DegreeSequence,
    FixedSet,
    Instance,
    InstanceMismatch,
    MoveSet,
    Realization,
    TooLarge,
)
from .realizability import (
    StaticSet,
    _gale_ryser,
    initial_realization,
    static_set,
)

ENUMERATION_CELL_LIMIT = 36


# ---------------------------------------------------------------------------
# Bit-level enumeration, pair classification and the state graph.
#
# A state is an int whose bit for cell (i, j) sits at position i*nc + j:
# the row masks of ``Realization.masks``, packed, so row i is
# ``x >> i*nc & full``.  Enumeration emits the states in canonical
# (row-major digit string) order, which indexes them.  Every state graph,
# the sweep's and ``build_state_graph``'s, is read from the neighbour
# masks of ``_SeqCtx.neighbours``, which one pass over the state pairs
# fills; the exact pair classifier ``_classify_bits`` settles only the
# pairs that the pass's integer tests leave open.


def _cells_mask(cells, n: int, nc: int) -> int:
    mask = 0
    for i, j in cells:
        mask |= 1 << i * nc + j
    return mask


def _state_of(masks, nc: int) -> int:
    """The state int of the row masks ``masks``."""
    return sum(m << i * nc for i, m in enumerate(masks))


def _masks_of(x: int, n: int, nc: int) -> tuple[int, ...]:
    """The row masks of the state int (or cell mask) ``x``."""
    full = (1 << nc) - 1
    return tuple([x >> i * nc & full for i in range(n)])


def _enumerate_bits(
    a: tuple[int, ...],
    b: tuple[int, ...],
    sup: int = 0,
    pattern: int = 0,
    cap: int | None = None,
) -> list[int] | None:
    """All realizations as state ints that carry ``pattern`` on the support
    mask ``sup``, in canonical order; None if ``cap`` is exceeded.

    Rows are filled in order; ``need[c]`` masks the columns that still need
    c ones, and none needs more than the rows left: a column needing one in
    every row left is taken, so the last row takes the columns still short.
    A row picks the free columns it leaves out in ``combinations`` order,
    which lists its candidates in ascending digit order."""
    n, nc = len(a), len(b)
    if sum(a) != sum(b) or max(b) > n:
        return []
    full = (1 << nc) - 1
    need0 = [0] * (n + 1)
    for j, c in enumerate(b):
        need0[c] |= 1 << j
    out: list[int] = []

    def rec(i: int, need: list[int], acc: int) -> bool:
        left, sh = n - i, i * nc
        f, e = sup >> sh & full, pattern >> sh & full
        must, done = need[left], need[0]
        if left == 1:  # the last row takes exactly the columns still short
            if must & f == e and must.bit_count() == a[i]:
                out.append(acc | must << sh)
            return cap is None or len(out) <= cap
        free = full & ~(f | must | done)
        base = e | must
        k = free.bit_count() - a[i] + base.bit_count()  # free columns left out
        if must & f & ~e or e & done or not 0 <= k <= free.bit_count():
            return True
        take_all = base | free
        cols = []
        while free:
            cols.append(free & -free)
            free &= free - 1
        for left_out in itertools.combinations(cols, k):
            row = take_all ^ sum(left_out)
            if not rec(i + 1, [need[c] & ~row | need[c + 1] & row for c in range(left)],
                       acc | row << sh):
                return False
        return True

    return out if rec(0, need0, 0) else None


def _classify_bits(x: int, y: int, n: int, nc: int) -> tuple[tuple[int, ...], int, bool]:
    """The exact pair class (changed rows, cycle length, rotation) of two
    states, read from the rows of ``x ^ y``: its non-zero rows; 0 unless
    the difference is a single cycle, every changed row and column holding
    two cells and one walk covering every changed row; whether the three
    changed rows' gain and loss masks match."""
    d = x ^ y
    full = (1 << nc) - 1
    rows, diffs, gains = [], [], []
    pairs = True  # every changed row holds two cells
    for i in range(n):
        f = d >> i * nc & full
        if f:
            rows.append(i)
            diffs.append(f)
            gains.append(y >> i * nc & f)
            pairs = pairs and f.bit_count() == 2

    cycle_len = 0
    if pairs and rows:
        # Bit-sliced column counts: once, at least twice, more than twice.
        once = twice = more = 0
        for f in diffs:
            more |= twice & f
            twice |= once & f
            once |= f
        if once == twice and not more:
            # A union of vertex-disjoint cycles; walk the one through the
            # first changed row, leaving each row by its other column.
            k, col, seen = 0, diffs[0] & -diffs[0], 1
            while True:
                for q, f in enumerate(diffs):
                    if q != k and f & col:
                        break
                if q == 0:
                    break
                k = q
                seen += 1
                col ^= diffs[k]
            if seen == len(diffs):
                cycle_len = 2 * seen

    is_circle = False
    if len(rows) == 3:
        g0, g1, g2 = gains
        l0, l1, l2 = g0 ^ diffs[0], g1 ^ diffs[1], g2 ^ diffs[2]
        is_circle = (g0 == l1 and g1 == l2 and g2 == l0) or (
            g0 == l2 and g2 == l1 and g1 == l0
        )
    return tuple(rows), cycle_len, is_circle


# The move sets the sweep checks on every instance, built once.
_SWAPS4 = MoveSet.swaps4()
_SWAPS46 = MoveSet.swaps_up_to(6)
_TRADES = MoveSet.trades()
_TRADES_PLUS_CIRCLE = MoveSet.trades_plus_circle()

# The pair classes (see ``_SeqCtx``) that are one move of each trade kind.
_TRADE_CLASSES = frozenset({2, 4})
_CIRCLE_CLASSES = frozenset({2, 3, 4, 6})


class _SeqCtx:
    """Per-sequence data: the bit states, their canonical index, the rows'
    shifts, the masks ``low`` and ``high`` that count a difference's
    changed rows (each row's low bits, each row's high bit), subset tables,
    and the state graphs.  Row i of a state ``x`` is the row mask
    ``(x >> shifts[i]) & full``.

    Every state graph of the oracle is read from one pass over the state
    pairs (``_classify_pairs``), which keeps only the pairs that are one
    move of some kind, each under its class, from integer tests on the
    pair's difference ``d``: its cell count c and, past 6 cells, its
    changed-row count r (the row high bits that ``((d & low) + low) | d``
    sets).  The states share one degree sequence, so each changed row and
    column holds an even number of cells: c = 4 is one 4-cycle, on two
    rows, and c = 6 one 6-cycle, on three rows, hence one rotation; a
    rotation changes 2m cells per row.  The classes are 4 and 6 for those,
    2 for any other trade (r = 2), and two open ones whose pairs the exact
    ``_classify_bits`` settles when a move set first admits them: 3, three
    rows of 12, 18, ... cells, kept if a rotation, and c >= 8, c cells on
    c/2 rows, kept if one cycle.  A class is kept as one neighbour mask per
    state (bit t for state t).  A move set's graph is the OR of the classes
    it admits: trades 2 and 4, trades with circle trades also 3 and 6,
    cycle swaps their lengths."""

    def __init__(self, n, nc, a, b, bits):
        self.n = n
        self.nc = nc
        self.a = tuple(a)
        self.b = tuple(b)
        self.bits = bits
        self.index = {x: s for s, x in enumerate(bits)}
        self.full = (1 << nc) - 1
        self.shifts = tuple(i * nc for i in range(n))
        self.high = sum(1 << sh + nc - 1 for sh in self.shifts)
        self.low = (1 << n * nc) - 1 - self.high
        self._subsets: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._classes: dict[int, list[int]] | None = None
        self._open: dict[int, list[tuple[int, int]]] = {}
        self._graphs: dict[int | str, list[int]] = {}

    def subsets_of(self, mask):
        """The submasks of ``mask`` grouped by size: entry k lists those with
        k bits."""
        got = self._subsets.get(mask)
        if got is None:
            out = [[] for _ in range(mask.bit_count() + 1)]
            sub = mask
            while True:
                out[sub.bit_count()].append(sub)
                if not sub:
                    break
                sub = (sub - 1) & mask
            got = self._subsets[mask] = tuple(map(tuple, out))
        return got

    def _classify_pairs(self):
        """Sort every pair of states that is one move of some kind into its
        class, the open ones left to settle."""
        low, high, bits = self.low, self.high, self.bits
        flags = [1 << s for s in range(len(bits))]
        classes: dict[int, list[int]] = {}
        for s, x in enumerate(bits):
            for t, cls in [
                (t, c if c < 7 else 2 if r == 2 else 3 if r == 3 else c)
                for t, y in enumerate(bits[s + 1:], s + 1)
                if (c := (d := x ^ y).bit_count()) < 7
                or (r := ((((d & low) + low | d) & high).bit_count())) == 2
                or r == 3 and c % 6 == 0 or 2 * r == c
            ]:
                if cls == 3 or cls > 6:
                    self._open.setdefault(cls, []).append((s, t))
                    continue
                nbrs = classes.get(cls)
                if nbrs is None:
                    nbrs = classes[cls] = [0] * len(bits)
                nbrs[s] |= flags[t]
                nbrs[t] |= flags[s]
        self._classes = classes

    def _settle(self, cls):
        """Keep the pairs of the open class ``cls`` that ``_classify_bits``
        shows are one move of it."""
        bits, n, nc = self.bits, self.n, self.nc
        nbrs = self._classes.setdefault(cls, [0] * len(bits))
        for s, t in self._open.pop(cls):
            _, cycle_len, rotation = _classify_bits(bits[s], bits[t], n, nc)
            if (rotation if cls == 3 else cycle_len == cls):
                nbrs[s] |= 1 << t
                nbrs[t] |= 1 << s

    def neighbours(self, move_set) -> list[int]:
        """The neighbour masks of the states in the state graph of
        ``move_set``, kept by the move set's limit, or its kind where it has
        none, so that a lookup builds no key."""
        key = move_set.limit or move_set.kind
        got = self._graphs.get(key)
        if got is None:
            if self._classes is None:
                self._classify_pairs()
            kind = move_set.kind
            admits = (
                _TRADE_CLASSES if kind == MoveSet.TRADES
                else _CIRCLE_CLASSES if kind == MoveSet.TRADES_PLUS_CIRCLE
                else move_set.swap_lengths()
            )
            for cls in admits & self._open.keys():
                self._settle(cls)
            parts = [self._classes[cls] for cls in admits if cls in self._classes]
            got = self._graphs[key] = (
                [functools.reduce(int.__or__, masks) for masks in zip(*parts)]
                if parts else [0] * len(self.bits)
            )
        return got


class _StateSet:
    """A state set of one context, named by the mask of its state indices
    (``key`` lists them): its states, their AND and OR, and the graph facts
    and ledger verdicts the checks decide on it, each once.  A set refers
    to its context and a context to no set, so that a context is freed
    with the last set that holds it.

    The ledgers depend on the set alone, though they read the fixed cells
    of the support that picked it.  In the exhaustive half a context holds
    every realization of its sequence.  Take two supports that select the
    same set S, and a cell fixed under one and free under the other: it is
    constant on S.  Were it in a trade pool (0 < k < size) or a circle
    difference set (min size >= 1) of the support that leaves it free, some
    route would flip it and keep that support's pattern, reaching a
    realization in S with another value there.  So the pools, difference
    sets and denominators agree under both supports."""

    __slots__ = ("ctx", "mask", "key", "states", "every", "some", "graphs",
                 "trades", "circles")

    def __init__(self, ctx, mask):
        self.ctx, self.mask = ctx, mask
        self.key = _positions(mask)
        self.states = [ctx.bits[s] for s in self.key]
        self.every = functools.reduce(int.__and__, self.states)
        self.some = functools.reduce(int.__or__, self.states)
        self.graphs: dict[int | str, tuple] = {}
        self.trades = self.circles = None

    def graph_facts(self, move_set):
        """(components, distance verdict) of the set's state graph under
        ``move_set``: the components as state masks, ordered by least
        state, and whether every pair of states lies within the distance
        bound, decided for 4-swaps only (None otherwise).  Kept like the
        context's graphs."""
        key = move_set.limit or move_set.kind
        got = self.graphs.get(key)
        if got is None:
            nbrs = self.ctx.neighbours(move_set)
            comps = _components(nbrs, self.mask)
            within_bound = len(comps) == 1 and _within_distance_bound(
                self.ctx.bits, nbrs, self.mask
            ) if move_set.kind == MoveSet.SWAPS4 else None
            got = self.graphs[key] = (comps, within_bound)
        return got

    def trade_verdict(self, fixed):
        """Whether the trade ledger under ``fixed`` stays in the set, symmetric."""
        if self.trades is None:
            trades = _trade_ledger(self.ctx, self.key, fixed)
            self.trades = trades is not None and _symmetric(trades)
        return self.trades

    def circle_verdicts(self, fixed):
        """(corrected ledger stays in the set and is symmetric, uncorrected
        ledger is asymmetric)."""
        if self.circles is None:
            circles = _circle_ledgers(self.ctx, self.key, fixed)
            self.circles = (
                circles is not None and _symmetric(circles[0]),
                circles is not None and not _symmetric(circles[1]),
            )
        return self.circles


def _positions(mask):
    """The positions of the set bits of ``mask``, ascending, as a tuple."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _components(nbrs, mask) -> list[int]:
    """The components, as masks ordered by least state, of the graph with
    the neighbour masks ``nbrs`` on the states in ``mask``."""
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= nbrs[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & mask & ~comp
            comp |= frontier
        comps.append(comp)
        mask ^= comp
    return comps


def _within_distance_bound(bits, nbrs, mask) -> bool:
    """True iff, in the graph with the neighbour masks ``nbrs`` on the
    states in ``mask``, every pair of states is within half its cell
    difference minus one moves: a state first reached after k moves
    differs from the start in at least 2k + 2 cells."""
    for s in _positions(mask):
        x = bits[s]
        seen = 1 << s
        frontier = nbrs[s] & mask
        need = 4
        while frontier:
            seen |= frontier
            reach = 0
            while frontier:
                low = frontier & -frontier
                t = low.bit_length() - 1
                if (x ^ bits[t]).bit_count() < need:
                    return False
                reach |= nbrs[t]
                frontier ^= low
            frontier = reach & mask & ~seen
            need += 2
        if seen != mask:
            return False
    return True


# ---------------------------------------------------------------------------
# Public oracle operations.


@dataclass(frozen=True)
class StateGraph:
    """All realizations of an instance with one-move adjacency.

    ``edges[s]`` holds the indices of the states one move of ``move_set``
    from state s, ascending; every edge appears in both directions.
    """

    states: tuple[Realization, ...]
    edges: tuple[tuple[int, ...], ...]
    move_set: MoveSet


def _instance_bits(inst: Instance) -> list[int]:
    """Every realization of the instance as a state int, in canonical
    order, by row-wise backtracking; TooLarge past the enumeration guard."""
    n, nc = inst.n, inst.n_cols
    if n * nc > ENUMERATION_CELL_LIMIT:
        raise TooLarge(f"{n}x{nc} grid exceeds the enumeration guard")
    return _enumerate_bits(
        inst.degrees.row_degrees, inst.degrees.col_degrees,
        _state_of(inst.fixed.fixed_masks, nc), _state_of(inst.fixed.edge_masks, nc),
    )


def enumerate_realizations(inst: Instance) -> list[Realization]:
    """Every realization of the instance, in canonical (row-major digit
    string) order, by row-wise backtracking."""
    n, nc = inst.n, inst.n_cols
    return [
        Realization.from_masks(inst, _masks_of(x, n, nc)) for x in _instance_bits(inst)
    ]


def _state_index(inst: Instance) -> dict[tuple[int, ...], int]:
    """The row masks of every realization, mapped to its position in
    ``enumerate_realizations(inst)``, cut from the state ints with no
    ``Realization`` built."""
    n, nc = inst.n, inst.n_cols
    return {_masks_of(x, n, nc): s for s, x in enumerate(_instance_bits(inst))}


def _ctx_of(states: list[Realization]) -> _SeqCtx:
    """The sweep's per-sequence context for a non-empty list of states."""
    inst = states[0].instance
    nc = inst.n_cols
    return _SeqCtx(
        inst.n, nc, inst.degrees.row_degrees, inst.degrees.col_degrees,
        [_state_of(g.masks, nc) for g in states],
    )


def build_state_graph(states: list[Realization], move_set: MoveSet) -> StateGraph:
    """Connect states that are one move apart under ``move_set``.  The
    states must share one degree sequence (so one shape), without which
    the integer pair tests of ``_SeqCtx`` are not exact: InstanceMismatch
    (a ValueError) otherwise."""
    if len({g.instance.degrees for g in states}) > 1:
        raise InstanceMismatch("the states of a state graph must share one degree sequence")
    if not states:
        return StateGraph((), (), move_set)
    nbrs = _ctx_of(states).neighbours(move_set)
    return StateGraph(tuple(states), tuple(map(_positions, nbrs)), move_set)


def check_connectivity(sg: StateGraph) -> tuple[bool, list[list[int]]]:
    """Component decomposition of the state graph."""
    nbrs = [sum(1 << t for t in edges) for edges in sg.edges]
    comps = _components(nbrs, (1 << len(nbrs)) - 1)
    return len(comps) <= 1, [list(_positions(c)) for c in comps]


def _static_set_reference(s: DegreeSequence) -> StaticSet:
    """The static set by 2*n*m Gale-Ryser tests, one pair per cell: an
    independent re-derivation that ``static_set``'s tight inequalities are
    checked against.

    Cell (i, j) is a forced non-edge iff decrementing a_i and b_j kills
    realizability (no realization carries an edge there); it is a forced
    edge iff the same test on the complement degrees fails (no realization
    of the complement carries an edge there, so every realization of ``s``
    does).
    """
    n, nc = s.n, s.n_cols
    a, b = list(s.row_degrees), list(s.col_degrees)
    a_op = [nc - d for d in a]
    b_op = [n - d for d in b]
    edges = set()
    non_edges = set()
    for i in range(n):
        for j in range(nc):
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
    return StaticSet(frozenset(edges), frozenset(non_edges))


def uniformity_report(inst: Instance, cfg: chains.ChainConfig) -> tuple[float, float]:
    """Run the chain and compare the visit distribution with uniform:
    (total-variation distance, chi-square p-value).

    Visits are counted by the chain's state keys against the enumerated
    states' keys (``_state_index``), so a visited state missing from the
    enumeration raises KeyError.  A config that keeps no state
    (``steps < sample_gap``) raises ValueError."""
    if cfg.steps < cfg.sample_gap:
        raise ValueError("no kept states")
    index = _state_index(inst)
    counts = [0] * len(index)
    for key in chains.Chain(initial_realization(inst), cfg).keys():
        counts[index[key]] += 1
    n_samples = sum(counts)
    k = len(index)
    if k == 1:
        return 0.0, 1.0
    tv = 0.5 * sum(abs(c / n_samples - 1 / k) for c in counts)
    return tv, _chisquare_p(counts)


def _chisquare_p(counts: list[int]) -> float:
    """Pearson's chi-square p-value of ``counts`` against equal expected
    counts (at least two counts, a positive total).

    With chi2 = sum((c - mean)^2) / mean on k - 1 degrees of freedom, the
    p-value is Q((k - 1)/2, chi2/2), the regularized upper incomplete gamma
    function: a power series for the lower function P = 1 - Q when
    x < a + 1, else a continued fraction for Q by the modified Lentz
    method (Numerical Recipes, section 6.2)."""
    k = len(counts)
    mean = sum(counts) / k
    a = (k - 1) / 2
    x = sum((c - mean) ** 2 for c in counts) / mean / 2
    if x == 0:
        return 1.0
    eps = sys.float_info.epsilon
    front = exp(a * log(x) - x - lgamma(a))
    if x < a + 1:
        term = total = 1 / a
        ap = a
        while abs(term) > abs(total) * eps:
            ap += 1
            term *= x / ap
            total += term
        return 1 - front * total
    tiny = sys.float_info.min / eps
    b = x + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) <= eps:
            return front * h


# ---------------------------------------------------------------------------
# Verification driver: sweep an instance pool and check every claim that
# applies to each instance's hypothesis class.


@dataclass
class VerificationResult:
    """Outcome of a verification sweep.  ``seconds`` maps each check name to
    the summed time from the previous recorded check to each of its own."""

    passed: bool = True
    checks_run: int = 0
    counts: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    witness: Instance | None = None
    witness_check: str | None = None
    info_lines: list = field(default_factory=list)
    elapsed: float = 0.0


# The ledgers' circle-route denominators, each computed once.
_circle_denominator = functools.cache(chains.circle_denominator)


def _support_props(n, nc, fixed):
    """(no 3-matching, no 8-cycle, forest, excluded ell values) of the
    support whose row masks are ``fixed``."""
    fg = FGraph(n, nc, fixed)
    excluded = tuple(
        ell for ell in range(4, min(n, nc) + 1) if not has_cycle_of_length(fg, 2 * ell)
    )
    return (not max_matching_at_least(fg, 3), not has_cycle_of_length(fg, 8),
            is_forest(fg), excluded)


def _symmetric(ledger):
    """True iff every key (s, t, ...) carries the value of (t, s, ...)."""
    return all(
        ledger.get((key[1], key[0], *key[2:])) == value
        for key, value in ledger.items()
    )


def _trade_ledger(ctx, states_idx, fixed):
    """The exact one-step trade ledger {(s, t): den}: from each state, each
    row pair's trade reaches t through exactly one (pair, subset) draw, of
    probability 1/den per pair.  ``fixed`` holds the fixed cells as row
    masks.  None if a trade leaves the state set or a route repeats.

    A trade on rows i, j exchanges columns between the pool of cells where
    the two rows differ (fixed cells left out); handing row i the subset b
    of the pool in place of its share a flips a ^ b in both rows."""
    dens: dict[tuple[int, int], int] = {}
    index, bits, full = ctx.index, ctx.bits, ctx.full
    pairs = [
        (ctx.shifts[i], ctx.shifts[j], ~(fixed[i] | fixed[j]))
        for i, j in itertools.combinations(range(ctx.n), 2)
    ]
    for s in states_idx:
        x = bits[s]
        for sh_i, sh_j, free in pairs:
            row_i = (x >> sh_i) & full
            pool = (row_i ^ (x >> sh_j)) & full & free
            share = row_i & pool
            k = share.bit_count()
            size = pool.bit_count()
            if k == 0 or k == size:
                continue
            den = comb(size, k)
            for sub in ctx.subsets_of(pool)[k]:
                if sub == share:
                    continue
                flip = share ^ sub
                t = index.get(x ^ (flip << sh_i) ^ (flip << sh_j))
                if t is None or (s, t) in dens:
                    return None
                dens[(s, t)] = den
    return dens


def _circle_ledgers(ctx, states_idx, fixed):
    """The exact circle-trade ledgers of one enumeration of every route:
    (corrected, uncorrected), each {(s, t, den): routes}, where 1/den is a
    route's effective probability.  Uncorrected, den is the forward subset
    denominator; with the Metropolis correction it is the larger of the
    forward and reverse ones.  None if a rotation leaves the state set.

    On rows (i, j, k), row i takes x columns of row j, j of k and k of i;
    each row flips by the subset it gives XOR the subset it takes.
    The rotations (i, j, k), (j, k, i) and (k, i, j) are one move: they see
    the same three difference sets, permuted cyclically, and their routes
    map one to one onto the same successors.  ``circle_denominator`` reads
    the sizes only through 2^min and the binomials of the other two, which
    no choice among tied minima changes, so the forward and the reverse
    denominators agree across the three as well.  Each rotation class is
    therefore enumerated once, from its least row, and its routes count 3:
    the ledgers equal those of every ordered triple."""
    corrected: dict[tuple[int, int, int], int] = {}
    uncorrected: dict[tuple[int, int, int], int] = {}
    index, bits, full, shifts = ctx.index, ctx.bits, ctx.full, ctx.shifts
    subsets_of = ctx.subsets_of
    dens = _circle_denominator
    triples = [
        (i, j, k, shifts[i], shifts[j], shifts[k],
         ~(fixed[i] | fixed[j]), ~(fixed[j] | fixed[k]), ~(fixed[k] | fixed[i]))
        for i, j, k in itertools.permutations(range(ctx.n), 3)
        if i < j and i < k
    ]
    for s in states_idx:
        x = bits[s]
        rows = [(x >> sh) & full for sh in shifts]
        for i, j, k, sh_i, sh_j, sh_k, free_ij, free_jk, free_ki in triples:
            row_i, row_j, row_k = rows[i], rows[j], rows[k]
            d_ji = row_j & ~row_i & free_ij
            d_kj = row_k & ~row_j & free_jk
            d_ik = row_i & ~row_k & free_ki
            sizes = (d_ji.bit_count(), d_kj.bit_count(), d_ik.bit_count())
            m = min(sizes)
            if m == 0:
                continue
            by_j, by_k, by_i = subsets_of(d_ji), subsets_of(d_kj), subsets_of(d_ik)
            for size in range(1, m + 1):
                den_f = dens(sizes, size)
                for sub_j in by_j[size]:
                    for sub_k in by_k[size]:
                        flip_j = sub_j ^ sub_k
                        for sub_i in by_i[size]:
                            flip_i = sub_i ^ sub_j
                            flip_k = sub_k ^ sub_i
                            t = index.get(
                                x ^ (flip_i << sh_i) ^ (flip_j << sh_j)
                                ^ (flip_k << sh_k)
                            )
                            if t is None:
                                return None
                            new_i, new_j, new_k = (
                                row_i ^ flip_i, row_j ^ flip_j, row_k ^ flip_k
                            )
                            den_r = dens(
                                (
                                    (new_i & ~new_j & free_ij).bit_count(),
                                    (new_k & ~new_i & free_ki).bit_count(),
                                    (new_j & ~new_k & free_jk).bit_count(),
                                ),
                                size,
                            )
                            key = (s, t, max(den_f, den_r))
                            corrected[key] = corrected.get(key, 0) + 3
                            key = (s, t, den_f)
                            uncorrected[key] = uncorrected.get(key, 0) + 3
    return corrected, uncorrected


def _digest(n, nc, a, b, sup=None, pattern=None):
    """The text that names an instance in check lines: its shape and
    degrees, plus the mask rows when the support and pattern masks are
    given."""
    base = f"{n}x{nc} a={','.join(map(str, a))} b={','.join(map(str, b))}"
    if sup is not None:
        cells = "".join(
            "*" if not sup >> p & 1 else "1" if pattern >> p & 1 else "0"
            for p in range(n * nc)
        )
        base += " m=" + "|".join(cells[i * nc:(i + 1) * nc] for i in range(n))
    return base


def _make_instance(n, nc, a, b, sup=0, pattern=0) -> Instance:
    """The instance a check line names (see ``_digest``)."""
    kind = ((FREE, FREE), (FORCED_NON_EDGE, FORCED_EDGE))
    return Instance(DegreeSequence(a, b), FixedSet([
        [kind[sup >> p & 1][pattern >> p & 1] for p in range(lo, lo + nc)]
        for lo in range(0, n * nc, nc)
    ]))


class _Reporter:
    """Counts and times the checks, a [count, seconds] tally per name that
    ``finish`` copies into the result.  An instance is named by ``where``:
    (n, nc, a, b) for a degree sequence, plus the support and pattern
    masks for an instance with fixed cells.  Its text is built only for a
    line that is printed or a failure that is kept, and, since an
    instance's checks are recorded one after another, at most once."""

    def __init__(self, emit, quiet, result):
        self.emit = emit or (lambda line: None)
        # With no emit a PASS line would be thrown away, so none is built.
        self.quiet = quiet or emit is None
        self.result = result
        self.tally: dict[str, list] = {}
        self.last = time.perf_counter()
        self._where = self._text = None

    def _name(self, where):
        if where is not self._where:
            self._where, self._text = where, _digest(*where)
        return self._text

    def record(self, name, where, ok, suffix=""):
        """Count one check and the time since the previous one; the first
        failure keeps its instance as the witness."""
        now = time.perf_counter()
        tally = self.tally.get(name)
        if tally is None:
            tally = self.tally[name] = [0, 0.0]
        tally[0] += 1
        tally[1] += now - self.last
        self.last = now
        if ok:
            if not self.quiet:
                self.emit(f"{name} [{self._name(where)}{suffix}] PASS")
        else:
            r = self.result
            text = self._name(where) + suffix
            r.passed = False
            r.failures.append((name, text))
            self.emit(f"{name} [{text}] FAIL")
            if r.witness is None:
                r.witness = _make_instance(*where)
                r.witness_check = name

    def finish(self):
        r = self.result
        r.counts = {name: count for name, (count, _) in self.tally.items()}
        r.seconds = {name: seconds for name, (_, seconds) in self.tally.items()}
        r.checks_run = sum(r.counts.values())

    def info(self, name, where):
        line = f"{name} [{self._name(where)}]"
        self.result.info_lines.append(line)
        self.emit(f"INFO {line}")


class _Reduction:
    """What the ``reduction-equivalence`` check reads of a degree sequence:
    its static edges and non-edges as two masks (``cells`` is their
    union), its realizations as a set, and how many of them carry each
    reduced pattern, counted on first use."""

    __slots__ = ("edges", "non_edges", "cells", "free", "shift", "counts")

    def __init__(self, edges, non_edges, free_bits, shift):
        self.edges, self.non_edges = edges, non_edges
        self.cells = edges | non_edges
        self.free = set(free_bits)
        self.shift = shift  # the grid's cell count: a key holds two cell masks
        self.counts: dict[int, int] = {}

    def verdict(self, sup, pattern, size, every, some, states):
        """None if the instance, ``pattern`` on the support mask ``sup``,
        pins no static cell.  Otherwise whether the instance with its
        static cells freed has the same states: whether its ``size``
        states, with AND ``every`` and OR ``some``, are realizations that
        carry the freed instance's pins, and as many as the realizations
        that do."""
        ones, zeros = sup & pattern, sup & ~pattern
        if not (ones & self.edges or zeros & self.non_edges):
            return None
        ones &= ~self.edges
        zeros &= ~self.non_edges
        key = ones << self.shift | zeros
        count = self.counts.get(key)
        if count is None:
            count = self.counts[key] = sum(
                x & ones == ones and not x & zeros for x in self.free
            )
        return (size == count and every & ones == ones and not some & zeros
                and self.free.issuperset(states))


def _check_sequence(rep, n, nc, a, b, free_bits):
    """Check a degree sequence's static set against the ground truth of its
    realizations ``free_bits`` (a non-empty list) and against the per-cell
    Gale-Ryser reference.  Return what its reduction checks read, as a
    ``_Reduction``.  The static edges are the cells every realization sets
    (their AND), the static non-edges the cells none sets (the complement
    of their OR)."""
    where = (n, nc, a, b)
    seq = DegreeSequence(a, b)
    ss = static_set(seq)
    edges = _cells_mask(ss.forced_edges, n, nc)
    non_edges = _cells_mask(ss.forced_non_edges, n, nc)
    every = functools.reduce(int.__and__, free_bits)
    some = functools.reduce(int.__or__, free_bits)
    rep.record(
        "static-cells-exact", where,
        edges == every and non_edges == ~some & ((1 << n * nc) - 1),
    )
    # The name is kept because bench/expected.json pins it; renaming it
    # waits for the next change to the benchmark.
    rep.record("static-cells-pruned", where, ss == _static_set_reference(seq))
    return _Reduction(edges, non_edges, free_bits, n * nc)


def _check_instance_pool(facts, sup, pattern, fixed, props, rep, reduction):
    """Run every applicable check on one instance: the state set ``facts``
    of two or more states, those of its context that carry ``pattern`` on
    the support mask ``sup`` (``fixed`` holds ``sup`` as row masks).
    ``reduction`` is what ``_check_sequence`` returned (None to skip the
    reduction check)."""
    ctx = facts.ctx
    n = ctx.n
    where = (n, ctx.nc, ctx.a, ctx.b, sup, pattern)
    no3m, no8, forest, excluded = props
    if no3m:
        comps4, within_bound = facts.graph_facts(_SWAPS4)
        rep.record("swaps4-connected", where, len(comps4) == 1)
        rep.record("swaps4-distance-bound", where, within_bound)
        compst = facts.graph_facts(_TRADES)[0]
        rep.record("trades-connected", where, len(compst) == 1)
        rep.record("trade-swap-components", where, comps4 == compst)

    if no8:
        comps46 = facts.graph_facts(_SWAPS46)[0]
        rep.record("swaps46-connected", where, len(comps46) == 1)
        if forest:
            rep.record("forest-swaps46-connected", where, len(comps46) == 1)
        compsc = facts.graph_facts(_TRADES_PLUS_CIRCLE)[0]
        rep.record("circle-trades-connected", where, len(compsc) == 1)

    for ell in excluded:
        if ell == 4 and no8:
            continue  # identical to the swaps46 check above
        comps = facts.graph_facts(MoveSet.swaps_up_to(2 * ell - 2))[0]
        rep.record("bounded-swaps-connected", where, len(comps) == 1,
                   f" L={2 * ell - 2}")

    if len(facts.key) <= 60:
        rep.record("trade-reversibility", where, facts.trade_verdict(fixed))
        if n >= 3:
            balanced, asymmetric = facts.circle_verdicts(fixed)
            rep.record("circle-detailed-balance", where, balanced)
            if asymmetric:
                rep.info("uncorrected-circle-asymmetry", where)

    if reduction is not None:
        ok = reduction.verdict(sup, pattern, len(facts.key), facts.every, facts.some,
                               facts.states)
        if ok is not None:
            rep.record("reduction-equivalence", where, ok)


def _sorted_sequences(n, nc):
    for a in itertools.combinations_with_replacement(range(nc, -1, -1), n):
        sa = sum(a)
        for b in itertools.combinations_with_replacement(range(n, -1, -1), nc):
            if sum(b) == sa:
                yield a, b


def _random_instances(rng, max_rows, max_cols, count, with_8_cycles):
    """Seeded random instances, as (n, nc, a, b, sup, pattern, states);
    patterns are read off a generating matrix so every instance is
    feasible.  Generic instances keep the fixed cells free of 3-matchings;
    the 8-cycle batch deliberately embeds an 8-cycle (if the grid allows)
    to exercise the bounded-swap hypothesis."""
    if max_rows < 2 or max_cols < 2:
        return
    made = 0
    while made < count:
        n = rng.randint(2, max_rows)
        nc = rng.randint(2, max_cols)
        if with_8_cycles:
            if max_rows < 4 or max_cols < 4:
                return
            n = rng.randint(4, max_rows)
            nc = rng.randint(4, max_cols)
        density = rng.choice([0.35, 0.5, 0.65])
        for _attempt in range(40):
            matrix = [
                [1 if rng.random() < density else 0 for _ in range(nc)]
                for _ in range(n)
            ]
            a = tuple(sum(row) for row in matrix)
            b = tuple(sum(matrix[i][j] for i in range(n)) for j in range(nc))
            cells = [(i, j) for i in range(n) for j in range(nc)]
            if with_8_cycles:
                rows4 = rng.sample(range(n), 4)
                cols4 = rng.sample(range(nc), 4)
                support = []
                for t in range(4):
                    support.append((rows4[t], cols4[t]))
                    support.append((rows4[(t + 1) % 4], cols4[t]))
                extra = rng.randint(0, 2)
                pool = [c for c in cells if c not in support]
                support += rng.sample(pool, extra)
            else:
                f_count = rng.randint(0, min(6, n * nc - 1))
                support = rng.sample(cells, f_count)
                if max_matching_at_least(FGraph.from_cells(n, nc, support), 3):
                    continue
            sup = _cells_mask(support, n, nc)
            pattern = _cells_mask(
                [(i, j) for i, j in support if matrix[i][j]], n, nc
            )
            bits = _enumerate_bits(a, b, sup, pattern, cap=300)
            if bits is None or len(bits) < 2:
                continue
            yield n, nc, a, b, sup, pattern, bits
            made += 1
            break
        else:
            made += 1  # give up on this slot rather than loop forever


def run_verification(
    max_rows: int = 5,
    max_cols: int = 5,
    random_count: int = 200,
    seed: int = 0,
    emit=None,
    quiet: bool = False,
) -> VerificationResult:
    """Sweep the verification pool.

    The exhaustive part covers every canonical (sorted) degree sequence on
    grids up to 3x4 (capped by max_rows/max_cols) with every fixed-cell
    support of at most 4 cells and every feasible polarity; the random part
    adds seeded instances up to max_rows x max_cols, plus a batch with
    embedded 8-cycles when the grid allows.
    """
    # random.Random(-s) draws the stream of Random(s).
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if max_rows * max_cols > ENUMERATION_CELL_LIMIT:
        raise TooLarge(
            f"a {max_rows}x{max_cols} pool exceeds the enumeration guard of "
            f"{ENUMERATION_CELL_LIMIT} cells"
        )
    t0 = time.perf_counter()
    result = VerificationResult()
    rep = _Reporter(emit, quiet, result)

    for n in range(1, min(3, max_rows) + 1):
        for nc in range(1, min(4, max_cols) + 1):
            # Each support with its row masks, the canonical rank of each
            # pattern on it (the pattern's bits read from its first cell
            # on) and its properties.
            cell_bits = [1 << p for p in range(n * nc)]
            supports = []
            for size in range(min(4, n * nc) + 1):
                ranked = list(enumerate(itertools.product((0, 1), repeat=size)))
                for cells in itertools.combinations(cell_bits, size):
                    rank = {sum(itertools.compress(cells, d)): r for r, d in ranked}
                    sup = sum(cells)
                    fixed = _masks_of(sup, n, nc)
                    supports.append((sup, fixed, rank, _support_props(n, nc, fixed)))
            for a, b in _sorted_sequences(n, nc):
                bits = _enumerate_bits(a, b)
                if not bits:
                    continue
                ctx = _SeqCtx(n, nc, a, b, bits)
                reduction = _check_sequence(rep, n, nc, a, b, bits)
                # The state sets of the sequence, each named by the mask of
                # its state indices, which bucketing builds.
                sets: dict[int, _StateSet] = {}
                flags = [1 << s for s in range(len(bits))]
                for sup, fixed, rank, props in supports:
                    pools: dict[int, int] = {}
                    for x, flag in zip(bits, flags):
                        pattern = x & sup
                        pools[pattern] = pools.get(pattern, 0) | flag
                    # Only a support that holds a static cell is reduced.
                    reducing = reduction if sup & reduction.cells else None
                    order = sorted(pools, key=rank.__getitem__) if len(pools) > 1 else pools
                    for pattern in order:
                        pool = pools[pattern]
                        if pool & pool - 1:
                            facts = sets.get(pool)
                            if facts is None:
                                facts = sets[pool] = _StateSet(ctx, pool)
                            _check_instance_pool(
                                facts, sup, pattern, fixed, props, rep, reducing
                            )
                        elif reducing:
                            # One state: the one check that applies to it.
                            x = bits[pool.bit_length() - 1]
                            ok = reducing.verdict(sup, pattern, 1, x, x, (x,))
                            if ok is not None:
                                rep.record("reduction-equivalence",
                                           (n, nc, a, b, sup, pattern), ok)

    rng = random.Random(seed)
    seq_static: dict[tuple, _Reduction | None] = {}
    batches = [(random_count, False)]
    if max_rows >= 4 and max_cols >= 4:
        batches.append((max(random_count // 12, 0), True))
    for count, with8 in batches:
        for n, nc, a, b, sup, pattern, bits in _random_instances(
            rng, max_rows, max_cols, count, with8
        ):
            seq = (n, nc, a, b)
            if seq not in seq_static:
                free_bits = _enumerate_bits(a, b, cap=20000)
                seq_static[seq] = _check_sequence(rep, *seq, free_bits) if free_bits else None
            fixed = _masks_of(sup, n, nc)
            facts = _StateSet(_SeqCtx(*seq, bits), (1 << len(bits)) - 1)
            _check_instance_pool(
                facts, sup, pattern, fixed, _support_props(n, nc, fixed), rep,
                seq_static[seq],
            )

    rep.finish()
    result.elapsed = time.perf_counter() - t0
    return result
