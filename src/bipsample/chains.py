"""The Markov chains: pair trades, single swaps, circle trades over row
triples, and bounded cycle swaps.

Randomness contract: one seeded ``random.Random`` per run; each step draws
in a fixed, documented order (row pair or triple indices first, then the
subset choice, then - for circle trades with the Metropolis correction on,
and only when the acceptance ratio is below one - the acceptance variate).
Streams are reproducible for a fixed seed within this implementation.

The step loop behind ``Chain`` (``_step_rows``) mutates the chain's row
sets in place: each move kind has one draw function, whose result an
in-place kernel applies and the public ``propose_*`` functions wrap into a
proposal object.  Both paths make the same draws in the same order, so
they share one random stream and give the same seeded output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .core import Instance, MoveSet, Realization
from .realizability import initial_realization


class Stay:
    """Lazy move: remain in the current state (keeps every chain aperiodic)."""

    __slots__ = ()

    def __repr__(self):
        return "Stay"


STAY = Stay()


@dataclass(frozen=True)
class ChainConfig:
    """How to run a chain: moves, step count, seed, sampling gap."""

    move_set: MoveSet
    steps: int
    seed: int
    sample_gap: int = 1
    mh_correction: bool = True

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.sample_gap < 1:
            raise ValueError("sample_gap must be >= 1")


@dataclass(frozen=True)
class TradeProposal:
    """One candidate trade for a row pair.

    ``a_ij`` and ``a_ji`` are the exchangeable column sets of the two rows
    (own columns minus the other row's columns and both rows' fixed cells);
    ``b_ij`` is the replacement chosen for ``a_ij`` inside their union.
    """

    i: int
    j: int
    a_ij: frozenset[int]
    a_ji: frozenset[int]
    b_ij: frozenset[int]
    b_ji: frozenset[int]

    def apply(self, g: Realization) -> Realization:
        rows = list(g.rows)
        rows[self.i] = (rows[self.i] - self.a_ij) | self.b_ij
        rows[self.j] = (rows[self.j] - self.a_ji) | self.b_ji
        return Realization.from_rows(g.instance, rows)


@dataclass(frozen=True)
class CircleTradeProposal:
    """One candidate circle trade for an ordered row triple (i, j, k).

    The difference sets are d_ji = A_j minus (A_i and both rows' fixed
    cells), d_kj and d_ik alike.  Equal-sized subsets rotate: sub_j moves
    from row j to row i, sub_k from k to j, sub_i from i to k.
    """

    i: int
    j: int
    k: int
    d_ji: frozenset[int]
    d_kj: frozenset[int]
    d_ik: frozenset[int]
    sub_i: frozenset[int]
    sub_j: frozenset[int]
    sub_k: frozenset[int]

    def apply(self, g: Realization) -> Realization:
        rows = list(g.rows)
        rows[self.i] = (rows[self.i] - self.sub_i) | self.sub_j
        rows[self.j] = (rows[self.j] - self.sub_j) | self.sub_k
        rows[self.k] = (rows[self.k] - self.sub_k) | self.sub_i
        return Realization.from_rows(g.instance, rows)


def circle_denominator(sizes: tuple[int, int, int], x: int) -> int:
    """1/den is the probability of one specific subset triple of size x:
    the smallest difference set is drawn as a uniform subset (2^m equally
    likely outcomes), the other two as uniform x-subsets."""
    m = min(sizes)
    pivot = sizes.index(m)
    den = 1 << m
    for idx, s in enumerate(sizes):
        if idx != pivot:
            den *= comb(s, x)
    return den


def _unrank_subset(pool: list[int], k: int, index: int) -> set[int]:
    """The index-th k-subset of ``pool`` in lexicographic order.

    ``rest`` counts the subsets that take ``pool[pos]`` next, C(m, need - 1)
    with m = len(pool) - pos - 1.  One binomial starts it; each taken or
    skipped position updates it by an exact integer ratio."""
    out: set[int] = set()
    if not k:
        return out
    need = k
    m = len(pool) - 1
    rest = comb(m, k - 1)
    for col in pool:
        if index < rest:
            out.add(col)
            need -= 1
            if not need:
                break
            rest = rest * need // m
        else:
            index -= rest
            rest = rest * (m - need + 1) // m
        m -= 1
    return out


def _draw_pair(rng: random.Random, n: int) -> tuple[int, int]:
    i = rng.randrange(n)
    j = rng.randrange(n - 1)
    if j >= i:
        j += 1
    return i, j


def _movable(rows, fixed, src, dst):
    """Columns row ``src`` can hand to row ``dst``: its own, not ``dst``'s,
    and fixed in neither row."""
    out = rows[src] - rows[dst]
    out -= fixed[src]
    out -= fixed[dst]
    return out


def _exchangeable(rows, fixed, i, j):
    return _movable(rows, fixed, i, j), _movable(rows, fixed, j, i)


# Each move kind has one draw function.  It reads the rows without changing
# them and returns the drawn move, or None for the lazy step; the in-place
# kernels below apply that result to a chain's row sets, and the public
# ``propose_*`` functions wrap it into a proposal object.  With fewer than
# two rows there is no row pair: a trade or swap draw is then the lazy step
# and takes nothing from the random stream.  Circle trades need three rows,
# which their callers check.


def _draw_trade(rows, fixed, n, rng):
    """(i, j, a_ij, a_ji, b_ij): a uniform row pair and a uniform
    replacement ``b_ij`` for ``a_ij`` among the |a_ij|-subsets of the pool."""
    if n < 2:
        return None
    i, j = _draw_pair(rng, n)
    a_ij, a_ji = _exchangeable(rows, fixed, i, j)
    pool = sorted(a_ij | a_ji)
    k = len(a_ij)
    b_ij = _unrank_subset(pool, k, rng.randrange(comb(len(pool), k)))
    if b_ij == a_ij:
        return None
    return i, j, a_ij, a_ji, b_ij


def _draw_swap(rows, fixed, n, rng):
    """(i, j, a_ij, a_ji, x, y): row i gives column x to row j for column y,
    uniform among the pair's exchange options plus the lazy step."""
    if n < 2:
        return None
    i, j = _draw_pair(rng, n)
    a_ij, a_ji = _exchangeable(rows, fixed, i, j)
    n_ex = len(a_ij) * len(a_ji)
    r = rng.randrange(n_ex + 1)
    if r == n_ex:
        return None
    q, s = divmod(r, len(a_ji))
    return i, j, a_ij, a_ji, sorted(a_ij)[q], sorted(a_ji)[s]


def _circle_sets(rows, fixed, i, j, k):
    """(d_ji, d_kj, d_ik): what row j hands to i, k to j and i to k."""
    return (
        _movable(rows, fixed, j, i),
        _movable(rows, fixed, k, j),
        _movable(rows, fixed, i, k),
    )


def _draw_circle_trade(rows, fixed, n, rng):
    """(i, j, k, d_ji, d_kj, d_ik, sub_i, sub_j, sub_k) in the field order
    of ``CircleTradeProposal``; needs n >= 3."""
    i, j = _draw_pair(rng, n)
    # The t-th row other than i and j.
    k = rng.randrange(n - 2)
    if k >= min(i, j):
        k += 1
    if k >= max(i, j):
        k += 1
    sets = _circle_sets(rows, fixed, i, j, k)
    sizes = tuple(map(len, sets))
    m = min(sizes)
    if m == 0:
        return None
    pivot = sizes.index(m)
    bits = rng.getrandbits(m)
    pivot_cols = sorted(sets[pivot])
    chosen = {pivot_cols[b] for b in range(m) if bits >> b & 1}
    x = len(chosen)
    if x == 0:
        return None
    subs = [chosen] * 3
    for idx in range(3):
        if idx != pivot:
            subs[idx] = _unrank_subset(
                sorted(sets[idx]), x, rng.randrange(comb(sizes[idx], x))
            )
    return (i, j, k, *sets, subs[2], subs[0], subs[1])


def _trade_in_place(rows, fixed, n, rng) -> None:
    d = _draw_trade(rows, fixed, n, rng)
    if d is not None:
        i, j, a_ij, _, b_ij = d
        ri, rj = rows[i], rows[j]
        ri -= a_ij
        ri |= b_ij
        rj -= b_ij
        rj |= a_ij - b_ij


def _swap_in_place(rows, fixed, n, rng) -> None:
    d = _draw_swap(rows, fixed, n, rng)
    if d is not None:
        i, j, _, _, x, y = d
        rows[i].discard(x)
        rows[i].add(y)
        rows[j].discard(y)
        rows[j].add(x)


def _circle_in_place(rows, fixed, n, rng, mh_correction: bool) -> None:
    d = _draw_circle_trade(rows, fixed, n, rng)
    if d is None:
        return
    i, j, k, d_ji, d_kj, d_ik, sub_i, sub_j, sub_k = d
    ri, rj, rk = rows[i], rows[j], rows[k]
    ri -= sub_i
    ri |= sub_j
    rj -= sub_j
    rj |= sub_k
    rk -= sub_k
    rk |= sub_i
    if mh_correction:
        x = len(sub_i)
        den_fwd = circle_denominator((len(d_ji), len(d_kj), len(d_ik)), x)
        # The reverse rotation runs over the order (j, i, k) of the new state.
        reverse = _circle_sets(rows, fixed, j, i, k)
        den_rev = circle_denominator(tuple(map(len, reverse)), x)
        if den_rev > den_fwd and rng.random() >= den_fwd / den_rev:
            # Reject: undo the rotation.
            ri -= sub_j
            ri |= sub_i
            rj -= sub_k
            rj |= sub_j
            rk -= sub_i
            rk |= sub_k


def _candidate_cycle(rows_seq, cols_seq):
    """Cell sequence of the closed walk row0-col0-row1-col1-...-row0."""
    h = len(rows_seq)
    cells = []
    for t in range(h):
        cells.append((rows_seq[t], cols_seq[t]))
        cells.append((rows_seq[(t + 1) % h], cols_seq[t]))
    return cells


def _propose_bounded_cycle_swap(rows, fixed, n, n_cols, limit, rng):
    lengths = range(4, limit + 1, 2)
    length = lengths[rng.randrange(len(lengths))]
    h = length // 2
    if h > n or h > n_cols:
        return STAY
    row_pool = list(range(n))
    rows_seq = []
    for t in range(h):
        pos = rng.randrange(n - t)
        rows_seq.append(row_pool.pop(pos))
    col_pool = list(range(n_cols))
    cols_seq = []
    for t in range(h):
        pos = rng.randrange(n_cols - t)
        cols_seq.append(col_pool.pop(pos))

    cells = _candidate_cycle(rows_seq, cols_seq)
    vals = [1 if c in rows[r] else 0 for r, c in cells]
    if any(vals[t] == vals[(t + 1) % length] for t in range(length)):
        return STAY
    if any(c in fixed[r] for r, c in cells):
        return STAY
    return tuple(cells)


def _apply_cycle_to_rows(rows, cells):
    for r, c in cells:
        if c in rows[r]:
            rows[r].discard(c)
        else:
            rows[r].add(c)


def _trade_proposal(i, j, a_ij, a_ji, b_ij) -> TradeProposal:
    return TradeProposal(
        i, j, frozenset(a_ij), frozenset(a_ji),
        frozenset(b_ij), frozenset((a_ij | a_ji) - b_ij),
    )


def propose_trade(g: Realization, rng: random.Random) -> "TradeProposal | Stay":
    """Draw one trade: a uniform row pair, then a uniform replacement subset
    of the exchangeable pool.  Choosing the current subset is the lazy step."""
    d = _draw_trade(g.rows, g.instance.fixed.row_fixed(), g.instance.n, rng)
    return STAY if d is None else _trade_proposal(*d)


def propose_swap(g: Realization, rng: random.Random) -> "TradeProposal | Stay":
    """Draw one single-column exchange (or the lazy step), uniformly among
    the pair's exchange options plus Stay."""
    d = _draw_swap(g.rows, g.instance.fixed.row_fixed(), g.instance.n, rng)
    if d is None:
        return STAY
    i, j, a_ij, a_ji, x, y = d
    return _trade_proposal(i, j, a_ij, a_ji, a_ij - {x} | {y})


def propose_circle_trade(g: Realization, rng: random.Random) -> "CircleTradeProposal | Stay":
    """Draw one circle trade: a uniform ordered row triple, a uniform subset
    of the smallest difference set (binary-string draw, bits in ascending
    column order), then uniform equal-sized subsets of the other two."""
    if g.instance.n < 3:
        raise ValueError("circle trades need at least three rows")
    d = _draw_circle_trade(g.rows, g.instance.fixed.row_fixed(), g.instance.n, rng)
    if d is None:
        return STAY
    i, j, k, *sets = d
    return CircleTradeProposal(i, j, k, *map(frozenset, sets))


def propose_bounded_cycle_swap(g: Realization, limit: int, rng: random.Random):
    """Draw a cycle-swap candidate: a uniform even length up to ``limit``,
    then uniform sequences of distinct rows and columns arranged
    alternately.  Returns the cell cycle if it alternates in ``g`` and
    avoids fixed cells, else Stay.  The draw is symmetric between a state
    and its successor, so acceptance is unconditional."""
    if limit % 2 or limit < 4:
        raise ValueError("length limit must be an even integer >= 4")
    return _propose_bounded_cycle_swap(
        g.rows, g.instance.fixed.row_fixed(), g.instance.n, g.instance.n_cols, limit, rng
    )


def enumerate_trades(g: Realization, i: int, j: int) -> list:
    """All trade outcomes for the row pair (i, j): every replacement subset
    in lexicographic order, with the identity replacement reported as Stay."""
    a_ij, a_ji = _exchangeable(g.rows, g.instance.fixed.row_fixed(), i, j)
    pool = sorted(a_ij | a_ji)
    k = len(a_ij)
    out = []
    for idx in range(comb(len(pool), k)):
        b_ij = _unrank_subset(pool, k, idx)
        out.append(STAY if b_ij == a_ij else _trade_proposal(i, j, a_ij, a_ji, b_ij))
    return out


def _step_rows(rows, fixed, n, n_cols, cfg: ChainConfig, rng: random.Random) -> None:
    """One step of ``cfg``'s chain, applied to the row sets in place."""
    kind = cfg.move_set.kind
    if kind == MoveSet.TRADES:
        _trade_in_place(rows, fixed, n, rng)
    elif kind == MoveSet.SWAPS4:
        _swap_in_place(rows, fixed, n, rng)
    elif kind == MoveSet.TRADES_PLUS_CIRCLE:
        if rng.getrandbits(1) == 0:
            _trade_in_place(rows, fixed, n, rng)
        elif n >= 3:
            _circle_in_place(rows, fixed, n, rng, cfg.mh_correction)
    else:
        # Bounded cycle swaps; the 4/6-swap set is the limit-6 special case.
        if kind == MoveSet.SWAPS46:
            limit = 6
        elif kind == MoveSet.SWAPS_UP_TO:
            limit = cfg.move_set.limit
        else:
            raise ValueError(f"move set {cfg.move_set} is not a runnable chain")
        cells = _propose_bounded_cycle_swap(rows, fixed, n, n_cols, limit, rng)
        if cells is not STAY:
            _apply_cycle_to_rows(rows, cells)


def step(g: Realization, cfg: ChainConfig, rng: random.Random) -> Realization:
    """Advance one step from ``g`` under the configured move set."""
    rows = [set(r) for r in g.rows]
    inst = g.instance
    _step_rows(rows, inst.fixed.row_fixed(), inst.n, inst.n_cols, cfg, rng)
    return Realization.from_rows(inst, rows)


class Chain:
    """One seeded run of a chain from a start realization.

    The current state lives as per-row column sets; no ``Realization`` is
    built until ``realization()`` asks for one.  ``keys()`` yields a cheap
    key of the state after every ``sample_gap``-th step: the tuple of row
    frozensets, the same value as ``Realization.rows`` of that state.
    """

    def __init__(self, start: Realization, cfg: ChainConfig):
        inst = start.instance
        self.instance = inst
        self.config = cfg
        self._rows = [set(r) for r in start.rows]
        self._fixed = inst.fixed.row_fixed()
        self._rng = random.Random(cfg.seed)

    def advance(self, k: int) -> None:
        """Take ``k`` steps."""
        rows, fixed, cfg, rng = self._rows, self._fixed, self.config, self._rng
        n, nc = self.instance.n, self.instance.n_cols
        for _ in range(k):
            _step_rows(rows, fixed, n, nc, cfg, rng)

    def keys(self) -> Iterator[tuple[frozenset[int], ...]]:
        """Take ``steps - steps % sample_gap`` steps, the last kept one,
        yielding the state key after every ``sample_gap``-th of them."""
        gap = self.config.sample_gap
        for _ in range(self.config.steps // gap):
            self.advance(gap)
            yield tuple(map(frozenset, self._rows))

    def realization(self) -> Realization:
        """The current state, built and validated against the instance."""
        return Realization.from_rows(self.instance, self._rows)


def run(inst: Instance, cfg: ChainConfig) -> list[Realization]:
    """Run the chain from the deterministic initial realization and collect
    every ``sample_gap``-th state.  Identical configs give identical output.

    Every kept state is built and validated as a ``Realization``, which
    costs far more than a step on large grids; long chains that need only
    visit counts or the last state should drive a ``Chain`` directly."""
    chain = Chain(initial_realization(inst), cfg)
    return [chain.realization() for _ in chain.keys()]
