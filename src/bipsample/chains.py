"""The Markov chains: pair trades, single swaps, circle trades over row
triples, and bounded cycle swaps.

Randomness contract: one seeded ``random.Random`` per run; each step draws
in a fixed, documented order (row pair or triple indices first, then the
subset choice, then - for circle trades with the Metropolis correction on,
and only when the acceptance ratio is below one - the acceptance variate).
Streams are reproducible for a fixed seed within this implementation.
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

    def apply_to_rows(self, rows: list[set[int]]) -> None:
        rows[self.i] = (rows[self.i] - self.a_ij) | self.b_ij
        rows[self.j] = (rows[self.j] - self.a_ji) | self.b_ji

    def apply(self, g: Realization) -> Realization:
        rows = [set(r) for r in g.rows]
        self.apply_to_rows(rows)
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

    @property
    def size(self) -> int:
        return len(self.sub_i)

    def apply_to_rows(self, rows: list[set[int]]) -> None:
        rows[self.i] = (rows[self.i] - self.sub_i) | self.sub_j
        rows[self.j] = (rows[self.j] - self.sub_j) | self.sub_k
        rows[self.k] = (rows[self.k] - self.sub_k) | self.sub_i

    def apply(self, g: Realization) -> Realization:
        rows = [set(r) for r in g.rows]
        self.apply_to_rows(rows)
        return Realization.from_rows(g.instance, rows)

    def forward_denominator(self) -> int:
        """Denominator of the subset-choice probability (numerator is 1)."""
        return circle_denominator(
            (len(self.d_ji), len(self.d_kj), len(self.d_ik)), self.size
        )


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
    """The index-th k-subset of ``pool`` in lexicographic order."""
    out: set[int] = set()
    start = 0
    need = k
    while need:
        for pos in range(start, len(pool)):
            rest = comb(len(pool) - pos - 1, need - 1)
            if index < rest:
                out.add(pool[pos])
                start = pos + 1
                need -= 1
                break
            index -= rest
    return out


def _draw_pair(rng: random.Random, n: int) -> tuple[int, int]:
    i = rng.randrange(n)
    j = rng.randrange(n - 1)
    if j >= i:
        j += 1
    return i, j


def _exchangeable(rows, fixed, i, j):
    blocked = fixed[i] | fixed[j]
    a_ij = rows[i] - rows[j] - blocked
    a_ji = rows[j] - rows[i] - blocked
    return a_ij, a_ji


def _propose_trade(rows, fixed, n, rng) -> "TradeProposal | Stay":
    i, j = _draw_pair(rng, n)
    a_ij, a_ji = _exchangeable(rows, fixed, i, j)
    pool = sorted(a_ij | a_ji)
    k = len(a_ij)
    b_ij = _unrank_subset(pool, k, rng.randrange(comb(len(pool), k)))
    if b_ij == a_ij:
        return STAY
    return TradeProposal(
        i, j, frozenset(a_ij), frozenset(a_ji),
        frozenset(b_ij), frozenset(set(pool) - b_ij),
    )


def _propose_swap(rows, fixed, n, rng) -> "TradeProposal | Stay":
    i, j = _draw_pair(rng, n)
    a_ij, a_ji = _exchangeable(rows, fixed, i, j)
    outs = sorted(a_ij)
    ins = sorted(a_ji)
    n_ex = len(outs) * len(ins)
    r = rng.randrange(n_ex + 1)
    if r == n_ex:
        return STAY
    x = outs[r // len(ins)]
    y = ins[r % len(ins)]
    return TradeProposal(
        i, j, frozenset(a_ij), frozenset(a_ji),
        frozenset(a_ij - {x} | {y}), frozenset(a_ji - {y} | {x}),
    )


def _circle_sets(rows, fixed, i, j, k):
    d_ji = rows[j] - rows[i] - fixed[i] - fixed[j]
    d_kj = rows[k] - rows[j] - fixed[j] - fixed[k]
    d_ik = rows[i] - rows[k] - fixed[k] - fixed[i]
    return d_ji, d_kj, d_ik


def _propose_circle_trade(rows, fixed, n, rng) -> "CircleTradeProposal | Stay":
    i, j = _draw_pair(rng, n)
    rem = [r for r in range(n) if r != i and r != j]
    k = rem[rng.randrange(n - 2)]
    d_ji, d_kj, d_ik = _circle_sets(rows, fixed, i, j, k)
    sets = (sorted(d_ji), sorted(d_kj), sorted(d_ik))
    sizes = (len(d_ji), len(d_kj), len(d_ik))
    m = min(sizes)
    if m == 0:
        return STAY
    pivot = sizes.index(m)
    bits = rng.getrandbits(m)
    chosen = {sets[pivot][b] for b in range(m) if bits >> b & 1}
    x = len(chosen)
    if x == 0:
        return STAY
    subs: list[set[int]] = [set(), set(), set()]
    subs[pivot] = chosen
    for idx in range(3):
        if idx != pivot:
            subs[idx] = _unrank_subset(
                sets[idx], x, rng.randrange(comb(sizes[idx], x))
            )
    return CircleTradeProposal(
        i, j, k, frozenset(d_ji), frozenset(d_kj), frozenset(d_ik),
        sub_i=frozenset(subs[2]), sub_j=frozenset(subs[0]), sub_k=frozenset(subs[1]),
    )


def reverse_circle_denominator(rows_after, fixed, proposal: CircleTradeProposal) -> int:
    """Subset-choice denominator of the reverse circle trade, evaluated on
    the successor state (reverse rotation runs over the order (j, i, k))."""
    i, j, k = proposal.i, proposal.j, proposal.k
    r_ij = rows_after[i] - rows_after[j] - fixed[j] - fixed[i]
    r_ki = rows_after[k] - rows_after[i] - fixed[i] - fixed[k]
    r_jk = rows_after[j] - rows_after[k] - fixed[k] - fixed[j]
    return circle_denominator((len(r_ij), len(r_ki), len(r_jk)), proposal.size)


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


def propose_trade(g: Realization, rng: random.Random) -> "TradeProposal | Stay":
    """Draw one trade: a uniform row pair, then a uniform replacement subset
    of the exchangeable pool.  Choosing the current subset is the lazy step."""
    rows = [set(r) for r in g.rows]
    return _propose_trade(rows, g.instance.fixed.row_fixed(), g.instance.n, rng)


def propose_swap(g: Realization, rng: random.Random) -> "TradeProposal | Stay":
    """Draw one single-column exchange (or the lazy step), uniformly among
    the pair's exchange options plus Stay."""
    rows = [set(r) for r in g.rows]
    return _propose_swap(rows, g.instance.fixed.row_fixed(), g.instance.n, rng)


def propose_circle_trade(g: Realization, rng: random.Random) -> "CircleTradeProposal | Stay":
    """Draw one circle trade: a uniform ordered row triple, a uniform subset
    of the smallest difference set (binary-string draw, bits in ascending
    column order), then uniform equal-sized subsets of the other two."""
    if g.instance.n < 3:
        raise ValueError("circle trades need at least three rows")
    rows = [set(r) for r in g.rows]
    return _propose_circle_trade(rows, g.instance.fixed.row_fixed(), g.instance.n, rng)


def propose_bounded_cycle_swap(g: Realization, limit: int, rng: random.Random):
    """Draw a cycle-swap candidate: a uniform even length up to ``limit``,
    then uniform sequences of distinct rows and columns arranged
    alternately.  Returns the cell cycle if it alternates in ``g`` and
    avoids fixed cells, else Stay.  The draw is symmetric between a state
    and its successor, so acceptance is unconditional."""
    if limit % 2 or limit < 4:
        raise ValueError("length limit must be an even integer >= 4")
    rows = [set(r) for r in g.rows]
    return _propose_bounded_cycle_swap(
        rows, g.instance.fixed.row_fixed(), g.instance.n, g.instance.n_cols, limit, rng
    )


def enumerate_trades(g: Realization, i: int, j: int) -> list:
    """All trade outcomes for the row pair (i, j): every replacement subset
    in lexicographic order, with the identity replacement reported as Stay."""
    rows = [set(r) for r in g.rows]
    fixed = g.instance.fixed.row_fixed()
    a_ij, a_ji = _exchangeable(rows, fixed, i, j)
    pool = sorted(a_ij | a_ji)
    k = len(a_ij)
    out = []
    for idx in range(comb(len(pool), k)):
        b_ij = _unrank_subset(pool, k, idx)
        if b_ij == a_ij:
            out.append(STAY)
        else:
            out.append(
                TradeProposal(
                    i, j, frozenset(a_ij), frozenset(a_ji),
                    frozenset(b_ij), frozenset(set(pool) - b_ij),
                )
            )
    return out


def _step_rows(rows, fixed, n, n_cols, cfg: ChainConfig, rng: random.Random) -> None:
    kind = cfg.move_set.kind
    if kind == MoveSet.TRADES:
        p = _propose_trade(rows, fixed, n, rng)
        if p is not STAY:
            p.apply_to_rows(rows)
    elif kind == MoveSet.SWAPS4:
        p = _propose_swap(rows, fixed, n, rng)
        if p is not STAY:
            p.apply_to_rows(rows)
    elif kind == MoveSet.TRADES_PLUS_CIRCLE:
        if rng.getrandbits(1) == 0:
            p = _propose_trade(rows, fixed, n, rng)
            if p is not STAY:
                p.apply_to_rows(rows)
        else:
            if n < 3:
                return
            p = _propose_circle_trade(rows, fixed, n, rng)
            if p is STAY:
                return
            den_fwd = p.forward_denominator()
            p.apply_to_rows(rows)
            if cfg.mh_correction:
                den_rev = reverse_circle_denominator(rows, fixed, p)
                if den_rev > den_fwd and rng.random() >= den_fwd / den_rev:
                    # Reject: undo the rotation.
                    rows[p.i] = (rows[p.i] - p.sub_j) | p.sub_i
                    rows[p.j] = (rows[p.j] - p.sub_k) | p.sub_j
                    rows[p.k] = (rows[p.k] - p.sub_i) | p.sub_k
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
