"""The Markov chains: pair trades, single swaps, circle trades over row
triples, and bounded cycle swaps.

Randomness contract: one seeded ``random.Random`` per run; each step draws
in a fixed, documented order (row pair or triple indices first, then the
subset choice, then - for circle trades with the Metropolis correction on,
and only when the acceptance ratio is below one - the acceptance variate).
Streams are reproducible for a fixed seed within this implementation.

State representation: the chain layer keeps a state as one int per row, a
bit mask with bit j set when the row has column j, and the fixed cells of
each row as a mask of the same form.  Every step kernel works on these
masks in place.  Each move kind has one draw function, whose result an
in-place kernel applies and the public ``propose_*`` functions decode into
a proposal object of column frozensets; both paths make the same draws in
the same order, so they share one random stream.  Masks are built from and
decoded into ``Realization`` objects only at the boundary: ``Chain``'s
constructor and ``realization()``, ``step``, ``propose_*``,
``enumerate_trades`` and ``state_key``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator

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


# ---------------------------------------------------------------------------
# Row masks: bit j of a row's int is set when the row has column j.


def _mask(cols: Iterable[int]) -> int:
    out = 0
    for j in cols:
        out |= 1 << j
    return out


def _cols(mask: int) -> frozenset[int]:
    """The columns whose bits are set in ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def state_key(g: Realization) -> tuple[int, ...]:
    """The key ``Chain.keys()`` yields for the state ``g``: one column mask
    per row, bit j set when the row has column j."""
    return tuple(map(_mask, g.rows))


def _fixed_masks(inst: Instance) -> tuple[int, ...]:
    """Per-row masks of the fixed cells, both polarities."""
    return tuple(map(_mask, inst.fixed.row_fixed()))


# Maps the binary digits "0" and "1" to the values 0 and 1.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _realization(inst: Instance, rows) -> Realization:
    """The state of the row masks ``rows``, built and validated.  Each
    matrix row is a bytes object of 0/1 values: the binary digits of the
    mask below a sentinel bit at column n_cols, lowest column first, with
    the sentinel dropped."""
    top = 1 << inst.n_cols
    return Realization(
        inst, [format(m | top, "b")[:0:-1].encode().translate(_DIGIT_VALUES) for m in rows]
    )


def _below(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for n >= 1: the same ``getrandbits`` draws as
    CPython 3.10-3.13's ``_randbelow``, without randrange's two Python
    frames.  For n = 0 it would loop forever; every caller passes n >= 1."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _nth_bit(x: int, q: int) -> int:
    """The q-th lowest set bit of ``x``, as a one-bit mask."""
    for _ in range(q):
        x &= x - 1
    return x & -x


def _distinct(rng: random.Random, n: int, h: int) -> list[int]:
    """h distinct indices below n, the t-th being the pos-th index not yet
    drawn, counting upward, for a uniform pos below n - t.  The drawn
    indices are bits of ``taken``; each one at or below the running answer
    pushes it up by one."""
    out = []
    taken = 0
    for t in range(h):
        pos = _below(rng, n - t)
        rest = taken
        while rest:
            low = rest & -rest
            if low > 1 << pos:
                break
            pos += 1
            rest ^= low
        taken |= 1 << pos
        out.append(pos)
    return out


def _unrank_subset(pool: int, k: int, index: int) -> int:
    """The index-th k-subset of the columns in ``pool`` in lexicographic
    order, walking the pool's bits from the lowest column up.

    ``rest`` counts the subsets that take the current column next,
    C(m, need - 1) with m the pool columns above it.  One binomial starts
    it; each taken or skipped column updates it by an exact integer ratio."""
    out = 0
    if not k:
        return out
    need = k
    m = pool.bit_count() - 1
    rest = comb(m, k - 1)
    while pool:
        low = pool & -pool
        pool ^= low
        if index < rest:
            out |= low
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
    i = _below(rng, n)
    j = _below(rng, n - 1)
    if j >= i:
        j += 1
    return i, j


def _movable(rows, fixed, src, dst):
    """Columns row ``src`` can hand to row ``dst``: its own, not ``dst``'s,
    and fixed in neither row."""
    return rows[src] & ~rows[dst] & ~(fixed[src] | fixed[dst])


def _exchangeable(rows, fixed, i, j):
    """``_movable`` both ways for the row pair (i, j)."""
    ri, rj = rows[i], rows[j]
    blocked = fixed[i] | fixed[j]
    return ri & ~(rj | blocked), rj & ~(ri | blocked)


# Each move kind has one draw function.  It reads the row masks without
# changing them and returns the drawn move, or None for the lazy step; the
# in-place kernels below apply that result to a chain's row masks, and the
# public ``propose_*`` functions decode it into a proposal object.  With
# fewer than two rows there is no row pair: a trade or swap draw is then the
# lazy step and takes nothing from the random stream.  Circle trades need
# three rows, which their callers check.


def _draw_trade(rows, fixed, n, rng):
    """(i, j, a_ij, a_ji, b_ij): a uniform row pair and a uniform
    replacement ``b_ij`` for ``a_ij`` among the |a_ij|-subsets of the pool."""
    if n < 2:
        return None
    i, j = _draw_pair(rng, n)
    a_ij, a_ji = _exchangeable(rows, fixed, i, j)
    pool = a_ij | a_ji
    k = a_ij.bit_count()
    b_ij = _unrank_subset(pool, k, _below(rng, comb(pool.bit_count(), k)))
    if b_ij == a_ij:
        return None
    return i, j, a_ij, a_ji, b_ij


def _draw_swap(rows, fixed, n, rng):
    """(i, j, a_ij, a_ji, x, y): row i gives column bit x to row j for
    column bit y, uniform among the pair's exchange options plus the lazy
    step."""
    if n < 2:
        return None
    i, j = _draw_pair(rng, n)
    a_ij, a_ji = _exchangeable(rows, fixed, i, j)
    n_ji = a_ji.bit_count()
    n_ex = a_ij.bit_count() * n_ji
    r = _below(rng, n_ex + 1)
    if r == n_ex:
        return None
    q, s = divmod(r, n_ji)
    return i, j, a_ij, a_ji, _nth_bit(a_ij, q), _nth_bit(a_ji, s)


def _circle_sets(rows, fixed, i, j, k):
    """(d_ji, d_kj, d_ik): what row j hands to i, k to j and i to k."""
    return (
        _movable(rows, fixed, j, i),
        _movable(rows, fixed, k, j),
        _movable(rows, fixed, i, k),
    )


def _draw_circle_trade(rows, fixed, n, rng):
    """(i, j, k, d_ji, d_kj, d_ik, sub_i, sub_j, sub_k) in the field order
    of ``CircleTradeProposal``, as masks; needs n >= 3."""
    i, j = _draw_pair(rng, n)
    # The t-th row other than i and j.
    k = _below(rng, n - 2)
    if k >= min(i, j):
        k += 1
    if k >= max(i, j):
        k += 1
    sets = _circle_sets(rows, fixed, i, j, k)
    sizes = [s.bit_count() for s in sets]
    m = min(sizes)
    if m == 0:
        return None
    pivot = sizes.index(m)
    # Bit b of ``bits`` picks the b-th lowest column of the pivot set.
    bits = rng.getrandbits(m)
    if not bits:
        return None
    x = bits.bit_count()
    rest = sets[pivot]
    chosen = 0
    while bits:
        low = rest & -rest
        rest ^= low
        if bits & 1:
            chosen |= low
        bits >>= 1
    subs = [chosen] * 3
    for idx in range(3):
        if idx != pivot:
            subs[idx] = _unrank_subset(
                sets[idx], x, _below(rng, comb(sizes[idx], x))
            )
    return (i, j, k, *sets, subs[2], subs[0], subs[1])


# The kernels flip bits: a move hands each moved column from a row that has
# it to a row that lacks it, so every changed row changes by an XOR.


def _trade_in_place(rows, fixed, n, rng) -> None:
    d = _draw_trade(rows, fixed, n, rng)
    if d is not None:
        i, j, a_ij, _, b_ij = d
        flip = a_ij ^ b_ij
        rows[i] ^= flip
        rows[j] ^= flip


def _swap_in_place(rows, fixed, n, rng) -> None:
    d = _draw_swap(rows, fixed, n, rng)
    if d is not None:
        i, j, _, _, x, y = d
        rows[i] ^= x | y
        rows[j] ^= x | y


def _circle_in_place(rows, fixed, n, rng, mh_correction: bool) -> None:
    d = _draw_circle_trade(rows, fixed, n, rng)
    if d is None:
        return
    i, j, k, d_ji, d_kj, d_ik, sub_i, sub_j, sub_k = d
    flip_i, flip_j, flip_k = sub_i | sub_j, sub_j | sub_k, sub_k | sub_i
    rows[i] ^= flip_i
    rows[j] ^= flip_j
    rows[k] ^= flip_k
    if mh_correction:
        x = sub_i.bit_count()
        sizes = (d_ji.bit_count(), d_kj.bit_count(), d_ik.bit_count())
        den_fwd = circle_denominator(sizes, x)
        # The reverse rotation runs over the order (j, i, k) of the new state.
        reverse = _circle_sets(rows, fixed, j, i, k)
        den_rev = circle_denominator(tuple(s.bit_count() for s in reverse), x)
        if den_rev > den_fwd and rng.random() >= den_fwd / den_rev:
            # Reject: undo the rotation.
            rows[i] ^= flip_i
            rows[j] ^= flip_j
            rows[k] ^= flip_k


def _draw_cycle(rows, fixed, n, n_cols, limit, rng):
    """(rows_seq, cols_seq): a uniform even length up to ``limit``, then
    uniform sequences of distinct rows and of distinct columns.  None
    unless the closed walk row0-col0-row1-col1-...-row0 alternates and
    avoids fixed cells, which is checked row by row, stopping at the first
    failure, after every draw is made."""
    h = 2 + _below(rng, limit // 2 - 1)
    if h > n or h > n_cols:
        return None
    rows_seq = _distinct(rng, n, h)
    cols_seq = _distinct(rng, n_cols, h)
    # Row r_t holds cells (r_t, c_t) and (r_t, c_{t-1}); along the walk the
    # first has the value of (r_0, c_0), the second the other value.
    first_one = rows[rows_seq[0]] >> cols_seq[0] & 1
    prev = 1 << cols_seq[-1]
    for r, c in zip(rows_seq, cols_seq):
        cur = 1 << c
        pair = cur | prev
        if rows[r] & pair != (cur if first_one else prev) or fixed[r] & pair:
            return None
        prev = cur
    return rows_seq, cols_seq


def _candidate_cycle(rows_seq, cols_seq):
    """Cell sequence of the closed walk row0-col0-row1-col1-...-row0."""
    h = len(rows_seq)
    cells = []
    for t in range(h):
        cells.append((rows_seq[t], cols_seq[t]))
        cells.append((rows_seq[(t + 1) % h], cols_seq[t]))
    return cells


def _cycle_in_place(rows, fixed, n, n_cols, limit, rng) -> None:
    d = _draw_cycle(rows, fixed, n, n_cols, limit, rng)
    if d is not None:
        rows_seq, cols_seq = d
        prev = 1 << cols_seq[-1]
        for r, c in zip(rows_seq, cols_seq):
            cur = 1 << c
            rows[r] ^= cur | prev
            prev = cur


def _trade_proposal(i, j, a_ij, a_ji, b_ij) -> TradeProposal:
    return TradeProposal(
        i, j, _cols(a_ij), _cols(a_ji), _cols(b_ij), _cols((a_ij | a_ji) ^ b_ij)
    )


def _masks_of(g: Realization):
    """The row masks of ``g`` and of its instance's fixed cells."""
    return state_key(g), _fixed_masks(g.instance)


def propose_trade(g: Realization, rng: random.Random) -> "TradeProposal | Stay":
    """Draw one trade: a uniform row pair, then a uniform replacement subset
    of the exchangeable pool.  Choosing the current subset is the lazy step."""
    d = _draw_trade(*_masks_of(g), g.instance.n, rng)
    return STAY if d is None else _trade_proposal(*d)


def propose_swap(g: Realization, rng: random.Random) -> "TradeProposal | Stay":
    """Draw one single-column exchange (or the lazy step), uniformly among
    the pair's exchange options plus Stay."""
    d = _draw_swap(*_masks_of(g), g.instance.n, rng)
    if d is None:
        return STAY
    i, j, a_ij, a_ji, x, y = d
    return _trade_proposal(i, j, a_ij, a_ji, a_ij ^ x | y)


def propose_circle_trade(g: Realization, rng: random.Random) -> "CircleTradeProposal | Stay":
    """Draw one circle trade: a uniform ordered row triple, a uniform subset
    of the smallest difference set (binary-string draw, bits in ascending
    column order), then uniform equal-sized subsets of the other two."""
    if g.instance.n < 3:
        raise ValueError("circle trades need at least three rows")
    d = _draw_circle_trade(*_masks_of(g), g.instance.n, rng)
    if d is None:
        return STAY
    i, j, k, *sets = d
    return CircleTradeProposal(i, j, k, *map(_cols, sets))


def propose_bounded_cycle_swap(g: Realization, limit: int, rng: random.Random):
    """Draw a cycle-swap candidate: a uniform even length up to ``limit``,
    then uniform sequences of distinct rows and columns arranged
    alternately.  Returns the cell cycle if it alternates in ``g`` and
    avoids fixed cells, else Stay.  The draw is symmetric between a state
    and its successor, so acceptance is unconditional."""
    if limit % 2 or limit < 4:
        raise ValueError("length limit must be an even integer >= 4")
    inst = g.instance
    d = _draw_cycle(*_masks_of(g), inst.n, inst.n_cols, limit, rng)
    return STAY if d is None else tuple(_candidate_cycle(*d))


def enumerate_trades(g: Realization, i: int, j: int) -> list:
    """All trade outcomes for the row pair (i, j): every replacement subset
    in lexicographic order, with the identity replacement reported as Stay."""
    a_ij, a_ji = _exchangeable(*_masks_of(g), i, j)
    pool = a_ij | a_ji
    k = a_ij.bit_count()
    out = []
    for idx in range(comb(pool.bit_count(), k)):
        b_ij = _unrank_subset(pool, k, idx)
        out.append(STAY if b_ij == a_ij else _trade_proposal(i, j, a_ij, a_ji, b_ij))
    return out


def _step_rows(rows, fixed, n, n_cols, cfg: ChainConfig, rng: random.Random) -> None:
    """One step of ``cfg``'s chain, applied to the row masks in place."""
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
        _cycle_in_place(rows, fixed, n, n_cols, limit, rng)


def step(g: Realization, cfg: ChainConfig, rng: random.Random) -> Realization:
    """Advance one step from ``g`` under the configured move set."""
    rows, fixed = _masks_of(g)
    rows = list(rows)
    inst = g.instance
    _step_rows(rows, fixed, inst.n, inst.n_cols, cfg, rng)
    return _realization(inst, rows)


class Chain:
    """One seeded run of a chain from a start realization.

    The current state lives as one column mask per row; no ``Realization``
    is built until ``realization()`` asks for one.  ``keys()`` yields a
    cheap key of the state after every ``sample_gap``-th step: the tuple of
    row masks, the value ``state_key`` gives for that state's
    ``Realization``.
    """

    def __init__(self, start: Realization, cfg: ChainConfig):
        inst = start.instance
        self.instance = inst
        self.config = cfg
        rows, self._fixed = _masks_of(start)
        self._rows = list(rows)
        self._rng = random.Random(cfg.seed)

    def advance(self, k: int) -> None:
        """Take ``k`` steps."""
        rows, fixed, cfg, rng = self._rows, self._fixed, self.config, self._rng
        n, nc = self.instance.n, self.instance.n_cols
        for _ in range(k):
            _step_rows(rows, fixed, n, nc, cfg, rng)

    def keys(self) -> Iterator[tuple[int, ...]]:
        """Take ``steps - steps % sample_gap`` steps, the last kept one,
        yielding the state key after every ``sample_gap``-th of them."""
        gap = self.config.sample_gap
        for _ in range(self.config.steps // gap):
            self.advance(gap)
            yield tuple(self._rows)

    def realization(self) -> Realization:
        """The current state, built and validated against the instance."""
        return _realization(self.instance, self._rows)


def run(inst: Instance, cfg: ChainConfig) -> list[Realization]:
    """Run the chain from the deterministic initial realization and collect
    every ``sample_gap``-th state.  Identical configs give identical output.

    Every kept state is built and validated as a ``Realization``, which
    costs far more than a step on large grids; long chains that need only
    visit counts or the last state should drive a ``Chain`` directly."""
    chain = Chain(initial_realization(inst), cfg)
    return [chain.realization() for _ in chain.keys()]
