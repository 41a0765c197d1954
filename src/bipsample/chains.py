"""The Markov chains: pair trades, single swaps, circle trades over row
triples, and bounded cycle swaps.

Randomness contract: one seeded ``random.Random`` per run; each step draws
in a fixed, documented order (under trades+circle a coin bit first, then
the row pair or triple indices, then the subset choice, then - for circle
trades with the Metropolis correction on, and only when the acceptance
ratio is below one - the acceptance variate; a bounded cycle swap draws
its length, then its walk's rows and columns in walk order, row 0,
column 0, row 1, column 1, and so on).  A circle trade tests its three
difference sets in a fixed order and ends at the first empty one, with no
draw after its triple; a cycle swap checks each cell of its walk as soon
as the cell's row and column are drawn, and ends at the first cell that
fails, with no further draw.  On grids of at most ``_NARROW`` columns a
circle trade's pivot subset is one ``getrandbits(m)`` string deposited
on the pivot set's m columns, and every other uniform k-subset of a
p-column pool is drawn by its rank.  On wider grids the pivot subset is
the pivot set's mask AND one ``getrandbits`` word as wide as that mask,
and every other subset comes from ``_draw_subset``: nothing when the
pool has one k-subset, otherwise tries of the pool AND t words of
random bits, t = 1, 2 or 3 by (p, k), or its rank when no such try is
accepted with probability 1/32 (see "Subset ranks").  Streams are
reproducible for a fixed seed within this implementation.

State representation: the chain layer keeps a state as one int per row, a
bit mask with bit j set when the row has column j, and the fixed cells of
each row as a mask of the same form.  Each move kind has one block kernel,
``_trades`` (which also takes the circle-trade steps of trades+circle),
``_swaps`` or ``_cycles``: a generator that a ``Chain`` primes once, so
its set-up is paid once per chain, and whose ``send(k)`` takes k steps on
these masks in place in its one Python frame.  They are the masks a
``Realization`` holds: ``Chain``'s constructor copies its start's
``masks``, and ``realization()`` stores the current ones through
``Realization.from_masks``.  ``digit_rows()`` checks the state and gives
its text straight from the masks (``core.check_masks``), and ``restart(seed)``
reruns a chain from its start with a new seed in place, so ``bipsample
sample --count m`` builds one ``Chain`` and no ``Realization`` of its
samples.

Subset ranks: on grids of at most ``_NARROW`` = 8 columns a trade or
circle step draws a uniform index below C(r, k) and reads the index-th
k-subset of its r-column pool, with the count and its bit length, from a
rank table (``_rank_table``, built once per grid width on first use):
every k-subset of every pool, 3^8 = 6,561 subsets at width 8.  The table
is filled by ``_unrank_subset``, the rank-to-subset walk, so the walk
defines the rank order.  On wider grids ``_draw_subset`` draws the subset
by tries of the pool AND t random words, which keep each pool column with
probability 2^-t: t = 1, 2 or 3 as min(k, p - k)/p is at least 0.35, at
least 0.175 or below, or another t if that one's tries are accepted with
probability below 1/32 and its are not.  When no t reaches 1/32 it draws
an index below C(p, k) and walks it by the same ``_unrank_subset``.  The
plan of each (p, k), and C(p, k) when it walks, is worked out in integers
on its first use in the process (``_try_words``, one bounded cache that
every chain shares) and kept by the kernel.  The walk starts
from C(p - 1, k - 1) = C(p, k) k / p, the count of subsets that take the
lowest column, and follows it column by column by exact ratios, so once a
plan exists a draw computes no binomial.  Every binomial, those of a
circle trade's Metropolis test (``circle_denominator``) too, is a
``math.comb`` call.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb
from typing import Iterator

from .core import Instance, MoveSet, Realization, check_masks
from .realizability import initial_realization


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
        # random.Random(-s) draws the stream of Random(s).
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def circle_denominator(sizes: tuple[int, int, int], x: int) -> int:
    """1/den is the probability of one specific subset triple of size x:
    the smallest difference set is drawn as a uniform subset (2^m equally
    likely outcomes), the other two as uniform x-subsets.  Tied minima give
    the same value whichever of them is the pivot."""
    a, b, c = sizes
    if a <= b and a <= c:
        return comb(b, x) * comb(c, x) << a
    if b <= c:
        return comb(a, x) * comb(c, x) << b
    return comb(a, x) * comb(b, x) << c


# ---------------------------------------------------------------------------
# Subset ranks: the k-subsets of a pool of columns, itself a row mask.


def _unrank_subset(pool: int, k: int, index: int, total: int) -> int:
    """The index-th k-subset of the columns in ``pool`` in lexicographic
    order, walking the pool's bits from the lowest column up; ``total`` is
    C(p, k) for the pool's p columns.

    With m columns after the current one and ``need`` still to take,
    ``rest`` = C(m, need - 1) counts the subsets that take the current
    column: the walk takes it iff index < rest, and otherwise skips those
    subsets, index -= rest.  It starts from C(p - 1, k - 1) =
    total * k / p and follows each column by an exact ratio, so the walk
    computes no binomial of its own."""
    out = 0
    if not k:
        return out
    need = k
    m = pool.bit_count() - 1
    rest = total * k // (m + 1)
    while True:
        low = pool & -pool
        pool ^= low
        if index < rest:
            out |= low
            need -= 1
            if not need:
                return out
            rest = rest * need // m
        else:
            index -= rest
            rest = rest * (m - need + 1) // m
        m -= 1


# Plans are shared by every chain of the process: a fresh chain on a
# 100x100 grid draws 500-700 of them, each a few microseconds of integer
# arithmetic.  The bound keeps a process that draws on ever wider grids
# from holding every plan it met.
@lru_cache(maxsize=1 << 13)
def _try_words(p, k):
    """How ``_draw_subset`` draws a k-subset of a p-column pool: 0 when
    the pool has one k-subset (no draw), -C(p, k) when it walks a drawn
    index below C(p, k), and otherwise the number t of random words one
    try ANDs together, a density of 2^-t per pool column.  With
    j = min(k, p - k), t is 1 when j/p >= 0.35, 2 when j/p >= 0.175 and 3
    below that.  A try with density q is accepted with probability
    C(p, k) (q^k (1 - q)^(p - k) + q^(p - k) (1 - q)^k), one term when
    k = p - k; if that falls below 1/32, the other densities are tried,
    the lowest t first, and the draw walks when none reaches it.  Integer
    arithmetic only, so the choice is the same on every platform, and a
    pure function of (p, k), so cached once per process."""
    total = comb(p, k)
    if total == 1:
        return 0
    j = min(k, p - k)
    first = 1 if 20 * j >= 7 * p else 2 if 40 * j >= 7 * p else 3
    for t in (first, 1, 2, 3):
        # 2^(tp) times the acceptance, over C(p, k).
        b = (1 << t) - 1
        hits = b ** (p - j) + b ** j if 2 * j < p else b ** j
        if total * hits << 5 >> t * p:  # accepted with probability >= 1/32
            return t
    return -total


def _draw_subset(pool, k, getrandbits, plans):
    """A uniform k-subset of the columns in ``pool``: the trade kinds' draw
    on grids wider than ``_NARROW``.  ``plans[p][k]`` is the plan of a
    p-column pool (``_try_words``), read from the process's plan cache on
    the kernel's first use, in a row allocated when a pool of p columns is
    first drawn.  A pool with one k-subset (k = 0 or k = p) draws
    nothing.  A try ANDs the pool with t words of
    ``getrandbits(pool.bit_length())``, so that S keeps each pool column
    independently with probability 2^-t; it is repeated until |S| = k
    (giving S) or |S| = p - k (giving pool ^ S).  Given its size,
    S is uniform over the subsets of that size, so each branch, and so
    their mix, is uniform over the k-subsets.  A walk draws a uniform
    index below C(p, k), held in its plan, and walks it by
    ``_unrank_subset``."""
    p = pool.bit_count()
    row = plans[p]
    if row is None:
        row = plans[p] = [None] * (p + 1)
    words = row[k]
    if words is None:
        words = row[k] = _try_words(p, k)
    if words > 0:
        width = pool.bit_length()
        rest = p - k
        while True:
            s = pool & getrandbits(width)
            if words > 1:
                s &= getrandbits(width)
                if words > 2:
                    s &= getrandbits(width)
            c = s.bit_count()
            if c == k:
                return s
            if c == rest:
                return pool ^ s
    if not words:
        return pool if k else 0
    total = -words
    bits = total.bit_length()
    r = getrandbits(bits)
    while r >= total:
        r = getrandbits(bits)
    return _unrank_subset(pool, k, r, total)


# The widest grid whose trade kernels read subsets from a rank table.
_NARROW = 8


@lru_cache(maxsize=_NARROW + 1)
def _rank_table(n_cols: int) -> tuple[tuple[int, int, tuple[int, ...]] | None, ...]:
    """The k-subsets of every pool of ``n_cols`` columns: slot
    ``pool << 4 | k`` holds C(|pool|, k), its bit length and the subsets
    in rank order, each from ``_unrank_subset``; slots with k > |pool| are
    None.  Every pool together holds 3^n_cols subsets.  The chains of one
    grid width share one table, built on first use."""
    slots = [None] * (1 << n_cols << 4)
    for pool in range(1 << n_cols):
        r = pool.bit_count()
        for k in range(r + 1):
            total = comb(r, k)
            subsets = tuple(_unrank_subset(pool, k, index, total) for index in range(total))
            slots[pool << 4 | k] = (total, total.bit_length(), subsets)
    return tuple(slots)


# ---------------------------------------------------------------------------
# Block kernels.  Each is a generator that takes the steps of one move kind
# on the row masks in place: primed once per chain, it binds the rng's
# methods, the bit lengths and its tables on the way to its first
# ``yield``, and each ``send(k)`` then takes k steps in its frame.
#
# Every draw below n is CPython 3.10-3.13's ``randrange(n)``, inlined: with
# b = n.bit_length(), ``r = getrandbits(b)`` until r < n.  A draw below 1
# still takes getrandbits(1) until it gives 0.  With fewer than two rows
# there is no row pair: a trade or swap step is then the lazy step and
# takes nothing from the random stream; so is a circle step with fewer
# than three rows.
#
# A move hands each moved column from a row that has it to a row that
# lacks it, so every changed row changes by an XOR.


def _trades(rows, fixed, n, rng, n_cols, circle=None, ranks=None):
    """Trade steps: a uniform ordered row pair (i, j), then a uniform
    replacement for a_ij among the |a_ij|-subsets of the pool a_ij | a_ji,
    the free columns where the two rows differ.  Drawing a_ij itself is the
    lazy step.  When ``ranks`` is the grid width's ``_rank_table``, each
    subset is drawn as a uniform index into one slot of that table, which
    holds the count and its bit length.  Otherwise ``_draw_subset`` draws
    it on the kernel's plans, one entry per pool size up to ``n_cols``.

    With ``circle`` set to the Metropolis flag, each step first draws one
    bit; on a 1 it is a circle trade instead (the lazy step when n < 3).
    A circle trade draws a uniform ordered row triple (i, j, t).  Its three
    difference sets are what j can hand to i, t to j and i to t, tested in
    that order: the step ends at the first empty one, with no draw after
    the triple.  Otherwise it draws a uniform subset of the smallest set
    (the first of tied ones): with ``ranks``, one getrandbits(m) string
    for a set of m columns, bit b picking its b-th lowest column; without,
    the set's mask AND one getrandbits word as wide as the mask.  An empty
    subset is the lazy step, with no further draw.  Then it draws uniform
    equal-sized subsets of the other two, in order.  With the flag on, the
    Metropolis test (``circle_denominator``) may keep the old rows."""
    mixed = circle is not None
    if n < 2 and not mixed:
        while True:
            yield
    getrandbits, uniform = rng.getrandbits, rng.random
    plans = None if ranks else [None] * (n_cols + 1)
    draw, denominator = _draw_subset, circle_denominator
    n1, n2 = n - 1, n - 2
    bits_i, bits_j, bits_t = n.bit_length(), n1.bit_length(), n2.bit_length()
    while True:
        k = yield
        for _ in range(k):
            if mixed and getrandbits(1):
                if n < 3:
                    continue
                i = getrandbits(bits_i)
                while i >= n:
                    i = getrandbits(bits_i)
                j = getrandbits(bits_j)
                while j >= n1:
                    j = getrandbits(bits_j)
                if j >= i:
                    j += 1
                # The t-th row other than i and j.
                t = getrandbits(bits_t)
                while t >= n2:
                    t = getrandbits(bits_t)
                if i < j:  # past the smaller of i and j first
                    if t >= i:
                        t += 1
                    if t >= j:
                        t += 1
                else:
                    if t >= j:
                        t += 1
                    if t >= i:
                        t += 1
                ri, rj, rt = rows[i], rows[j], rows[t]
                fi, fj, ft = fixed[i], fixed[j], fixed[t]
                # What row j hands to i, t to j and i to t.
                d_j = rj & ~(ri | fi | fj)
                if not d_j:
                    continue
                d_t = rt & ~(rj | fj | ft)
                if not d_t:
                    continue
                d_i = ri & ~(rt | ft | fi)
                if not d_i:
                    continue
                s_j, s_t, s_i = d_j.bit_count(), d_t.bit_count(), d_i.bit_count()
                # The pivot is the first smallest set, of size m; a and b are
                # the other two in draw order, of sizes s_a and s_b.
                if s_j <= s_t and s_j <= s_i:
                    m, pool, a = s_j, d_j, d_t
                    s_a, b, s_b = s_t, d_i, s_i
                elif s_t <= s_i:
                    m, pool, a = s_t, d_t, d_j
                    s_a, b, s_b = s_j, d_i, s_i
                else:
                    m, pool, a = s_i, d_i, d_j
                    s_a, b, s_b = s_j, d_t, s_t
                if ranks:
                    pick = getrandbits(m)
                    if not pick:
                        continue
                    x = pick.bit_count()
                    chosen = 0
                    while pick:
                        low = pool & -pool
                        pool ^= low
                        if pick & 1:
                            chosen |= low
                        pick >>= 1
                    total, bits, subsets = ranks[a << 4 | x]
                    r = getrandbits(bits)
                    while r >= total:
                        r = getrandbits(bits)
                    a = subsets[r]
                    total, bits, subsets = ranks[b << 4 | x]
                    r = getrandbits(bits)
                    while r >= total:
                        r = getrandbits(bits)
                    b = subsets[r]
                else:
                    chosen = pool & getrandbits(pool.bit_length())
                    if not chosen:
                        continue
                    x = chosen.bit_count()
                    a = draw(a, x, getrandbits, plans)
                    b = draw(b, x, getrandbits, plans)
                # The subsets each row hands on, in their sets' roles.
                if m == s_j:
                    sub_j, sub_t, sub_i = chosen, a, b
                elif m == s_t:
                    sub_j, sub_t, sub_i = a, chosen, b
                else:
                    sub_j, sub_t, sub_i = a, b, chosen
                ni, nj, nt = ri ^ (sub_i | sub_j), rj ^ (sub_j | sub_t), rt ^ (sub_t | sub_i)
                if circle:
                    den_fwd = denominator((s_j, s_t, s_i), x)
                    # The reverse rotation runs over the order (j, i, t) of
                    # the new state.
                    den_rev = denominator((
                        (ni & ~(nj | fj | fi)).bit_count(),
                        (nt & ~(ni | fi | ft)).bit_count(),
                        (nj & ~(nt | ft | fj)).bit_count(),
                    ), x)
                    if den_rev > den_fwd and uniform() >= den_fwd / den_rev:
                        continue
                rows[i], rows[j], rows[t] = ni, nj, nt
                continue
            if n < 2:
                continue
            i = getrandbits(bits_i)
            while i >= n:
                i = getrandbits(bits_i)
            j = getrandbits(bits_j)
            while j >= n1:
                j = getrandbits(bits_j)
            if j >= i:
                j += 1
            ri = rows[i]
            pool = (ri ^ rows[j]) & ~(fixed[i] | fixed[j])
            a = pool & ri
            # With one subset in the pool it is a_ij itself.
            if ranks:
                total, bits, subsets = ranks[pool << 4 | a.bit_count()]
                r = getrandbits(bits)
                while r >= total:
                    r = getrandbits(bits)
                if total > 1:
                    flip = a ^ subsets[r]
                    rows[i] = ri ^ flip
                    rows[j] ^= flip
                continue
            flip = a ^ draw(pool, a.bit_count(), getrandbits, plans)
            rows[i] = ri ^ flip
            rows[j] ^= flip


def _swaps(rows, fixed, n, rng):
    """Single swaps: a uniform ordered row pair (i, j), then row i gives a
    column of a_ij to row j for one of a_ji, uniform among the pair's
    |a_ij| * |a_ji| options plus the lazy step, drawn last."""
    if n < 2:
        while True:
            yield
    getrandbits = rng.getrandbits
    n1 = n - 1
    bits_i, bits_j = n.bit_length(), n1.bit_length()
    while True:
        k = yield
        for _ in range(k):
            i = getrandbits(bits_i)
            while i >= n:
                i = getrandbits(bits_i)
            j = getrandbits(bits_j)
            while j >= n1:
                j = getrandbits(bits_j)
            if j >= i:
                j += 1
            ri = rows[i]
            pool = (ri ^ rows[j]) & ~(fixed[i] | fixed[j])
            a = pool & ri
            b = pool ^ a
            n_ji = b.bit_count()
            n_ex = a.bit_count() * n_ji
            bits = (n_ex + 1).bit_length()
            r = getrandbits(bits)
            while r > n_ex:
                r = getrandbits(bits)
            if r < n_ex:
                # The q-th set bit of a_ij and the s-th of a_ji.
                q, s = divmod(r, n_ji)
                for _ in range(q):
                    a &= a - 1
                for _ in range(s):
                    b &= b - 1
                flip = (a & -a) | (b & -b)
                rows[i] = ri ^ flip
                rows[j] ^= flip


def _cycles(rows, fixed, n, rng, n_cols, limit):
    """Bounded cycle swaps: a uniform h in 2..limit/2, then the closed walk
    r0-c0-r1-c1-...-r_{h-1}-c_{h-1}-r0 of h distinct rows and h distinct
    columns, drawn in walk order: r0 and c0, then r_t and c_t for
    t = 1..h-1, each the pos-th index not yet drawn for a uniform pos
    below n - t (n_cols - t).  A cell is checked as soon as its row and
    column are drawn: (r0, c0) after c0, (r_t, c_{t-1}) after r_t,
    (r_t, c_t) after c_t, and the closing cell (r0, c_{h-1}) last.  No
    cell may be fixed; cells (r_t, c_t) hold the value of (r0, c0) and
    the others the other value.  The step ends at the first cell that
    fails, with no further draw, and otherwise flips every cell of the
    walk.  Every full draw sequence is equally likely, and the outcome
    depends only on its prefix up to the first failed cell, so the step
    has the transition kernel of one that draws the whole walk first.  A
    pos becomes its index by stepping past the indices already drawn,
    kept in ascending order; a walk checks about three cells on average,
    whatever the limit, so these lists stay short."""
    getrandbits = rng.getrandbits
    lengths = limit // 2 - 1
    bits_h = lengths.bit_length()
    # The bound n - t (n_cols - t) and its bit length for every t a walk
    # reaches.
    reach = range(min(limit // 2, n, n_cols))
    row_draws = [(n - t, (n - t).bit_length()) for t in reach]
    col_draws = [(n_cols - t, (n_cols - t).bit_length()) for t in reach]
    # The walk's rows and column masks; a step writes the first h entries
    # before it reads them.
    walk_rows = [0] * len(reach)
    walk_cols = [0] * len(reach)
    while True:
        k = yield
        for _ in range(k):
            h = getrandbits(bits_h)
            while h >= lengths:
                h = getrandbits(bits_h)
            h += 2
            if h > n or h > n_cols:
                continue
            m, bits = row_draws[0]
            r = getrandbits(bits)
            while r >= m:
                r = getrandbits(bits)
            m, bits = col_draws[0]
            c = getrandbits(bits)
            while c >= m:
                c = getrandbits(bits)
            cur = 1 << c
            if fixed[r] & cur:
                continue
            # A row's cells that hold the value of (r0, c0) are the set
            # bits of the row XOR flip.
            flip = 0 if rows[r] & cur else -1
            walk_rows[0], walk_cols[0] = r, cur
            drawn_rows, drawn_cols = [r], [c]
            for t in range(1, h):
                prev = cur
                m, bits = row_draws[t]
                r = getrandbits(bits)
                while r >= m:
                    r = getrandbits(bits)
                for d in drawn_rows:
                    if d > r:
                        break
                    r += 1
                same, f = rows[r] ^ flip, fixed[r]
                if (same | f) & prev:
                    break
                m, bits = col_draws[t]
                c = getrandbits(bits)
                while c >= m:
                    c = getrandbits(bits)
                for d in drawn_cols:
                    if d > c:
                        break
                    c += 1
                cur = 1 << c
                if f & cur or not same & cur:
                    break
                walk_rows[t], walk_cols[t] = r, cur
                insort(drawn_rows, r)
                insort(drawn_cols, c)
            else:
                r = walk_rows[0]
                if ((rows[r] ^ flip) | fixed[r]) & cur:
                    continue
                prev = cur
                for t in range(h):
                    cur = walk_cols[t]
                    rows[walk_rows[t]] ^= cur | prev
                    prev = cur


class Chain:
    """One seeded run of a chain from a start realization.

    The current state lives as one column mask per row; no ``Realization``
    is built until ``realization()`` asks for one.  The constructor primes
    its move kind's block kernel once, so the kernel's set-up (bound rng
    methods, bit lengths, tables, subset plans) is paid once per chain:
    ``advance(k)`` is one ``send(k)``, and so is each kept state of
    ``keys()``, which yields a cheap key of the state after every
    ``sample_gap``-th step: the tuple of row masks, the ``masks`` of that
    state's ``Realization``.

    ``restart(seed)`` turns the chain into the one ``Chain(start,
    replace(config, seed=seed))`` would build, in place: it puts the start
    masks, kept from construction, back into the row list and reseeds the
    ``random.Random``.  That keeps the stream, since ``Random(s)`` is
    ``seed(s)`` plus a reset of ``gauss_next``, which no kernel reads, and
    between two ``send``s a kernel keeps nothing of its own but the row
    list and the rng: what else it binds is fixed by the instance and the
    move set, a trade kernel's plans depend on the pool sizes alone, and
    ``_cycles`` writes its walk lists on every step before it reads them
    and builds its lists of drawn indices afresh.
    """

    def __init__(self, start: Realization, cfg: ChainConfig):
        inst = start.instance
        self.instance = inst
        self.config = cfg
        self._start = start.masks
        self._rows = rows = list(self._start)
        self._rng = random.Random(cfg.seed)
        state = (rows, inst.fixed.fixed_masks, inst.n, self._rng)
        kind = cfg.move_set.kind
        if kind in (MoveSet.TRADES, MoveSet.TRADES_PLUS_CIRCLE):
            nc = inst.n_cols
            circle = cfg.mh_correction if kind == MoveSet.TRADES_PLUS_CIRCLE else None
            ranks = _rank_table(nc) if nc <= _NARROW else None
            kernel = _trades(*state, nc, circle, ranks)
        elif kind == MoveSet.SWAPS4:
            kernel = _swaps(*state)
        else:
            kernel = _cycles(*state, inst.n_cols, cfg.move_set.limit)
        next(kernel)
        self._send = kernel.send

    def restart(self, seed: int) -> None:
        """Go back to the start state, with the rng seeded by ``seed``."""
        self.config = replace(self.config, seed=seed)
        self._rows[:] = self._start
        self._rng.seed(seed)

    def advance(self, k: int) -> None:
        """Take ``k`` steps."""
        self._send(k)

    def keys(self) -> Iterator[tuple[int, ...]]:
        """Take ``steps - steps % sample_gap`` steps, the last kept one,
        yielding the state key after every ``sample_gap``-th of them."""
        send, rows, gap = self._send, self._rows, self.config.sample_gap
        for _ in range(self.config.steps // gap):
            send(gap)
            yield tuple(rows)

    def digit_rows(self) -> list[str]:
        """The current state's rows as binary digits, column 0 first,
        checked against the instance by ``check_masks``."""
        return check_masks(self.instance, self._rows)

    def realization(self) -> Realization:
        """The current state, built and validated against the instance."""
        return Realization.from_masks(self.instance, self._rows)


def run(inst: Instance, cfg: ChainConfig) -> list[Realization]:
    """Run the chain from the deterministic initial realization and collect
    every ``sample_gap``-th state.  Identical configs give identical output.

    Every kept state is built and validated as a ``Realization``, which
    costs far more than a step on large grids; long chains that need only
    visit counts or the last state should drive a ``Chain`` directly."""
    chain = Chain(initial_realization(inst), cfg)
    return [chain.realization() for _ in chain.keys()]
