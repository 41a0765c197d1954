"""Trade, swap, circle-trade and bounded cycle-swap chains."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import bipsample as bp
from bipsample import chains, cli, oracle
from bipsample.chains import (
    _NARROW,
    ChainConfig,
    _cycles,
    _draw_subset,
    _rank_table,
    _swaps,
    _trades,
    _try_words,
    _unrank_subset,
    circle_denominator,
)
from bipsample.core import MoveSet
from streams import (
    GOLDEN_STREAMS,
    INSTANCES,
    STREAM_CHAINS,
    STREAM_INSTANCES,
    circle_instance,
    cols,
    random_pinned_instance,
    readme_4x4,
    stream_digest,
)


def unrank(pool, k, index):
    """``_unrank_subset`` of the index-th k-subset of ``pool``, given the
    pool's count C(p, k)."""
    return _unrank_subset(pool, k, index, comb(pool.bit_count(), k))


def mask(columns):
    """The row mask of a set of columns."""
    return sum(1 << j for j in columns)


def toggled(g, cells):
    """``g`` with the cells of a cycle toggled on a copy of its matrix,
    validated against the instance."""
    matrix = [list(row) for row in g.matrix]
    for i, j in cells:
        matrix[i][j] ^= 1
    return bp.Realization(g.instance, matrix)


def primed(kernel):
    """A block kernel primed as ``Chain`` primes it: each ``send(k)`` then
    takes k steps."""
    next(kernel)
    return kernel


def _on_masks(kernel):
    """One step of ``kernel(rows, fixed, inst, rng)`` from ``g``, on fresh
    row masks, as row sets."""
    def one_step(g, rng):
        rows = [mask(r) for r in g.rows]
        fixed = g.instance.fixed.fixed_masks
        primed(kernel(rows, fixed, g.instance, rng)).send(1)
        return tuple(frozenset(cols(r)) for r in rows)
    return one_step


# One step of each block kernel from a realization, as its rows.
swap_step = _on_masks(lambda rows, fixed, inst, r: _swaps(rows, fixed, inst.n, r))


class _CircleCoin:
    """A wrapped rng whose first ``getrandbits(1)`` answers 1 without a
    draw: the coin of one trades+circle step, so that the step is a circle
    trade.  Every later draw comes from the wrapped rng."""

    def __init__(self, rng):
        self._rng = rng
        self._coin = True
        self.random = rng.random

    def getrandbits(self, k):
        if self._coin:
            assert k == 1
            self._coin = False
            return 1
        return self._rng.getrandbits(k)


def trade_kind_step(circle=None, coin=False, ranked=False):
    """One step of ``_trades``: trades, or trades+circle with ``circle`` the
    Metropolis flag, a circle trade when ``coin``.  With ``ranked`` it
    reads its subsets from the rank table of the instance's width, as
    ``bp.Chain`` has it do up to ``_NARROW`` columns; otherwise it draws
    them as wider grids do."""
    def kernel(rows, fixed, inst, r):
        ranks = _rank_table(inst.n_cols) if ranked else None
        return _trades(rows, fixed, inst.n, _CircleCoin(r) if coin else r, inst.n_cols, circle,
                       ranks)
    return _on_masks(kernel)


trade_step = trade_kind_step()


def circle_step(mh, ranked=False):
    return trade_kind_step(mh, True, ranked)


def mixed_step(mh, ranked=False):
    return trade_kind_step(mh, False, ranked)


def cycle_step(limit):
    return _on_masks(
        lambda rows, fixed, inst, r: _cycles(rows, fixed, inst.n, r, inst.n_cols, limit)
    )


def two_row_instance():
    """Rows {0..5} and {3,4,6} on seven columns, a pinned edge (0,2) and a
    pinned non-edge (1,5)."""
    rowsets = [{0, 1, 2, 3, 4, 5}, {3, 4, 6}]
    a = [len(r) for r in rowsets]
    b = [sum(1 for r in rowsets if j in r) for j in range(7)]
    fixed = bp.FixedSet.from_cells(
        2, 7, forced_edges=[(0, 2)], forced_non_edges=[(1, 5)]
    )
    inst = bp.Instance(bp.DegreeSequence(a, b), fixed)
    return bp.Realization.from_rows(inst, rowsets)


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(MoveSet.trades(), steps=0, seed=1)
    with pytest.raises(ValueError):
        ChainConfig(MoveSet.trades(), steps=1, seed=1, sample_gap=0)


def test_chain_config_rejects_a_negative_seed():
    # random.Random(-7) draws the stream of Random(7)
    assert random.Random(-7).getstate() == random.Random(7).getstate()
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ChainConfig(MoveSet.trades(), steps=1, seed=-1)
    ChainConfig(MoveSet.trades(), steps=1, seed=0)


def test_trade_enumeration_on_two_row_example():
    # every replacement subset of the pool, in the order trades rank them
    g = two_row_instance()
    rows = [mask(r) for r in g.rows]
    fixed = g.instance.fixed.fixed_masks
    blocked = fixed[0] | fixed[1]
    a_ij, a_ji = rows[0] & ~(rows[1] | blocked), rows[1] & ~(rows[0] | blocked)
    pool, k = a_ij | a_ji, a_ij.bit_count()
    outcomes = [unrank(pool, k, r) for r in range(comb(pool.bit_count(), k))]
    assert len(outcomes) == 3
    assert outcomes.count(a_ij) == 1  # the lazy step
    swaps = sorted((cols(b), cols(pool ^ b)) for b in outcomes if b != a_ij)
    assert swaps == [([0, 6], [1]), ([1, 6], [0])]


def test_swap_proposals_on_two_row_example():
    g = two_row_instance()
    swap_06 = bp.Realization.from_rows(g.instance, [{1, 2, 3, 4, 5, 6}, {0, 3, 4}])
    swap_16 = bp.Realization.from_rows(g.instance, [{0, 2, 3, 4, 5, 6}, {1, 3, 4}])
    rng = random.Random(0)
    seen = Counter(swap_step(g, rng) for _ in range(3000))
    # two single exchanges plus the lazy step, roughly uniform
    assert set(seen) == {g.rows, swap_06.rows, swap_16.rows}
    assert all(abs(v / 3000 - 1 / 3) < 0.05 for v in seen.values())


def test_swap_changes_exactly_four_cells():
    g = two_row_instance()
    rng = random.Random(3)
    changed = False
    for _ in range(50):
        diff = sum(len(r ^ s) for r, s in zip(swap_step(g, rng), g.rows))
        if not diff:
            continue
        assert diff == 4
        changed = True
    assert changed


def test_identical_rows_always_stay():
    inst = bp.Instance.unconstrained((1, 1), (2, 0))
    g = bp.Realization(inst, [[1, 0], [1, 0]])
    rng = random.Random(0)
    for _ in range(20):
        assert trade_step(g, rng) == g.rows
        assert swap_step(g, rng) == g.rows


def test_trade_subset_choice_is_uniform():
    g = two_row_instance()
    # pool {0,1,6}: three equally likely replacement subsets (one is the
    # lazy step)
    rng = random.Random(42)
    counts = Counter(trade_step(g, rng) for _ in range(100_000))
    assert len(counts) == 3 and counts[g.rows] > 0
    _, pval = stats.chisquare(list(counts.values()))
    assert pval > 0.01


def test_trade_preserves_pair_difference_set():
    # the two rows a trade changes, read from the masks' XOR, keep the
    # free columns where they differ
    rng = random.Random(8)
    inst = readme_4x4()
    rows = list(bp.initial_realization(inst).masks)
    fixed = inst.fixed.fixed_masks
    step = primed(_trades(rows, fixed, inst.n, rng, inst.n_cols)).send
    traded = 0
    for _ in range(200):
        before = list(rows)
        step(1)
        changed = [i for i, (r, s) in enumerate(zip(before, rows)) if r ^ s]
        if not changed:
            continue
        i, j = changed
        free = ~(fixed[i] | fixed[j])
        assert (before[i] ^ before[j]) & free == (rows[i] ^ rows[j]) & free
        traded += 1
    assert traded > 20


def test_circle_trade_worked_rotations():
    # the circle kernel reaches the worked example's matrices B (a full
    # rotation), C (one column per row) and D (the row order 1, 0, 2)
    gA = circle_instance()
    rng = random.Random(9)
    reached = {circle_step(False)(gA, rng) for _ in range(3000)}
    for matrix in (
        [[0, 0, 1, 0, 1, 0], [1, 0, 0, 0, 0, 1], [0, 1, 0, 1, 0, 0]],
        [[0, 1, 1, 0, 0, 0], [0, 0, 0, 0, 1, 1], [1, 0, 0, 1, 0, 0]],
        [[0, 1, 0, 0, 0, 1], [0, 0, 1, 1, 0, 0], [1, 0, 0, 0, 1, 0]],
    ):
        assert bp.Realization(gA.instance, matrix).rows in reached


def test_circle_proposals_apply_cleanly():
    gA = circle_instance()
    rng = random.Random(9)
    applied = 0
    for _ in range(300):
        rows = circle_step(False)(gA, rng)
        if rows == gA.rows:
            continue
        bp.Realization.from_rows(gA.instance, rows)  # validates degrees and mask
        applied += 1
    assert applied > 0


def test_circle_trade_needs_three_rows():
    # with two rows the circle half of a trades+circle step is the lazy
    # step: after its coin bit it draws nothing and leaves the rows
    g = bp.initial_realization(bp.Instance.unconstrained((1, 1), (1, 1)))
    circle_sides = 0
    for seed in range(40):
        rng, coin = random.Random(seed), random.Random(seed)
        rows = mixed_step(True)(g, rng)
        if coin.getrandbits(1):
            assert rows == g.rows and rng.getstate() == coin.getstate()
            circle_sides += 1
    assert circle_sides > 0


def test_circle_trade_empty_difference_set_stays():
    # one row owns everything it may own: every difference set is empty
    inst = bp.Instance.unconstrained((2, 2, 2), (3, 3, 0))
    g = bp.Realization(inst, [[1, 1, 0], [1, 1, 0], [1, 1, 0]])
    rng = random.Random(1)
    for _ in range(30):
        assert circle_step(False)(g, rng) == g.rows


def _circle_den_reference(sizes, x):
    """2^m times the binomials of all three sizes but one of the smallest,
    from ``math.comb``."""
    m = min(sizes)
    return (1 << m) * math.prod(comb(s, x) for s in sizes) // comb(m, x)


def test_circle_denominator_values():
    assert circle_denominator((2, 2, 2), 2) == 4  # 2^2 * C(2,2)^2
    assert circle_denominator((1, 2, 1), 1) == 2 * comb(2, 1) * comb(1, 1)
    assert circle_denominator((3, 2, 2), 1) == 4 * comb(3, 1) * comb(2, 1)
    # every set size of a width-8 grid, whatever the sizes' order and ties
    for sizes in itertools.product(range(9), repeat=3):
        for x in range(1, min(sizes) + 1):
            want = _circle_den_reference(sizes, x)
            assert circle_denominator(sizes, x) == want, (sizes, x)
    # sets of hundreds of columns
    for sizes in itertools.product((511, 512, 513), repeat=3):
        for x in (1, 2, 256, 510):
            assert circle_denominator(sizes, x) == _circle_den_reference(sizes, x), (sizes, x)


def test_unique_realization_chain_is_constant():
    inst = bp.Instance.unconstrained((2, 1), (2, 1))
    cfg = ChainConfig(MoveSet.trades(), steps=500, seed=3, sample_gap=1)
    samples = bp.run(inst, cfg)
    assert len(set(s.matrix for s in samples)) == 1


def test_two_state_chain_frequencies():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    cfg = ChainConfig(MoveSet.trades(), steps=100_000, seed=21, sample_gap=1)
    samples = bp.run(inst, cfg)
    freq = Counter(s.matrix for s in samples)
    assert len(freq) == 2
    for v in freq.values():
        assert abs(v / len(samples) - 0.5) < 0.01


def test_run_emits_one_sample_per_gap():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    assert len(bp.run(inst, ChainConfig(MoveSet.trades(), steps=1, seed=0))) == 1
    assert len(bp.run(inst, ChainConfig(MoveSet.trades(), steps=25, seed=0, sample_gap=10))) == 2


def test_run_is_deterministic_per_seed():
    inst = bp.Instance.unconstrained((2, 2, 1), (2, 2, 1))
    cfg = ChainConfig(MoveSet.trades_plus_circle(), steps=400, seed=99, sample_gap=5)
    first = [s.matrix for s in bp.run(inst, cfg)]
    second = [s.matrix for s in bp.run(inst, cfg)]
    assert first == second


def test_different_seeds_differ():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    rng = random.Random(123)
    for _ in range(100):
        s1 = rng.randrange(10**6)
        s2 = s1 + 1 + rng.randrange(10**6)
        a = [g.matrix for g in bp.run(inst, ChainConfig(MoveSet.trades(), 60, s1))]
        b = [g.matrix for g in bp.run(inst, ChainConfig(MoveSet.trades(), 60, s2))]
        assert a != b


def test_every_emitted_state_is_valid():
    inst = bp.Instance(
        bp.DegreeSequence((2, 2, 2, 2), (2, 2, 2, 2)),
        bp.FixedSet.from_cells(4, 4, forced_non_edges=[(0, 0), (1, 1), (2, 2)]),
    )
    for move_set in (
        MoveSet.trades(),
        MoveSet.swaps4(),
        MoveSet.trades_plus_circle(),
        MoveSet.swaps_up_to(6),
    ):
        cfg = ChainConfig(move_set, steps=800, seed=7, sample_gap=8)
        for g in bp.run(inst, cfg):
            bp.Realization(inst, g.matrix)  # re-validate from scratch


def test_trades_plus_circle_visits_all_states_of_split_instance():
    inst = bp.Instance(
        bp.DegreeSequence((1, 1, 1, 1), (2, 1, 1)),
        bp.FixedSet.from_cells(
            4, 3, forced_non_edges=[(0, 0), (1, 1), (2, 2), (3, 1)]
        ),
    )
    all_states = {g.matrix for g in bp.enumerate_realizations(inst)}
    cfg = ChainConfig(MoveSet.trades_plus_circle(), steps=20_000, seed=2, sample_gap=1)
    visited = {g.matrix for g in bp.run(inst, cfg)}
    assert visited == all_states


def test_swaps4_chain_cannot_leave_split_component():
    inst = bp.Instance(
        bp.DegreeSequence((1, 1, 1, 1), (2, 1, 1)),
        bp.FixedSet.from_cells(
            4, 3, forced_non_edges=[(0, 0), (1, 1), (2, 2), (3, 1)]
        ),
    )
    cfg = ChainConfig(MoveSet.swaps4(), steps=20_000, seed=2, sample_gap=1)
    visited = {g.matrix for g in bp.run(inst, cfg)}
    assert len(visited) < len(bp.enumerate_realizations(inst))


def test_bounded_cycle_swap_length_4_is_a_4_swap():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    g = bp.initial_realization(inst)
    rng = random.Random(5)
    moves = {cycle_step(4)(g, rng) for _ in range(200)} - {g.rows}
    assert moves == {toggled(g, [(0, 0), (0, 1), (1, 0), (1, 1)]).rows}


def test_bounded_cycle_swap_rejects_bad_limit():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    with pytest.raises(ValueError):
        bp.run(inst, ChainConfig(MoveSet(MoveSet.SWAPS_UP_TO, 5), steps=1, seed=0))


def test_bounded_cycle_swap_stays_when_cycles_too_long():
    # with the whole diagonal pinned, the two derangement states differ by
    # a 6-cycle and no 4-swap avoids the fixed cells
    inst = bp.Instance(
        bp.DegreeSequence((1, 1, 1), (1, 1, 1)),
        bp.FixedSet.from_cells(3, 3, forced_non_edges=[(0, 0), (1, 1), (2, 2)]),
    )
    g = bp.initial_realization(inst)
    rng = random.Random(6)
    for _ in range(300):
        assert cycle_step(4)(g, rng) == g.rows


def test_bounded_cycle_proposals_match_state_graph_edges():
    inst = bp.Instance.unconstrained((2, 1, 1), (2, 1, 1))
    states = bp.enumerate_realizations(inst)
    limit = 6
    sg = bp.build_state_graph(states, MoveSet.swaps_up_to(limit))
    rng = random.Random(44)
    step = cycle_step(limit)
    for s, g in enumerate(states):
        reachable = {step(g, rng) for _ in range(4000)} - {g.rows}
        neighbors = {states[t].rows for t in sg.edges[s]}
        assert reachable == neighbors


def test_uniformity_report_matches_counting_run_states(criterion8_fixtures):
    for label, inst, move_set in criterion8_fixtures:
        cfg = ChainConfig(move_set, steps=20_000, seed=12345, sample_gap=7)
        states = bp.enumerate_realizations(inst)
        index = {g.matrix: s for s, g in enumerate(states)}
        counts = [0] * len(states)
        for g in bp.run(inst, cfg):
            counts[index[g.matrix]] += 1
        total, k = sum(counts), len(states)
        tv = 0.5 * sum(abs(c / total - 1 / k) for c in counts)
        p = oracle._chisquare_p(counts)
        assert bp.uniformity_report(inst, cfg) == (tv, p), label


@pytest.mark.parametrize("fixture, move_set, steps, gap", [
    pytest.param(2, MoveSet.swaps4(), 400_000, 5, id="90_states-swap"),
    pytest.param(3, MoveSet.swaps_up_to(8), 600_000, 50, id="9_states-cycle:8"),
    pytest.param(4, MoveSet.swaps_up_to(8), 1_600_000, 100, id="27_states-cycle:8"),
])
def test_swaps_and_cycle_swaps_pass_the_uniformity_gates(
    criterion8_fixtures, fixture, move_set, steps, gap
):
    """Acceptance criterion 8's gates, at its seed, for the chains it does
    not run: 4-swaps where F is empty, and the paper's bounded cycle swaps
    on the pinned fixtures.  A cycle:8 step moves on about 4% of steps
    there, so its kept states are 50 and 100 steps apart.  At these sizes
    seed 12345 reads tv 0.0113, p 0.378 on the 9 states and tv 0.0177,
    p 0.302 on the 27; seeds 1-4 gave a distance of 0.008-0.017 on the 9
    states and 0.015-0.019 on the 27."""
    label, inst, _ = criterion8_fixtures[fixture]
    cfg = ChainConfig(move_set, steps=steps, seed=12345, sample_gap=gap)
    tv, p = bp.uniformity_report(inst, cfg)
    assert tv < 0.02, (label, tv)
    assert p > 0.001, (label, p)


def _chisquare_grid():
    rng = random.Random(2024)
    grid = [
        [0, 1], [1, 0], [3, 5], [60, 0], [500, 499],  # k = 2
        [7] * 2, [7] * 3, [1] * 300,  # all equal: p = 1
        [100] + [0] * 9, [200] + [0] * 4, [30] + [1] * 299,  # skewed: p near 0
    ]
    for k in (3, 5, 17, 60, 150, 299, 300):
        grid.append([rng.randint(0, 40) for _ in range(k)])
        grid.append([200 + rng.randint(-15, 15) for _ in range(k)])
        grid.append([rng.randint(0, 3) + (50 if t < 3 else 0) for t in range(k)])
    return grid


@pytest.mark.parametrize("counts", _chisquare_grid(), ids=lambda c: f"k{len(c)}")
def test_chisquare_p_matches_scipy(counts):
    want = float(stats.chisquare(counts)[1])
    assert math.isclose(oracle._chisquare_p(counts), want, rel_tol=1e-9)


def test_chisquare_p_edges():
    assert oracle._chisquare_p([4, 4, 4]) == 1.0
    # k = 2 is a normal tail: p = erfc(|c0 - c1| / sqrt(2 * (c0 + c1)))
    assert math.isclose(oracle._chisquare_p([30, 10]), math.erfc(20 / math.sqrt(80)),
                        rel_tol=1e-12)


def test_uniformity_report_rejects_a_config_that_keeps_no_state():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    with pytest.raises(ValueError, match="no kept states"):
        bp.uniformity_report(inst, ChainConfig(MoveSet.trades(), steps=4, seed=1, sample_gap=5))


def test_uniformity_report_rejects_a_state_outside_the_enumeration(monkeypatch):
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    bits = oracle._instance_bits(inst)
    monkeypatch.setattr(oracle, "_instance_bits", lambda _: bits[:1])
    with pytest.raises(KeyError):
        bp.uniformity_report(inst, ChainConfig(MoveSet.trades(), 200, 3))


# ---------------------------------------------------------------------------
# The random stream and the block step kernels.


@pytest.mark.parametrize("instance, chain", sorted(GOLDEN_STREAMS))
def test_seeded_key_streams_are_pinned(instance, chain):
    assert stream_digest(instance, chain) == GOLDEN_STREAMS[instance, chain]


@pytest.mark.parametrize("name", sorted(STREAM_CHAINS))
def test_chain_keys_decode_to_the_realization_rows(name):
    move_set, mh = STREAM_CHAINS[name]
    for make in STREAM_INSTANCES.values():
        inst = make()
        cfg = ChainConfig(move_set, steps=300, seed=5, sample_gap=3, mh_correction=mh)
        start = bp.initial_realization(inst)
        chain = bp.Chain(start, cfg)
        assert chain._rows == list(start.masks)
        for key in chain.keys():
            g = chain.realization()
            assert tuple(frozenset(cols(r)) for r in key) == g.rows
            assert g.masks == key
            # a chain starts from its start's masks
            assert bp.Chain(g, cfg)._rows == list(key)


BLOCK_INSTANCES = {
    **STREAM_INSTANCES,
    "1x1": lambda: bp.Instance.unconstrained((1,), (1,)),
    "1x5": lambda: bp.Instance.unconstrained((3,), (1, 0, 1, 1, 0)),
    "2x1": lambda: bp.Instance.unconstrained((1, 0), (1,)),
    "two_row": lambda: two_row_instance().instance,
}


@pytest.mark.parametrize("name", sorted(STREAM_CHAINS))
def test_block_size_never_changes_the_stream(name):
    """One ``advance(k)``, k calls of ``advance(1)`` and ``keys()`` at gaps
    1, 3 and 10 leave the same row masks and the same rng state.  The
    one- and two-row instances meet the lazy steps that take no draw."""
    move_set, mh = STREAM_CHAINS[name]
    steps = 60
    for label, make in BLOCK_INSTANCES.items():
        start = bp.initial_realization(make())
        for seed in (0, 1, 2):
            def chain(gap=1):
                return bp.Chain(start, ChainConfig(move_set, steps, seed, gap, mh))

            single = chain()
            trail = []
            for _ in range(steps):
                single.advance(1)
                trail.append((tuple(single._rows), single._rng.getstate()))
            block = chain()
            block.advance(steps)
            assert (tuple(block._rows), block._rng.getstate()) == trail[-1], (label, seed)
            for gap in (1, 3, 10):
                gapped = chain(gap)
                got = [(key, gapped._rng.getstate()) for key in gapped.keys()]
                assert got == trail[gap - 1::gap], (label, seed, gap)


@pytest.mark.parametrize(
    "name", ["trades", "trades+circle", "trades+circle/mh-off", "swaps4", "cycle:8"]
)
def test_restart_runs_the_chain_a_new_seed_builds(name):
    """After some steps at one seed, ``restart(b)`` leaves the config, the
    key stream and the rng state of a new ``Chain`` at seed b; a negative
    seed is refused before anything changes."""
    move_set, mh = STREAM_CHAINS[name]
    for label, make in BLOCK_INSTANCES.items():
        start = bp.initial_realization(make())
        chain = bp.Chain(start, ChainConfig(move_set, 40, 3, 4, mh))
        for taken, b in ((17, 0), (40, 3), (1, 2024), (0, 7)):
            chain.advance(taken)
            chain.restart(b)
            fresh = bp.Chain(start, ChainConfig(move_set, 40, b, 4, mh))
            assert chain.config == fresh.config
            assert list(chain.keys()) == list(fresh.keys()), (label, b)
            assert chain._rng.getstate() == fresh._rng.getstate(), (label, b)
        rows, state = tuple(chain._rows), chain._rng.getstate()
        with pytest.raises(ValueError, match="seed must be >= 0"):
            chain.restart(-7)
        assert (tuple(chain._rows), chain._rng.getstate(), chain.config.seed) == (rows, state, 7)


@pytest.mark.parametrize("name", ["1x1", "1x5"])
def test_lazy_kernels_draw_only_what_the_docstring_says(name):
    """With one row, priming a kernel and ``send(k)`` leave the rng as it
    was for trades and swaps; trades+circle takes its coin bit per step
    and nothing more.  The rows never change."""
    inst = BLOCK_INSTANCES[name]()
    start = list(bp.initial_realization(inst).masks)
    fixed = inst.fixed.fixed_masks
    kernels = {
        "trades": (lambda rows, r: _trades(rows, fixed, 1, r, inst.n_cols), 0),
        "swaps": (lambda rows, r: _swaps(rows, fixed, 1, r), 0),
        "trades+circle": (lambda rows, r: _trades(rows, fixed, 1, r, inst.n_cols, True), 1),
        "trades+circle, mh off": (
            lambda rows, r: _trades(rows, fixed, 1, r, inst.n_cols, False), 1),
    }
    for kind, (kernel, coin_bits) in kernels.items():
        for seed in range(3):
            rng, reference = random.Random(seed), random.Random(seed)
            rows = list(start)
            step = primed(kernel(rows, rng)).send
            for k in (1, 7, 50):
                step(k)
                for _ in range(k * coin_bits):
                    reference.getrandbits(1)
                assert rng.getstate() == reference.getstate(), (name, kind, seed, k)
                assert rows == start, (name, kind, seed, k)


def _pair(n, rng):
    """A uniform ordered pair of distinct rows."""
    i = rng.randrange(n)
    j = rng.randrange(n - 1)
    return i, j + (j >= i)


def _movable(rows, fixed, src, dst):
    """The columns row ``src`` can hand to row ``dst``, as a set."""
    return rows[src] - rows[dst] - fixed[src] - fixed[dst]


def _walk_draw(rng, pool, k):
    """A uniform k-subset of the sorted column list ``pool``, as grids of
    at most ``_NARROW`` columns draw it: one ``randrange`` index into the
    ``combinations`` order, even when the pool has one k-subset."""
    return _unrank_reference(pool, k, rng.randrange(comb(len(pool), k)))


@lru_cache(maxsize=None)
def _words_reference(p, k):
    """How wider grids draw a k-subset of a p-column pool, re-derived with
    Fractions: 0 when it has one k-subset; otherwise t AND-ed words per
    try, t = 1, 2 or 3 as j/p = min(k, p - k)/p is at least 7/20, at least
    7/40, or below, if a try of density 2^-t then lands on k or p - k
    pool columns with probability at least 1/32; else the first other t,
    lowest first, that does; else -1, a walk."""
    total = comb(p, k)
    if total == 1:
        return 0
    j = Fraction(min(k, p - k), p)
    first = 1 if j >= Fraction(7, 20) else 2 if j >= Fraction(7, 40) else 3
    for t in (first, 1, 2, 3):
        q = Fraction(1, 2 ** t)
        accept = total * q ** k * (1 - q) ** (p - k)
        if 2 * k != p:
            accept += total * q ** (p - k) * (1 - q) ** k
        if accept >= Fraction(1, 32):
            return t
    return -1


def _masked_draw(rng, pool, k):
    """A uniform k-subset of the sorted column list ``pool``, as wider
    grids draw it (``_words_reference``): no draw when the pool has one
    k-subset; with t words planned, tries of t ``getrandbits`` up to the
    pool's last column, AND-ed, until the pool columns they all set number
    k (the subset) or p - k (the rest of the pool); otherwise
    ``_walk_draw``."""
    p = len(pool)
    words = _words_reference(p, k)
    if not words:
        return set(pool[:k])
    if words < 0:
        return _walk_draw(rng, pool, k)
    while True:
        bits = -1
        for _ in range(words):
            bits &= rng.getrandbits(pool[-1] + 1)
        got = {c for c in pool if bits >> c & 1}
        if len(got) == k:
            return got
        if len(got) == p - k:
            return set(pool) - got


def _loop_pivot(rng, pool):
    """A uniform subset of the sorted column list ``pool``, as grids of at
    most ``_NARROW`` columns draw a circle trade's pivot subset: one
    ``getrandbits`` string as long as the pool, bit b picking its b-th
    lowest column."""
    bits = rng.getrandbits(len(pool))
    return frozenset(pool[b] for b in range(len(pool)) if bits >> b & 1)


def _mask_pivot(rng, pool):
    """A uniform subset of the sorted column list ``pool``, as wider grids
    draw a circle trade's pivot subset: one ``getrandbits`` up to the
    pool's last column, keeping the pool columns it sets."""
    bits = rng.getrandbits(pool[-1] + 1)
    return frozenset(c for c in pool if bits >> c & 1)


def _trade_reference(g, rng, draw=_masked_draw):
    """Rows after one trade: a uniform row pair, then a uniform
    |a_ij|-subset of the sorted pool a_ij | a_ji by ``draw``, applied to
    the row sets."""
    inst, rows = g.instance, list(g.rows)
    if inst.n < 2:
        return g.rows
    fixed = [frozenset(cols(m)) for m in inst.fixed.fixed_masks]
    i, j = _pair(inst.n, rng)
    a_ij, a_ji = _movable(rows, fixed, i, j), _movable(rows, fixed, j, i)
    pool = a_ij | a_ji
    b_ij = draw(rng, sorted(pool), len(a_ij))
    rows[i] = (rows[i] - a_ij) | b_ij
    rows[j] = (rows[j] - a_ji) | (pool - b_ij)
    return tuple(rows)


def _swap_reference(g, rng):
    """Rows after one swap: a uniform row pair, then one ``randrange`` over
    the column exchanges (x, y) of the sorted sets a_ij and a_ji, x
    outermost, plus the lazy step as the last option."""
    inst, rows = g.instance, list(g.rows)
    if inst.n < 2:
        return g.rows
    fixed = [frozenset(cols(m)) for m in inst.fixed.fixed_masks]
    i, j = _pair(inst.n, rng)
    options = [(x, y) for x in sorted(_movable(rows, fixed, i, j))
               for y in sorted(_movable(rows, fixed, j, i))]
    r = rng.randrange(len(options) + 1)
    if r == len(options):
        return g.rows
    x, y = options[r]
    rows[i] = (rows[i] - {x}) | {y}
    rows[j] = (rows[j] - {y}) | {x}
    return tuple(rows)


def _circle_reference(g, rng, mh_correction, first_empty=None, draw=_masked_draw,
                      pivot=_mask_pivot):
    """Rows after one circle trade: a uniform row triple, a uniform subset
    of the smallest difference set by ``pivot`` (the lazy step when it is
    empty), uniform equal-sized subsets of the other two by
    ``draw``, and the Metropolis test re-derived on the successor,
    with denominators from ``math.comb``.  ``first_empty``, a Counter,
    counts by its index (0 for d_j, 1 for d_t, 2 for d_i) the first empty
    difference set of a step that stays for one."""
    inst, rows = g.instance, list(g.rows)
    fixed = [frozenset(cols(m)) for m in inst.fixed.fixed_masks]
    i, j = _pair(inst.n, rng)
    k = [r for r in range(inst.n) if r not in (i, j)][rng.randrange(inst.n - 2)]
    sets = [sorted(_movable(rows, fixed, src, dst)) for src, dst in ((j, i), (k, j), (i, k))]
    sizes = [len(s) for s in sets]
    m = min(sizes)
    if m == 0:
        if first_empty is not None:
            first_empty[sizes.index(0)] += 1
        return g.rows
    first = sizes.index(m)
    chosen = pivot(rng, sets[first])
    if not chosen:
        return g.rows
    subs = [chosen] * 3
    x = len(chosen)
    for idx in range(3):
        if idx != first:
            subs[idx] = draw(rng, sets[idx], x)
    sub_j, sub_k, sub_i = subs
    new = list(rows)
    new[i] = (rows[i] - sub_i) | sub_j
    new[j] = (rows[j] - sub_j) | sub_k
    new[k] = (rows[k] - sub_k) | sub_i
    if mh_correction:
        den_fwd = _circle_den_reference(sizes, x)
        back = [len(_movable(new, fixed, src, dst)) for src, dst in ((i, j), (k, i), (j, k))]
        den_rev = _circle_den_reference(back, x)
        if den_rev > den_fwd and rng.random() >= den_fwd / den_rev:
            return g.rows
    return tuple(new)


def _mixed_reference(g, rng, mh_correction, draw=_masked_draw, pivot=_mask_pivot):
    """Rows after one trades+circle step: a coin bit, 0 for a trade, 1 for
    a circle trade (the lazy step, with no further draw, below three rows)."""
    if rng.getrandbits(1) == 0:
        return _trade_reference(g, rng, draw)
    if g.instance.n < 3:
        return g.rows
    return _circle_reference(g, rng, mh_correction, draw=draw, pivot=pivot)


def _cycle_reference(g, limit, rng):
    """Rows after one bounded cycle swap drawn with ``randrange`` in walk
    order, h, r0, c0, r1, c1, ..., each row or column popped from a pool
    of the unused ones.  Each cell of the walk is checked against the
    matrix and the fixed mask as soon as its row and column are drawn, and
    the step ends at the first that fails, with no further draw."""
    inst, matrix = g.instance, g.matrix
    n, nc = inst.n, inst.n_cols
    lengths = range(4, limit + 1, 2)
    h = lengths[rng.randrange(len(lengths))] // 2
    if h > n or h > nc:
        return g.rows
    row_pool, col_pool = list(range(n)), list(range(nc))
    cells = []

    def passes(r, c):
        # Cell 0 sets the value; the walk's cells alternate from it.
        cells.append((r, c))
        r0, c0 = cells[0]
        return (not inst.fixed.fixed_masks[r] >> c & 1
                and matrix[r][c] == matrix[r0][c0] ^ (len(cells) - 1) % 2)

    r0 = row_pool.pop(rng.randrange(n))
    c = col_pool.pop(rng.randrange(nc))
    if not passes(r0, c):
        return g.rows
    for t in range(1, h):
        r = row_pool.pop(rng.randrange(n - t))
        if not passes(r, c):
            return g.rows
        c = col_pool.pop(rng.randrange(nc - t))
        if not passes(r, c):
            return g.rows
    if not passes(r0, c):
        return g.rows
    return toggled(g, cells).rows


def _cycle_draw_all_reference(g, limit, rng):
    """Rows after one bounded cycle swap that draws its whole walk before
    it reads a cell: h, then the h rows, then the h columns, each with
    ``randrange`` from a pool of the unused ones; every cell value and
    mask entry of the walk is then checked before the swap is applied.
    This is the kernel ``_cycles`` must keep while it draws and checks
    cell by cell."""
    n, nc = g.instance.n, g.instance.n_cols
    lengths = range(4, limit + 1, 2)
    h = lengths[rng.randrange(len(lengths))] // 2
    if h > n or h > nc:
        return g.rows
    row_pool, col_pool = list(range(n)), list(range(nc))
    rows_seq = [row_pool.pop(rng.randrange(n - t)) for t in range(h)]
    cols_seq = [col_pool.pop(rng.randrange(nc - t)) for t in range(h)]
    cells = []
    for t in range(h):
        cells += [(rows_seq[t], cols_seq[t]), (rows_seq[(t + 1) % h], cols_seq[t])]
    vals = [g.matrix[r][c] for r, c in cells]
    if any(vals[t] == vals[t - 1] for t in range(2 * h)):
        return g.rows
    if any(g.instance.fixed.fixed_masks[r] >> c & 1 for r, c in cells):
        return g.rows
    return toggled(g, cells).rows


def test_step_kernels_match_randrange_references():
    """From the same rng state, one step of each kernel leaves the rows of
    a reference that draws with ``randrange`` and ``getrandbits`` over
    column lists and applies to row sets, and both consume the same draws.
    Unranked, the trade kinds draw as grids wider than ``_NARROW`` do: a
    circle trade's pivot subset by ``_mask_pivot`` and every other subset
    by ``_masked_draw`` (the 2x40's 40-column pools walk).  Ranked, on the
    instances of at most ``_NARROW`` columns, they read the rank table and
    keep ``_loop_pivot`` and ``_walk_draw``.  A circle step that meets an
    empty difference set draws nothing after its triple, whichever of the
    three sets is the first empty one."""
    for ranked in (False, True):
        _match_randrange_references(ranked)


def _match_randrange_references(ranked):
    """The sweep of the test above, with the kernels ranked or not."""
    rng = random.Random(2024)
    instances = [
        # Nested rows {0} < {0, 1} < {0, 1, 2}: a triple's first empty set
        # is d_j, d_t or d_i by the triple's order.
        bp.Instance.unconstrained((1, 2, 3), (3, 2, 1)),
        bp.Instance.unconstrained((3, 3, 2, 2, 4, 2), (2, 3, 2, 2, 5, 2)),
        readme_4x4(),
        circle_instance().instance,
        random_pinned_instance(rng, 12, 12, 0.5, 0),
        random_pinned_instance(rng, 8, 9, 0.4, 14),
        random_pinned_instance(rng, 5, 20, 0.7, 10),
        two_row_instance().instance,
        bp.Instance.unconstrained((1, 0), (1,)),
        bp.Instance.unconstrained((3,), (1, 0, 1, 1, 0)),
        bp.Instance.unconstrained((1, 39), (1,) * 40),
    ]
    if ranked:
        instances = [inst for inst in instances if inst.n_cols <= _NARROW]
    draw, pivot = (_walk_draw, _loop_pivot) if ranked else (_masked_draw, _mask_pivot)
    # These draw a row triple, so they need three rows.
    triples = {"circle", "circle, mh off"}
    paths = {
        "trades": (trade_kind_step(ranked=ranked), lambda g, r: _trade_reference(g, r, draw)),
        "circle": (
            circle_step(True, ranked),
            lambda g, r: _circle_reference(g, r, True, first_empty, draw, pivot),
        ),
        "circle, mh off": (
            circle_step(False, ranked),
            lambda g, r: _circle_reference(g, r, False, first_empty, draw, pivot),
        ),
        "trades+circle": (
            mixed_step(True, ranked), lambda g, r: _mixed_reference(g, r, True, draw, pivot),
        ),
        "trades+circle, mh off": (
            mixed_step(False, ranked), lambda g, r: _mixed_reference(g, r, False, draw, pivot),
        ),
    }
    if not ranked:  # the other kinds have no narrow path
        paths.update({
            "swaps": (swap_step, _swap_reference),
            "cycle:8": (cycle_step(8), lambda g, r: _cycle_reference(g, 8, r)),
            "cycle:24": (cycle_step(24), lambda g, r: _cycle_reference(g, 24, r)),
        })
    outcomes, first_empty = Counter(), Counter()
    for inst in instances:
        chain = bp.Chain(
            bp.initial_realization(inst),
            ChainConfig(MoveSet.trades_plus_circle(), 1, rng.randrange(10**6)),
        )
        for _ in range(120):
            chain.advance(3)
            g = chain.realization()
            for name, (fast_step, reference) in paths.items():
                if name in triples and inst.n < 3:
                    continue
                seed = rng.randrange(10**9)
                fast, slow = random.Random(seed), random.Random(seed)
                got = fast_step(g, fast)
                expected = reference(g, slow)
                assert got == expected, (name, seed)
                assert fast.getstate() == slow.getstate(), (name, seed)
                outcomes[name, expected == g.rows] += 1
    # every path both moved and stayed somewhere in the sweep
    for name in paths:
        assert outcomes[name, True] > 0 and outcomes[name, False] > 0, name
    assert sorted(first_empty) == [0, 1, 2], first_empty


def _exact_rows(inst, circle, mh):
    """The oracle's one-step transition rows {s: {t: probability}} over the
    enumerated states of ``inst``, for trades (``circle`` False) or
    trades+circle, from the rotation ledgers of h = 2 (trades) and h = 3
    (circle trades): a ledger entry (s, t, den) of ``routes`` routes adds
    routes/(n!/(n - h)! den), the ledger corrected with ``mh`` on; under
    trades+circle each kind carries the coin's 1/2; staying gets the
    rest."""
    states = bp.enumerate_realizations(inst)
    ctx = oracle._ctx_of(states)
    n = inst.n
    fixed = inst.fixed.fixed_masks
    every = range(len(states))
    half = Fraction(1, 2) if circle else Fraction(1)
    rows = [Counter() for _ in states]
    kinds = [(2, oracle._trade_denominator)]
    if circle:
        kinds.append((3, circle_denominator))
    for h, den in kinds:
        corrected, uncorrected = oracle._rotation_ledgers(ctx, every, fixed, h, den)
        for (s, t, d), routes in (corrected if mh else uncorrected).items():
            rows[s][t] += half * routes / (math.perm(n, h) * d)
    for s, row in enumerate(rows):
        row[s] = 1 - sum(row.values())
    return states, rows


def free_3x9():
    """A free 3x9 with 29 states, wider than ``_NARROW``: rows of 1, 8 and
    5 columns, so a trade of the first two rows, when they share no column,
    takes 1 column of a 9-column pool, by tries of three AND-ed words."""
    return bp.Instance.unconstrained((1, 8, 5), (2, 2, 2, 2, 2, 1, 1, 1, 1))


def free_2x18():
    """A free 2x18 with 18 states: rows of 1 and 17 columns, so every trade
    takes 1 or 17 columns of the whole 18-column pool, by tries of three
    AND-ed words."""
    return bp.Instance.unconstrained((1, 17), (1,) * 18)


def free_3x12():
    """A free 3x12 with 296 states, four of its columns empty: rows of 2, 3
    and 5 columns, so a circle trade's pivot subset is mostly 1 column and
    its other two subsets take 1 of 3 to 5 columns, by tries of two AND-ed
    words."""
    return bp.Instance.unconstrained((2, 3, 5), (1,) * 6 + (2,) * 2 + (0,) * 4)


@pytest.mark.parametrize("make, circle, mh, reach", [
    pytest.param(lambda: bp.Instance.unconstrained((2,) * 4, (2,) * 4), False, True, set(),
                 id="free_4x4-trades"),
    pytest.param(readme_4x4, True, True, set(), id="readme_4x4-trades+circle"),
    pytest.param(readme_4x4, True, False, set(), id="readme_4x4-trades+circle/mh-off"),
    pytest.param(lambda: circle_instance().instance, True, True, set(),
                 id="circle_3x6-trades+circle"),
    pytest.param(lambda: circle_instance().instance, True, False, set(),
                 id="circle_3x6-trades+circle/mh-off"),
    pytest.param(free_3x9, False, True, {3}, id="free_3x9-trades"),
    pytest.param(free_3x9, True, True, {3}, id="free_3x9-trades+circle"),
    pytest.param(free_3x9, True, False, {3}, id="free_3x9-trades+circle/mh-off"),
    pytest.param(free_2x18, False, True, {3}, id="free_2x18-trades"),
    pytest.param(free_3x12, True, True, {2}, id="free_3x12-trades+circle"),
    pytest.param(free_3x12, True, False, {2}, id="free_3x12-trades+circle/mh-off"),
])
def test_kernel_steps_follow_the_exact_ledgers(make, circle, mh, reach):
    """One-step kernel draws from fixed start states land only on the
    successors the oracle's ledgers give, at their exact frequencies.  The
    kernel takes the tables ``bp.Chain`` passes it: a rank table up to
    ``_NARROW`` columns, so that it never calls ``_draw_subset``; on wider
    grids none, and a spy on ``_draw_subset`` confirms that the trades'
    subsets, or under trades+circle the circle trades' x-subsets, are
    drawn with every number of AND-ed words in ``reach``."""
    inst = make()
    states, exact = _exact_rows(inst, circle, mh)
    index = {g.masks: s for s, g in enumerate(states)}
    fixed = inst.fixed.fixed_masks
    move_set = MoveSet.trades_plus_circle() if circle else MoveSet.trades()
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chains, "_trades", lambda *args: built.append(args) or _trades(*args))
        bp.Chain(states[0], ChainConfig(move_set, 1, 0, mh_correction=mh))
    [(_, _, _, _, n_cols, flag, ranks)] = built
    assert flag == (mh if circle else None)
    assert (ranks is None) == (inst.n_cols > _NARROW)
    planned = Counter()

    def spy(pool, k, getrandbits, plans):
        subset = _draw_subset(pool, k, getrandbits, plans)
        planned[plans[pool.bit_count()][k]] += 1
        return subset

    rng = random.Random(20240801)
    draws = 20_000
    rows = [0] * inst.n
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chains, "_draw_subset", spy)
        step = primed(_trades(rows, fixed, inst.n, rng, n_cols, flag, ranks)).send
        if circle:
            # Circle trades alone, from every state: their x-subsets.
            for g in states * 20:
                rows[:] = g.masks
                primed(_trades(rows, fixed, inst.n, _CircleCoin(rng), n_cols, flag, ranks)).send(1)
            assert reach <= set(planned), planned
    for s in (0, len(states) // 2, len(states) - 1):
        start = states[s].masks
        counts = Counter()
        for _ in range(draws):
            rows[:] = start
            step(1)
            counts[index[tuple(rows)]] += 1
        support = sorted(t for t, p in exact[s].items() if p)
        assert set(counts) <= set(support), s
        expected = [float(draws * exact[s][t]) for t in support]
        p = stats.chisquare([counts[t] for t in support], expected).pvalue
        assert p > 1e-3, (s, p)
    assert reach <= set(planned), planned
    assert bool(planned) == (ranks is None), planned


class _Script:
    """An rng that answers each ``getrandbits`` or ``randrange`` call with
    the next value of its script, which must lie below the call's bound,
    and counts the values it gave and keeps their bounds."""

    def __init__(self):
        self.run(())

    def run(self, script):
        self.script, self.used, self.bounds = script, 0, []
        return self

    def _next(self, bound):
        value = self.script[self.used]
        assert value < bound
        self.used += 1
        self.bounds.append(bound)
        return value

    def getrandbits(self, k):
        return self._next(1 << k)

    def randrange(self, m):
        return self._next(m)

    def random(self):
        return self._next(1)


def test_draw_subset_is_exact_on_every_value_of_a_try():
    """With tries of t AND-ed words planned, on pools of 1 to 12 of the
    columns 0..11 for t = 1 and of 1 to 4 of the columns 0..3 for t = 2
    and 3, and every 0 < k < p, a scripted rng feeds ``_draw_subset``
    every value of every word of one try.  A try is t ``getrandbits`` as
    wide as the pool: one whose AND
    sets k pool columns gives them, one that sets p - k gives the rest of
    the pool, and the accepted tries hit every k-subset equally often
    through each of the two, (2^t - 1)^(p - k) and (2^t - 1)^k times per
    pool column pattern; any other try is followed by a fresh try of t
    words of the same width.  With a walk planned, the helper makes
    exactly the index draws of the walk, the getrandbits loop of
    ``randrange``, and gives the walk's subset.  A pool with one k-subset
    draws nothing."""
    for words, width in ((1, 12), (2, 4), (3, 4)):
        _check_every_try(words, width)


def _check_every_try(words, width):
    """The test above for tries of ``words`` words on pools of up to
    ``width`` columns."""
    rng = _Script()
    columns = random.Random(12)
    plans = [[words] * (p + 1) for p in range(width + 1)]
    walks = [[-comb(p, k) for k in range(p + 1)] for p in range(width + 1)]
    natural = [None] * (width + 1)
    base = (1 << words) - 1
    for p in range(1, width + 1):
        pool = mask(columns.sample(range(width), p))
        bits = pool.bit_length()
        for k in (0, p):
            assert _draw_subset(pool, k, rng.run(()).getrandbits, natural) == (pool if k else 0)
            assert rng.used == 0
        for k in range(1, p):
            total = comb(p, k)
            subsets = {mask(c) for c in itertools.combinations(cols(pool), k)}

            def draw(plan, *script):
                return _draw_subset(pool, k, rng.run(script).getrandbits, plan)

            index_bits = total.bit_length()
            for r in range(1 << index_bits):
                want = unrank(pool, k, r if r < total else 0)
                assert draw(walks, r, 0) == want, (pool, k, r)
                assert rng.bounds == [1 << index_bits] * (1 if r < total else 2)
            first = min(subsets)  # a try of these words accepts it
            accept = (first,) + ((1 << bits) - 1,) * (words - 1)
            hits = {k: Counter(), p - k: Counter()}
            for value in itertools.product(range(1 << bits), repeat=words):
                got = draw(plans, *value, *accept)
                kept = pool
                for v in value:
                    kept &= v
                size = kept.bit_count()
                if size in hits:
                    assert rng.used == words
                    assert got == (kept if size == k else pool ^ kept)
                    hits[size][got] += 1
                else:
                    assert rng.used == 2 * words and got == first
                assert rng.bounds == [1 << bits] * rng.used
            spare = 1 << words * (bits - p)  # the words' bits off the pool
            for size, hit in hits.items():
                assert set(hit) == subsets, (pool, k)
                assert set(hit.values()) == {base ** (p - size) * spare}, (pool, k)


def test_try_words_plans_by_the_acceptance_floor():
    """``_try_words`` agrees with ``_words_reference`` on every (p, k) up
    to 60 columns and on pools of 511 to 513 and 3,000 columns, a walk
    planned as -C(p, k), and reaches every plan: single subsets, one, two
    and three AND-ed words and the walk.  A kernel's plans are one None
    per pool size until a pool of that size is drawn, then a row of its
    sizes' plans, each filled in on first use."""

    def planned(p, k):
        words = _words_reference(p, k)
        return words if words >= 0 else -comb(p, k)

    seen = Counter()
    for p in range(61):
        for k in range(p + 1):
            words = _try_words(p, k)
            assert words == planned(p, k), (p, k)
            seen[max(words, -1)] += 1
    assert set(seen) == {-1, 0, 1, 2, 3}, seen
    plans = [None] * 41
    rng = random.Random(40)
    for p in range(41):
        _draw_subset((1 << p) - 1, p // 2, rng.getrandbits, plans)
        assert plans[p] == [None] * (p // 2) + [planned(p, p // 2)] + [None] * (p - p // 2)
        assert plans[p + 1:] == [None] * (40 - p)
        for k in range(p + 1):
            _draw_subset((1 << p) - 1, k, rng.getrandbits, plans)
    assert plans == [[planned(p, k) for k in range(p + 1)] for p in range(41)]
    for p in (511, 512, 513, 3000):
        for k in (1, p // 8, p // 5, p // 3, p // 2, p - 1):
            assert _try_words(p, k) == planned(p, k), (p, k)


def test_wide_trade_chains_allocate_little():
    """On a free 4x500 grid (row degrees 250, column degrees 2), building a
    trades chain and taking 200 steps, then a trades+circle chain and 200
    steps, peaks under 1 MB of allocations: the kernels keep a plan per
    pool size drawn, and no binomial table, which would take about 9 MB at
    this width.  No other test builds a chain 500 columns wide."""
    m = 500
    start = bp.initial_realization(bp.Instance.unconstrained([m // 2] * 4, [2] * m))
    tracemalloc.start()
    try:
        for move_set in (MoveSet.trades(), MoveSet.trades_plus_circle()):
            chain = bp.Chain(start, ChainConfig(move_set, steps=200, seed=500))
            chain.advance(200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_fresh_wide_chains_share_their_subset_plans():
    """A trade kernel's subset plans come from one per-process cache of
    ``_try_words``: a second fresh ``trades`` chain on ``free_100x100_a``
    with the first one's seed draws the same (p, k) plans, and computes
    none of them again; both chains keep the same stream."""
    text = (INSTANCES / "free_100x100_a.txt").read_text(encoding="utf-8")
    start = bp.initial_realization(cli.parse_instance(text))
    cfg = ChainConfig(MoveSet.trades(), steps=2000, seed=1)
    _try_words.cache_clear()
    ends = []
    for _ in range(2):
        chain = bp.Chain(start, cfg)
        chain.advance(cfg.steps)
        ends.append(chain.digit_rows())
        if len(ends) == 1:
            first = _try_words.cache_info()
    second = _try_words.cache_info()
    assert first.misses > 100  # the first chain worked its plans out
    assert second.misses == first.misses and second.hits >= first.misses
    assert ends[0] == ends[1]


def test_a_wide_circle_step_draws_one_pivot_word():
    """On a grid wider than ``_NARROW``, a circle trade draws its pivot
    subset as one ``getrandbits`` as wide as the pivot set's mask: a zero
    word is the lazy step and nothing more is drawn; a nonzero word keeps
    the pool columns it sets, and its size x is what the two other sets'
    draws take.  Rows {10, 11}, {0, 1, 2} and {3..7} of 12 columns: the
    triple (0, 1, 2) hands on sets of 3, 5 and 2 columns, the last of
    them the pivot, 12 bits wide."""
    start = [mask({10, 11}), mask({0, 1, 2}), mask(range(3, 8))]
    rng = _Script()
    rows = list(start)
    step = primed(_trades(rows, [0, 0, 0], 3, rng, 12, False)).send
    triple = (1, 0, 0, 0)  # the coin, then rows i = 0, j = 1 and t = 2
    rng.run(triple + (0,))
    step(1)
    assert rng.used == 5 and rows == start
    assert rng.bounds == [2, 4, 4, 2, 1 << 12]
    # Column 10 for column 0 of {0, 1, 2} and column 3 of {3..7}: one
    # column of 3 and of 5, each by tries of two AND-ed words.
    rng.run(triple + (1 << 10, 0b001, 0b111, 0b1000, 0xFF))
    step(1)
    assert rng.used == 9
    assert rng.bounds == [2, 4, 4, 2, 1 << 12, 1 << 3, 1 << 3, 1 << 8, 1 << 8]
    assert rows == [mask({0, 11}), mask({1, 2, 3}), mask({4, 5, 6, 7, 10})]


def pinned_5x5():
    """A pinned 5x5 with 7 states whose 4-swaps do not connect."""
    return random_pinned_instance(random.Random(42), 5, 5, 0.5, 8)


@pytest.mark.parametrize("fixture", ["9_states", "27_states", "pinned_5x5"])
def test_cycle_kernel_steps_follow_the_draw_all_kernel(criterion8_fixtures, fixture):
    """At L = 6, 8 and 10, the exact one-step rows of ``_cycles`` equal
    those of the kernel that draws its whole walk first, as Fractions.
    Every draw sequence, h then the h row and h column positions, has
    probability 1 / ((L/2 - 1) * prod(n - t) * prod(nc - t)).  A scripted
    rng feeds each sequence to the reference in that order and to the
    kernel in walk order, r0, c0, r1, c1, ...; the reference takes all of
    it, the kernel a prefix.  The reference's outcome of a sequence does
    not depend on L, so it is tallied once per h."""
    inst = {
        "9_states": lambda: criterion8_fixtures[3][1],
        "27_states": lambda: criterion8_fixtures[4][1],
        "pinned_5x5": pinned_5x5,
    }[fixture]()
    states = bp.enumerate_realizations(inst)
    by_rows = {g.rows: s for s, g in enumerate(states)}
    by_masks = {g.masks: s for s, g in enumerate(states)}
    n, nc = inst.n, inst.n_cols
    rng = _Script()
    rows = [0] * n

    def walks(h):
        if h > n or h > nc:
            return [((), ())]
        return list(itertools.product(
            itertools.product(*(range(n - t) for t in range(h))),
            itertools.product(*(range(nc - t) for t in range(h))),
        ))

    # The successor counts of each h and start state over its walks.
    expected = {}
    for h in range(2, 6):
        for s, g in enumerate(states):
            expected[h, s] = tally = Counter()
            for row_pos, col_pos in walks(h):
                draw_all = [h - 2, *row_pos, *col_pos]
                tally[by_rows[_cycle_draw_all_reference(g, 10, rng.run(draw_all))]] += 1
                assert rng.used == len(draw_all)
    for limit in (6, 8, 10):
        send = primed(_cycles(rows, inst.fixed.fixed_masks, n, rng, nc, limit)).send
        kernel = [Counter() for _ in states]
        reference = [Counter() for _ in states]
        for h in range(2, limit // 2 + 1):
            # The bounds of the kernel's draws in walk order.
            bounds = [] if h > n or h > nc else \
                [m for t in range(h) for m in (n - t, nc - t)]
            p = Fraction(1, (limit // 2 - 1) * math.prod(bounds))
            for s, g in enumerate(states):
                got = Counter()

                def follow(prefix):
                    # Run the walk-order sequence that continues the prefix
                    # with zeros; a step that ends within the prefix ends so
                    # for every continuation, and so counts once for each.
                    rows[:] = g.masks
                    rng.run([h - 2, *prefix] + [0] * (len(bounds) - len(prefix)))
                    send(1)
                    if rng.used <= 1 + len(prefix):
                        got[by_masks[tuple(rows)]] += math.prod(bounds[len(prefix):])
                    else:
                        for pos in range(bounds[len(prefix)]):
                            follow([*prefix, pos])

                follow([])
                assert got.total() == math.prod(bounds)
                for t, count in got.items():
                    kernel[s][t] += count * p
                for t, count in expected[h, s].items():
                    reference[s][t] += count * p
        assert kernel == reference, limit
        assert all(sum(row.values()) == 1 for row in kernel), limit
        assert any(len(row) > 1 for row in kernel), ("no step moved", limit)


class _NoRejection:
    """An rng whose ``getrandbits(k)`` gives k - 1 random bits, a value
    below every bound of bit length k, so that each call is one whole
    draw; it counts the calls."""

    def __init__(self, seed):
        self._getrandbits = random.Random(seed).getrandbits
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return self._getrandbits(k - 1)


@pytest.mark.parametrize("size, limit", [(30, 8), (100, 200)])
def test_a_cycle_step_draws_no_further_than_its_first_failed_cell(size, limit):
    """On a free grid whose columns are each all ones or all zeros, cell
    (r1, c0) always holds the value of (r0, c0), so every step ends there,
    after its h draw and three position draws, r0, c0 and r1, whatever
    its length.  With every cell fixed, every step ends at (r0, c0),
    after two position draws.  No step moves."""
    half = size // 2
    degrees = (half,) * size, (size,) * half + (0,) * half
    every_cell = [(i, j) for i in range(size) for j in range(size)]
    pinned = bp.FixedSet.from_cells(
        size, size,
        forced_edges=[(i, j) for i, j in every_cell if j < half],
        forced_non_edges=[(i, j) for i, j in every_cell if j >= half],
    )
    steps = 2000
    for fixed, draws in ((None, 4), (pinned, 3)):
        inst = bp.Instance(bp.DegreeSequence(*degrees), fixed) if fixed else \
            bp.Instance.unconstrained(*degrees)
        start = list(bp.initial_realization(inst).masks)
        rows = list(start)
        rng = _NoRejection(limit)
        primed(_cycles(rows, inst.fixed.fixed_masks, size, rng, size, limit)).send(steps)
        assert rng.calls == draws * steps, (fixed is None, rng.calls)
        assert rows == start


def _unrank_reference(pool, k, index):
    """The index-th k-subset of ``pool``: one binomial per pool position."""
    out = set()
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


def _unrank_ratio_reference(pool, k, index):
    """The rank walk re-derived: ``rest`` counts the subsets that take the
    current column next, C(m, need - 1), started by ``math.comb`` and
    updated by an exact ratio per column."""
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


def test_unrank_subset_matches_the_ratio_walk_on_every_small_pool():
    # every pool of the columns 0..9, every k and every index
    calls = 0
    for pool in range(1 << 10):
        size = pool.bit_count()
        for k in range(size + 1):
            for index in range(comb(size, k)):
                want = _unrank_ratio_reference(pool, k, index)
                assert unrank(pool, k, index) == want, (pool, k, index)
                calls += 1
    assert calls == 3 ** 10


def test_unrank_subset_matches_the_ratio_walk_on_random_pools():
    rng = random.Random(19)
    for _ in range(10_000):
        pool = mask(rng.sample(range(120), rng.randint(0, 120)))
        size = pool.bit_count()
        k = rng.randint(0, size)
        total = comb(size, k)
        index = rng.choice((0, total - 1, rng.randrange(total)))
        want = _unrank_ratio_reference(pool, k, index)
        assert unrank(pool, k, index) == want, (pool, k, index)


def test_unrank_subset_matches_the_ratio_walk_on_pools_of_hundreds_of_columns():
    """On pools of 511 to 513 columns, for every index where k is at most
    1 or at least r - 1, and for the first, the last and 8 random indices
    of 8 other sizes."""
    rng = random.Random(512)
    for size in (511, 512, 513):
        pool = mask(rng.sample(range(552), size))
        for k in (0, 1, size - 1, size):
            for index in range(comb(size, k)):
                want = _unrank_ratio_reference(pool, k, index)
                assert unrank(pool, k, index) == want, (size, k, index)
        for k in (2, 3, 17, size // 3, size // 2, size - 40, size - 3, size - 2):
            total = comb(size, k)
            for index in (0, total - 1, *(rng.randrange(total) for _ in range(8))):
                want = _unrank_ratio_reference(pool, k, index)
                assert unrank(pool, k, index) == want, (size, k, index)


def test_unrank_subset_follows_combinations_order():
    rng = random.Random(5)
    for size in range(11):
        pool = sorted(rng.sample(range(40), size))
        for k in range(size + 1):
            combos = list(itertools.combinations(pool, k))
            assert len(combos) == comb(size, k)
            for index, combo in enumerate(combos):
                assert cols(unrank(mask(pool), k, index)) == list(combo)


def test_unrank_subset_matches_comb_per_position_formula():
    rng = random.Random(6)
    for _ in range(20_000):
        size = rng.randint(0, 120)
        pool = sorted(rng.sample(range(120), size))
        k = rng.randint(0, size)
        total = comb(size, k)
        index = rng.choice((0, total - 1, rng.randrange(total)))
        got = set(cols(unrank(mask(pool), k, index)))
        assert got == _unrank_reference(pool, k, index)


def _no_walk(*args):
    raise AssertionError("a narrow grid walked a subset rank")


def _reference_keys(start, cfg, draw, pivot):
    """The key stream and final rng state of ``cfg``'s trade-kind chain
    from ``start``, stepped by the row-set references with ``draw`` and
    ``pivot``."""
    rng = random.Random(cfg.seed)
    g, keys = start, []
    for step in range(1, cfg.steps - cfg.steps % cfg.sample_gap + 1):
        if cfg.move_set.kind == MoveSet.TRADES:
            rows = _trade_reference(g, rng, draw)
        else:
            rows = _mixed_reference(g, rng, cfg.mh_correction, draw, pivot)
        g = bp.Realization.from_rows(g.instance, rows)
        if step % cfg.sample_gap == 0:
            keys.append(g.masks)
    return keys, rng.getstate()


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    n_cols=st.integers(1, _NARROW + 1),
    n=st.integers(1, 6),
    density=st.floats(0.2, 0.8),
    pinned=st.floats(0.0, 0.5),
    move_set=st.sampled_from([MoveSet.trades(), MoveSet.trades_plus_circle()]),
    mh=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_rank_table_draws_the_stream_of_the_walk(n_cols, n, density, pinned, move_set, mh, seed):
    """On random pinned grids of every width up to ``_NARROW``, a chain
    that reads its subsets from the rank table keeps the key stream and
    the final rng state of the row-set references that draw one
    ``randrange`` index per subset and walk it, and it never walks itself.
    One column wider, the chain keeps those of the references that draw
    the circle pivot's subset as one masked word and every other subset
    as ``_draw_subset`` does."""
    inst = random_pinned_instance(
        random.Random(seed), n, n_cols, density, int(pinned * n * n_cols)
    )
    start = bp.initial_realization(inst)
    cfg = ChainConfig(move_set, steps=300, seed=seed, sample_gap=3, mh_correction=mh)
    with pytest.MonkeyPatch.context() as mp:
        if n_cols <= _NARROW:
            _rank_table(n_cols)  # built by the walk before it is barred
            mp.setattr(chains, "_unrank_subset", _no_walk)
        chain = bp.Chain(start, cfg)
        got = list(chain.keys()), chain._rng.getstate()
    if n_cols <= _NARROW:
        assert got == _reference_keys(start, cfg, _walk_draw, _loop_pivot)
    else:
        assert got == _reference_keys(start, cfg, _masked_draw, _mask_pivot)


def test_rank_table_holds_every_subset_of_every_pool():
    """At the widest table, every pool's k-subsets in the walk's rank order
    with their count and its bit length: 3^8 subsets in all."""
    ranks = _rank_table(_NARROW)
    assert len(ranks) == 1 << _NARROW << 4
    held = 0
    for slot, entry in enumerate(ranks):
        pool, k = slot >> 4, slot & 15
        size = pool.bit_count()
        if k > size:
            assert entry is None
            continue
        total, bits, subsets = entry
        assert total == comb(size, k) == len(subsets)
        assert bits == total.bit_length()
        assert subsets == tuple(unrank(pool, k, r) for r in range(total))
        held += total
    assert held == 3 ** _NARROW == 6561
