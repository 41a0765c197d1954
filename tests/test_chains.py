"""Trade, swap, circle-trade and bounded cycle-swap chains."""

import random
from collections import Counter
from math import comb

import pytest
from scipy import stats

import bipsample as bp
from bipsample import oracle
from bipsample.chains import STAY, ChainConfig, CircleTradeProposal, circle_denominator
from bipsample.core import MoveSet


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


def circle_instance():
    matrix = [[0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 1, 0], [1, 0, 0, 0, 0, 1]]
    a = [sum(r) for r in matrix]
    b = [sum(matrix[i][j] for i in range(3)) for j in range(6)]
    fixed = bp.FixedSet.from_cells(3, 6, forced_non_edges=[(0, 0), (1, 1), (2, 2)])
    inst = bp.Instance(bp.DegreeSequence(a, b), fixed)
    return bp.Realization(inst, matrix)


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(MoveSet.trades(), steps=0, seed=1)
    with pytest.raises(ValueError):
        ChainConfig(MoveSet.trades(), steps=1, seed=1, sample_gap=0)


def test_trade_enumeration_on_two_row_example():
    g = two_row_instance()
    cands = bp.enumerate_trades(g, 0, 1)
    assert len(cands) == 3
    stays = [c for c in cands if c is STAY]
    swaps = sorted(
        (tuple(sorted(c.b_ij)), tuple(sorted(c.b_ji)))
        for c in cands
        if c is not STAY
    )
    assert len(stays) == 1
    assert swaps == [((0, 6), (1,)), ((1, 6), (0,))]


def test_swap_proposals_on_two_row_example():
    g = two_row_instance()
    swap_06 = bp.Realization.from_rows(g.instance, [{1, 2, 3, 4, 5, 6}, {0, 3, 4}])
    swap_16 = bp.Realization.from_rows(g.instance, [{0, 2, 3, 4, 5, 6}, {1, 3, 4}])
    seen = Counter()
    rng = random.Random(0)
    for _ in range(3000):
        p = bp.propose_swap(g, rng)
        seen["stay" if p is STAY else p.apply(g).matrix] += 1
    # two single exchanges plus the lazy step, roughly uniform
    assert set(seen) == {"stay", swap_06.matrix, swap_16.matrix}
    assert all(abs(v / 3000 - 1 / 3) < 0.05 for v in seen.values())


def test_swap_changes_exactly_four_cells():
    g = two_row_instance()
    rng = random.Random(3)
    changed = False
    for _ in range(50):
        p = bp.propose_swap(g, rng)
        if p is STAY:
            continue
        h = p.apply(g)
        diff = sum(
            g.matrix[i][j] != h.matrix[i][j]
            for i in range(g.instance.n)
            for j in range(g.instance.n_cols)
        )
        assert diff == 4
        changed = True
    assert changed


def test_identical_rows_always_stay():
    inst = bp.Instance.unconstrained((1, 1), (2, 0))
    g = bp.Realization(inst, [[1, 0], [1, 0]])
    rng = random.Random(0)
    for _ in range(20):
        assert bp.propose_trade(g, rng) is STAY
        assert bp.propose_swap(g, rng) is STAY


def test_trade_subset_choice_is_uniform():
    g = two_row_instance()
    # pool {0,1,6}: three equally likely replacement subsets (one is Stay)
    rng = random.Random(42)
    counts = Counter()
    draws = 100_000
    for _ in range(draws):
        p = bp.propose_trade(g, rng)
        counts["stay" if p is STAY else p.apply(g).matrix] += 1
    assert len(counts) == 3 and counts["stay"] > 0
    _, pval = stats.chisquare(list(counts.values()))
    assert pval > 0.01


def test_trade_preserves_pair_difference_set():
    rng = random.Random(8)
    inst = bp.Instance.unconstrained((2, 2, 2), (2, 2, 2))
    g = bp.initial_realization(inst)
    fixed = inst.fixed.row_fixed()
    for _ in range(200):
        p = bp.propose_trade(g, rng)
        if p is STAY:
            continue
        h = p.apply(g)
        i, j = p.i, p.j
        before = (g.rows[i] ^ g.rows[j]) - fixed[i] - fixed[j]
        after = (h.rows[i] ^ h.rows[j]) - fixed[i] - fixed[j]
        assert before == after
        g = h


def test_circle_trade_worked_rotations():
    gA = circle_instance()
    d_full = dict(
        d_ji=frozenset({2, 4}), d_kj=frozenset({0, 5}), d_ik=frozenset({1, 3})
    )
    full = CircleTradeProposal(
        0, 1, 2, sub_i=frozenset({1, 3}), sub_j=frozenset({2, 4}),
        sub_k=frozenset({0, 5}), **d_full,
    )
    assert full.apply(gA).matrix == (
        (0, 0, 1, 0, 1, 0), (1, 0, 0, 0, 0, 1), (0, 1, 0, 1, 0, 0)
    )
    single = CircleTradeProposal(
        0, 1, 2, sub_i=frozenset({3}), sub_j=frozenset({2}),
        sub_k=frozenset({5}), **d_full,
    )
    assert single.apply(gA).matrix == (
        (0, 1, 1, 0, 0, 0), (0, 0, 0, 0, 1, 1), (1, 0, 0, 1, 0, 0)
    )
    other_order = CircleTradeProposal(
        1, 0, 2, d_ji=frozenset({3}), d_kj=frozenset({5}), d_ik=frozenset({4}),
        sub_i=frozenset({4}), sub_j=frozenset({3}), sub_k=frozenset({5}),
    )
    assert other_order.apply(gA).matrix == (
        (0, 1, 0, 0, 0, 1), (0, 0, 1, 1, 0, 0), (1, 0, 0, 0, 1, 0)
    )


def test_circle_proposals_apply_cleanly():
    gA = circle_instance()
    rng = random.Random(9)
    applied = 0
    for _ in range(300):
        p = bp.propose_circle_trade(gA, rng)
        if p is STAY:
            continue
        h = p.apply(gA)  # construction validates degrees and mask
        assert h.instance == gA.instance
        applied += 1
    assert applied > 0


def test_circle_trade_needs_three_rows():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    g = bp.initial_realization(inst)
    with pytest.raises(ValueError):
        bp.propose_circle_trade(g, random.Random(0))


def test_circle_trade_empty_difference_set_stays():
    # one row owns everything it may own: every difference set is empty
    inst = bp.Instance.unconstrained((2, 2, 2), (3, 3, 0))
    g = bp.Realization(inst, [[1, 1, 0], [1, 1, 0], [1, 1, 0]])
    rng = random.Random(1)
    for _ in range(30):
        assert bp.propose_circle_trade(g, rng) is STAY


def test_circle_denominator_values():
    assert circle_denominator((2, 2, 2), 2) == 4  # 2^2 * C(2,2)^2
    assert circle_denominator((1, 2, 1), 1) == 2 * comb(2, 1) * comb(1, 1)
    assert circle_denominator((3, 2, 2), 1) == 4 * comb(3, 1) * comb(2, 1)


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
        MoveSet.swaps46(),
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
    outcomes = set()
    for _ in range(200):
        c = bp.propose_bounded_cycle_swap(g, 4, rng)
        if c is not STAY:
            outcomes.add(tuple(sorted(c)))
    assert outcomes == {((0, 0), (0, 1), (1, 0), (1, 1))}


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
        assert bp.propose_bounded_cycle_swap(g, 4, rng) is STAY


def test_bounded_cycle_swap_rejects_bad_limit():
    g = bp.initial_realization(bp.Instance.unconstrained((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        bp.propose_bounded_cycle_swap(g, 5, random.Random(0))


def test_bounded_cycle_proposals_match_state_graph_edges():
    inst = bp.Instance.unconstrained((2, 1, 1), (2, 1, 1))
    states = bp.enumerate_realizations(inst)
    limit = 6
    sg = bp.build_state_graph(states, MoveSet.swaps_up_to(limit))
    rng = random.Random(44)
    for s, g in enumerate(states):
        reachable = set()
        for _ in range(4000):
            c = bp.propose_bounded_cycle_swap(g, limit, rng)
            if c is STAY:
                continue
            h = bp.apply_cycle_swap(g, list(c))
            reachable.add(h.matrix)
        neighbors = {states[t].matrix for t, _ in sg.edges[s]}
        assert reachable == neighbors


def test_single_step_api_matches_runner():
    inst = bp.Instance.unconstrained((2, 2, 1), (2, 2, 1))
    cfg = ChainConfig(MoveSet.trades(), steps=50, seed=11, sample_gap=1)
    rng = random.Random(cfg.seed)
    g = bp.initial_realization(inst)
    for expected in bp.run(inst, cfg):
        g = bp.step(g, cfg, rng)
        assert g.matrix == expected.matrix


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
        _, p = stats.chisquare(counts)
        assert bp.uniformity_report(inst, cfg) == (tv, float(p)), label


def test_uniformity_report_rejects_a_state_outside_the_enumeration(monkeypatch):
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    states = bp.enumerate_realizations(inst)
    monkeypatch.setattr(oracle, "enumerate_realizations", lambda _: states[:1])
    with pytest.raises(KeyError):
        bp.uniformity_report(inst, ChainConfig(MoveSet.trades(), 200, 3))
