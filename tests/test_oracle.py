"""Enumeration, state graphs, exact checks and the verification driver."""

import random
import re

import pytest

import bipsample as bp
from bipsample import oracle
from bipsample.chains import ChainConfig
from bipsample.core import MoveSet

SPLIT_MASK_CELLS = ((0, 0), (1, 1), (2, 2), (3, 1))


def split_instance():
    return bp.Instance(
        bp.DegreeSequence((1, 1, 1, 1), (2, 1, 1)),
        bp.FixedSet.from_cells(4, 3, forced_non_edges=SPLIT_MASK_CELLS),
    )


def test_enumerate_counts():
    assert len(bp.enumerate_realizations(bp.Instance.unconstrained((1, 1), (1, 1)))) == 2
    assert len(bp.enumerate_realizations(bp.Instance.unconstrained((1, 1, 1), (1, 1, 1)))) == 6
    assert len(bp.enumerate_realizations(bp.Instance.unconstrained((2, 2, 2), (2, 2, 2)))) == 6
    assert len(bp.enumerate_realizations(split_instance())) == 3


def test_enumerate_respects_guard():
    with pytest.raises(bp.TooLarge):
        bp.enumerate_realizations(bp.Instance.unconstrained((1,) * 7, (1,) * 6 + (0,)))


def test_enumeration_is_canonically_ordered():
    states = bp.enumerate_realizations(bp.Instance.unconstrained((1, 1, 1), (1, 1, 1)))
    keys = ["".join(str(v) for row in g.matrix for v in row) for g in states]
    assert keys == sorted(keys)


def test_state_graph_edges_by_move_set():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    states = bp.enumerate_realizations(inst)
    for move_set in (
        MoveSet.swaps4(), MoveSet.swaps46(), MoveSet.swaps_up_to(8),
        MoveSet.trades(), MoveSet.trades_plus_circle(),
    ):
        sg = bp.build_state_graph(states, move_set)
        assert sg.edges[0] and sg.edges[1]


def test_state_graph_excludes_long_cycles():
    # the two diagonal-free derangements of a 3x3 differ by one 6-cycle
    inst = bp.Instance(
        bp.DegreeSequence((1, 1, 1), (1, 1, 1)),
        bp.FixedSet.from_cells(3, 3, forced_non_edges=[(0, 0), (1, 1), (2, 2)]),
    )
    states = bp.enumerate_realizations(inst)
    assert len(states) == 2
    assert bp.build_state_graph(states, MoveSet.swaps4()).edges == ((), ())
    sg46 = bp.build_state_graph(states, MoveSet.swaps46())
    assert sg46.edges[0] == ((1, "6-swap"),)


def test_trade_edges_contain_swap_edges():
    rng = random.Random(3)
    for _ in range(10):
        n, nc = rng.randint(2, 4), rng.randint(2, 4)
        matrix = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(n)]
        inst = bp.Instance.unconstrained(
            [sum(r) for r in matrix],
            [sum(matrix[i][j] for i in range(n)) for j in range(nc)],
        )
        states = bp.enumerate_realizations(inst)
        if len(states) < 2:
            continue
        sg4 = bp.build_state_graph(states, MoveSet.swaps4())
        sgt = bp.build_state_graph(states, MoveSet.trades())
        for s in range(len(states)):
            swap_nbrs = {t for t, _ in sg4.edges[s]}
            trade_nbrs = {t for t, _ in sgt.edges[s]}
            assert swap_nbrs <= trade_nbrs


def test_connectivity_single_state():
    inst = bp.Instance.unconstrained((2, 1), (2, 1))
    sg = bp.build_state_graph(bp.enumerate_realizations(inst), MoveSet.swaps4())
    connected, comps = bp.check_connectivity(sg)
    assert connected and comps == [[0]]


def test_split_instance_components():
    states = bp.enumerate_realizations(split_instance())
    sg4 = bp.build_state_graph(states, MoveSet.swaps4())
    connected, comps = bp.check_connectivity(sg4)
    assert not connected and len(comps) == 2
    assert not bp.components_isomorphic(sg4)
    sgc = bp.build_state_graph(states, MoveSet.trades_plus_circle())
    connected, _ = bp.check_connectivity(sgc)
    assert connected


def test_distance_bound_adjacent_pairs():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    sg = bp.build_state_graph(bp.enumerate_realizations(inst), MoveSet.swaps4())
    assert bp.check_distance_bound(sg)


def test_distance_bound_on_permutations():
    inst = bp.Instance.unconstrained((1, 1, 1), (1, 1, 1))
    sg = bp.build_state_graph(bp.enumerate_realizations(inst), MoveSet.swaps4())
    assert bp.check_distance_bound(sg)


def test_distance_bound_forest_masks_under_swaps46():
    rng = random.Random(23)
    done = 0
    while done < 8:
        n, nc = rng.randint(2, 4), rng.randint(2, 4)
        matrix = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(n)]
        cells = [(i, j) for i in range(n) for j in range(nc)]
        support = rng.sample(cells, rng.randint(0, 3))
        from bipsample.analysis import FGraph
        if not bp.is_forest(FGraph.from_cells(n, nc, support)):
            continue
        inst = bp.Instance(
            bp.DegreeSequence(
                [sum(r) for r in matrix],
                [sum(matrix[i][j] for i in range(n)) for j in range(nc)],
            ),
            bp.FixedSet.from_cells(
                n, nc,
                forced_edges=[c for c in support if matrix[c[0]][c[1]]],
                forced_non_edges=[c for c in support if not matrix[c[0]][c[1]]],
            ),
        )
        states = bp.enumerate_realizations(inst)
        if len(states) < 2:
            continue
        sg = bp.build_state_graph(states, MoveSet.swaps46())
        assert bp.check_distance_bound(sg)
        done += 1


def test_check_static_set_examples():
    for degs in (((3,), (1, 1, 1)), ((1,), (1, 0)), ((2, 1), (2, 1))):
        inst = bp.Instance.unconstrained(*degs)
        assert bp.check_static_set(inst, bp.enumerate_realizations(inst))


def test_components_isomorphic_connected_graph():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    sg = bp.build_state_graph(bp.enumerate_realizations(inst), MoveSet.swaps4())
    assert bp.components_isomorphic(sg)  # vacuous on one component


def test_run_verification_trivial_grid():
    res = bp.run_verification(max_rows=1, max_cols=1, random_count=200, seed=1, quiet=True)
    assert res.passed


def test_components_isomorphic_pinned_diagonal():
    # two singleton components: trivially isomorphic
    inst = bp.Instance(
        bp.DegreeSequence((1, 1, 1), (1, 1, 1)),
        bp.FixedSet.from_cells(3, 3, forced_non_edges=[(0, 0), (1, 1), (2, 2)]),
    )
    sg = bp.build_state_graph(bp.enumerate_realizations(inst), MoveSet.swaps4())
    _, comps = bp.check_connectivity(sg)
    assert len(comps) == 2
    assert bp.components_isomorphic(sg)


def test_uniformity_unique_realization():
    inst = bp.Instance.unconstrained((2, 1), (2, 1))
    tv, p = bp.uniformity_report(inst, ChainConfig(MoveSet.trades(), 100, 5))
    assert tv == 0.0 and p == 1.0


def test_uniformity_two_state_trades():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    cfg = ChainConfig(MoveSet.trades(), steps=1_000_000, seed=31, sample_gap=1)
    tv, p = bp.uniformity_report(inst, cfg)
    assert tv < 0.01
    assert p > 0.001


def test_search_split_masks_finds_frozen_witness():
    records = bp.search_split_masks()
    assert records
    by_cells = {r["cells"]: r for r in records}
    witness = by_cells[SPLIT_MASK_CELLS]
    assert witness["n_components"] == 2
    assert witness["isomorphic"] is False
    assert witness["circle_connected"] is True
    assert witness["n_states"] == 3
    # every disconnected mask found by the search behaves the same way
    assert all(
        r["n_components"] == 2 and not r["isomorphic"] and r["circle_connected"]
        for r in records
    )


def test_run_verification_small_pool_passes():
    res = bp.run_verification(max_rows=2, max_cols=3, random_count=15, seed=5, quiet=True)
    assert res.passed
    assert res.checks_run > 100
    assert res.counts.get("trade-reversibility", 0) > 0


def _without_6_swaps(move_set):
    """``swap_lengths_for`` with the 6-swaps dropped from the 4/6 move set."""
    if move_set.kind == MoveSet.SWAPS46:
        return frozenset({4})
    return move_set.swap_lengths()


def test_run_verification_detects_injected_fault(monkeypatch):
    # drop 6-swaps from the 4/6 move set: connectivity must break on some
    # instance whose fixed cells contain no 8-cycle
    from bipsample.analysis import FGraph, has_cycle_of_length

    monkeypatch.setattr(oracle, "swap_lengths_for", _without_6_swaps)
    res = bp.run_verification(max_rows=3, max_cols=3, random_count=0, seed=5, quiet=True)
    assert not res.passed
    names = {name for name, _ in res.failures}
    assert "swaps46-connected" in names
    assert res.witness is not None and res.witness_check.endswith("connected")
    fg = FGraph.from_cells(
        res.witness.n, res.witness.n_cols, res.witness.fixed.cells
    )
    assert not has_cycle_of_length(fg, 8)


def test_quiet_sweep_reports_failures_as_a_full_one(monkeypatch):
    # a quiet sweep builds an instance's text only when a check fails; the
    # failures and FAIL lines must read as in a sweep that prints every line
    monkeypatch.setattr(oracle, "swap_lengths_for", _without_6_swaps)
    loud_lines, quiet_lines = [], []
    loud = bp.run_verification(3, 3, 0, seed=5, emit=loud_lines.append)
    quiet = bp.run_verification(3, 3, 0, seed=5, emit=quiet_lines.append, quiet=True)
    assert quiet.failures and quiet.failures == loud.failures
    assert quiet.counts == loud.counts
    assert quiet_lines == [line for line in loud_lines if not line.endswith(" PASS")]
    assert all(line.endswith("] FAIL") for line in quiet_lines)


def test_quiet_sweep_info_lines_name_their_instance(pool_result):
    pattern = re.compile(
        r"uncorrected-circle-asymmetry \[\d+x\d+ a=[\d,]+ b=[\d,]+ m=[01*|]+\]"
    )
    assert pool_result.info_lines
    assert all(pattern.fullmatch(line) for line in pool_result.info_lines)


def test_state_graph_moves_respect_masks():
    # every edge of every state graph really is one legal move
    inst = split_instance()
    states = bp.enumerate_realizations(inst)
    sg = bp.build_state_graph(states, MoveSet.trades_plus_circle())
    for s in range(len(states)):
        for t, label in sg.edges[s]:
            diff_rows = {
                i
                for i in range(inst.n)
                if states[s].matrix[i] != states[t].matrix[i]
            }
            assert len(diff_rows) == (2 if label == "trade" else 3)
