"""Enumeration, state graphs, exact checks and the verification driver."""

import functools
import gc
import hashlib
import itertools
import json
import operator
import os
import random
import re
import sys
import weakref
from collections import Counter
from math import comb, prod

import pytest

import bipsample as bp
from bipsample import chains, cli, oracle
from bipsample.chains import ChainConfig
from bipsample.core import MoveSet
from bipsample.realizability import StaticSet
from streams import random_pinned_instance

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
# sha256 of the pool's INFO lines joined by newlines, as the frozenset
# ledgers produced them.
POOL_INFO_SHA256 = "0c9fe2843f69c8fa0f5edb940dcea950c82d0c381d19ed180ac8f790f06ca8e8"

SPLIT_MASK_CELLS = ((0, 0), (1, 1), (2, 2), (3, 1))


def split_instance():
    return bp.Instance(
        bp.DegreeSequence((1, 1, 1, 1), (2, 1, 1)),
        bp.FixedSet.from_cells(4, 3, forced_non_edges=SPLIT_MASK_CELLS),
    )


def coloured_edges(sg):
    """Each state's edges as (neighbour, colour) pairs, the colour being the
    kind of move the exact pair class shows: the cycle length of a swap, or
    a trade against a circle trade."""
    ctx = oracle._ctx_of(list(sg.states))
    swaps = bool(sg.move_set.swap_lengths())

    def colour(s, t):
        rows, cycle_len, _ = oracle._classify_bits(ctx.bits[s], ctx.bits[t], ctx.n, ctx.nc)
        if swaps:
            return f"{cycle_len}-swap"
        return "trade" if len(rows) == 2 else "circle-trade"

    return [[(t, colour(s, t)) for t in nbrs] for s, nbrs in enumerate(sg.edges)]


def components_isomorphic(sg):
    """True iff all components of the state graph are pairwise isomorphic
    (adjacency and move colours preserved), by brute-force mapping with
    degree-profile pruning."""
    _, components = bp.check_connectivity(sg)
    if len(components) > 16:
        raise bp.TooLarge("too many components for isomorphism testing")
    if len(components) <= 1:
        return True
    if max(len(c) for c in components) > 12:
        raise bp.TooLarge("components too large for brute-force isomorphism")

    edges = coloured_edges(sg)

    def comp_graph(comp):
        pos = {s: idx for idx, s in enumerate(comp)}
        return [
            sorted((pos[v], lab) for v, lab in edges[s] if v in pos)
            for s in comp
        ]

    def profile(adj, v):
        return tuple(sorted(lab for _, lab in adj[v]))

    def isomorphic(adj_a, adj_b):
        if len(adj_a) != len(adj_b):
            return False
        prof_a = [profile(adj_a, v) for v in range(len(adj_a))]
        prof_b = [profile(adj_b, v) for v in range(len(adj_b))]
        if sorted(prof_a) != sorted(prof_b):
            return False
        size = len(adj_a)
        mapping = [-1] * size
        used = [False] * size

        def place(v):
            if v == size:
                return True
            for w in range(size):
                if used[w] or prof_b[w] != prof_a[v]:
                    continue
                ok = True
                for u in range(v):
                    a_labels = sorted(lab for x, lab in adj_a[v] if x == u)
                    b_labels = sorted(lab for x, lab in adj_b[w] if x == mapping[u])
                    if a_labels != b_labels:
                        ok = False
                        break
                if not ok:
                    continue
                mapping[v] = w
                used[w] = True
                if place(v + 1):
                    return True
                mapping[v] = -1
                used[w] = False
            return False

        return place(0)

    graphs = [comp_graph(c) for c in components]
    return all(isomorphic(graphs[0], g) for g in graphs[1:])


def search_split_masks(row_degrees=(1, 1, 1, 1), col_degrees=(2, 1, 1)):
    """Search every mask made of a 3-matching of forced non-edges plus one
    extra forced non-edge cell; report each whose 4-swap state graph is
    disconnected, with component count, pairwise isomorphism and
    trade-plus-circle connectivity."""
    degs = bp.DegreeSequence(row_degrees, col_degrees)
    n, nc = degs.n, degs.n_cols
    all_cells = [(i, j) for i in range(n) for j in range(nc)]
    records = []
    seen = set()
    for rows3 in itertools.combinations(range(n), 3):
        for cols3 in itertools.permutations(range(nc), 3):
            matching = list(zip(rows3, cols3))
            for extra in all_cells:
                if extra in matching:
                    continue
                cells = frozenset(matching + [extra])
                if cells in seen:
                    continue
                seen.add(cells)
                inst = bp.Instance(
                    degs, bp.FixedSet.from_cells(n, nc, forced_non_edges=cells)
                )
                states = bp.enumerate_realizations(inst)
                if len(states) < 2:
                    continue
                sg4 = bp.build_state_graph(states, MoveSet.swaps4())
                connected, comps = bp.check_connectivity(sg4)
                if connected:
                    continue
                circle = bp.build_state_graph(states, MoveSet.trades_plus_circle())
                records.append(
                    {
                        "cells": tuple(sorted(cells)),
                        "n_states": len(states),
                        "n_components": len(comps),
                        "isomorphic": components_isomorphic(sg4),
                        "circle_connected": bp.check_connectivity(circle)[0],
                    }
                )
    return records


def test_enumerate_counts():
    assert len(bp.enumerate_realizations(bp.Instance.unconstrained((1, 1), (1, 1)))) == 2
    assert len(bp.enumerate_realizations(bp.Instance.unconstrained((1, 1, 1), (1, 1, 1)))) == 6
    assert len(bp.enumerate_realizations(bp.Instance.unconstrained((2, 2, 2), (2, 2, 2)))) == 6
    assert len(bp.enumerate_realizations(split_instance())) == 3


def test_enumerate_respects_guard():
    with pytest.raises(bp.TooLarge):
        bp.enumerate_realizations(bp.Instance.unconstrained((1,) * 7, (1,) * 6 + (0,)))


def small_supports(n, nc):
    """Every support mask of at most 4 cells on an n x nc grid, in the order
    of the sweep's exhaustive half."""
    cells = [(i, j) for i in range(n) for j in range(nc)]
    return [
        oracle._cells_mask(sup, n, nc)
        for size in range(min(4, len(cells)) + 1)
        for sup in itertools.combinations(cells, size)
    ]


def test_pinned_enumeration_is_the_bucket():
    # on every grid up to 3x3, for every sequence of the exhaustive half,
    # every support of at most 4 cells and every pattern on it, realizable
    # or not, the enumeration the two masks pin is the exhaustive half's
    # bucket; for a pool instance (a bucket with states) so is that of the
    # instance the masks name
    pools = empty = 0
    for n in range(1, 4):
        for nc in range(1, 4):
            for a, b in oracle._sorted_sequences(n, nc):
                free = oracle._enumerate_bits(a, b)
                for sup in small_supports(n, nc):
                    buckets = {}
                    for x in free:
                        buckets.setdefault(x & sup, []).append(x)
                    pattern = sup
                    while True:
                        bucket = buckets.get(pattern, [])
                        assert oracle._enumerate_bits(a, b, sup, pattern) == bucket
                        pools += 1
                        empty += not bucket
                        if bucket:
                            inst = oracle._make_instance(n, nc, a, b, sup, pattern)
                            assert [
                                oracle._state_of(g.masks, nc)
                                for g in bp.enumerate_realizations(inst)
                            ] == bucket
                        if not pattern:
                            break
                        pattern = (pattern - 1) & sup
    assert pools > 150000 and pools - empty > 17000


def test_enumeration_is_the_filtered_grids():
    # on every grid of up to 12 cells, 1 x k and k x 1 included, the
    # enumeration of every sorted sequence is the list of 0/1 grids with its
    # degrees, in digit-string order, and so it is for a realizable one
    # under every support of at most 2 cells with each of its patterns; a
    # cap at the count gives the list, a cap below it None
    calls = 0
    for n in range(1, 13):
        for nc in range(1, 12 // n + 1):
            size = n * nc
            col = sum(1 << i * nc for i in range(n))
            row = (1 << nc) - 1
            grids = {}
            for digits in range(1 << size):
                x = int(format(digits, f"0{size}b")[::-1], 2)
                a = tuple((x >> i * nc & row).bit_count() for i in range(n))
                b = tuple((x & col << j).bit_count() for j in range(nc))
                grids.setdefault((a, b), []).append(x)
            cells = [1 << p for p in range(size)]
            pins = [
                (sum(sup), sum(itertools.compress(sup, on)))
                for k in (1, 2)
                for sup in itertools.combinations(cells, k)
                for on in itertools.product((0, 1), repeat=k)
            ]
            for a, b in oracle._sorted_sequences(n, nc):
                want = grids.get((a, b), [])
                assert oracle._enumerate_bits(a, b) == want
                if not want:
                    continue
                assert oracle._enumerate_bits(a, b, cap=len(want) - 1) is None
                for sup, pattern in pins:
                    kept = [x for x in want if x & sup == pattern]
                    got = oracle._enumerate_bits(a, b, sup, pattern, cap=len(kept))
                    assert got == kept
                    calls += 1
    assert calls > 120000


def test_enumeration_is_canonically_ordered():
    states = bp.enumerate_realizations(bp.Instance.unconstrained((1, 1, 1), (1, 1, 1)))
    keys = ["".join(str(v) for row in g.matrix for v in row) for g in states]
    assert keys == sorted(keys)


def test_state_graph_edges_by_move_set():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    states = bp.enumerate_realizations(inst)
    for move_set in (
        MoveSet.swaps4(), MoveSet.swaps_up_to(6), MoveSet.swaps_up_to(8),
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
    sg46 = bp.build_state_graph(states, MoveSet.swaps_up_to(6))
    assert sg46.edges == ((1,), (0,))
    assert coloured_edges(sg46)[0] == [(1, "6-swap")]


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
            assert set(sg4.edges[s]) <= set(sgt.edges[s])


def test_state_graph_needs_one_degree_sequence():
    # the builder's cell count reads 4 changed cells as one 4-cycle, which
    # holds only when the states share their degrees: 1100 and 0011 differ
    # in 4 cells of one row
    g = bp.Realization(bp.Instance.unconstrained((2,), (1, 1, 0, 0)), [[1, 1, 0, 0]])
    h = bp.Realization(bp.Instance.unconstrained((2,), (0, 0, 1, 1)), [[0, 0, 1, 1]])
    taller = bp.Realization(bp.Instance.unconstrained((2, 0), (1, 1, 0, 0)),
                            [[1, 1, 0, 0], [0, 0, 0, 0]])
    for other in (h, taller):
        for move_set in (MoveSet.swaps4(), MoveSet.trades()):
            with pytest.raises(ValueError, match="one degree sequence"):
                bp.build_state_graph([g, other], move_set)
    # one sequence under two fixed sets is one sequence
    free = bp.Instance.unconstrained((1, 1), (1, 1))
    pinned = bp.Instance(free.degrees, bp.FixedSet.from_cells(2, 2, forced_non_edges=[(0, 0)]))
    states = [bp.Realization(free, [[1, 0], [0, 1]]), bp.Realization(pinned, [[0, 1], [1, 0]])]
    assert bp.build_state_graph(states, MoveSet.swaps4()).edges == ((1,), (0,))


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
    assert not components_isomorphic(sg4)
    sgc = bp.build_state_graph(states, MoveSet.trades_plus_circle())
    connected, _ = bp.check_connectivity(sgc)
    assert connected


def distance_bound_holds(inst, move_set):
    """The sweep's distance check on every state of ``inst``, over the
    neighbour masks of ``move_set``."""
    states = bp.enumerate_realizations(inst)
    ctx = oracle._ctx_of(states)
    everything = (1 << len(states)) - 1
    return oracle._within_distance_bound(ctx.bits, ctx.neighbours(move_set), everything)


def test_distance_bound_adjacent_pairs():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    assert distance_bound_holds(inst, MoveSet.swaps4())


def test_distance_bound_on_permutations():
    inst = bp.Instance.unconstrained((1, 1, 1), (1, 1, 1))
    assert distance_bound_holds(inst, MoveSet.swaps4())
    # with the diagonal pinned the two states differ by one 6-cycle: out of
    # reach of 4-swaps, one move apart under 4/6-swaps
    pinned = bp.Instance(
        inst.degrees,
        bp.FixedSet.from_cells(3, 3, forced_non_edges=[(0, 0), (1, 1), (2, 2)]),
    )
    assert not distance_bound_holds(pinned, MoveSet.swaps4())
    assert distance_bound_holds(pinned, MoveSet.swaps_up_to(6))


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
        if len(bp.enumerate_realizations(inst)) < 2:
            continue
        assert distance_bound_holds(inst, MoveSet.swaps_up_to(6))
        done += 1


def test_check_static_set_examples():
    for a, b in (((3,), (1, 1, 1)), ((1,), (1, 0)), ((2, 1), (2, 1))):
        n, nc = len(a), len(b)
        ss = bp.static_set(bp.DegreeSequence(a, b))
        bits = oracle._enumerate_bits(a, b)
        every = functools.reduce(operator.and_, bits)
        none = ~functools.reduce(operator.or_, bits) & ((1 << n * nc) - 1)
        assert oracle._state_of(ss.edge_masks, nc) == every
        assert oracle._state_of(ss.non_edge_masks, nc) == none


def test_components_isomorphic_connected_graph():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    sg = bp.build_state_graph(bp.enumerate_realizations(inst), MoveSet.swaps4())
    assert components_isomorphic(sg)  # vacuous on one component


def test_run_verification_trivial_grid():
    res = bp.run_verification(max_rows=1, max_cols=1, random_count=200, seed=1, quiet=True)
    assert res.passed
    # random.Random(-s) draws the stream of Random(s), the pool of seed s
    with pytest.raises(ValueError, match="seed must be >= 0"):
        bp.run_verification(max_rows=1, max_cols=1, seed=-1, quiet=True)


def test_components_isomorphic_pinned_diagonal():
    # two singleton components: trivially isomorphic
    inst = bp.Instance(
        bp.DegreeSequence((1, 1, 1), (1, 1, 1)),
        bp.FixedSet.from_cells(3, 3, forced_non_edges=[(0, 0), (1, 1), (2, 2)]),
    )
    sg = bp.build_state_graph(bp.enumerate_realizations(inst), MoveSet.swaps4())
    _, comps = bp.check_connectivity(sg)
    assert len(comps) == 2
    assert components_isomorphic(sg)


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


def _realization_index(inst):
    return {g.masks: s for s, g in enumerate(bp.enumerate_realizations(inst))}


def test_state_index_from_bits_matches_the_realizations(criterion8_fixtures):
    # the uniformity index read from enumeration ints equals the one built
    # from Realizations: criterion 8's fixtures, then seeded pinned grids up
    # to the 36-cell guard, single rows and columns included
    for label, inst, _ in criterion8_fixtures:
        assert oracle._state_index(inst) == _realization_index(inst), label
    rng = random.Random(20)
    shapes = [(1, 36), (36, 1), (1, 5), (5, 1), (2, 18), (18, 2), (3, 12), (12, 3),
              (4, 9), (9, 4), (6, 6), (5, 7), (3, 4)]
    states = 0
    for n, nc in shapes:
        for density in (0.3, 0.5, 0.7):
            inst = random_pinned_instance(rng, n, nc, density, n * nc // 3)
            index = oracle._state_index(inst)
            assert index == _realization_index(inst), (n, nc, density)
            states += len(index)
    assert states > 200


def test_search_split_masks_finds_frozen_witness():
    records = search_split_masks()
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


_SWAP_LENGTHS = MoveSet.swap_lengths


def _without_6_swaps(move_set):
    """``MoveSet.swap_lengths`` with the 6-swaps dropped from the 4/6 move
    set."""
    if move_set == MoveSet.swaps_up_to(6):
        return frozenset({4})
    return _SWAP_LENGTHS(move_set)


def test_run_verification_detects_injected_fault(monkeypatch):
    # drop 6-swaps from the 4/6 move set: connectivity must break on some
    # instance whose fixed cells contain no 8-cycle
    from bipsample.analysis import FGraph, has_cycle_of_length

    monkeypatch.setattr(MoveSet, "swap_lengths", _without_6_swaps)
    res = bp.run_verification(max_rows=3, max_cols=3, random_count=0, seed=5, quiet=True)
    assert not res.passed
    names = {name for name, _ in res.failures}
    assert "swaps46-connected" in names
    assert res.witness is not None and res.witness_check.endswith("connected")
    fg = FGraph.from_cells(
        res.witness.n, res.witness.n_cols, res.witness.fixed.cells
    )
    assert not has_cycle_of_length(fg, 8)
    # the witness is the instance the first failure names
    name, text = res.failures[0]
    assert name == res.witness_check
    mask_rows = cli.format_instance(res.witness).split("mask:\n", 1)[1].split()
    assert text.split(" m=", 1)[1] == "|".join(mask_rows)


def test_quiet_sweep_reports_failures_as_a_full_one(monkeypatch):
    # a quiet sweep builds an instance's text only when a check fails; the
    # failures and FAIL lines must read as in a sweep that prints every line
    monkeypatch.setattr(MoveSet, "swap_lengths", _without_6_swaps)
    loud_lines, quiet_lines = [], []
    loud = bp.run_verification(3, 3, 0, seed=5, emit=loud_lines.append)
    quiet = bp.run_verification(3, 3, 0, seed=5, emit=quiet_lines.append, quiet=True)
    assert quiet.failures and quiet.failures == loud.failures
    assert quiet.counts == loud.counts
    assert quiet_lines == [line for line in loud_lines if not line.endswith(" PASS")]
    assert all(line.endswith("] FAIL") for line in quiet_lines)


def test_sweep_without_emit_builds_no_line(monkeypatch):
    # the library call has nowhere to print a PASS line, so it names no
    # instance unless a check fails or finds something
    calls = []
    digest = oracle._digest
    monkeypatch.setattr(
        oracle, "_digest", lambda *where: calls.append(where) or digest(*where)
    )
    res = bp.run_verification(3, 3, 5)
    assert res.passed and res.checks_run > 10000 and not res.info_lines
    assert calls == []
    bp.run_verification(1, 2, 0, emit=lambda line: None)
    assert calls  # a sweep that prints its lines names its instances


# sha256 of the stdout of ``bipsample verify --max-rows 3 --max-cols 3
# --random 5 --seed 20240801`` without its ``elapsed:`` line: every PASS
# line and the summary, as the cell-frozenset instance names printed them.
SMOKE_POOL_STDOUT_SHA256 = (
    "395ab0006b040b62455da73290c0d902e0b9c051981c798923c6c241f8bfe2d8"
)


def test_smoke_pool_stdout_is_pinned(capsys):
    argv = ["verify", "--max-rows", "3", "--max-cols", "3", "--random", "5",
            "--seed", "20240801"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    kept = "".join(line + "\n" for line in lines if not line.startswith("elapsed:"))
    assert len(lines) == 23806
    assert hashlib.sha256(kept.encode()).hexdigest() == SMOKE_POOL_STDOUT_SHA256


# sha256 of the stdout of ``bipsample verify --max-rows 3 --max-cols 4
# --random 0 --seed 20240801`` without its ``elapsed:`` line: every line of
# the exhaustive half and the summary, recorded before the sweep decided
# its single-state pools in the support loop and read its state graphs
# from one pair pass per sequence.
EXHAUSTIVE_HALF_STDOUT_SHA256 = (
    "debd2c0deedd9d9a3d32f6b53ef573c22f21bdfe7acaf1597b1a96b8cf9acaa0"
)


class _LineHash:
    """A stdout that hashes each whole line written to it but the
    ``elapsed:`` one, and counts them all."""

    def __init__(self):
        self.sha, self.lines, self._part = hashlib.sha256(), 0, ""

    def write(self, text):
        *whole, self._part = (self._part + text).split("\n")
        for line in whole:
            self.lines += 1
            if not line.startswith("elapsed:"):
                self.sha.update(line.encode() + b"\n")
        return len(text)

    def flush(self):
        pass


def test_exhaustive_half_stdout_is_pinned(monkeypatch):
    out = _LineHash()
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["verify", "--max-rows", "3", "--max-cols", "4", "--random", "0",
            "--seed", "20240801"]
    assert cli.main(argv) == 0
    assert out.lines == 387730 and out._part == ""
    assert out.sha.hexdigest() == EXHAUSTIVE_HALF_STDOUT_SHA256


def _named_instance(text):
    """The instance that a check line's text (``oracle._digest``) names."""
    shape, a, b, m = text.split()
    n, nc = map(int, shape.split("x"))
    cells = m[2:].replace("|", "")
    sup = sum(1 << p for p, ch in enumerate(cells) if ch != "*")
    pattern = sum(1 << p for p, ch in enumerate(cells) if ch == "1")
    degrees = (tuple(map(int, d[2:].split(","))) for d in (a, b))
    return oracle._make_instance(n, nc, *degrees, sup, pattern)


def test_a_wrong_static_edge_fails_a_single_state_pool(monkeypatch):
    # report cell (0, 0) of the free 2x2 permutation sequence, which one of
    # its two realizations leaves empty, as a forced edge: the sequence's
    # static check fails, and so does the reduction check of a pool of one
    # state, decided in the support loop and not by _check_instance_pool
    assert bp.run_verification(2, 2, 0, quiet=True).passed
    real = oracle.static_set

    def wrong(seq, *args):
        got = real(seq, *args)
        if (seq.row_degrees, seq.col_degrees) == ((1, 1), (1, 1)):
            return StaticSet((got.edge_masks[0] | 1, *got.edge_masks[1:]), got.non_edge_masks)
        return got

    monkeypatch.setattr(oracle, "static_set", wrong)
    res = bp.run_verification(2, 2, 0, quiet=True)
    assert not res.passed
    assert res.failures[0] == ("static-cells-exact", "2x2 a=1,1 b=1,1")
    reductions = [text for name, text in res.failures if name == "reduction-equivalence"]
    assert "2x2 a=1,1 b=1,1 m=1*|**" in reductions
    for text in reductions:
        assert len(bp.enumerate_realizations(_named_instance(text))) == 1, text


def test_a_finished_sweep_leaves_no_context_alive():
    # a state set refers to its context and no context to a set, so
    # reference counting alone frees each sequence's context
    gc.collect()
    gc.disable()
    try:
        res = bp.run_verification(3, 3, 5, seed=20240801, quiet=True)
        alive = [obj for obj in gc.get_objects() if isinstance(obj, oracle._SeqCtx)]
    finally:
        gc.enable()
    assert res.passed and not alive


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
    for s, edges in enumerate(coloured_edges(sg)):
        for t, label in edges:
            diff_rows = {
                i
                for i in range(inst.n)
                if states[s].matrix[i] != states[t].matrix[i]
            }
            assert len(diff_rows) == (2 if label == "trade" else 3)


# ---------------------------------------------------------------------------
# The pair classes behind every state graph, against moves made by brute
# force on the state's matrix.


def _pair_class_sequences():
    """(a, b, bits): every realizable sequence on grids up to 3x3, then 20
    seeded random 4x4 sequences and 6 seeded 5x4 ones of at most 150
    states (five rows let a rotation and a swap change rows together)."""
    for n in range(1, 4):
        for nc in range(1, 4):
            for a in itertools.product(range(nc + 1), repeat=n):
                for b in itertools.product(range(n + 1), repeat=nc):
                    bits = oracle._enumerate_bits(a, b)
                    if bits:
                        yield a, b, bits
    rng = random.Random(20240801)
    for n, count in ((4, 20), (5, 6)):
        made = 0
        while made < count:
            p = rng.choice((0.3, 0.5, 0.7))
            matrix = [[int(rng.random() < p) for _ in range(4)] for _ in range(n)]
            a = tuple(map(sum, matrix))
            b = tuple(map(sum, zip(*matrix)))
            bits = oracle._enumerate_bits(a, b, cap=150)
            if bits is not None:
                yield a, b, bits
                made += 1


def _walk_swaps(m):
    """{L: matrices}: every closed walk r0-c0-r1-c1-...-r0 over distinct rows
    and distinct columns whose cells alternate in ``m`` (cells (r_t, c_t)
    equal to (r0, c0), cells (r_t+1, c_t) and (r0, c_last) the other
    value), toggled on a copy of ``m``; L is the number of cells."""
    n, nc = len(m), len(m[0])
    out = {}

    def extend(rows, cols, v):
        r = rows[-1]
        for c in range(nc):
            if c in cols or m[r][c] != v:
                continue
            if len(rows) >= 2 and m[rows[0]][c] != v:
                walk, h = cols + [c], len(rows)
                cells = [(rows[t], walk[t]) for t in range(h)]
                cells += [(rows[(t + 1) % h], walk[t]) for t in range(h)]
                toggled = [row[:] for row in m]
                for i, j in cells:
                    toggled[i][j] ^= 1
                out.setdefault(len(cells), []).append(toggled)
            for r2 in range(n):
                if r2 not in rows and m[r2][c] != v:
                    extend(rows + [r2], cols + [c], v)

    for r0 in range(n):
        for v in (0, 1):
            extend([r0], [], v)
    return out


def _trades_from(m):
    """Matrices one trade away: on rows i < j, the cells where they differ
    handed out again with the same count to row i, other than as before."""
    n, nc = len(m), len(m[0])
    out = []
    for i, j in itertools.combinations(range(n), 2):
        pool = [c for c in range(nc) if m[i][c] != m[j][c]]
        share = tuple(c for c in pool if m[i][c])
        for sub in itertools.combinations(pool, len(share)):
            if sub != share:
                new = [row[:] for row in m]
                for c in pool:
                    new[i][c], new[j][c] = int(c in sub), int(c not in sub)
                out.append(new)
    return out


def _circles_from(m):
    """Matrices one circle trade away: on distinct rows (i, j, k), row i
    takes x >= 1 columns that j has and i lacks, j as many from k, k as many
    from i."""
    n, nc = len(m), len(m[0])
    out = []
    for i, j, k in itertools.permutations(range(n), 3):
        d_ji = [c for c in range(nc) if m[j][c] and not m[i][c]]
        d_kj = [c for c in range(nc) if m[k][c] and not m[j][c]]
        d_ik = [c for c in range(nc) if m[i][c] and not m[k][c]]
        for x in range(1, min(len(d_ji), len(d_kj), len(d_ik)) + 1):
            for sj in itertools.combinations(d_ji, x):
                for sk in itertools.combinations(d_kj, x):
                    for si in itertools.combinations(d_ik, x):
                        new = [row[:] for row in m]
                        for give, row_from, row_to in ((sj, j, i), (sk, k, j), (si, i, k)):
                            for c in give:
                                new[row_from][c], new[row_to][c] = 0, 1
                        out.append(new)
    return out


def _state_of_matrix(matrix, nc):
    """The state int of a 0/1 grid, through its row masks."""
    return oracle._state_of([sum(v << j for j, v in enumerate(row)) for row in matrix], nc)


def test_pair_classes_match_brute_force_moves():
    # the exact pair classes, and the state graphs the integer tests build
    sequences = states = walks = rotations = 0
    for a, b, bits in _pair_class_sequences():
        n, nc = len(a), len(b)
        index = {x: s for s, x in enumerate(bits)}
        ctx = oracle._SeqCtx(n, nc, a, b, bits)
        lengths = range(4, 2 * min(n, nc) + 1, 2)
        built = {
            move_set: [oracle._positions(m) for m in ctx.neighbours(move_set)]
            for move_set in (MoveSet.trades(), MoveSet.trades_plus_circle(),
                             *map(MoveSet.swaps_up_to, lengths))
        }
        for s, x in enumerate(bits):
            # the exact pair class of x against every state
            pair = [oracle._classify_bits(x, y, n, nc) for y in bits]
            m = [[r >> j & 1 for j in range(nc)] for r in oracle._masks_of(x, n, nc)]
            swaps = _walk_swaps(m)
            assert set(swaps) <= set(range(4, 2 * min(n, nc) + 1, 2))
            up_to = set()
            for length in lengths:
                reached = {index[_state_of_matrix(t, nc)] for t in swaps.get(length, [])}
                want = {t for t, (_, cycle_len, _) in enumerate(pair) if cycle_len == length}
                assert reached == want, (a, b, s, length)
                up_to |= reached
                assert set(built[MoveSet.swaps_up_to(length)][s]) == up_to
                walks += len(swaps.get(length, []))
            assert all(cycle_len in swaps for _, cycle_len, _ in pair if cycle_len)
            trades = {index[_state_of_matrix(t, nc)] for t in _trades_from(m)}
            assert trades == {
                t for t, (rows, _, _) in enumerate(pair) if len(rows) == 2
            }, (a, b, s)
            circles = _circles_from(m)
            rotations += len(circles)
            circles = {index[_state_of_matrix(t, nc)] for t in circles}
            assert circles == {t for t, (_, _, rotation) in enumerate(pair) if rotation}
            assert set(built[MoveSet.trades()][s]) == trades
            assert set(built[MoveSet.trades_plus_circle()][s]) == trades | circles
            states += 1
        sequences += 1
    assert sequences > 450 and states > 800
    assert walks > 15000 and rotations > 1000


def test_pool_matches_the_benchmark_record(pool_result):
    with open(os.path.join(BENCH_DIR, "expected.json"), encoding="utf-8") as fh:
        want = json.load(fh)["pool"]
    assert pool_result.passed is want["passed"] is True
    assert pool_result.checks_run == want["checks_run"] == 389030
    assert pool_result.counts == want["counts"]
    assert len(pool_result.info_lines) == want["info_lines"] == 877
    joined = "\n".join(pool_result.info_lines).encode()
    assert hashlib.sha256(joined).hexdigest() == POOL_INFO_SHA256
    assert pool_result.seconds.keys() == pool_result.counts.keys()
    assert all(v >= 0 for v in pool_result.seconds.values())


# ---------------------------------------------------------------------------
# The ledgers on column sets that the row-field ledgers replaced, kept as
# their reference: each state's rows are frozensets of columns, and every
# successor is re-encoded from its rows.


def _rows(ctx, s):
    return tuple(
        frozenset(j for j in range(ctx.nc) if r >> j & 1)
        for r in oracle._masks_of(ctx.bits[s], ctx.n, ctx.nc)
    )


def _index_with_rows(ctx, s, new_rows):
    masks = list(oracle._masks_of(ctx.bits[s], ctx.n, ctx.nc))
    for i, cols in new_rows.items():
        masks[i] = sum(1 << j for j in cols)
    return ctx.index.get(oracle._state_of(masks, ctx.nc))


def reference_trade_ledger(ctx, states_idx, fixed_rows):
    dens = {}
    n = ctx.n
    for s in states_idx:
        rows = _rows(ctx, s)
        for i in range(n):
            for j in range(i + 1, n):
                blocked = fixed_rows[i] | fixed_rows[j]
                a_ij = rows[i] - rows[j] - blocked
                a_ji = rows[j] - rows[i] - blocked
                pool = sorted(a_ij | a_ji)
                k = len(a_ij)
                den = comb(len(pool), k)
                if den == 1:
                    continue
                for combo in itertools.combinations(pool, k):
                    b_ij = frozenset(combo)
                    if b_ij == a_ij:
                        continue
                    new_i = (rows[i] - a_ij) | b_ij
                    new_j = (rows[j] - a_ji) | (frozenset(pool) - b_ij)
                    t = _index_with_rows(ctx, s, {i: new_i, j: new_j})
                    assert t is not None, "trade produced an unknown state"
                    assert (s, t) not in dens, "duplicate trade route"
                    dens[(s, t)] = den
    return dens


def _circle_den(sizes, x):
    """2^m times the binomials of all three sizes but one of the smallest."""
    m = min(sizes)
    return (1 << m) * prod(comb(s, x) for s in sizes) // comb(m, x)


def reference_circle_ledger(ctx, states_idx, fixed_rows, mh_on):
    acc = {}
    n = ctx.n
    for s in states_idx:
        rows = _rows(ctx, s)
        for i, j, k in itertools.permutations(range(n), 3):
            d_ji = rows[j] - rows[i] - fixed_rows[i] - fixed_rows[j]
            d_kj = rows[k] - rows[j] - fixed_rows[j] - fixed_rows[k]
            d_ik = rows[i] - rows[k] - fixed_rows[k] - fixed_rows[i]
            sizes = (len(d_ji), len(d_kj), len(d_ik))
            m = min(sizes)
            if m == 0:
                continue
            sj, sk, si = sorted(d_ji), sorted(d_kj), sorted(d_ik)
            for x in range(1, m + 1):
                den_f = _circle_den(sizes, x)
                for sub_j in itertools.combinations(sj, x):
                    for sub_k in itertools.combinations(sk, x):
                        for sub_i in itertools.combinations(si, x):
                            new_i = (rows[i] - frozenset(sub_i)) | frozenset(sub_j)
                            new_j = (rows[j] - frozenset(sub_j)) | frozenset(sub_k)
                            new_k = (rows[k] - frozenset(sub_k)) | frozenset(sub_i)
                            t = _index_with_rows(
                                ctx, s, {i: new_i, j: new_j, k: new_k}
                            )
                            assert t is not None, "circle trade left the state set"
                            if mh_on:
                                r_ij = new_i - new_j - fixed_rows[j] - fixed_rows[i]
                                r_ki = new_k - new_i - fixed_rows[i] - fixed_rows[k]
                                r_jk = new_j - new_k - fixed_rows[k] - fixed_rows[j]
                                den_r = _circle_den((len(r_ij), len(r_ki), len(r_jk)), x)
                                eff = max(den_f, den_r)
                            else:
                                eff = den_f
                            acc.setdefault((s, t), Counter())[eff] += 1
    return acc


def _flat(counters):
    """{(s, t): Counter(den)} as the sweep's {(s, t, den): routes}."""
    return {
        (s, t, den): routes
        for (s, t), counter in counters.items()
        for den, routes in counter.items()
    }


def _ledger_state_sets():
    """(ctx, state indices, support mask): every pattern of every support
    of at most 4 cells of every sequence on grids up to 3x3, then 50 seeded
    random instances up to 4x5, 20 seeded five-row instances of at most
    60 states (five rows hold rotation classes whose rows are not adjacent,
    as the sweep's random pools do), and 30 seeded pinned instances of 3 to
    5 rows from ``random_pinned_instance``, of 2 to 80 states."""
    for n in range(1, 4):
        for nc in range(1, 4):
            for a, b in oracle._sorted_sequences(n, nc):
                bits = oracle._enumerate_bits(a, b)
                if not bits:
                    continue
                ctx = oracle._SeqCtx(n, nc, a, b, bits)
                for sup in small_supports(n, nc):
                    buckets = {}
                    for s, x in enumerate(bits):
                        buckets.setdefault(x & sup, []).append(s)
                    for states_idx in buckets.values():
                        yield ctx, states_idx, sup
    rng = random.Random(20240801)
    pools = oracle._random_instances(rng, 4, 5, 60, False)
    for n, nc, a, b, sup, _, bits in itertools.islice(pools, 50):
        ctx = oracle._SeqCtx(n, nc, a, b, bits)
        yield ctx, list(range(len(bits))), sup
    pools = oracle._random_instances(random.Random(5), 5, 5, 400, False)
    five_rows = (p for p in pools if p[0] == 5 and len(p[-1]) <= 60)
    for n, nc, a, b, sup, _, bits in itertools.islice(five_rows, 20):
        ctx = oracle._SeqCtx(n, nc, a, b, bits)
        yield ctx, list(range(len(bits))), sup
    rng = random.Random(35)
    made = 0
    while made < 30:
        n, nc = rng.randint(3, 5), rng.randint(3, 6)
        inst = random_pinned_instance(rng, n, nc, 0.5, rng.randint(1, 6))
        bits = oracle._instance_bits(inst)
        if 2 <= len(bits) <= 80:
            made += 1
            seq = inst.degrees
            ctx = oracle._SeqCtx(n, nc, seq.row_degrees, seq.col_degrees, bits)
            yield ctx, range(len(bits)), oracle._state_of(inst.fixed.fixed_masks, nc)


def test_row_field_ledgers_match_the_column_set_ledgers():
    # the rotation ledgers of h = 2 and h = 3 against the column-set
    # ledgers: a trade route counts its two ordered pairs, and its reverse
    # denominator is its forward one
    checked = routes = asymmetric = pinned = 0
    for ctx, states_idx, sup in _ledger_state_sets():
        n, nc = ctx.n, ctx.nc
        fixed_rows = tuple(
            frozenset(j for j in range(nc) if sup >> i * nc + j & 1)
            for i in range(n)
        )
        fixed = oracle._masks_of(sup, n, nc)
        trades = {
            (s, t, den): 2
            for (s, t), den in reference_trade_ledger(ctx, states_idx, fixed_rows).items()
        }
        assert oracle._rotation_ledgers(
            ctx, states_idx, fixed, 2, oracle._trade_denominator
        ) == (trades, trades)
        corrected, uncorrected = oracle._rotation_ledgers(
            ctx, states_idx, fixed, 3, chains.circle_denominator
        )
        assert corrected == _flat(
            reference_circle_ledger(ctx, states_idx, fixed_rows, mh_on=True)
        )
        assert uncorrected == _flat(
            reference_circle_ledger(ctx, states_idx, fixed_rows, mh_on=False)
        )
        checked += 1
        routes += len(trades) + sum(uncorrected.values())
        asymmetric += not oracle._symmetric(uncorrected)
        pinned += isinstance(states_idx, range) and n >= 3 and bool(uncorrected)
    assert checked > 17000
    assert routes > 7000
    assert asymmetric > 0  # the uncorrected ledger is not trivially symmetric
    assert pinned > 10  # the pinned instances hold circle routes


def test_ledgers_depend_on_the_state_set_alone(monkeypatch):
    # the sweep decides a state set's ledgers once per sequence, under the
    # first support that selects the set: on every exhaustive-half pool, the
    # ledgers built with the pool's own fixed cells must equal that
    # support's
    rotation_ledgers = oracle._rotation_ledgers
    pools, built = [], Counter()

    def check_pool(facts, sup, pattern, fixed, *args):
        if 2 <= len(facts.key) <= 60:
            pools.append((facts.ctx, facts.key, fixed))
        return check_instance_pool(facts, sup, pattern, fixed, *args)

    def counted(ctx, states_idx, fixed, h, den):
        built[h] += 1
        return rotation_ledgers(ctx, states_idx, fixed, h, den)

    check_instance_pool = oracle._check_instance_pool
    monkeypatch.setattr(oracle, "_check_instance_pool", check_pool)
    monkeypatch.setattr(oracle, "_rotation_ledgers", counted)
    res = bp.run_verification(3, 4, 0, quiet=True)
    assert res.passed
    assert len(pools) == res.counts["trade-reversibility"] == 34979

    first = {}  # (ctx, states) -> ledgers under the first support
    for ctx, states_idx, fixed in pools:
        ledgers = (
            rotation_ledgers(ctx, states_idx, fixed, 2, oracle._trade_denominator),
            rotation_ledgers(ctx, states_idx, fixed, 3, chains.circle_denominator)
            if ctx.n >= 3 else None,
        )
        assert first.setdefault((ctx, states_idx), ledgers) == ledgers
    assert len(first) == 2695
    assert built[2] == len(first) < len(pools)
    assert built[3] < res.counts["circle-detailed-balance"]


def test_route_tables_go_with_their_sweep_and_sweeps_repeat(monkeypatch):
    # a sweep's contexts share one route table, and once they are freed
    # nothing else holds it; the process-wide choice table stays within its
    # bound; a second sweep, with that table warm, gives what the first gave
    made, tables = [], []
    init = oracle._SeqCtx.__init__

    def recording(ctx, *args):
        init(ctx, *args)
        made.append(weakref.ref(ctx))
        tables.append(ctx.tables)

    monkeypatch.setattr(oracle._SeqCtx, "__init__", recording)
    oracle._choices.cache_clear()
    results = []
    for _ in range(2):
        res = bp.run_verification(3, 3, 10, seed=3, quiet=True)
        results.append((res.passed, res.counts, res.failures, res.info_lines))
        gc.collect()
        assert made and not any(ref() for ref in made)
        assert tables[0] and all(table is tables[0] for table in tables)
        held = sys.getrefcount(tables[0]) - 1  # less the call's own reference
        assert held == len(tables)  # our list's references alone
        made.clear()
        tables.clear()
    assert results[0] == results[1]
    assert results[0][1]["circle-detailed-balance"] > 1000
    info = oracle._choices.cache_info()
    assert info.hits > info.misses > 0 and info.currsize <= info.maxsize


GRAPH_FACT_MOVE_SETS = (
    MoveSet.swaps4(), MoveSet.swaps_up_to(6), MoveSet.trades(),
    MoveSet.trades_plus_circle(), MoveSet.swaps_up_to(8),
)


def _is_move(pair_class, move_set):
    """Whether an exact pair class (changed rows, cycle length, rotation)
    is one move of ``move_set``, read here apart from the oracle's
    builder."""
    rows, cycle_len, rotation = pair_class
    if move_set.kind == MoveSet.TRADES:
        return len(rows) == 2
    if move_set.kind == MoveSet.TRADES_PLUS_CIRCLE:
        return len(rows) == 2 or rotation
    return cycle_len in move_set.swap_lengths()


def reference_graph_facts(ctx, states_idx, move_set, classes):
    """(components, distance verdict) of the state graph of ``move_set`` on
    ``states_idx``, by breadth-first search over pair classes that
    ``_classify_bits`` computes afresh (memoized in ``classes`` by state
    pair); the verdict, for 4-swaps only, holds when every pair of states
    is within half its cell difference minus one moves."""
    bits, n, nc = ctx.bits, ctx.n, ctx.nc

    def moves(s, t):
        key = (min(s, t), max(s, t))
        if key not in classes:
            classes[key] = oracle._classify_bits(bits[key[0]], bits[key[1]], n, nc)
        return _is_move(classes[key], move_set)

    nbrs = {s: [t for t in states_idx if t != s and moves(s, t)] for s in states_idx}

    def distances(s):
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for v in nbrs[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    comps, placed = [], set()
    for s in sorted(states_idx):
        if s not in placed:
            comp = tuple(sorted(distances(s)))
            placed.update(comp)
            comps.append(comp)
    if move_set != MoveSet.swaps4():
        return comps, None
    for s in states_idx:
        dist = distances(s)
        for t in states_idx:
            bound = (bits[s] ^ bits[t]).bit_count() // 2 - 1
            if t != s and dist.get(t, len(bits)) > bound:
                return comps, False
    return comps, True


def test_cached_graph_facts_match_a_fresh_context():
    # the sweep decides a state set's components and distance verdict once
    # per sequence, though the set recurs under many supports: each answer
    # must equal the reference's on pair classes computed afresh
    pools = [(ctx, states_idx) for ctx, states_idx, _ in _ledger_state_sets()]
    rng = random.Random(20240801)  # the random pools of the benchmark's sweep
    for count, with_8_cycles in ((200, False), (16, True)):
        for n, nc, a, b, _, _, bits in oracle._random_instances(
            rng, 5, 5, count, with_8_cycles
        ):
            pools.append((oracle._SeqCtx(n, nc, a, b, bits), range(len(bits))))
    classes = {}  # pair classes by state pair, one table per context
    sets = {}  # the state sets by context and state mask, as the sweep keeps them
    calls = 0
    for ctx, states_idx in pools:
        table = classes.setdefault(ctx, {})
        mask = sum(1 << s for s in states_idx)
        facts = sets.get((ctx, mask)) or sets.setdefault((ctx, mask), oracle._StateSet(ctx, mask))
        for move_set in GRAPH_FACT_MOVE_SETS:
            comps, within_bound = facts.graph_facts(move_set)
            assert ([oracle._positions(c) for c in comps], within_bound) == reference_graph_facts(
                ctx, states_idx, move_set, table
            )
            calls += 1
    assert max(len(ctx.bits) for ctx, _ in pools) > 150
    cached = sum(len(facts.graphs) for facts in sets.values())
    assert cached < calls / 2  # most answers came from the cache


def test_integer_pair_tests_match_the_exact_classifier(monkeypatch):
    # the builder settles most pairs by cell and changed-row counts, exact
    # only on states of one degree sequence: on every multi-state set of
    # the default pool, and on the 6x6 degree-2 band, its graphs must be
    # the all-pairs graphs of the exact pair classifier
    sets = {}  # (ctx, state set) in sweep order

    def collect(facts, *args):
        if len(facts.key) >= 2:
            sets[facts.ctx, facts.key] = None

    monkeypatch.setattr(oracle, "_check_instance_pool", collect)
    bp.run_verification(5, 5, 200, seed=20240801, quiet=True)  # the pool
    # 69 exhaustive-half sequences and the 206 random instances
    assert len({ctx for ctx, _ in sets}) == 275 and len(sets) == 2901
    # the 6x6 band: all degrees 2, and (i, i) and (i, i+1 mod 6) forced
    # non-edges, so that F is one 12-cycle
    k, a = 6, (2,) * 6
    cells = [(i, i) for i in range(k)] + [(i, (i + 1) % k) for i in range(k)]
    bits = oracle._enumerate_bits(a, a, oracle._cells_mask(cells, k, k), 0)
    assert len(bits) == 522
    sets[oracle._SeqCtx(k, k, a, a, bits), tuple(range(len(bits)))] = None
    pairs = 0
    for ctx, key in sets:
        bits, n, nc = ctx.bits, ctx.n, ctx.nc
        classes = {
            (qa, qb): oracle._classify_bits(bits[key[qa]], bits[key[qb]], n, nc)
            for qa, qb in itertools.combinations(range(len(key)), 2)
        }
        pairs += len(classes)
        for move_set in GRAPH_FACT_MOVE_SETS + (MoveSet.swaps_up_to(10),):
            want = [[] for _ in key]
            for (qa, qb), pair_class in classes.items():
                if _is_move(pair_class, move_set):
                    want[qa].append(qb)
                    want[qb].append(qa)
            # the context's graph on the set's states, by position in key
            mask, at = sum(1 << s for s in key), {s: q for q, s in enumerate(key)}
            nbrs = ctx.neighbours(move_set)
            got = [[at[t] for t in oracle._positions(nbrs[s] & mask)] for s in key]
            assert got == [sorted(q) for q in want], (ctx.a, ctx.b, key, move_set)
    assert pairs == 203260  # 135,981 of them on the band


def test_library_components_are_the_sweeps():
    # build_state_graph / check_connectivity and the sweep's graph facts
    # must give the same components for every move set
    for a, b, bits in _pair_class_sequences():
        n, nc = len(a), len(b)
        inst = bp.Instance.unconstrained(a, b)
        states = [bp.Realization.from_masks(inst, oracle._masks_of(x, n, nc)) for x in bits]
        facts = oracle._StateSet(oracle._SeqCtx(n, nc, a, b, bits), (1 << len(states)) - 1)
        for move_set in GRAPH_FACT_MOVE_SETS:
            comps = facts.graph_facts(move_set)[0]
            sg = bp.build_state_graph(states, move_set)
            connected, got = bp.check_connectivity(sg)
            assert got == [list(oracle._positions(c)) for c in comps]
            assert connected == (len(comps) == 1)


# sha256 of the failures of ``run_verification(3, 3, 0, seed=5)`` with the
# 6-swaps dropped, one "name [instance]" line each, as computed before the
# sweep cached its graph facts.
NO_6_SWAPS_FAILURES_SHA256 = (
    "350ed3c4a815d69b43194c244a76c10fd44e9f8a6672ba1c4429890df213e5bf"
)


def test_injected_fault_failures_are_pinned(monkeypatch):
    # a graph-fact cache that hid a failure, or reported one twice, would
    # change this list
    monkeypatch.setattr(MoveSet, "swap_lengths", _without_6_swaps)
    res = bp.run_verification(3, 3, 0, seed=5, quiet=True)
    assert len(res.failures) == 32
    text = "".join(f"{name} [{where}]\n" for name, where in res.failures)
    assert hashlib.sha256(text.encode()).hexdigest() == NO_6_SWAPS_FAILURES_SHA256


def _drop_one_state(enumerate_bits):
    """``_enumerate_bits`` with the first realization of the free 3x3
    permutation sequence missing."""

    def wrapped(a, b, *args, **kwargs):
        got = enumerate_bits(a, b, *args, **kwargs)
        if (a, b) == ((1, 1, 1), (1, 1, 1)) and not args and not kwargs:
            return got[1:]
        return got

    return wrapped


def test_ledger_routes_out_of_the_state_set_fail_their_checks(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_enumerate_bits", _drop_one_state(oracle._enumerate_bits))
    res = bp.run_verification(3, 3, 0, seed=5, quiet=True)
    assert not res.passed
    failed = {(name, text) for name, text in res.failures}
    for name in ("trade-reversibility", "circle-detailed-balance"):
        assert (name, "3x3 a=1,1,1 b=1,1,1 m=***|***|***") in failed
    assert cli.main(["verify", "--max-rows", "3", "--max-cols", "3",
                     "--random", "0", "--quiet"]) == cli.EXIT_VERIFY_FAIL
    assert "result: FAIL" in capsys.readouterr().out
