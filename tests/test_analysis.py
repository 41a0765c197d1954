"""Detectors on the fixed set and the chain recommendation cascade."""

import itertools
import math
import random

import pytest

import bipsample as bp
import bipsample.analysis as analysis_mod
from bipsample.analysis import FGraph, _blocks

EIGHT_CYCLE = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 0)]


def test_matching_empty_graph():
    assert not bp.max_matching_at_least(FGraph.from_cells(3, 3, []), 3)


def test_matching_diagonal():
    f = FGraph.from_cells(3, 3, [(0, 0), (1, 1), (2, 2)])
    assert bp.max_matching_at_least(f, 3)
    assert not bp.max_matching_at_least(f, 4)


def test_matching_star_is_one():
    f = FGraph.from_cells(1, 5, [(0, j) for j in range(5)])
    assert bp.max_matching_at_least(f, 1)
    assert not bp.max_matching_at_least(f, 2)


@pytest.mark.parametrize("cell", [(-1, 0), (0, -1), (2, 0), (0, 3)])
def test_fgraph_rejects_cells_outside_the_grid(cell):
    # a negative row index would wrap to the last row's mask
    with pytest.raises(ValueError, match="outside the 2x3 grid"):
        FGraph.from_cells(2, 3, [(0, 0), cell])


def test_cycles_absent_in_forests():
    tree = FGraph.from_cells(3, 3, [(0, 0), (0, 1), (1, 1), (2, 1)])
    for length in (4, 6, 8):
        assert not bp.has_cycle_of_length(tree, length)
    assert bp.is_forest(tree)


def test_explicit_8_cycle():
    f = FGraph.from_cells(4, 4, EIGHT_CYCLE)
    assert bp.has_cycle_of_length(f, 8)
    assert not bp.has_cycle_of_length(f, 4)
    assert not bp.has_cycle_of_length(f, 6)
    assert not bp.is_forest(f)


def test_is_forest_examples():
    assert bp.is_forest(FGraph.from_cells(2, 2, []))
    square = FGraph.from_cells(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert not bp.is_forest(square)


def _cells(f: FGraph) -> set[tuple[int, int]]:
    """The cells of ``f``, decoded from its row masks."""
    return {(i, j) for i, m in enumerate(f.rows) for j in range(f.n_cols) if m >> j & 1}


def _mirrored(f: FGraph) -> FGraph:
    """``f`` with its columns mirrored (j -> n_cols - 1 - j): an isomorphic
    graph with other row masks, on which every verdict must stay the same."""
    return FGraph.from_cells(f.n, f.n_cols, [(i, f.n_cols - 1 - j) for i, j in _cells(f)])


def _has_cycle_brute(f: FGraph, length: int) -> bool:
    """Pick the cycle's vertices, then look for a Hamiltonian cycle on them."""
    half = length // 2
    edges = _cells(f)
    rows = sorted({i for i, _ in edges})
    cols = sorted({j for _, j in edges})
    for rsub in itertools.combinations(rows, half):
        for csub in itertools.combinations(cols, half):
            # cycle alternates rsub[perm] and csub[perm2]; fix rsub order
            for rperm in itertools.permutations(rsub):
                if rperm[0] != min(rsub):
                    continue
                for cperm in itertools.permutations(csub):
                    ok = True
                    for t in range(half):
                        if (rperm[t], cperm[t]) not in edges:
                            ok = False
                            break
                        if (rperm[(t + 1) % half], cperm[t]) not in edges:
                            ok = False
                            break
                    if ok:
                        return True
    return False


def _max_matching_brute(f: FGraph) -> int:
    """The largest k such that some k cells share no row and no column."""
    edges = sorted(_cells(f))
    best = 0
    for k in range(1, min(f.n, f.n_cols) + 1):
        if not any(
            len({i for i, _ in sub}) == k and len({j for _, j in sub}) == k
            for sub in itertools.combinations(edges, k)
        ):
            break
        best = k
    return best


def test_matching_matches_brute_force():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        cells = [(i, j) for i in range(n) for j in range(nc)]
        f = FGraph.from_cells(n, nc, rng.sample(cells, rng.randint(0, min(9, len(cells)))))
        for g in (f, _mirrored(f)):
            best = _max_matching_brute(g)
            for k in range(1, 5):
                assert bp.max_matching_at_least(g, k) == (best >= k)


def test_cycle_detection_matches_brute_force():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 6)
        nc = rng.randint(2, 6)
        cells = [(i, j) for i in range(n) for j in range(nc)]
        f = FGraph.from_cells(n, nc, rng.sample(cells, rng.randint(0, min(10, len(cells)))))
        for g in (f, _mirrored(f)):
            for length in (4, 6, 8):
                assert bp.has_cycle_of_length(g, length) == _has_cycle_brute(g, length)


def test_cycle_detection_matches_brute_force_dense_6x6():
    rng = random.Random(63)
    cells = [(i, j) for i in range(6) for j in range(6)]
    graphs = [FGraph.from_cells(6, 6, rng.sample(cells, rng.randint(10, 16))) for _ in range(6)]
    graphs += [FGraph.from_cells(6, 6, rng.sample(cells, rng.randint(17, 22))) for _ in range(30)]
    # two random pieces on rows 0-2 and 3-5 that share one column, so
    # that several blocks carry cycles
    for _ in range(30):
        shared = rng.randrange(6)
        cols_a = rng.sample(range(6), 3)
        if shared not in cols_a:
            cols_a[0] = shared
        cols_b = [shared] + rng.sample([j for j in range(6) if j not in cols_a], 2)
        piece_a = [(i, j) for i in range(3) for j in cols_a]
        piece_b = [(i, j) for i in range(3, 6) for j in cols_b]
        graphs.append(FGraph.from_cells(6, 6, rng.sample(piece_a, 7) + rng.sample(piece_b, 7)))
    assert any(sum(len(_cells(b)) > 1 for b in _blocks(f)) > 1 for f in graphs)
    for f in graphs:
        for g in (f, _mirrored(f)):
            for length in (4, 6, 8, 10, 12):
                assert bp.has_cycle_of_length(g, length) == _has_cycle_brute(g, length)


def test_two_4_cycles_joined_by_a_bridge_have_no_8_cycle():
    square_a = [(0, 0), (0, 1), (1, 0), (1, 1)]
    square_b = [(2, 2), (2, 3), (3, 2), (3, 3)]
    f = FGraph.from_cells(4, 4, square_a + square_b + [(1, 2)])
    assert sorted(len(_cells(b)) for b in _blocks(f)) == [1, 4, 4]
    for length in (4, 6, 8):
        assert bp.has_cycle_of_length(f, length) == _has_cycle_brute(f, length)
    assert bp.has_cycle_of_length(f, 4)
    assert not bp.has_cycle_of_length(f, 8)


def test_two_6_cycles_sharing_a_column_have_no_10_or_12_cycle():
    hexagon_a = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]
    hexagon_b = [(3, 2), (3, 3), (4, 3), (4, 4), (5, 4), (5, 2)]
    f = FGraph.from_cells(6, 6, hexagon_a + hexagon_b)
    assert sorted(len(_cells(b)) for b in _blocks(f)) == [6, 6]
    for length in (4, 6, 8, 10, 12):
        assert bp.has_cycle_of_length(f, length) == _has_cycle_brute(f, length)
    assert bp.has_cycle_of_length(f, 6)
    assert not bp.has_cycle_of_length(f, 10)
    assert not bp.has_cycle_of_length(f, 12)


def test_bad_length_raises_even_when_no_block_could_hold_it():
    tree = FGraph.from_cells(3, 3, [(0, 0), (0, 1), (1, 1), (2, 1)])
    for length in (2, 5, 7):
        with pytest.raises(ValueError):
            bp.has_cycle_of_length(tree, length)
    with pytest.raises(ValueError):
        bp.has_cycle_of_length(FGraph.from_cells(2, 2, []), 3)


def test_forest_matches_edge_count_rule():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 5)
        nc = rng.randint(2, 5)
        cells = [(i, j) for i in range(n) for j in range(nc)]
        f = FGraph.from_cells(n, nc, rng.sample(cells, rng.randint(0, min(8, len(cells)))))
        for g in (f, _mirrored(f)):
            # acyclic iff every component spans one more vertex than its edges
            edges = _cells(g)
            verts = {("r", i) for i, _ in edges} | {("c", j) for _, j in edges}
            parent = {v: v for v in verts}

            def find(v):
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            comps = len(verts)
            for i, j in edges:
                a, b = find(("r", i)), find(("c", j))
                if a != b:
                    parent[a] = b
                    comps -= 1
            assert bp.is_forest(g) == (len(edges) == len(verts) - comps)


# ---------------------------------------------------------------------------
# The chord construction of the paper's proof: a base cycle of even length
# L >= 8 carries a simple cycle of every even length from 8 to L whose edges
# are chords joining vertices at odd distance >= 3 along the base.  It is
# checked here and by acceptance criterion 3; the package does not use it.


def find_coprime_odd_t(cycle_len: int) -> int:
    """Smallest odd t in [3, cycle_len - 3] coprime to ``cycle_len``.

    Existence is guaranteed for even cycle_len >= 8 (an Euler-phi count).
    """
    if cycle_len % 2 or cycle_len < 8:
        raise ValueError("cycle_len must be an even integer >= 8")
    for t in range(3, cycle_len - 2, 2):
        if math.gcd(t, cycle_len) == 1:
            return t
    raise AssertionError(f"no admissible multiplier for {cycle_len}")


def chord_cycle(cycle_len: int, target_len: int) -> list[int]:
    """A simple cycle of ``target_len`` vertices through chords of a base
    cycle of ``cycle_len`` vertices, every edge joining vertices at odd
    base-distance >= 3.

    For the full length the cycle visits v_{t*i mod cycle_len} with the
    smallest admissible odd multiplier t; shorter targets shrink the base
    two vertices at a time (the two dropped chords are replaced by the
    closing chord, which keeps all distances odd and >= 3 on the original
    base).
    """
    if cycle_len % 2 or target_len % 2:
        raise ValueError("cycle lengths must be even")
    if not 8 <= target_len <= cycle_len:
        raise ValueError("need 8 <= target_len <= cycle_len")
    if target_len == cycle_len:
        t = find_coprime_odd_t(cycle_len)
        return [(t * i) % cycle_len for i in range(cycle_len)]
    return chord_cycle(cycle_len - 2, target_len)


def chord_cycle_valid(cycle_len: int, cycle: list[int]) -> bool:
    """Check the defining predicate: simple, and every edge at odd
    base-distance >= 3 on the cycle of ``cycle_len`` vertices."""
    if len(set(cycle)) != len(cycle):
        return False
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        d = abs(a - b)
        d = min(d, cycle_len - d)
        if d % 2 == 0 or d < 3:
            return False
    return True


def test_find_coprime_odd_t_values():
    assert find_coprime_odd_t(10) == 3
    assert find_coprime_odd_t(12) == 5  # 3 shares a factor with 12
    assert find_coprime_odd_t(14) == 3
    t = find_coprime_odd_t(24)
    assert t % 2 == 1 and 3 <= t <= 21 and math.gcd(t, 24) == 1
    with pytest.raises(ValueError):
        find_coprime_odd_t(9)


def test_chord_cycle_length_8():
    assert chord_cycle(8, 8) == [0, 3, 6, 1, 4, 7, 2, 5]


def test_chord_cycle_length_12_uses_multiplier_5():
    cyc = chord_cycle(12, 12)
    assert cyc == [(5 * i) % 12 for i in range(12)]
    assert chord_cycle_valid(12, cyc)


def test_chord_cycle_all_sizes_up_to_24():
    for base in range(8, 26, 2):
        for target in range(8, base + 2, 2):
            cyc = chord_cycle(base, target)
            assert len(cyc) == target
            assert chord_cycle_valid(base, cyc), (base, target)


def test_chord_cycle_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chord_cycle(8, 6)
    with pytest.raises(ValueError):
        chord_cycle(7, 7)
    with pytest.raises(ValueError):
        chord_cycle(10, 12)


# ---------------------------------------------------------------------------
# The recommendation cascade and the detectors it runs.


def test_analyze_empty_set_recommends_trades():
    rep = bp.analyze(bp.FixedSet.free(2, 2), 2, 2)
    assert not rep.has_3_matching and not rep.has_8_cycle and rep.is_forest
    assert rep.min_excluded_ell is None  # 2x2 grid has no length-8 cycles at all
    assert rep.recommended == bp.MoveSet.trades()


def test_analyze_3_matching_recommends_circle_trades():
    f = bp.FixedSet.from_cells(4, 3, forced_non_edges=[(0, 0), (1, 1), (2, 2)])
    rep = bp.analyze(f, 4, 3)
    assert rep.has_3_matching and not rep.has_8_cycle
    assert rep.recommended == bp.MoveSet.trades_plus_circle()


def test_analyze_8_cycle_recommends_bounded_swaps():
    f = bp.FixedSet.from_cells(5, 5, forced_non_edges=EIGHT_CYCLE)
    rep = bp.analyze(f, 5, 5)
    assert rep.has_3_matching and rep.has_8_cycle and not rep.is_forest
    assert rep.min_excluded_ell == 5  # no 10-cycle in a lone 8-cycle
    assert rep.recommended == bp.MoveSet.swaps_up_to(8)


def test_analyze_no_usable_bound():
    cells = [(i, j) for i in range(5) for j in range(5)]
    f = bp.FixedSet.from_cells(5, 5, forced_non_edges=cells)
    with pytest.raises(bp.NoUsableBound):
        bp.analyze(f, 5, 5)


def test_analyze_searches_each_cycle_length_at_most_once(monkeypatch):
    # K_{5,5} in a 6x6 grid holds every cycle length up to 10 but no 12-cycle
    cells = [(i, j) for i in range(5) for j in range(5)]
    f = bp.FixedSet.from_cells(6, 6, forced_non_edges=cells)
    searched = []
    real = analysis_mod.has_cycle_of_length

    def counting(fg, length):
        searched.append(length)
        return real(fg, length)

    monkeypatch.setattr(analysis_mod, "has_cycle_of_length", counting)
    rep = bp.analyze(f, 6, 6)
    assert rep.min_excluded_ell == 6
    assert sorted(searched) == [8, 10, 12]


@pytest.mark.parametrize("cells", [
    [(i, j) for i in range(5) for j in range(5)],  # K_{5,5}: every length searched
    [(i, j) for i in range(10) for j in (i, i + 1) if j < 10],  # a staircase path
    EIGHT_CYCLE,
])
def test_analyze_splits_f_into_blocks_once(monkeypatch, cells):
    calls = []
    real = analysis_mod._blocks

    def counting(fg):
        calls.append(fg)
        return real(fg)

    monkeypatch.setattr(analysis_mod, "_blocks", counting)
    n = 2 + max(max(i, j) for i, j in cells)  # one spare row and column
    bp.analyze(bp.FixedSet.from_cells(n, n, forced_non_edges=cells), n, n)
    assert len(calls) == 1


def test_analyze_forest_goes_through_circle_branch():
    # a path with a 3-matching but no cycles
    cells = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]
    f = bp.FixedSet.from_cells(4, 3, forced_non_edges=cells)
    rep = bp.analyze(f, 4, 3)
    assert rep.is_forest and rep.has_3_matching
    assert rep.recommended == bp.MoveSet.trades_plus_circle()


def test_detector_monotonicity_under_cell_addition():
    rng = random.Random(77)
    for _ in range(30):
        n, nc = 5, 5
        cells = [(i, j) for i in range(n) for j in range(nc)]
        base = rng.sample(cells, rng.randint(0, 10))
        extra = [c for c in cells if c not in base]
        bigger = base + rng.sample(extra, rng.randint(0, min(4, len(extra))))
        f_small = FGraph.from_cells(n, nc, base)
        f_big = FGraph.from_cells(n, nc, bigger)
        if bp.max_matching_at_least(f_small, 3):
            assert bp.max_matching_at_least(f_big, 3)
        if bp.has_cycle_of_length(f_small, 8):
            assert bp.has_cycle_of_length(f_big, 8)
