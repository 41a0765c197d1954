"""Acceptance suite: one test per criterion, one printed verdict line each.

The connectivity, distance, reversibility and static-cell criteria share a
single sweep of the verification pool (session fixture); the remaining
criteria run their own targeted checks.
"""

import time
from math import comb

import bipsample as bp
from bipsample import cli, oracle
from bipsample.chains import ChainConfig, _unrank_subset
from test_analysis import chord_cycle, chord_cycle_valid, find_coprime_odd_t
from test_oracle import search_split_masks


def _verdict(number, label, t0):
    print(f"criterion {number:2d} PASS ({time.perf_counter() - t0:.1f}s): {label}")


def _fail_names(pool_result, names):
    return [(n, d) for n, d in pool_result.failures if n in names]


def test_criterion_01_worked_trade_enumeration():
    t0 = time.perf_counter()
    rowsets = [{0, 1, 2, 3, 4, 5}, {3, 4, 6}]
    a = [len(r) for r in rowsets]
    b = [sum(1 for r in rowsets if j in r) for j in range(7)]
    inst = bp.Instance(
        bp.DegreeSequence(a, b),
        bp.FixedSet.from_cells(2, 7, forced_edges=[(0, 2)], forced_non_edges=[(1, 5)]),
    )
    g = bp.Realization.from_rows(inst, rowsets)
    # the exchangeable columns of each row, as bit masks
    blocked = inst.fixed.fixed_masks[0] | inst.fixed.fixed_masks[1]
    r0, r1 = g.masks
    a_ij = r0 & ~(r1 | blocked)
    a_ji = r1 & ~(r0 | blocked)
    pool, k = a_ij | a_ji, a_ij.bit_count()
    total = comb(pool.bit_count(), k)
    outcomes = [_unrank_subset(pool, k, r, total) for r in range(total)]
    assert len(outcomes) == 3
    assert outcomes.count(a_ij) == 1  # the lazy step
    columns = lambda m: tuple(j for j in range(7) if m >> j & 1)
    moves = sorted((columns(b), columns(pool ^ b)) for b in outcomes if b != a_ij)
    # exchange 0 with 6, or 1 with 6; nothing else
    assert moves == [((0, 6), (1,)), ((1, 6), (0,))]
    _verdict(1, "two-row trade enumeration matches the worked example", t0)


def _rotated(g, i, j, k, sub_i, sub_j, sub_k):
    """``g`` after the circle trade on rows (i, j, k) that moves the columns
    ``sub_j`` from row j to row i, ``sub_k`` from k to j and ``sub_i`` from
    i to k."""
    rows = list(g.rows)
    rows[i] = (rows[i] - sub_i) | sub_j
    rows[j] = (rows[j] - sub_j) | sub_k
    rows[k] = (rows[k] - sub_k) | sub_i
    return bp.Realization.from_rows(g.instance, rows)


def test_criterion_02_worked_circle_trades():
    t0 = time.perf_counter()
    matrix = [[0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 1, 0], [1, 0, 0, 0, 0, 1]]
    a = [sum(r) for r in matrix]
    b = [sum(matrix[i][j] for i in range(3)) for j in range(6)]
    inst = bp.Instance(
        bp.DegreeSequence(a, b),
        bp.FixedSet.from_cells(3, 6, forced_non_edges=[(0, 0), (1, 1), (2, 2)]),
    )
    gA = bp.Realization(inst, matrix)
    gB = _rotated(gA, 0, 1, 2, sub_i={1, 3}, sub_j={2, 4}, sub_k={0, 5})
    assert gB.matrix == ((0, 0, 1, 0, 1, 0), (1, 0, 0, 0, 0, 1), (0, 1, 0, 1, 0, 0))
    gC = _rotated(gA, 0, 1, 2, sub_i={3}, sub_j={2}, sub_k={5})
    assert gC.matrix == ((0, 1, 1, 0, 0, 0), (0, 0, 0, 0, 1, 1), (1, 0, 0, 1, 0, 0))
    gD = _rotated(gA, 1, 0, 2, sub_i={4}, sub_j={3}, sub_k={5})
    assert gD.matrix == ((0, 1, 0, 0, 0, 1), (0, 0, 1, 1, 0, 0), (1, 0, 0, 0, 1, 0))
    # each is one circle trade away from A in the oracle's exact ledger
    states = bp.enumerate_realizations(inst)
    index = {g.matrix: s for s, g in enumerate(states)}
    ctx = oracle._ctx_of(states)
    fixed = inst.fixed.fixed_masks
    corrected, _ = oracle._circle_ledgers(ctx, range(len(states)), fixed)
    successors = {t for s, t, _ in corrected if s == index[gA.matrix]}
    assert {index[g.matrix] for g in (gB, gC, gD)} <= successors
    _verdict(2, "three-row rotations reproduce matrices B, C and D", t0)


def test_criterion_03_chorded_cycles():
    t0 = time.perf_counter()
    assert chord_cycle(8, 8) == [0, 3, 6, 1, 4, 7, 2, 5]
    assert find_coprime_odd_t(8) == 3
    assert find_coprime_odd_t(10) == 3
    assert find_coprime_odd_t(12) == 5
    for base in range(8, 26, 2):
        for target in range(8, base + 2, 2):
            cyc = chord_cycle(base, target)
            assert len(cyc) == target and len(set(cyc)) == target
            assert chord_cycle_valid(base, cyc), (base, target)
    _verdict(3, "all chorded cycles up to base 24 are simple with odd gaps >= 3", t0)


def test_criterion_04_swap_connectivity_and_distance(pool_result):
    t0 = time.perf_counter()
    names = {"swaps4-connected", "swaps4-distance-bound",
             "trades-connected", "trade-swap-components"}
    bad = _fail_names(pool_result, names)
    assert not bad, bad
    assert pool_result.counts["swaps4-connected"] > 20000
    assert pool_result.counts["swaps4-distance-bound"] > 20000
    _verdict(
        4,
        f"4-swap graphs connected with distances within bound on "
        f"{pool_result.counts['swaps4-connected']} no-3-matching instances",
        t0,
    )


def test_criterion_05_bounded_swap_connectivity(pool_result):
    t0 = time.perf_counter()
    names = {"swaps46-connected", "forest-swaps46-connected",
             "bounded-swaps-connected", "circle-trades-connected"}
    bad = _fail_names(pool_result, names)
    assert not bad, bad
    assert pool_result.counts["swaps46-connected"] > 20000
    assert pool_result.counts["forest-swaps46-connected"] > 10000
    assert pool_result.counts.get("bounded-swaps-connected", 0) > 0
    _verdict(
        5,
        f"4/6-swap and bounded-swap graphs connected on "
        f"{pool_result.counts['swaps46-connected']} instances "
        f"(+{pool_result.counts['bounded-swaps-connected']} with embedded 8-cycles)",
        t0,
    )


def test_criterion_06_two_component_counterexample():
    t0 = time.perf_counter()
    records = search_split_masks()
    by_cells = {r["cells"]: r for r in records}
    frozen = ((0, 0), (1, 1), (2, 2), (3, 1))  # regression fixture
    witness = by_cells[frozen]
    assert witness["n_states"] == 3
    assert witness["n_components"] == 2
    assert witness["isomorphic"] is False
    assert witness["circle_connected"] is True
    _verdict(
        6,
        f"search found {len(records)} masks splitting the 4-swap graph into "
        "two non-isomorphic components that circle trades reconnect",
        t0,
    )


def test_criterion_07_reversibility_ledger(pool_result):
    t0 = time.perf_counter()
    names = {"trade-reversibility", "circle-detailed-balance"}
    bad = _fail_names(pool_result, names)
    assert not bad, bad
    assert pool_result.counts["trade-reversibility"] > 20000
    assert pool_result.counts["circle-detailed-balance"] > 20000
    # the uncorrected rotation proposal is measurably asymmetric on this
    # pool; if these findings vanish the checker has lost its sensitivity
    assert len(pool_result.info_lines) > 0
    _verdict(
        7,
        f"exact symmetry on {pool_result.counts['trade-reversibility']} "
        f"trade and {pool_result.counts['circle-detailed-balance']} corrected "
        f"circle ledgers; {len(pool_result.info_lines)} uncorrected asymmetries "
        "recorded",
        t0,
    )


def test_criterion_08_uniformity(criterion8_fixtures):
    t0 = time.perf_counter()
    for label, inst, move_set in criterion8_fixtures:
        # confirm the move set is the recommended one for this fixed set
        assert bp.analyze(inst.fixed, inst.n, inst.n_cols).recommended == move_set
        states = bp.enumerate_realizations(inst)
        assert 6 <= len(states) <= 200
        cfg = ChainConfig(move_set, steps=1_000_000, seed=12345, sample_gap=10)
        tv, p = bp.uniformity_report(inst, cfg)
        assert tv < 0.02, (label, tv)
        assert p > 0.001, (label, p)
    _verdict(8, "five million steps across five instances stay uniform", t0)


def test_criterion_09_static_cells(pool_result):
    t0 = time.perf_counter()
    names = {"static-cells-exact", "static-cells-pruned", "reduction-equivalence"}
    bad = _fail_names(pool_result, names)
    assert not bad, bad
    assert pool_result.counts["static-cells-exact"] >= 186
    assert pool_result.counts["static-cells-pruned"] >= 186
    _verdict(
        9,
        f"static cells match enumeration on "
        f"{pool_result.counts['static-cells-exact']} sequences and the "
        "per-cell Gale-Ryser reference from a given realization",
        t0,
    )


def test_criterion_10_sampler_reproducibility(tmp_path):
    t0 = time.perf_counter()
    path = tmp_path / "inst.txt"
    path.write_text(
        "rows: 2\ncols: 2\nrow_degrees: 1 1\ncol_degrees: 1 1\nmask:\n**\n**\n"
    )

    def run(seed, tag):
        out = tmp_path / tag
        code = cli.main(
            ["sample", str(path), "--chain", "curveball", "--steps", "40",
             "--count", "25", "--seed", str(seed), "--out", str(out)]
        )
        assert code == 0
        return b"".join(f.read_bytes() for f in sorted(out.iterdir()))

    assert run(7, "a") == run(7, "b")  # byte-identical reruns
    differing = 0
    for k in range(100):
        s1, s2 = 10_000 * k, 10_000 * k + 5_000
        if run(s1, f"s{k}a") != run(s2, f"s{k}b"):
            differing += 1
    assert differing == 100
    _verdict(10, "identical seeds byte-identical; 100 differing seed pairs differ", t0)
