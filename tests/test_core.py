"""Domain types, the oracle's classes of state differences and the public
surface of the package."""

import ast
import collections
import random
from pathlib import Path

import pytest

import bipsample as bp
from bipsample import chains, oracle

# Every public name of the package; adding or removing one shows here.
PUBLIC_NAMES = [
    "AnalysisReport", "Chain", "ChainConfig", "DegreeSequence", "FGraph",
    "FixedSet", "Infeasible", "Instance", "InstanceMismatch", "MoveSet",
    "NoUsableBound",
    "NotRealizable", "PolarityConflict", "Realization", "StateGraph",
    "StaticSet", "TooLarge", "VerificationResult", "analysis", "analyze",
    "build_state_graph", "chains", "check_connectivity", "core",
    "enumerate_realizations", "gale_ryser_realizable", "has_cycle_of_length",
    "initial_realization", "is_forest", "max_matching_at_least", "oracle",
    "partition_fixed_set", "realizability", "run", "run_verification",
    "static_set", "uniformity_report",
]

# Public names that neither the package nor the benchmark reads.
UNREFERENCED_PUBLIC_NAMES = set()

ROOT = Path(__file__).resolve().parents[1]


def test_public_surface_is_pinned():
    assert sorted(bp.__all__) == PUBLIC_NAMES


def _referenced_names(path):
    """The identifiers a module reads, imports or takes as an attribute,
    except those inside the top-level definition of the same name."""
    out = set()
    for stmt in ast.parse(path.read_text()).body:
        got = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                got.add(node.id)
            elif isinstance(node, ast.Attribute):
                got.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                got.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
                if getattr(node, "module", None):
                    got.add(node.module.rsplit(".", 1)[-1])
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            got.discard(stmt.name)
        out |= got
    return out


def test_every_public_name_is_read_by_the_package_or_the_benchmark():
    # a public name only the tests read is an API kept for its own tests
    files = [p for p in (ROOT / "src" / "bipsample").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "bench").glob("*.py")
    read = set().union(*map(_referenced_names, files))
    unread = set(bp.__all__) - read
    assert unread == UNREFERENCED_PUBLIC_NAMES


def _unread_imports(path):
    """The names a module imports (``from __future__`` aside) but never
    reads."""
    tree = ast.parse(path.read_text())
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported.update(
                    alias.asname or alias.name.split(".")[0] for alias in node.names
                )
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
    return imported - read


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports only to re-export, through __all__
    files = [p for p in (ROOT / "src" / "bipsample").glob("*.py") if p.name != "__init__.py"]
    unread = {p.name: sorted(_unread_imports(p)) for p in files}
    assert not any(unread.values()), unread


def test_degree_sequence_rejects_negative():
    with pytest.raises(ValueError):
        bp.DegreeSequence((1, -1), (0, 0))


def test_degree_sequence_allows_unequal_sums():
    # Realizability, not construction, reports these as unsatisfiable.
    s = bp.DegreeSequence((3, 1), (1, 1, 1))
    assert s.n == 2 and s.n_cols == 3


def test_fixed_set_cells_and_row_lists():
    f = bp.FixedSet.from_cells(2, 3, forced_edges=[(0, 1)], forced_non_edges=[(1, 2)])
    assert f.forced_edges == {(0, 1)}
    assert f.forced_non_edges == {(1, 2)}
    assert f.cells == {(0, 1), (1, 2)}
    assert f.fixed_masks == (0b010, 0b100)
    assert f.edge_masks == (0b010, 0)
    # built from its masks, as a list or a tuple, it is the same value
    for built in (bp.FixedSet(3, (0b010, 0b100), (0b010, 0)),
                  bp.FixedSet(3, [0b010, 0b100], [0b010, 0])):
        assert f == built and hash(f) == hash(built) and repr(f) == repr(built)
    assert f.cells
    assert not bp.FixedSet.free(2, 3).cells


def test_fixed_set_rejects_double_polarity():
    with pytest.raises(ValueError):
        bp.FixedSet.from_cells(2, 2, forced_edges=[(0, 0)], forced_non_edges=[(0, 0)])


def _fixed_set_reference(n_cols, fixed, edges):
    """``FixedSet``'s rules checked one at a time, row by row and bit by
    bit; returns its forced edges and non-edges."""
    if not fixed:
        raise ValueError("a fixed set needs at least one row")
    if n_cols < 1:
        raise ValueError("a fixed set needs at least one column")
    if len(edges) != len(fixed):
        raise ValueError(f"{len(fixed)} fixed masks but {len(edges)} edge masks")
    if any(m < 0 for m in (*fixed, *edges)):
        raise ValueError("masks must be nonnegative")
    for f in fixed:
        if any(f >> j & 1 for j in range(n_cols, f.bit_length())):
            raise ValueError(f"a fixed mask has a bit at or past column {n_cols}")
    for f, e in zip(fixed, edges):
        if any(e >> j & 1 and not f >> j & 1 for j in range(e.bit_length())):
            raise ValueError("an edge mask has a bit outside its fixed mask")
    cells = [(i, j) for i in range(len(fixed)) for j in range(n_cols)]
    return ({(i, j) for i, j in cells if edges[i] >> j & 1},
            {(i, j) for i, j in cells if (fixed[i] & ~edges[i]) >> j & 1})


FIXED_SET_FAULTS = ("one row", "one column", "edge masks", "nonnegative",
                    "at or past", "outside")


def test_fixed_set_checks_match_the_cell_by_cell_reference():
    # the same cells, or the same first error, on random masks with empty
    # and unequal lists, negative masks, bits past the last column and
    # edges outside their fixed cells
    rng = random.Random(19)
    seen = set()
    for trial in range(3000):
        n, nc = rng.randint(0, 5), rng.randint(0, 5)
        fixed = [rng.getrandbits(max(nc, 1)) for _ in range(n)]
        edges = [f & rng.getrandbits(max(nc, 1)) for f in fixed]
        for _ in range(rng.choice((0, 0, 1, 2))):
            if not n:
                break
            i = rng.randrange(n)
            kind = rng.randrange(4)
            if kind == 0:
                fixed[i] = -1 - fixed[i]
            elif kind == 1:
                edges[i] = -1
            elif kind == 2:
                fixed[i] |= 1 << (nc + rng.randrange(70))
            else:
                edges[i] |= 1 << rng.randrange(nc + 2)
        if n and rng.random() < 0.1:
            rng.choice((fixed, edges)).pop()
        want = _outcome(lambda: _fixed_set_reference(nc, fixed, edges))
        got = _outcome(lambda: bp.FixedSet(nc, fixed, edges))
        assert got == want, (nc, fixed, edges)
        if want is None:
            f = bp.FixedSet(nc, fixed, edges)
            forced_edges, forced_non_edges = _fixed_set_reference(nc, fixed, edges)
            assert (f.n, f.n_cols) == (n, nc)
            assert f.forced_edges == forced_edges
            assert f.forced_non_edges == forced_non_edges
            assert f.cells == forced_edges | forced_non_edges
            assert (f.fixed_masks, f.edge_masks) == (tuple(fixed), tuple(edges))
        else:
            seen.add(next(k for k in FIXED_SET_FAULTS if k in want[1]))
    assert seen == set(FIXED_SET_FAULTS)


@pytest.mark.parametrize("args, message", [
    ((3, (), ()), "at least one row"),
    ((0, (0,), (0,)), "at least one column"),
    ((3, (0, 0), (0,)), "2 fixed masks but 1 edge masks"),
    ((3, (-1,), (0,)), "nonnegative"),
    ((3, (0b1,), (-1,)), "nonnegative"),
    ((3, (0b1000,), (0,)), "a bit at or past column 3"),
    ((3, (0b011,), (0b100,)), "a bit outside its fixed mask"),
])
def test_fixed_set_rejects_each_bad_form(args, message):
    with pytest.raises(ValueError, match=message):
        bp.FixedSet(*args)


OUTSIDE_2X2 = [(-1, 0), (0, -1), (2, 0), (0, 2)]


@pytest.mark.parametrize("cell", OUTSIDE_2X2)
def test_fixed_set_rejects_cells_outside_the_grid(cell):
    # a negative index used to wrap and pin a cell of the last row or column
    for kwargs in ({"forced_edges": [cell]}, {"forced_non_edges": [cell]}):
        with pytest.raises(ValueError, match="outside the 2x2 grid"):
            bp.FixedSet.from_cells(2, 2, **kwargs)


@pytest.mark.parametrize("rows", [[{-1}, {0}], [{0}, {2}], [{1}, {0}, {0}]])
def test_realization_from_rows_rejects_cells_outside_the_grid(rows):
    # [{-1}, {0}] used to wrap to 01/10, a valid realization
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    with pytest.raises(ValueError, match="outside the 2x2 grid"):
        bp.Realization.from_rows(inst, rows)


def test_instance_dimension_mismatch():
    with pytest.raises(bp.InstanceMismatch):
        bp.Instance(bp.DegreeSequence((1, 1), (1, 1)), bp.FixedSet.free(2, 3))


def test_realization_validates_degrees_and_mask():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    with pytest.raises(ValueError):
        bp.Realization(inst, [[1, 1], [0, 0]])
    pinned = bp.Instance(
        bp.DegreeSequence((1, 1), (1, 1)),
        bp.FixedSet.from_cells(2, 2, forced_edges=[(0, 0)]),
    )
    with pytest.raises(ValueError):
        bp.Realization(pinned, [[0, 1], [1, 0]])
    ok = bp.Realization(pinned, [[1, 0], [0, 1]])
    assert ok.rows == (frozenset({0}), frozenset({1}))


def _old_construction(matrix):
    """``Realization``'s matrix and row sets as they were built cell by cell."""
    grid = tuple(tuple(int(v) for v in row) for row in matrix)
    return grid, tuple(frozenset(j for j, v in enumerate(row) if v) for row in grid)


def assert_one_realization(inst, grid):
    """The valid 0/1 ``grid`` of ``inst`` built every way a ``Realization``
    is built gives one object: equal, with the grid's masks, matrix, row
    sets and repr, and one hash."""
    from bipsample import cli

    _, rows = _old_construction(grid)
    masks = tuple(sum(v << j for j, v in enumerate(row)) for row in grid)
    text = "\n".join("".join(map(str, row)) for row in grid) + "\n"
    built = [
        bp.Realization(inst, [list(row) for row in grid]),
        bp.Realization(inst, [bytes(row) for row in grid]),
        bp.Realization.from_rows(inst, rows),
        bp.Realization.from_masks(inst, masks),
        cli.parse_realization(text, inst),
    ]
    repr_ = "Realization(" + "/".join(text.split()) + ")"
    for g in built:
        assert g == built[0] and hash(g) == hash(built[0])
        assert (g.masks, g.matrix, g.rows, repr(g)) == (masks, grid, rows, repr_)
        assert cli.format_realization(g) == text


def _validate_reference(inst, matrix):
    """``Realization._validate`` as it was, cell by cell: the reference its
    C-level passes are checked against."""
    n, nc = inst.n, inst.n_cols
    if len(matrix) != n or any(len(r) != nc for r in matrix):
        raise bp.InstanceMismatch("matrix dimensions do not match the instance")
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if v not in (0, 1):
                raise ValueError(f"matrix cell ({i}, {j}) is {v!r}, not 0/1")
    a, b = inst.degrees.row_degrees, inst.degrees.col_degrees
    for i, row in enumerate(matrix):
        if sum(row) != a[i]:
            raise ValueError(f"row {i} has sum {sum(row)}, expected {a[i]}")
    for j in range(nc):
        got = sum(matrix[i][j] for i in range(n))
        if got != b[j]:
            raise ValueError(f"column {j} has sum {got}, expected {b[j]}")
    fixed, edges = inst.fixed.fixed_masks, inst.fixed.edge_masks
    for i in range(n):
        for j in range(nc):
            if edges[i] >> j & 1 and not matrix[i][j]:
                raise ValueError(f"forced edge ({i}, {j}) is absent")
            if (fixed[i] ^ edges[i]) >> j & 1 and matrix[i][j]:
                raise ValueError(f"forced non-edge ({i}, {j}) is present")


def _outcome(check):
    """(exception class, message) of ``check()``, or None if it returns."""
    try:
        check()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _broken(rng, a_matrix, kind):
    """A copy of the realization ``a_matrix`` broken the way ``kind`` says
    (for "swaps", possibly not broken at all)."""
    m = [list(row) for row in a_matrix]
    n, nc = len(m), len(m[0])
    i, j = rng.randrange(n), rng.randrange(nc)
    if kind == "value":
        m[i][j] = rng.choice((2, -1))
    elif kind == "row sum":
        m[i][j] ^= 1
    elif kind == "column sum":
        # a 1 moved along its row keeps the row sums
        if 0 < sum(m[i]) < nc:
            ones = [k for k in range(nc) if m[i][k]]
            zeros = [k for k in range(nc) if not m[i][k]]
            k, h = rng.choice(ones), rng.choice(zeros)
            m[i][k], m[i][h] = 0, 1
    elif kind == "swaps":
        # degree-preserving 4-swaps, which may break fixed cells only
        for _ in range(3):
            i2, j2 = rng.randrange(n), rng.randrange(nc)
            if m[i][j] == m[i2][j2] == 1 and m[i][j2] == m[i2][j] == 0:
                m[i][j] = m[i2][j2] = 0
                m[i][j2] = m[i2][j] = 1
            i, j = rng.randrange(n), rng.randrange(nc)
    else:  # dimensions
        shape = rng.randrange(4)
        if shape == 0:
            m.pop()
        elif shape == 1:
            m[i].pop()
        elif shape == 2:
            m[i].append(1)
        else:
            m.append([1] * nc)
    return m


def _pinned_like(rng, matrix):
    """A fixed set pinning each cell of ``matrix`` with chance 1/3, to its
    value there."""
    fixed = [sum(rng.choice((0, 0, 1)) << j for j in range(len(row))) for row in matrix]
    edges = [f & sum(v << j for j, v in enumerate(row)) for f, row in zip(fixed, matrix)]
    return bp.FixedSet(len(matrix[0]), fixed, edges)


def test_realization_checks_match_the_cell_by_cell_reference():
    # same exception class and first-failure message as the old validation,
    # and the same matrix and row sets, on random broken matrices
    rng = random.Random(18)
    kinds = ("value", "row sum", "column sum", "swaps", "dimensions")
    failures = ("matrix dimensions", "matrix cell", "row", "column",
                "forced edge", "forced non-edge")
    seen = set()
    valid = 0
    for trial in range(1500):
        n, nc = rng.randint(1, 6), rng.randint(1, 6)
        a_matrix = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(n)]
        inst = bp.Instance(
            bp.DegreeSequence(map(sum, a_matrix), map(sum, zip(*a_matrix))),
            _pinned_like(rng, a_matrix),
        )
        assert_one_realization(inst, _old_construction(a_matrix)[0])
        m = _broken(rng, a_matrix, kinds[trial % len(kinds)])
        grid, rows = _old_construction(m)
        want = _outcome(lambda: _validate_reference(inst, grid))
        assert _outcome(lambda: bp.Realization(inst, m)) == want, (inst, m)
        if want is None:
            assert_one_realization(inst, grid)
            valid += 1
        else:
            message = want[1]
            seen.add(next(p for p in failures if message.startswith(p)))
            seen.update(v for v in (" is 2,", " is -1,") if v in message)
    assert seen == {*failures, " is 2,", " is -1,"}
    assert valid >= 100


def _mask_matrix(masks, nc):
    """The 0/1 matrix of row masks, each row as wide as its mask needs but
    at least nc cells."""
    return [[m >> j & 1 for j in range(max(nc, m.bit_length()))] for m in masks]


def _corrupt(rng, inst, masks, kind):
    """One row mask of the realization ``masks`` broken the way ``kind``
    says, and the instance to check it against: for the pin faults, one
    with the broken state's degrees, so that only the pin rule fails.
    None when the realization has no cell to break that way."""
    n, nc = inst.n, inst.n_cols
    fixed, edges = inst.fixed.fixed_masks, inst.fixed.edge_masks
    full = (1 << nc) - 1
    if kind == "row sum":
        options = [(i, 1 << j) for i in range(n) for j in range(nc)]
    elif kind == "column sum":
        # a 1 moved along its row keeps the row sums
        options = [(i, (1 << j) | (1 << k)) for i in range(n)
                   for j in range(nc) if masks[i] >> j & 1
                   for k in range(nc) if not masks[i] >> k & 1]
    elif kind == "forced edge":
        options = [(i, 1 << j) for i in range(n) for j in range(nc) if edges[i] >> j & 1]
    elif kind == "forced non-edge":
        options = [(i, 1 << j) for i in range(n) for j in range(nc)
                   if (fixed[i] & ~edges[i] & full) >> j & 1]
    else:  # a bit at or past n_cols
        options = [(i, 1 << (nc + rng.randrange(3))) for i in range(n)]
    if not options:
        return None
    i, flip = rng.choice(options)
    broken = list(masks)
    broken[i] ^= flip
    if kind.startswith("forced"):
        matrix = _mask_matrix(broken, nc)
        inst = bp.Instance(
            bp.DegreeSequence(map(sum, matrix), map(sum, zip(*matrix))), inst.fixed
        )
    return inst, broken


def test_mask_check_catches_injected_faults_with_the_realization_messages():
    # one row mask of a valid state broken five ways: each is refused with
    # the exception and message Realization gives for the same matrix
    from bipsample.core import check_masks

    rng = random.Random(22)
    kinds = ("row sum", "column sum", "forced edge", "forced non-edge", "width")
    starts = {"row sum": "row", "column sum": "column", "forced edge": "forced edge",
              "forced non-edge": "forced non-edge", "width": "matrix dimensions"}
    seen = {kind: 0 for kind in kinds}
    for trial in range(600):
        n, nc = rng.randint(1, 6), rng.randint(1, 6)
        a_matrix = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(n)]
        inst = bp.Instance(
            bp.DegreeSequence(map(sum, a_matrix), map(sum, zip(*a_matrix))),
            _pinned_like(rng, a_matrix),
        )
        masks = bp.Realization(inst, a_matrix).masks
        assert check_masks(inst, masks) == ["".join(map(str, row)) for row in a_matrix]
        kind = kinds[trial % len(kinds)]
        broken = _corrupt(rng, inst, masks, kind)
        if broken is None:
            continue
        inst, bad = broken
        want = _outcome(lambda: bp.Realization(inst, _mask_matrix(bad, nc)))
        assert want is not None and want[1].startswith(starts[kind]), (kind, want)
        assert _outcome(lambda: check_masks(inst, bad)) == want, (inst, bad)
        assert _outcome(lambda: bp.Realization.from_masks(inst, bad)) == want
        seen[kind] += 1
    assert min(seen.values()) >= 50, seen


def test_realization_matches_the_old_construction_on_committed_instances():
    # the start realization of every feasible committed instance, built from
    # list rows, bytes rows, row sets, row masks and text
    from bipsample import cli

    feasible = 0
    for path in sorted((ROOT / "bench" / "instances").glob("*.txt")):
        inst = cli.parse_instance(path.read_text())
        try:
            start = bp.initial_realization(inst)
        except bp.Infeasible:
            continue
        feasible += 1
        assert_one_realization(inst, start.matrix)
    assert feasible >= 40


PairClass = collections.namedtuple("PairClass", "changed_rows cycle_len is_circle")


def pair_class(g, h):
    """The oracle's exact pair class of two realizations of one instance."""
    n, nc = g.instance.n, g.instance.n_cols
    x, y = oracle._state_of(g.masks, nc), oracle._state_of(h.masks, nc)
    return PairClass(*oracle._classify_bits(x, y, n, nc))


def difference_cells(g, h):
    """The cells where g and h differ, as (row, col, owner) with owner "g"
    for an edge of g only and "h" for an edge of h only."""
    return [
        (i, j, "g" if v else "h")
        for i, (row_g, row_h) in enumerate(zip(g.matrix, h.matrix))
        for j, (v, w) in enumerate(zip(row_g, row_h))
        if v != w
    ]


def toggled(g, cells):
    """``g`` with ``cells`` toggled on a copy of its matrix, validated."""
    matrix = [list(row) for row in g.matrix]
    for i, j in cells:
        matrix[i][j] ^= 1
    return bp.Realization(g.instance, matrix)


def test_symmetric_difference_identity_is_empty():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    g = bp.Realization(inst, [[1, 0], [0, 1]])
    info = pair_class(g, g)
    assert info.changed_rows == () and info.cycle_len == 0 and not info.is_circle


def test_symmetric_difference_single_4_swap():
    inst = bp.Instance.unconstrained((1, 1), (1, 1))
    g = bp.Realization(inst, [[1, 0], [0, 1]])
    h = bp.Realization(inst, [[0, 1], [1, 0]])
    info = pair_class(g, h)
    assert info.changed_rows == (0, 1) and info.cycle_len == 4


def test_symmetric_difference_splits_walk_into_two_6_cycles():
    # One closed walk through a twice-visited row splits into two
    # vertex-disjoint 6-cycles sharing that row vertex: the difference is
    # no single cycle, and each 6-cycle alone is one.
    inst = bp.Instance.unconstrained((2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1))
    g = bp.Realization.from_rows(inst, [{0, 3}, {1}, {2}, {4}, {5}])
    h = bp.Realization.from_rows(inst, [{1, 4}, {2}, {0}, {5}, {3}])
    assert len(difference_cells(g, h)) == 12
    info = pair_class(g, h)
    assert info.changed_rows == (0, 1, 2, 3, 4) and info.cycle_len == 0
    mid = toggled(g, [(0, 0), (2, 0), (2, 2), (1, 2), (1, 1), (0, 1)])
    assert pair_class(g, mid).cycle_len == 6
    assert pair_class(mid, h).cycle_len == 6
    assert pair_class(g, mid).changed_rows == (0, 1, 2)


def test_move_set_validation():
    assert bp.MoveSet.swaps_up_to(8).swap_lengths() == {4, 6, 8}
    assert bp.MoveSet.swaps4().swap_lengths() == {4}
    assert bp.MoveSet.trades().swap_lengths() == frozenset()
    with pytest.raises(ValueError):
        bp.MoveSet.swaps_up_to(7)
    for limit in (2, 5):
        with pytest.raises(ValueError):
            bp.MoveSet.swaps_up_to(limit)
    with pytest.raises(ValueError):
        bp.MoveSet("bogus")


@pytest.mark.parametrize("limit", [6.0, True, "6", None], ids=repr)
def test_swap_limit_must_be_an_int(limit):
    # 6.0 == 6, so swaps<=6.0 would pass for swaps<=6 and then fail in the
    # chains and the oracle
    with pytest.raises(ValueError):
        bp.MoveSet.swaps_up_to(limit)


def _random_instances(rng, count):
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        nc = rng.randint(2, 4)
        matrix = [[rng.randint(0, 1) for _ in range(nc)] for _ in range(n)]
        a = [sum(r) for r in matrix]
        b = [sum(matrix[i][j] for i in range(n)) for j in range(nc)]
        inst = bp.Instance.unconstrained(a, b)
        states = bp.enumerate_realizations(inst)
        if len(states) >= 2:
            out.append(states)
    return out


def test_decomposition_soundness_on_enumerated_instances():
    # the pair class is sound: its changed rows are the rows that differ, and
    # a cycle length counts a difference of two cells per changed row and
    # column on one closed alternating walk
    rng = random.Random(4)
    for states in _random_instances(rng, 8):
        for _ in range(6):
            g, h = rng.sample(states, 2)
            cells = difference_cells(g, h)
            info = pair_class(g, h)
            assert info.changed_rows == tuple(sorted({i for i, _, _ in cells}))
            if not info.cycle_len:
                continue
            assert info.cycle_len == len(cells)
            by_row, by_col = {}, {}
            for i, j, w in cells:
                by_row.setdefault(i, []).append((j, w))
                by_col.setdefault(j, []).append((i, w))
            for ends in list(by_row.values()) + list(by_col.values()):
                assert len(ends) == 2 and ends[0][1] != ends[1][1]
            # follow the walk from the first cell: it closes after every cell
            i, j, _ = cells[0]
            seen = {(i, j)}
            while True:
                j = next(c for c, _ in by_row[i] if c != j)
                if (i, j) in seen:
                    break
                seen.add((i, j))
                i = next(r for r, _ in by_col[j] if r != i)
                seen.add((i, j))
            assert len(seen) == len(cells)


def test_alternating_3_walks_in_difference_are_vertex_disjoint():
    # Any three difference cells chained by alternating shared vertices
    # must touch four distinct vertices: a repeat at distance two would
    # need one cell owned by both realizations, and a repeat at distance
    # three is impossible across the two vertex sides.
    rng = random.Random(11)
    for states in _random_instances(rng, 6):
        for _ in range(4):
            g, h = rng.sample(states, 2)
            cells = difference_cells(g, h)
            for i1, j1, w1 in cells:
                for i2, j2, w2 in cells:
                    if w2 == w1 or j2 != j1:
                        continue  # middle edge shares the column vertex
                    assert i2 != i1  # else one cell had both owners
                    for i3, j3, w3 in cells:
                        if w3 == w2 or i3 != i2:
                            continue  # third edge shares the row vertex
                        assert j3 != j2  # else one cell had both owners
                        assert j3 != j1  # a repeat would close a 2-cycle
                        verts = {("r", i1), ("c", j1), ("r", i2), ("c", j3)}
                        assert len(verts) == 4


def test_degree_conservation_after_cycle_swaps():
    # every bounded cycle swap keeps all degrees: one kernel step on a copy
    # of the row masks validates as a realization, and the cells it changed
    # form one cycle of their count
    rng = random.Random(7)
    swapped = 0
    for states in _random_instances(rng, 6):
        g = rng.choice(states)
        inst = g.instance
        limit = 2 * min(inst.n, inst.n_cols)
        start = g.masks
        fixed = inst.fixed.fixed_masks
        rows = list(start)
        kernel = chains._cycles(rows, fixed, inst.n, rng, inst.n_cols, limit)
        next(kernel)
        for _ in range(300):
            rows[:] = start
            kernel.send(1)
            changed = sum((r ^ s).bit_count() for r, s in zip(rows, start))
            if not changed:
                continue
            h = bp.Realization.from_masks(inst, rows)
            for i, row in enumerate(h.matrix):
                assert sum(row) == inst.degrees.row_degrees[i]
            assert pair_class(g, h).cycle_len == changed
            swapped += 1
    assert swapped > 50
