"""Shared domain types: degree sequences, fixed-cell masks, realizations
and the move-set vocabulary."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import Iterable, Sequence

# Cell states of a FixedSet mask.
FREE = 0
FORCED_EDGE = 1
FORCED_NON_EDGE = 2


# A mask's and a realization's cell values.
_MASK_VALUES = frozenset({FREE, FORCED_EDGE, FORCED_NON_EDGE})
_BITS = frozenset({0, 1})

# Map the binary digits "0" and "1" to the values 0 and 1, and back.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_CELL_DIGITS = bytes.maketrans(b"\x00\x01", b"01")

# Map a FixedSet row's cell values, as bytes, to the binary digits of its
# fixed cells (either polarity) and of its forced edges.
_CELL_KINDS = bytes((FREE, FORCED_EDGE, FORCED_NON_EDGE))
_FIXED_DIGITS = bytes.maketrans(_CELL_KINDS, b"011")
_EDGE_DIGITS = bytes.maketrans(_CELL_KINDS, b"010")


def _cell_values(row: Sequence[int]) -> tuple[int, ...]:
    """One grid row as a tuple of ints: a bytes row already holds them."""
    return tuple(row) if isinstance(row, bytes) else tuple(map(int, row))


class InstanceMismatch(ValueError):
    """Two objects that must share an instance (or its dimensions) do not."""


class Infeasible(ValueError):
    """No realization satisfies the instance."""


class PolarityConflict(Infeasible):
    """The fixed set forces a value that no realization of the sequence can take."""


class NotRealizable(ValueError):
    """The degree sequence itself has no realization."""


class NoUsableBound(ValueError):
    """Every candidate cycle length up to the search cap occurs in the fixed set."""


class TooLarge(ValueError):
    """Instance exceeds a brute-force guard."""


def _row_masks(grid: Sequence[Sequence[int]], digits: bytes) -> tuple[int, ...]:
    """One column mask per grid row: ``digits`` maps each cell value to
    the binary digit of its bit.  Reversed, a translated row is its mask's
    binary number."""
    return tuple(int(bytes(row).translate(digits)[::-1], 2) for row in grid)


def _check_cell(i: int, j: int, n: int, n_cols: int) -> None:
    """Reject a cell outside the grid; a negative index would wrap."""
    if not (0 <= i < n and 0 <= j < n_cols):
        raise ValueError(f"cell ({i}, {j}) is outside the {n}x{n_cols} grid")


@dataclass(frozen=True)
class DegreeSequence:
    """Prescribed row and column sums of a 0/1 matrix.

    Unequal sums or out-of-range degrees are allowed at construction;
    ``gale_ryser_realizable`` reports such sequences as unrealizable.
    """

    row_degrees: tuple[int, ...]
    col_degrees: tuple[int, ...]

    def __init__(self, row_degrees: Iterable[int], col_degrees: Iterable[int]):
        rows = tuple(int(d) for d in row_degrees)
        cols = tuple(int(d) for d in col_degrees)
        if not rows or not cols:
            raise ValueError("degree sequences must be non-empty")
        if any(d < 0 for d in rows) or any(d < 0 for d in cols):
            raise ValueError("degrees must be nonnegative")
        object.__setattr__(self, "row_degrees", rows)
        object.__setattr__(self, "col_degrees", cols)

    @property
    def n(self) -> int:
        return len(self.row_degrees)

    @property
    def n_cols(self) -> int:
        return len(self.col_degrees)


@dataclass(frozen=True)
class FixedSet:
    """Per-cell mask pinning edges (1), non-edges (0), or leaving cells free."""

    mask: tuple[tuple[int, ...], ...]

    def __init__(self, mask: Sequence[Sequence[int]]):
        grid = tuple(map(_cell_values, mask))
        if not grid or not grid[0]:
            raise ValueError("mask must be non-empty")
        # Two C-level passes; only a failing grid is scanned cell by cell,
        # to name its first bad row or value.
        width = len(grid[0])
        if set(map(len, grid)) != {width} or not _MASK_VALUES.issuperset(
            chain.from_iterable(grid)
        ):
            for row in grid:
                if len(row) != width:
                    raise ValueError("mask rows must have equal length")
                for v in row:
                    if v not in _MASK_VALUES:
                        raise ValueError(f"bad mask value {v!r}")
        object.__setattr__(self, "mask", grid)

    @classmethod
    def free(cls, n: int, n_cols: int) -> "FixedSet":
        return cls(((FREE,) * n_cols,) * n)

    @classmethod
    def from_cells(
        cls,
        n: int,
        n_cols: int,
        forced_edges: Iterable[tuple[int, int]] = (),
        forced_non_edges: Iterable[tuple[int, int]] = (),
    ) -> "FixedSet":
        grid = [[FREE] * n_cols for _ in range(n)]
        for i, j in forced_edges:
            _check_cell(i, j, n, n_cols)
            grid[i][j] = FORCED_EDGE
        for i, j in forced_non_edges:
            _check_cell(i, j, n, n_cols)
            if grid[i][j] == FORCED_EDGE:
                raise ValueError(f"cell ({i}, {j}) forced both ways")
            grid[i][j] = FORCED_NON_EDGE
        return cls(grid)

    @property
    def n(self) -> int:
        return len(self.mask)

    @property
    def n_cols(self) -> int:
        return len(self.mask[0])

    @property
    def forced_edges(self) -> frozenset[tuple[int, int]]:
        return self._cells(FORCED_EDGE)

    @property
    def forced_non_edges(self) -> frozenset[tuple[int, int]]:
        return self._cells(FORCED_NON_EDGE)

    @property
    def cells(self) -> frozenset[tuple[int, int]]:
        """All fixed cells, polarity ignored."""
        return self.forced_edges | self.forced_non_edges

    def _cells(self, value: int) -> frozenset[tuple[int, int]]:
        return frozenset(
            (i, j) for i, row in enumerate(self.mask) for j, v in enumerate(row) if v == value
        )

    # The row masks, bit j for column j, are the one place a mask row
    # becomes bits.  Built on first use, they stay out of equality and repr.

    @cached_property
    def fixed_masks(self) -> tuple[int, ...]:
        """Each row's fixed cells, both polarities, as a column mask."""
        return _row_masks(self.mask, _FIXED_DIGITS)

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        """Each row's forced edges as a column mask."""
        return _row_masks(self.mask, _EDGE_DIGITS)


@dataclass(frozen=True)
class Instance:
    """A degree sequence together with its fixed-cell mask."""

    degrees: DegreeSequence
    fixed: FixedSet

    def __post_init__(self):
        if (self.degrees.n, self.degrees.n_cols) != (self.fixed.n, self.fixed.n_cols):
            raise InstanceMismatch(
                f"mask is {self.fixed.n}x{self.fixed.n_cols}, "
                f"degrees are {self.degrees.n}x{self.degrees.n_cols}"
            )

    @property
    def n(self) -> int:
        return self.degrees.n

    @property
    def n_cols(self) -> int:
        return self.degrees.n_cols

    @classmethod
    def unconstrained(cls, row_degrees, col_degrees) -> "Instance":
        degs = DegreeSequence(row_degrees, col_degrees)
        return cls(degs, FixedSet.free(degs.n, degs.n_cols))


def mask_digits(masks: Iterable[int], n_cols: int) -> list[str]:
    """Each row mask as its row's binary digits, column 0 first: the digits
    of the mask below a sentinel bit at column n_cols, reversed, with the
    sentinel dropped.  Joined, the rows read the grid in row-major order."""
    top = 1 << n_cols
    return [format(m | top, "b")[:0:-1] for m in masks]


def check_masks(instance: Instance, masks: Sequence[int]) -> list[str]:
    """The digit rows (``mask_digits``) of the state whose row i has column
    j iff bit j of ``masks[i]`` is set, after checking that it realizes the
    instance: one mask per row, none with a bit at or past n_cols, the row
    sums (by ``int.bit_count``), the column sums (over the digit rows) and
    the fixed cells (each row's fixed cells carry its forced edges).

    These are the degree and pin rules of every ``Realization``.  Each is
    one C-level pass; only a failing rule looks for its first bad row,
    column or cell, and raises ``InstanceMismatch`` or ``ValueError``."""
    n, nc = instance.n, instance.n_cols
    if len(masks) != n or min(masks) < 0 or max(masks) >> nc:
        raise InstanceMismatch("matrix dimensions do not match the instance")
    a, b = instance.degrees.row_degrees, instance.degrees.col_degrees
    sums = tuple(map(int.bit_count, masks))
    if sums != a:
        i = next(i for i in range(n) if sums[i] != a[i])
        raise ValueError(f"row {i} has sum {sums[i]}, expected {a[i]}")
    digits = mask_digits(masks, nc)
    cells = "".join(digits)
    sums = tuple([cells[j::nc].count("1") for j in range(nc)])
    if sums != b:
        j = next(j for j in range(nc) if sums[j] != b[j])
        raise ValueError(f"column {j} has sum {sums[j]}, expected {b[j]}")
    fixed, edges = instance.fixed.fixed_masks, instance.fixed.edge_masks
    if tuple(map(int.__and__, masks, fixed)) != edges:
        i, bad = next(
            (i, (m ^ e) & f) for i, (m, f, e) in enumerate(zip(masks, fixed, edges))
            if (m ^ e) & f
        )
        low = bad & -bad
        j = low.bit_length() - 1
        if edges[i] & low:
            raise ValueError(f"forced edge ({i}, {j}) is absent")
        raise ValueError(f"forced non-edge ({i}, {j}) is present")
    return digits


class Realization:
    """A 0/1 matrix realizing an instance, held as its row masks.

    ``masks`` has one int per row, bit j set when the row has column j:
    the value a ``Chain`` starts from and ``Chain.keys()`` yields.  Every
    constructor ends in ``check_masks``, so a ``Realization`` always
    realizes its instance.  ``Realization(instance, matrix)`` first checks
    the grid's shape and 0/1 values, ``from_rows`` that each column lies in
    the grid; ``from_masks`` is the check alone.  ``matrix`` (a tuple of
    int tuples) and ``rows`` (a tuple of column frozensets) are derived
    from the masks on first use.
    """

    __slots__ = ("instance", "masks", "_matrix", "_rows")

    def __init__(self, instance: Instance, matrix: Sequence[Sequence[int]]):
        # The shape and the 0/1 values are checked on the grid, each in one
        # C-level pass; only a failing check scans cell by cell, to name the
        # first bad cell.
        grid = tuple(map(_cell_values, matrix))
        if len(grid) != instance.n or set(map(len, grid)) != {instance.n_cols}:
            raise InstanceMismatch("matrix dimensions do not match the instance")
        if not _BITS.issuperset(chain.from_iterable(grid)):
            for i, row in enumerate(grid):
                for j, v in enumerate(row):
                    if v not in _BITS:
                        raise ValueError(f"matrix cell ({i}, {j}) is {v!r}, not 0/1")
        self._store(instance, _row_masks(grid, _CELL_DIGITS))

    def _store(self, instance: Instance, masks: tuple[int, ...]) -> None:
        check_masks(instance, masks)
        self.instance = instance
        self.masks = masks
        self._matrix = self._rows = None

    @classmethod
    def from_rows(cls, instance: Instance, rows: Sequence[Iterable[int]]) -> "Realization":
        """The realization whose row i has the columns ``rows[i]``."""
        n, nc = instance.n, instance.n_cols
        masks = [0] * n
        for i, cols in enumerate(rows):
            for j in cols:
                _check_cell(i, j, n, nc)
                masks[i] |= 1 << j
        return cls.from_masks(instance, masks)

    @classmethod
    def from_masks(cls, instance: Instance, masks: Iterable[int]) -> "Realization":
        """The realization whose row i has column j iff bit j of the i-th
        mask is set, checked by ``check_masks``."""
        g = cls.__new__(cls)
        g._store(instance, tuple(masks))
        return g

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        if self._matrix is None:
            digits = mask_digits(self.masks, self.instance.n_cols)
            self._matrix = tuple(tuple(d.encode().translate(_DIGIT_VALUES)) for d in digits)
        return self._matrix

    @property
    def rows(self) -> tuple[frozenset[int], ...]:
        if self._rows is None:
            cols = range(self.instance.n_cols)
            self._rows = tuple(frozenset(compress(cols, row)) for row in self.matrix)
        return self._rows

    def __eq__(self, other):
        return (
            isinstance(other, Realization)
            and self.masks == other.masks
            and self.instance == other.instance
        )

    # The instance, costly to hash, stays out of the hash.
    def __hash__(self):
        return hash(self.masks)

    def __repr__(self):
        return f"Realization({'/'.join(mask_digits(self.masks, self.instance.n_cols))})"


@dataclass(frozen=True)
class MoveSet:
    """Which moves a chain or state-graph construction may use."""

    kind: str
    limit: int | None = None

    SWAPS4 = "swaps4"
    SWAPS_UP_TO = "swaps_up_to"
    TRADES = "trades"
    TRADES_PLUS_CIRCLE = "trades_plus_circle"

    def __post_init__(self):
        kinds = (
            self.SWAPS4,
            self.SWAPS_UP_TO,
            self.TRADES,
            self.TRADES_PLUS_CIRCLE,
        )
        if self.kind not in kinds:
            raise ValueError(f"unknown move-set kind {self.kind!r}")
        if self.kind == self.SWAPS_UP_TO:
            # bool is an int subclass; a float limit would compare equal to
            # the int one yet fail in the chains and the oracle.
            limit = self.limit
            if (not isinstance(limit, int) or isinstance(limit, bool)
                    or limit % 2 or limit < 4):
                raise ValueError("swap length limit must be an even integer >= 4")
        elif self.limit is not None:
            raise ValueError(f"{self.kind} takes no length limit")

    @classmethod
    def swaps4(cls) -> "MoveSet":
        return cls(cls.SWAPS4)

    @classmethod
    def swaps_up_to(cls, limit: int) -> "MoveSet":
        return cls(cls.SWAPS_UP_TO, limit)

    @classmethod
    def trades(cls) -> "MoveSet":
        return cls(cls.TRADES)

    @classmethod
    def trades_plus_circle(cls) -> "MoveSet":
        return cls(cls.TRADES_PLUS_CIRCLE)

    def swap_lengths(self) -> frozenset[int]:
        """Cycle-swap lengths this move set admits (empty for pure trade sets)."""
        if self.kind == self.SWAPS4:
            return frozenset({4})
        if self.kind == self.SWAPS_UP_TO:
            return frozenset(range(4, self.limit + 1, 2))
        return frozenset()

    def __str__(self):
        if self.kind == self.SWAPS_UP_TO:
            return f"swaps<={self.limit}"
        return self.kind
