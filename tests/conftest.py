import pytest

import bipsample as bp
from bipsample.core import MoveSet

POOL_SEED = 20240801


@pytest.fixture(scope="session")
def pool_result():
    """One sweep of the full verification pool, shared by the acceptance
    criteria that grade slices of it."""
    return bp.run_verification(
        max_rows=5, max_cols=5, random_count=200, seed=POOL_SEED, quiet=True
    )


@pytest.fixture(scope="session")
def criterion8_fixtures():
    """The uniformity criterion's instances, each with its recommended move
    set: (label, instance, move set)."""
    return [
        ("6 states / trades",
         bp.Instance.unconstrained((1, 1, 1), (1, 1, 1)),
         MoveSet.trades()),
        ("24 states / trades",
         bp.Instance.unconstrained((1, 1, 1, 1), (1, 1, 1, 1)),
         MoveSet.trades()),
        ("90 states / trades",
         bp.Instance.unconstrained((2, 2, 2, 2), (2, 2, 2, 2)),
         MoveSet.trades()),
        ("9 states / trades+circle",
         bp.Instance(
             bp.DegreeSequence((2, 2, 2, 2), (2, 2, 2, 2)),
             bp.FixedSet.from_cells(
                 4, 4, forced_non_edges=[(0, 0), (1, 1), (2, 2), (3, 3)]
             ),
         ),
         MoveSet.trades_plus_circle()),
        ("27 states / trades+circle",
         bp.Instance(
             bp.DegreeSequence((2, 2, 2, 2, 2), (3, 3, 2, 2)),
             bp.FixedSet.from_cells(
                 5, 4, forced_non_edges=[(0, 0), (1, 1), (2, 2), (3, 3)]
             ),
         ),
         MoveSet.trades_plus_circle()),
    ]
