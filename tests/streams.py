"""The pinned random streams: sha256 digests of seeded ``Chain.keys()``
streams, of the start realization every chain begins from, of the bytes
``bipsample sample`` writes and of those ``bipsample enumerate --list``
writes, computed with the standard library and bipsample alone.

The tier-1 tests check every digest under pytest.  Run as a script from
a checkout, ``python tests/streams.py`` recomputes them all, prints one
line per stream and exits 1 on any mismatch, so an interpreter without
pytest or scipy can still check that it reproduces the streams.
"""

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import bipsample as bp  # noqa: E402
from bipsample import cli  # noqa: E402
from bipsample.core import MoveSet  # noqa: E402

INSTANCES = Path(__file__).resolve().parents[1] / "bench" / "instances"


def cols(mask):
    """The column indices set in a row mask, ascending."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def readme_4x4():
    """The README's pinned instance: all degrees 2, the diagonal pinned to 0."""
    return bp.Instance(
        bp.DegreeSequence((2, 2, 2, 2), (2, 2, 2, 2)),
        bp.FixedSet.from_cells(4, 4, forced_non_edges=[(0, 0), (1, 1), (2, 2), (3, 3)]),
    )


def circle_instance():
    """The circle-trade worked example: a 3x6 state with its diagonal pinned
    to 0."""
    matrix = [[0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 1, 0], [1, 0, 0, 0, 0, 1]]
    a = [sum(r) for r in matrix]
    b = [sum(matrix[i][j] for i in range(3)) for j in range(6)]
    fixed = bp.FixedSet.from_cells(3, 6, forced_non_edges=[(0, 0), (1, 1), (2, 2)])
    inst = bp.Instance(bp.DegreeSequence(a, b), fixed)
    return bp.Realization(inst, matrix)


def random_pinned_instance(rng, n, nc, density, n_pinned):
    """A feasible instance: degrees and pin polarities from a random matrix."""
    matrix = [[int(rng.random() < density) for _ in range(nc)] for _ in range(n)]
    cells = rng.sample([(i, j) for i in range(n) for j in range(nc)], n_pinned)
    return bp.Instance(
        bp.DegreeSequence(
            [sum(row) for row in matrix],
            [sum(row[j] for row in matrix) for j in range(nc)],
        ),
        bp.FixedSet.from_cells(
            n, nc,
            forced_edges=[c for c in cells if matrix[c[0]][c[1]]],
            forced_non_edges=[c for c in cells if not matrix[c[0]][c[1]]],
        ),
    )


STREAM_INSTANCES = {
    "free_6x6": lambda: bp.Instance.unconstrained((3, 3, 2, 2, 4, 2), (2, 3, 2, 2, 5, 2)),
    "readme_4x4": readme_4x4,
    "circle_3x6": lambda: circle_instance().instance,
    # Walks of up to 12 rows under cycle:24.
    "pinned_12x12": lambda: random_pinned_instance(random.Random(12), 12, 12, 0.5, 20),
    # Circle difference sets of about 7 free columns.
    "pinned_30x30": lambda: random_pinned_instance(random.Random(30), 30, 30, 0.5, 90),
    # The widest grid whose trades read subsets from the rank table, and the
    # narrowest that walks.
    "pinned_6x8": lambda: random_pinned_instance(random.Random(8), 6, 8, 0.5, 12),
    "pinned_6x9": lambda: random_pinned_instance(random.Random(9), 6, 9, 0.5, 12),
    # Pools of hundreds of columns, some of whose subsets walk their rank;
    # its digests were recorded while grids past 512 columns had a walk of
    # their own, and pin that the one walk gives the same subsets.
    "pinned_4x520": lambda: random_pinned_instance(random.Random(520), 4, 520, 0.5, 40),
}

STREAM_CHAINS = {
    "trades": (MoveSet.trades(), True),
    "swaps4": (MoveSet.swaps4(), True),
    "trades+circle": (MoveSet.trades_plus_circle(), True),
    "trades+circle/mh-off": (MoveSet.trades_plus_circle(), False),
    "swaps46": (MoveSet.swaps_up_to(6), True),
    "cycle:8": (MoveSet.swaps_up_to(8), True),
    "cycle:24": (MoveSet.swaps_up_to(24), True),
}

# sha256 of the Chain.keys() streams (500 steps, gap 1, seeds 0, 7 and
# 2024).  The seven of swaps46, cycle:8 and cycle:24 were recorded when
# cycle swaps began to draw their walks cell by cell, and the five of the
# trade kinds on grids wider than 8 columns (pinned_30x30, pinned_6x9 and
# pinned_4x520) when those grids began to draw a circle trade's pivot
# subset as one masked word and their other subsets from AND-ed masks of
# density 1/2, 1/4 or 1/8.  Of the others, the first 12 were recorded before the
# in-place step kernels replaced the proposal objects, and the two on
# pinned_6x8 before grids of at most 8 columns read their subsets from a
# rank table.  A change here changes seeded output.
GOLDEN_STREAMS = {
    ("free_6x6", "trades"): "021706eed802b6b2bf3702c912d798d5ded0a74addb32d69bf24f56f2ea4add5",
    ("free_6x6", "swaps4"): "32848e7d2c971592d9b2841be774df49a28a5dc7a7ca7361a49046d68bcb3c15",
    ("free_6x6", "trades+circle"): "667553158fe9b0a23f8786587b196080e00a1755a1466d98db78cfdffe6ddad6",
    ("free_6x6", "trades+circle/mh-off"): "908801577ff15955de6bc939e299208c551ec0d7d8910f2d28114b9ba9fdbf3e",
    ("free_6x6", "swaps46"): "2da1846bb0f55b5b2f914b18597441ba0c7f5ceebb3a03a579236ddaecdbded6",
    ("free_6x6", "cycle:8"): "ff6caf5911c8961711b0e5f72a0d91428642ea1fd0527735f9af09fd79d1416d",
    ("readme_4x4", "trades"): "167641cae7bfe4244084ea97d1fd37c8b9e878f01208f36312c0b6125f002a05",
    ("readme_4x4", "swaps4"): "761ea0f22cfa63533d570edc672c9e778b5935f726bb15a3e328a8b7d58d9283",
    ("readme_4x4", "trades+circle"): "907b1896c885a1a4c5eda4bc0115c135e87e748b3230ac43052f4b439a996511",
    ("readme_4x4", "trades+circle/mh-off"): "907b1896c885a1a4c5eda4bc0115c135e87e748b3230ac43052f4b439a996511",
    ("readme_4x4", "swaps46"): "ec0558c7d55c5cf704dc0b77b248af49bbd8cf8d0d854bfeba7f4ead0264133f",
    ("readme_4x4", "cycle:8"): "db4ef48a879552b4d630a1a0957f2ae74e5036c7afe6756a74376d1cfa88a8f6",
    ("circle_3x6", "trades"): "9ed032c15a4380cc403cf0310c0d8a027c8516d173d410e610425d1c78b1c8e8",
    ("circle_3x6", "swaps4"): "9e685b11527cb2dba7998452daea931a8eeb14917de1b5c955cca34d68bcfdee",
    ("circle_3x6", "trades+circle"): "465763e22fb7f094ba22f32fbfacf22322807ce19cbd3b920c3e0f922dd3d909",
    ("circle_3x6", "trades+circle/mh-off"): "83a84d4ebab10739ec5893e7fedc1a5a357252cdec5e1b8c1cb80b22638f7608",
    ("circle_3x6", "swaps46"): "1297d087744f353a7a7d3fd52448d673b6a69d587106409403c1b0f199e413ef",
    ("circle_3x6", "cycle:8"): "5bf2702d728b7b6cabadb987e2090abd5a3a9260d4a418b68c4f1fbb8ec41ea3",
    ("pinned_12x12", "cycle:24"): "e14ccbb4278025f61c95a6fd40f023f8ab048c1a5c7a8d67417162e7820c5f0e",
    ("pinned_30x30", "trades+circle"): "4c303ed1ee96518c323edffd22222fb8e1db32af22cd2f38d1a2980c6a75eea5",
    ("pinned_30x30", "trades+circle/mh-off"): "80f4ad394c33157d4bede77519042fa0fb3370af184179db5b0898f35ae8b1d1",
    ("pinned_6x8", "trades"): "973d119b2707b313947ebca9b7cd0a75e04a2234bb36a93378cea3a12ea78a76",
    ("pinned_6x8", "trades+circle"): "ee767016681d6b97f8051fd331af9612607567ce93a2efcf12513c012ae557b9",
    ("pinned_6x9", "trades"): "28dab5a62b82ec41787c6f5c943233ce89779b3492112292532a124e6e94075e",
    ("pinned_6x9", "trades+circle"): "8714f40de6ebddd3946985aaa634328abcb346c94e44b94c111813aa432c7a3b",
    ("pinned_4x520", "trades+circle"): "b1dbf66abe56702d04f7ca433d8b4bc3db42341ff1b2f6896d2dabc8738339c0",
}


def stream_digest(instance, chain):
    """The sha256 of the named chain's key streams on the named instance:
    one text line per kept state, its rows' columns."""
    inst = STREAM_INSTANCES[instance]()
    move_set, mh = STREAM_CHAINS[chain]
    h = hashlib.sha256()
    for seed in (0, 7, 2024):
        cfg = bp.ChainConfig(move_set, steps=500, seed=seed, mh_correction=mh)
        for key in bp.Chain(bp.initial_realization(inst), cfg).keys():
            line = "|".join(",".join(map(str, cols(r))) for r in key)
            h.update(f"{line}\n".encode())
    return h.hexdigest()


# sha256 of the start realization of every committed instance, recorded
# before the max-flow moved onto bit masks.  Every chain starts here, so a
# change here changes seeded output.
GOLDEN_START = "e035a3844b61b7e91813dfeff1571573c03270d41398329620c35fc052eafd49"


def start_digest():
    """The sha256 of ``initial_realization`` on every committed instance, in
    file-name order: the name, then the realization's text or the
    ``Infeasible`` message."""
    h = hashlib.sha256()
    for path in sorted(INSTANCES.glob("*.txt")):
        inst = cli.parse_instance(path.read_text())
        try:
            text = cli.format_realization(bp.initial_realization(inst))
        except bp.Infeasible as exc:
            text = f"infeasible: {exc}\n"
        h.update(f"{path.name}\n{text}".encode())
    return h.hexdigest()


# The (instance, chain) pairs of the benchmark's sample deck, each run for
# three samples at a gap above 1, and the circle-trade ones again with the
# Metropolis correction off: the trade kinds on grids of at most 8 columns
# and the swap chain, then the trade kinds on wider grids (``auto`` picks
# trades+circle on both sparse 30x30s), then the cycle-swap one.
SAMPLE_RUNS = [
    ("pinned_readme_4x4", "auto", "on"),
    ("pinned_readme_4x4", "auto", "off"),
    ("pinned_crit10_2x2", "curveball", "on"),
    ("free_30x30_a", "swap", "on"),
]
WIDE_TRADE_SAMPLE_RUNS = [
    ("sparse_30x30_a", "auto", "on"),
    ("sparse_30x30_b", "auto", "on"),
    ("free_100x100_a", "curveball", "on"),
    ("free_100x100_b", "circle", "on"),
    ("free_100x100_b", "circle", "off"),
]
CYCLE_SAMPLE_RUNS = [
    ("free_30x30_a", "cycle:8", "on"),
]

# sha256 of ``sample_digest(SAMPLE_RUNS)``, computed before wide grids
# drew their trade subsets by masked random bits; those four runs' bytes
# are the ones written before ``sample --count`` moved onto one restarted
# chain.  A change here changes the bytes users get.
GOLDEN_SAMPLE = "7630cdf6033ba88fd811b8bf22a95f2562940bc5703b3f2a55279502e9fa6bee"

# sha256 of ``sample_digest(WIDE_TRADE_SAMPLE_RUNS)``, recorded when wide
# grids began to draw a circle trade's pivot subset as one masked word and
# their other trade subsets from AND-ed masks.  A change here changes the
# bytes users get.
GOLDEN_WIDE_TRADE_SAMPLE = "cdd3a680e90424c86cbb65e80f34a95a0edf2aea72626f65c54a0085c79d2c1d"

# sha256 of ``sample_digest(CYCLE_SAMPLE_RUNS)``, recorded when cycle swaps
# began to draw their walks cell by cell.  A change here changes the bytes
# users get.
GOLDEN_CYCLE_SAMPLE = "03289ba93a9084639899c296233f0da571cd805839053574fd6c3b6cb8929988"


def sample_digest(runs):
    """The sha256 of what ``bipsample sample`` writes to stdout for every
    (instance, chain, mh) of ``runs`` (50 steps, gap 7, three samples,
    seed 11): the arguments and exit code, then the bytes."""
    h = hashlib.sha256()
    for instance, chain, mh in runs:
        argv = ["sample", str(INSTANCES / f"{instance}.txt"), "--chain", chain,
                "--mh", mh, "--steps", "50", "--gap", "7", "--count", "3",
                "--seed", "11"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        h.update(f"{instance} {chain} mh {mh}: {code}\n{out.getvalue()}".encode())
    return h.hexdigest()


# sha256 of ``enumerate_digest()``, recorded while a state int still held
# cell (i, j) at bit n*nc - 1 - (i*nc + j).  A change here changes the
# bytes users get.
GOLDEN_ENUMERATE = "19103239e10d34b46884b0c9a1a4319e6e5d465523833ad2565f5261524afa51"


def enumerate_digest():
    """The sha256 of what ``bipsample enumerate --list`` writes to stdout
    for every committed instance, in file-name order: the name and exit
    code, then the bytes (the count alone past the enumeration guard)."""
    h = hashlib.sha256()
    for path in sorted(INSTANCES.glob("*.txt")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["enumerate", "--list", str(path)])
        h.update(f"{path.name}: {code}\n{out.getvalue()}".encode())
    return h.hexdigest()


def main():
    """Recompute every pinned digest; 0 when all match, 1 otherwise."""
    got = start_digest()
    mismatches = int(got != GOLDEN_START)
    print(f"{'MISMATCH' if mismatches else 'ok      '} start realizations {got}")
    for label, runs, golden in (("sample output", SAMPLE_RUNS, GOLDEN_SAMPLE),
                                ("wide trade sample output", WIDE_TRADE_SAMPLE_RUNS,
                                 GOLDEN_WIDE_TRADE_SAMPLE),
                                ("cycle sample output", CYCLE_SAMPLE_RUNS,
                                 GOLDEN_CYCLE_SAMPLE)):
        got = sample_digest(runs)
        ok = got == golden
        mismatches += not ok
        print(f"{'ok      ' if ok else 'MISMATCH'} {label} {got}")
    got = enumerate_digest()
    ok = got == GOLDEN_ENUMERATE
    mismatches += not ok
    print(f"{'ok      ' if ok else 'MISMATCH'} enumerate output {got}")
    for instance, chain in sorted(GOLDEN_STREAMS):
        got = stream_digest(instance, chain)
        ok = got == GOLDEN_STREAMS[instance, chain]
        mismatches += not ok
        print(f"{'ok      ' if ok else 'MISMATCH'} {instance} {chain} {got}")
    version = sys.version.split()[0]
    total = len(GOLDEN_STREAMS) + 5
    print(f"{total - mismatches} of {total} digests match "
          f"on Python {version}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
