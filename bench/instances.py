"""Seeded generator of the benchmark's instance set.

Every instance is built from a random 0/1 matrix: its margins become the
degree sequence and the pinned cells take the matrix's value, so every
instance is feasible by construction.  Each instance draws from its own
``random.Random`` seeded with ``"<set seed>:<name>"``, so the set is
reproduced byte for byte from the set seed, whatever the order of the
table below.  The module uses the standard library only.

    python3 bench/instances.py            # check the committed set
    python3 bench/instances.py --write    # rewrite it from SET_SEED
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
INSTANCE_DIR = os.path.join(HERE, "instances")

# The instance set is pinned: runs with different --seed draw different job
# streams over the same instances, so their cost distributions match.
SET_SEED = 1608

# Fixed instances: the README library example (4x4, diagonal non-edges), the
# README instance file (4x3) and the 2x2 instance of acceptance criterion 10.
FIXED = {
    "pinned_readme_4x4": (
        "rows: 4\ncols: 4\nrow_degrees: 2 2 2 2\ncol_degrees: 2 2 2 2\n"
        "mask:\n0***\n*0**\n**0*\n***0\n"
    ),
    "pinned_readme_4x3": (
        "rows: 4\ncols: 3\nrow_degrees: 1 1 1 1\ncol_degrees: 2 1 1\n"
        "mask:\n0**\n*0*\n**0\n*0*\n"
    ),
    "pinned_crit10_2x2": (
        "rows: 2\ncols: 2\nrow_degrees: 1 1\ncol_degrees: 1 1\nmask:\n**\n**\n"
    ),
}

SMALL_COUNT = 55
SPARSE = [(20, "a"), (25, "a"), (30, "a"), (30, "b"), (35, "a"), (40, "a")]
# Dense fixed sets: four draws each of |F| = 40, 42 and 44 on 10x10, 11x11
# and 12x12.  At the seed commit the exact-length cycle cascade takes
# 0.01-2.2 s on them and its mean doubles with every two more pinned cells;
# with 36 of them in the deck they hold the analyze p90.
DENSE = [(n, k, v) for n in (10, 11, 12) for k in (40, 42, 44) for v in range(4)]
FREE = [(30, "a"), (100, "a"), (100, "b")]

# Known-unbounded input: the cascade on this 14x14 fixed set with |F| = 70
# did not finish within 120 s at the seed commit, so no timed job can use
# it.  It is written with the set and listed in the manifest as not run.
UNBOUNDED = [(14, 70, 0)]


def _matrix(rng: random.Random, n: int, nc: int, density: float) -> list[list[int]]:
    return [[1 if rng.random() < density else 0 for _ in range(nc)] for _ in range(n)]


def _text(matrix: list[list[int]], pins) -> str:
    n, nc = len(matrix), len(matrix[0])
    mask = [["*"] * nc for _ in range(n)]
    for i, j in pins:
        mask[i][j] = str(matrix[i][j])
    lines = [
        f"rows: {n}",
        f"cols: {nc}",
        "row_degrees: " + " ".join(str(sum(row)) for row in matrix),
        "col_degrees: " + " ".join(
            str(sum(matrix[i][j] for i in range(n))) for j in range(nc)
        ),
        "mask:",
    ]
    lines.extend("".join(row) for row in mask)
    return "\n".join(lines) + "\n"


def _pinned(name: str, n: int, nc: int, density: float, k: int) -> str:
    rng = random.Random(f"{SET_SEED}:{name}")
    matrix = _matrix(rng, n, nc, density)
    cells = [(i, j) for i in range(n) for j in range(nc)]
    return _text(matrix, rng.sample(cells, k))


def generate() -> tuple[dict[str, str], dict]:
    """The instance files (name -> text) and the manifest."""
    files: dict[str, str] = {}
    entries = []

    def add(name, kind, text, run=True, why=None):
        files[name] = text
        entry = {"name": name, "kind": kind, "run": run}
        if why:
            entry["why"] = why
        entries.append(entry)

    for name, text in FIXED.items():
        add(name, "pinned", text)
    size_rng = random.Random(f"{SET_SEED}:small-sizes")
    for idx in range(SMALL_COUNT):
        n, nc = size_rng.randint(3, 6), size_rng.randint(3, 6)
        k = size_rng.randint(1, (n * nc) // 3)
        name = f"small_{idx:02d}_{n}x{nc}"
        add(name, "pinned", _pinned(name, n, nc, 0.5, k))
    for n, tag in SPARSE:
        name = f"sparse_{n}x{n}_{tag}"
        add(name, "sparse-F", _pinned(name, n, n, 0.3, n // 2))
    for n, k, variant in DENSE:
        name = f"dense_{n}x{n}_f{k}_v{variant}"
        add(name, "dense-F", _pinned(name, n, n, 0.5, k))
    for n, tag in FREE:
        name = f"free_{n}x{n}_{tag}"
        add(name, "free", _pinned(name, n, n, 0.3, 0))
    for n, k, variant in UNBOUNDED:
        name = f"dense_{n}x{n}_f{k}_v{variant}"
        add(
            name, "dense-F", _pinned(name, n, n, 0.5, k), run=False,
            why="the cycle cascade did not finish within 120 s at the seed "
            "commit; listed as a known-unbounded input, never timed",
        )
    manifest = {"set_seed": SET_SEED, "instances": entries}
    return files, manifest


def manifest_text(manifest: dict) -> str:
    return json.dumps(manifest, indent=1, sort_keys=True) + "\n"


def mismatches() -> list[str]:
    """Names of committed files that differ from a fresh generation."""
    files, manifest = generate()
    files = dict(files, MANIFEST=manifest_text(manifest))
    bad = []
    for name, text in files.items():
        path = os.path.join(INSTANCE_DIR, f"{name}.{'json' if name == 'MANIFEST' else 'txt'}")
        try:
            with open(path, encoding="utf-8") as fh:
                if fh.read() != text:
                    bad.append(name)
        except FileNotFoundError:
            bad.append(name)
    return bad


def write() -> None:
    files, manifest = generate()
    os.makedirs(INSTANCE_DIR, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(INSTANCE_DIR, f"{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write(text)
    with open(os.path.join(INSTANCE_DIR, "MANIFEST.json"), "w", encoding="utf-8") as fh:
        fh.write(manifest_text(manifest))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="write the set instead of checking it")
    args = parser.parse_args(argv)
    if args.write:
        write()
        return 0
    bad = mismatches()
    for name in bad:
        print(f"differs from the generator: {name}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
