"""Record the benchmark's expected outputs into bench/expected.json.

    python3 bench/record.py

Run it once at the commit whose outputs are the reference.  It records, for
every timed analyze instance, the exit code, the stdout of ``bipsample
analyze`` and the recommended move set; the sweep counts per check for the
pinned pool seed (and, for reference only, for the library default seed 0);
and the digest of the reference sample jobs' bytes.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import instances  # noqa: E402
import workloads as wl  # noqa: E402
from bipsample import oracle  # noqa: E402
from spans import NULL  # noqa: E402


def _pool(rows: int, cols: int, count: int, seed: int) -> dict:
    result = oracle.run_verification(rows, cols, count, seed=seed, quiet=True)
    return {
        "seed": seed, "max_rows": rows, "max_cols": cols, "random_count": count,
        "passed": result.passed, "checks_run": result.checks_run,
        "info_lines": len(result.info_lines), "counts": dict(sorted(result.counts.items())),
    }


def main() -> int:
    _, manifest = instances.generate()
    analyze_expected = {}
    for entry in manifest["instances"]:
        if not entry["run"] or entry["kind"] == "free":
            continue
        name = entry["name"]
        _, code, out = wl.run_cli(["analyze", wl.instance_path(name)])
        move_set = wl.analyze_direct(wl.Job("analyze", name), NULL)
        analyze_expected[name] = {"code": code, "stdout": out, "move_set": move_set}
        print(f"recorded analyze {name}", file=sys.stderr)

    outputs = []
    for job in wl.reference_jobs():
        _, code, out = wl.run_cli(job.argv())
        assert code == 0 and wl.sample_output_ok(job, out), job
        outputs.append(out)

    expected = {
        "analyze": analyze_expected,
        "pool": _pool(*wl.FULL.pool, wl.POOL_SEED),
        "pool_library_default_seed": _pool(*wl.FULL.pool, 0),
        "smoke_pool": _pool(*wl.SMOKE.pool, wl.POOL_SEED),
        "sample_reference": {"seed": wl.REFERENCE_SEED, "digest": wl.stream_digest(outputs)},
    }
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
