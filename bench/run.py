"""Benchmark of bipsample: three closed-loop workloads, one caller each.

    python3 bench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md):

  analyze  a seeded stream of ``bipsample analyze`` calls over the instance set
  sample   a seeded stream of ``bipsample sample`` calls, four kinds of job
  verify   the pinned verification sweep, then uniformity reports

Every output is checked.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  The lines before it give the environment and every metric
under its workload's own name.  Results and spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("analyze", "sample", "verify")

# The end-to-end metrics every workload reports, and the workload's own
# metric behind each.  work_per_s counts analyze calls, sample chain steps
# or verify sweep checks per second.
E2E = {
    "analyze": {"p50_ms": "analyze.p50_ms", "p90_ms": "analyze.p90_ms",
                "work_per_s": "analyze.calls_per_s"},
    "sample": {"p50_ms": "sample.p50_ms", "p90_ms": "sample.p90_ms",
               "work_per_s": "sample.steps_per_s"},
    "verify": {"p50_ms": "verify.p50_ms", "p90_ms": "verify.p90_ms",
               "work_per_s": "verify.checks_per_s"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="drives the job stream: order, chain seeds")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure whole decks until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny jobs; for the benchmark's own test")
    parser.add_argument("--setup-only", action="store_true",
                        help="import and load the inputs, then exit (timed by the parent)")
    return parser.parse_args(argv)


def setup_child(args) -> int:
    """The timed set-up: import bipsample and load this run's inputs, with
    the host-speed meter running.  Prints the meter's reading for the parent."""
    from hostspeed import Speedometer

    with Speedometer() as meter:
        import workloads as wl

        scale = wl.SMOKE if args.smoke else wl.FULL
        load_inputs(wl, args.workload, random.Random(f"{args.workload}:{args.seed}"), scale)
    print(json.dumps({"reference_s": meter.reference_s,
                      "factor": meter.factor(0.0, float("inf"))}))
    return 0


def load_inputs(wl, workload, rng, scale):
    """Everything a run needs before its first job: the deck and its parsed
    instances, and the recorded expectations."""
    from bipsample import cli

    wl.load_expected()
    if workload == "verify":
        wl.criterion8_fixtures()
        return wl.uniformity_round(rng)
    deck = (wl.analyze_deck if workload == "analyze" else wl.sample_deck)(rng, scale)
    for name in sorted({job.instance for job in deck}):
        cli.parse_instance(wl.read_instance(name))
    return deck


def measure_setup(args, reps: int) -> tuple[float, float]:
    """Median calibrated and median wall time of a fresh interpreter that
    imports bipsample and loads this run's inputs.  The child runs the
    reference loops on its own core; their time is left out of its wall time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    times, walls = [], []
    for _ in range(reps):
        t0 = perf_counter()
        done = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        wall = perf_counter() - t0
        reading = json.loads(done.stdout.strip().splitlines()[-1])
        walls.append(wall - reading["reference_s"])
        times.append(walls[-1] * reading["factor"])
    return statistics.median(times), statistics.median(walls)


def environment() -> dict:
    import scipy

    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "bipsample", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bipsample", "__init__.py")):
        print(f"bench: no bipsample sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        return setup_child(args)
    import instances
    import workloads as wl

    scale = wl.SMOKE if args.smoke else wl.FULL
    rng = random.Random(f"{args.workload}:{args.seed}")

    env = environment()
    tally = wl.Tally()
    bad = instances.mismatches()
    tally.op(not bad, None, f"instance set differs from the generator: {bad}")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    # The modules loaded so far (bipsample, scipy, the benchmark) live for the
    # whole run.  Freezing them keeps the collection before every timed call
    # (workloads.fresh_start) from walking their 68,000 objects each time,
    # which took 33 ms a call, ten times a small analyze call.
    gc.freeze()

    if args.trace == 0:
        setup_s, setup_wall_s = measure_setup(args, scale.setup_reps)
        if args.workload == "analyze":
            named = wl.run_analyze(load_inputs(wl, "analyze", rng, scale),
                                   args.seconds, tally)
        elif args.workload == "sample":
            named = wl.run_sample(load_inputs(wl, "sample", rng, scale),
                                  args.seconds, tally, scale)
        else:
            named = wl.run_verify(rng, args.seconds, tally, scale)
        named["setup_s"] = (setup_s, "s")
        named["setup_wall_s"] = (setup_wall_s, "s")
        named["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        named[f"{args.workload}.fail_frac"] = (tally.failed / tally.attempted, "ratio")
        metrics = {"setup_s": named["setup_s"], "peak_rss_mb": named["peak_rss_mb"]}
        for name, source in E2E[args.workload].items():
            value, unit = named[source]
            metrics[name] = (value, "1/s" if name == "work_per_s" else unit)
    else:
        import layers
        from spans import Tracer

        tr = Tracer()
        named = layers.traced_run(args.workload, rng, args.seed, args.seconds,
                                  scale, tally, tr)
        tr.write(stem + "-spans.json")
        metrics = named

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print("env: " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in sorted(named.items()):
        print(f"{name} = {value} {unit}")
    for note in tally.notes:
        print(note)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "args": vars(args), "named": named,
                   "notes": tally.notes, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
