"""The traced run: per-layer numbers for one workload.

Two parts.  The traced path replays the workload's deck through direct
layer calls, alternating an untraced pass and a traced pass, which gives
each layer's self time along the path and the tracing overhead.  The start
and the snapshots that ``chains.run`` builds inside one call are re-timed on
the same inputs and charged to ``realizability`` and ``core``.  The probes
then time each layer's public functions directly on the benchmark's own
instances.  Probe results do not depend on the workload, except the
oracle's: only verify probes it on the full pool.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

from bipsample import chains, cli, oracle
from bipsample.analysis import (
    FGraph,
    analyze,
    has_cycle_of_length,
    is_forest,
    max_matching_at_least,
)
from bipsample.core import MoveSet, NoUsableBound, Realization
from bipsample.realizability import (
    gale_ryser_realizable,
    initial_realization,
    partition_fixed_set,
    static_set,
)

import workloads as wl
from spans import LAYERS, NULL

SRC = os.path.join(os.path.dirname(wl.HERE), "src")

# Instances the probes use, by grid label.
GRIDS = {"4x4": "pinned_readme_4x4", "30x30": "free_30x30_a", "100x100": "free_100x100_a"}
STATIC_SET_GRIDS = {"4x4": "pinned_readme_4x4", "20x20": "sparse_20x20_a",
                    "30x30": "sparse_30x30_a"}
INIT_GRIDS = {"4x4": "pinned_readme_4x4", "30x30": "sparse_30x30_a",
              "100x100": "free_100x100_a"}
SNAPSHOT_GRIDS = {"4x4": "pinned_readme_4x4", "30x30": "sparse_30x30_a",
                  "100x100": "free_100x100_a"}
DENSE_PROBE = "dense_12x12_f40_v1"
# Metric label -> CLI chain name.
CHAIN_KINDS = {"trades": "curveball", "circle": "circle", "swap": "swap", "cycle8": "cycle:8"}
# Chain steps per step probe, relative to the scale's per-grid count, so
# that every probe runs for a similar time.
STEP_WEIGHT = {("100x100", "circle"): 0.5, ("100x100", "swap"): 2, ("100x100", "cycle8"): 4}


def _median_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _load(name: str):
    return cli.parse_instance(wl.read_instance(name))


# ---------------------------------------------------------------------------
# Traced path.


def traced_path(workload, rng, seconds, scale, tally, tr) -> tuple[dict, tuple | None]:
    """Replay the deck untraced then traced, in pairs of passes, for about
    ``seconds``; returns the path metrics and, on verify, the last untraced
    sweep as (seconds, result)."""
    expected = wl.load_expected()

    def timed(fn, *args):
        t0 = wl.fresh_start()
        out = fn(*args)
        return wl.elapsed(t0), out

    def charge(t, inst, runs) -> float:
        """Charge each ``chains.run`` its start and its snapshots, re-timed on
        the same inputs; returns the snapshots' seconds."""
        if t is not tr:
            return 0.0
        snapshot_s = 0.0
        for idx, samples in runs:
            t.retime(idx, "realizability.initial_realization",
                     lambda: initial_realization(inst))
            snapshot_s += t.retime(
                idx, "core.Realization.from_rows",
                lambda: [Realization.from_rows(inst, g.rows) for g in samples])
        return snapshot_s

    # Each op returns (seconds of the calls alone, output ok, kept states).
    if workload == "analyze":
        deck = wl.analyze_deck(rng, scale)

        def op(job, t):
            dt, got = timed(wl.analyze_direct, job, t)
            return dt, got == expected["analyze"][job.instance]["move_set"], 0

    elif workload == "sample":
        deck = wl.sample_deck(rng, scale)
        first = {}

        def op(job, t):
            dt, (out, inst, runs) = timed(wl.sample_direct, job, t)
            if job in first:
                ok = out == first[job]
            else:
                ok = wl.sample_output_ok(job, out)
                first[job] = out
            snapshot_s = charge(t, inst, runs)
            if job.role == "gap1":
                counts["gap1_snapshot_s"] += snapshot_s
            return dt, ok, sum(len(samples) for _, samples in runs)

    else:
        deck = ["sweep"] + wl.uniformity_round(rng)
        fixtures = wl.criterion8_fixtures()

        def sweep(t):
            with t.span("job.sweep"), t.span("oracle.run_verification"):
                return wl.run_sweep(scale)

        def op(job, t):
            if job == "sweep":
                dt, (sweep_s, result) = timed(sweep, t)
                if t is not tr:
                    untraced_sweep["last"] = (sweep_s, result)
                return dt, wl.sweep_ok(result, expected[scale.pool_key]), 0
            dt, (ok, inst, runs) = timed(wl.uniformity_direct, job, scale, fixtures, t)
            charge(t, inst, runs)
            return dt, ok, len(runs[0][1])

    walls = {"untraced": 0.0, "traced": 0.0}
    counts = {"snapshots": 0, "gap1_snapshot_s": 0.0, "gap1_wall": 0.0}
    untraced_sweep = {}

    def one_pair():
        for mode, t in (("untraced", NULL), ("traced", tr)):
            for job in deck:
                dt, ok, snapshots = op(job, t)
                walls[mode] += dt
                tally.op(ok, None, f"traced {workload} job {job}")
                if mode == "traced":
                    counts["snapshots"] += snapshots
                    if getattr(job, "role", None) == "gap1":
                        counts["gap1_wall"] += dt

    pairs = wl.loop_rounds(seconds, 1, one_pair)
    path_wall = sum(end - start for name, start, end, _ in tr.spans
                    if name.startswith("job."))
    own = tr.layer_self_seconds()
    metrics = {f"path.self_frac.{layer}": (own[layer] / path_wall, "ratio")
               for layer in LAYERS}
    metrics.update({
        "trace.overhead_frac": (walls["traced"] / walls["untraced"] - 1, "ratio"),
        "realizability.static_set_calls": (
            sum(1 for s in tr.spans if s[0] == "realizability.static_set") // pairs,
            "count"),
        "core.snapshots": (counts["snapshots"] // pairs, "count"),
        "path.static_set_analyze_frac": (
            (tr.total("realizability.static_set") + tr.total("analysis.analyze"))
            / path_wall, "ratio"),
        # Share of the gap-1 sample jobs' time that their snapshots take.
        "path.gap1_snapshot_frac": (
            counts["gap1_snapshot_s"] / counts["gap1_wall"] if counts["gap1_wall"]
            else 0.0, "ratio"),
    })
    return metrics, untraced_sweep.get("last")


# ---------------------------------------------------------------------------
# Probes.


def probe_cli(scale) -> dict:
    code = ("import time; t = time.perf_counter(); import bipsample; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    imports = []
    for _ in range(scale.setup_reps):
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        imports.append(float(done.stdout))
    text = wl.read_instance("pinned_readme_4x4")
    g = initial_realization(cli.parse_instance(text))
    reps = 100 * scale.probe_reps
    return {
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.parse_ms": (_median_s(lambda: cli.parse_instance(text), reps) * 1e3, "ms"),
        "cli.format_us": (_median_s(lambda: cli.format_realization(g), reps) * 1e6, "us"),
    }


def probe_realizability(scale) -> dict:
    out = {}
    reps = scale.probe_reps
    for grid, name in STATIC_SET_GRIDS.items():
        degrees = _load(name).degrees
        n = reps * (20 if grid == "4x4" else 1)
        out[f"realizability.static_set_ms.{grid}"] = (
            _median_s(lambda: static_set(degrees), n) * 1e3, "ms")
    for grid, name in INIT_GRIDS.items():
        inst = _load(name)
        n = reps * (20 if grid == "4x4" else 1)
        out[f"realizability.initial_realization_ms.{grid}"] = (
            _median_s(lambda: initial_realization(inst), n) * 1e3, "ms")
    inst = _load("sparse_30x30_a")
    f_prime = static_set(inst.degrees)
    n = 40 * reps
    out["realizability.gale_ryser_us"] = (
        _median_s(lambda: gale_ryser_realizable(inst.degrees), n) * 1e6, "us")
    out["realizability.partition_us"] = (
        _median_s(lambda: partition_fixed_set(inst, f_prime), n) * 1e6, "us")
    return out


def probe_analysis(scale) -> dict:
    """The cascade on one dense-F instance, and each detector on its own.

    The cycle lengths are the ones ``analyze`` tries: 8 for the 8-cycle
    flag, then 2*ell for ell = 4, 5, ... until a length is absent.
    """
    inst = _load(DENSE_PROBE)
    working, _ = partition_fixed_set(inst, static_set(inst.degrees))
    n, nc = inst.n, inst.n_cols
    fg = FGraph.from_cells(n, nc, working.cells)
    lengths = [8]
    for ell in range(4, min(n, nc) + 1):
        lengths.append(2 * ell)
        if not has_cycle_of_length(fg, 2 * ell):
            break

    def cascade():
        try:
            analyze(working, n, nc)
        except NoUsableBound:
            pass

    reps = scale.probe_reps
    return {
        "analysis.analyze_ms": (_median_s(cascade, reps) * 1e3, "ms"),
        "analysis.cycle_search_ms": (_median_s(
            lambda: [has_cycle_of_length(fg, k) for k in lengths], reps) * 1e3, "ms"),
        "analysis.cycle_lengths_tried": (len(lengths), "count"),
        "analysis.matching_us": (
            _median_s(lambda: max_matching_at_least(fg, 3), 20 * reps) * 1e6, "us"),
        "analysis.forest_us": (_median_s(lambda: is_forest(fg), 20 * reps) * 1e6, "us"),
    }


def probe_chains_and_core(scale, seed: int) -> dict:
    """Step cost per move kind and grid, state-changing share per kind, and
    snapshot cost per grid.

    A step costs (run of S steps keeping one sample - run of one step) /
    (S - 1): both runs build one start and one snapshot, so those cancel.
    """
    out = {}
    for grid, name in GRIDS.items():
        inst = _load(name)
        one = chains.ChainConfig(MoveSet.trades(), 1, seed)
        base = _median_s(lambda: chains.run(inst, one), scale.probe_reps)
        for kind, chain in CHAIN_KINDS.items():
            steps = int(scale.probe_steps[grid] * STEP_WEIGHT.get((grid, kind), 1))
            cfg = chains.ChainConfig(wl.MOVE_SETS[chain](), steps, seed, sample_gap=steps)
            t0 = perf_counter()
            chains.run(inst, cfg)
            run_s = perf_counter() - t0
            out[f"chains.step_us.{kind}.{grid}"] = (
                (run_s - base) / (steps - 1) * 1e6, "us")

    for grid, name in SNAPSHOT_GRIDS.items():
        inst = _load(name)
        state = chains.run(inst, chains.ChainConfig(MoveSet.trades(), 200, seed, 200))[-1]
        rows = [set(r) for r in state.rows]
        reps = scale.probe_reps * {"4x4": 100, "30x30": 10, "100x100": 2}[grid]
        out[f"core.snapshot_us.{grid}"] = (
            _median_s(lambda: Realization.from_rows(inst, rows), reps) * 1e6, "us")

    inst = _load(GRIDS["30x30"])
    start = initial_realization(inst).matrix
    for kind, chain in CHAIN_KINDS.items():
        cfg = chains.ChainConfig(wl.MOVE_SETS[chain](), scale.changed_steps, seed,
                                 sample_gap=1)
        prev, changed = start, 0
        for g in chains.run(inst, cfg):
            changed += g.matrix != prev
            prev = g.matrix
        out[f"chains.changed_frac.{kind}"] = (changed / scale.changed_steps, "ratio")
    return out


def probe_oracle(scale, seed: int, tally, sweep=None) -> dict:
    """Enumeration, state graph and uniformity on the criterion-8 fixtures,
    and the sweep of ``scale``'s pool, or ``sweep`` = (seconds, result) when
    the traced path has already run it."""
    fixtures = wl.criterion8_fixtures()
    reps = scale.probe_reps
    enumerate_s = graph_s = uniformity_s = 0.0
    for k, inst in enumerate(fixtures):
        move_set = analyze(inst.fixed, inst.n, inst.n_cols).recommended
        states = oracle.enumerate_realizations(inst)
        enumerate_s += _median_s(lambda: oracle.enumerate_realizations(inst), reps)
        graph_s += _median_s(
            lambda: oracle.check_connectivity(oracle.build_state_graph(states, move_set)),
            reps)
        dt, ok = wl.uniformity_call(wl.UniformityJob(k, seed + k), scale, fixtures)
        uniformity_s += dt
        tally.op(ok, None, f"uniformity probe fixture {k}")

    if sweep is None:
        sweep = wl.run_sweep(scale)
        tally.op(wl.sweep_ok(sweep[1], wl.load_expected()[scale.pool_key]), None,
                 "sweep probe")
    sweep_s, result = sweep
    out = {
        "oracle.enumerate_ms": (enumerate_s * 1e3, "ms"),
        "oracle.state_graph_ms": (graph_s * 1e3, "ms"),
        "oracle.uniformity_s": (uniformity_s, "s"),
        "oracle.sweep_s": (sweep_s, "s"),
        "oracle.checks_run": (result.checks_run, "count"),
        "oracle.info_lines": (len(result.info_lines), "count"),
    }
    # The thirteen checks of the full pool; a smaller pool may skip some.
    for name in sorted(wl.load_expected()["pool"]["counts"]):
        out[f"oracle.checks.{name}"] = (result.counts.get(name, 0), "count")
    return out


def traced_run(workload, rng, seed, seconds, scale, tally, tr) -> dict:
    """The traced path, then every probe, so that every per-layer metric is
    reported.  Analyze and sample do not use the oracle: they probe it on
    the small smoke pool rather than repeat the full sweep; verify takes
    the sweep numbers from the traced path's untraced sweep."""
    metrics, sweep = traced_path(workload, rng, seconds, scale, tally, tr)
    metrics.update(probe_cli(scale))
    metrics.update(probe_realizability(scale))
    metrics.update(probe_analysis(scale))
    metrics.update(probe_chains_and_core(scale, seed))
    if workload == "verify":
        metrics.update(probe_oracle(scale, seed, tally, sweep))
    else:
        metrics.update(probe_oracle(wl.SMOKE, seed, tally))
    return metrics
