"""The three workloads, their job decks and their output checks.

Each workload is a closed loop with one caller: the next job starts when the
previous one has returned.  A run repeats a seeded *deck* of jobs until the
run's time is spent, always finishing the deck in progress, so every run
measures whole decks and its percentiles do not depend on where the clock
stopped.

The end-to-end path calls the package through its public entry points only:
``cli.main`` in-process for analyze and sample, ``run_verification`` and
``uniformity_report`` for verify.  The traced path makes the same calls one
layer at a time (the order ``cli`` makes them), with a span around each.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, replace
from time import perf_counter

import instances
from hostspeed import Speedometer, clock
from bipsample import chains, cli, oracle
from bipsample.analysis import analyze
from bipsample.core import DegreeSequence, FixedSet, Instance, MoveSet, NoUsableBound
from bipsample.realizability import (
    gale_ryser_realizable,
    initial_realization,
    partition_fixed_set,
    static_set,
)

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# The tier-1 pool seed.  The ROADMAP's 389,030 checks belong to this seed;
# the library and CLI default seed 0 gives 389,007 (expected.json keeps both).
POOL_SEED = 20240801
# How often each small pinned instance appears in the analyze deck.  Once
# each, they are 58 of 100 jobs and the p50 sits next to the jump from
# about 5 ms to the 12 ms dense-F jobs, resting on one call per instance;
# three times each puts it in the middle of the small jobs' block.  The p90
# stays among the dense-F and large sparse-F jobs (22nd slowest of 42).
PINNED_REPEATS = 3
# Seed of the reference sample jobs whose output digest tracks the stream.
REFERENCE_SEED = 7
REFERENCE_STEPS = 200

MOVE_SETS = {
    "curveball": MoveSet.trades,
    "circle": MoveSet.trades_plus_circle,
    "swap": MoveSet.swaps4,
    "cycle:8": lambda: MoveSet.swaps_up_to(8),
}


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run; SMOKE shrinks every job for the self-test."""

    setup_reps: int
    analyze_instances: tuple[str, ...] | None  # None: every timed instance
    short_2x2_jobs: int
    short_4x4_jobs: int
    gap1_jobs: int
    gap1_steps: int
    free100_steps: int
    free30_steps: int
    uniformity_steps: int
    pool: tuple[int, int, int]  # max_rows, max_cols, random_count
    pool_key: str  # where expected.json keeps this pool's counts
    probe_reps: int
    probe_steps: dict  # grid label -> chain steps for the step probes
    changed_steps: int


FULL = Scale(
    setup_reps=3,
    analyze_instances=None,
    short_2x2_jobs=5,
    short_4x4_jobs=16,
    gap1_jobs=5,
    gap1_steps=3000,
    free100_steps=10000,
    free30_steps=20000,
    uniformity_steps=10000,
    pool=(5, 5, 200),
    pool_key="pool",
    probe_reps=5,
    probe_steps={"4x4": 20000, "30x30": 20000, "100x100": 10000},
    changed_steps=400,
)

SMOKE = Scale(
    setup_reps=1,
    analyze_instances=(
        "pinned_readme_4x4", "pinned_readme_4x3", "pinned_crit10_2x2",
        "small_00_3x4", "sparse_20x20_a", "dense_12x12_f40_v0",
    ),
    short_2x2_jobs=1,
    short_4x4_jobs=1,
    gap1_jobs=1,
    gap1_steps=20,
    free100_steps=100,
    free30_steps=100,
    uniformity_steps=500,
    pool=(3, 3, 5),
    pool_key="smoke_pool",
    probe_reps=1,
    probe_steps={"4x4": 200, "30x30": 200, "100x100": 100},
    changed_steps=20,
)


def instance_path(name: str) -> str:
    return os.path.join(instances.INSTANCE_DIR, f"{name}.txt")


def read_instance(name: str) -> str:
    with open(instance_path(name), encoding="utf-8") as fh:
        return fh.read()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def criterion8_fixtures():
    """The five uniformity fixtures of acceptance criterion 8."""
    diag = [(0, 0), (1, 1), (2, 2), (3, 3)]
    return [
        Instance.unconstrained((1, 1, 1), (1, 1, 1)),
        Instance.unconstrained((1, 1, 1, 1), (1, 1, 1, 1)),
        Instance.unconstrained((2, 2, 2, 2), (2, 2, 2, 2)),
        Instance(DegreeSequence((2, 2, 2, 2), (2, 2, 2, 2)),
                 FixedSet.from_cells(4, 4, forced_non_edges=diag)),
        Instance(DegreeSequence((2, 2, 2, 2, 2), (3, 3, 2, 2)),
                 FixedSet.from_cells(5, 4, forced_non_edges=diag)),
    ]


# ---------------------------------------------------------------------------
# Jobs and decks.


@dataclass(frozen=True)
class Job:
    """One analyze or sample call.  ``role`` groups jobs for the report:
    analyze, short (many short chains), gap1 (every step snapshotted) or
    long (one sample kept)."""

    role: str
    instance: str
    chain: str = "auto"
    steps: int = 0
    gap: int = 1
    count: int = 1
    seed: int = 0

    def argv(self) -> list[str]:
        path = instance_path(self.instance)
        if self.role == "analyze":
            return ["analyze", path]
        return [
            "sample", path, "--chain", self.chain, "--steps", str(self.steps),
            "--gap", str(self.gap), "--count", str(self.count),
            "--seed", str(self.seed),
        ]


def analyze_deck(rng: random.Random, scale: Scale) -> list[Job]:
    """Every timed instance except the free grids, in seeded order: 58
    small pinned instances PINNED_REPEATS times each, then 6 sparse-F
    (20x20 to 40x40) and 36 dense-F instances once."""
    _, manifest = instances.generate()
    kinds = {e["name"]: e["kind"] for e in manifest["instances"]}
    names = scale.analyze_instances or [
        e["name"] for e in manifest["instances"] if e["run"] and e["kind"] != "free"
    ]
    deck = [Job("analyze", name) for name in names
            for _ in range(PINNED_REPEATS if kinds[name] == "pinned" else 1)]
    rng.shuffle(deck)
    return deck


def sample_deck(rng: random.Random, scale: Scale) -> list[Job]:
    """Thirty jobs at full scale: 21 short-chain jobs, five gap-1 jobs on
    30x30 sparse-F instances, long enough that snapshots outweigh the
    static-cell pass, and four one-sample jobs (100x100 curveball and
    circle, 30x30 swap and cycle:8).  The mix puts the p50 inside the 4x4
    short jobs and the p90 inside the gap-1 jobs, so neither falls between
    two kinds of job."""

    def seed():
        return rng.randrange(1_000_000)

    deck = []
    for _ in range(scale.short_4x4_jobs):
        deck.append(Job("short", "pinned_readme_4x4", "auto", 40, 1, 25, seed()))
    for _ in range(scale.short_2x2_jobs):
        deck.append(Job("short", "pinned_crit10_2x2", "curveball", 40, 1, 25, seed()))
    for k in range(scale.gap1_jobs):
        name = ("sparse_30x30_a", "sparse_30x30_b")[k % 2]
        deck.append(Job("gap1", name, "auto", scale.gap1_steps, 1, 1, seed()))
    for name, chain, steps in (
        ("free_100x100_a", "curveball", scale.free100_steps),
        ("free_100x100_b", "circle", scale.free100_steps),
        ("free_30x30_a", "swap", scale.free30_steps),
        ("free_30x30_a", "cycle:8", scale.free30_steps),
    ):
        deck.append(Job("long", name, chain, steps, steps, 1, seed()))
    rng.shuffle(deck)
    return deck


def reference_jobs() -> list[Job]:
    """One short job per (instance, chain) of the sample deck, at a pinned seed."""
    seen = {}
    for job in sample_deck(random.Random(0), FULL):
        steps = min(job.steps, REFERENCE_STEPS)
        gap = steps if job.gap == job.steps else job.gap
        ref = replace(job, steps=steps, gap=gap, seed=REFERENCE_SEED)
        seen.setdefault((job.instance, job.chain), ref)
    return [seen[key] for key in sorted(seen)]


@dataclass(frozen=True)
class UniformityJob:
    fixture: int
    seed: int


def uniformity_round(rng: random.Random) -> list[UniformityJob]:
    """Two uniformity reports per criterion-8 fixture, in seeded order."""
    jobs = [UniformityJob(f, rng.randrange(1_000_000)) for f in range(5) for _ in range(2)]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Output checks.


def sample_output_ok(job: Job, text: str) -> bool:
    """Every emitted realization parses and validates against its instance."""
    inst = cli.parse_instance(read_instance(job.instance))
    blocks = [b for b in text.split("\n\n") if b.strip()]
    if len(blocks) != job.count:
        return False
    try:
        for block in blocks:
            cli.parse_realization(block, inst)
    except ValueError:
        return False
    return True


def sweep_ok(result, expected: dict) -> bool:
    return (
        result.passed
        and result.checks_run == expected["checks_run"]
        and dict(result.counts) == expected["counts"]
        and len(result.info_lines) == expected["info_lines"]
    )


def stream_digest(outputs) -> str:
    h = hashlib.sha256()
    for text in outputs:
        h.update(text.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# End-to-end path.


def fresh_start() -> float:
    """Collect the previous call's garbage, untimed, then start the clock.

    Each ``bipsample`` command is a process of its own; without this, a
    collection of one call's garbage would be charged to the next call.
    The clock leaves out the host-speed reference loops (hostspeed.py)."""
    gc.collect()
    return clock()


def elapsed(t0: float) -> float:
    return clock() - t0


def run_cli(argv: list[str]) -> tuple[float, int, str]:
    """One in-process ``bipsample`` call: (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = fresh_start()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return elapsed(t0), code, out.getvalue()


class Tally:
    """Operations attempted and failed, and each timed operation as (wall
    time when it was tallied, just after it ended; its seconds; what)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies: list[tuple[float, float, str]] = []
        self.notes: list[str] = []

    def op(self, ok: bool, seconds: float | None = None, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")
        if seconds is not None:
            self.latencies.append((perf_counter(), seconds, what))

    def timings(self, workload: str, meter: Speedometer) -> tuple[dict, float]:
        """p50 and p90 of the calibrated times of the timed operations, with
        a note naming the operation at each nearest rank, and of their
        uncalibrated times as ``p50_wall_ms``/``p90_wall_ms``; and the
        calibrated busy seconds."""
        calibrated = [(s * meter.factor(end - s, end), what)
                      for end, s, what in self.latencies]
        out = {}
        for q in (50, 90):
            rank = max(0, math.ceil(q * len(calibrated) / 100) - 1)
            self.notes.append(f"{workload}.p{q}_ms is near {sorted(calibrated)[rank][1]}")
            out[f"{workload}.p{q}_ms"] = (
                harrell_davis([s for s, _ in calibrated], q / 100) * 1e3, "ms")
            out[f"{workload}.p{q}_wall_ms"] = (
                harrell_davis([s for _, s, _ in self.latencies], q / 100) * 1e3, "ms")
        out["host.ref_ms"] = (meter.ref_ms(), "ms")
        return out, sum(s for s, _ in calibrated)


def harrell_davis(values: list[float], q: float) -> float:
    """The Harrell-Davis estimate of quantile ``q``: a mean of all the order
    statistics, weighted by a beta distribution centred on rank q * n.
    Among analyze's dense-F jobs, neighbours in the sorted deck differ by
    about 8% and a call's calibrated time by about as much from run to run,
    so the single nearest-rank job jumps between them; this estimate moves
    much less."""
    from scipy.special import betainc

    n = len(values)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], sorted(values))))


def loop_rounds(seconds: float, min_rounds: int, body) -> int:
    """Run whole rounds; stop at the round count whose end is nearest to
    ``seconds``, so the run lasts ``seconds`` give or take half a round."""
    t0 = perf_counter()
    rounds = 0
    while True:
        elapsed = perf_counter() - t0
        if rounds >= max(min_rounds, 1) and elapsed + elapsed / rounds / 2 >= seconds:
            return rounds
        body()
        rounds += 1


def run_analyze(deck: list[Job], seconds: float, tally: Tally) -> dict:
    expected = load_expected()["analyze"]

    def one_deck():
        for job in deck:
            dt, code, out = run_cli(job.argv())
            want = expected[job.instance]
            tally.op(code == want["code"] and out == want["stdout"], dt,
                     f"analyze {job.instance}")

    with Speedometer() as meter:
        decks = loop_rounds(seconds, 1, one_deck)
    calls = len(tally.latencies)
    timings, busy_s = tally.timings("analyze", meter)
    return {
        **timings,
        "analyze.calls_per_s": (calls / busy_s, "1/s"),
        "analyze.calls": (calls, "count"),
        "analyze.decks": (decks, "count"),
    }


def run_sample(deck: list[Job], seconds: float, tally: Tally, scale: Scale) -> dict:
    first: dict[Job, str] = {}
    steps = [0]

    def one_deck():
        for job in deck:
            dt, code, out = run_cli(job.argv())
            steps[0] += job.steps * job.count
            if job in first:
                # Same job, same seed, same run: the bytes must repeat.
                ok = code == 0 and out == first[job]
            else:
                ok = code == 0 and sample_output_ok(job, out)
                first[job] = out
            tally.op(ok, dt, f"sample {job.role} {job.chain} on {job.instance}")

    with Speedometer() as meter:
        decks = loop_rounds(seconds, 2, one_deck)
    timings, busy_s = tally.timings("sample", meter)
    metrics = {
        **timings,
        "sample.steps_per_s": (steps[0] / busy_s, "steps/s"),
        "sample.calls": (len(tally.latencies), "count"),
        "sample.decks": (decks, "count"),
    }

    outputs = []
    for job in reference_jobs():
        _, code, out = run_cli(job.argv())
        tally.op(code == 0 and sample_output_ok(job, out), None,
                 f"reference sample on {job.instance}")
        outputs.append(out)
    digest = stream_digest(outputs)
    recorded = load_expected()["sample_reference"]["digest"]
    tally.notes.append(
        f"sample reference digest {digest[:16]}: "
        + ("unchanged" if digest == recorded else
           f"random stream changed (recorded {recorded[:16]})")
    )
    return metrics


def uniformity_setup(job: UniformityJob, scale: Scale, fixtures):
    """The fixture and its chain: the recommended move set, as in criterion 8."""
    inst = fixtures[job.fixture]
    move_set = analyze(inst.fixed, inst.n, inst.n_cols).recommended
    return inst, chains.ChainConfig(move_set, scale.uniformity_steps, job.seed, sample_gap=10)


def uniformity_call(job: UniformityJob, scale: Scale, fixtures) -> tuple[float, bool]:
    inst, cfg = uniformity_setup(job, scale, fixtures)
    t0 = fresh_start()
    try:
        tv, p = oracle.uniformity_report(inst, cfg)
    except KeyError:  # a visited state is missing from the enumeration
        return elapsed(t0), False
    return elapsed(t0), 0.0 <= tv <= 1.0 and 0.0 <= p <= 1.0


def run_sweep(scale: Scale):
    rows, cols, count = scale.pool
    t0 = fresh_start()
    result = oracle.run_verification(rows, cols, count, seed=POOL_SEED, quiet=True)
    return elapsed(t0), result


def run_verify(rng: random.Random, seconds: float, tally: Tally, scale: Scale) -> dict:
    """Uniformity rounds for a quarter of the run, the sweep, then rounds
    until the run's time is spent.  The host's speed drifts over seconds;
    rounds on both sides of the sweep sample more of it than one block."""
    expected = load_expected()[scale.pool_key]
    fixtures = criterion8_fixtures()

    def one_round():
        for job in uniformity_round(rng):
            dt, ok = uniformity_call(job, scale, fixtures)
            tally.op(ok, dt, f"uniformity on fixture {job.fixture}")

    with Speedometer() as meter:
        t_start = perf_counter()
        rounds = loop_rounds(seconds / 4, 1, one_round)
        sweep_s, result = run_sweep(scale)
        sweep_end = perf_counter()
        tally.op(sweep_ok(result, expected), None,
                 f"sweep {scale.pool} seed {POOL_SEED}")
        rounds += loop_rounds(seconds - (perf_counter() - t_start), 1, one_round)
    calls = len(tally.latencies)
    timings, busy_s = tally.timings("verify", meter)
    sweep_factor = meter.factor(sweep_end - sweep_s, sweep_end)
    return {
        **timings,
        "verify.checks_per_s": (result.checks_run / (sweep_s * sweep_factor), "checks/s"),
        "verify.checks_per_wall_s": (result.checks_run / sweep_s, "checks/s"),
        "verify.uniformity_steps_per_s": (
            calls * scale.uniformity_steps / busy_s, "steps/s"),
        "verify.checks": (result.checks_run, "count"),
        "verify.info_lines": (len(result.info_lines), "count"),
        "verify.uniformity_calls": (calls, "count"),
        "verify.rounds": (rounds, "count"),
    }


# ---------------------------------------------------------------------------
# Traced path: the same calls, one layer at a time, each inside a span.


def _pipeline(inst: Instance, tr):
    with tr.span("realizability.static_set"):
        f_prime = static_set(inst.degrees)
    with tr.span("realizability.partition_fixed_set"):
        working, _ = partition_fixed_set(inst, f_prime)
    with tr.span("analysis.analyze"):
        try:
            return analyze(working, inst.n, inst.n_cols).recommended
        except NoUsableBound:
            return MoveSet.swaps_up_to(2 * min(inst.n, inst.n_cols))


def _parse(name: str, tr) -> Instance:
    with tr.span("cli.parse_instance"):
        return cli.parse_instance(read_instance(name))


def analyze_direct(job: Job, tr) -> str:
    """The calls of ``bipsample analyze``; returns the recommended move set."""
    with tr.span("job.analyze"):
        inst = _parse(job.instance, tr)
        with tr.span("realizability.gale_ryser_realizable"):
            gale_ryser_realizable(inst.degrees)
        with tr.span("realizability.initial_realization"):
            initial_realization(inst)
        return str(_pipeline(inst, tr))


def sample_direct(job: Job, tr) -> tuple[str, Instance, list]:
    """The calls of ``bipsample sample``: (stdout bytes, the instance, and per
    chain the span of its ``chains.run`` and its kept states)."""
    with tr.span(f"job.sample.{job.role}"):
        inst = _parse(job.instance, tr)
        if job.chain == "auto":
            move_set = _pipeline(inst, tr)
        else:
            move_set = MOVE_SETS[job.chain]()
        outputs = []
        runs = []
        for c in range(job.count):
            cfg = chains.ChainConfig(move_set, job.steps, job.seed + c, job.gap)
            with tr.span("chains.run") as idx:
                samples = chains.run(inst, cfg)
            runs.append((idx, samples))
            with tr.span("cli.format_realization"):
                outputs.append(cli.format_realization(samples[-1]))
        return "\n".join(outputs), inst, runs


def uniformity_direct(job: UniformityJob, scale: Scale, fixtures,
                      tr) -> tuple[bool, Instance, list]:
    """The calls of ``uniformity_report``: (all visits enumerated, the
    instance, and the span of its ``chains.run`` with the kept states)."""
    from scipy import stats  # only this call needs it; set-up does not load it

    inst, cfg = uniformity_setup(job, scale, fixtures)
    with tr.span("job.uniformity"):
        with tr.span("oracle.enumerate_realizations"):
            states = oracle.enumerate_realizations(inst)
        with tr.span("chains.run") as idx:
            samples = chains.run(inst, cfg)
        index = {g.matrix: s for s, g in enumerate(states)}
        counts = [0] * len(states)
        missing = 0
        for g in samples:
            s = index.get(g.matrix)
            if s is None:
                missing += 1
            else:
                counts[s] += 1
        with tr.span("scipy.chisquare"):
            stats.chisquare(counts)
    return missing == 0, inst, [(idx, samples)]
