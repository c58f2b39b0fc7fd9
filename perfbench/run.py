"""
The klhom benchmark: end-to-end metrics, or per-layer metrics from a traced
run, for one workload.

    python3 perfbench/run.py --workload classify-s5-deep --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout; klhom is imported from ``src/`` there and
from nowhere else.  One process drives the program in a closed loop (the next
call starts when the previous one returns); only ``sweep-s5`` fans out, to the
2 worker processes of ``klhom sweep --workers 2``.

Workloads (``baseline.json`` records why each was chosen; ``BENCHMARK.json``
lists the two that the benchmark runs, ``classify-s5-deep`` and ``sweep-s5``):

- ``classify-s4``: ``classify(v, w, ClassifierConfig(pattern_shortcut=False))``
  over all 576 pairs of S_4 x S_4, one pair at a time, each pass in a new
  seeded order, passes repeated for the run's length.  Not in
  ``BENCHMARK.json``: its layers are all on ``sweep-s5``'s path too, and the
  run budget holds the other two workloads steady only at a run length that
  leaves no room for a third.  Run it by hand for a change to the structural
  layers.
- ``classify-s5-deep``: the same loop at the default mutation depth of 8 over
  a seeded, stratified sample of the 3,661 S_5 pairs that pass the empty and
  unit gates (strata by the baseline commit's time per pair, see
  :func:`deep_sample`).
- ``sweep-s5``: ``klhom.cli.main(["sweep", "--n", "5",
  "--no-pattern-shortcut", "--mutation-depth", "2", "--workers", "2",
  "--out", <file>.jsonl])`` in-process, repeated for the run's length.  The
  seed does not change the inputs of a whole-census workload.

Timing: the host's speed moves by up to a factor of two for tens of seconds
to minutes at a time, so every timed interval is scaled to the reference
speed by the host-speed kernel of ``hostspeed.py``, sampled in the process
that does the timed work (for ``sweep-s5``, in its pool workers).  Each pair
is timed from outside on every pass, the sampler's own kernel runs are taken
out of its time, and the run keeps each pair's median scaled latency over its
passes.  ``wall_s`` is the sum of those medians over one pass (time inside
``classify``, the loop's bookkeeping left out), ``pairs_per_s`` is a pass's
pairs over ``wall_s``, and ``pair_ms.*`` are order statistics of the
per-pair medians.  ``sweep-s5`` times pairs inside its workers (the records'
``wall_ms``), and its ``wall_s`` is the run's median scaled census.
``setup_s`` is measured in fresh interpreters launched between passes, see
:class:`SetupClock`.  The raw medians are on the detail line.

Every decided verdict is checked against ``data/reference.csv``, which the
pipeline did not produce; one contradiction makes the run incorrect.  The
tables are loaded after the timed passes and after ``peak_rss_mb`` is read,
and ``sweep-s5`` keeps each census in its output file until then, so that the
program's memory, and its workers', holds none of the benchmark's own data.
A pair that raises ``ConsistencyError``, ``AssertionError`` or ``ValueError``
counts as failed and the loop goes on; in ``sweep-s5`` one worker exception
aborts the whole census, so every pair of that call counts as failed.

With ``--trace 1`` the first half of the run is untraced and the second half
runs with the span recorder of ``spans.py``; per-layer metrics are per traced
pass.  ``sweep-s5`` is traced with ``--workers 1`` (both halves), so that all
spans stay in this process.  Layer times are the spans' raw self times;
``trace.overhead_s`` compares the two halves' scaled ``wall_s``.  The traced run checks the spans' coverage: the
self time left in the root spans (``ROOT_SPANS``: the part of ``classify``,
``sweep`` and ``cli.main`` that no wrapped callee accounts for) must stay
within ``ROOT_SELF_TOLERANCE`` of the traced wall, so that the named layers
plus the loop's own time account for the rest.

The last line of stdout is the result object; the line before it, starting
with ``detail``, holds what has no bound: census, digest changes against the
baseline commit, the tail percentile and its sample count, layer shares, the
coverage check, and the sweep-only layers (``classifier.sweep_self_s``,
``classifier.output_bytes``, ``cli.self_s``).
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import hostspeed  # noqa: E402
import spans  # noqa: E402
import tables  # noqa: E402

WORKLOADS = ("classify-s4", "classify-s5-deep", "sweep-s5")
SETUP_LAUNCHES = 9  # set-up interpreters per run, spread over its passes
TAIL_BEYOND = 10  # the tail percentile leaves this many samples beyond it

# The root spans' self time is classify's, sweep's and cli.main's own work
# plus whatever they call that no wrapper covers (zmatrix, polynomials).  The
# recorded traced runs leave 11 % (classify-s4), 0.4 % (classify-s5-deep) and
# 9 % (sweep-s5) of the traced wall there.
ROOT_SPANS = ("classifier.self", "classifier.sweep", "cli.self")
ROOT_SELF_TOLERANCE = 0.2

# classify-s5-deep strata, by the baseline commit's time per pair
LIGHT_MS = 100.0
HEAVY_MS = 1000.0
LIGHT_SAMPLE = 300
MIDDLE_STEP = 4

SWEEP_ARGV = ["sweep", "--n", "5", "--no-pattern-shortcut", "--mutation-depth", "2"]
SWEEP_WORKERS = 2
SWEEP_PAIRS = 120 * 120

PER_LAYER_TIMES = {
    "permutations.gate_s": ["permutations.gate"],
    "permutations.pattern_s": ["permutations.pattern"],
    "minors.enumerate_s": ["minors.enumerate"],
    "minors.prune_s": ["minors.prune"],
    "paths.singular_s": ["paths.singular"],
    "paths.inhom_s": ["paths.inhom"],
    "paths.det_s": ["paths.det"],
    "paths.other_s": ["paths.other"],
    "divisibility.search_s": ["divisibility.search"],
    "classifier.witness_search_s": ["classifier.witness_search"],
    "classifier.witness_verify_s": ["classifier.witness_verify"],
    "classifier.self_s": ["classifier.self"],
    "mutation.search_s": ["mutation.run", "mutation.node"],
    "mutation.cancel_s": ["mutation.cancel"],
    "mutation.cert_verify_s": ["mutation.cert_verify"],
}


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


@dataclass
class Context:
    workload: str
    rng: random.Random
    modules: dict
    pairs: list  # classify-*: [((v, w) text key, v Permutation, w Permutation)]
    work: Path
    speed: hostspeed.HostSpeed | None = None
    composition: dict = field(default_factory=dict)
    outputs: int = 0  # sweep-s5 output files written so far

    @property
    def pass_size(self) -> int:
        return SWEEP_PAIRS if self.workload == "sweep-s5" else len(self.pairs)


def import_klhom() -> dict:
    init = SRC / "klhom" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no klhom package at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import klhom
    from klhom import classifier, cli, mutation, permutations

    if Path(klhom.__file__).resolve() != init.resolve():
        raise BenchError(f"imported klhom from {klhom.__file__}, not from this checkout")
    return {"classifier": classifier, "cli": cli, "mutation": mutation,
            "permutations": permutations}


def deep_sample(baseline: dict, rng: random.Random) -> tuple[list, dict]:
    """The classify-s5-deep pairs: a seeded sample of about LIGHT_SAMPLE of the
    light pairs (under LIGHT_MS at the baseline commit), drawn in proportion to
    their baseline verdicts and spread evenly over their baseline times; every
    MIDDLE_STEP-th pair, by baseline time, of those between LIGHT_MS and
    HEAVY_MS; and the fastest pair over HEAVY_MS.  ``baseline`` maps each pair
    to its baseline (verdict, ms).

    Fixed strata give every seed the same mix of cheap and expensive pairs,
    so the seed moves the run's time little.  The expensive strata are thinned
    so that a pass takes a few seconds and a run holds several passes: the
    middle one holds 41 pairs of 0.1 to 0.6 s, and the heavy one 11 pairs of
    2 to 24 s each (78 s in all), far more than a run.  The 11 middle pairs
    and the heavy one are the same for every seed and are the slowest of the
    sample, so pair_ms.tail (ten pairs beyond it) reads the same pair on
    every seed.
    """
    ms = {key: t for key, (_, t) in baseline.items()}
    light = [k for k, t in ms.items() if t < LIGHT_MS]
    middle = sorted((k for k, t in ms.items() if LIGHT_MS <= t < HEAVY_MS),
                    key=ms.get)[::MIDDLE_STEP]
    heavy = sorted((k for k, t in ms.items() if t >= HEAVY_MS), key=ms.get)
    by_verdict: dict[str, list] = {}
    for key in sorted(light, key=lambda k: (ms[k], k)):
        by_verdict.setdefault(baseline[key][0], []).append(key)
    drawn = {kind: round(LIGHT_SAMPLE * len(keys) / len(light))
             for kind, keys in sorted(by_verdict.items())}
    keys = []
    for kind, n in drawn.items():
        group = by_verdict[kind]
        # one pair from each of n runs of neighbours in baseline time
        keys += [rng.choice(group[i * len(group) // n:(i + 1) * len(group) // n])
                 for i in range(n)]
    composition = {"light": drawn, "light_population": len(light),
                   "middle": len(middle), "heavy": ",".join(heavy[0]),
                   "heavy_left_out_ms": {",".join(k): ms[k] for k in heavy[1:]}}
    return keys + middle + heavy[:1], composition


def input_keys(workload: str, rng: random.Random) -> tuple[list, dict]:
    """The (v, w) text keys a classify-* workload hands the program, and the
    deep sample's composition; sweep-s5 hands it none (cli.main builds its
    own pairs)."""
    if workload == "classify-s4":
        return [(tables.text(v), tables.text(w)) for v, w in tables.all_pairs(4)], {}
    if workload == "classify-s5-deep":
        return deep_sample(tables.load_baseline_times(), rng)
    return [], {}


def set_up(keys: list) -> tuple[dict, list]:
    """What a run does before its first call into klhom: import it and build
    the Permutation pairs the program receives."""
    modules = import_klhom()
    Permutation = modules["permutations"].Permutation
    return modules, [(key, Permutation(tables.parse(key[0])), Permutation(tables.parse(key[1])))
                     for key in keys]


def build(workload: str, seed: int, work: Path) -> Context:
    rng = random.Random(seed)
    keys, composition = input_keys(workload, rng)
    modules, pairs = set_up(keys)
    return Context(workload, rng, modules, pairs, work, composition)


class Tally:
    """What the loop keeps of its passes: each pair's scaled latencies (8
    bytes a pair a pass, a few MB over a classify-s4 run), the pass times,
    and how often each (pair, verdict, digest) came out; the verdicts are
    checked against the tables after the run (:meth:`errors`).
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.latencies_ms: dict = {}  # (v, w) -> array of scaled latencies, one per pass
        self.walls: list[float] = []  # scaled time inside the program, per pass
        self.raw_walls: list[float] = []  # the same, as the clock read it
        self.elapsed = 0.0  # raw time inside the program plus the loop's own bookkeeping
        self.attempted = self.failed = 0
        self.verdicts: Counter = Counter()  # (key, kind, digest) -> times given
        self.censuses: list[dict] = []
        self.decided: list[float] = []
        self.output_bytes: list[int] = []
        # (start, end, output or None if it raised, workers' host-speed samples) per census
        self.sweeps: list[tuple[float, float, Path | None, Path]] = []

    def add(self, wall: float, raw_wall: float, elapsed: float, outcomes: list[tuple],
            output_bytes: int = 0) -> None:
        """Count one pass.  An outcome is ((v, w), verdict kind, digest,
        scaled latency in ms), with kind None when the pair raised."""
        census: Counter = Counter()
        for key, kind, digest, ms in outcomes:
            self.attempted += 1
            if kind is None:
                self.failed += 1
                continue
            census[kind] += 1
            self.verdicts[key, kind, digest] += 1
            self.latencies_ms.setdefault(key, array("d")).append(ms)
        self.elapsed += elapsed
        if census:
            self.walls.append(wall)
            self.raw_walls.append(raw_wall)
        self.censuses.append(dict(sorted(census.items())))
        decided = sum(n for kind, n in census.items() if kind != "undetermined")
        self.decided.append(decided / len(outcomes))
        self.output_bytes.append(output_bytes)

    def errors(self, reference: dict, golden: dict) -> tuple[int, int]:
        """(verdict errors, digest changes): decided verdicts that contradict
        the reference, and verdicts whose digest differs from the baseline
        commit's, each counted as often as it was given."""
        verdict_errors = digest_changes = 0
        for (key, kind, digest), times in self.verdicts.items():
            claimed = tables.CLAIMED_CLASS[kind]
            if claimed is not None and claimed != reference[key]:
                verdict_errors += times
            if digest != golden[key]["digest"]:
                digest_changes += times
        return verdict_errors, digest_changes

    def pair_ms(self) -> list[float]:
        """Each pair's median scaled latency over the run's passes."""
        if not self.latencies_ms:
            raise BenchError(f"all {self.attempted} attempted pairs raised; nothing was timed")
        return [statistics.median(ms) for ms in self.latencies_ms.values()]

    def wall(self) -> float:
        """The pass time the per-pair medians add up to; for sweep-s5, whose
        pairs run in worker processes, the median scaled census time."""
        if self.workload == "sweep-s5":
            return statistics.median(self.walls)
        return sum(self.pair_ms()) / 1000.0


def classify_pass(ctx: Context, tally: Tally) -> None:
    classifier = ctx.modules["classifier"]
    cfg = classifier.ClassifierConfig(pattern_shortcut=False)
    order = list(ctx.pairs)
    ctx.rng.shuffle(order)
    results = []
    t_pass = time.perf_counter()
    for key, v, w in order:
        t0 = time.perf_counter()
        try:
            verdict = classifier.classify(v, w, cfg).verdict
        except (classifier.ConsistencyError, AssertionError, ValueError):
            verdict = None
        t1 = time.perf_counter()
        # digest at once, so that no report stays alive for the garbage collector
        results.append((key, None, None, t0, t1) if verdict is None else
                       (key, verdict.kind.value, verdict.digest(), t0, t1))
    elapsed = time.perf_counter() - t_pass
    speed = ctx.speed
    outcomes = []
    wall = raw_wall = 0.0
    for key, kind, digest, t0, t1 in results:
        # the sampler's kernel runs are taken out, then the time is scaled
        net = t1 - t0 - speed.paused(t0, t1)
        scaled = net * speed.factor(t0, t1)
        raw_wall += net
        wall += scaled
        outcomes.append((key, kind, digest, scaled * 1000.0))
    tally.add(wall, raw_wall, elapsed, outcomes)


def sweep_pass(ctx: Context, tally: Tally, workers: int, tracer: spans.Tracer | None) -> None:
    """One census; its output file is read by :func:`read_sweeps` after the run."""
    cli = ctx.modules["cli"]
    out = ctx.work / f"sweep-s5-{ctx.outputs}.jsonl"
    ctx.outputs += 1
    argv = SWEEP_ARGV + ["--workers", str(workers), "--out", str(out)]
    speed_dir = ctx.work / f"speed-{ctx.outputs}"
    speed_dir.mkdir()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), hostspeed.sampling_children(speed_dir):
            code = (cli.main(argv) if tracer is None else
                    tracer.call("cli.self", cli.main, (argv,)))
    except (ctx.modules["classifier"].ConsistencyError, AssertionError, ValueError):
        code = None
    tally.sweeps.append((t0, time.perf_counter(), out if code == 0 else None, speed_dir))


def read_sweeps(tally: Tally, speed: hostspeed.HostSpeed) -> None:
    """Count the sweep-s5 censuses from their output files.  A census is
    scaled by the kernel's median time in the pool workers over the census;
    a census without workers (``--workers 1``) runs in this process and is
    timed like a classify pass.  Each record's wall_ms is scaled by the
    kernel's time around the moment it ran, placed by laying the records out
    over the census in their order (the order the workers take them in), each
    in proportion to its wall_ms."""
    keys = [(tables.text(v), tables.text(w)) for v, w in tables.all_pairs(5)]
    for t0, t1, out, speed_dir in tally.sweeps:
        samples = hostspeed.child_samples(speed_dir)
        speed_dir.rmdir()
        wall = t1 - t0
        if out is None:
            tally.add(wall, wall, wall, [(None, None, None, None)] * SWEEP_PAIRS)
            continue
        if not samples.starts:
            samples = speed
            wall -= speed.paused(t0, t1)
        with out.open() as fh:
            records = [json.loads(line) for line in fh]
        if [(r["v"], r["w"]) for r in records] != keys:
            raise BenchError(f"{out.name} does not hold every S_5 pair once, in order")
        per_ms = (t1 - t0) / max(sum(r["wall_ms"] for r in records), 1e-9)
        at = t0
        outcomes = []
        for r in records:
            end = at + r["wall_ms"] * per_ms
            outcomes.append(((r["v"], r["w"]), r["verdict"], r["digest"],
                             r["wall_ms"] * samples.factor(at, end)))
            at = end
        tally.add(wall * samples.factor(t0, t1), wall, wall, outcomes, out.stat().st_size)
        out.unlink()
    tally.sweeps.clear()


class SetupClock:
    """Set-up time: a fresh interpreter imports klhom and builds the workload's
    Permutation pairs, timed inside it (the benchmark's own tables and the
    deep sample's draw are made before the clock starts) and scaled by the
    host-speed kernel timed just before and just after it (:func:`set_up_once`).

    The SETUP_LAUNCHES interpreters are spread over the run's passes rather
    than started in one burst, and setup_s is the median of their scaled
    times.  The interpreters hold klhom only, a part of what every forked
    sweep worker holds, so they do not raise the children's peak RSS that
    ``peak_rss_mb`` reads.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                     "--workload", workload, "--seed", str(seed)]
        self.times: list[float] = []  # scaled
        self.raw_times: list[float] = []

    def catch_up(self, share: float) -> None:
        """Launch set-ups until ``share`` of them have run."""
        while len(self.times) < min(share, 1.0) * SETUP_LAUNCHES:
            out = subprocess.run(self.argv, cwd=ROOT, check=True, capture_output=True, text=True)
            raw, scaled = map(float, out.stdout.split()[-2:])
            self.raw_times.append(raw)
            self.times.append(scaled)

    def setup_s(self) -> float:
        self.catch_up(1.0)
        return statistics.median(self.times)


def set_up_once(workload: str, seed: int) -> tuple[float, float]:
    """One timed set-up in this interpreter: (raw, scaled) seconds."""
    keys, _ = input_keys(workload, random.Random(seed))
    hostspeed.kernel()  # warm up
    kernel_s = [hostspeed.kernel_s() for _ in range(3)]
    t0 = time.perf_counter()
    set_up(keys)
    raw = time.perf_counter() - t0
    kernel_s += [hostspeed.kernel_s() for _ in range(3)]
    return raw, raw * hostspeed.KERNEL_REF_S / statistics.median(kernel_s)


def run_passes(ctx: Context, seconds: float, workers: int,
               tracer: spans.Tracer | None = None, clock: SetupClock | None = None) -> Tally:
    """Passes until they have taken ``seconds``; the set-ups ``clock`` launches
    between them do not count towards that time."""
    tally = Tally(ctx.workload)
    measured = 0.0
    while True:
        t0 = time.perf_counter()
        if ctx.workload == "sweep-s5":
            sweep_pass(ctx, tally, workers, tracer)
        else:
            classify_pass(ctx, tally)
        # what the loop keeps stays out of the next pass's garbage collections
        gc.freeze()
        last = time.perf_counter() - t0
        measured += last
        if clock is not None:
            clock.catch_up(measured / seconds)
        # stop when another pass would end nearer past ``seconds`` than this one ends before it
        if measured + last / 2 >= seconds:
            return tally


def checks(workload: str, speed: hostspeed.HostSpeed, *tallies: Tally) -> dict:
    """Read the sweep outputs, then check every tally against the tables."""
    for tally in tallies:
        read_sweeps(tally, speed)
    reference = tables.load_reference()
    golden = tables.load_golden(workload)
    errors = [t.errors(reference, golden) for t in tallies]
    censuses = [c for t in tallies for c in t.censuses]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    return {"attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
            "verdict_errors": sum(e for e, _ in errors),
            "digest_changes": sum(d for _, d in errors),
            "passes": len(censuses), "census": censuses[0],
            "census_same_every_pass": all(c == censuses[0] for c in censuses),
            "classifier.output_bytes": max(b for t in tallies for b in t.output_bytes)}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS, plus the largest child's for each worker.
    Read before the benchmark's tables are loaded."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kb += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def end_to_end(tally: Tally, setup_s: float, rss_mb: float,
               pass_size: int) -> tuple[dict, dict]:
    pair_ms = tally.pair_ms()
    wall = tally.wall()
    percentile, tail_ms = tail(pair_ms)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "pairs_per_s": (pass_size / wall, "1/s"),
        "pair_ms.p50": (statistics.median(pair_ms), "ms"),
        "pair_ms.tail": (tail_ms, "ms"),
        "pair_ms.max": (max(pair_ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "decided_frac": (statistics.median(tally.decided), "1"),
    }
    return metrics, {"tail_percentile": round(percentile, 3), "tail_samples": len(pair_ms),
                     "raw_wall_s_median": statistics.median(tally.raw_walls)}


def per_layer(tracer: spans.Tracer, traced: Tally, untraced: Tally) -> tuple[dict, dict]:
    n = len(traced.censuses)
    wall = traced.elapsed
    loop_s = wall - sum(traced.raw_walls)

    def self_s(*names: str) -> float:
        return sum(tracer.self_s[name] for name in names)

    def ratio(name: str) -> float:
        return tracer.tally[name] / tracer.calls[name] if tracer.calls[name] else 0.0

    metrics = {name: (self_s(*spans_) / n, "s") for name, spans_ in PER_LAYER_TIMES.items()}
    metrics.update({
        "permutations.gate_calls": (tracer.calls["permutations.gate"] / n, "count"),
        "minors.enumerated": (tracer.tally["minors.enumerate"] / n, "count"),
        "minors.pruned": (tracer.tally["minors.prune"] / n, "count"),
        "paths.singular_calls": (tracer.calls["paths.singular"] / n, "count"),
        "paths.singular_ratio": (ratio("paths.singular"), "1"),
        "paths.inhom_calls": (tracer.calls["paths.inhom"] / n, "count"),
        "paths.det_calls": (tracer.calls["paths.det"] / n, "count"),
        "paths.det_terms": (tracer.tally["paths.det"] / n, "count"),
        "divisibility.calls": (tracer.calls["divisibility.search"] / n, "count"),
        "divisibility.hit_ratio": (ratio("divisibility.search"), "1"),
        "classifier.witness_found_ratio": (ratio("classifier.witness_search"), "1"),
        "mutation.calls": (tracer.calls["mutation.run"] / n, "count"),
        "mutation.nodes": (tracer.calls["mutation.node"] / n, "count"),
        "mutation.cancel_calls": (tracer.calls["mutation.cancel"] / n, "count"),
        "mutation.terminated_ratio": (ratio("mutation.run"), "1"),
        "trace.overhead_s": (traced.wall() - untraced.wall(), "s"),
    })
    root_self = self_s(*ROOT_SPANS) / wall
    sweep_only = {"classifier.sweep_self_s": "classifier.sweep", "cli.self_s": "cli.self"}
    shares = {name: round(self_s(*spans_) / wall, 4) for name, spans_ in PER_LAYER_TIMES.items()}
    shares.update({name: round(self_s(span) / wall, 4) for name, span in sweep_only.items()})
    shares["loop"] = round(loop_s / wall, 4)
    detail = {name: self_s(span) / n for name, span in sweep_only.items()}
    detail.update({
        "trace.wall_s": traced.wall(),
        "trace.overhead_frac": metrics["trace.overhead_s"][0] / untraced.wall(),
        "shares": shares,
        "coverage": {"root_self_frac": root_self, "tolerance": ROOT_SELF_TOLERANCE,
                     "ok": root_self <= ROOT_SELF_TOLERANCE},
    })
    return metrics, detail


def benchmark(args: argparse.Namespace, work: Path) -> int:
    ctx = build(args.workload, args.seed, work)
    gc.freeze()
    with hostspeed.HostSpeed() as ctx.speed:
        return measure(args, ctx)


def measure(args: argparse.Namespace, ctx: Context) -> int:
    workers = SWEEP_WORKERS if args.workload == "sweep-s5" else 1
    detail: dict = {"workload": args.workload, "seed": args.seed}
    if ctx.composition:
        detail["composition"] = ctx.composition
    if args.trace:
        if args.workload == "sweep-s5":
            workers = 1
            detail["traced_workers"] = 1
        untraced = run_passes(ctx, args.seconds / 2, workers)
        tracer = spans.Tracer()
        tracer.install(ctx.modules)
        try:
            traced = run_passes(ctx, args.seconds / 2, workers, tracer)
        finally:
            tracer.uninstall()
        tallies = (untraced, traced)
        checked = checks(args.workload, ctx.speed, *tallies)
        metrics, more = per_layer(tracer, traced, untraced)
        covered = more["coverage"]["ok"]
    else:
        clock = SetupClock(args.workload, args.seed)
        tallies = (run_passes(ctx, args.seconds, workers, clock=clock),)
        rss_mb = peak_rss_mb(workers)
        checked = checks(args.workload, ctx.speed, *tallies)
        metrics, more = end_to_end(tallies[0], clock.setup_s(), rss_mb, ctx.pass_size)
        more["raw_setup_s_median"] = statistics.median(clock.raw_times)
        covered = True
    detail.update(more)
    detail.update(checked)
    detail["host_speed"] = ctx.speed.summary()
    correct = checked["verdict_errors"] == 0 and covered
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        if args.setup_only:
            print(*set_up_once(args.workload, args.seed))
            return 0
        work.mkdir(parents=True)
        return benchmark(args, work)
    except (BenchError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if not args.setup_only:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
