#!/usr/bin/env python3
"""twinsync benchmark: paired runs, a threshold sweep and a strategy study.

    python3 bench/run.py --workload pairs-all-scenes --seed 100 --seconds 30 --trace 0

Builds nothing: it imports twinsync from src/ next to this directory and the
bundled scenes from scenes/, and exits 1 without a result when either is
missing. A run repeats whole rounds of its workload's operations until
--seconds have passed, checks the first round's outputs against the oracles
in oracles.py, checks that every later round reproduced them exactly,
compares digests of them with reference.json when it holds the run's seed,
and prints one JSON object as its last line of standard output.

--trace 0 reports the end-to-end metrics: setup_s, steps_per_s and
peak_rss_mb. --trace 1 alternates untraced and traced units (the workload's
scene loading plus one round) and reports the per-layer metrics of one
traced unit, from the wrappers in tracer.py.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy is first imported: BLAS threads would otherwise add to
# the busy threads beyond the host's cores, and TWINSYNC_JOBS would override
# the sweep's --jobs.
os.environ.pop("TWINSYNC_JOBS", None)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles
import selftest
from tracer import METRIC_SPANS, SPAN_NAMES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENES = ROOT / "scenes"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"  # written by reference.py

STEPS = 1000  # the acceptance suite's run length
THETA = 2.0  # knowledge threshold of the paired runs
SETUP_SAMPLES = 15  # fresh-process set-ups per run; setup_s is their median

# Threshold rungs: from each checker's acceptance-suite ladder its lowest rung
# (a resync on every drift), one middle rung, and inf (no resync).
LADDERS = {
    "state": "0,20,inf",
    "knowledge": "0,4,inf",
    "action": "0,0.4,inf",
    "action2": "0,0.6,inf",
}
SWEEP_REPEATS = 2
# The timed sweeps run in this process (--jobs 1). A 2-worker pool on a 2-core
# host is timed by whichever worker the host slows: with it, two sets of ten
# runs spread by 0.27 and 0.29 of their median. The pool runs once, untimed,
# and must write the same bytes.
POOL_JOBS = 2
POOL_CHECKER = "knowledge"
MAX_UPDATES = 1000.0  # twinsync pareto's default normalizer

# The acceptance study settings with fewer samples and repeats. Each repeat
# is its own physical trajectory, so five repeats average the seed's effect
# on the cost of a step better than more samples on fewer trajectories.
STUDY = dict(samples=4, repeats=5, accumulation=50, evaluation=50,
             start_min=1, start_max=900, horizon=1000)
NONE_STUDY = dict(STUDY, samples=4, repeats=1)

SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import twinsync, twinsync.cli
from twinsync.model import load_scene
for path in sys.argv[2:]:
    load_scene(path)
print(time.perf_counter() - start)
print(twinsync.__file__)
"""


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(1)


def import_program():
    """Import twinsync from this checkout's src/, never from anywhere else."""
    package = SRC / "twinsync"
    if not (package / "__init__.py").is_file():
        fail(f"no twinsync source at {package}")
    if not SCENES.is_dir():
        fail(f"no bundled scenes at {SCENES}")
    sys.path.insert(0, str(SRC))
    import twinsync
    import twinsync.cli
    if Path(twinsync.__file__).resolve().parent != package.resolve():
        fail(f"imported twinsync from {twinsync.__file__}, not from {package}")
    return twinsync


def scene_path(name: str) -> str:
    return str(SCENES / f"{name}.json")


# ============================================================
# Workloads
# ============================================================


@dataclass
class Op:
    """One operation of a round: the same call, with the same inputs, each round."""

    name: str
    steps: int  # world steps, from the workload's configuration
    attempted: int  # operations it counts: paired runs, CLI calls or study episodes
    run: Callable[[], object]  # returns the output compared across rounds


class PairsAllScenes:
    """One 1000-step paired run per bundled scene, knowledge checker at theta 2."""

    name = "pairs-all-scenes"
    scene_names = tuple(f"scene{i}" for i in range(1, 7))

    def __init__(self, ts, seed, scenes, workdir):
        self.ts, self.seed, self.scenes = ts, seed, scenes

    def config(self, name, **overrides):
        fields = dict(scene=self.scenes[name], scene_name=name, condition="I",
                      checker="knowledge", theta=THETA, q=1, l=1, steps=STEPS,
                      seed=self.seed)
        fields.update(overrides)
        return self.ts.harness.TwinRunConfig(**fields)

    def ops(self):
        harness = self.ts.harness
        return [Op(name, 2 * STEPS, 1,
                   lambda cfg=self.config(name): harness.run_paired(cfg))
                for name in self.scene_names]

    @staticmethod
    def same(a, b):
        return (a.u_physical == b.u_physical and a.u_twin == b.u_twin
                and a.metric_values == b.metric_values and a.updated == b.updated
                and a.memory_cost == b.memory_cost)

    @staticmethod
    def fingerprint(trace):
        return json.dumps([[float(u) for u in trace.u_physical],
                           [float(u) for u in trace.u_twin],
                           [bool(f) for f in trace.updated]]).encode()

    def check(self, outputs):
        errors = []
        for name, trace in outputs.items():
            scene = self.scenes[name]
            m, n = len(scene.drones), len(scene.objects)
            found = []
            if len(trace.u_physical) != STEPS or len(trace.updated) != STEPS:
                found.append(f"{len(trace.u_physical)} steps recorded, not {STEPS}")
            if trace.updates != sum(trace.updated):
                found.append(f"{trace.updates} updates, {sum(trace.updated)} flags set")
            found += oracles.replay_triggers(trace.metric_values, trace.updated, THETA)
            found += oracles.check_resync_utilities(trace.u_physical, trace.u_twin,
                                                    trace.updated)
            found += oracles.check_mean_abs_gap(trace.u_physical, trace.u_twin,
                                                trace.avg_utility_deviation())
            found += oracles.check_utility_grid(trace.u_physical, n, "u_physical")
            found += oracles.check_utility_grid(trace.u_twin, n, "u_twin")
            if trace.memory_cost != m * (m - 1):
                found.append(f"memory cost {trace.memory_cost!r}, m(m-1) = {m * (m - 1)}")
            errors += [f"{name}: {e}" for e in found]
        # The physical world never reads the twin: a free-running twin leaves
        # it exactly as the checked run did.
        free = self.ts.harness.run_paired(self.config("scene1", theta=math.inf))
        if free.u_physical != outputs["scene1"].u_physical:
            errors.append("scene1: u_physical differs from the theta=inf run's")
        return errors


class SweepScene1:
    """`twinsync sweep` on scene1 once per checker, then `twinsync pareto`."""

    name = "sweep-scene1"
    scene_names = ("scene1",)

    def __init__(self, ts, seed, scenes, workdir):
        self.ts, self.seed, self.workdir = ts, seed, workdir
        self.scene = scenes["scene1"]

    def csv(self, checker, jobs=1):
        return self.workdir / f"solutions-{checker}-jobs{jobs}.csv"

    def cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.ts.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"twinsync {argv[0]} exited {rc}")

    def sweep(self, checker, jobs=1):
        self.cli(["sweep", "--scene", scene_path("scene1"), "--condition", "I",
                  "--checkers", checker, "--thetas", LADDERS[checker],
                  "--repeats", str(SWEEP_REPEATS), "--steps", str(STEPS),
                  "--seed", str(self.seed), "--jobs", str(jobs),
                  "--out", str(self.csv(checker, jobs))])
        return self.csv(checker, jobs).read_bytes()

    def pareto(self):
        combined = self.workdir / "solutions.csv"
        parts = [self.csv(c).read_bytes().split(b"\n", 1) for c in LADDERS]
        combined.write_bytes(parts[0][0] + b"\n" + b"".join(body for _, body in parts))
        out = self.workdir / "pareto.csv"
        self.cli(["pareto", "--input", str(combined), "--out", str(out)])
        return out.read_bytes()

    def ops(self):
        sweeps = [Op(c, 2 * STEPS * len(LADDERS[c].split(",")) * SWEEP_REPEATS, 1,
                     lambda c=c: self.sweep(c)) for c in LADDERS]
        return sweeps + [Op("pareto", 0, 1, self.pareto)]

    same = staticmethod(lambda a, b: a == b)
    fingerprint = staticmethod(lambda csv_bytes: csv_bytes)

    def check(self, outputs):
        errors = []
        m, n, k = len(self.scene.drones), len(self.scene.objects), self.scene.k
        rows = []
        for checker in LADDERS:
            lines = outputs[checker].decode().splitlines()
            header = lines[0].split(",")
            rows += [dict(zip(header, line.split(","))) for line in lines[1:]]
        keys = sorted((r["checker"], float(r["theta"]), int(r["repeat"])) for r in rows)
        expected = sorted((c, float(t), r) for c, ladder in LADDERS.items()
                          for t in ladder.split(",") for r in range(SWEEP_REPEATS))
        if keys != expected:
            errors.append(f"rows cover {keys}, expected one per (checker, theta, repeat)")

        free = {}
        for r in rows:
            theta, dev = float(r["theta"]), float(r["avg_utility_deviation"])
            if math.isinf(theta):
                if int(r["updates"]) != 0:
                    errors.append(f"{r['checker']} inf row has {r['updates']} updates")
                free.setdefault(r["repeat"], set()).add(dev)
            if r["checker"] == "state" and theta == 0 and dev != 0.0:
                errors.append(f"state theta=0 repeat {r['repeat']} deviation {dev!r}, not 0")
            cost = float(r["memory_cost"])
            fixed = {"state": 4 * (m + n), "knowledge": m * (m - 1), "action": 2 * m}
            if r["checker"] == "action2":
                errors += oracles.check_action2_memory(cost, m, k, STEPS)
            elif cost != fixed[r["checker"]]:
                errors.append(f"{r['checker']} memory cost {cost!r}, "
                              f"expected {fixed[r['checker']]}")
        for repeat, devs in free.items():
            if len(devs) != 1:
                errors.append(f"repeat {repeat}: inf rows disagree on deviation {devs}")
        # untimed: the process pool fans the same runs out and gathers them in order
        if self.sweep(POOL_CHECKER, jobs=POOL_JOBS) != outputs[POOL_CHECKER]:
            errors.append(f"{POOL_CHECKER} sweep with --jobs {POOL_JOBS} wrote other bytes "
                          "than with --jobs 1")

        # pareto: normalization, front flags and hypervolumes from the solutions
        infs = [float(r["avg_utility_deviation"]) for r in rows if math.isinf(float(r["theta"]))]
        baseline = math.fsum(infs) / len(infs)
        points, hvs = {}, {}
        lines = outputs["pareto"].decode().splitlines()
        # pareto lists checkers in name order, each checker's rows in input order
        in_order = sorted(rows, key=lambda r: r["checker"])
        for line, r in zip(lines[1:], in_order):
            checker, theta, dev, upd, flag = line.split(",")
            want = (float(r["avg_utility_deviation"]) / baseline, int(r["updates"]) / MAX_UPDATES)
            if (checker, float(theta)) != (r["checker"], float(r["theta"])) or not (
                    math.isclose(float(dev), want[0], rel_tol=oracles.SUM_TOL)
                    and math.isclose(float(upd), want[1], rel_tol=oracles.SUM_TOL)):
                errors.append(f"pareto row {line!r} does not normalize {r}")
            points.setdefault(checker, []).append(((float(dev), float(upd)), int(flag)))
        for line in lines[1 + len(rows):]:
            tag, checker, hv = line.split(",")
            if tag == "hypervolume":
                hvs[checker] = float(hv)
        if len(lines) != 1 + len(rows) + len(LADDERS) or sorted(hvs) != sorted(LADDERS):
            errors.append(f"pareto output has {len(lines)} lines for {len(rows)} rows")
        for checker, pts in points.items():
            xy = [p for p, _ in pts]
            errors += [f"{checker}: {e}" for e in
                       oracles.check_front_flags(xy, [f for _, f in pts])]
            boxed = [p for p in xy if p[0] <= 1.0 and p[1] <= 1.0]
            errors += [f"{checker}: {e}" for e in
                       oracles.check_hypervolume(boxed, hvs.get(checker, math.nan))]
        return errors


class StudyScene6:
    """run_strategy_study on scene6 under condition I, fewer samples and repeats."""

    name = "study-scene6"
    scene_names = ("scene6",)

    def __init__(self, ts, seed, scenes, workdir):
        self.ts, self.seed, self.scene = ts, seed, scenes["scene6"]

    def config(self, condition, settings):
        return self.ts.harness.StrategyStudyConfig(
            scene=self.scene, scene_name="scene6", condition=condition,
            seed=self.seed, **settings)

    def ops(self):
        s = STUDY
        steps = s["repeats"] * (s["start_max"] + s["accumulation"] + s["evaluation"]
                                + s["samples"] * (s["accumulation"] + 3 * s["evaluation"]))
        cfg = self.config("I", STUDY)
        harness = self.ts.harness
        return [Op("study", steps, s["samples"] * s["repeats"],
                   lambda: harness.run_strategy_study(cfg))]

    same = staticmethod(lambda a, b: a.deviations == b.deviations
                        and a.start_times == b.start_times)

    @staticmethod
    def fingerprint(result):
        return json.dumps({"start_times": [int(t) for t in result.start_times],
                           "deviations": {k: [float(d) for d in v]
                                          for k, v in result.deviations.items()}},
                          sort_keys=True).encode()

    def check(self, outputs):
        errors = []
        result = outputs["study"]
        n = len(self.scene.objects)
        want = STUDY["samples"] * STUDY["repeats"]
        for strategy in ("update", "keep", "clear"):
            devs = result.deviations.get(strategy, [])
            if len(devs) != want:
                errors.append(f"{strategy}: {len(devs)} deviations, expected {want}")
            for d in devs:
                scaled = d * STUDY["evaluation"] * n
                if abs(scaled - round(scaled)) > 1e-9:
                    errors.append(f"{strategy}: deviation {d!r} x evaluation x n_objects "
                                  "is not an integer")
                    break
        # With no threat, clones carry exact stream copies and the snapshot is
        # exact, so updating or keeping the graphs reproduces the physical world.
        calm = self.ts.harness.run_strategy_study(self.config("none", NONE_STUDY))
        for strategy in ("update", "keep"):
            if any(d != 0.0 for d in calm.deviations[strategy]):
                errors.append(f"condition none: {strategy} deviations "
                              f"{calm.deviations[strategy]} are not all 0")
        return errors


WORKLOADS = {w.name: w for w in (PairsAllScenes, SweepScene1, StudyScene6)}


def digests(workload, outputs) -> dict[str, str]:
    return {name: hashlib.sha256(workload.fingerprint(out)).hexdigest()
            for name, out in sorted(outputs.items())}


def check_reference(workload, seed, outputs) -> list[str]:
    """Compare the outputs with the digests stored for this seed, if any.

    The oracles check the outputs against each other; the digests catch a
    change that keeps them consistent but changes the results, such as a
    different order of random draws.
    """
    stored = json.loads(REFERENCE.read_text()).get(workload.name, {}).get(str(seed))
    if stored is None:
        return []
    found = digests(workload, outputs)
    return [f"{name}: output differs from the reference for seed {seed}"
            for name in sorted(stored.keys() | found.keys())
            if stored.get(name) != found.get(name)]


# ============================================================
# Measurement
# ============================================================


def measure_setup(scene_names) -> float:
    """Median time of fresh processes importing twinsync and loading the scenes.

    One unmeasured probe first writes the bytecode caches.
    """
    argv = [sys.executable, "-c", SETUP_PROBE, str(SRC)] + [scene_path(s) for s in scene_names]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            fail(f"set-up probe failed: {done.stderr.strip()}")
        seconds, origin = done.stdout.split()
        if Path(origin).resolve().parent != (SRC / "twinsync").resolve():
            fail(f"set-up probe imported twinsync from {origin}")
        if i:
            samples.append(float(seconds))
    return statistics.median(samples)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class Counter:
    """Attempted and failed operations, and the first output of each operation."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, object] = {}
        self.failures: list[str] = []
        self.errors: list[str] = []

    def run(self, op: Op) -> float | None:
        """Run one operation; return its wall time, or None if it failed."""
        self.attempted += op.attempted
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += op.attempted
            self.failures.append(f"{op.name}: {exc!r}")
            return None
        elapsed = time.perf_counter() - start
        if op.name not in self.first:
            self.first[op.name] = out
        elif not self.workload.same(self.first[op.name], out):
            self.errors.append(f"{op.name}: a later round's output differs from the first's")
        return elapsed


def load_scenes(ts, names):
    return {name: ts.model.load_scene(scene_path(name)) for name in names}


def run_end_to_end(ts, cls, seed, seconds, workdir):
    setup_s = measure_setup(cls.scene_names)
    workload = cls(ts, seed, load_scenes(ts, cls.scene_names), workdir)
    ops = workload.ops()
    counter = Counter(workload)
    times = {op.name: [] for op in ops}
    start = time.perf_counter()
    while True:
        for op in ops:
            elapsed = counter.run(op)
            if elapsed is not None:
                times[op.name].append(elapsed)
        if time.perf_counter() - start >= seconds:
            break
    rss = peak_rss_mb()
    # Failed operations' times are left out, and so are the steps of an
    # operation that never succeeded: with failed > 0 a run measured less
    # work than its workload, and its steps_per_s does not compare.
    done = [op for op in ops if times[op.name]]
    if not done:
        fail("every operation failed")
    typical_round = sum(statistics.median(times[op.name]) for op in done)
    metrics = {
        "setup_s": (setup_s, "s"),
        "steps_per_s": (sum(op.steps for op in done) / typical_round, "steps/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return workload, counter, metrics


def run_traced(ts, cls, seed, seconds, workdir):
    """Alternate untraced and traced units until `seconds` have passed.

    A unit loads the workload's scenes and runs one round, so model.load_scene
    shows on every workload. Counts come from one traced unit and must repeat
    exactly in every other; self times are averaged over the traced units.
    The tracing overhead is compared in CPU time, which host steal does not
    inflate.
    """
    cpus = {False: [], True: []}
    traces: list[Tracer] = []
    counter = None
    start = time.perf_counter()
    while True:
        # alternate which unit of a pair runs first, so warm-up cost in the
        # first unit does not land on one side only
        for traced in ((False, True) if len(traces) % 2 == 0 else (True, False)):
            tracer = Tracer()
            if traced:
                tracer.install()
            try:
                c0 = cpu_seconds()
                workload = cls(ts, seed, load_scenes(ts, cls.scene_names), workdir)
                if counter is None:
                    counter = Counter(workload)
                for op in workload.ops():
                    counter.run(op)
                cpus[traced].append(cpu_seconds() - c0)
            finally:
                tracer.uninstall()
            if traced:
                traces.append(tracer)
        if time.perf_counter() - start >= seconds:
            break

    first = traces[0]
    for other in traces[1:]:
        if (other.calls, other.checks, other.triggers) != (first.calls, first.checks,
                                                           first.triggers):
            counter.errors.append("call counts differ between traced units")
    steps = sum(op.steps for op in workload.ops())
    world_steps = first.calls["worldsim.step_world"]
    if world_steps != steps:
        counter.errors.append(f"{world_steps} world steps traced, {steps} configured")

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for span in SPAN_NAMES:
        metrics[f"{span}.calls"] = (first.calls[span], "count")
        metrics[f"{span}.self_s"] = (statistics.fmean(t.self_s[span] for t in traces), "s")
    metrics["agent.build_perceptions.per_world_step"] = (
        ratio(first.calls["agent.build_perceptions"], world_steps), "calls/step")
    metrics["worldsim.world_steps"] = (world_steps, "steps")
    paired_steps = first.calls["equivalence.windowed_check"]
    metrics["equivalence.metric_evals_per_step"] = (
        ratio(sum(first.calls[s] for s in METRIC_SPANS), paired_steps), "calls/step")
    metrics["equivalence.windowed_check.trigger_ratio"] = (
        ratio(first.triggers, first.checks), "ratio")
    metrics["harness.resyncs"] = (first.triggers, "count")
    metrics["process.cpu_s"] = (statistics.median(cpus[False]), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(t - u for u, t in zip(cpus[False], cpus[True])), "s")
    return workload, counter, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ts = import_program()
    cls = WORKLOADS[args.workload]
    errors = [f"oracle self-test: {e}" for e in selftest.failures()]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        measure = run_traced if args.trace else run_end_to_end
        workload, counter, metrics = measure(ts, cls, args.seed, args.seconds, workdir)
        errors += counter.errors
        missing = [op.name for op in workload.ops() if op.name not in counter.first]
        if missing:
            errors.append(f"no output to check from {', '.join(missing)}")
        else:
            errors += workload.check(counter.first)
            errors += check_reference(workload, args.seed, counter.first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for f in counter.failures:
        print(f"operation failed: {f}", file=sys.stderr)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
