"""Paired physical/twin execution: threats, snapshots, updates, studies."""

from __future__ import annotations

import copy
import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .analysis import avg_utility_deviation, comparison_memory_cost, left_sum
from .equivalence import get_checker, windowed_check
from .model import (
    DroneState,
    ObjectState,
    SceneSpec,
    Vec2,
    WorldState,
    read_only,
)
from .agent import AgentStreams, build_perceptions
from .worldsim import clamp_point, coverage_map, step_world, utility_k

# ============================================================
# Randomness plumbing
# ============================================================

# Stream tags keep unrelated consumers on provably distinct substreams.
STREAM_AGENT = 1
STREAM_NOISE = 2
STREAM_SCENE = 3
STREAM_STUDY = 4


def derive_rng(*entropy: int) -> np.random.Generator:
    """A PCG64 generator keyed by an integer tuple; same tuple, same stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# Channel tags inside a drone's stream family.
CHANNEL_CHOICE = 0
CHANNEL_WALK = 1


def agent_streams(
    seed: int,
    drone_ids: Iterable[int],
    salt: tuple[int, ...] = (),
    walk_seed: int | None = None,
) -> dict[int, AgentStreams]:
    """Private choice and walk streams per drone.

    `walk_seed` defaults to `seed`; passing a different value keys only the
    choice channel to `seed`, which is how a twin diverges on object picks
    while sampling the same movement noise as its physical counterpart.
    """
    wseed = seed if walk_seed is None else walk_seed
    return {
        i: AgentStreams(
            derive_rng(seed, STREAM_AGENT, *salt, i, CHANNEL_CHOICE),
            derive_rng(wseed, STREAM_AGENT, *salt, i, CHANNEL_WALK),
        )
        for i in drone_ids
    }


# ============================================================
# Threats
# ============================================================


@dataclass(frozen=True)
class ThreatConfig:
    """Which divergence channels are switched on for a paired run."""

    bias_degrees: float = 0.0  # leftward per-step rotation of object headings (physical only)
    divergent_seeds: bool = False  # twin agents pick objects from a different seed
    sensor_limited: bool = False  # uncovered objects are position-estimated in snapshots
    estimation_error_max: float = 0.0


CONDITIONS: dict[str, ThreatConfig] = {
    "none": ThreatConfig(),
    "I": ThreatConfig(bias_degrees=3.0, divergent_seeds=True),
    "II": ThreatConfig(bias_degrees=3.0, sensor_limited=True, estimation_error_max=5.0),
}


# ============================================================
# Snapshots and twin updates
# ============================================================


@dataclass(frozen=True)
class SnapshotObject:
    id: int
    position: Vec2
    direction: float
    important: bool
    estimated: bool  # position is a noisy estimate, not a measurement


@dataclass(frozen=True, eq=False)
class Snapshot:
    """What the physical side reports when the twin asks for a resync.

    Drones and the weight matrix are reported exactly, so the snapshot
    shares them with the physical world instead of copying them.
    """

    time: int
    objects: tuple[SnapshotObject, ...]
    drones: tuple[DroneState, ...]
    weights: np.ndarray


def sense_snapshot(
    physical: WorldState,
    threat: ThreatConfig,
    rng: np.random.Generator,
    signed_noise: bool = False,
) -> Snapshot:
    """Capture the physical world for an update.

    Under a sensor-limited threat, objects nobody currently covers get their
    position estimated with per-coordinate noise (U[0, e] by default,
    U[-e, e] when signed), clamped into bounds and flagged. Directions,
    importance, inboxes, and edge weights are reported exactly.
    """
    uncovered: set[int] = set()
    if threat.sensor_limited:
        cov = coverage_map(physical).tolist()
        uncovered = {o.id for o, n in zip(physical.objects, cov) if n == 0}

    objects = []
    for o in physical.objects:
        pos = o.position
        estimated = False
        if o.id in uncovered:
            e = threat.estimation_error_max
            lo = -e if signed_noise else 0.0
            pos = clamp_point(
                Vec2(pos.x + rng.uniform(lo, e), pos.y + rng.uniform(lo, e)),
                physical.params.bounds,
            )
            estimated = True
        objects.append(SnapshotObject(o.id, pos, o.direction, o.important, estimated))

    return Snapshot(physical.time, tuple(objects), physical.drones, physical.weights)


STRATEGIES = ("update", "keep", "clear")


def apply_update(twin: WorldState, snapshot: Snapshot, strategy: str) -> WorldState:
    """Overwrite the twin from a snapshot.

    All strategies replace positions, directions, importance flags, and
    inboxes, and sense the new positions afresh. They differ on the weight
    matrix: "update" takes the snapshot's, "keep" leaves the twin's own in
    place (both shared, not copied), "clear" zeroes every edge. Agent rng
    streams are never touched.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown update strategy {strategy!r}")
    if snapshot.time != twin.time:
        raise ValueError(
            f"snapshot time {snapshot.time} does not match twin time {twin.time}"
        )
    objects = tuple(
        ObjectState(o.id, o.position, o.direction, o.important)
        for o in snapshot.objects
    )
    if strategy == "update":
        weights = snapshot.weights
    elif strategy == "keep":
        weights = twin.weights
    else:
        weights = read_only(np.zeros_like(twin.weights))
    in_range = build_perceptions(snapshot.drones, objects, twin.params.sensing_range)
    return WorldState(twin.time, objects, snapshot.drones, twin.params, weights, in_range)


# ============================================================
# Paired lockstep runs
# ============================================================


@dataclass(frozen=True)
class TwinRunConfig:
    """Everything a paired run needs; world parameters come from the scene."""

    scene: SceneSpec
    scene_name: str = "scene"
    condition: str = "none"
    checker: str = "state"
    theta: float = math.inf
    q: int = 1
    l: int = 1
    steps: int = 1000
    seed: int = 0
    twin_seed: int | None = None  # defaults to seed + 1 when divergence is on
    strategy: str = "update"
    bias_mode: str = "accumulate"
    signed_noise: bool = False


@dataclass
class Trace:
    """Per-step record of one paired run plus its final counters."""

    config: TwinRunConfig
    u_physical: list[float] = field(default_factory=list)
    u_twin: list[float] = field(default_factory=list)
    metric_values: list[float] = field(default_factory=list)
    updated: list[bool] = field(default_factory=list)
    update_steps: list[int] = field(default_factory=list)
    memory_cost: float = 0.0

    @property
    def updates(self) -> int:
        return len(self.update_steps)

    @property
    def steps(self) -> int:
        return len(self.u_physical)

    def avg_utility_deviation(self) -> float:
        return avg_utility_deviation(self.u_physical, self.u_twin)

    def rows(self):
        for t in range(self.steps):
            yield (
                t,
                self.u_physical[t],
                self.u_twin[t],
                self.metric_values[t],
                int(self.updated[t]),
            )


def run_paired(config: TwinRunConfig) -> Trace:
    """Run physical and twin worlds in lockstep with checker-triggered updates.

    Each step: record the checker's metric value, run the windowed check
    over the recorded values on the q-grid, resync the twin on a trigger,
    measure both utilities, then advance both worlds. A resync restarts the
    check window, so later checks sum only steps after it; the trace's metric
    values keep the pre-update divergence of every step.
    Utilities come last so u' describes the twin the step hands onward: a
    resynced twin scores as resynced. Only the physical world sees the
    heading bias; only the twin agents' choice draws come from a different
    seed under seed divergence.
    """
    threat = CONDITIONS.get(config.condition)
    if threat is None:
        raise ValueError(f"unknown condition {config.condition!r}")
    checker = get_checker(config.checker)
    if config.strategy not in STRATEGIES:
        raise ValueError(f"unknown update strategy {config.strategy!r}")
    if config.steps < 1:
        raise ValueError(f"steps must be >= 1, got {config.steps}")

    physical = config.scene.build_world()
    twin = config.scene.build_world()
    k = physical.params.k
    if config.checker == "action2" and k < 2:
        raise ValueError("checker action2 needs k >= 2")
    m, n_obj = len(physical.drones), len(physical.objects)

    ids = [d.id for d in physical.drones]
    phys_rngs = agent_streams(config.seed, ids)
    if threat.divergent_seeds:
        twin_base = config.twin_seed if config.twin_seed is not None else config.seed + 1
        # Only the choice channel diverges; walks stay on the shared seed so
        # a freshly re-synced twin keeps sampling the same wander angles.
        twin_rngs = agent_streams(twin_base, ids, walk_seed=config.seed)
    else:
        twin_rngs = agent_streams(config.seed, ids)
    noise_rng = derive_rng(config.seed, STREAM_NOISE)

    trace = Trace(config)
    since = 0  # first step of the current twin's check window
    prev_actions_phys: tuple = ()
    prev_actions_twin: tuple = ()
    action2_cost = 0.0  # running sum of the per-step action2 costs

    for t in range(config.steps):
        trace.metric_values.append(
            checker(physical, twin, prev_actions_phys, prev_actions_twin, k)
        )
        if config.checker == "action2":
            action2_cost += comparison_memory_cost(
                "action2", m, n_obj, k=k,
                step_kinds=([a.kind.value for a in prev_actions_phys],
                            [a.kind.value for a in prev_actions_twin]),
            )

        outcome = windowed_check(
            trace.metric_values, t, config.q, config.l, config.theta, since
        )
        if outcome.triggered:
            snapshot = sense_snapshot(physical, threat, noise_rng, config.signed_noise)
            twin = apply_update(twin, snapshot, config.strategy)
            since = t + 1
            trace.update_steps.append(t)
        trace.updated.append(outcome.triggered)

        # Utilities describe the tick as the manager leaves it: the metric and
        # the window are read from the pre-update twin, but the recorded u'
        # reflects any re-init applied this tick.
        trace.u_physical.append(utility_k(physical, k))
        trace.u_twin.append(utility_k(twin, k))

        physical, prev_actions_phys = step_world(
            physical,
            phys_rngs,
            bias_degrees=threat.bias_degrees,
            bias_mode=config.bias_mode,
        )
        twin, prev_actions_twin = step_world(twin, twin_rngs)

    if config.checker == "action2":
        trace.memory_cost = action2_cost / config.steps
    else:
        trace.memory_cost = comparison_memory_cost(config.checker, m, n_obj)
    return trace


# ============================================================
# Summary rows (shared by run and sweep)
# ============================================================

SUMMARY_HEADER = (
    "scene",
    "condition",
    "checker",
    "theta",
    "q",
    "l",
    "seed",
    "repeat",
    "updates",
    "avg_utility_deviation",
    "memory_cost",
)


def summary_row(trace: Trace, repeat: int = 0) -> tuple:
    cfg = trace.config
    return (
        cfg.scene_name,
        cfg.condition,
        cfg.checker,
        repr(cfg.theta),
        cfg.q,
        cfg.l,
        cfg.seed,
        repeat,
        trace.updates,
        repr(trace.avg_utility_deviation()),
        repr(trace.memory_cost),
    )


# ============================================================
# Update-strategy study
# ============================================================


@dataclass(frozen=True)
class StrategyStudyConfig:
    """Clone-accumulate-update-evaluate experiment over sampled start times."""

    scene: SceneSpec
    scene_name: str = "scene"
    condition: str = "I"
    samples: int = 30
    repeats: int = 10
    seed: int = 0
    accumulation: int = 50  # steps the clone drifts before the update
    evaluation: int = 50  # steps scored after the update
    start_min: int = 1
    start_max: int = 900
    horizon: int = 1000
    bias_mode: str = "accumulate"
    signed_noise: bool = False


@dataclass
class StrategyStudyResult:
    """Per-strategy deviation samples, one per (repeat, start time)."""

    config: StrategyStudyConfig
    start_times: list[int]
    deviations: dict[str, list[float]]

    def mean(self, strategy: str) -> float:
        return statistics.fmean(self.deviations[strategy])

    def stdev(self, strategy: str) -> float:
        values = self.deviations[strategy]
        return statistics.stdev(values) if len(values) > 1 else 0.0

    def stderr(self, strategy: str) -> float:
        values = self.deviations[strategy]
        return self.stdev(strategy) / math.sqrt(len(values)) if values else 0.0


def run_strategy_study(config: StrategyStudyConfig) -> StrategyStudyResult:
    """Compare the three update strategies on identical drift episodes.

    Per repeat, one physical trajectory runs to the horizon. At each sampled
    start the twin is cloned from the physical world with exact stream
    copies (under seed divergence its choice channel is re-keyed to the
    divergent seed), drifts for the accumulation phase, receives one shared
    snapshot through each strategy in turn, and is scored on mean |u - u'|
    over the evaluation phase. Every strategy sees identical worlds,
    streams, and snapshot bytes at the branch point.
    """
    threat = CONDITIONS.get(config.condition)
    if threat is None:
        raise ValueError(f"unknown condition {config.condition!r}")
    if config.samples < 1 or config.repeats < 1:
        raise ValueError("samples and repeats must be >= 1")
    if config.accumulation < 0:
        raise ValueError(f"accumulation must be >= 0, got {config.accumulation}")
    if config.evaluation < 1:
        raise ValueError(f"evaluation must be >= 1, got {config.evaluation}")
    if not (0 <= config.start_min <= config.start_max):
        raise ValueError("need 0 <= start_min <= start_max")
    last_needed = config.start_max + config.accumulation + config.evaluation
    if last_needed > config.horizon:
        raise ValueError(
            f"start_max {config.start_max} + phases {config.accumulation}+"
            f"{config.evaluation} overruns the horizon {config.horizon}"
        )

    study_rng = derive_rng(config.seed, STREAM_STUDY)
    start_times = sorted(
        int(s)
        for s in study_rng.integers(
            config.start_min, config.start_max + 1, size=config.samples
        )
    )
    clone_points = set(start_times)
    snapshot_points = {s + config.accumulation for s in start_times}

    k = config.scene.k
    ids = [d.id for d in config.scene.drones]
    deviations: dict[str, list[float]] = {s: [] for s in STRATEGIES}

    for rep in range(config.repeats):
        physical = config.scene.build_world()
        phys_rngs = agent_streams(config.seed, ids, salt=(rep,))
        noise_rng = derive_rng(config.seed, STREAM_NOISE, rep)

        u_phys = [utility_k(physical, k)]
        worlds: dict[int, WorldState] = {}
        stream_copies: dict[int, dict[int, AgentStreams]] = {}
        if 0 in clone_points:
            worlds[0] = physical
            stream_copies[0] = copy.deepcopy(phys_rngs)
        run_to = config.start_max + config.accumulation + config.evaluation
        for t in range(1, run_to + 1):
            physical, _ = step_world(
                physical,
                phys_rngs,
                bias_degrees=threat.bias_degrees,
                bias_mode=config.bias_mode,
            )
            u_phys.append(utility_k(physical, k))
            if t in clone_points or t in snapshot_points:
                worlds[t] = physical
                if t in clone_points:
                    stream_copies[t] = copy.deepcopy(phys_rngs)

        for start in start_times:
            twin = worlds[start]  # world states are immutable, sharing is safe
            twin_rngs = copy.deepcopy(stream_copies[start])
            if threat.divergent_seeds:
                divergent = agent_streams(config.seed + 1, ids, salt=(rep,))
                twin_rngs = {
                    i: AgentStreams(divergent[i].choice, twin_rngs[i].walk)
                    for i in ids
                }
            for _ in range(config.accumulation):
                twin, _ = step_world(twin, twin_rngs)

            update_at = start + config.accumulation
            snapshot = sense_snapshot(
                worlds[update_at], threat, noise_rng, config.signed_noise
            )
            for strategy in STRATEGIES:
                branch = apply_update(twin, snapshot, strategy)
                branch_rngs = copy.deepcopy(twin_rngs)
                gaps = []
                for step in range(1, config.evaluation + 1):
                    branch, _ = step_world(branch, branch_rngs)
                    gaps.append(
                        abs(u_phys[update_at + step] - utility_k(branch, k))
                    )
                deviations[strategy].append(left_sum(gaps) / len(gaps))

    return StrategyStudyResult(config, start_times, deviations)
