"""Paired physical/twin execution: threats, snapshots, updates, studies."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from typing import Iterable

import numpy as np

from .analysis import avg_utility_deviation, comparison_memory_cost
from .equivalence import CHECKERS, windowed_check
from .model import SceneSpec, WorldState, read_only, validate_scene
from .agent import build_perceptions
from .worldsim import step_world, utility_k

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
    *,
    steps: int,
    channels: tuple[int, ...] = (CHANNEL_CHOICE, CHANNEL_WALK),
) -> tuple[np.ndarray, ...]:
    """Pre-drawn tapes, one (steps, m) float64 array per channel asked for.

    Column c of a tape holds the first `steps` uniforms of drone
    `drone_ids[c]`'s private stream for that channel, so row t is what the
    fleet draws at its t-th step. By default both tapes come back, choice
    then walk; a twin under seed divergence asks for its choice tape alone
    and shares its physical counterpart's walk tape.
    """
    ids = list(drone_ids)
    tapes = tuple(np.empty((steps, len(ids))) for _ in channels)
    for tape, channel in zip(tapes, channels):
        for c, i in enumerate(ids):
            tape[:, c] = derive_rng(seed, STREAM_AGENT, *salt, i, channel).random(steps)
    return tapes


# ============================================================
# Threats
# ============================================================


@dataclass(frozen=True)
class ThreatConfig:
    """Which divergence channels are switched on for a paired run."""

    bias_degrees: float = 0.0  # leftward per-step rotation of object headings (physical only)
    divergent_seeds: bool = False  # twin agents pick objects from a different seed
    estimation_error_max: float = 0.0  # > 0: snapshots estimate uncovered objects' positions


CONDITIONS: dict[str, ThreatConfig] = {
    "none": ThreatConfig(),
    "I": ThreatConfig(bias_degrees=3.0, divergent_seeds=True),
    "II": ThreatConfig(bias_degrees=3.0, estimation_error_max=5.0),
}


# ============================================================
# Snapshots and twin updates
# ============================================================


def sense_snapshot(
    physical: WorldState,
    threat: ThreatConfig,
    rng: np.random.Generator,
) -> WorldState:
    """The world the physical side reports when the twin asks for a resync.

    Everything is reported exactly, so the snapshot is the physical world
    itself, unless e = threat.estimation_error_max > 0 and some object is
    uncovered. Uncovered objects get per-coordinate U[0, e] position noise,
    drawn x then y in object order and clamped into bounds; the snapshot is
    then the physical world with the reported positions, sensed once there.
    """
    if threat.estimation_error_max == 0 or all(physical.coverage):
        return physical
    e = threat.estimation_error_max
    width, height = physical.params.bounds
    object_x, object_y = list(physical.object_x), list(physical.object_y)
    for j, count in enumerate(physical.coverage):
        if count == 0:
            x, y = object_x[j] + rng.uniform(0.0, e), object_y[j] + rng.uniform(0.0, e)
            object_x[j], object_y[j] = min(max(x, 0.0), width), min(max(y, 0.0), height)
    in_range, coverage = build_perceptions(
        physical.drone_x, physical.drone_y, object_x, object_y, physical.params.sensing_range)
    return replace(physical, object_x=tuple(object_x), object_y=tuple(object_y),
                   in_range=in_range, coverage=coverage)


STRATEGIES = ("update", "keep", "clear")


def apply_update(twin: WorldState, snapshot: WorldState, strategy: str) -> WorldState:
    """The twin after a resync from a snapshot: the snapshot with a chosen weight matrix.

    "update" takes the snapshot's weights, "keep" the twin's own (both
    shared, not copied), and "clear" zeroes every edge. Everything else,
    sensing included, is the snapshot's. Agent draw tapes are never touched.
    Paired runs always take the snapshot whole; the strategy study compares
    all three.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown update strategy {strategy!r}")
    if snapshot.time != twin.time:
        raise ValueError(f"snapshot time {snapshot.time} does not match twin time {twin.time}")
    if strategy == "update":
        return snapshot
    weights = twin.weights if strategy == "keep" else read_only(np.zeros_like(twin.weights))
    return replace(snapshot, weights=weights)


# ============================================================
# Paired lockstep runs
# ============================================================


class ConfigError(ValueError):
    """A config field breaks its rule; the message starts with the field's name."""

    def __init__(self, field: str, problem: str):
        super().__init__(f"{field} {problem}")
        self.field = field
        self.problem = problem


def _require(ok: bool, field: str, problem: str) -> None:
    if not ok:
        raise ConfigError(field, problem)


def _one_of(config, field: str, options) -> None:
    value = getattr(config, field)
    _require(value in options, field, f"{value!r} is not a known {field.replace('_', ' ')}; "
             f"expected one of {', '.join(options)}")


def _at_least(config, field: str, low: int, low_name: str = "") -> None:
    value = getattr(config, field)
    # bool is an int to Python, and a float like 1.5 would be used as given
    _require(isinstance(value, Integral) and not isinstance(value, bool), field,
             f"must be an integer, got {value!r}")
    _require(value >= low, field, f"must be >= {low_name}{low}, got {value}")


def _valid_scene(config) -> None:
    violations = validate_scene(config.scene)
    _require(not violations, "scene", "is invalid: " + "; ".join(violations))


@dataclass(frozen=True)
class TwinRunConfig:
    """Everything a paired run needs; world parameters come from the scene.

    Every field is checked when the config is built, the scene last with
    `validate_scene`, and a bad one raises ConfigError naming it. The step
    loop relies on these checks and does not repeat them.
    """

    scene: SceneSpec
    scene_name: str = "scene"
    condition: str = "none"
    checker: str = "state"
    theta: float = math.inf  # inf never updates, -1 updates at every check
    q: int = 1
    l: int = 1
    steps: int = 1000
    seed: int = 0  # a divergent twin draws its choices from seed + 1

    def __post_init__(self):
        _one_of(self, "condition", CONDITIONS)
        _one_of(self, "checker", CHECKERS)
        # bool is a number to Python, and a string fails inside math.isnan
        _require(isinstance(self.theta, Real) and not isinstance(self.theta, bool), "theta",
                 f"must be a number, got {self.theta!r}")
        # NaN compares false with every window sum, so the run would never update
        _require(not math.isnan(self.theta), "theta", "must not be NaN")
        for name in ("q", "l", "steps"):
            _at_least(self, name, 1)
        _at_least(self, "seed", 0)
        _valid_scene(self)


@dataclass
class Trace:
    """Per-step record of one paired run plus its final counters."""

    u_physical: list[float] = field(default_factory=list)
    u_twin: list[float] = field(default_factory=list)
    metric_values: list[float] = field(default_factory=list)
    updated: list[bool] = field(default_factory=list)
    memory_cost: float = 0.0

    @property
    def updates(self) -> int:
        return self.updated.count(True)

    def avg_utility_deviation(self) -> float:
        return avg_utility_deviation(self.u_physical, self.u_twin)


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
    threat = CONDITIONS[config.condition]
    metric = CHECKERS[config.checker].metric
    physical = twin = config.scene.build_world()  # world states are immutable
    m, n_obj = len(physical.drone_ids), len(physical.object_ids)

    ids = physical.drone_ids
    phys_choice, walk = agent_streams(config.seed, ids, steps=config.steps)
    if threat.divergent_seeds:
        # Only the choice channel diverges; the walk tape is shared so a
        # freshly re-synced twin keeps sampling the same wander angles.
        (twin_choice,) = agent_streams(config.seed + 1, ids, steps=config.steps,
                                       channels=(CHANNEL_CHOICE,))
    else:
        twin_choice = phys_choice
    noise_rng = derive_rng(config.seed, STREAM_NOISE)

    trace = Trace()
    since = 0  # first step of the current twin's check window
    cost = 0.0  # running sum of the per-step memory costs, each an integer

    for t in range(config.steps):
        trace.metric_values.append(metric(physical, twin))
        cost += comparison_memory_cost(
            config.checker, m, n_obj, k=physical.params.k,
            step_kinds=((a.kind for a in physical.actions),
                        (a.kind for a in twin.actions)),
        )

        outcome = windowed_check(
            trace.metric_values, t, config.q, config.l, config.theta, since
        )
        if outcome.triggered:
            # the resynced twin is the snapshot, graphs included; it carries
            # the physical world's actions, but it steps again before the
            # next metric reads them
            twin = sense_snapshot(physical, threat, noise_rng)
            since = t + 1
        trace.updated.append(outcome.triggered)

        # Utilities describe the tick as the manager leaves it: the metric and
        # the window are read from the pre-update twin, but the recorded u'
        # reflects any re-init applied this tick.
        trace.u_physical.append(utility_k(physical))
        trace.u_twin.append(utility_k(twin))

        walks = walk[t].tolist()
        physical = step_world(physical, phys_choice[t].tolist(), walks,
                              bias_degrees=threat.bias_degrees)
        twin = step_world(twin, twin_choice[t].tolist(), walks)

    trace.memory_cost = cost / config.steps
    return trace


# ============================================================
# Update-strategy study
# ============================================================


@dataclass(frozen=True)
class StrategyStudyConfig:
    """Clone-accumulate-update-evaluate experiment over sampled start times.

    Every field is checked when the config is built, as in TwinRunConfig.
    """

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

    def __post_init__(self):
        _one_of(self, "condition", CONDITIONS)
        for name, low in (("samples", 1), ("repeats", 1), ("seed", 0),
                          ("accumulation", 0), ("evaluation", 1), ("start_min", 0)):
            _at_least(self, name, low)
        _at_least(self, "start_max", self.start_min, "start_min ")
        _at_least(self, "horizon", self.start_max + self.accumulation + self.evaluation,
                  "start_max + accumulation + evaluation = ")
        _valid_scene(self)


@dataclass
class StrategyStudyResult:
    """Per-strategy deviation samples, one per (repeat, start time)."""

    start_times: list[int]
    deviations: dict[str, list[float]]


def run_strategy_study(config: StrategyStudyConfig) -> StrategyStudyResult:
    """Compare the three update strategies on identical drift episodes.

    Per repeat, one physical trajectory runs to step start_max +
    accumulation + evaluation, the last step any start could evaluate,
    whichever starts were drawn. At each sampled start the twin is cloned
    from the physical world and reads the physical draw tapes on from the
    clone's row (under seed divergence its choice channel reads the
    divergent seed's tape from row 0), drifts for the accumulation phase,
    receives one shared snapshot through each strategy in turn, and is
    scored on mean |u - u'| over the evaluation phase. Every strategy sees
    identical worlds, draws, and snapshot bytes at the branch point.
    """
    threat = CONDITIONS[config.condition]
    branch_steps = config.accumulation + config.evaluation
    run_to = config.start_max + branch_steps

    study_rng = derive_rng(config.seed, STREAM_STUDY)
    start_times = sorted(
        int(s)
        for s in study_rng.integers(
            config.start_min, config.start_max + 1, size=config.samples
        )
    )
    # the physical worlds that clones start from and snapshots are taken of
    kept_steps = set(start_times) | {s + config.accumulation for s in start_times}

    deviations: dict[str, list[float]] = {s: [] for s in STRATEGIES}

    for rep in range(config.repeats):
        physical = config.scene.build_world()
        ids = physical.drone_ids
        choice, walk = agent_streams(config.seed, ids, salt=(rep,), steps=run_to)
        if threat.divergent_seeds:
            # every clone's choice channel restarts on the divergent seed
            (divergent,) = agent_streams(config.seed + 1, ids, salt=(rep,),
                                         steps=branch_steps, channels=(CHANNEL_CHOICE,))
        noise_rng = derive_rng(config.seed, STREAM_NOISE, rep)

        u_phys = []
        worlds: dict[int, WorldState] = {}
        for t in range(run_to + 1):
            if t > 0:
                physical = step_world(physical, choice[t - 1].tolist(), walk[t - 1].tolist(),
                                      bias_degrees=threat.bias_degrees)
            u_phys.append(utility_k(physical))
            if t in kept_steps:
                worlds[t] = physical

        for start in start_times:
            # A clone at `start` continues the physical tapes from row `start`;
            # a divergent choice channel reads its own tape from row 0.
            twin_choice = divergent if threat.divergent_seeds else \
                choice[start:start + branch_steps]
            draws = list(zip(twin_choice.tolist(), walk[start:start + branch_steps].tolist()))
            twin = worlds[start]  # world states are immutable, sharing is safe
            for c, w in draws[:config.accumulation]:
                twin = step_world(twin, c, w)

            update_at = start + config.accumulation
            snapshot = sense_snapshot(worlds[update_at], threat, noise_rng)
            for strategy in STRATEGIES:
                branch = apply_update(twin, snapshot, strategy)
                u_branch = []
                for c, w in draws[config.accumulation:]:
                    branch = step_world(branch, c, w)
                    u_branch.append(utility_k(branch))
                deviations[strategy].append(avg_utility_deviation(
                    u_phys[update_at + 1:update_at + 1 + config.evaluation], u_branch))

    return StrategyStudyResult(start_times, deviations)
