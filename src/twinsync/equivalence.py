"""Twin-pair equivalence: comparison vectors, deviation metrics, windowed checks."""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .analysis import left_sum
from .model import ActionKind, ActionRecord, WorldState

# ============================================================
# Comparison vectors
# ============================================================


def knowledge_vector(world: WorldState) -> np.ndarray:
    """Every unordered drone pair's edge weight, pairs in lexicographic id order.

    The weight matrix is symmetric by construction, so its upper triangle,
    read in row order, holds each edge once.
    """
    order = np.arange(len(world.drones))
    return world.weights[order[:, None] < order]


def state_vector(world: WorldState) -> np.ndarray:
    """Concatenate object coordinates then drone coordinates, ascending ids."""
    coords: list[float] = []
    for o in sorted(world.objects, key=lambda o: o.id):
        coords.append(o.position.x)
        coords.append(o.position.y)
    for d in sorted(world.drones, key=lambda d: d.id):
        coords.append(d.position.x)
        coords.append(d.position.y)
    return np.asarray(coords, dtype=float)


def _euclidean(a: np.ndarray, b: np.ndarray, what: str) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"{what} length mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def drift(w_physical: np.ndarray, w_twin: np.ndarray) -> float:
    """Euclidean distance between two knowledge vectors."""
    return _euclidean(w_physical, w_twin, "knowledge vector")


def state_deviation(s_physical: np.ndarray, s_twin: np.ndarray) -> float:
    """Euclidean distance between two state vectors."""
    return _euclidean(s_physical, s_twin, "state vector")


# ============================================================
# Action comparison
# ============================================================


def _by_drone(records: Sequence[ActionRecord]) -> dict[int, ActionRecord]:
    out = {r.drone_id: r for r in records}
    if len(out) != len(records):
        raise ValueError("duplicate drone id in action records")
    return out


def coarse_action_deviation(
    physical: Sequence[ActionRecord], twin: Sequence[ActionRecord]
) -> float:
    """Fraction of drones whose action kind differs between the worlds."""
    a = _by_drone(physical)
    b = _by_drone(twin)
    if a.keys() != b.keys():
        raise ValueError("action records cover different drone id sets")
    if not a:
        return 0.0
    mismatched = sum(1 for i in a if a[i].kind is not b[i].kind)
    return mismatched / len(a)


def fine_action_deviation(physical: ActionRecord, twin: ActionRecord, k: int) -> float:
    """Graded dissimilarity of one drone's action pair, in [0, 1].

    Same-kind pairs compare their details: followed object, responder
    identity, and the overlap of notified sets (scaled by the k-1 fan-out).
    A follow against a notify-and-follow costs 0.5 plus 0.5 if the objects
    differ; any other kind mismatch costs 1.
    """
    if k < 2:
        raise ValueError(f"fine-grained comparison needs k >= 2, got {k}")
    if physical.drone_id != twin.drone_id:
        raise ValueError("fine-grained comparison crosses drone ids")
    pk, tk = physical.kind, twin.kind

    if pk is ActionKind.RANDOM_WALK and tk is ActionKind.RANDOM_WALK:
        return 0.0
    if pk is ActionKind.FOLLOW and tk is ActionKind.FOLLOW:
        return 0.0 if physical.followed_object == twin.followed_object else 1.0
    if pk is ActionKind.RESPOND_AND_FOLLOW and tk is ActionKind.RESPOND_AND_FOLLOW:
        cost = 0.4
        if physical.responded_to == twin.responded_to:
            cost -= 0.2
        if physical.followed_object == twin.followed_object:
            cost -= 0.2
        return cost
    if pk is ActionKind.NOTIFY_AND_FOLLOW and tk is ActionKind.NOTIFY_AND_FOLLOW:
        common = len(physical.notified_drones & twin.notified_drones)
        cost = 0.5 * (1.0 - common / (k - 1))
        if physical.followed_object != twin.followed_object:
            cost += 0.5
        return cost
    if {pk, tk} == {ActionKind.FOLLOW, ActionKind.NOTIFY_AND_FOLLOW}:
        return 0.5 if physical.followed_object == twin.followed_object else 1.0
    return 1.0


def mean_fine_action_deviation(
    physical: Sequence[ActionRecord], twin: Sequence[ActionRecord], k: int
) -> float:
    """Average fine-grained deviation across the swarm."""
    a = _by_drone(physical)
    b = _by_drone(twin)
    if a.keys() != b.keys():
        raise ValueError("action records cover different drone id sets")
    if not a:
        return 0.0
    return left_sum(fine_action_deviation(a[i], b[i], k) for i in a) / len(a)


# ============================================================
# Windowed checking
# ============================================================


class CheckOutcome(NamedTuple):
    triggered: bool
    value: float | None  # accumulated window sum; None off the check grid


def windowed_check(
    values: Sequence[float],
    t: int,
    q: int,
    l: int,
    threshold: float,
    since: int,
) -> CheckOutcome:
    """Sum the per-step metric values over steps [max(since, t-l), t] and compare.

    `values[i]` is step i's metric value. `since` is the first step of the
    current twin: 0 at the start of a run, and the step after the last resync,
    so the replaced twin's drift never counts against the one that took its
    place. The sum runs left to right from 0.0.

    Runs only when t is a multiple of the checking interval q. The trigger is
    strict (sum > threshold): +inf never fires, -1 always fires since the
    metrics are nonnegative.
    """
    if q < 1:
        raise ValueError(f"checking interval must be >= 1, got {q}")
    if l < 1:
        raise ValueError(f"window length must be >= 1, got {l}")
    if t % q != 0:
        return CheckOutcome(False, None)
    total = left_sum(values[max(since, t - l):t + 1])
    return CheckOutcome(total > threshold, total)


# ============================================================
# Checker registry
# ============================================================

# Each checker scores one paired step from both worlds and the actions that
# produced them: (physical, twin, actions_physical, actions_twin, k) -> float.
# k matters only to the fine-grained action comparison.
Checker = Callable[
    [WorldState, WorldState, Sequence[ActionRecord], Sequence[ActionRecord], int], float
]

CHECKERS: dict[str, Checker] = {
    "state": lambda p, t, ap, at, k: state_deviation(state_vector(p), state_vector(t)),
    "knowledge": lambda p, t, ap, at, k: drift(knowledge_vector(p), knowledge_vector(t)),
    "action": lambda p, t, ap, at, k: coarse_action_deviation(ap, at),
    "action2": lambda p, t, ap, at, k: mean_fine_action_deviation(ap, at, k),
}

CHECKER_NAMES = tuple(CHECKERS)


def get_checker(name: str) -> Checker:
    try:
        return CHECKERS[name]
    except KeyError:
        raise ValueError(
            f"unknown checker {name!r}; expected one of {', '.join(CHECKERS)}"
        ) from None
