"""Twin-pair equivalence: comparison vectors, deviation metrics, windowed checks."""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .model import (FOLLOW, NOTIFY_AND_FOLLOW, RANDOM_WALK, RESPOND_AND_FOLLOW, ActionRecord,
                    WorldState)


def left_sum(values: Iterable[float]) -> float:
    """Add floats strictly left to right, starting from 0.0.

    Builtin sum() compensates float rounding from Python 3.12 on, so its
    last bits depend on the interpreter version; output CSVs must not.
    """
    total = 0.0
    for v in values:
        total += v
    return total


# ============================================================
# Comparison vectors
# ============================================================


def knowledge_vector(world: WorldState) -> np.ndarray:
    """Every unordered drone pair's edge weight, pairs in lexicographic drone order.

    The weight matrix is symmetric by construction, so its upper triangle,
    read in row order, holds each edge once.
    """
    order = np.arange(len(world.drone_x))
    return world.weights[order[:, None] < order]


def state_vector(world: WorldState) -> np.ndarray:
    """Concatenate object coordinates then drone coordinates, x then y, in entity order."""
    n = len(world.object_x)
    coords = np.empty(2 * (n + len(world.drone_x)))
    coords[0:2 * n:2] = world.object_x
    coords[1:2 * n:2] = world.object_y
    coords[2 * n::2] = world.drone_x
    coords[2 * n + 1::2] = world.drone_y
    return coords


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


def coarse_action_deviation(
    physical: Sequence[ActionRecord], twin: Sequence[ActionRecord]
) -> float:
    """Fraction of drones whose action kind differs between the worlds.

    Both worlds hold one record per drone in drone order, so records pair up
    by position; sequences of different lengths raise ValueError.
    """
    differ = sum(1 for a, b in zip(physical, twin, strict=True) if a.kind != b.kind)
    return differ / len(physical) if physical else 0.0


def fine_action_deviation(physical: ActionRecord, twin: ActionRecord, k: int) -> float:
    """Graded dissimilarity of one drone's action pair, in [0, 1].

    Same-kind pairs compare their details: followed object, responder, and
    the overlap of notified sets (scaled by the k-1 fan-out).
    A follow against a notify-and-follow costs 0.5 plus 0.5 if the objects
    differ; any other kind mismatch costs 1. Notify records exist only at
    k >= 2: a drone notifies about an object it has in range and that is not
    k-covered, so at k = 1 none does.
    """
    kind = physical.kind
    if kind != twin.kind:
        if (kind in (FOLLOW, NOTIFY_AND_FOLLOW) and twin.kind in (FOLLOW, NOTIFY_AND_FOLLOW)
                and physical.followed_object == twin.followed_object):
            return 0.5
        return 1.0
    if kind == RANDOM_WALK:
        return 0.0
    if kind == FOLLOW:
        return 0.0 if physical.followed_object == twin.followed_object else 1.0
    if kind == RESPOND_AND_FOLLOW:
        cost = 0.4
        if physical.responded_to == twin.responded_to:
            cost -= 0.2
        if physical.followed_object == twin.followed_object:
            cost -= 0.2
        return cost
    common = len(physical.notified_drones & twin.notified_drones)  # both notify
    cost = 0.5 * (1.0 - common / (k - 1))
    if physical.followed_object != twin.followed_object:
        cost += 0.5
    return cost


def mean_fine_action_deviation(
    physical: Sequence[ActionRecord], twin: Sequence[ActionRecord], k: int
) -> float:
    """Average fine-grained deviation across the swarm, records paired by position."""
    total = left_sum(fine_action_deviation(a, b, k)
                     for a, b in zip(physical, twin, strict=True))
    return total / len(physical) if physical else 0.0


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
    if t % q != 0:
        return CheckOutcome(False, None)
    total = left_sum(values[max(since, t - l):t + 1])
    return CheckOutcome(total > threshold, total)


# ============================================================
# Checker registry
# ============================================================


class Checker(NamedTuple):
    """An equivalence notion: its metric, `(physical, twin) -> float`, and its
    payload, `(m, n_obj, k, kinds) -> int`, the scalars it keeps of one world
    of m drones and n_obj objects whose records have those action kinds."""

    metric: Callable[[WorldState, WorldState], float]
    payload: Callable[[int, int, int, Iterable[str]], int]


def _fine_payload(m: int, n_obj: int, k: int, kinds: Iterable[str]) -> int:
    # a kind header per record plus its detail: any followed object, plus k - 1
    # recipients or a responder
    detail = {FOLLOW: 1, NOTIFY_AND_FOLLOW: k, RESPOND_AND_FOLLOW: 2, RANDOM_WALK: 0}
    total = 0
    for kind in kinds:
        total += 1 + detail[kind]
    return total


# A metric reads the two worlds alone, the action records they carry included. It
# looks its functions up at call time, so a name rebound by a tracer sees every call.
CHECKERS = {
    "state": Checker(lambda p, t: state_deviation(state_vector(p), state_vector(t)),
                     lambda m, n_obj, k, kinds: 2 * (m + n_obj)),
    "knowledge": Checker(lambda p, t: drift(knowledge_vector(p), knowledge_vector(t)),
                         lambda m, n_obj, k, kinds: m * (m - 1) // 2),
    "action": Checker(lambda p, t: coarse_action_deviation(p.actions, t.actions),
                      lambda m, n_obj, k, kinds: m),
    "action2": Checker(
        lambda p, t: mean_fine_action_deviation(p.actions, t.actions, p.params.k), _fine_payload),
}

CHECKER_NAMES = tuple(CHECKERS)
