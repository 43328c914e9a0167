"""Twin-pair equivalence: comparison vectors, deviation metrics, windowed checks."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

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
    return sum(fine_action_deviation(a[i], b[i], k) for i in a) / len(a)


# ============================================================
# Windowed checking
# ============================================================


class HistoryEntry(NamedTuple):
    t: int
    physical: object
    twin: object


class CheckerHistory:
    """Ring buffer of per-step comparison payloads for both worlds.

    Keeps the window + 1 most recent entries, which is exactly what a
    window-sum over [t - window, t] needs. Payloads are recorded at sensing
    time and never rewritten. `restart` drops every entry, which is how a
    resync starts a fresh window: the replaced twin's drift must not count
    against the twin that took its place.
    """

    def __init__(self, window: int):
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self.window = window
        self._entries: deque[HistoryEntry] = deque(maxlen=window + 1)

    def append(self, t: int, physical: object, twin: object) -> None:
        if self._entries and t <= self._entries[-1].t:
            raise ValueError("history timestamps must be strictly increasing")
        self._entries.append(HistoryEntry(t, physical, twin))

    def restart(self) -> None:
        self._entries.clear()

    def window_entries(self, t: int, window: int) -> list[HistoryEntry]:
        return [e for e in self._entries if t - window <= e.t <= t]

    def __len__(self) -> int:
        return len(self._entries)


class CheckOutcome(NamedTuple):
    triggered: bool
    value: float | None  # accumulated window sum; None off the check grid


def windowed_check(
    history: CheckerHistory,
    t: int,
    q: int,
    l: int,
    threshold: float,
    metric: Callable[[object, object], float],
) -> CheckOutcome:
    """Accumulate the metric over steps [max(0, t-l), t] and compare to the threshold.

    Only steps still in the history count: after a `restart` (a resync) the
    window begins again at the first step recorded after it, just as it
    begins at step 0 at the start of a run.

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
    total = 0.0
    for entry in history.window_entries(t, l):
        total += metric(entry.physical, entry.twin)
    return CheckOutcome(total > threshold, total)


# ============================================================
# Checker registry
# ============================================================


@dataclass(frozen=True)
class Checker:
    """A named way to compare the paired worlds.

    `payload` extracts what gets recorded each step (from the world or from
    the last transition's actions); `metric` scores a physical/twin payload
    pair, using k only for the fine-grained action comparison.
    """

    name: str
    payload: Callable[[WorldState, tuple[ActionRecord, ...]], object]
    metric: Callable[[object, object, int], float]


CHECKERS: dict[str, Checker] = {
    "state": Checker(
        "state",
        lambda world, actions: state_vector(world),
        lambda p, t, k: state_deviation(p, t),
    ),
    "knowledge": Checker(
        "knowledge",
        lambda world, actions: knowledge_vector(world),
        lambda p, t, k: drift(p, t),
    ),
    "action": Checker(
        "action",
        lambda world, actions: tuple(actions),
        lambda p, t, k: coarse_action_deviation(p, t),
    ),
    "action2": Checker(
        "action2",
        lambda world, actions: tuple(actions),
        lambda p, t, k: mean_fine_action_deviation(p, t, k),
    ),
}

CHECKER_NAMES = tuple(CHECKERS)


def get_checker(name: str) -> Checker:
    try:
        return CHECKERS[name]
    except KeyError:
        raise ValueError(
            f"unknown checker {name!r}; expected one of {', '.join(CHECKERS)}"
        ) from None
