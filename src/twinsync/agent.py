"""Per-drone behaviour: sensing, action selection, knowledge evolution."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import (FOLLOW, NOTIFY_AND_FOLLOW, RANDOM_WALK, RESPOND_AND_FOLLOW, ActionRecord,
                    Request, WorldState, read_only)

# Movement budget per action kind, in world units per step.
FOLLOW_DISTANCE = 1.0
RESPOND_DISTANCE = 2.0
RANDOM_WALK_DISTANCE = 5.0


def build_perceptions(
    drone_x: Sequence[float],
    drone_y: Sequence[float],
    object_x: Sequence[float],
    object_y: Sequence[float],
    sensing_range: float,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Sense one set of positions for the whole fleet.

    Returns the read-only (m, n) in-range matrix, whose entry (i, j) is True
    when drone i has object j within sensing range, the boundary included,
    and each object's count of drones in range. Each world state is sensed
    once: `step_world` hands the moved world's sensing on, and only new
    positions are sensed afresh.
    """
    m, n = len(drone_x), len(object_x)
    gap = (np.fromiter([*drone_x, *drone_y], float, 2 * m).reshape(2, m, 1)
           - np.fromiter([*object_x, *object_y], float, 2 * n).reshape(2, 1, n))
    in_range = read_only(np.hypot(gap[0], gap[1]) <= sensing_range)
    return in_range, tuple(in_range.sum(axis=0).tolist())


def select_notify_targets(row: Sequence[float], me: int, k: int) -> list[int]:
    """Pick the k-1 strongest-edge drones to ask for help, ties by ascending index.

    `row` is the asker's weight row and `me` its index, both in drone order.
    Zero-weight drones are eligible; with fewer than k-1 others, all of them
    are picked.
    """
    others = [j for j in range(len(row)) if j != me]
    others.sort(key=lambda j: -row[j])  # stable: drone order breaks ties
    return others[: k - 1]


def select_response(inbox: Sequence[Request], row: Sequence[float]) -> Request:
    """Choose which help request to honour: strongest edge, then lowest sender."""
    return min(inbox, key=lambda r: (-row[r[0]], r[0]))


# A random walk reads nothing of the world, so every walk shares one decision.
_RANDOM_WALK = (ActionRecord(RANDOM_WALK), None)


def decide(
    world: WorldState, i: int, sensed: Sequence[int], choice: float
) -> tuple[ActionRecord, tuple[float, float, float] | None]:
    """Select drone i's action for this step.

    `sensed` lists the important objects drone i has in range, by ascending
    object index. Priority: an important object in range (notify if it is
    not k-covered, else follow), then answering a help request, then a
    random walk. The pick among sensed objects is the `choice` uniform scaled
    to their count. Returns the action, whose `notified_drones` get a help
    request, and the point to head for with its movement budget as
    (x, y, budget), or None for a random walk.
    """
    if sensed:
        j = sensed[int(choice * len(sensed))]  # sensed is ordered: order-independent pick
        target = (world.object_x[j], world.object_y[j], FOLLOW_DISTANCE)
        k = world.params.k
        if world.coverage[j] >= k:  # drone i counts itself
            return ActionRecord(FOLLOW, j), target
        notify = select_notify_targets(world.weights[i].tolist(), i, k)
        return ActionRecord(NOTIFY_AND_FOLLOW, j, frozenset(notify)), target

    inbox = world.inbox[i]
    if inbox:
        sender, j, x, y = select_response(inbox, world.weights[i].tolist())
        action = ActionRecord(RESPOND_AND_FOLLOW, j, frozenset(), sender)
        return action, (x, y, RESPOND_DISTANCE)
    return _RANDOM_WALK


def evolve_knowledge(
    weights: np.ndarray,
    in_range: np.ndarray,
    gamma: float,
    delta: float,
) -> np.ndarray:
    """One pheromone step for the fleet: evaporate every edge, then reinforce
    each drone pair once per object both have in range.

    Delta is added once per shared-object count level, so every edge sees
    w*gamma + delta + delta ... in the order a per-object loop adds it
    (w*gamma + 2*delta can differ in the last bit). The result is symmetric
    with a zero diagonal by construction. In real numbers weights stay under
    delta * n_objects / (1 - gamma); float64 rounding can reach or pass that
    bound by a few ulps.
    """
    hits = in_range.astype(float)  # float64 counts are exact: none exceeds n
    shared = np.dot(hits, hits.T)  # cheaper than @ at these sizes
    shared.flat[:: len(shared) + 1] = 0  # the diagonal; cheaper than np.fill_diagonal
    out = weights * gamma
    for level in range(1, int(shared.max(initial=0)) + 1):
        np.putmask(out, shared >= level, out + delta)  # cheaper than np.add(..., where=)
    return read_only(out)
