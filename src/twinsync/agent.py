"""Per-drone behaviour: sensing, action selection, knowledge evolution."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import ActionKind, ActionRecord, Request, WorldState, read_only

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
    dx = np.array(drone_x, dtype=float)[:, None] - np.array(object_x, dtype=float)
    dy = np.array(drone_y, dtype=float)[:, None] - np.array(object_y, dtype=float)
    in_range = read_only(np.hypot(dx, dy) <= sensing_range)
    return in_range, tuple(in_range.sum(axis=0).tolist())


def select_notify_targets(row: Sequence[float], me: int, k: int) -> list[int]:
    """Pick the k-1 strongest-edge drones to ask for help, ties by ascending index.

    `row` is the asker's weight row and `me` its index, both in drone order.
    Zero-weight drones are eligible; with fewer than k-1 others, all of them
    are picked.
    """
    others = [j for j in range(len(row)) if j != me]
    others.sort(key=lambda j: -row[j])  # stable: drone order breaks ties
    return others[: max(0, k - 1)]


def select_response(inbox: Sequence[Request], row: Sequence[float]) -> Request | None:
    """Choose which help request to honour: strongest edge, then lowest sender."""
    if not inbox:
        return None
    return min(inbox, key=lambda r: (-row[r[0]], r[0]))


def decide(
    world: WorldState, i: int, sensed: Sequence[int], choice: float
) -> tuple[ActionRecord, tuple[float, float, float] | None, list[int]]:
    """Select drone i's action for this step.

    `sensed` lists the important objects drone i has in range, by ascending
    object index. Priority: an important object in range (notify if it is
    not k-covered, else follow), then answering a help request, then a
    random walk. The pick among sensed objects is the `choice` uniform scaled
    to their count. Returns the action, the point to head for with its
    movement budget as (x, y, budget), or None for a random walk, and the
    indices of the drones that get a help request.
    """
    ids = world.drone_ids
    if sensed:
        j = sensed[int(choice * len(sensed))]  # sensed is ordered: order-independent pick
        target = (world.object_x[j], world.object_y[j], FOLLOW_DISTANCE)
        if world.coverage[j] < world.params.k:  # drone i counts itself
            notify = select_notify_targets(world.weights[i].tolist(), i, world.params.k)
            notified = frozenset(ids[n] for n in notify)
            action = ActionRecord(ids[i], ActionKind.NOTIFY_AND_FOLLOW,
                                  world.object_ids[j], notified)
            return action, target, notify
        return ActionRecord(ids[i], ActionKind.FOLLOW, world.object_ids[j]), target, []

    if world.inbox[i]:
        sender, object_id, x, y = select_response(world.inbox[i], world.weights[i].tolist())
        action = ActionRecord(ids[i], ActionKind.RESPOND_AND_FOLLOW, object_id,
                              frozenset(), ids[sender])
        return action, (x, y, RESPOND_DISTANCE), []
    return ActionRecord(ids[i], ActionKind.RANDOM_WALK), None, []


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
    hits = in_range.astype(np.int64)
    shared = hits @ hits.T
    shared.flat[:: len(shared) + 1] = 0  # the diagonal; cheaper than np.fill_diagonal
    out = weights * gamma
    for level in range(1, int(shared.max(initial=0)) + 1):
        np.add(out, delta, out=out, where=shared >= level)  # in place, no masked copy
    return read_only(out)
