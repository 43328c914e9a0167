"""Per-drone behaviour: sensing, action selection, knowledge evolution."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .model import (
    ActionKind,
    ActionRecord,
    DroneState,
    Message,
    ObjectState,
    Vec2,
    read_only,
)


class AgentStreams(NamedTuple):
    """One drone's private randomness, split by what it feeds.

    `choice` drives which important object gets picked; `walk` drives the
    wander angle. Keeping the channels separate lets a paired twin diverge
    on choices while still sampling the same movement noise.
    """

    choice: np.random.Generator
    walk: np.random.Generator


class AgentDraws(NamedTuple):
    """The two uniforms a drone consumes each step, one per channel.

    The stepper draws both every step for every drone whether or not they
    end up used, so lockstep worlds stay draw-aligned across branch and
    update differences.
    """

    choice: float
    walk: float


@dataclass(frozen=True)
class Decision:
    """One drone's chosen move and side effects for the current step.

    Exactly one of move_target / move_angle is set; move_angle is the
    random-walk heading in degrees. `outgoing` pairs each message with its
    recipient drone id.
    """

    action: ActionRecord
    move_target: Vec2 | None
    move_angle: float | None
    move_distance: float
    outgoing: tuple[tuple[int, Message], ...] = ()


# Movement budget per action kind, in world units per step.
FOLLOW_DISTANCE = 1.0
RESPOND_DISTANCE = 2.0
RANDOM_WALK_DISTANCE = 5.0


def build_perceptions(
    drones: Sequence[DroneState], objects: Sequence[ObjectState], sensing_range: float
) -> np.ndarray:
    """Sense one set of positions for the whole fleet: the (m, n) in-range matrix.

    Entry (i, j) is True when drone i has object j within sensing range, the
    boundary included. Each world state is sensed once: `step_world` hands
    the moved world's matrix on, and only new positions are sensed afresh.
    """
    dpos = np.array([c for d in drones for c in d.position], dtype=float).reshape(-1, 2)
    opos = np.array([c for o in objects for c in o.position], dtype=float).reshape(-1, 2)
    diff = dpos[:, None, :] - opos[None, :, :]
    return read_only(np.hypot(diff[:, :, 0], diff[:, :, 1]) <= sensing_range)


def select_notify_targets(
    row: Sequence[float], ids: Sequence[int], self_id: int, k: int
) -> frozenset[int]:
    """Pick the k-1 strongest-edge drones to ask for help, ties by ascending id.

    `row` is the asker's weight row, aligned with the ascending roster `ids`.
    Zero-weight drones are eligible; with fewer than k-1 others, all of them
    are picked.
    """
    others = [j for j, d in enumerate(ids) if d != self_id]
    others.sort(key=lambda j: -row[j])  # stable: id order breaks ties
    return frozenset(ids[j] for j in others[: max(0, k - 1)])


def select_response(
    inbox: tuple[Message, ...], row: Sequence[float], ids: Sequence[int]
) -> Message | None:
    """Choose which help request to honour: strongest edge, then newest, then lowest sender id."""
    if not inbox:
        return None
    return min(
        inbox,
        key=lambda m: (-row[ids.index(m.sender_id)], -m.sent_at, m.sender_id),
    )


def decide(
    drone: DroneState,
    time: int,
    sensed: Sequence[tuple[ObjectState, int]],
    row: Sequence[float],
    ids: Sequence[int],
    draws: AgentDraws,
    k: int,
) -> Decision:
    """Select this step's action.

    `sensed` pairs each important object in range, in ascending id order,
    with how many other drones cover it; `row` is this drone's weight row,
    aligned with the ascending roster `ids`. Priority: important object in
    range (notify if not locally k-covered, else follow), then answering a
    help request, then a random walk. Pure in its inputs: all randomness
    arrives pre-drawn in `draws`.
    """
    me = drone.id
    if sensed:
        # sensed is id-sorted, so the draw is order-independent
        obj, covering_others = sensed[int(draws.choice * len(sensed))]
        if covering_others < k - 1:
            targets = select_notify_targets(row, ids, me, k)
            msg = Message(me, obj.id, obj.position, time)
            action = ActionRecord(
                me,
                ActionKind.NOTIFY_AND_FOLLOW,
                followed_object=obj.id,
                notified_drones=targets,
            )
            return Decision(
                action,
                move_target=obj.position,
                move_angle=None,
                move_distance=FOLLOW_DISTANCE,
                outgoing=tuple((t, msg) for t in sorted(targets)),
            )
        action = ActionRecord(me, ActionKind.FOLLOW, followed_object=obj.id)
        return Decision(
            action,
            move_target=obj.position,
            move_angle=None,
            move_distance=FOLLOW_DISTANCE,
        )

    request = select_response(drone.inbox, row, ids)
    if request is not None:
        action = ActionRecord(
            me,
            ActionKind.RESPOND_AND_FOLLOW,
            followed_object=request.object_id,
            responded_to=request.sender_id,
        )
        return Decision(
            action,
            move_target=request.object_position,
            move_angle=None,
            move_distance=RESPOND_DISTANCE,
        )

    angle = draws.walk * 360.0
    action = ActionRecord(me, ActionKind.RANDOM_WALK)
    return Decision(
        action,
        move_target=None,
        move_angle=angle,
        move_distance=RANDOM_WALK_DISTANCE,
    )


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
    with a zero diagonal by construction, and weights stay below
    delta * n_objects / (1 - gamma) because each step adds at most delta per
    shared object after multiplying by gamma.
    """
    hits = in_range.astype(np.int64)
    shared = hits @ hits.T
    np.fill_diagonal(shared, 0)
    out = weights * gamma
    for level in range(1, int(shared.max(initial=0)) + 1):
        out[shared >= level] += delta
    return read_only(out)
