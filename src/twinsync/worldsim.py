"""World dynamics: the step function (movement, messages, importance cycling), coverage."""

from __future__ import annotations

import math
from typing import Sequence

from .agent import RANDOM_WALK_DISTANCE, build_perceptions, decide, evolve_knowledge
from .model import Request, WorldState


def coverage_map(world: WorldState) -> tuple[int, ...]:
    """How many drones cover each object, in object order, from the world's sensing."""
    return world.coverage


def utility_k(world: WorldState) -> float:
    """Fraction of all objects covered by at least the scene's k drones."""
    k = world.params.k
    return sum(1 for count in coverage_map(world) if count >= k) / len(world.object_ids)


def step_world(
    world: WorldState,
    choice: Sequence[float],
    walk: Sequence[float],
    bias_degrees: float = 0.0,
) -> WorldState:
    """Advance the world by one step; the new world carries the actions taken.

    Order within the step: decide from the world's own sensing, move drones,
    deliver messages (one step latency, previous inboxes expire), move
    objects (with heading bias, the tamper channel), cycle importance,
    advance the clock, then sense the moved world once and evolve knowledge
    from its co-coverage, so the weights an outside observer reads always
    describe the same configuration as the positions. Evolving knowledge
    moves nothing, so that sensing is handed to the returned world, where the
    next step decides on it.

    `choice` and `walk` hold this step's uniform from each drone's two
    channels, in drone order: the pick among sensed objects and the random
    walk heading. Every drone gets both, used or not, so two worlds stepped
    in lockstep stay draw-aligned no matter how their branches differ.
    """
    params = world.params
    width, height = params.bounds
    important = world.important

    sensed: list[list[int]] = [[] for _ in world.drone_ids]
    rows, cols = world.in_range.nonzero()  # row-major: ascending object index per drone
    for i, j in zip(rows.tolist(), cols.tolist()):
        if important[j]:
            sensed[i].append(j)

    # Drones: a walk heads off by the walk draw, a follow or response moves
    # straight at its target by at most the budget and snaps onto it when
    # closer. A walk or a partial move ends clamped into bounds.
    actions = []
    inbox: list[list[Request]] | None = None  # made by the first request
    drone_x, drone_y = [], []
    for i, (x, y, c) in enumerate(zip(world.drone_x, world.drone_y, choice)):
        action, target, notify = decide(world, i, sensed[i], c)
        actions.append(action)
        if target is None:
            rad = math.radians(walk[i] * 360.0)
            x += RANDOM_WALK_DISTANCE * math.cos(rad)
            y += RANDOM_WALK_DISTANCE * math.sin(rad)
        else:
            tx, ty, budget = target
            for recipient in notify:
                if inbox is None:
                    inbox = [[] for _ in world.drone_ids]
                inbox[recipient].append((i, action.followed_object, tx, ty))
            dx, dy = tx - x, ty - y
            gap = math.hypot(dx, dy)  # numpy's hypot differs from math's in the last bits
            if gap <= budget:  # objects never leave the bounds, so neither do targets
                drone_x.append(tx)
                drone_y.append(ty)
                continue
            frac = budget / gap
            x += dx * frac
            y += dy * frac
        drone_x.append(min(max(x, 0.0), width))
        drone_y.append(min(max(y, 0.0), height))

    # Objects: one unit step along the stored heading turned by the bias,
    # which is stored back, so a constant bias compounds step over step. A
    # wall mirrors the position back inside and flips that heading component.
    object_x, object_y, object_dir = [], [], []
    for x, y, heading in zip(world.object_x, world.object_y, world.object_dir):
        heading += bias_degrees
        rad = math.radians(heading)
        cos, sin = math.cos(rad), math.sin(rad)
        x += cos
        y += sin
        if not (0.0 <= x <= width and 0.0 <= y <= height):
            # scenes are at least 1 wide and high, so one reflection lands inside
            flip_x, flip_y = not 0.0 <= x <= width, not 0.0 <= y <= height
            if flip_x:
                x = -x if x < 0.0 else 2.0 * width - x
            if flip_y:
                y = -y if y < 0.0 else 2.0 * height - y
            heading = math.degrees(math.atan2(-sin if flip_y else sin,
                                              -cos if flip_x else cos))
        object_x.append(x)
        object_y.append(y)
        object_dir.append(heading % 360.0)

    time = world.time + 1
    if time % params.importance_period == 0:
        important = tuple(not flag for flag in important)
    in_range, coverage = build_perceptions(
        drone_x, drone_y, object_x, object_y, params.sensing_range)
    return WorldState(
        time,
        world.object_ids,
        tuple(object_x),
        tuple(object_y),
        tuple(object_dir),
        important,
        world.drone_ids,
        tuple(drone_x),
        tuple(drone_y),
        tuple(map(tuple, inbox)) if inbox else ((),) * len(drone_x),
        params,
        evolve_knowledge(world.weights, in_range, params.gamma, params.delta),
        in_range,
        coverage,
        tuple(actions),
    )
