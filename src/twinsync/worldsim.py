"""World dynamics: movement, importance cycling, coverage, the step function."""

from __future__ import annotations

import math
from typing import Sequence

from .agent import RANDOM_WALK_DISTANCE, build_perceptions, decide, evolve_knowledge
from .model import Request, WorldState

OBJECT_SPEED = 1.0  # units per step


def clamp_point(x: float, y: float, bounds: tuple[float, float]) -> tuple[float, float]:
    return min(max(x, 0.0), bounds[0]), min(max(y, 0.0), bounds[1])


def move_point_toward(
    x: float, y: float, tx: float, ty: float, distance: float,
    bounds: tuple[float, float],
) -> tuple[float, float]:
    """Move from (x, y) straight at (tx, ty), at most `distance`, clamped to bounds.

    `math.hypot` measures the gap: numpy's hypot differs from it in the
    last bits.
    """
    dx = tx - x
    dy = ty - y
    gap = math.hypot(dx, dy)
    if gap <= distance:
        return clamp_point(tx, ty, bounds)
    frac = distance / gap
    return clamp_point(x + dx * frac, y + dy * frac, bounds)


def _flip_heading(direction: float, flip_x: bool, flip_y: bool) -> float:
    if not flip_x and not flip_y:
        return direction % 360.0
    rad = math.radians(direction)
    cx = -math.cos(rad) if flip_x else math.cos(rad)
    cy = -math.sin(rad) if flip_y else math.sin(rad)
    return math.degrees(math.atan2(cy, cx)) % 360.0


def move_object(
    x: float,
    y: float,
    direction: float,
    bias_degrees: float,
    bounds: tuple[float, float],
) -> tuple[float, float, float]:
    """Advance one object by one step of unit speed, bouncing off walls.

    Returns the new (x, y, direction). The movement heading is the stored
    direction rotated by `bias_degrees`, and it is stored back, so a
    constant bias compounds step over step.
    """
    width, height = bounds
    heading = direction + bias_degrees
    rad = math.radians(heading)
    x += OBJECT_SPEED * math.cos(rad)
    y += OBJECT_SPEED * math.sin(rad)

    flip_x = False
    while x < 0.0 or x > width:
        x = -x if x < 0.0 else 2.0 * width - x
        flip_x = not flip_x
    flip_y = False
    while y < 0.0 or y > height:
        y = -y if y < 0.0 else 2.0 * height - y
        flip_y = not flip_y

    return x, y, _flip_heading(heading, flip_x, flip_y)


def toggle_importance(important: tuple[bool, ...], t: int, period: int) -> tuple[bool, ...]:
    """Invert every importance flag when t is a positive multiple of period."""
    if t <= 0 or t % period != 0:
        return important
    return tuple(not flag for flag in important)


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
    bounds = params.bounds
    important = world.important

    sensed: list[list[int]] = [[] for _ in world.drone_ids]
    rows, cols = world.in_range.nonzero()  # row-major: ascending object index per drone
    for i, j in zip(rows.tolist(), cols.tolist()):
        if important[j]:
            sensed[i].append(j)

    actions = []
    inbox: list[list[Request]] = [[] for _ in world.drone_ids]
    drone_x, drone_y = [], []
    for i, (x, y) in enumerate(zip(world.drone_x, world.drone_y)):
        action, target, notify = decide(world, i, sensed[i], choice[i])
        actions.append(action)
        if target is None:
            rad = math.radians(walk[i] * 360.0)
            x, y = clamp_point(x + RANDOM_WALK_DISTANCE * math.cos(rad),
                               y + RANDOM_WALK_DISTANCE * math.sin(rad), bounds)
        else:
            tx, ty, budget = target
            for recipient in notify:
                inbox[recipient].append((i, action.followed_object, tx, ty))
            x, y = move_point_toward(x, y, tx, ty, budget, bounds)
        drone_x.append(x)
        drone_y.append(y)

    object_x, object_y, object_dir = [], [], []
    for x, y, direction in zip(world.object_x, world.object_y, world.object_dir):
        x, y, direction = move_object(x, y, direction, bias_degrees, bounds)
        object_x.append(x)
        object_y.append(y)
        object_dir.append(direction)

    time = world.time + 1
    in_range, coverage = build_perceptions(
        drone_x, drone_y, object_x, object_y, params.sensing_range)
    return WorldState(
        time=time,
        object_ids=world.object_ids,
        object_x=tuple(object_x),
        object_y=tuple(object_y),
        object_dir=tuple(object_dir),
        important=toggle_importance(important, time, params.importance_period),
        drone_ids=world.drone_ids,
        drone_x=tuple(drone_x),
        drone_y=tuple(drone_y),
        inbox=tuple(map(tuple, inbox)),
        params=params,
        weights=evolve_knowledge(world.weights, in_range, params.gamma, params.delta),
        in_range=in_range,
        coverage=coverage,
        actions=tuple(actions),
    )
