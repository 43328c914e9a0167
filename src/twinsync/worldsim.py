"""World dynamics: movement, importance cycling, coverage, the step function."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Mapping

import numpy as np

from .agent import AgentDraws, AgentStreams, build_perceptions, decide, evolve_knowledge
from .model import (
    ActionRecord,
    DroneState,
    Message,
    ObjectState,
    Vec2,
    WorldState,
)

OBJECT_SPEED = 1.0  # units per step

BIAS_MODES = ("accumulate", "fixed")


def clamp_point(p: Vec2, bounds: tuple[float, float]) -> Vec2:
    return Vec2(min(max(p.x, 0.0), bounds[0]), min(max(p.y, 0.0), bounds[1]))


def move_point_toward(
    origin: Vec2, target: Vec2, distance: float, bounds: tuple[float, float]
) -> Vec2:
    """Move from origin straight at target, at most `distance`, clamped to bounds."""
    dx = target.x - origin.x
    dy = target.y - origin.y
    gap = math.hypot(dx, dy)
    if gap <= distance:
        return clamp_point(target, bounds)
    frac = distance / gap
    return clamp_point(Vec2(origin.x + dx * frac, origin.y + dy * frac), bounds)


def _flip_heading(direction: float, flip_x: bool, flip_y: bool) -> float:
    if not flip_x and not flip_y:
        return direction % 360.0
    rad = math.radians(direction)
    cx = -math.cos(rad) if flip_x else math.cos(rad)
    cy = -math.sin(rad) if flip_y else math.sin(rad)
    return math.degrees(math.atan2(cy, cx)) % 360.0


def move_object(
    obj: ObjectState,
    bias_degrees: float,
    bounds: tuple[float, float],
    bias_mode: str = "accumulate",
) -> ObjectState:
    """Advance one object by one step of unit speed, bouncing off walls.

    The movement heading is the stored direction rotated by `bias_degrees`.
    In "accumulate" mode the rotated heading is stored back, so a constant
    bias compounds step over step; in "fixed" mode the stored direction only
    changes when a wall reflects it.
    """
    if bias_mode not in BIAS_MODES:
        raise ValueError(f"unknown bias mode {bias_mode!r}")
    width, height = bounds
    heading = obj.direction + bias_degrees
    rad = math.radians(heading)
    x = obj.position.x + OBJECT_SPEED * math.cos(rad)
    y = obj.position.y + OBJECT_SPEED * math.sin(rad)

    flip_x = False
    while x < 0.0 or x > width:
        x = -x if x < 0.0 else 2.0 * width - x
        flip_x = not flip_x
    flip_y = False
    while y < 0.0 or y > height:
        y = -y if y < 0.0 else 2.0 * height - y
        flip_y = not flip_y

    base = heading if bias_mode == "accumulate" else obj.direction
    return ObjectState(obj.id, Vec2(x, y), _flip_heading(base, flip_x, flip_y), obj.important)


def toggle_importance(world: WorldState, t: int, period: int) -> WorldState:
    """Invert every object's importance flag when t is a positive multiple of period."""
    if period < 1:
        raise ValueError(f"importance period must be >= 1, got {period}")
    if t <= 0 or t % period != 0:
        return world
    objects = tuple(
        ObjectState(o.id, o.position, o.direction, not o.important)
        for o in world.objects
    )
    return replace(world, objects=objects)


def coverage_map(world: WorldState) -> np.ndarray:
    """How many drones cover each object, in object order, from the world's sensing."""
    return world.in_range.sum(axis=0)


def utility_k(world: WorldState, k: int) -> float:
    """Fraction of all objects covered by at least k drones."""
    if not world.objects:
        raise ValueError("utility undefined for a world with no objects")
    return int(np.count_nonzero(coverage_map(world) >= k)) / len(world.objects)


def step_world(
    world: WorldState,
    rngs: Mapping[int, AgentStreams],
    bias_degrees: float = 0.0,
    bias_mode: str = "accumulate",
) -> tuple[WorldState, tuple[ActionRecord, ...]]:
    """Advance the world by one step; returns the new world and the actions taken.

    Order within the step: decide from the world's own sensing, move drones,
    deliver messages (one step latency, previous inboxes expire), move
    objects (with heading bias, the tamper channel), cycle importance,
    advance the clock, then sense the moved world once and evolve knowledge
    from its co-coverage, so the weights an outside observer reads always
    describe the same configuration as the positions. Evolving knowledge
    moves nothing, so that sensing is handed to the returned world, where the
    next step decides on it. Each drone draws one uniform from each of its
    two channels every step, used or not, so two worlds stepped in lockstep
    stay draw-aligned no matter how their branches differ.
    """
    params = world.params
    bounds = params.bounds
    objects = world.objects
    ids = tuple(d.id for d in world.drones)

    covering_others = (coverage_map(world) - 1).tolist()
    sensed: list[list[tuple[ObjectState, int]]] = [[] for _ in ids]
    rows, cols = world.in_range.nonzero()  # row-major: ascending object id per drone
    for i, j in zip(rows.tolist(), cols.tolist()):
        if objects[j].important:
            sensed[i].append((objects[j], covering_others[j]))

    decisions = []
    for i, d in enumerate(world.drones):
        streams = rngs[d.id]
        draws = AgentDraws(float(streams.choice.random()), float(streams.walk.random()))
        decisions.append(
            decide(d, world.time, sensed[i], world.weights[i], ids, draws, params.k)
        )
    actions = tuple(dec.action for dec in decisions)

    deliveries: dict[int, list[Message]] = {}
    for dec in decisions:
        for recipient, msg in dec.outgoing:
            deliveries.setdefault(recipient, []).append(msg)

    new_drones = []
    for d, dec in zip(world.drones, decisions):
        if dec.move_target is not None:
            pos = move_point_toward(d.position, dec.move_target, dec.move_distance, bounds)
        else:
            rad = math.radians(dec.move_angle)
            pos = clamp_point(
                Vec2(
                    d.position.x + dec.move_distance * math.cos(rad),
                    d.position.y + dec.move_distance * math.sin(rad),
                ),
                bounds,
            )
        new_drones.append(DroneState(d.id, pos, tuple(deliveries.get(d.id, ()))))

    new_objects = tuple(
        move_object(o, bias_degrees, bounds, bias_mode) for o in objects
    )
    in_range = build_perceptions(new_drones, new_objects, params.sensing_range)
    weights = evolve_knowledge(world.weights, in_range, params.gamma, params.delta)
    stepped = WorldState(
        world.time + 1, new_objects, tuple(new_drones), params, weights, in_range
    )
    return toggle_importance(stepped, stepped.time, params.importance_period), actions
