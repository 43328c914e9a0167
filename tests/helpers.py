"""Scene builders and brute-force oracles shared across the test suite."""

from __future__ import annotations

import numpy as np

from twinsync.analysis import SolutionPoint, dominates
from twinsync.model import SceneDrone, SceneObject, SceneSpec


def make_scene(
    drones,
    objects,
    *,
    width=50.0,
    height=50.0,
    k=2,
    sensing_range=10.0,
    gamma=0.9,
    delta=1.0,
    importance_period=30,
) -> SceneSpec:
    """Build a scene from (id, x, y) drone and (id, x, y, dir, important) object tuples."""
    return SceneSpec(
        width=width,
        height=height,
        k=k,
        sensing_range=sensing_range,
        gamma=gamma,
        delta=delta,
        importance_period=importance_period,
        drones=tuple(SceneDrone(*d) for d in drones),
        objects=tuple(SceneObject(*o) for o in objects),
    )


def brute_force_front(points) -> set[tuple[float, float]]:
    """Quadratic dominance filter; the reference for pareto_front."""
    unique = {SolutionPoint(*p) for p in points}
    return {
        tuple(p)
        for p in unique
        if not any(dominates(q, p) for q in unique if q != p)
    }


def grid_hypervolume(points, ref=(1.0, 1.0), cells=1000) -> float:
    """Estimate dominated area by counting dominated grid-cell centres."""
    pts = [p for p in points if p[0] <= ref[0] and p[1] <= ref[1]]
    if not pts:
        return 0.0
    xs = (np.arange(cells) + 0.5) * (ref[0] / cells)
    ys = (np.arange(cells) + 0.5) * (ref[1] / cells)
    dominated = np.zeros((cells, cells), dtype=bool)
    for px, py in pts:
        dominated |= (xs[:, None] >= px) & (ys[None, :] >= py)
    return float(dominated.mean() * ref[0] * ref[1])


def random_fronts(seed: int, count: int, max_points: int = 8):
    """Fixed-seed batches of random points in the unit square."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, max_points + 1))
        yield [SolutionPoint(float(x), float(y)) for x, y in rng.random((n, 2))]


# ------------------------------------------------------------
# Per-drone knowledge references
# ------------------------------------------------------------
# One dict of edge weights per drone, evolved from that drone's own
# (other drone, object) co-cover pairs, and a knowledge vector assembled
# pair by pair: the per-drone algorithms the fleet-wide weight matrix must
# match bit for bit.


def reference_co_cover(world, sensing_range):
    """Per drone, the sorted (other drone, object) pairs it shares, all by position."""
    dpos = np.column_stack((world.drone_x, world.drone_y))
    opos = np.column_stack((world.object_x, world.object_y))
    diff = dpos[:, None, :] - opos[None, :, :]
    dist = np.hypot(diff[:, :, 0], diff[:, :, 1])
    covered_by = {oj: [] for oj in range(len(world.object_x))}
    sensed = {di: [] for di in range(len(world.drone_x))}
    for di, oj in zip(*np.nonzero(dist <= sensing_range)):
        covered_by[oj].append(di)
        sensed[di].append(oj)
    return {
        me: sorted((other, oid) for oid in oids for other in covered_by[oid] if other != me)
        for me, oids in sensed.items()
    }


def reference_evolve(weights, co_cover, gamma, delta):
    """One drone's pheromone step: evaporate, then add delta per shared object."""
    out = {other: w * gamma for other, w in weights.items()}
    for other, _oid in co_cover:
        out[other] = out.get(other, 0.0) + delta
    return out


def reference_knowledge_vector(graphs):
    """Pairwise loop over id pairs; both endpoints must hold the same weight."""
    ids = sorted(graphs)
    values = []
    for a, i in enumerate(ids):
        for j in ids[a + 1:]:
            w_ij, w_ji = graphs[i].get(j, 0.0), graphs[j].get(i, 0.0)
            assert w_ij == w_ji, f"asymmetric edge ({i}, {j}): {w_ij!r} vs {w_ji!r}"
            values.append(w_ij)
    return np.asarray(values, dtype=float)


# ------------------------------------------------------------
# Object-based reference step
# ------------------------------------------------------------
# The world step as it was written with one frozen record per entity and
# one pair of numpy generators per drone: the algorithm the columnar
# `step_world` and its draw tapes must reproduce bit for bit.

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from twinsync.model import FOLLOW, NOTIFY_AND_FOLLOW, RANDOM_WALK, RESPOND_AND_FOLLOW


class RefVec2(NamedTuple):
    x: float
    y: float


class RefMessage(NamedTuple):
    sender_id: int
    object_id: int
    object_position: RefVec2
    sent_at: int


@dataclass(frozen=True)
class RefObject:
    id: int
    position: RefVec2
    direction: float
    important: bool


@dataclass(frozen=True)
class RefDrone:
    id: int
    position: RefVec2
    inbox: tuple


@dataclass(frozen=True)
class RefAction:
    drone_id: int
    kind: str
    followed_object: int | None = None
    notified_drones: frozenset = frozenset()
    responded_to: int | None = None


@dataclass(frozen=True, eq=False)
class RefWorld:
    time: int
    objects: tuple
    drones: tuple
    scene: SceneSpec
    weights: np.ndarray
    in_range: np.ndarray


class RefStreams(NamedTuple):
    choice: np.random.Generator
    walk: np.random.Generator


def reference_agent_streams(seed, drone_ids, salt=()):
    """Per drone id, a choice and a walk generator keyed as the tapes are."""
    from twinsync.harness import CHANNEL_CHOICE, CHANNEL_WALK, STREAM_AGENT, derive_rng

    return {
        i: RefStreams(
            derive_rng(seed, STREAM_AGENT, *salt, i, CHANNEL_CHOICE),
            derive_rng(seed, STREAM_AGENT, *salt, i, CHANNEL_WALK),
        )
        for i in drone_ids
    }


def reference_perceptions(drones, objects, sensing_range):
    dpos = np.array([c for d in drones for c in d.position], dtype=float).reshape(-1, 2)
    opos = np.array([c for o in objects for c in o.position], dtype=float).reshape(-1, 2)
    diff = dpos[:, None, :] - opos[None, :, :]
    return np.hypot(diff[:, :, 0], diff[:, :, 1]) <= sensing_range


def reference_fleet_evolve(weights, in_range, gamma, delta):
    hits = in_range.astype(np.int64)
    shared = hits @ hits.T
    np.fill_diagonal(shared, 0)
    out = weights * gamma
    for level in range(1, int(shared.max(initial=0)) + 1):
        out[shared >= level] += delta
    return out


def reference_build_world(scene):
    drones = tuple(RefDrone(d.id, RefVec2(d.x, d.y), ())
                   for d in sorted(scene.drones, key=lambda d: d.id))
    objects = tuple(
        RefObject(o.id, RefVec2(o.x, o.y), float(o.direction), bool(o.important))
        for o in sorted(scene.objects, key=lambda o: o.id))
    weights = np.zeros((len(drones), len(drones)))
    in_range = reference_perceptions(drones, objects, scene.sensing_range)
    return RefWorld(0, objects, drones, scene, weights, in_range)


def _ref_clamp(p, bounds):
    return RefVec2(min(max(p.x, 0.0), bounds[0]), min(max(p.y, 0.0), bounds[1]))


def _ref_move_toward(origin, target, distance, bounds):
    dx = target.x - origin.x
    dy = target.y - origin.y
    gap = math.hypot(dx, dy)
    if gap <= distance:
        return _ref_clamp(target, bounds)
    frac = distance / gap
    return _ref_clamp(RefVec2(origin.x + dx * frac, origin.y + dy * frac), bounds)


def _ref_flip_heading(direction, flip_x, flip_y):
    if not flip_x and not flip_y:
        return direction % 360.0
    rad = math.radians(direction)
    cx = -math.cos(rad) if flip_x else math.cos(rad)
    cy = -math.sin(rad) if flip_y else math.sin(rad)
    return math.degrees(math.atan2(cy, cx)) % 360.0


def _ref_move_object(obj, bias_degrees, bounds):
    width, height = bounds
    heading = obj.direction + bias_degrees
    rad = math.radians(heading)
    x = obj.position.x + 1.0 * math.cos(rad)
    y = obj.position.y + 1.0 * math.sin(rad)
    flip_x = False
    while x < 0.0 or x > width:
        x = -x if x < 0.0 else 2.0 * width - x
        flip_x = not flip_x
    flip_y = False
    while y < 0.0 or y > height:
        y = -y if y < 0.0 else 2.0 * height - y
        flip_y = not flip_y
    return RefObject(obj.id, RefVec2(x, y), _ref_flip_heading(heading, flip_x, flip_y),
                     obj.important)


def _ref_decide(drone, time, sensed, row, ids, choice, walk, k):
    """(action, move target or None, move angle or None, distance, outgoing)."""
    me = drone.id
    if sensed:
        obj, covering_others = sensed[int(choice * len(sensed))]
        if covering_others < k - 1:
            others = [j for j, d in enumerate(ids) if d != me]
            others.sort(key=lambda j: -row[j])
            targets = frozenset(ids[j] for j in others[: max(0, k - 1)])
            msg = RefMessage(me, obj.id, obj.position, time)
            action = RefAction(me, NOTIFY_AND_FOLLOW, followed_object=obj.id,
                               notified_drones=targets)
            return action, obj.position, None, 1.0, tuple((t, msg) for t in sorted(targets))
        return RefAction(me, FOLLOW, followed_object=obj.id), obj.position, \
            None, 1.0, ()
    if drone.inbox:
        request = min(drone.inbox, key=lambda m: (-row[ids.index(m.sender_id)], m.sender_id))
        action = RefAction(me, RESPOND_AND_FOLLOW,
                           followed_object=request.object_id,
                           responded_to=request.sender_id)
        return action, request.object_position, None, 2.0, ()
    return RefAction(me, RANDOM_WALK), None, walk * 360.0, 5.0, ()


def reference_step(world, rngs, bias_degrees=0.0):
    """One step of the object-based world, drawing from per-drone generators."""
    scene = world.scene
    bounds = (scene.width, scene.height)
    objects = world.objects
    ids = tuple(d.id for d in world.drones)
    covering_others = (world.in_range.sum(axis=0) - 1).tolist()
    sensed = [[] for _ in ids]
    rows, cols = world.in_range.nonzero()
    for i, j in zip(rows.tolist(), cols.tolist()):
        if objects[j].important:
            sensed[i].append((objects[j], covering_others[j]))

    decisions = []
    for i, d in enumerate(world.drones):
        streams = rngs[d.id]
        choice, walk = float(streams.choice.random()), float(streams.walk.random())
        decisions.append(_ref_decide(d, world.time, sensed[i], world.weights[i], ids,
                                     choice, walk, scene.k))
    deliveries = {}
    for dec in decisions:
        for recipient, msg in dec[4]:
            deliveries.setdefault(recipient, []).append(msg)
    new_drones = []
    for d, (_, target, angle, distance, _) in zip(world.drones, decisions):
        if target is not None:
            pos = _ref_move_toward(d.position, target, distance, bounds)
        else:
            rad = math.radians(angle)
            pos = _ref_clamp(RefVec2(d.position.x + distance * math.cos(rad),
                                     d.position.y + distance * math.sin(rad)), bounds)
        new_drones.append(RefDrone(d.id, pos, tuple(deliveries.get(d.id, ()))))
    new_objects = tuple(_ref_move_object(o, bias_degrees, bounds) for o in objects)
    in_range = reference_perceptions(new_drones, new_objects, scene.sensing_range)
    weights = reference_fleet_evolve(world.weights, in_range, scene.gamma, scene.delta)
    time = world.time + 1
    if time % scene.importance_period == 0:
        new_objects = tuple(replace(o, important=not o.important) for o in new_objects)
    stepped = RefWorld(time, new_objects, tuple(new_drones), scene, weights, in_range)
    return stepped, tuple(dec[0] for dec in decisions)
