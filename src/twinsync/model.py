"""Core domain types: world entities, fleet knowledge, scene files."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

# ============================================================
# Geometry and messaging primitives
# ============================================================


class Vec2(NamedTuple):
    """A point or displacement in world coordinates."""

    x: float
    y: float


class Message(NamedTuple):
    """A help request advertising one object; delivered the step after sending."""

    sender_id: int
    object_id: int
    object_position: Vec2
    sent_at: int


class ActionKind(str, Enum):
    FOLLOW = "follow"
    NOTIFY_AND_FOLLOW = "notify_and_follow"
    RESPOND_AND_FOLLOW = "respond_and_follow"
    RANDOM_WALK = "random_walk"


@dataclass(frozen=True)
class ActionRecord:
    """What one drone did in one step, in categorised form."""

    drone_id: int
    kind: ActionKind
    followed_object: int | None = None
    notified_drones: frozenset[int] = frozenset()
    responded_to: int | None = None


# ============================================================
# World state
# ============================================================


@dataclass(frozen=True)
class ObjectState:
    id: int
    position: Vec2
    direction: float  # degrees; multiples of 90 at scene load, arbitrary after bounces
    important: bool


@dataclass(frozen=True)
class DroneState:
    id: int
    position: Vec2
    inbox: tuple[Message, ...]


@dataclass(frozen=True)
class WorldParams:
    width: float
    height: float
    k: int
    sensing_range: float
    gamma: float  # edge evaporation factor per step
    delta: float  # edge reinforcement per co-covered object, important or not
    importance_period: int

    @property
    def bounds(self) -> tuple[float, float]:
        return (self.width, self.height)


def read_only(array: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it, so world states can share it."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class WorldState:
    """Full simulation state at one instant. Entity tuples are id-sorted.

    `weights` is the fleet's interaction knowledge: one read-only, symmetric
    (m, m) matrix of pheromone edge weights, rows and columns in drone order,
    zero on the diagonal. `in_range` is the read-only (m, n) sensing of these
    positions: entry (i, j) is True when drone i has object j in range. World
    states that agree on either array share it rather than copy it.
    """

    time: int
    objects: tuple[ObjectState, ...]
    drones: tuple[DroneState, ...]
    params: WorldParams
    weights: np.ndarray
    in_range: np.ndarray


# ============================================================
# Scene files
# ============================================================


class SceneDrone(NamedTuple):
    id: int
    x: float
    y: float


class SceneObject(NamedTuple):
    id: int
    x: float
    y: float
    direction: float
    important: bool


@dataclass(frozen=True)
class SceneSpec:
    """Initial-condition file: world parameters plus entity placements."""

    width: float
    height: float
    k: int
    sensing_range: float
    gamma: float
    delta: float
    importance_period: int
    drones: tuple[SceneDrone, ...]
    objects: tuple[SceneObject, ...]

    def with_overrides(self, **kwargs) -> SceneSpec:
        """Return a copy with some world parameters replaced (None = keep)."""
        changes = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **changes) if changes else self

    def build_world(self) -> WorldState:
        """Instantiate the t=0 world: empty inboxes, all edge weights zero."""
        from .agent import build_perceptions  # agent imports this module

        params = WorldParams(
            width=self.width,
            height=self.height,
            k=self.k,
            sensing_range=self.sensing_range,
            gamma=self.gamma,
            delta=self.delta,
            importance_period=self.importance_period,
        )
        drones = tuple(
            DroneState(d.id, Vec2(d.x, d.y), ())
            for d in sorted(self.drones, key=lambda d: d.id)
        )
        objects = tuple(
            ObjectState(o.id, Vec2(o.x, o.y), float(o.direction), bool(o.important))
            for o in sorted(self.objects, key=lambda o: o.id)
        )
        weights = read_only(np.zeros((len(drones), len(drones))))
        in_range = build_perceptions(drones, objects, self.sensing_range)
        return WorldState(0, objects, drones, params, weights, in_range)


def scene_to_dict(scene: SceneSpec) -> dict:
    return {
        "width": scene.width,
        "height": scene.height,
        "k": scene.k,
        "range": scene.sensing_range,
        "gamma": scene.gamma,
        "delta": scene.delta,
        "importance_period": scene.importance_period,
        "drones": [{"id": d.id, "x": d.x, "y": d.y} for d in scene.drones],
        "objects": [
            {
                "id": o.id,
                "x": o.x,
                "y": o.y,
                "direction": o.direction,
                "important": o.important,
            }
            for o in scene.objects
        ],
    }


def scene_from_dict(data: dict) -> SceneSpec:
    try:
        return SceneSpec(
            width=float(data["width"]),
            height=float(data["height"]),
            k=int(data["k"]),
            sensing_range=float(data["range"]),
            gamma=float(data["gamma"]),
            delta=float(data["delta"]),
            importance_period=int(data["importance_period"]),
            drones=tuple(
                SceneDrone(int(d["id"]), float(d["x"]), float(d["y"]))
                for d in data["drones"]
            ),
            objects=tuple(
                SceneObject(
                    int(o["id"]),
                    float(o["x"]),
                    float(o["y"]),
                    float(o["direction"]),
                    bool(o["important"]),
                )
                for o in data["objects"]
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed scene data: {exc}") from exc


def encode_scene(scene: SceneSpec) -> str:
    return json.dumps(scene_to_dict(scene), indent=2) + "\n"


def decode_scene(text: str) -> SceneSpec:
    return scene_from_dict(json.loads(text))


def validate_scene(scene: SceneSpec) -> list[str]:
    """Return a list of violation messages; empty means the scene is valid.

    Every violation names the offending entity or parameter.
    """
    bad: list[str] = []
    if not (scene.width > 0 and math.isfinite(scene.width)):
        bad.append(f"width must be positive and finite, got {scene.width}")
    if not (scene.height > 0 and math.isfinite(scene.height)):
        bad.append(f"height must be positive and finite, got {scene.height}")
    if scene.k < 1:
        bad.append(f"k must be >= 1, got {scene.k}")
    if not (scene.sensing_range > 0 and math.isfinite(scene.sensing_range)):
        bad.append(f"range must be positive and finite, got {scene.sensing_range}")
    if not (0.0 < scene.gamma < 1.0):
        bad.append(f"gamma must lie in (0, 1), got {scene.gamma}")
    if not (scene.delta > 0 and math.isfinite(scene.delta)):
        bad.append(f"delta must be positive and finite, got {scene.delta}")
    if scene.importance_period < 1:
        bad.append(f"importance_period must be >= 1, got {scene.importance_period}")

    if not scene.drones:
        bad.append("scene has no drones")
    if not scene.objects:
        bad.append("scene has no objects")

    seen: set[int] = set()
    for d in scene.drones:
        if d.id in seen:
            bad.append(f"duplicate drone id {d.id}")
        seen.add(d.id)
        if not (0.0 <= d.x <= scene.width and 0.0 <= d.y <= scene.height):
            bad.append(f"drone {d.id} position ({d.x}, {d.y}) out of bounds")
    seen = set()
    for o in scene.objects:
        if o.id in seen:
            bad.append(f"duplicate object id {o.id}")
        seen.add(o.id)
        if not (0.0 <= o.x <= scene.width and 0.0 <= o.y <= scene.height):
            bad.append(f"object {o.id} position ({o.x}, {o.y}) out of bounds")
        if not math.isfinite(o.direction):
            bad.append(f"object {o.id} direction is not finite")
    return bad


def load_scene(path: str | Path) -> SceneSpec:
    """Read, decode and validate a scene file."""
    scene = decode_scene(Path(path).read_text())
    violations = validate_scene(scene)
    if violations:
        raise ValueError(f"invalid scene {path}: " + "; ".join(violations))
    return scene


def save_scene(scene: SceneSpec, path: str | Path) -> None:
    Path(path).write_text(encode_scene(scene))
