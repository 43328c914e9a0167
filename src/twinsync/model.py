"""Core domain types: world entities, fleet knowledge, scene files."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

# ============================================================
# Actions
# ============================================================


# The action kinds, by name.
FOLLOW = "follow"
NOTIFY_AND_FOLLOW = "notify_and_follow"
RESPOND_AND_FOLLOW = "respond_and_follow"
RANDOM_WALK = "random_walk"


class ActionRecord(NamedTuple):
    """What one drone did in one step, in categorised form.

    A world holds one record per drone, in drone order, so a record's drone
    is its position in `WorldState.actions`. Objects and drones are named by
    position too.
    """

    kind: str
    followed_object: int | None = None
    notified_drones: frozenset[int] = frozenset()
    responded_to: int | None = None


# ============================================================
# World state
# ============================================================


def read_only(array: np.ndarray) -> np.ndarray:
    """Mark an array read-only and return it, so world states can share it."""
    array.setflags(write=False)
    return array


# A help request as its recipient holds it: (sender, object, x, y), sender and
# object by position, with the advertised object's position when it was sent.
# Requests arrive the step after sending and expire one step later.
Request = tuple[int, int, float, float]


@dataclass(frozen=True, eq=False, slots=True)
class WorldState:
    """Full simulation state at one instant, as flat per-entity columns.

    Object columns (`object_x`, `object_y`, `object_dir` in degrees,
    `important`) and drone columns (`drone_x`, `drone_y`, `inbox`) are tuples
    of Python scalars in ascending id order, so an entity is named by its
    position; `inbox[i]` holds drone i's requests in sender order.

    `weights` is the fleet's interaction knowledge: one read-only, symmetric
    (m, m) matrix of pheromone edge weights, rows and columns in drone order,
    zero on the diagonal. `in_range` is the read-only (m, n) sensing of these
    positions: entry (i, j) is True when drone i has object j in range, and
    `coverage[j]` counts the drones that have object j in range. World states
    that agree on any of these share them rather than copy them.

    `actions` holds the records of the step that produced this world, in
    drone order; a freshly built world has none.
    """

    time: int
    object_x: tuple[float, ...]
    object_y: tuple[float, ...]
    object_dir: tuple[float, ...]
    important: tuple[bool, ...]
    drone_x: tuple[float, ...]
    drone_y: tuple[float, ...]
    inbox: tuple[tuple[Request, ...], ...]
    params: SceneSpec  # the scene the world was built from
    weights: np.ndarray
    in_range: np.ndarray
    coverage: tuple[int, ...]
    actions: tuple[ActionRecord, ...] = ()


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

    def build_world(self) -> WorldState:
        """Instantiate the t=0 world: empty inboxes, all edge weights zero."""
        from .agent import build_perceptions  # agent imports this module

        drones = sorted(self.drones, key=lambda d: d.id)
        objects = sorted(self.objects, key=lambda o: o.id)
        drone_x = tuple(float(d.x) for d in drones)
        drone_y = tuple(float(d.y) for d in drones)
        object_x = tuple(float(o.x) for o in objects)
        object_y = tuple(float(o.y) for o in objects)
        in_range, coverage = build_perceptions(
            drone_x, drone_y, object_x, object_y, self.sensing_range)
        return WorldState(
            time=0,
            object_x=object_x,
            object_y=object_y,
            object_dir=tuple(float(o.direction) for o in objects),
            important=tuple(bool(o.important) for o in objects),
            drone_x=drone_x,
            drone_y=drone_y,
            inbox=((),) * len(drones),
            params=self,
            weights=read_only(np.zeros((len(drones), len(drones)))),
            in_range=in_range,
            coverage=coverage,
        )


# JSON types a scene field may hold, by the name error messages give them.
# bool is not a number here, and a float is not an integer.
NUMBER, INTEGER, BOOL = "a number", "an integer", "true or false"


class _JsonObject(dict):
    """A parsed JSON object that keeps the keys its text gave more than once;
    json.loads alone keeps the last value of a repeated key."""

    def __init__(self, pairs):
        super().__init__(pairs)
        keys = [key for key, _ in pairs]
        self.repeated = [key for key in self if keys.count(key) > 1]


_JSON_TYPES = {
    NUMBER: (int, float),
    INTEGER: (int,),
    BOOL: (bool,),
    "a list": (list,),
    "an object": (dict, _JsonObject),
}

_POSITIVE = ("must be positive and finite", lambda v: v > 0 and math.isfinite(v))
_AT_LEAST_1 = ("must be >= 1", lambda v: v >= 1)
_UNIT_OPEN = ("must lie in (0, 1)", lambda v: 0.0 < v < 1.0)
# At least 1, so an object's unit step needs at most one reflection off a wall.
# At most 2**51, where a float's spacing is at most 0.5: a unit step's larger
# component is at least sqrt(1/2), so every step moves an entity.
_ARENA_SIDE = ("must lie in [1, 2**51]", lambda v: 1.0 <= v <= 2.0**51)
# The world parameters in file order: (JSON key, SceneSpec field, JSON type,
# rule as (message, test), gen-scene default, gen-scene help). Scene I/O,
# parameter checks and gen-scene read it.
SCENE_PARAMETERS = (
    ("width", "width", NUMBER, _ARENA_SIDE, 50.0, "arena width"),
    ("height", "height", NUMBER, _ARENA_SIDE, 50.0, "arena height"),
    ("k", "k", INTEGER, _AT_LEAST_1, 2, "coverage requirement"),
    ("range", "sensing_range", NUMBER, _POSITIVE, 10.0, "sensing radius"),
    ("gamma", "gamma", NUMBER, _UNIT_OPEN, 0.9, "edge evaporation factor"),
    ("delta", "delta", NUMBER, _POSITIVE, 1.0, "edge reinforcement"),
    ("importance_period", "importance_period", INTEGER, _AT_LEAST_1, 30,
     "steps between importance flips"),
)

# The scene file, in key order: (JSON key, SceneSpec field, JSON type). An
# entity list's type is its entry's NamedTuple, whose fields are the entry's
# keys, with one JSON type per field.
_SCENE_FIELDS = tuple(row[:3] for row in SCENE_PARAMETERS) + (
    ("drones", "drones", (SceneDrone, (INTEGER, NUMBER, NUMBER))),
    ("objects", "objects", (SceneObject, (INTEGER, NUMBER, NUMBER, NUMBER, BOOL))),
)


def scene_to_dict(scene: SceneSpec) -> dict:
    data = {}
    for key, attr, kind in _SCENE_FIELDS:
        value = getattr(scene, attr)
        data[key] = [entry._asdict() for entry in value] if isinstance(kind, tuple) else value
    return data


def _checked(value, path: str, kind: str):
    if type(value) not in _JSON_TYPES[kind]:
        raise ValueError(f"malformed scene data: {path} must be {kind}, got {value!r}")
    return float(value) if kind == NUMBER else value


def _decoded(obj: dict, prefix: str, fields) -> list:
    """The values of an object's (key, JSON type) fields, in order; any other
    key is an error. An entity list decodes to a tuple of its entry type.
    Paths in messages are `prefix + key`, such as `drones[0].` + `x`."""
    repeated = getattr(obj, "repeated", ())
    if repeated:
        raise ValueError(f"malformed scene data: duplicate field {prefix}{repeated[0]}")
    values = []
    for key, kind in fields:
        path = prefix + key
        if key not in obj:
            raise ValueError(f"malformed scene data: missing field {path}")
        if isinstance(kind, tuple):  # an entity list
            entry, kinds = kind
            entry_fields = tuple(zip(entry._fields, kinds))
            items = [_checked(item, f"{path}[{i}]", "an object")
                     for i, item in enumerate(_checked(obj[key], path, "a list"))]
            values.append(tuple(entry(*_decoded(item, f"{path}[{i}].", entry_fields))
                                for i, item in enumerate(items)))
        else:
            values.append(_checked(obj[key], path, kind))
    known = {key for key, _ in fields}
    for key in obj:
        if key not in known:
            raise ValueError(f"malformed scene data: unknown field {prefix}{key}")
    return values


def scene_from_dict(data: dict) -> SceneSpec:
    """Decode parsed scene JSON without coercing any value's type.

    Numbers must be JSON numbers, `k`, `importance_period` and ids JSON
    integers, and `important` a JSON bool; a key the scene file does not
    have is an error. Anything else raises ValueError naming the field's
    path, such as `objects[0].important`.
    """
    _checked(data, "scene", "an object")
    values = _decoded(data, "", [(key, kind) for key, _, kind in _SCENE_FIELDS])
    return SceneSpec(**{attr: value for (_, attr, _), value in zip(_SCENE_FIELDS, values)})


def parameter_violations(scene: SceneSpec) -> list[str]:
    """Violations among the world parameters alone, each naming its JSON key."""
    return [f"{key} {message}, got {getattr(scene, field)}"
            for key, field, _, (message, holds), *_ in SCENE_PARAMETERS
            if not holds(getattr(scene, field))]


def validate_scene(scene: SceneSpec) -> list[str]:
    """Return a list of violation messages; empty means the scene is valid.

    Every violation names the offending entity or parameter.
    """
    bad = parameter_violations(scene)
    # weights stay under delta * n / (1 - gamma); a knowledge gap past float
    # range reads NaN, and NaN > theta is false for every theta
    bound = 0.0 if bad else scene.delta * len(scene.objects) / (1.0 - scene.gamma)
    m = len(scene.drones)
    if not math.isfinite(bound * bound * m * (m - 1) / 2):
        bad.append("delta must keep (delta * objects / (1 - gamma))^2 * m(m - 1)/2 "
                   f"finite, got {scene.delta}")
    if not scene.drones:
        bad.append("scene has no drones")
    elif len(scene.drones) < 2:  # knowledge is an edge between two drones
        bad.append("scene has 1 drone; need at least two")
    elif scene.k > len(scene.drones):  # no object could ever be k-covered
        bad.append(f"k must be <= the number of drones ({len(scene.drones)}), got {scene.k}")
    if not scene.objects:
        bad.append("scene has no objects")

    seen: set[int] = set()
    for d in scene.drones:
        if d.id in seen:
            bad.append(f"duplicate drone id {d.id}")
        seen.add(d.id)
        if d.id < 0:  # ids key each drone's SeedSequence, which takes no negative entropy
            bad.append(f"drone id {d.id} must be >= 0")
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
    """Read, decode and validate a scene file; a key repeated in one object is an error."""
    scene = scene_from_dict(json.loads(Path(path).read_text(), object_pairs_hook=_JsonObject))
    violations = validate_scene(scene)
    if violations:
        raise ValueError(f"invalid scene {path}: " + "; ".join(violations))
    return scene


def save_scene(scene: SceneSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=2) + "\n")
