"""Domain types: world construction, fleet knowledge, scene files and validation."""

import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsync.model import (
    SCENE_PARAMETERS,
    ActionKind,
    ActionRecord,
    SceneDrone,
    SceneObject,
    SceneSpec,
    load_scene,
    parameter_violations,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    validate_scene,
)

from helpers import make_scene


SCENE = make_scene(
    drones=[(0, 1.0, 2.0), (1, 10.0, 10.0), (2, 40.0, 5.0)],
    objects=[(0, 5.0, 5.0, 0.0, True), (1, 20.0, 20.0, 90.0, False)],
)


def test_knowledge_graph_missing_edge_reads_zero():
    # an edge no pair has reinforced reads as weight 0
    world = SCENE.build_world()
    assert world.weights[0, 2] == 0.0 and world.weights[2, 0] == 0.0


def test_knowledge_graph_empty():
    world = SCENE.build_world()
    assert world.weights.shape == (3, 3)
    assert not world.weights.any()
    assert not world.weights.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        world.weights[0, 1] = 1.0


def test_build_world_sorts_entities_by_id():
    scene = make_scene(
        drones=[(5, 1.0, 1.0), (2, 2.0, 2.0)],
        objects=[(9, 3.0, 3.0, 0.0, False), (4, 4.0, 4.0, 90.0, True)],
    )
    world = scene.build_world()
    assert world.drone_ids == (2, 5)
    assert (world.drone_x, world.drone_y) == ((2.0, 1.0), (2.0, 1.0))
    assert world.object_ids == (4, 9)
    assert world.object_dir == (90.0, 0.0)
    assert world.important == (True, False)


def test_build_world_starts_fresh():
    world = SCENE.build_world()
    assert world.time == 0
    assert world.inbox == ((), (), ())
    assert world.weights.tolist() == [[0.0] * 3] * 3
    # drone 0 at (1, 2) senses object 0 at (5, 5); nobody reaches object 1
    assert world.in_range.tolist() == [[True, False], [True, False], [False, False]]
    assert world.coverage == (2, 0)
    assert (world.object_x[0], world.object_y[0]) == (5.0, 5.0)
    assert world.important[0] is True


def test_build_world_carries_no_actions():
    # no step made a fresh world, so it holds no action records
    assert SCENE.build_world().actions == ()


def test_world_params_are_the_scene_with_its_bounds():
    scene = make_scene(drones=[(0, 1.0, 2.0)], objects=[(0, 5.0, 5.0, 0.0, True)],
                       width=50.0, height=30.0)
    assert scene.bounds == (50.0, 30.0)
    assert scene.build_world().params is scene


def test_scene_dict_roundtrip_is_identity():
    assert scene_from_dict(scene_to_dict(SCENE)) == SCENE


def saved_text(scene: SceneSpec) -> str:
    """The text save_scene writes for a scene."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.json"
        save_scene(scene, path)
        return path.read_text()


def test_scene_text_roundtrip_is_identity():
    assert scene_from_dict(json.loads(saved_text(SCENE))) == SCENE


def test_saved_scene_is_stable_text():
    text = saved_text(SCENE)
    assert text == saved_text(SCENE)
    assert text.endswith("\n")
    assert '"range"' in text


def test_scene_from_dict_rejects_malformed_data():
    data = scene_to_dict(SCENE)
    del data["gamma"]
    with pytest.raises(ValueError, match="malformed"):
        scene_from_dict(data)


def test_validate_accepts_good_scene():
    assert validate_scene(SCENE) == []


def test_validate_reports_duplicate_drone_id():
    scene = make_scene(
        drones=[(3, 1.0, 1.0), (3, 2.0, 2.0)],
        objects=[(0, 5.0, 5.0, 0.0, True)],
    )
    assert any("duplicate drone id 3" in v for v in validate_scene(scene))


def test_validate_reports_out_of_bounds_object():
    scene = make_scene(
        drones=[(0, 1.0, 1.0)],
        objects=[(7, 60.0, 10.0, 0.0, True)],
    )
    violations = validate_scene(scene)
    assert any("object 7" in v and "out of bounds" in v for v in violations)


def test_validate_reports_parameter_violations():
    scene = make_scene(
        drones=[],
        objects=[],
        width=-1.0,
        k=0,
        sensing_range=0.0,
        gamma=1.0,
        delta=0.0,
        importance_period=0,
    )
    text = "\n".join(validate_scene(scene))
    for needle in ("width", "k must", "range", "gamma", "delta",
                   "importance_period", "no drones", "no objects"):
        assert needle in text


# A bad value per world parameter, by JSON key, and the message it must get.
BROKEN_PARAMETERS = {
    "width": (0.0, "width must be finite and >= 1, got 0.0"),
    "height": (math.inf, "height must be finite and >= 1, got inf"),
    "k": (0, "k must be >= 1, got 0"),
    "range": (-1.0, "range must be positive and finite, got -1.0"),
    "gamma": (1.0, "gamma must lie in (0, 1), got 1.0"),
    "delta": (math.nan, "delta must be positive and finite, got nan"),
    "importance_period": (0, "importance_period must be >= 1, got 0"),
}


@pytest.mark.parametrize("key,field", [row[:2] for row in SCENE_PARAMETERS],
                         ids=[row[0] for row in SCENE_PARAMETERS])
def test_each_parameter_broken_alone_is_named_by_its_key(key, field):
    value, message = BROKEN_PARAMETERS[key]
    assert parameter_violations(SCENE) == []
    assert parameter_violations(dataclasses.replace(SCENE, **{field: value})) == [message]


def test_validate_rejects_a_delta_whose_knowledge_gap_overflows():
    # weights stay under delta * n / (1 - gamma); once the squared knowledge
    # gap over m(m - 1)/2 edges leaves float range, the metric reads NaN
    assert validate_scene(dataclasses.replace(SCENE, delta=1e150)) == []
    assert validate_scene(dataclasses.replace(SCENE, delta=1e308)) == [
        "delta must keep (delta * objects / (1 - gamma))^2 * m(m - 1)/2 finite, got 1e+308"]
    # the rule is read only when every parameter holds, so 1 - gamma is never 0
    assert validate_scene(dataclasses.replace(SCENE, gamma=1.0, delta=1e308)) == [
        "gamma must lie in (0, 1), got 1.0"]


def test_validate_rejects_a_one_drone_scene(tmp_path):
    # knowledge is an edge between two drones, so no checker can price a lone drone
    lone = make_scene(drones=[(0, 1.0, 1.0)], objects=[(0, 5.0, 5.0, 0.0, True)])
    assert "scene has 1 drone; need at least two" in validate_scene(lone)
    path = tmp_path / "lone.json"
    save_scene(lone, path)
    with pytest.raises(ValueError, match="1 drone; need at least two"):
        load_scene(path)


def test_validate_rejects_k_above_the_drone_count():
    # no object could ever be k-covered, so every utility would read 0
    pair = [(0, 1.0, 1.0), (1, 2.0, 2.0)]
    objects = [(0, 5.0, 5.0, 0.0, True)]
    assert validate_scene(make_scene(drones=pair, objects=objects, k=2)) == []
    assert validate_scene(make_scene(drones=pair, objects=objects, k=3)) == [
        "k must be <= the number of drones (2), got 3"]
    # a scene short of drones reports only that
    lone = make_scene(drones=[(0, 1.0, 1.0)], objects=objects, k=3)
    assert validate_scene(lone) == ["scene has 1 drone; need at least two"]
    none = make_scene(drones=[], objects=objects, k=3)
    assert validate_scene(none) == ["scene has no drones"]


def test_validate_rejects_non_finite_direction():
    scene = make_scene(
        drones=[(0, 1.0, 1.0)],
        objects=[(0, 5.0, 5.0, math.nan, True)],
    )
    assert any("direction" in v for v in validate_scene(scene))


def test_save_and_load_roundtrip(tmp_path):
    path = tmp_path / "scene.json"
    save_scene(SCENE, path)
    assert load_scene(path) == SCENE


def test_load_scene_strict_rejects_invalid(tmp_path):
    bad = make_scene(drones=[(0, 99.0, 1.0)], objects=[(0, 5.0, 5.0, 0.0, True)])
    path = tmp_path / "bad.json"
    save_scene(bad, path)
    with pytest.raises(ValueError, match="out of bounds"):
        load_scene(path)


def test_message_and_entity_shapes():
    record = ActionRecord(ActionKind.FOLLOW, 4)
    assert record == (ActionKind.FOLLOW, 4, frozenset(), None)
    assert record.followed_object == 4 and record.responded_to is None
    drone = SceneDrone(1, 2.0, 3.0)
    assert drone.id == 1
    sobj = SceneObject(2, 1.0, 1.0, 180.0, True)
    assert sobj.important


# ------------------------------------------------------------
# Strict decoding
# ------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)

scenes = st.builds(
    SceneSpec,
    width=finite, height=finite, k=st.integers(), sensing_range=finite, gamma=finite,
    delta=finite, importance_period=st.integers(),
    drones=st.lists(st.builds(SceneDrone, st.integers(), finite, finite),
                    max_size=4).map(tuple),
    objects=st.lists(st.builds(SceneObject, st.integers(), finite, finite, finite,
                               st.booleans()), max_size=4).map(tuple),
)


@given(scenes)
@settings(max_examples=100, deadline=None)
def test_scene_save_decode_roundtrip_property(scene):
    # any scene, valid or not: load_scene would reject the invalid ones
    decoded = scene_from_dict(json.loads(saved_text(scene)))
    assert decoded == scene
    assert all(type(v) is float for d in decoded.drones for v in d[1:])
    assert all(type(o.important) is bool for o in decoded.objects)


# JSON kind of every field of SCENE, by path, and values of every other kind.
FIELD_KINDS = {
    **{key: "number" for key in ("width", "height", "range", "gamma", "delta")},
    "k": "integer", "importance_period": "integer",
    **{f"drones[1].{key}": "number" for key in ("x", "y")}, "drones[1].id": "integer",
    **{f"objects[0].{key}": "number" for key in ("x", "y", "direction")},
    "objects[0].id": "integer", "objects[0].important": "bool",
}
WRONG_VALUES = {
    "number": st.one_of(st.booleans(), st.text(), st.none(), st.just([1.0])),
    "integer": st.one_of(st.booleans(), st.text(), st.none(), finite),
    "bool": st.one_of(st.integers(), finite, st.text(), st.none()),
}


def holder_of(data, path):
    """The dict that holds a field path such as `objects[0].x`, and its key."""
    *parents, key = path.replace("[", ".").replace("]", "").split(".")
    for part in parents:
        data = data[int(part)] if part.isdigit() else data[part]
    return data, key


@given(st.sampled_from(sorted(FIELD_KINDS)).flatmap(
    lambda path: st.tuples(st.just(path), WRONG_VALUES[FIELD_KINDS[path]])))
@settings(max_examples=150, deadline=None)
def test_mistyped_scene_field_is_named_and_exits_1(case):
    import json
    import tempfile

    from twinsync.cli import main

    path, value = case
    data = scene_to_dict(SCENE)
    holder, key = holder_of(data, path)
    holder[key] = value
    with pytest.raises(ValueError, match=re.escape(f"{path} must be")):
        scene_from_dict(data)
    with tempfile.TemporaryDirectory() as tmp:
        scene_file = Path(tmp) / "bad.json"
        scene_file.write_text(json.dumps(data))
        assert main(["run", "--scene", str(scene_file), "--steps", "1",
                     "--trace", str(Path(tmp) / "t.csv"),
                     "--summary", str(Path(tmp) / "s.csv")]) == 1


# Every key of a scene file, top level and entry level.
SCENE_KEYS = sorted(FIELD_KINDS) + ["drones", "objects"]


@pytest.mark.parametrize("path", SCENE_KEYS)
def test_missing_scene_field_is_named(path):
    data = scene_to_dict(SCENE)
    holder, key = holder_of(data, path)
    del holder[key]
    with pytest.raises(ValueError, match=re.escape(f"missing field {path}")):
        scene_from_dict(data)


@pytest.mark.parametrize("path", SCENE_KEYS)
def test_unknown_scene_field_is_named_and_exits_1(tmp_path, path):
    from twinsync.cli import main

    data = scene_to_dict(SCENE)
    holder, key = holder_of(data, path)
    holder[key + "_copy"] = holder[key]  # such as sensing_range beside range
    with pytest.raises(ValueError, match=re.escape(
            f"malformed scene data: unknown field {path}_copy")):
        scene_from_dict(data)
    scene_file = tmp_path / "extra.json"
    scene_file.write_text(json.dumps(data))
    assert main(["run", "--scene", str(scene_file), "--steps", "1",
                 "--trace", str(tmp_path / "t.csv"),
                 "--summary", str(tmp_path / "s.csv")]) == 1


@pytest.mark.parametrize("path", SCENE_KEYS)
def test_repeated_scene_key_is_named(tmp_path, path):
    # json.loads alone keeps the last value of a repeated key; even the same
    # value given twice is refused
    data = scene_to_dict(SCENE)
    holder, key = holder_of(data, path)
    value = json.dumps(holder[key])
    holder[key] = "REPEATED"
    scene_file = tmp_path / "twice.json"
    scene_file.write_text(json.dumps(data).replace('"REPEATED"', f'{value}, "{key}": {value}'))
    with pytest.raises(ValueError, match=re.escape(
            f"malformed scene data: duplicate field {path}")):
        load_scene(scene_file)


@pytest.mark.parametrize("data,path", [
    ([], "scene"),
    ({**scene_to_dict(SCENE), "drones": {}}, "drones"),
    ({**scene_to_dict(SCENE), "objects": [3]}, "objects[0]"),
])
def test_malformed_scene_containers_are_named(data, path):
    with pytest.raises(ValueError, match=re.escape(f"{path} must be")):
        scene_from_dict(data)


def test_bundled_scenes_decode_strictly():
    for scene_file in sorted((Path(__file__).resolve().parent.parent / "scenes").glob("*.json")):
        assert validate_scene(load_scene(scene_file)) == []
