"""Domain types: world construction, fleet knowledge, scene files and validation."""

import math

import pytest

from twinsync.model import (
    Message,
    ObjectState,
    SceneDrone,
    SceneObject,
    Vec2,
    WorldParams,
    decode_scene,
    encode_scene,
    load_scene,
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
    assert [d.id for d in world.drones] == [2, 5]
    assert [o.id for o in world.objects] == [4, 9]


def test_build_world_starts_fresh():
    world = SCENE.build_world()
    assert world.time == 0
    for d in world.drones:
        assert d.inbox == ()
    assert world.weights.tolist() == [[0.0] * 3] * 3
    # drone 0 at (1, 2) senses object 0 at (5, 5); nobody reaches object 1
    assert world.in_range.tolist() == [[True, False], [True, False], [False, False]]
    obj = world.objects[0]
    assert obj.position == Vec2(5.0, 5.0)
    assert obj.important is True


def test_world_params_bounds():
    p = WorldParams(50.0, 30.0, 2, 10.0, 0.9, 1.0, 30)
    assert p.bounds == (50.0, 30.0)


def test_with_overrides_keeps_none_and_replaces_rest():
    assert SCENE.with_overrides(k=None, gamma=None) is SCENE
    changed = SCENE.with_overrides(k=3, sensing_range=7.0, gamma=None)
    assert changed.k == 3
    assert changed.sensing_range == 7.0
    assert changed.gamma == SCENE.gamma
    assert changed.drones == SCENE.drones


def test_scene_dict_roundtrip_is_identity():
    assert scene_from_dict(scene_to_dict(SCENE)) == SCENE


def test_scene_text_roundtrip_is_identity():
    assert decode_scene(encode_scene(SCENE)) == SCENE


def test_encode_scene_is_stable_text():
    text = encode_scene(SCENE)
    assert text == encode_scene(SCENE)
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
    msg = Message(1, 2, Vec2(3.0, 4.0), 5)
    assert msg.sender_id == 1 and msg.sent_at == 5
    obj = ObjectState(0, Vec2(1.0, 1.0), 90.0, False)
    assert not obj.important
    drone = SceneDrone(1, 2.0, 3.0)
    assert drone.id == 1
    sobj = SceneObject(2, 1.0, 1.0, 180.0, True)
    assert sobj.important
