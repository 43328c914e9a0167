"""World dynamics: movement, reflection, coverage, the lockstep step function."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsync.harness import agent_streams
from twinsync.model import ActionKind, ObjectState, Vec2
from twinsync.worldsim import (
    clamp_point,
    coverage_map,
    move_object,
    move_point_toward,
    step_world,
    toggle_importance,
    utility_k,
)

from helpers import make_scene

BOUNDS = (50.0, 50.0)


# ------------------------------------------------------------
# Point movement
# ------------------------------------------------------------


def test_clamp_point_corners():
    assert clamp_point(Vec2(-1.0, 25.0), BOUNDS) == Vec2(0.0, 25.0)
    assert clamp_point(Vec2(51.0, -3.0), BOUNDS) == Vec2(50.0, 0.0)
    assert clamp_point(Vec2(12.0, 13.0), BOUNDS) == Vec2(12.0, 13.0)


def test_move_point_toward_axis_aligned():
    assert move_point_toward(Vec2(0, 0), Vec2(10, 0), 1.0, BOUNDS) == Vec2(1.0, 0.0)


def test_move_point_toward_overshoot_snaps_to_target():
    assert move_point_toward(Vec2(0, 0), Vec2(0.5, 0), 1.0, BOUNDS) == Vec2(0.5, 0.0)


def test_move_point_toward_exact_arrival():
    assert move_point_toward(Vec2(0, 0), Vec2(3, 4), 5.0, BOUNDS) == Vec2(3.0, 4.0)


def test_move_point_toward_degenerate_stays_put():
    assert move_point_toward(Vec2(2, 2), Vec2(2, 2), 1.0, BOUNDS) == Vec2(2.0, 2.0)


def test_move_point_toward_proportional_step():
    got = move_point_toward(Vec2(0, 0), Vec2(3, 4), 1.0, BOUNDS)
    assert got.x == pytest.approx(0.6)
    assert got.y == pytest.approx(0.8)


# ------------------------------------------------------------
# Object movement and reflection
# ------------------------------------------------------------


def obj_at(x, y, direction, important=True, oid=0):
    return ObjectState(oid, Vec2(x, y), direction, important)


def test_move_object_straight_east():
    out = move_object(obj_at(5.0, 5.0, 0.0), 0.0, BOUNDS)
    assert out.position.x == pytest.approx(6.0)
    assert out.position.y == pytest.approx(5.0)
    assert out.direction == 0.0


def test_move_object_bias_rotates_displacement():
    out = move_object(obj_at(5.0, 5.0, 0.0), 3.0, BOUNDS)
    # cos/sin of 3 degrees, frozen
    assert out.position.x - 5.0 == pytest.approx(0.9986295347545738, abs=1e-15)
    assert out.position.y - 5.0 == pytest.approx(0.05233595624294383, abs=1e-15)


def test_move_object_bias_accumulates_by_default():
    out = move_object(obj_at(5.0, 5.0, 0.0), 3.0, BOUNDS, bias_mode="accumulate")
    assert out.direction == pytest.approx(3.0)
    twice = move_object(out, 3.0, BOUNDS, bias_mode="accumulate")
    assert twice.direction == pytest.approx(6.0)


def test_move_object_fixed_bias_keeps_stored_heading():
    out = move_object(obj_at(5.0, 5.0, 0.0), 3.0, BOUNDS, bias_mode="fixed")
    assert out.direction == 0.0
    # displacement still uses the biased heading
    assert out.position.y - 5.0 == pytest.approx(0.05233595624294383, abs=1e-15)


def test_move_object_rejects_unknown_bias_mode():
    with pytest.raises(ValueError, match="bias mode"):
        move_object(obj_at(5.0, 5.0, 0.0), 0.0, BOUNDS, bias_mode="wobble")


def test_move_object_reflects_off_right_wall():
    # raw landing at x=50.5 mirrors back to 49.5 and flips the heading west
    out = move_object(obj_at(49.5, 5.0, 0.0), 0.0, BOUNDS)
    assert out.position.x == pytest.approx(49.5)
    assert out.position.y == pytest.approx(5.0)
    assert out.direction == pytest.approx(180.0)


def test_move_object_reflects_off_top_wall():
    out = move_object(obj_at(5.0, 49.5, 90.0), 0.0, BOUNDS)
    assert out.position.y == pytest.approx(49.5)
    assert out.direction == pytest.approx(270.0)


def test_move_object_corner_double_reflection():
    out = move_object(obj_at(49.9, 49.9, 45.0), 0.0, BOUNDS)
    leg = math.sqrt(2.0) / 2.0
    assert out.position.x == pytest.approx(100.0 - (49.9 + leg))
    assert out.position.y == pytest.approx(100.0 - (49.9 + leg))
    assert out.direction == pytest.approx(225.0)


@given(
    st.floats(0.0, 50.0),
    st.floats(0.0, 50.0),
    st.floats(-1e4, 1e4),
    st.floats(-10.0, 10.0),
    st.sampled_from(["accumulate", "fixed"]),
)
@settings(max_examples=200, deadline=None)
def test_move_object_stays_in_bounds(x, y, direction, bias, mode):
    out = move_object(obj_at(x, y, direction), bias, BOUNDS, bias_mode=mode)
    assert 0.0 <= out.position.x <= 50.0
    assert 0.0 <= out.position.y <= 50.0
    assert 0.0 <= out.direction < 360.0 or out.direction == pytest.approx(360.0)
    assert math.isfinite(out.direction)


def test_move_object_long_run_keeps_invariants():
    obj = obj_at(25.0, 25.0, 37.0)
    for _ in range(500):
        obj = move_object(obj, 3.0, BOUNDS)
        assert 0.0 <= obj.position.x <= 50.0
        assert 0.0 <= obj.position.y <= 50.0


# ------------------------------------------------------------
# Importance cycling, coverage, utility
# ------------------------------------------------------------


def world_of(drones, objects, **params):
    return make_scene(drones, objects, **params).build_world()


def test_toggle_importance_flips_on_period():
    world = world_of([(0, 1.0, 1.0)], [(0, 5.0, 5.0, 0.0, True), (1, 9.0, 9.0, 0.0, False)])
    flipped = toggle_importance(world, 30, 30)
    assert [o.important for o in flipped.objects] == [False, True]
    # positions stay, so the sensing and the weights carry over unchanged
    assert flipped.in_range is world.in_range and flipped.weights is world.weights


def test_toggle_importance_leaves_other_steps_alone():
    world = world_of([(0, 1.0, 1.0)], [(0, 5.0, 5.0, 0.0, True)])
    assert toggle_importance(world, 0, 30) is world
    assert toggle_importance(world, 31, 30) is world


def test_toggle_importance_validates_period():
    world = world_of([(0, 1.0, 1.0)], [(0, 5.0, 5.0, 0.0, True)])
    with pytest.raises(ValueError, match="period"):
        toggle_importance(world, 30, 0)


def test_coverage_map_boundary_inclusive():
    world = world_of(
        [(0, 0.0, 0.0), (1, 8.0, 0.0), (2, 40.0, 40.0)],
        [(0, 4.0, 3.0, 0.0, True), (1, 20.0, 20.0, 0.0, False)],
        sensing_range=5.0,
    )
    assert world.in_range[:, 0].tolist() == [True, True, False]  # both at exactly 5
    assert coverage_map(world).tolist() == [2, 0]


def test_coverage_map_no_drones():
    world = world_of([], [(0, 5.0, 5.0, 0.0, True)])
    assert world.in_range.shape == (0, 1)
    assert coverage_map(world).tolist() == [0]


def test_utility_counts_k_covered_fraction():
    # objects 0..2 get two drones each, the rest are uncovered
    drones = [(i, float(i * 10), 0.0) for i in range(3)]
    drones += [(10 + i, float(i * 10), 1.0) for i in range(3)]
    objects = [(i, float(i * 10), 2.0, 0.0, True) for i in range(10)]
    world = world_of(drones, objects, sensing_range=3.0)
    assert utility_k(world, 2) == pytest.approx(0.3)
    assert utility_k(world, 1) == pytest.approx(0.3)
    assert utility_k(world, 3) == 0.0


def test_utility_requires_objects():
    world = world_of([], [])
    with pytest.raises(ValueError, match="no objects"):
        utility_k(world, 2)


# ------------------------------------------------------------
# The step function
# ------------------------------------------------------------


def test_step_world_without_drones_moves_objects_only():
    world = world_of([], [(0, 5.0, 5.0, 0.0, True)])
    stepped, actions = step_world(world, {})
    assert actions == ()
    assert stepped.time == 1
    assert stepped.objects[0].position.x == pytest.approx(6.0)


def test_step_world_is_pure_and_deterministic():
    scene = make_scene(
        drones=[(0, 10.0, 10.0), (1, 30.0, 30.0)],
        objects=[(0, 12.0, 10.0, 0.0, True), (1, 40.0, 8.0, 90.0, False)],
    )
    w1, w2 = scene.build_world(), scene.build_world()
    r1, r2 = agent_streams(7, [0, 1]), agent_streams(7, [0, 1])
    for _ in range(20):
        w1, a1 = step_world(w1, r1)
        w2, a2 = step_world(w2, r2)
        assert a1 == a2
    assert (w1.time, w1.objects, w1.drones) == (w2.time, w2.objects, w2.drones)
    assert np.array_equal(w1.weights, w2.weights)
    assert np.array_equal(w1.in_range, w2.in_range)


def test_step_world_counts_and_clock():
    scene = make_scene(
        drones=[(0, 10.0, 10.0), (1, 30.0, 30.0)],
        objects=[(0, 12.0, 10.0, 0.0, True)],
    )
    world = scene.build_world()
    rngs = agent_streams(3, [0, 1])
    for t in range(40):
        assert world.time == t
        world, actions = step_world(world, rngs)
        assert len(actions) == 2
        assert len(world.drones) == 2
        assert len(world.objects) == 1
        assert all(0 <= d.position.x <= 50 and 0 <= d.position.y <= 50
                   for d in world.drones)


def test_step_world_importance_flips_at_period():
    scene = make_scene(
        drones=[(0, 45.0, 45.0)],
        objects=[(0, 5.0, 5.0, 0.0, True)],
        importance_period=5,
    )
    world = scene.build_world()
    rngs = agent_streams(0, [0])
    flags = [world.objects[0].important]
    for _ in range(10):
        world, _ = step_world(world, rngs)
        flags.append(world.objects[0].important)
    # toggles when the post-step clock hits 5 and 10
    assert flags[:6] == [True] * 5 + [False]
    assert flags[6:] == [False] * 4 + [True]


def notify_scene():
    # drone 0 sits on an important object; drone 1 idles far away
    return make_scene(
        drones=[(0, 0.0, 0.0), (1, 30.0, 30.0)],
        objects=[(0, 1.0, 0.0, 0.0, True)],
    )


def test_step_world_delivers_messages_next_step():
    world = notify_scene().build_world()
    rngs = agent_streams(1, [0, 1])

    world, actions = step_world(world, rngs)
    assert actions[0].kind is ActionKind.NOTIFY_AND_FOLLOW
    assert actions[0].notified_drones == {1}
    inbox = world.drone(1).inbox
    assert len(inbox) == 1
    # sentAt is the step before delivery
    assert inbox[0] == (0, 0, Vec2(1.0, 0.0), world.time - 1)

    world2, actions2 = step_world(world, rngs)
    assert actions2[1].kind is ActionKind.RESPOND_AND_FOLLOW
    assert actions2[1].responded_to == 0
    # the old message expired; the re-notification replaced it
    inbox2 = world2.drone(1).inbox
    assert [m.sent_at for m in inbox2] == [1]


def test_step_world_responder_moves_toward_advertised_position():
    world = notify_scene().build_world()
    rngs = agent_streams(1, [0, 1])
    world, _ = step_world(world, rngs)
    before = world.drone(1).position
    world, actions = step_world(world, rngs)
    after = world.drone(1).position
    assert actions[1].kind is ActionKind.RESPOND_AND_FOLLOW
    moved = before.distance_to(after)
    assert moved == pytest.approx(2.0)
    # strictly closer to the advertised object position (1, 0)
    assert after.distance_to(Vec2(1.0, 0.0)) < before.distance_to(Vec2(1.0, 0.0))


def test_step_world_random_walk_budget():
    scene = make_scene(drones=[(0, 25.0, 25.0)], objects=[(0, 5.0, 5.0, 0.0, False)])
    world = scene.build_world()
    rngs = agent_streams(2, [0])
    before = world.drone(0).position
    world, actions = step_world(world, rngs)
    assert actions[0].kind is ActionKind.RANDOM_WALK
    assert before.distance_to(world.drone(0).position) == pytest.approx(5.0)


def test_step_world_evolves_pheromone_edges():
    # two drones co-covering one important object reinforce each other
    scene = make_scene(
        drones=[(0, 0.0, 0.0), (1, 2.0, 0.0)],
        objects=[(0, 1.0, 0.0, 90.0, True)],
    )
    world = scene.build_world()
    rngs = agent_streams(5, [0, 1])
    world, _ = step_world(world, rngs)
    assert world.weights[0, 1] == pytest.approx(1.0)
    assert world.weights[1, 0] == pytest.approx(1.0)
    world, _ = step_world(world, rngs)
    w01 = world.weights[0, 1]
    assert w01 == pytest.approx(0.9 + 1.0)
    assert not world.weights.flags.writeable


def test_step_world_bias_only_affects_objects():
    scene = notify_scene()
    w_plain = scene.build_world()
    w_biased = scene.build_world()
    r1 = agent_streams(4, [0, 1])
    r2 = agent_streams(4, [0, 1])
    w_plain, _ = step_world(w_plain, r1)
    w_biased, _ = step_world(w_biased, r2, bias_degrees=3.0)
    assert w_plain.drones == w_biased.drones
    assert w_plain.objects != w_biased.objects
