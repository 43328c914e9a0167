"""World dynamics: movement, reflection, coverage, the lockstep step function."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsync.harness import agent_streams
from twinsync.model import (FOLLOW, NOTIFY_AND_FOLLOW, RANDOM_WALK, RESPOND_AND_FOLLOW,
                            load_scene)
from twinsync.worldsim import coverage_map, step_world, utility_k

from helpers import (
    make_scene,
    reference_agent_streams,
    reference_build_world,
    reference_step,
)

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def run_steps(world, streams, steps, t0=0, **kwargs):
    """Step a world `steps` times from tape row t0; it carries the last actions."""
    choice, walk = streams
    for t in range(t0, t0 + steps):
        world = step_world(world, choice[t].tolist(), walk[t].tolist(), **kwargs)
    return world


# ------------------------------------------------------------
# Drone movement
# ------------------------------------------------------------
# The movement rules live inside step_world: these cases step worlds built
# so that one rule decides each drone's or object's next position.


def world_of(drones, objects, **params):
    return make_scene(drones, objects, **params).build_world()


def follow_step(drone, target):
    """Where a lone drone at `drone` moves when it follows an object at `target`."""
    world = world_of([(0, *drone)], [(0, *target, 0.0, True)], k=1)
    stepped = step_world(world, [0.0], [0.0])
    assert stepped.actions[0].kind == FOLLOW
    return stepped.drone_x[0], stepped.drone_y[0]


def test_clamp_point_corners():
    # random walks of 5 units out past a wall or a corner stop on the bounds
    far = [(0, 40.0, 40.0, 0.0, False)]  # unimportant: every drone walks
    world = world_of([(0, 2.0, 25.0), (1, 48.0, 2.0), (2, 1.0, 1.0), (3, 12.0, 13.0)], far)
    stepped = step_world(world, [0.0] * 4, [0.5, 0.875, 0.625, 0.0])  # 180, 315, 225, 0 deg
    assert [a.kind for a in stepped.actions] == [RANDOM_WALK] * 4
    assert stepped.drone_x == (0.0, 50.0, 0.0, 17.0)
    assert stepped.drone_y == (25.0, 0.0, 0.0, 13.0)


def test_move_point_toward_axis_aligned():
    assert follow_step((0.0, 0.0), (10.0, 0.0)) == (1.0, 0.0)


def test_move_point_toward_overshoot_snaps_to_target():
    assert follow_step((0.0, 0.0), (0.5, 0.0)) == (0.5, 0.0)


def test_move_point_toward_exact_arrival():
    assert follow_step((3.0, 3.0), (3.0, 4.0)) == (3.0, 4.0)


def test_move_point_toward_degenerate_stays_put():
    assert follow_step((2.0, 2.0), (2.0, 2.0)) == (2.0, 2.0)


def test_move_point_toward_proportional_step():
    x, y = follow_step((0.0, 0.0), (3.0, 4.0))
    assert x == pytest.approx(0.6)
    assert y == pytest.approx(0.8)


# ------------------------------------------------------------
# Object movement and reflection
# ------------------------------------------------------------


def move_object(x, y, direction, bias_degrees):
    """One object's next (x, y, direction): one step of a drone-less world."""
    world = world_of([], [(0, x, y, direction, True)])
    stepped = step_world(world, [], [], bias_degrees=bias_degrees)
    return stepped.object_x[0], stepped.object_y[0], stepped.object_dir[0]


def test_move_object_straight_east():
    x, y, direction = move_object(5.0, 5.0, 0.0, 0.0)
    assert x == pytest.approx(6.0)
    assert y == pytest.approx(5.0)
    assert direction == 0.0


def test_move_object_bias_rotates_displacement():
    x, y, _ = move_object(5.0, 5.0, 0.0, 3.0)
    # cos/sin of 3 degrees, frozen
    assert x - 5.0 == pytest.approx(0.9986295347545738, abs=1e-15)
    assert y - 5.0 == pytest.approx(0.05233595624294383, abs=1e-15)


def test_move_object_bias_accumulates_by_default():
    x, y, direction = move_object(5.0, 5.0, 0.0, 3.0)
    assert direction == pytest.approx(3.0)
    assert move_object(x, y, direction, 3.0)[2] == pytest.approx(6.0)


def test_move_object_rejects_unknown_bias_mode():
    # the heading bias always compounds: there is no mode left to choose
    world = make_scene([(0, 1.0, 1.0), (1, 2.0, 2.0)], [(0, 5.0, 5.0, 0.0, True)]).build_world()
    with pytest.raises(TypeError):
        step_world(world, [0.5, 0.5], [0.5, 0.5], bias_degrees=3.0, accumulate=False)
    with pytest.raises(TypeError):
        step_world(world, [0.5, 0.5], [0.5, 0.5], bias_degrees=3.0, bias_mode="fixed")


def test_move_object_reflects_off_right_wall():
    # raw landing at x=50.5 mirrors back to 49.5 and flips the heading west
    x, y, direction = move_object(49.5, 5.0, 0.0, 0.0)
    assert x == pytest.approx(49.5)
    assert y == pytest.approx(5.0)
    assert direction == pytest.approx(180.0)


def test_move_object_reflects_off_top_wall():
    _, y, direction = move_object(5.0, 49.5, 90.0, 0.0)
    assert y == pytest.approx(49.5)
    assert direction == pytest.approx(270.0)


def test_move_object_corner_double_reflection():
    x, y, direction = move_object(49.9, 49.9, 45.0, 0.0)
    leg = math.sqrt(2.0) / 2.0
    assert x == pytest.approx(100.0 - (49.9 + leg))
    assert y == pytest.approx(100.0 - (49.9 + leg))
    assert direction == pytest.approx(225.0)


@given(
    st.floats(0.0, 50.0),
    st.floats(0.0, 50.0),
    st.floats(-1e4, 1e4),
    st.floats(-10.0, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_move_object_stays_in_bounds(x, y, direction, bias):
    x, y, direction = move_object(x, y, direction, bias)
    assert 0.0 <= x <= 50.0
    assert 0.0 <= y <= 50.0
    assert 0.0 <= direction < 360.0 or direction == pytest.approx(360.0)
    assert math.isfinite(direction)


@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(-1e4, 1e4),
    st.floats(-10.0, 10.0),
)
@settings(max_examples=200, deadline=None)
def test_move_object_in_the_narrowest_arena_stays_in_bounds(x, y, direction, bias):
    # scenes are at least 1 wide and high, so one reflection per axis lands inside
    world = world_of([], [(0, x, y, direction, True)], width=1.0, height=1.0)
    stepped = step_world(world, [], [], bias_degrees=bias)
    assert 0.0 <= stepped.object_x[0] <= 1.0
    assert 0.0 <= stepped.object_y[0] <= 1.0


def test_move_object_long_run_keeps_invariants():
    world = world_of([], [(0, 25.0, 25.0, 37.0, True)])
    for _ in range(500):
        world = step_world(world, [], [], bias_degrees=3.0)
        assert 0.0 <= world.object_x[0] <= 50.0
        assert 0.0 <= world.object_y[0] <= 50.0


# ------------------------------------------------------------
# Importance cycling, coverage, utility
# ------------------------------------------------------------


def test_toggle_importance_flips_on_period():
    world = world_of([], [(0, 5.0, 5.0, 0.0, True), (1, 9.0, 9.0, 0.0, False)])
    for t in range(1, 61):
        world = step_world(world, [], [])
        if t == 30:
            assert world.important == (False, True)
    assert world.important == (True, False)


def test_toggle_importance_leaves_other_steps_alone():
    world = world_of([], [(0, 5.0, 5.0, 0.0, True), (1, 9.0, 9.0, 0.0, False)])
    for _ in range(31):
        stepped = step_world(world, [], [])
        if stepped.time != 30:
            assert stepped.important is world.important
        world = stepped


def test_coverage_map_boundary_inclusive():
    world = world_of(
        [(0, 0.0, 0.0), (1, 8.0, 0.0), (2, 40.0, 40.0)],
        [(0, 4.0, 3.0, 0.0, True), (1, 20.0, 20.0, 0.0, False)],
        sensing_range=5.0,
    )
    assert world.in_range[:, 0].tolist() == [True, True, False]  # both at exactly 5
    assert coverage_map(world) == (2, 0)


def test_coverage_map_no_drones():
    world = world_of([], [(0, 5.0, 5.0, 0.0, True)])
    assert world.in_range.shape == (0, 1)
    assert coverage_map(world) == (0,)


def test_utility_counts_k_covered_fraction():
    # objects 0..2 get two drones each, the rest are uncovered
    drones = [(i, float(i * 10), 0.0) for i in range(3)]
    drones += [(10 + i, float(i * 10), 1.0) for i in range(3)]
    objects = [(i, float(i * 10), 2.0, 0.0, True) for i in range(10)]
    for k, expected in ((2, 0.3), (1, 0.3), (3, 0.0)):
        # k is the scene's: the world reads it from its params
        world = world_of(drones, objects, sensing_range=3.0, k=k)
        assert utility_k(world) == pytest.approx(expected)


# ------------------------------------------------------------
# The step function
# ------------------------------------------------------------


def test_step_world_without_drones_moves_objects_only():
    world = world_of([], [(0, 5.0, 5.0, 0.0, True)])
    stepped = step_world(world, [], [])
    assert stepped.actions == ()
    assert stepped.time == 1
    assert stepped.object_x[0] == pytest.approx(6.0)


def columns(world):
    return (world.time, world.object_x, world.object_y, world.object_dir, world.important,
            world.drone_x, world.drone_y, world.inbox, world.coverage)


def test_step_world_is_pure_and_deterministic():
    scene = make_scene(
        drones=[(0, 10.0, 10.0), (1, 30.0, 30.0)],
        objects=[(0, 12.0, 10.0, 0.0, True), (1, 40.0, 8.0, 90.0, False)],
    )
    w1, w2 = scene.build_world(), scene.build_world()
    tapes = agent_streams(7, [0, 1], steps=20)
    for t in range(20):
        w1 = run_steps(w1, tapes, 1, t0=t)
        w2 = run_steps(w2, tapes, 1, t0=t)
        assert w1.actions == w2.actions
    assert columns(w1) == columns(w2)
    assert np.array_equal(w1.weights, w2.weights)
    assert np.array_equal(w1.in_range, w2.in_range)


def test_step_world_counts_and_clock():
    scene = make_scene(
        drones=[(0, 10.0, 10.0), (1, 30.0, 30.0)],
        objects=[(0, 12.0, 10.0, 0.0, True)],
    )
    world = scene.build_world()
    tapes = agent_streams(3, [0, 1], steps=40)
    for t in range(40):
        assert world.time == t
        world = run_steps(world, tapes, 1, t0=t)
        assert len(world.actions) == 2
        assert len(world.drone_x) == len(world.drone_y) == len(world.inbox) == 2
        assert len(world.object_x) == len(world.coverage) == 1
        assert all(0 <= x <= 50 for x in world.drone_x)
        assert all(0 <= y <= 50 for y in world.drone_y)


def test_step_world_importance_flips_at_period():
    scene = make_scene(
        drones=[(0, 45.0, 45.0)],
        objects=[(0, 5.0, 5.0, 0.0, True)],
        importance_period=5,
    )
    world = scene.build_world()
    tapes = agent_streams(0, [0], steps=10)
    flags = [world.important[0]]
    for t in range(10):
        world = run_steps(world, tapes, 1, t0=t)
        flags.append(world.important[0])
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
    tapes = agent_streams(1, [0, 1], steps=2)

    world = run_steps(world, tapes, 1)
    assert world.actions[0].kind == NOTIFY_AND_FOLLOW
    assert world.actions[0].notified_drones == {1}
    # (sender, object, x, y), both by position, with the object's position when sent
    assert world.inbox == ((), ((0, 0, 1.0, 0.0),))

    world2 = run_steps(world, tapes, 1, t0=1)
    assert world2.actions[1].kind == RESPOND_AND_FOLLOW
    assert world2.actions[1].responded_to == 0
    # the old request expired; the re-notification replaced it
    assert world2.inbox == ((), ((0, 0, world.object_x[0], world.object_y[0]),))


def test_step_world_delivers_one_request_per_sender_in_sender_order():
    # at k = 3, drones 0 and 1 each sit on an uncovered important object and
    # notify their two strongest edges: 0 asks 4 then 2, and 1 asks 4 then 3
    scene = make_scene(
        drones=[(0, 5.0, 5.0), (1, 45.0, 45.0), (2, 25.0, 5.0), (3, 25.0, 45.0),
                (4, 25.0, 25.0)],
        objects=[(0, 5.0, 5.0, 0.0, True), (1, 45.0, 45.0, 0.0, True)],
        k=3,
    )
    weights = np.zeros((5, 5))
    for a, b, w in ((0, 4, 2.0), (0, 2, 1.0), (1, 4, 2.0), (1, 3, 1.0)):
        weights[a, b] = weights[b, a] = w
    weights.flags.writeable = False
    world = dataclasses.replace(scene.build_world(), weights=weights)
    world = step_world(world, [0.0] * 5, [0.0] * 5)
    assert world.actions[0].notified_drones == {4, 2}
    assert world.actions[1].notified_drones == {4, 3}
    from_0, from_1 = (0, 0, 5.0, 5.0), (1, 1, 45.0, 45.0)
    assert world.inbox == ((), (), (from_0,), (from_1,), (from_0, from_1))


def test_step_world_responder_moves_toward_advertised_position():
    world = notify_scene().build_world()
    tapes = agent_streams(1, [0, 1], steps=2)
    world = run_steps(world, tapes, 1)
    before = (world.drone_x[1], world.drone_y[1])
    world = run_steps(world, tapes, 1, t0=1)
    after = (world.drone_x[1], world.drone_y[1])
    assert world.actions[1].kind == RESPOND_AND_FOLLOW
    moved = math.hypot(after[0] - before[0], after[1] - before[1])
    assert moved == pytest.approx(2.0)
    # strictly closer to the advertised object position (1, 0)
    assert math.hypot(after[0] - 1.0, after[1]) < math.hypot(before[0] - 1.0, before[1])


def test_step_world_random_walk_budget():
    scene = make_scene(drones=[(0, 25.0, 25.0)], objects=[(0, 5.0, 5.0, 0.0, False)])
    world = scene.build_world()
    world = step_world(world, [0.5], [0.3])
    assert world.actions[0].kind == RANDOM_WALK
    assert math.hypot(world.drone_x[0] - 25.0, world.drone_y[0] - 25.0) == pytest.approx(5.0)
    # the walk draw is the heading as a fraction of a full turn
    angle = math.degrees(math.atan2(world.drone_y[0] - 25.0, world.drone_x[0] - 25.0))
    assert angle % 360.0 == pytest.approx(0.3 * 360.0)


def test_step_world_evolves_pheromone_edges():
    # two drones co-covering one important object reinforce each other
    scene = make_scene(
        drones=[(0, 0.0, 0.0), (1, 2.0, 0.0)],
        objects=[(0, 1.0, 0.0, 90.0, True)],
    )
    world = scene.build_world()
    tapes = agent_streams(5, [0, 1], steps=2)
    world = run_steps(world, tapes, 1)
    assert world.weights[0, 1] == pytest.approx(1.0)
    assert world.weights[1, 0] == pytest.approx(1.0)
    world = run_steps(world, tapes, 1, t0=1)
    w01 = world.weights[0, 1]
    assert w01 == pytest.approx(0.9 + 1.0)
    assert not world.weights.flags.writeable


def test_step_world_bias_only_affects_objects():
    scene = notify_scene()
    tapes = agent_streams(4, [0, 1], steps=1)
    w_plain = run_steps(scene.build_world(), tapes, 1)
    w_biased = run_steps(scene.build_world(), tapes, 1, bias_degrees=3.0)
    assert (w_plain.drone_x, w_plain.drone_y) == (w_biased.drone_x, w_biased.drone_y)
    assert w_plain.object_y != w_biased.object_y


def test_step_world_columns_hold_python_scalars():
    # per-entity math runs on Python floats; numpy scalars would slow it down
    world = run_steps(notify_scene().build_world(), agent_streams(1, [0, 1], steps=3), 3)
    assert all(type(v) is int for v in world.coverage)
    for name in ("object_x", "object_y", "object_dir", "drone_x", "drone_y"):
        assert all(type(v) is float for v in getattr(world, name)), name
    assert all(type(v) is bool for v in world.important)
    requests = [r for box in world.inbox for r in box]
    assert requests and all(tuple(map(type, r)) == (int, int, float, float) for r in requests)


# ------------------------------------------------------------
# The columnar step against the object-based reference
# ------------------------------------------------------------


@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 8),
    n=st.integers(1, 10),
    k=st.sampled_from([1, 2, 3]),
    bias=st.sampled_from([0.0, 3.0, -7.5]),
    steps=st.integers(50, 200),
    period=st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_step_world_matches_object_reference(seed, m, n, k, bias, steps, period):
    # A 30x30 field with range 8 makes co-coverage, notifications and
    # responses common; small periods flip importance often.
    rng = np.random.default_rng(seed)
    scene = make_scene(
        drones=[(int(i), float(rng.uniform(0, 30)), float(rng.uniform(0, 30)))
                for i in rng.permutation(m)],
        objects=[(int(i), float(rng.uniform(0, 30)), float(rng.uniform(0, 30)),
                  float(rng.integers(4) * 90), bool(rng.integers(2)))
                 for i in rng.permutation(n)],
        width=30.0, height=30.0, sensing_range=8.0, k=k, importance_period=period,
    )
    assert_steps_match_reference(scene, seed, steps, bias)


@pytest.mark.parametrize("name", [f"scene{i}" for i in range(1, 7)])
def test_bundled_scenes_step_as_the_object_reference(name):
    # the benchmark's sizes: up to 15 drones and 20 objects on 50x50
    assert_steps_match_reference(load_scene(SCENES / f"{name}.json"), 100, 200, 3.0)


def assert_steps_match_reference(scene, seed, steps, bias):
    """Step the columnar world and the object-based reference in lockstep and
    require every column, the weight bytes and the records to agree."""
    world, ref = scene.build_world(), reference_build_world(scene)
    ids = sorted(d.id for d in scene.drones)
    choice, walk = agent_streams(seed, ids, steps=steps)
    streams = reference_agent_streams(seed, ids)
    # the reference names entities by id, the world by position
    drone_at = {i: p for p, i in enumerate(ids)}
    object_at = {o.id: p for p, o in enumerate(ref.objects)}
    for t in range(steps):
        world = step_world(world, choice[t].tolist(), walk[t].tolist(), bias_degrees=bias)
        ref, ref_actions = reference_step(ref, streams, bias_degrees=bias)
        assert world.time == ref.time
        assert world.object_x == tuple(o.position.x for o in ref.objects)
        assert world.object_y == tuple(o.position.y for o in ref.objects)
        assert world.object_dir == tuple(o.direction for o in ref.objects)
        assert world.important == tuple(o.important for o in ref.objects)
        assert [d.id for d in ref.drones] == ids
        assert world.drone_x == tuple(d.position.x for d in ref.drones)
        assert world.drone_y == tuple(d.position.y for d in ref.drones)
        assert [[(s, j, x, y, t) for s, j, x, y in box] for box in world.inbox] == \
            [[(drone_at[r.sender_id], object_at[r.object_id], *r.object_position, r.sent_at)
              for r in d.inbox] for d in ref.drones]
        assert world.weights.tobytes() == ref.weights.tobytes()
        assert np.array_equal(world.in_range, ref.in_range)
        assert world.coverage == tuple(ref.in_range.sum(axis=0).tolist())
        # a record's drone is its position: the reference's come in drone order
        assert [a.drone_id for a in ref_actions] == ids
        assert [tuple(a) for a in world.actions] == [
            (a.kind,
             None if a.followed_object is None else object_at[a.followed_object],
             frozenset(drone_at[n] for n in a.notified_drones),
             None if a.responded_to is None else drone_at[a.responded_to])
            for a in ref_actions]
