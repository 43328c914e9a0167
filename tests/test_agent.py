"""Agent behaviour: sensing, the action-selection branches, pheromone evolution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsync.agent import (
    FOLLOW_DISTANCE,
    RANDOM_WALK_DISTANCE,
    RESPOND_DISTANCE,
    AgentDraws,
    build_perceptions,
    decide,
    evolve_knowledge,
    select_notify_targets,
    select_response,
)
from twinsync.equivalence import knowledge_vector
from twinsync.harness import agent_streams
from twinsync.model import ActionKind, DroneState, Message, ObjectState, Vec2
from twinsync.worldsim import coverage_map, step_world

from helpers import (
    make_scene,
    reference_co_cover,
    reference_evolve,
    reference_knowledge_vector,
)


def drone_of(drone_id=0, inbox=()):
    return DroneState(drone_id, Vec2(0.0, 0.0), tuple(inbox))


def important(oid, x, y):
    return ObjectState(oid, Vec2(x, y), 0.0, True)


def weights_of(m, edges=None):
    """Symmetric (m, m) weights from {(i, j): w}, rows in drone order."""
    w = np.zeros((m, m))
    for (i, j), value in (edges or {}).items():
        w[i, j] = w[j, i] = value
    return w


IDS = (0, 1, 2)
ZERO_ROW = (0.0, 0.0, 0.0)


# ------------------------------------------------------------
# Sensing
# ------------------------------------------------------------


def test_build_perceptions_includes_boundary_distance():
    scene = make_scene(
        drones=[(0, 0.0, 0.0)],
        objects=[(1, 6.0, 8.0, 0.0, True), (2, 7.0, 8.0, 0.0, True)],
    )
    world = scene.build_world()
    # hypot(6,8)=10 sits exactly on the range; hypot(7,8)=sqrt(113)>10
    assert math.hypot(7.0, 8.0) == pytest.approx(10.63014581273465)
    assert build_perceptions(world.drones, world.objects, 10.0).tolist() == [[True, False]]


def test_coverage_counts_report_shared_objects():
    scene = make_scene(
        drones=[(0, 0.0, 0.0), (1, 8.0, 0.0), (2, 40.0, 40.0)],
        objects=[(4, 4.0, 0.0, 0.0, True)],
    )
    world = scene.build_world()
    assert world.in_range.tolist() == [[True], [True], [False]]
    assert coverage_map(world).tolist() == [2]


def test_build_perceptions_matches_single_queries():
    scene = make_scene(
        drones=[(0, 0.0, 0.0), (1, 5.0, 5.0), (2, 20.0, 20.0)],
        objects=[(0, 3.0, 3.0, 0.0, True), (1, 22.0, 20.0, 90.0, False)],
    )
    world = scene.build_world()
    batch = build_perceptions(world.drones, world.objects, 10.0)
    assert batch.shape == (3, 2)
    assert not batch.flags.writeable
    for i, d in enumerate(world.drones):
        for j, o in enumerate(world.objects):
            gap = (d.position.x - o.position.x, d.position.y - o.position.y)
            assert batch[i, j] == (math.hypot(*gap) <= 10.0)
    # build_world senses its positions once, with the scene's range
    assert np.array_equal(world.in_range, batch)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_perception_objects_within_range_property(seed):
    rng = np.random.default_rng(seed)
    scene = make_scene(
        drones=[(i, float(rng.uniform(0, 50)), float(rng.uniform(0, 50)))
                for i in range(4)],
        objects=[(i, float(rng.uniform(0, 50)), float(rng.uniform(0, 50)),
                  float(rng.integers(4) * 90), bool(rng.integers(2)))
                 for i in range(6)],
    )
    world = scene.build_world()
    in_range = build_perceptions(world.drones, world.objects, 10.0)
    for i, d in enumerate(world.drones):
        for j, o in enumerate(world.objects):
            gap = (d.position.x - o.position.x, d.position.y - o.position.y)
            assert in_range[i, j] == (math.hypot(*gap) <= 10.0)
    assert coverage_map(world).tolist() == in_range.sum(axis=0).tolist()


def test_step_world_senses_each_world_state_once(monkeypatch):
    import twinsync.worldsim as worldsim

    calls = []
    original = worldsim.build_perceptions

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(worldsim, "build_perceptions", counting)
    scene = make_scene(
        drones=[(0, 10.0, 10.0), (1, 14.0, 10.0), (2, 40.0, 40.0)],
        objects=[(0, 12.0, 10.0, 0.0, True), (1, 41.0, 40.0, 90.0, False)],
    )
    world = scene.build_world()
    rngs = agent_streams(3, [0, 1, 2])
    for step in range(1, 11):
        world, _ = step_world(world, rngs)
        assert len(calls) == step
        # the handed-on sensing is exactly what the moved positions give
        assert np.array_equal(
            world.in_range, original(world.drones, world.objects, 10.0))


# ------------------------------------------------------------
# Helper selection rules
# ------------------------------------------------------------


def test_select_notify_targets_takes_strongest():
    assert select_notify_targets((0.0, 3.0, 1.0), IDS, 0, k=2) == {1}


def test_select_notify_targets_breaks_ties_by_id():
    assert select_notify_targets((0.0, 2.0, 2.0), IDS, 0, k=2) == {1}
    # rows follow the roster order, whatever the ids are
    assert select_notify_targets((2.0, 0.0, 2.0), (3, 5, 9), 5, k=2) == {3}
    assert select_notify_targets((2.0, 0.0, 2.0), (3, 5, 9), 3, k=2) == {9}


def test_select_notify_targets_truncated_roster():
    assert select_notify_targets((0.0, 0.5), (0, 1), 0, k=3) == {1}


def test_select_notify_targets_counts_zero_weight_drones():
    assert select_notify_targets((0.0,) * 4, (0, 1, 2, 3), 0, k=3) == {1, 2}


def test_select_response_empty_inbox():
    assert select_response((), ZERO_ROW, IDS) is None


def test_select_response_prefers_strongest_edge():
    inbox = (Message(2, 9, Vec2(1, 1), 3), Message(1, 8, Vec2(2, 2), 3))
    assert select_response(inbox, (0.0, 5.0, 2.0), IDS).sender_id == 1
    assert select_response(inbox, (0.0, 2.0, 5.0), IDS).sender_id == 2


def test_select_response_breaks_ties_by_lowest_id():
    tied = (Message(2, 8, Vec2(1, 1), 9), Message(1, 9, Vec2(2, 2), 9))
    assert select_response(tied, ZERO_ROW, IDS).sender_id == 1


# ------------------------------------------------------------
# Action selection
# ------------------------------------------------------------


def draws_of(choice=0.0, walk=0.0):
    return AgentDraws(choice, walk)


def decide_of(sensed=(), inbox=(), row=ZERO_ROW, time=0, choice=0.0, walk=0.0, k=2):
    return decide(drone_of(0, inbox), time, list(sensed), row, IDS,
                  draws_of(choice, walk), k)


def test_decide_notifies_when_not_k_covered():
    d = decide_of(sensed=[(important(4, 3.0, 0.0), 0)], row=(0.0, 0.0, 1.0), time=11)
    assert d.action.kind is ActionKind.NOTIFY_AND_FOLLOW
    assert d.action.followed_object == 4
    assert d.action.notified_drones == {2}
    assert d.move_target == Vec2(3.0, 0.0)
    assert d.move_distance == FOLLOW_DISTANCE
    assert d.outgoing == ((2, Message(0, 4, Vec2(3.0, 0.0), 11)),)


def test_decide_follows_when_already_k_covered():
    d = decide_of(sensed=[(important(4, 3.0, 0.0), 1)])
    assert d.action.kind is ActionKind.FOLLOW
    assert d.action.followed_object == 4
    assert d.action.notified_drones == frozenset()
    assert d.outgoing == ()
    assert d.move_distance == FOLLOW_DISTANCE


def test_decide_ignores_unimportant_objects():
    # step_world hands decide only the important objects in range
    scene = make_scene(drones=[(0, 25.0, 25.0)], objects=[(4, 28.0, 25.0, 0.0, False)])
    world = scene.build_world()
    assert world.in_range.tolist() == [[True]]
    _, actions = step_world(world, agent_streams(0, [0]))
    assert actions[0].kind is ActionKind.RANDOM_WALK


def test_decide_responds_to_best_request():
    msg = Message(1, 7, Vec2(9.0, 9.0), 4)
    d = decide_of(inbox=[msg])
    assert d.action.kind is ActionKind.RESPOND_AND_FOLLOW
    assert d.action.responded_to == 1
    assert d.action.followed_object == 7
    assert d.move_target == Vec2(9.0, 9.0)
    assert d.move_distance == RESPOND_DISTANCE


def test_decide_important_object_outranks_inbox():
    msg = Message(1, 7, Vec2(9.0, 9.0), 4)
    d = decide_of(sensed=[(important(4, 3.0, 0.0), 1)], inbox=[msg])
    assert d.action.kind is ActionKind.FOLLOW


def test_decide_random_walk_when_idle():
    d = decide_of(walk=0.37)
    assert d.action.kind is ActionKind.RANDOM_WALK
    assert d.move_target is None
    assert d.move_angle == pytest.approx(0.37 * 360.0)
    assert d.move_distance == RANDOM_WALK_DISTANCE
    assert d.action.followed_object is None
    assert d.action.notified_drones == frozenset()
    assert d.action.responded_to is None


def test_decide_choice_draw_maps_uniformly_onto_pick():
    sensed = [(important(4, 3.0, 0.0), 1), (important(6, 0.0, 2.0), 1)]
    assert decide_of(sensed=sensed, choice=0.49).action.followed_object == 4
    assert decide_of(sensed=sensed, choice=0.5).action.followed_object == 6


def test_decide_is_pure_given_draws():
    sensed = [(important(4, 3.0, 0.0), 0), (important(6, 0.0, 2.0), 0)]
    a = decide_of(sensed=sensed, choice=0.8, walk=0.1)
    b = decide_of(sensed=sensed, choice=0.8, walk=0.1)
    assert a == b


@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_decide_picks_only_important_in_range_objects(seed, n_important):
    # six objects in range of drone 0, the first n_important of them important,
    # and one important object out of range
    objects = [(i, 25.0 + i, 25.0, 0.0, i < n_important) for i in range(6)]
    scene = make_scene(drones=[(0, 25.0, 25.0)],
                       objects=objects + [(6, 45.0, 45.0, 0.0, True)])
    _, actions = step_world(scene.build_world(), agent_streams(seed, [0]))
    assert actions[0].kind in (ActionKind.FOLLOW, ActionKind.NOTIFY_AND_FOLLOW)
    assert actions[0].followed_object < n_important


# ------------------------------------------------------------
# Knowledge evolution
# ------------------------------------------------------------


def sees(*rows):
    """A read-only in-range matrix from rows of 0/1 flags."""
    out = np.array(rows, dtype=bool)
    out.flags.writeable = False
    return out


def test_evolve_evaporates_without_co_cover():
    out = evolve_knowledge(weights_of(2, {(0, 1): 10.0}), sees([0], [0]), 0.9, 1.0)
    assert out[0, 1] == pytest.approx(9.0)
    assert out[1, 0] == out[0, 1]


def test_evolve_reinforces_shared_object():
    out = evolve_knowledge(weights_of(2), sees([1], [1]), gamma=0.9, delta=1.0)
    assert out.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_evolve_adds_once_per_shared_object():
    out = evolve_knowledge(weights_of(2), sees([1, 1], [1, 1]), gamma=0.9, delta=1.0)
    assert out[0, 1] == pytest.approx(2.0)
    # only objects both drones see count
    out = evolve_knowledge(weights_of(2), sees([1, 1], [0, 1]), gamma=0.9, delta=1.0)
    assert out[0, 1] == pytest.approx(1.0)


def test_evolve_counts_unimportant_shared_objects_too():
    # co-coverage is what binds a pair; the object's importance flag only
    # steers action selection, not the interaction record
    scene = make_scene(drones=[(0, 0.0, 0.0), (7, 2.0, 0.0)],
                       objects=[(4, 1.0, 0.0, 0.0, False)])
    world = scene.build_world()
    out = evolve_knowledge(weights_of(2, {(0, 1): 2.0}), world.in_range, 0.9, 1.0)
    assert out[0, 1] == pytest.approx(2.8)


def test_evolve_preserves_owner_and_roster():
    # row i stays drone i's: only the pair that shares an object gains
    out = evolve_knowledge(weights_of(3), sees([0, 0], [1, 0], [1, 0]), 0.5, 1.0)
    assert out.shape == (3, 3)
    assert out.tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
    assert not out.flags.writeable


def test_evolve_decays_to_zero_geometrically():
    w = weights_of(2, {(0, 1): 4.0})
    for steps in range(1, 6):
        w = evolve_knowledge(w, sees([0], [0]), gamma=0.5, delta=1.0)
        assert w[0, 1] == pytest.approx(4.0 * 0.5 ** steps)


@given(
    st.lists(
        st.lists(st.booleans(), min_size=20, max_size=20),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_evolve_weights_stay_under_pheromone_bound(schedule):
    gamma, delta, n_objects = 0.9, 1.0, 5
    bound = delta * n_objects / (1.0 - gamma)
    w = weights_of(4)
    for flags in schedule:
        w = evolve_knowledge(w, sees(*np.reshape(flags, (4, n_objects))), gamma, delta)
        assert np.all(w >= 0.0) and np.all(w <= bound)


@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 7),
    n=st.integers(1, 8),
    steps=st.integers(1, 40),
    gamma=st.floats(0.3, 0.97),
    delta=st.floats(0.1, 3.0),
)
@settings(max_examples=40, deadline=None)
def test_fleet_evolve_matches_per_drone_reference(seed, m, n, steps, gamma, delta):
    # A 30x30 field with range 8 makes shared objects, and counts of 2 and
    # more per pair, common.
    rng = np.random.default_rng(seed)
    scene = make_scene(
        drones=[(i, float(rng.uniform(0, 30)), float(rng.uniform(0, 30)))
                for i in range(m)],
        objects=[(i, float(rng.uniform(0, 30)), float(rng.uniform(0, 30)),
                  float(rng.integers(4) * 90), bool(rng.integers(2)))
                 for i in range(n)],
        width=30.0, height=30.0, sensing_range=8.0, gamma=gamma, delta=delta,
    )
    world = scene.build_world()
    rngs = agent_streams(seed, range(m))
    graphs = {d.id: {} for d in world.drones}
    bound = delta * n / (1.0 - gamma)
    for _ in range(steps):
        world, _ = step_world(world, rngs)
        co_cover = reference_co_cover(world, 8.0)
        graphs = {i: reference_evolve(graphs[i], co_cover[i], gamma, delta) for i in graphs}
        w = world.weights
        expected = np.array([[graphs[i].get(j, 0.0) for j in range(m)] for i in range(m)])
        assert w.tobytes() == expected.tobytes()
        assert knowledge_vector(world).tobytes() == \
            reference_knowledge_vector(graphs).tobytes()
        assert np.array_equal(w, w.T)
        assert not np.any(np.diag(w))
        assert np.all(w < bound)
