"""Agent behaviour: sensing, the action-selection branches, pheromone evolution."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinsync.agent import (
    FOLLOW_DISTANCE,
    RESPOND_DISTANCE,
    build_perceptions,
    decide,
    evolve_knowledge,
    select_notify_targets,
    select_response,
)
from twinsync.equivalence import knowledge_vector
from twinsync.harness import agent_streams
from twinsync.model import FOLLOW, NOTIFY_AND_FOLLOW, RANDOM_WALK, RESPOND_AND_FOLLOW, read_only
from twinsync.worldsim import coverage_map, step_world

from helpers import (
    make_scene,
    reference_co_cover,
    reference_evolve,
    reference_knowledge_vector,
)


def weights_of(m, edges=None):
    """Symmetric (m, m) weights from {(i, j): w}, rows in drone order."""
    w = np.zeros((m, m))
    for (i, j), value in (edges or {}).items():
        w[i, j] = w[j, i] = value
    return w


def sense(world, sensing_range=10.0):
    return build_perceptions(world.drone_x, world.drone_y, world.object_x, world.object_y,
                             sensing_range)


def first_step(world, seed):
    """The actions of one step on the first row of the seed's tapes."""
    choice, walk = agent_streams(seed, sorted(d.id for d in world.params.drones), steps=1)
    return step_world(world, choice[0].tolist(), walk[0].tolist()).actions


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
    in_range, coverage = sense(world)
    assert in_range.tolist() == [[True, False]]
    assert coverage == (1, 0)


def test_coverage_counts_report_shared_objects():
    scene = make_scene(
        drones=[(0, 0.0, 0.0), (1, 8.0, 0.0), (2, 40.0, 40.0)],
        objects=[(4, 4.0, 0.0, 0.0, True)],
    )
    world = scene.build_world()
    assert world.in_range.tolist() == [[True], [True], [False]]
    assert coverage_map(world) == (2,)


def test_build_perceptions_matches_single_queries():
    scene = make_scene(
        drones=[(0, 0.0, 0.0), (1, 5.0, 5.0), (2, 20.0, 20.0)],
        objects=[(0, 3.0, 3.0, 0.0, True), (1, 22.0, 20.0, 90.0, False)],
    )
    world = scene.build_world()
    batch, coverage = sense(world)
    assert batch.shape == (3, 2)
    assert not batch.flags.writeable
    for i, (dx, dy) in enumerate(zip(world.drone_x, world.drone_y)):
        for j, (ox, oy) in enumerate(zip(world.object_x, world.object_y)):
            assert batch[i, j] == (math.hypot(dx - ox, dy - oy) <= 10.0)
    assert coverage == tuple(batch.sum(axis=0).tolist())
    # build_world senses its positions once, with the scene's range
    assert np.array_equal(world.in_range, batch)
    assert world.coverage == coverage


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
    in_range, coverage = sense(world)
    for i, (dx, dy) in enumerate(zip(world.drone_x, world.drone_y)):
        for j, (ox, oy) in enumerate(zip(world.object_x, world.object_y)):
            assert in_range[i, j] == (math.hypot(dx - ox, dy - oy) <= 10.0)
    assert list(coverage_map(world)) == in_range.sum(axis=0).tolist() == list(coverage)


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
    choice, walk = agent_streams(3, [0, 1, 2], steps=10)
    for step in range(1, 11):
        world = step_world(world, choice[step - 1].tolist(), walk[step - 1].tolist())
        assert len(calls) == step
        # the handed-on sensing is exactly what the moved positions give
        in_range, coverage = original(world.drone_x, world.drone_y, world.object_x,
                                      world.object_y, 10.0)
        assert np.array_equal(world.in_range, in_range)
        assert world.coverage == coverage


# ------------------------------------------------------------
# Helper selection rules
# ------------------------------------------------------------


def test_select_notify_targets_takes_strongest():
    assert select_notify_targets((0.0, 3.0, 1.0), 0, k=2) == [1]


def test_select_notify_targets_breaks_ties_by_id():
    # indices follow ascending drone ids, so the lower index is the lower id
    assert select_notify_targets((0.0, 2.0, 2.0), 0, k=2) == [1]
    assert select_notify_targets((2.0, 0.0, 2.0), 1, k=2) == [0]
    assert select_notify_targets((2.0, 0.0, 2.0), 0, k=2) == [2]


def test_select_notify_targets_truncated_roster():
    assert select_notify_targets((0.0, 0.5), 0, k=3) == [1]


def test_select_notify_targets_counts_zero_weight_drones():
    assert select_notify_targets((0.0,) * 4, 0, k=3) == [1, 2]


def test_select_response_prefers_strongest_edge():
    inbox = ((1, 8, 2.0, 2.0), (2, 9, 1.0, 1.0))
    assert select_response(inbox, (0.0, 5.0, 2.0))[0] == 1
    assert select_response(inbox, (0.0, 2.0, 5.0))[0] == 2


def test_select_response_breaks_ties_by_lowest_id():
    tied = ((1, 9, 2.0, 2.0), (2, 8, 1.0, 1.0))
    assert select_response(tied, ZERO_ROW)[0] == 1


# ------------------------------------------------------------
# Action selection
# ------------------------------------------------------------


def decide_world(coverage=(1, 1), inbox=(), row=ZERO_ROW):
    """Drone 0 of a three-drone fleet (ids 0-2) next to objects 4 at (3, 0)
    and 6 at (0, 2), at positions 0 and 1, with the given coverage counts,
    inbox and weight row."""
    scene = make_scene(
        drones=[(0, 0.0, 0.0), (1, 40.0, 40.0), (2, 45.0, 45.0)],
        objects=[(4, 3.0, 0.0, 0.0, True), (6, 0.0, 2.0, 0.0, True)],
    )
    weights = weights_of(3, {(0, 1): row[1], (0, 2): row[2]})
    return dataclasses.replace(scene.build_world(), coverage=tuple(coverage),
                               inbox=(tuple(inbox), (), ()), weights=read_only(weights))


def decide_of(sensed=(), choice=0.0, **world):
    return decide(decide_world(**world), 0, list(sensed), choice)


def test_decide_notifies_when_not_k_covered():
    action, target = decide_of(sensed=[0], coverage=(1, 1), row=(0.0, 0.0, 1.0))
    assert action.kind == NOTIFY_AND_FOLLOW
    assert action.followed_object == 0  # object 4, by position
    assert action.notified_drones == {2}  # step_world sends their requests
    assert target == (3.0, 0.0, FOLLOW_DISTANCE)


def test_decide_follows_when_already_k_covered():
    action, target = decide_of(sensed=[0], coverage=(2, 1))
    assert action.kind == FOLLOW
    assert action.followed_object == 0
    assert action.notified_drones == frozenset()
    assert target == (3.0, 0.0, FOLLOW_DISTANCE)


def test_decide_ignores_unimportant_objects():
    # step_world hands decide only the important objects in range
    scene = make_scene(drones=[(0, 25.0, 25.0)], objects=[(4, 28.0, 25.0, 0.0, False)])
    world = scene.build_world()
    assert world.in_range.tolist() == [[True]]
    assert first_step(world, 0)[0].kind == RANDOM_WALK


def test_decide_responds_to_best_request():
    action, target = decide_of(inbox=[(1, 1, 9.0, 9.0)])
    assert action.kind == RESPOND_AND_FOLLOW
    assert action.responded_to == 1
    assert action.followed_object == 1
    assert action.notified_drones == frozenset()
    assert target == (9.0, 9.0, RESPOND_DISTANCE)


def test_decide_important_object_outranks_inbox():
    action, _ = decide_of(sensed=[0], coverage=(2, 2), inbox=[(1, 1, 9.0, 9.0)])
    assert action.kind == FOLLOW


def test_decide_random_walk_when_idle():
    action, target = decide_of()
    assert action.kind == RANDOM_WALK
    assert target is None  # step_world turns the walk draw into a heading
    assert action.followed_object is None
    assert action.notified_drones == frozenset()
    assert action.responded_to is None


def test_decide_choice_draw_maps_uniformly_onto_pick():
    sensed = [0, 1]
    assert decide_of(sensed=sensed, coverage=(2, 2), choice=0.49)[0].followed_object == 0
    assert decide_of(sensed=sensed, coverage=(2, 2), choice=0.5)[0].followed_object == 1


def test_decide_is_pure_given_draws():
    a = decide_of(sensed=[0, 1], choice=0.8)
    b = decide_of(sensed=[0, 1], choice=0.8)
    assert a == b


@given(st.integers(0, 2**31 - 1), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_decide_picks_only_important_in_range_objects(seed, n_important):
    # six objects in range of drone 0, the first n_important of them important,
    # and one important object out of range
    objects = [(i, 25.0 + i, 25.0, 0.0, i < n_important) for i in range(6)]
    scene = make_scene(drones=[(0, 25.0, 25.0)],
                       objects=objects + [(6, 45.0, 45.0, 0.0, True)])
    actions = first_step(scene.build_world(), seed)
    assert actions[0].kind in (FOLLOW, NOTIFY_AND_FOLLOW)
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


def float_weight_ceiling(gamma, delta, n):
    """The most a weight can reach in float64 with n objects: the fixed point of
    the worst step, multiply by gamma and then add delta n times left to right,
    iterated from 0. Rounding is monotone, so no reachable weight exceeds it,
    though it may reach or pass the real bound delta * n / (1 - gamma)."""
    w, previous = 0.0, None
    while w != previous:
        previous = w
        w *= gamma
        for _ in range(n):
            w += delta
    return w


def test_shared_objects_drive_a_weight_to_the_float_ceiling():
    # two drones that share all three objects at every step: the worst case,
    # which in float64 ends above the real bound 0.3 * 3 / (1 - 0.4) = 1.5
    gamma, delta = 0.4, 0.3
    w = weights_of(2)
    for _ in range(80):
        w = evolve_knowledge(w, sees([1, 1, 1], [1, 1, 1]), gamma, delta)
    assert w[0, 1] == float_weight_ceiling(gamma, delta, 3) == 1.5000000000000002
    # the case that broke the strict bound: the ceiling is the bound's float
    assert float_weight_ceiling(0.3125, 1.0, 1) == 1.0 / (1 - 0.3125)


@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 7),
    n=st.integers(1, 8),
    steps=st.integers(1, 40),
    gamma=st.floats(0.3, 0.97),
    delta=st.floats(0.1, 3.0),
)
@settings(max_examples=40, deadline=None)
@example(seed=576121, m=4, n=1, steps=33, gamma=0.3125, delta=1.0)  # reaches the real bound
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
    choice, walk = agent_streams(seed, range(m), steps=steps)
    graphs = {i: {} for i in range(m)}
    ceiling = float_weight_ceiling(gamma, delta, n)
    for t in range(steps):
        world = step_world(world, choice[t].tolist(), walk[t].tolist())
        co_cover = reference_co_cover(world, 8.0)
        graphs = {i: reference_evolve(graphs[i], co_cover[i], gamma, delta) for i in graphs}
        w = world.weights
        expected = np.array([[graphs[i].get(j, 0.0) for j in range(m)] for i in range(m)])
        assert w.tobytes() == expected.tobytes()
        assert knowledge_vector(world).tobytes() == \
            reference_knowledge_vector(graphs).tobytes()
        assert np.array_equal(w, w.T)
        assert not np.any(np.diag(w))
        assert np.all(w <= ceiling)
