"""Comparison vectors, deviation metrics, windowed checking, the checker registry."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsync import equivalence
from twinsync.analysis import comparison_memory_cost
from twinsync.equivalence import (
    CHECKER_NAMES,
    CHECKERS,
    coarse_action_deviation,
    drift,
    fine_action_deviation,
    knowledge_vector,
    mean_fine_action_deviation,
    state_deviation,
    state_vector,
    windowed_check,
)
from twinsync.model import ActionKind, ActionRecord, read_only

from helpers import make_scene


def world_with_weights(weight_map):
    """Three-drone world; weight_map assigns symmetric edges like {(0, 1): 4.0}."""
    scene = make_scene(
        drones=[(0, 1.0, 1.0), (1, 2.0, 2.0), (2, 3.0, 3.0)],
        objects=[(0, 5.0, 5.0, 0.0, True)],
    )
    world = scene.build_world()
    weights = np.zeros((3, 3))
    for (a, b), w in weight_map.items():
        weights[a, b] = weights[b, a] = w
    return dataclasses.replace(world, weights=read_only(weights))


# ------------------------------------------------------------
# Comparison vectors
# ------------------------------------------------------------


def test_knowledge_vector_all_zero():
    assert knowledge_vector(world_with_weights({})).tolist() == [0.0, 0.0, 0.0]


def test_knowledge_vector_length_is_pair_count():
    scene = make_scene(
        drones=[(i, float(i), 0.0) for i in range(5)],
        objects=[(0, 30.0, 30.0, 0.0, True)],
    )
    assert len(knowledge_vector(scene.build_world())) == 10


def test_knowledge_vector_slots_in_pair_order():
    vec = knowledge_vector(world_with_weights({(1, 2): 4.0}))
    # pairs in lexicographic order: (0,1), (0,2), (1,2)
    assert vec.tolist() == [0.0, 0.0, 4.0]
    vec = knowledge_vector(world_with_weights({(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0}))
    assert vec.tolist() == [1.0, 2.0, 3.0]


def test_state_vector_orders_objects_then_drones():
    scene = make_scene(
        drones=[(1, 7.0, 8.0), (0, 5.0, 6.0)],
        objects=[(0, 1.0, 2.0, 0.0, True), (1, 3.0, 4.0, 0.0, False)],
    )
    vec = state_vector(scene.build_world())
    assert vec.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]


# ------------------------------------------------------------
# Euclidean deviations
# ------------------------------------------------------------


def test_drift_identity_and_pythagoras():
    assert drift(np.zeros(3), np.zeros(3)) == 0.0
    assert drift(np.array([0.0, 0.0, 0.0]), np.array([3.0, 4.0, 0.0])) == 5.0


def test_state_deviation_single_coordinate():
    a = np.array([1.0, 2.0])
    b = np.array([2.0, 2.0])
    assert state_deviation(a, b) == 1.0


def test_state_deviation_two_displaced_entities():
    # object and drone both displaced by (3, 4): distance sqrt(50)
    s1 = make_scene(drones=[(0, 10.0, 10.0)], objects=[(0, 5.0, 5.0, 0.0, True)])
    s2 = make_scene(drones=[(0, 13.0, 14.0)], objects=[(0, 8.0, 9.0, 0.0, True)])
    dev = state_deviation(state_vector(s1.build_world()), state_vector(s2.build_world()))
    assert dev == pytest.approx(math.sqrt(50.0))


def test_deviation_length_mismatch_raises():
    with pytest.raises(ValueError, match="mismatch"):
        drift(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="mismatch"):
        state_deviation(np.zeros(2), np.zeros(6))


def test_euclidean_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        a, b = rng.normal(size=n) * 10, rng.normal(size=n) * 10
        oracle = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
        assert drift(a, b) == pytest.approx(oracle, rel=1e-12)


finite_vecs = st.integers(1, 12).flatmap(
    lambda n: st.tuples(*[
        st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n) for _ in range(3)
    ])
)


@given(finite_vecs)
@settings(max_examples=100, deadline=None)
def test_euclidean_metric_axioms(vecs):
    x, y, z = (np.array(v) for v in vecs)
    assert drift(x, x) == 0.0
    assert drift(x, y) >= 0.0
    assert drift(x, y) == drift(y, x)
    assert drift(x, z) <= drift(x, y) + drift(y, z) + 1e-6


# ------------------------------------------------------------
# Action comparison
# ------------------------------------------------------------


def walk():
    return ActionRecord(ActionKind.RANDOM_WALK)


def follow(obj):
    return ActionRecord(ActionKind.FOLLOW, followed_object=obj)


def notify(obj, targets):
    return ActionRecord(ActionKind.NOTIFY_AND_FOLLOW, followed_object=obj,
                        notified_drones=frozenset(targets))


def respond(obj, sender):
    return ActionRecord(ActionKind.RESPOND_AND_FOLLOW, followed_object=obj,
                        responded_to=sender)


def test_coarse_deviation_identity_and_extremes():
    same = [walk(), follow(1)]
    assert coarse_action_deviation(same, list(same)) == 0.0
    phys = [walk(), walk()]
    twin = [follow(1), respond(1, 2)]
    assert coarse_action_deviation(phys, twin) == 1.0


def test_coarse_deviation_fraction():
    phys = [walk(), walk(), walk(), walk()]
    twin = [walk(), follow(5), walk(), walk()]
    assert coarse_action_deviation(phys, twin) == 0.25


def test_coarse_deviation_ignores_details():
    assert coarse_action_deviation([follow(1)], [follow(2)]) == 0.0


def test_action_records_must_align():
    # both worlds list their records in drone order, so they pair up by
    # position; an empty side against a non-empty one is a length mismatch too
    for a, b in (([walk()], [walk(), walk()]),
                 ([walk(), follow(1)], [walk()]),
                 ([], [walk()]),
                 ([follow(1)], [])):
        with pytest.raises(ValueError, match="is (shorter|longer) than argument 1"):
            coarse_action_deviation(a, b)
        with pytest.raises(ValueError, match="is (shorter|longer) than argument 1"):
            mean_fine_action_deviation(a, b, k=2)


# Branch table, all kind pairings.

def test_fine_both_random_walk():
    assert fine_action_deviation(walk(), walk(), k=2) == 0.0


def test_fine_both_follow():
    assert fine_action_deviation(follow(4), follow(4), k=2) == 0.0
    assert fine_action_deviation(follow(4), follow(5), k=2) == 1.0


def test_fine_both_respond():
    assert fine_action_deviation(respond(4, 1), respond(4, 1), k=2) == pytest.approx(0.0)
    assert fine_action_deviation(respond(4, 1), respond(5, 1), k=2) == pytest.approx(0.2)
    assert fine_action_deviation(respond(4, 1), respond(4, 2), k=2) == pytest.approx(0.2)
    assert fine_action_deviation(respond(4, 1), respond(5, 2), k=2) == pytest.approx(0.4)


def test_fine_both_notify():
    assert fine_action_deviation(notify(4, {1}), notify(4, {1}), k=2) == pytest.approx(0.0)
    assert fine_action_deviation(notify(4, {1}), notify(4, {2}), k=2) == pytest.approx(0.5)
    assert fine_action_deviation(notify(4, {1}), notify(5, {2}), k=2) == pytest.approx(1.0)
    assert fine_action_deviation(notify(4, {1}), notify(5, {1}), k=2) == pytest.approx(0.5)
    # wider fan-out: one of two recipients shared
    assert fine_action_deviation(
        notify(4, {1, 2}), notify(4, {2, 3}), k=3
    ) == pytest.approx(0.25)
    assert fine_action_deviation(
        notify(4, {1, 2}), notify(5, {2, 3}), k=3
    ) == pytest.approx(0.75)


def test_fine_follow_vs_notify():
    assert fine_action_deviation(follow(4), notify(4, {1}), k=2) == pytest.approx(0.5)
    assert fine_action_deviation(notify(4, {1}), follow(4), k=2) == pytest.approx(0.5)
    assert fine_action_deviation(follow(4), notify(5, {1}), k=2) == pytest.approx(1.0)
    assert fine_action_deviation(notify(5, {1}), follow(4), k=2) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "a,b",
    [
        (walk(), follow(4)),
        (walk(), notify(4, {1})),
        (walk(), respond(4, 1)),
        (follow(4), respond(4, 1)),
        (notify(4, {1}), respond(4, 1)),
    ],
)
def test_fine_remaining_pairings_cost_one(a, b):
    assert fine_action_deviation(a, b, k=2) == 1.0
    assert fine_action_deviation(b, a, k=2) == 1.0


def record_strategy(fan_out=None):
    """Random action records; fan_out pins the notify set size to k-1."""
    objects = st.integers(0, 3)
    sizes = (fan_out, fan_out) if fan_out else (1, 2)
    return st.one_of(
        st.just(walk()),
        objects.map(follow),
        st.tuples(objects, st.sets(st.integers(1, 4), min_size=sizes[0],
                                   max_size=sizes[1])).map(lambda t: notify(*t)),
        st.tuples(objects, st.integers(1, 4)).map(lambda t: respond(*t)),
    )


@given(record_strategy(), record_strategy())
@settings(max_examples=200, deadline=None)
def test_fine_range_and_symmetry(a, b):
    d = fine_action_deviation(a, b, k=3)
    assert 0.0 <= d <= 1.0
    assert fine_action_deviation(b, a, k=3) == d


@given(record_strategy(fan_out=2))
@settings(max_examples=100, deadline=None)
def test_fine_self_zero_for_full_fan_out(a):
    # Self-agreement scores 0 only when notify records carry the full k-1
    # recipients, the shape the selector produces whenever the roster allows;
    # a truncated set leaves 0.5*(1 - c/(k-1)) above zero by design.
    assert fine_action_deviation(a, a, k=3) == 0.0


def test_mean_fine_averages_over_drones():
    phys = [walk(), respond(4, 1), follow(3)]
    twin = [walk(), respond(5, 1), respond(3, 2)]
    # per drone: 0, 0.2, 1 -> mean 0.4
    assert mean_fine_action_deviation(phys, twin, k=2) == pytest.approx(0.4)


def test_mean_fine_empty_is_zero():
    assert mean_fine_action_deviation([], [], k=2) == 0.0


# ------------------------------------------------------------
# Windowed checking
# ------------------------------------------------------------


def test_history_evicts_beyond_window():
    # only steps t-l .. t count; older values stay in the list but not in the sum
    values = [100.0, 200.0, 3.0, 4.0, 5.0]
    assert windowed_check(values, 4, q=1, l=2, threshold=0.0, since=0).value == 12.0
    assert windowed_check(values, 4, q=1, l=1, threshold=0.0, since=0).value == 9.0


def test_windowed_check_off_grid_returns_none():
    values = [1.0, 1.0, 1.0, 1.0]
    outcome = windowed_check(values, 3, q=2, l=1, threshold=0.0, since=0)
    assert outcome == (False, None)


def test_windowed_check_window_sum_example():
    # per-step values 0.4 at t-1 and t: the window sum 0.8 beats 0.5
    outcome = windowed_check([0.4, 0.4], 1, q=1, l=1, threshold=0.5, since=0)
    assert outcome.triggered
    assert outcome.value == pytest.approx(0.8)


def test_windowed_check_is_strict():
    outcome = windowed_check([0.4, 0.4], 1, q=1, l=1, threshold=0.8, since=0)
    assert not outcome.triggered
    assert outcome.value == 0.8


def test_windowed_check_sums_left_to_right():
    # builtin sum() on Python >= 3.12 compensates and would give 1.0
    outcome = windowed_check([0.1] * 10, 9, q=1, l=9, threshold=1.0, since=0)
    assert outcome.value == 0.9999999999999999
    assert not outcome.triggered


def test_windowed_check_infinite_threshold_never_fires():
    assert not windowed_check([1e9, 1e9], 1, q=1, l=1, threshold=math.inf,
                              since=0).triggered


def test_windowed_check_negative_threshold_always_fires():
    outcome = windowed_check([0.0, 0.0], 1, q=1, l=1, threshold=-1.0, since=0)
    assert outcome.triggered
    assert outcome.value == 0.0


def test_windowed_check_truncated_early_window():
    outcome = windowed_check([0.3], 0, q=1, l=4, threshold=0.0, since=0)
    assert outcome.triggered
    assert outcome.value == pytest.approx(0.3)


def test_windowed_check_restarts_after_history_restart():
    # a resync at t=1 replaces the twin: its 0.9 drift must not carry into t=2
    values = [0.0, 0.9, 0.1, 0.2]
    assert windowed_check(values, 1, q=1, l=3, threshold=0.5, since=0).triggered
    outcome = windowed_check(values, 2, q=1, l=3, threshold=0.5, since=2)
    assert not outcome.triggered
    assert outcome.value == pytest.approx(0.1)
    assert windowed_check(values, 3, q=1, l=3, threshold=0.5,
                          since=2).value == pytest.approx(0.3)
    # without the restart the same window would fire
    assert windowed_check(values, 3, q=1, l=3, threshold=0.5, since=0).triggered


# ------------------------------------------------------------
# Registry
# ------------------------------------------------------------


def test_checker_names_are_complete():
    assert CHECKER_NAMES == ("state", "knowledge", "action", "action2")


def test_checker_payloads_and_metrics_wire_up():
    scene = make_scene(
        drones=[(0, 1.0, 1.0), (1, 2.0, 2.0)],
        objects=[(0, 5.0, 5.0, 0.0, True)],
    )
    # each world carries the actions of the step that made it
    world = dataclasses.replace(scene.build_world(), actions=(walk(), walk()))
    other = dataclasses.replace(world, actions=(walk(), follow(1)))
    moved = dataclasses.replace(world, object_x=(8.0,), object_y=(9.0,))

    state = CHECKERS["state"].metric
    assert state(world, other) == 0.0
    assert state(world, moved) == state_deviation(
        state_vector(world), state_vector(moved)) == 5.0

    knowledge = CHECKERS["knowledge"].metric
    assert knowledge(world, dataclasses.replace(moved, actions=other.actions)) == 0.0
    weighted, bare = world_with_weights({(0, 1): 2.5}), world_with_weights({})
    assert knowledge(weighted, bare) == drift(
        knowledge_vector(weighted), knowledge_vector(bare)) == 2.5

    action = CHECKERS["action"].metric
    assert action(world, moved) == 0.0
    assert action(world, other) == 0.5

    action2 = CHECKERS["action2"].metric
    assert action2(world, moved) == 0.0
    assert action2(world, other) == 0.5
    # the fine comparison reads k from the scene: one shared recipient of
    # k - 1 = 2 costs 0.5 * (1 - 1/2), where at k = 2 it would cost nothing
    k3 = dataclasses.replace(world, params=dataclasses.replace(scene, k=3),
                             actions=(notify(0, {1, 2}), walk()))
    other_notify = dataclasses.replace(k3, actions=(notify(0, {1, 3}), walk()))
    assert action2(k3, other_notify) == mean_fine_action_deviation(
        k3.actions, other_notify.actions, 3) == 0.125


# The metric functions each checker's metric must reach, looked up by name.
METRIC_FUNCTIONS = {
    "state": "state_deviation",
    "knowledge": "drift",
    "action": "coarse_action_deviation",
    "action2": "mean_fine_action_deviation",
}


@pytest.mark.parametrize("name", CHECKER_NAMES)
def test_checker_metric_reaches_the_module_function(name, monkeypatch):
    # a row that held the function itself would go around any rebinding of
    # the module name, and a tracer counting metric calls would read 0
    original = getattr(equivalence, METRIC_FUNCTIONS[name])
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(equivalence, METRIC_FUNCTIONS[name], counted)
    world = world_with_weights({(0, 1): 1.0})
    world = dataclasses.replace(world, actions=(follow(0), walk(), walk()))
    CHECKERS[name].metric(world, world)
    assert len(calls) == 1


def test_action2_payload_prices_kinds_and_their_values_alike():
    # paired runs price ActionKind members, callers may pass their string values
    payload = CHECKERS["action2"].payload
    for kind in ActionKind:
        assert payload(3, 2, 3, [kind]) == payload(3, 2, 3, [kind.value]) >= 1
    kinds = list(ActionKind)
    assert payload(3, 2, 3, kinds) == payload(3, 2, 3, [kind.value for kind in kinds]) == 10


@pytest.mark.parametrize("name", CHECKER_NAMES)
def test_memory_cost_without_kinds_is_two_worlds_of_payload(name):
    for m, n_obj in ((2, 1), (5, 10), (15, 20)):
        one_world = CHECKERS[name].payload(m, n_obj, 2, ())
        assert comparison_memory_cost(name, m, n_obj) == 2 * one_world
