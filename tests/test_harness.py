"""Paired runs: streams, threats, snapshots, updates, studies, summaries."""

import copy
import math

import numpy as np
import pytest

from twinsync.equivalence import state_vector, state_deviation
from twinsync.harness import (
    CONDITIONS,
    STRATEGIES,
    Snapshot,
    StrategyStudyConfig,
    ThreatConfig,
    TwinRunConfig,
    agent_streams,
    apply_update,
    derive_rng,
    run_paired,
    run_strategy_study,
    sense_snapshot,
    summary_row,
    SUMMARY_HEADER,
)
from twinsync.agent import build_perceptions
from twinsync.analysis import comparison_memory_cost
from twinsync.worldsim import coverage_map, step_world, utility_k

from helpers import make_scene


SMALL = make_scene(
    drones=[(0, 5.0, 5.0), (1, 15.0, 20.0), (2, 30.0, 10.0), (3, 40.0, 40.0), (4, 10.0, 35.0)],
    objects=[
        (0, 8.0, 6.0, 0.0, True),
        (1, 20.0, 22.0, 90.0, False),
        (2, 28.0, 12.0, 180.0, True),
        (3, 42.0, 38.0, 270.0, False),
        (4, 12.0, 33.0, 0.0, True),
        (5, 25.0, 25.0, 90.0, True),
        (6, 5.0, 45.0, 180.0, False),
        (7, 45.0, 5.0, 270.0, True),
    ],
)


# ------------------------------------------------------------
# Randomness plumbing
# ------------------------------------------------------------


def test_derive_rng_reproducible_and_keyed():
    a = derive_rng(1, 2, 3).random(4)
    b = derive_rng(1, 2, 3).random(4)
    c = derive_rng(1, 2, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_agent_streams_are_private_per_drone_and_channel():
    streams = agent_streams(7, [0, 1, 2])
    draws = {i: (s.choice.random(), s.walk.random()) for i, s in streams.items()}
    flat = [v for pair in draws.values() for v in pair]
    assert len(set(flat)) == 6
    again = agent_streams(7, [0, 1, 2])
    assert [(again[i].choice.random(), again[i].walk.random()) for i in range(3)] \
        == [draws[i] for i in range(3)]


def test_agent_streams_salt_changes_draws():
    plain = agent_streams(7, [0])[0]
    salted = agent_streams(7, [0], salt=(1,))[0]
    assert plain.choice.random() != salted.choice.random()
    assert plain.walk.random() != salted.walk.random()


def test_agent_streams_walk_seed_rekeys_only_the_walk_channel():
    mixed = agent_streams(9, [0], walk_seed=7)[0]
    assert mixed.choice.random() == agent_streams(9, [0])[0].choice.random()
    assert mixed.walk.random() == agent_streams(7, [0])[0].walk.random()
    rekeyed = agent_streams(9, [0], walk_seed=7)[0]
    plain = agent_streams(9, [0])[0]
    assert rekeyed.walk.random() != plain.walk.random()


def test_conditions_wire_the_right_threats():
    none, one, two = CONDITIONS["none"], CONDITIONS["I"], CONDITIONS["II"]
    assert none == ThreatConfig()
    assert one.bias_degrees == 3.0 and one.divergent_seeds and not one.sensor_limited
    assert two.bias_degrees == 3.0 and not two.divergent_seeds
    assert two.sensor_limited and two.estimation_error_max == 5.0


# ------------------------------------------------------------
# Snapshots
# ------------------------------------------------------------


def drifted_world(steps=25, bias=3.0, seed=11):
    world = SMALL.build_world()
    rngs = agent_streams(seed, [d.id for d in world.drones])
    for _ in range(steps):
        world, _ = step_world(world, rngs, bias_degrees=bias)
    return world


def test_snapshot_without_threat_copies_exactly():
    world = drifted_world()
    snap = sense_snapshot(world, ThreatConfig(), derive_rng(0))
    assert snap.time == world.time
    for so, o in zip(snap.objects, world.objects):
        assert so.position == o.position
        assert so.direction == o.direction
        assert so.important == o.important
        assert not so.estimated
    assert snap.drones is world.drones
    assert snap.weights is world.weights


def test_snapshot_estimates_only_uncovered_objects():
    world = drifted_world()
    threat = CONDITIONS["II"]
    cov = coverage_map(world)
    uncovered = {o.id for o, n in zip(world.objects, cov) if n == 0}
    assert uncovered and len(uncovered) < len(cov)  # both kinds present

    snap = sense_snapshot(world, threat, derive_rng(5))
    for so, o in zip(snap.objects, world.objects):
        if o.id in uncovered:
            assert so.estimated
            dx = so.position.x - o.position.x
            dy = so.position.y - o.position.y
            # one-sided noise, modulo clamping at the walls
            assert dx <= 5.0 + 1e-12 and dy <= 5.0 + 1e-12
            assert 0.0 <= so.position.x <= 50.0 and 0.0 <= so.position.y <= 50.0
        else:
            assert not so.estimated
            assert so.position == o.position
        assert so.direction == o.direction
        assert so.important == o.important


def test_snapshot_signed_noise_can_go_negative():
    world = drifted_world()
    threat = CONDITIONS["II"]
    offsets = []
    rng = derive_rng(6)
    for _ in range(10):
        snap = sense_snapshot(world, threat, rng, signed_noise=True)
        for so, o in zip(snap.objects, world.objects):
            if so.estimated:
                offsets.append(so.position.x - o.position.x)
                offsets.append(so.position.y - o.position.y)
    assert offsets
    assert all(-5.0 - 1e-12 <= off <= 5.0 + 1e-12 for off in offsets)
    assert min(offsets) < 0.0


def test_snapshot_noise_is_deterministic_per_stream():
    world = drifted_world()
    threat = CONDITIONS["II"]
    a = sense_snapshot(world, threat, derive_rng(9))
    b = sense_snapshot(world, threat, derive_rng(9))
    assert (a.time, a.objects, a.drones) == (b.time, b.objects, b.drones)
    assert any(o.estimated for o in a.objects)
    assert np.array_equal(a.weights, b.weights)


# ------------------------------------------------------------
# Applying updates
# ------------------------------------------------------------


def paired_for_update(steps=20):
    """A drifted physical world and a differently-drifted twin at equal time."""
    physical = drifted_world(steps=steps, seed=11)
    twin = SMALL.build_world()
    rngs = agent_streams(99, [d.id for d in twin.drones])
    for _ in range(steps):
        twin, _ = step_world(twin, rngs)
    return physical, twin


def test_apply_update_replaces_shared_state():
    physical, twin = paired_for_update()
    snap = sense_snapshot(physical, ThreatConfig(), derive_rng(0))
    for strategy in STRATEGIES:
        updated = apply_update(twin, snap, strategy)
        assert updated.time == twin.time
        assert [o.position for o in updated.objects] == [o.position for o in physical.objects]
        assert [o.important for o in updated.objects] == [o.important for o in physical.objects]
        assert [d.position for d in updated.drones] == [d.position for d in physical.drones]
        assert [d.inbox for d in updated.drones] == [d.inbox for d in physical.drones]
        # new positions are sensed afresh
        assert np.array_equal(updated.in_range, physical.in_range)
        assert np.array_equal(updated.in_range, build_perceptions(
            updated.drones, updated.objects, SMALL.sensing_range))


def test_apply_update_strategy_update_shares_physical_weights():
    physical, twin = paired_for_update()
    assert physical.weights.any() and not np.array_equal(physical.weights, twin.weights)
    snap = sense_snapshot(physical, ThreatConfig(), derive_rng(0))
    updated = apply_update(twin, snap, "update")
    # read-only, so the twin can share the physical matrix instead of copying it
    assert updated.weights is physical.weights
    assert not updated.weights.flags.writeable


def test_apply_update_strategy_keep_preserves_twin_graphs():
    physical, twin = paired_for_update()
    snap = sense_snapshot(physical, ThreatConfig(), derive_rng(0))
    updated = apply_update(twin, snap, "keep")
    assert updated.weights is twin.weights


def test_apply_update_strategy_clear_zeroes_graphs():
    physical, twin = paired_for_update()
    snap = sense_snapshot(physical, ThreatConfig(), derive_rng(0))
    updated = apply_update(twin, snap, "clear")
    assert updated.weights.shape == twin.weights.shape
    assert not updated.weights.any()
    assert not updated.weights.flags.writeable


def test_apply_update_validates_inputs():
    physical, twin = paired_for_update()
    snap = sense_snapshot(physical, ThreatConfig(), derive_rng(0))
    with pytest.raises(ValueError, match="strategy"):
        apply_update(twin, snap, "merge")
    stale = Snapshot(snap.time + 5, snap.objects, snap.drones, snap.weights)
    with pytest.raises(ValueError, match="time"):
        apply_update(twin, stale, "update")


def test_update_under_estimation_noise_stays_bounded():
    physical, twin = paired_for_update()
    threat = CONDITIONS["II"]
    snap = sense_snapshot(physical, threat, derive_rng(1))
    updated = apply_update(twin, snap, "update")
    n_obj = len(physical.objects)
    dev = state_deviation(state_vector(physical), state_vector(updated))
    assert dev <= 5.0 * math.sqrt(2.0 * n_obj)
    # drones resync exactly; only estimated objects carry error
    for ud, pd in zip(updated.drones, physical.drones):
        assert ud.position == pd.position


# ------------------------------------------------------------
# Paired lockstep runs
# ------------------------------------------------------------


def run_config(**kwargs):
    defaults = dict(scene=SMALL, scene_name="small", steps=60, seed=5)
    defaults.update(kwargs)
    return TwinRunConfig(**defaults)


def test_run_paired_identity_baseline_is_exact():
    trace = run_paired(run_config(condition="none", theta=math.inf))
    assert trace.steps == 60
    assert trace.updates == 0
    assert trace.avg_utility_deviation() == 0.0
    assert trace.u_physical == trace.u_twin
    assert all(v == 0.0 for v in trace.metric_values)


def test_run_paired_forced_updates_every_step():
    trace = run_paired(run_config(condition="I", theta=-1.0))
    assert trace.updates == 60
    assert trace.update_steps == list(range(60))
    assert all(trace.updated)


def test_run_paired_records_pre_update_divergence():
    trace = run_paired(run_config(condition="I", theta=-1.0, checker="state"))
    # payloads are captured before the resync, so divergence stays visible
    assert any(v > 0.0 for v in trace.metric_values)


def test_run_paired_utilities_reflect_the_resync():
    # forced resync every step: u' is read after the update, so it tracks u
    # exactly even while the comparison metric keeps showing the divergence
    trace = run_paired(run_config(condition="I", theta=-1.0, checker="state"))
    assert trace.u_twin == trace.u_physical
    assert trace.avg_utility_deviation() == 0.0


def test_run_paired_is_reproducible():
    a = run_paired(run_config(condition="I", theta=2.0, checker="knowledge"))
    b = run_paired(run_config(condition="I", theta=2.0, checker="knowledge"))
    assert summary_row(a) == summary_row(b)
    assert a.metric_values == b.metric_values
    assert a.u_twin == b.u_twin


def test_run_paired_free_twin_matches_standalone_run():
    trace = run_paired(run_config(condition="I", theta=math.inf, steps=40))
    twin = SMALL.build_world()
    # divergence re-keys choice draws to seed + 1; walks stay on the run seed
    rngs = agent_streams(6, [d.id for d in twin.drones], walk_seed=5)
    oracle = []
    for _ in range(40):
        oracle.append(utility_k(twin, SMALL.k))
        twin, _ = step_world(twin, rngs)
    assert trace.u_twin == oracle


def test_run_paired_twin_seed_flag_changes_divergent_runs_only():
    base = run_paired(run_config(condition="I", theta=math.inf))
    other = run_paired(run_config(condition="I", theta=math.inf, twin_seed=77))
    assert base.u_twin != other.u_twin
    same = run_paired(run_config(condition="none", theta=math.inf))
    resamed = run_paired(run_config(condition="none", theta=math.inf, twin_seed=77))
    assert same.u_twin == resamed.u_twin


def test_run_paired_condition_ii_uses_shared_streams():
    trace = run_paired(run_config(condition="II", theta=math.inf, steps=40))
    # without updates the worlds only differ through the object bias
    assert trace.u_physical != trace.u_twin
    plain = run_paired(run_config(condition="none", theta=math.inf, steps=40))
    assert trace.u_twin == plain.u_twin


@pytest.mark.parametrize("checker,theta", [("knowledge", 0.0), ("state", 2.0),
                                           ("action2", 0.2)])
def test_run_paired_resync_restarts_the_window(checker, theta):
    # With l = 1 the window at u+1 would also hold step u, whose metric is the
    # drift of the twin replaced at u. After a restart only the new twin's own
    # drift at u+1 can fire the next update.
    trace = run_paired(run_config(condition="I", checker=checker, theta=theta,
                                  l=1, steps=100))
    updates = set(trace.update_steps)
    back_to_back = [u for u in trace.update_steps if u + 1 in updates]
    assert back_to_back, "the run must resync on consecutive steps"
    for u in back_to_back:
        assert trace.metric_values[u + 1] > theta, f"update at {u + 1}"


def test_run_paired_window_sums_only_steps_since_the_last_resync():
    # Oracle: replay the trigger rule from the trace's own metric values.
    theta, l = 1.5, 3
    trace = run_paired(run_config(condition="I", checker="state", theta=theta,
                                  l=l, steps=100))
    expected, since = [], 0
    for t in range(trace.steps):
        window = trace.metric_values[max(since, t - l):t + 1]
        fired = sum(window) > theta
        expected.append(fired)
        if fired:
            since = t + 1
    assert trace.updated == expected
    assert 0 < trace.updates < trace.steps


def test_run_paired_checker_grid_and_window():
    trace = run_paired(run_config(condition="I", theta=-1.0, q=5, steps=31))
    assert trace.update_steps == [0, 5, 10, 15, 20, 25, 30]


def test_run_paired_validates_config():
    with pytest.raises(ValueError, match="condition"):
        run_paired(run_config(condition="III"))
    with pytest.raises(ValueError, match="checker"):
        run_paired(run_config(checker="vibes"))
    with pytest.raises(ValueError, match="strategy"):
        run_paired(run_config(strategy="merge"))
    with pytest.raises(ValueError, match="steps"):
        run_paired(run_config(steps=0))
    low_k = make_scene(drones=[(0, 1.0, 1.0), (1, 2.0, 2.0)],
                       objects=[(0, 5.0, 5.0, 0.0, True)], k=1)
    with pytest.raises(ValueError, match="k >= 2"):
        run_paired(TwinRunConfig(scene=low_k, checker="action2", steps=5))


def test_run_paired_memory_cost_matches_method():
    state = run_paired(run_config(checker="state", steps=10))
    assert state.memory_cost == 4 * (5 + 8)
    knowledge = run_paired(run_config(checker="knowledge", steps=10))
    assert knowledge.memory_cost == 5 * 4
    action = run_paired(run_config(checker="action", steps=10))
    assert action.memory_cost == 2 * 5
    action2 = run_paired(run_config(checker="action2", steps=10))
    assert 2 * 5 <= action2.memory_cost <= 2 * 5 * (1 + 2)


def test_run_paired_action2_memory_cost_is_the_mean_of_step_costs():
    # Oracle: replay both worlds without updates, price each step's action
    # mix for both worlds, and average the list as the trace once did.
    trace = run_paired(run_config(condition="I", checker="action2", theta=math.inf,
                                  steps=40))
    ids = [d.id for d in SMALL.drones]
    physical, twin = SMALL.build_world(), SMALL.build_world()
    phys_rngs = agent_streams(5, ids)
    twin_rngs = agent_streams(6, ids, walk_seed=5)
    prev_p, prev_t, costs = (), (), []
    for _ in range(40):
        costs.append(comparison_memory_cost(
            "action2", 5, 8, k=SMALL.k,
            step_kinds=([a.kind.value for a in prev_p], [a.kind.value for a in prev_t])))
        physical, prev_p = step_world(physical, phys_rngs, bias_degrees=3.0)
        twin, prev_t = step_world(twin, twin_rngs)
    assert len(set(costs)) > 2
    assert trace.memory_cost == sum(costs) / len(costs)


def test_trace_rows_shape():
    trace = run_paired(run_config(steps=12))
    rows = list(trace.rows())
    assert len(rows) == 12
    t, up, ut, mv, upd = rows[0]
    assert t == 0 and isinstance(upd, int)
    assert 0.0 <= up <= 1.0 and 0.0 <= ut <= 1.0


def test_summary_row_matches_header_and_reprs():
    trace = run_paired(run_config(theta=math.inf, steps=10))
    row = summary_row(trace, repeat=3)
    assert len(row) == len(SUMMARY_HEADER)
    named = dict(zip(SUMMARY_HEADER, row))
    assert named["scene"] == "small"
    assert named["theta"] == "inf"
    assert named["repeat"] == 3
    assert float(named["avg_utility_deviation"]) == trace.avg_utility_deviation()


# ------------------------------------------------------------
# Threshold monotonicity
# ------------------------------------------------------------


def test_update_count_monotone_in_threshold():
    # Raising the threshold can only delay or drop triggers while the paired
    # trajectories agree; after the first differing update the schedules feed
    # back into the dynamics, which is why this is checked empirically on a
    # fixed grid rather than proven per step.
    counts = []
    for theta in (0.0, 0.5, 1.0, 2.0, 4.0):
        trace = run_paired(run_config(condition="I", checker="state",
                                      theta=theta, steps=200))
        counts.append(trace.updates)
    assert counts == sorted(counts, reverse=True)


# ------------------------------------------------------------
# Update-strategy study
# ------------------------------------------------------------


def study_config(**kwargs):
    defaults = dict(scene=SMALL, scene_name="small", condition="I", samples=2,
                    repeats=1, seed=3, accumulation=20, evaluation=20,
                    start_min=1, start_max=40, horizon=100)
    defaults.update(kwargs)
    return StrategyStudyConfig(**defaults)


def test_study_validates_inputs():
    with pytest.raises(ValueError, match="condition"):
        run_strategy_study(study_config(condition="X"))
    with pytest.raises(ValueError, match="samples"):
        run_strategy_study(study_config(samples=0))
    with pytest.raises(ValueError, match="horizon"):
        run_strategy_study(study_config(start_max=90))
    with pytest.raises(ValueError, match="start_min"):
        run_strategy_study(study_config(start_min=-1))


def test_study_shapes_and_stats():
    result = run_strategy_study(study_config(samples=3, repeats=2))
    assert set(result.deviations) == set(STRATEGIES)
    for strategy in STRATEGIES:
        values = result.deviations[strategy]
        assert len(values) == 6
        assert all(v >= 0.0 for v in values)
        assert result.stderr(strategy) == pytest.approx(
            result.stdev(strategy) / math.sqrt(6))
    assert len(result.start_times) == 3
    assert all(1 <= s <= 40 for s in result.start_times)


def test_study_without_threats_makes_update_and_keep_exact():
    result = run_strategy_study(study_config(condition="none"))
    assert result.deviations["update"] == [0.0, 0.0]
    assert result.deviations["keep"] == [0.0, 0.0]


def test_study_regression_values_are_frozen():
    # pinned numerics: any drift in stepping, cloning, or stream handling
    # shows up here first
    result = run_strategy_study(study_config())
    assert result.start_times == [1, 36]
    assert result.deviations["update"] == [0.0375, 0.04375]
    assert result.deviations["keep"] == [0.0375, 0.04375]
    assert result.deviations["clear"] == [0.0375, 0.04375]


def test_study_is_reproducible():
    a = run_strategy_study(study_config())
    b = run_strategy_study(study_config())
    assert a.deviations == b.deviations
    assert a.start_times == b.start_times
