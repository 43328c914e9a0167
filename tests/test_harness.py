"""Paired runs: streams, threats, snapshots, updates, studies, summaries."""

import dataclasses
import math

import numpy as np
import pytest

import twinsync.harness as harness
from twinsync.equivalence import (
    coarse_action_deviation,
    mean_fine_action_deviation,
    state_deviation,
    state_vector,
    windowed_check,
)
from twinsync.harness import (
    CHANNEL_CHOICE,
    CHANNEL_WALK,
    CONDITIONS,
    STRATEGIES,
    StrategyStudyConfig,
    ThreatConfig,
    TwinRunConfig,
    agent_streams,
    apply_update,
    derive_rng,
    run_paired,
    run_strategy_study,
    sense_snapshot,
)
from twinsync.agent import build_perceptions
from twinsync.analysis import comparison_memory_cost
from twinsync.worldsim import step_world, utility_k

from helpers import make_scene, reference_agent_streams


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
    choice, walk = agent_streams(7, [0, 1, 2], steps=5)
    assert choice.shape == walk.shape == (5, 3)
    assert choice.dtype == walk.dtype == np.float64
    assert len(set(choice[0].tolist() + walk[0].tolist())) == 6
    again = agent_streams(7, [0, 1, 2], steps=5)
    assert np.array_equal(again[0], choice) and np.array_equal(again[1], walk)


def test_agent_streams_salt_changes_draws():
    plain = agent_streams(7, [0], steps=1)
    salted = agent_streams(7, [0], salt=(1,), steps=1)
    assert plain[0][0, 0] != salted[0][0, 0]
    assert plain[1][0, 0] != salted[1][0, 0]


def test_agent_streams_draw_only_the_channels_asked_for():
    choice, walk = agent_streams(9, [0, 1], steps=3)
    assert np.array_equal(
        agent_streams(9, [0, 1], steps=3, channels=(CHANNEL_CHOICE,))[0], choice)
    assert np.array_equal(
        agent_streams(9, [0, 1], steps=3, channels=(CHANNEL_WALK,))[0], walk)
    assert len(agent_streams(9, [0, 1], steps=3, channels=(CHANNEL_CHOICE,))) == 1


@pytest.mark.parametrize("salt,twin_seed", [((), None), ((3,), None), ((), 11)])
def test_agent_stream_tapes_equal_scalar_draws(salt, twin_seed):
    # row t, column c is the t-th scalar draw of drone ids[c]'s generator; a
    # divergent twin draws its choice tape alone, from its own seed, and
    # reads the physical walk tape
    ids, steps = [4, 0, 9], 300
    choice, walk = agent_streams(5, ids, salt=salt, steps=steps)
    streams = reference_agent_streams(5, ids, salt=salt)
    if twin_seed is not None:
        (choice,) = agent_streams(twin_seed, ids, salt=salt, steps=steps,
                                  channels=(CHANNEL_CHOICE,))
        twin_streams = reference_agent_streams(twin_seed, ids, salt=salt)
        streams = {i: streams[i]._replace(choice=twin_streams[i].choice) for i in ids}
    for t in range(steps):
        assert choice[t].tolist() == [float(streams[i].choice.random()) for i in ids]
        assert walk[t].tolist() == [float(streams[i].walk.random()) for i in ids]


def test_conditions_wire_the_right_threats():
    none, one, two = CONDITIONS["none"], CONDITIONS["I"], CONDITIONS["II"]
    assert none == ThreatConfig()
    assert one.bias_degrees == 3.0 and one.divergent_seeds and one.estimation_error_max == 0
    assert two.bias_degrees == 3.0 and not two.divergent_seeds
    assert two.estimation_error_max == 5.0


# ------------------------------------------------------------
# Snapshots
# ------------------------------------------------------------


def run_world(world, seed, steps, **kwargs):
    choice, walk = agent_streams(seed, world.drone_ids, steps=steps)
    for t in range(steps):
        world = step_world(world, choice[t].tolist(), walk[t].tolist(), **kwargs)
    return world


def drifted_world(steps=25, bias=3.0, seed=11):
    return run_world(SMALL.build_world(), seed, steps, bias_degrees=bias)


def test_snapshot_without_threat_copies_exactly():
    world = drifted_world()
    assert sense_snapshot(world, ThreatConfig(), derive_rng(0)) is world


def test_snapshot_is_the_physical_world_when_nothing_is_estimated():
    # no estimation error (condition I), or an estimation error with every
    # object covered: the report is exact, so the snapshot is the world and no
    # noise is drawn
    world = drifted_world()
    rng = derive_rng(4)
    assert sense_snapshot(world, CONDITIONS["I"], rng) is world
    covered = make_scene(drones=[(0, 5.0, 5.0), (1, 30.0, 30.0)],
                         objects=[(0, 6.0, 6.0, 0.0, True), (1, 29.0, 31.0, 90.0, False)])
    world = covered.build_world()
    assert all(world.coverage)
    assert sense_snapshot(world, CONDITIONS["II"], rng) is world
    assert rng.random() == derive_rng(4).random()


def test_snapshot_estimates_only_uncovered_objects():
    world = drifted_world()
    uncovered = [n == 0 for n in world.coverage]
    assert any(uncovered) and not all(uncovered)  # both kinds present

    snap = sense_snapshot(world, CONDITIONS["II"], derive_rng(5))
    # only the uncovered objects' positions, and their sensing, are new
    for name in ("time", "object_ids", "object_dir", "important", "drone_ids",
                 "drone_x", "drone_y", "inbox", "params", "weights"):
        assert getattr(snap, name) is getattr(world, name), name
    for j, estimated in enumerate(uncovered):
        x, y = snap.object_x[j], snap.object_y[j]
        if estimated:
            # one-sided noise, modulo clamping at the walls
            assert x - world.object_x[j] <= 5.0 + 1e-12
            assert y - world.object_y[j] <= 5.0 + 1e-12
            assert 0.0 <= x <= 50.0 and 0.0 <= y <= 50.0
        else:
            assert (x, y) == (world.object_x[j], world.object_y[j])


def test_snapshot_draws_noise_x_then_y_in_object_order():
    world = drifted_world()
    rng = derive_rng(5)
    snap = sense_snapshot(world, CONDITIONS["II"], derive_rng(5))
    for j, count in enumerate(world.coverage):
        if count == 0:
            dx, dy = rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)
            assert snap.object_x[j] == min(max(world.object_x[j] + dx, 0.0), 50.0)
            assert snap.object_y[j] == min(max(world.object_y[j] + dy, 0.0), 50.0)


def test_snapshot_noise_is_deterministic_per_stream():
    world = drifted_world()
    threat = CONDITIONS["II"]
    a = sense_snapshot(world, threat, derive_rng(9))
    b = sense_snapshot(world, threat, derive_rng(9))
    assert (a.object_x, a.object_y, a.coverage) == (b.object_x, b.object_y, b.coverage)
    assert np.array_equal(a.in_range, b.in_range)
    assert (a.object_x, a.object_y) != (world.object_x, world.object_y)


# ------------------------------------------------------------
# Applying updates
# ------------------------------------------------------------


def paired_for_update(steps=20):
    """A drifted physical world and a differently-drifted twin at equal time."""
    physical = drifted_world(steps=steps, seed=11)
    twin = run_world(SMALL.build_world(), 99, steps)
    return physical, twin


COLUMNS = ("object_ids", "object_x", "object_y", "object_dir", "important",
           "drone_ids", "drone_x", "drone_y", "inbox", "coverage")


def test_apply_update_replaces_shared_state():
    physical, twin = paired_for_update()
    snap = sense_snapshot(physical, ThreatConfig(), derive_rng(0))
    for strategy in STRATEGIES:
        updated = apply_update(twin, snap, strategy)
        assert updated.time == twin.time
        for name in COLUMNS:
            assert getattr(updated, name) == getattr(physical, name), name
        assert updated.params == twin.params
        # the reported positions come with their sensing
        assert np.array_equal(updated.in_range, physical.in_range)
        in_range, coverage = build_perceptions(
            updated.drone_x, updated.drone_y, updated.object_x, updated.object_y,
            SMALL.sensing_range)
        assert np.array_equal(updated.in_range, in_range)
        assert updated.coverage == coverage


def test_apply_update_senses_estimated_positions_afresh():
    physical, twin = paired_for_update()
    snap = sense_snapshot(physical, CONDITIONS["II"], derive_rng(3))
    assert (snap.object_x, snap.object_y) != (physical.object_x, physical.object_y)
    updated = apply_update(twin, snap, "update")
    assert (updated.object_x, updated.object_y) == (snap.object_x, snap.object_y)
    in_range, coverage = build_perceptions(
        updated.drone_x, updated.drone_y, snap.object_x, snap.object_y, SMALL.sensing_range)
    assert np.array_equal(updated.in_range, in_range)
    assert updated.coverage == coverage
    assert updated.in_range is not physical.in_range  # sensed at the reported positions


def test_every_strategy_shares_the_snapshots_sensing():
    # the snapshot is sensed once; the three strategies differ only in weights
    physical, twin = paired_for_update()
    snap = sense_snapshot(physical, CONDITIONS["II"], derive_rng(3))
    assert snap is not physical
    for strategy in STRATEGIES:
        updated = apply_update(twin, snap, strategy)
        assert updated.in_range is snap.in_range, strategy
        assert updated.coverage is snap.coverage, strategy
        assert (updated.object_x, updated.object_y) == (snap.object_x, snap.object_y)


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
    later = step_world(twin, [0.0] * 5, [0.0] * 5)
    with pytest.raises(ValueError, match="time"):
        apply_update(later, snap, "update")


def test_update_under_estimation_noise_stays_bounded():
    physical, twin = paired_for_update()
    threat = CONDITIONS["II"]
    snap = sense_snapshot(physical, threat, derive_rng(1))
    updated = apply_update(twin, snap, "update")
    n_obj = len(physical.object_ids)
    dev = state_deviation(state_vector(physical), state_vector(updated))
    assert dev <= 5.0 * math.sqrt(2.0 * n_obj)
    # drones resync exactly; only estimated objects carry error
    assert (updated.drone_x, updated.drone_y) == (physical.drone_x, physical.drone_y)


# ------------------------------------------------------------
# Paired lockstep runs
# ------------------------------------------------------------


def update_steps(trace):
    return [t for t, fired in enumerate(trace.updated) if fired]


def run_config(**kwargs):
    defaults = dict(scene=SMALL, scene_name="small", steps=60, seed=5)
    defaults.update(kwargs)
    return TwinRunConfig(**defaults)


def test_run_paired_identity_baseline_is_exact():
    trace = run_paired(run_config(condition="none", theta=math.inf))
    assert len(trace.u_physical) == len(trace.u_twin) == len(trace.metric_values) == 60
    assert trace.updates == 0
    assert trace.avg_utility_deviation() == 0.0
    assert trace.u_physical == trace.u_twin
    assert all(v == 0.0 for v in trace.metric_values)


def test_run_paired_forced_updates_every_step():
    trace = run_paired(run_config(condition="I", theta=-1.0))
    assert trace.updates == 60
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
    assert a.updated == b.updated
    assert a.memory_cost == b.memory_cost
    assert a.metric_values == b.metric_values
    assert a.u_twin == b.u_twin


def test_run_paired_free_twin_matches_standalone_run():
    trace = run_paired(run_config(condition="I", theta=math.inf, steps=40))
    twin = SMALL.build_world()
    # divergence re-keys choice draws to seed + 1; walks stay on the run seed
    (choice,) = agent_streams(6, twin.drone_ids, steps=40, channels=(CHANNEL_CHOICE,))
    _, walk = agent_streams(5, twin.drone_ids, steps=40)
    oracle = []
    for t in range(40):
        oracle.append(utility_k(twin))
        twin = step_world(twin, choice[t].tolist(), walk[t].tolist())
    assert trace.u_twin == oracle


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
    updates = set(update_steps(trace))
    back_to_back = [u for u in update_steps(trace) if u + 1 in updates]
    assert back_to_back, "the run must resync on consecutive steps"
    for u in back_to_back:
        assert trace.metric_values[u + 1] > theta, f"update at {u + 1}"


def test_run_paired_window_sums_only_steps_since_the_last_resync():
    # Oracle: replay the trigger rule from the trace's own metric values.
    theta, l = 1.5, 3
    trace = run_paired(run_config(condition="I", checker="state", theta=theta,
                                  l=l, steps=100))
    expected, since = [], 0
    for t in range(len(trace.updated)):
        window = trace.metric_values[max(since, t - l):t + 1]
        fired = sum(window) > theta
        expected.append(fired)
        if fired:
            since = t + 1
    assert trace.updated == expected
    assert 0 < trace.updates < len(trace.updated)


@pytest.mark.parametrize("l", [1, 3, 10])
@pytest.mark.parametrize("q", [1, 5])
def test_run_paired_update_window_sums_the_trace_since_the_last_resync(
        monkeypatch, q, l):
    checks = {}

    def recording(values, t, *args):
        checks[t] = windowed_check(values, t, *args)
        return checks[t]

    monkeypatch.setattr(harness, "windowed_check", recording)
    theta = 1.5
    trace = run_paired(run_config(condition="I", checker="state", theta=theta,
                                  q=q, l=l, steps=100))
    assert trace.updates > 0
    assert update_steps(trace) == [t for t, c in checks.items() if c.triggered]
    since = 0
    for t in update_steps(trace):
        total = 0.0
        for v in trace.metric_values[max(since, t - l):t + 1]:
            total += v
        assert checks[t].value == total
        assert total > theta
        since = t + 1


@pytest.mark.parametrize("checker,deviation", [
    ("action", coarse_action_deviation),
    ("action2", lambda p, t: mean_fine_action_deviation(p, t, SMALL.k)),
], ids=["action", "action2"])
def test_forced_resyncs_score_the_restepped_twins_actions(checker, deviation):
    # theta = -1 resyncs at every step, so the twin leaving step t is the
    # physical world at t and carries its actions. The metric at t + 1 must
    # compare the physical actions with those of the twin stepped again from
    # there, never with the carried-over records (that would always read 0).
    steps = 60
    trace = run_paired(run_config(condition="I", checker=checker, theta=-1.0, steps=steps))
    physical = SMALL.build_world()
    phys_choice, walk = agent_streams(5, physical.drone_ids, steps=steps)
    (twin_choice,) = agent_streams(6, physical.drone_ids, steps=steps,
                                   channels=(CHANNEL_CHOICE,))
    expected = [0.0]  # fresh worlds carry no actions
    for t in range(steps - 1):
        twin = step_world(physical, twin_choice[t].tolist(), walk[t].tolist())
        physical = step_world(physical, phys_choice[t].tolist(), walk[t].tolist(),
                              bias_degrees=3.0)
        expected.append(deviation(physical.actions, twin.actions))
    assert all(trace.updated)
    assert trace.metric_values == expected
    assert any(v > 0.0 for v in expected)


def test_run_paired_checker_grid_and_window():
    trace = run_paired(run_config(condition="I", theta=-1.0, q=5, steps=31))
    assert update_steps(trace) == [0, 5, 10, 15, 20, 25, 30]


def test_run_paired_validates_config():
    with pytest.raises(ValueError, match="condition"):
        run_paired(run_config(condition="III"))
    with pytest.raises(ValueError, match="checker"):
        run_paired(run_config(checker="vibes"))
    with pytest.raises(ValueError, match="steps"):
        run_paired(run_config(steps=0))


@pytest.mark.parametrize("field,value", [
    ("condition", "III"), ("checker", "vibes"), ("theta", math.nan), ("q", 0), ("l", 0),
    ("steps", 0), ("seed", -1),
    # integers only: 1.5 would check at steps 0, 3, 6, ...; the rest fail mid-run
    ("q", 1.5), ("steps", 3.0), ("l", 2.5), ("seed", 1.5), ("q", True), ("steps", False),
    # theta is a number: a string or None would fail inside math.isnan naming
    # no field, and True would run as 1 and reach the summary as 'True'
    ("theta", "2"), ("theta", None), ("theta", True),
])
def test_run_config_names_each_bad_field(field, value):
    with pytest.raises(harness.ConfigError, match=f"^{field} ") as exc:
        TwinRunConfig(scene=SMALL, **{field: value})
    assert isinstance(exc.value, ValueError)
    assert exc.value.field == field


@pytest.mark.parametrize("config_type,field,value", [
    (TwinRunConfig, "strategy", "keep"), (TwinRunConfig, "bias_mode", "fixed"),
    (TwinRunConfig, "signed_noise", True), (StrategyStudyConfig, "bias_mode", "fixed"),
    (StrategyStudyConfig, "signed_noise", True),
])
def test_configs_refuse_removed_fields(config_type, field, value):
    # a paired run always takes the snapshot whole, the heading bias always
    # compounds and estimation noise is always U[0, e]
    with pytest.raises(TypeError, match=field):
        config_type(scene=SMALL, **{field: value})


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
    physical, twin = SMALL.build_world(), SMALL.build_world()
    phys_choice, walk = agent_streams(5, physical.drone_ids, steps=40)
    (twin_choice,) = agent_streams(6, physical.drone_ids, steps=40,
                                   channels=(CHANNEL_CHOICE,))
    costs = []
    for t in range(40):
        costs.append(comparison_memory_cost(
            "action2", 5, 8, k=SMALL.k,
            step_kinds=([a.kind.value for a in physical.actions],
                        [a.kind.value for a in twin.actions])))
        physical = step_world(physical, phys_choice[t].tolist(), walk[t].tolist(),
                              bias_degrees=3.0)
        twin = step_world(twin, twin_choice[t].tolist(), walk[t].tolist())
    assert len(set(costs)) > 2
    assert trace.memory_cost == sum(costs) / len(costs)


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


@pytest.mark.parametrize("field,value", [
    ("condition", "X"), ("samples", 0), ("repeats", 0), ("seed", -2), ("accumulation", -1),
    ("evaluation", 0), ("start_min", -1), ("start_max", 0), ("horizon", 79),
    ("samples", 2.0), ("accumulation", 1.5), ("repeats", True), ("start_max", 40.5),
    ("horizon", 100.0),
])
def test_study_config_names_each_bad_field(field, value):
    with pytest.raises(harness.ConfigError, match=f"^{field} ") as exc:
        study_config(**{field: value})
    assert exc.value.field == field


def test_integer_fields_say_why_they_reject_a_float():
    with pytest.raises(harness.ConfigError, match="^q must be an integer, got 1.5$"):
        run_config(q=1.5)
    with pytest.raises(harness.ConfigError, match="^repeats must be an integer, got True$"):
        study_config(repeats=True)
    assert run_config(seed=np.int64(5)).seed == 5  # a numpy integer is an integer


# Scenes that break validate_scene, each with every violation it reports, in order.
INVALID_SCENES = {
    "one-drone": (dataclasses.replace(SMALL, drones=SMALL.drones[:1]),
                  ["scene has 1 drone; need at least two"]),
    "no-objects": (dataclasses.replace(SMALL, objects=()), ["scene has no objects"]),
    "importance-period-0": (dataclasses.replace(SMALL, importance_period=0),
                            ["importance_period must be >= 1, got 0"]),
    "out-of-bounds": (dataclasses.replace(SMALL, drones=SMALL.drones[:4] + (
        SMALL.drones[4]._replace(x=60.0),)), ["drone 4 position (60.0, 35.0) out of bounds"]),
    "all-at-once": (dataclasses.replace(SMALL, importance_period=0, drones=(
        SMALL.drones[0]._replace(y=-1.0),), objects=()),
        ["importance_period must be >= 1, got 0", "scene has 1 drone; need at least two",
         "scene has no objects", "drone 0 position (5.0, -1.0) out of bounds"]),
}


@pytest.mark.parametrize("case", INVALID_SCENES)
@pytest.mark.parametrize("start", [
    lambda scene: run_paired(run_config(scene=scene)),
    lambda scene: run_strategy_study(study_config(scene=scene)),
], ids=["run", "study"])
def test_configs_reject_an_invalid_scene(monkeypatch, start, case):
    scene, violations = INVALID_SCENES[case]
    monkeypatch.setattr(harness, "step_world", lambda *a, **kw: pytest.fail("a world stepped"))
    with pytest.raises(harness.ConfigError) as exc:
        start(scene)
    assert exc.value.field == "scene"
    assert str(exc.value) == "scene is invalid: " + "; ".join(violations)


def test_study_shapes_and_stats():
    result = run_strategy_study(study_config(samples=3, repeats=2))
    assert set(result.deviations) == set(STRATEGIES)
    for strategy in STRATEGIES:
        values = result.deviations[strategy]
        assert len(values) == 6
        assert all(v >= 0.0 for v in values)
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


def test_divergent_twins_draw_no_tape_they_discard(monkeypatch):
    # the twin's walk rows are the physical tape's, so only its choice tape is drawn
    drawn = []

    def recording(seed, ids, salt=(), *, steps, channels=(CHANNEL_CHOICE, CHANNEL_WALK)):
        drawn.append((seed, channels))
        return agent_streams(seed, ids, salt, steps=steps, channels=channels)

    monkeypatch.setattr(harness, "agent_streams", recording)
    both = (CHANNEL_CHOICE, CHANNEL_WALK)
    run_paired(run_config(condition="I", steps=5))
    assert drawn == [(5, both), (6, (CHANNEL_CHOICE,))]
    drawn.clear()
    run_strategy_study(study_config(condition="I"))
    assert drawn == [(3, both), (4, (CHANNEL_CHOICE,))]


@pytest.mark.parametrize("condition,start_min,start_max",
                         [("I", 1, 40), ("II", 1, 40), ("I", 0, 0), ("II", 0, 0)],
                         ids=["I", "II", "I-start-0", "II-start-0"])
def test_study_clones_read_the_tapes_at_their_offsets(monkeypatch, condition, start_min,
                                                      start_max):
    # The physical world reads tape row t at time t. A clone at `start`, and
    # every branch after it, reads the physical walk tape at its own time; its
    # choice channel reads the physical tape too, or, under seed divergence,
    # the seed + 1 tape from row 0 at the clone. A clone at t = 0 starts from
    # the built world.
    calls = []

    def recording(world, choice, walk, *args, **kwargs):
        calls.append((world.time, choice, walk))
        return step_world(world, choice, walk, *args, **kwargs)

    monkeypatch.setattr(harness, "step_world", recording)
    config = study_config(condition=condition, start_min=start_min, start_max=start_max)
    result = run_strategy_study(config)
    branch_steps = config.accumulation + config.evaluation
    run_to = config.start_max + branch_steps
    ids = tuple(sorted(d.id for d in SMALL.drones))
    choice, walk = agent_streams(config.seed, ids, salt=(0,), steps=run_to)
    (divergent,) = agent_streams(config.seed + 1, ids, salt=(0,), steps=branch_steps,
                                 channels=(CHANNEL_CHOICE,))

    assert calls[:run_to] == [(t, choice[t].tolist(), walk[t].tolist()) for t in range(run_to)]
    per_start = config.accumulation + len(STRATEGIES) * config.evaluation
    rest = calls[run_to:]
    assert len(rest) == per_start * len(result.start_times)
    for n, start in enumerate(result.start_times):
        for time, c, w in rest[n * per_start:(n + 1) * per_start]:
            assert w == walk[time].tolist()
            if CONDITIONS[condition].divergent_seeds:
                assert c == divergent[time - start].tolist()
            else:
                assert c == choice[time].tolist()
