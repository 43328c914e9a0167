"""Shipping gate: whole-system checks over the bundled scenes.

Each test states one guarantee the package ships with, from byte-stable
replay up to the cross-scene benchmark orderings. The sweep-backed checks
share one session fixture; everything is seeded, so reruns see the same
numbers. Expect the full gate to take tens of minutes: it replays the
entire benchmark grid at 1000 steps.
"""

import csv
import math
import statistics
import time
from pathlib import Path

import pytest

from twinsync.analysis import (
    SolutionPoint,
    comparison_memory_cost,
    dominates,
    hypervolume2d,
)
from twinsync.cli import main
from twinsync.harness import (
    StrategyStudyConfig,
    TwinRunConfig,
    run_paired,
    run_strategy_study,
)
from twinsync.model import load_scene

SCENES = Path(__file__).resolve().parent.parent / "scenes"
SCENE_COUNT = 6
STEPS = 1000
SWEEP_SEED = 100
REPEATS = 5
MAX_UPDATES = 1000.0

# One threshold ladder per checker, spanning trigger-always to near-silent.
GRIDS = {
    "state": "0,1,2,5,10,20,50,120,250,inf",
    "knowledge": "0,0.5,1,2,4,8,16,32,64",
    "action": "0,0.1,0.2,0.3,0.4,0.6,0.8,1.2,1.6",
    "action2": "0,0.1,0.2,0.4,0.6,0.8,1.2,1.6,1.9",
}


def scene_path(i: int) -> str:
    return str(SCENES / f"scene{i}.json")


def run_config(i: int, **kw) -> TwinRunConfig:
    scene = load_scene(scene_path(i))
    defaults = dict(scene=scene, scene_name=f"scene{i}", condition="I",
                    checker="state", theta=math.inf, q=1, l=1, steps=STEPS,
                    seed=SWEEP_SEED)
    defaults.update(kw)
    return TwinRunConfig(**defaults)


# ------------------------------------------------------------
# Benchmark sweep shared by the trade-off checks
# ------------------------------------------------------------


@pytest.fixture(scope="session")
def sweep_rows(tmp_path_factory):
    """Per-scene solution rows for all four checkers at the frozen grids."""
    out_dir = tmp_path_factory.mktemp("sweep")
    per_scene = {}
    for i in range(1, SCENE_COUNT + 1):
        rows = []
        for checker, thetas in GRIDS.items():
            out = out_dir / f"s{i}_{checker}.csv"
            rc = main([
                "sweep", "--scene", scene_path(i), "--condition", "I",
                "--checkers", checker, "--thetas", thetas,
                "--repeats", str(REPEATS), "--steps", str(STEPS),
                "--seed", str(SWEEP_SEED), "--out", str(out),
            ])
            assert rc == 0
            with open(out, newline="") as fh:
                rows.extend(csv.DictReader(fh))
        per_scene[i] = rows
    return per_scene


def baseline_of(rows) -> float:
    devs = [float(r["avg_utility_deviation"]) for r in rows
            if math.isinf(float(r["theta"]))]
    assert devs, "sweep must carry free-run rows"
    return sum(devs) / len(devs)


def norm_points(rows, checker, baseline):
    return [
        SolutionPoint(float(r["avg_utility_deviation"]) / baseline,
                      int(r["updates"]) / MAX_UPDATES)
        for r in rows
        if r["checker"] == checker and not math.isinf(float(r["theta"]))
    ]


def theta_means(rows, checker, baseline):
    groups: dict[str, list] = {}
    for r in rows:
        if r["checker"] == checker and not math.isinf(float(r["theta"])):
            groups.setdefault(r["theta"], []).append(r)
    means = []
    for members in groups.values():
        dev = sum(float(m["avg_utility_deviation"]) for m in members) / len(members)
        upd = sum(int(m["updates"]) for m in members) / len(members)
        means.append(SolutionPoint(dev / baseline, upd / MAX_UPDATES))
    return means


def scene_hypervolumes(rows):
    baseline = baseline_of(rows)
    hv = {}
    for checker in GRIDS:
        pts = norm_points(rows, checker, baseline)
        boxed = [p for p in pts if p.dev <= 1.0 and p.upd <= 1.0]
        hv[checker] = hypervolume2d(boxed)
    return hv


# ------------------------------------------------------------
# 1-2: replay stability and the do-nothing twin
# ------------------------------------------------------------


def test_01_replay_is_byte_identical_and_fast(tmp_path):
    flags = ["run", "--scene", scene_path(1), "--condition", "I",
             "--checker", "knowledge", "--theta", "2.0", "--steps", str(STEPS)]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(flags + ["--trace", str(first),
                         "--summary", str(tmp_path / "sa.csv")]) == 0
    t0 = time.perf_counter()
    assert main(flags + ["--trace", str(second),
                         "--summary", str(tmp_path / "sb.csv")]) == 0
    elapsed = time.perf_counter() - t0
    assert first.read_bytes() == second.read_bytes()
    assert elapsed < 5.0, f"1000-step run took {elapsed:.2f}s"


def test_02_identical_worlds_never_deviate():
    trace = run_paired(run_config(1, condition="none", theta=math.inf))
    assert trace.updates == 0
    assert trace.avg_utility_deviation() == 0.0


# ------------------------------------------------------------
# 3-4: update extremes bracket the achievable deviation
# ------------------------------------------------------------


def test_03_forced_resync_every_step_pins_the_twin():
    trace = run_paired(run_config(1, theta=-1.0))
    assert trace.updates == STEPS
    assert trace.avg_utility_deviation() <= 0.02


def test_04_free_running_twin_deviates_moderately():
    t0 = time.perf_counter()
    for i in range(1, SCENE_COUNT + 1):
        for condition in ("I", "II"):
            trace = run_paired(run_config(i, condition=condition))
            dev = trace.avg_utility_deviation()
            assert 0.05 <= dev <= 0.35, f"scene{i}/{condition}: {dev:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"12 free runs took {elapsed:.1f}s"


# ------------------------------------------------------------
# 5: resync beats keeping or clearing the stale model
# ------------------------------------------------------------


def test_05_update_strategy_beats_keep_and_clear():
    t0 = time.perf_counter()
    result = run_strategy_study(StrategyStudyConfig(
        scene=load_scene(scene_path(6)), scene_name="scene6", condition="I",
        samples=30, repeats=10, seed=SWEEP_SEED, accumulation=50, evaluation=50,
        start_min=1, start_max=900, horizon=1000,
    ))
    elapsed = time.perf_counter() - t0
    update = result.deviations["update"]
    for rival_name in ("keep", "clear"):
        rival = result.deviations[rival_name]
        assert len(rival) == len(update) == 300
        # episodes are shared, so judge the margin on paired differences
        diffs = [r - u for r, u in zip(rival, update)]
        margin = statistics.mean(diffs)
        sem = statistics.stdev(diffs) / math.sqrt(len(diffs))
        assert margin > sem, (
            f"update vs {rival_name}: margin {margin:.5f} <= 1 SE {sem:.5f}")
    assert elapsed < 300.0, f"strategy study took {elapsed:.1f}s"


# ------------------------------------------------------------
# 6-8: cross-checker trade-off orderings on the benchmark grid
# ------------------------------------------------------------


def test_06_knowledge_front_rules_the_low_deviation_band(sweep_rows):
    good = []
    for i, rows in sweep_rows.items():
        baseline = baseline_of(rows)
        know = theta_means(rows, "knowledge", baseline)
        state = theta_means(rows, "state", baseline)
        band = [p for p in know if p.dev <= 0.3]
        undominated = band and all(
            not dominates(s, p) for p in band for s in state)
        tight = [p for p in know if p.dev <= 0.05]
        frugal = False
        if tight:
            best = min(tight, key=lambda p: p.upd)
            rivals = [s for s in state if s.dev <= best.dev]
            frugal = all(s.upd > best.upd for s in rivals)
        good.append(bool(undominated and frugal))
    assert sum(good) >= 4, f"scenes passing: {good}"


def test_07_hypervolume_ordering_across_scenes(sweep_rows):
    know_wins = 0
    action_smallest = 0
    for i, rows in sweep_rows.items():
        hv = scene_hypervolumes(rows)
        for checker in ("state", "knowledge", "action"):
            assert 0.80 < hv[checker] < 1.0, (
                f"scene{i} {checker} hypervolume {hv[checker]:.4f} out of band")
        know_wins += hv["knowledge"] >= hv["state"]
        action_smallest += hv["action"] == min(
            hv["state"], hv["knowledge"], hv["action"])
    assert know_wins >= 4, f"knowledge >= state in only {know_wins}/6 scenes"
    assert action_smallest >= 4, f"action smallest in only {action_smallest}/6"


def test_08_coarse_action_beats_fine_grained(sweep_rows):
    wins = 0
    for i, rows in sweep_rows.items():
        hv = scene_hypervolumes(rows)
        wins += hv["action"] >= hv["action2"]
    assert wins >= 4, f"action >= action2 in only {wins}/6 scenes"


# ------------------------------------------------------------
# 9: per-step comparison footprints
# ------------------------------------------------------------


def test_09_memory_footprint_ordering():
    action = comparison_memory_cost("action", 15, 10)
    state = comparison_memory_cost("state", 15, 10)
    knowledge = comparison_memory_cost("knowledge", 15, 10)
    assert action < state < knowledge
    assert knowledge == 2 * 105  # 105 drone-pair edges per world at 15 drones
    assert comparison_memory_cost("knowledge", 15, 10) > 2 * comparison_memory_cost(
        "knowledge", 10, 20)


# ------------------------------------------------------------
# 10: the oracle-backed property suites
# ------------------------------------------------------------


def test_10_property_suites_hold():
    import test_agent
    import test_analysis
    import test_equivalence

    test_equivalence.test_euclidean_metric_axioms()
    test_equivalence.test_state_deviation_single_coordinate()
    test_equivalence.test_state_deviation_two_displaced_entities()

    test_equivalence.test_coarse_deviation_identity_and_extremes()
    test_equivalence.test_fine_range_and_symmetry()
    test_equivalence.test_fine_self_zero_for_full_fan_out()

    # every pairing of the four action kinds
    walk, follow = test_equivalence.walk, test_equivalence.follow
    notify, respond = test_equivalence.notify, test_equivalence.respond
    test_equivalence.test_fine_both_random_walk()
    test_equivalence.test_fine_both_follow()
    test_equivalence.test_fine_both_respond()
    test_equivalence.test_fine_both_notify()
    test_equivalence.test_fine_follow_vs_notify()
    for a, b in [
        (walk(), follow(4)),
        (walk(), notify(4, {1})),
        (walk(), respond(4, 1)),
        (follow(4), respond(4, 1)),
        (notify(4, {1}), respond(4, 1)),
    ]:
        test_equivalence.test_fine_remaining_pairings_cost_one(a, b)

    test_agent.test_evolve_weights_stay_under_pheromone_bound()

    test_analysis.test_pareto_front_matches_brute_force_on_random_sets()
    test_analysis.test_hypervolume_matches_grid_oracle_on_random_fronts()
