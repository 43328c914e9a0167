"""Scoring: deviation averages, dominance, fronts, hypervolume, memory cost."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsync.analysis import (
    _ACTION2_DETAIL,
    SolutionPoint,
    avg_utility_deviation,
    comparison_memory_cost,
    dominates,
    hypervolume2d,
    normalize_solutions,
    pareto_front,
)

from twinsync.model import ActionKind

from helpers import brute_force_front, grid_hypervolume, random_fronts


# ------------------------------------------------------------
# Utility deviation
# ------------------------------------------------------------


def test_avg_deviation_identity_and_maximum():
    assert avg_utility_deviation([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert avg_utility_deviation([1.0, 1.0], [0.0, 0.0]) == 1.0


def test_avg_deviation_hand_sum():
    got = avg_utility_deviation([0.5, 0.7, 0.9], [0.5, 0.6, 0.6])
    assert got == pytest.approx(0.4 / 3)
    # summed left to right on every Python; compensated summation gives 0.1
    assert avg_utility_deviation([0.1] * 10, [0.0] * 10) == 0.09999999999999999


def test_avg_deviation_matches_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        u, v = rng.random(n).tolist(), rng.random(n).tolist()
        oracle = sum(abs(a - b) for a, b in zip(u, v)) / n
        assert avg_utility_deviation(u, v) == pytest.approx(oracle, rel=1e-12)


def test_avg_deviation_validates_input():
    with pytest.raises(ValueError, match="length"):
        avg_utility_deviation([1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="empty"):
        avg_utility_deviation([], [])


# ------------------------------------------------------------
# Dominance and fronts
# ------------------------------------------------------------


def test_dominates_cases():
    assert dominates(SolutionPoint(0.1, 0.2), SolutionPoint(0.3, 0.4))
    assert not dominates(SolutionPoint(0.1, 0.2), SolutionPoint(0.1, 0.2))
    a, b = SolutionPoint(0.1, 0.5), SolutionPoint(0.5, 0.1)
    assert not dominates(a, b) and not dominates(b, a)
    # equality on one axis with improvement on the other still dominates
    assert dominates(SolutionPoint(0.1, 0.2), SolutionPoint(0.1, 0.3))


def test_pareto_front_keeps_mutually_nondominated():
    pts = [SolutionPoint(0.1, 0.9), SolutionPoint(0.9, 0.1), SolutionPoint(0.5, 0.5)]
    assert pareto_front(pts) == sorted(pts)


def test_pareto_front_drops_dominated_and_duplicates():
    pts = [SolutionPoint(0.1, 0.1), SolutionPoint(0.2, 0.2), SolutionPoint(0.1, 0.1)]
    assert pareto_front(pts) == [SolutionPoint(0.1, 0.1)]


def test_pareto_front_collapses_equal_deviation_column():
    pts = [SolutionPoint(0.1, 0.5), SolutionPoint(0.1, 0.3), SolutionPoint(0.4, 0.2)]
    assert pareto_front(pts) == [SolutionPoint(0.1, 0.3), SolutionPoint(0.4, 0.2)]


def test_pareto_front_empty():
    assert pareto_front([]) == []


def test_pareto_front_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(0, 40))
        # snap to a coarse grid so ties and duplicates occur often
        pts = [SolutionPoint(float(x), float(y))
               for x, y in np.round(rng.random((n, 2)) * 10) / 10]
        front = pareto_front(pts)
        assert set(map(tuple, front)) == brute_force_front(pts)
        # dual direction: nothing on the front is dominated, everything
        # off the front is dominated by something on it
        unique = set(map(tuple, pts))
        front_set = set(map(tuple, front))
        for p in unique:
            sp = SolutionPoint(*p)
            on = not any(dominates(q, sp) for q in map(lambda t: SolutionPoint(*t), unique))
            assert (p in front_set) == on
        assert front == sorted(front)


# ------------------------------------------------------------
# Hypervolume
# ------------------------------------------------------------


def test_hypervolume_corner_cases():
    assert hypervolume2d([SolutionPoint(0.0, 0.0)]) == 1.0
    assert hypervolume2d([]) == 0.0


def test_hypervolume_two_point_oracle():
    pts = [SolutionPoint(0.2, 0.5), SolutionPoint(0.5, 0.2)]
    # inclusion-exclusion: 0.8*0.5 + 0.5*0.8 - 0.5*0.5
    assert hypervolume2d(pts) == pytest.approx(0.55)
    assert grid_hypervolume(pts) == pytest.approx(0.55, abs=1e-3)


def test_hypervolume_ignores_dominated_points():
    pts = [SolutionPoint(0.2, 0.5), SolutionPoint(0.5, 0.2)]
    noisy = pts + [SolutionPoint(0.6, 0.6), SolutionPoint(0.3, 0.9)]
    assert hypervolume2d(noisy) == pytest.approx(hypervolume2d(pts))


def test_hypervolume_warns_and_drops_points_beyond_reference():
    inside = [SolutionPoint(0.5, 0.5)]
    with pytest.warns(UserWarning, match="beyond the reference"):
        hv = hypervolume2d(inside + [SolutionPoint(1.5, 0.2)])
    assert hv == pytest.approx(hypervolume2d(inside))


def test_hypervolume_matches_grid_oracle_on_random_fronts():
    for pts in random_fronts(seed=23, count=50):
        assert hypervolume2d(pts) == pytest.approx(grid_hypervolume(pts), abs=1e-3)


unit_points = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
        lambda t: SolutionPoint(*t)),
    max_size=10,
)


@given(unit_points, st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
@settings(max_examples=150, deadline=None)
def test_hypervolume_monotone_under_insertion(pts, extra):
    p = SolutionPoint(*extra)
    base = hypervolume2d(pts)
    grown = hypervolume2d(pts + [p])
    assert grown >= base - 1e-12
    if any(dominates(q, p) or tuple(q) == tuple(p) for q in pts):
        assert grown == pytest.approx(base)


# ------------------------------------------------------------
# Normalization
# ------------------------------------------------------------


def test_normalize_solutions_scales_both_axes():
    pts = [SolutionPoint(0.0718, 250.0), SolutionPoint(0.0, 1000.0)]
    out = normalize_solutions(pts, baseline_dev=0.1436, max_updates=1000.0)
    assert out[0].dev == pytest.approx(0.5)
    assert out[0].upd == pytest.approx(0.25)
    assert out[1].dev == 0.0
    assert out[1].upd == pytest.approx(1.0)


def test_normalize_solutions_validates():
    with pytest.raises(ValueError, match="baseline"):
        normalize_solutions([], baseline_dev=0.0, max_updates=10.0)
    with pytest.raises(ValueError, match="max updates"):
        normalize_solutions([], baseline_dev=1.0, max_updates=0.0)


# ------------------------------------------------------------
# Memory cost
# ------------------------------------------------------------


def test_memory_cost_formulas():
    assert comparison_memory_cost("knowledge", 15, 10) == 210.0
    assert comparison_memory_cost("action", 10, 10) == 20.0
    assert comparison_memory_cost("state", 10, 20) == 120.0


def test_memory_cost_orders_methods_for_reference_shape():
    m, n = 15, 10
    action = comparison_memory_cost("action", m, n)
    state = comparison_memory_cost("state", m, n)
    knowledge = comparison_memory_cost("knowledge", m, n)
    assert action < state < knowledge


def test_memory_cost_action2_counts_actual_mix():
    cost = comparison_memory_cost(
        "action2", 2, 5, k=2,
        step_kinds=(("follow", "notify_and_follow"),
                    ("respond_and_follow", "random_walk")),
    )
    # headers 1 each + details: follow 1, notify 2, respond 2, walk 0
    assert cost == 9.0


def test_memory_cost_validates():
    # the run config checks the drone, object and k counts: see
    # test_configs_reject_an_invalid_scene and test_run_paired_validates_config
    with pytest.raises(ValueError, match="unknown comparison"):
        comparison_memory_cost("vibes", 5, 5)


def test_action2_detail_prices_every_action_kind():
    # records carry only ActionKind values, so no unknown kind reaches the table
    assert set(_ACTION2_DETAIL) == {kind.value for kind in ActionKind}
