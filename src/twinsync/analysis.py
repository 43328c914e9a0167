"""Run scoring: utility deviation, Pareto fronts, hypervolume, memory cost."""

from __future__ import annotations

import warnings
from typing import Iterable, NamedTuple, Sequence

from .equivalence import CHECKERS, left_sum


class SolutionPoint(NamedTuple):
    """One run's outcome: (avg utility deviation, update count), both minimized."""

    dev: float
    upd: float


def avg_utility_deviation(u_physical: Sequence[float], u_twin: Sequence[float]) -> float:
    """Mean absolute gap between the two worlds' utility traces."""
    if len(u_physical) != len(u_twin):
        raise ValueError(
            f"utility traces differ in length: {len(u_physical)} vs {len(u_twin)}"
        )
    if not u_physical:
        raise ValueError("utility traces are empty")
    return left_sum(abs(a - b) for a, b in zip(u_physical, u_twin)) / len(u_physical)


def dominates(a: SolutionPoint, b: SolutionPoint) -> bool:
    """True when a is at least as good on both axes and strictly better on one."""
    return a.dev <= b.dev and a.upd <= b.upd and (a.dev < b.dev or a.upd < b.upd)


def pareto_front(points: Iterable[SolutionPoint]) -> list[SolutionPoint]:
    """Non-dominated subset, deduplicated, ascending by deviation.

    Sort-and-scan: after sorting by (dev, upd), a point is on the front iff
    its update count beats every earlier one.
    """
    unique = sorted({(p.dev, p.upd) for p in points})
    front: list[SolutionPoint] = []
    best_upd = float("inf")
    for dev, upd in unique:
        if upd < best_upd:
            front.append(SolutionPoint(dev, upd))
            best_upd = upd
    return front


# The reference corner: normalized deviation and update count both at 1.
_REF = (1.0, 1.0)


def hypervolume2d(points: Iterable[SolutionPoint]) -> float:
    """Area dominated between the points and the reference corner.

    Points beyond the reference on either axis cannot contribute and are
    dropped with a warning. Computed as the sum of vertical strips between
    consecutive front points.
    """
    ref_dev, ref_upd = _REF
    points = list(points)
    inside = [p for p in points if p.dev <= ref_dev and p.upd <= ref_upd]
    dropped = len(points) - len(inside)
    if dropped:
        warnings.warn(
            f"{dropped} point(s) beyond the reference {_REF} contribute no hypervolume",
            stacklevel=2,
        )
    front = pareto_front(inside)
    total = 0.0
    for i, p in enumerate(front):
        next_dev = front[i + 1].dev if i + 1 < len(front) else ref_dev
        total += (next_dev - p.dev) * (ref_upd - p.upd)
    return total


def comparison_memory_cost(method: str, m: int, n_obj: int, *, k: int | None = None,
                           step_kinds: tuple[Iterable[str], Iterable[str]] = ((), ())) -> float:
    """Scalars a checker must retain per step: its row's payload of each world.

    `step_kinds` holds the two worlds' action kinds, which only action2's
    payload reads, with k. TwinRunConfig checks m >= 2 and n_obj >= 1.
    """
    if method not in CHECKERS:
        raise ValueError(f"unknown comparison method {method!r}")
    payload = CHECKERS[method].payload
    physical, twin = step_kinds
    return float(payload(m, n_obj, k, physical) + payload(m, n_obj, k, twin))
