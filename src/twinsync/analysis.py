"""Run scoring: utility deviation, Pareto fronts, hypervolume, memory cost."""

from __future__ import annotations

import warnings
from typing import Iterable, NamedTuple, Sequence


class SolutionPoint(NamedTuple):
    """One run's outcome: (avg utility deviation, update count), both minimized."""

    dev: float
    upd: float


def left_sum(values: Iterable[float]) -> float:
    """Add floats strictly left to right, starting from 0.0.

    Builtin sum() compensates float rounding from Python 3.12 on, so its
    last bits depend on the interpreter version; output CSVs must not.
    """
    total = 0.0
    for v in values:
        total += v
    return total


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


def normalize_solutions(
    points: Iterable[SolutionPoint], baseline_dev: float, max_updates: float
) -> list[SolutionPoint]:
    """Scale deviations by the no-update baseline and counts by the worst case."""
    if not (baseline_dev > 0):
        raise ValueError(f"baseline deviation must be positive, got {baseline_dev}")
    if not (max_updates > 0):
        raise ValueError(f"max updates must be positive, got {max_updates}")
    return [SolutionPoint(p.dev / baseline_dev, p.upd / max_updates) for p in points]


# Per-record payload sizes for the fine-grained comparison, by action kind:
# follow carries its object id, notify adds the k-1 recipients, respond
# carries responder and object, a random walk carries nothing.
_ACTION2_DETAIL = {
    "follow": lambda k: 1,
    "notify_and_follow": lambda k: 1 + (k - 1),
    "respond_and_follow": lambda k: 2,
    "random_walk": lambda k: 0,
}


def comparison_memory_cost(
    method: str,
    m: int,
    n_obj: int,
    *,
    k: int | None = None,
    step_kinds: tuple[Iterable[str], Iterable[str]] | None = None,
) -> float:
    """Scalars a checker must retain per step, counting both worlds.

    knowledge: every unordered drone-pair weight, twice (2 * m(m-1)/2).
    state: object and drone coordinates, twice (2 * 2(m + n_obj)).
    action: one kind header per drone, twice.
    action2: headers plus per-kind detail for the step's actual action mix,
    which is why it needs k and the two worlds' kind sequences.
    TwinRunConfig checks m >= 2, n_obj >= 1 and action2's k >= 2.
    """
    if method == "knowledge":
        return float(m * (m - 1))
    if method == "state":
        return float(4 * (m + n_obj))
    if method == "action":
        return float(2 * m)
    if method == "action2":
        total = 0
        for kinds in step_kinds:
            for kind in kinds:
                total += 1 + _ACTION2_DETAIL[kind](k)
        return float(total)
    raise ValueError(f"unknown comparison method {method!r}")
