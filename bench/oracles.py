"""Output checks computed apart from twinsync.

Each check takes plain values (lists, floats, CSV rows) and returns a list of
error strings; an empty list means the output passed. Nothing here imports
twinsync, so a fault in the program cannot also hide in its oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Naive left-to-right sums and math.fsum differ in the last bits over 1000
# steps (measured about 1e-17), so sums are compared within this tolerance.
SUM_TOL = 1e-12


def replay_triggers(metric_values, updated, theta):
    """Check the window rule at q = l = 1 against a run's trace.

    Step t resyncs iff metric_values[t] exceeds theta, where
    metric_values[t-1] is added first when t >= 1 and step t-1 did not
    resync: a resync restarts the window.
    """
    if len(metric_values) != len(updated):
        return [f"trace lengths differ: {len(metric_values)} metric values, "
                f"{len(updated)} flags"]
    errors = []
    for t, value in enumerate(metric_values):
        total = 0.0
        if t >= 1 and not updated[t - 1]:
            total += metric_values[t - 1]
        total += value
        if (total > theta) != bool(updated[t]):
            errors.append(f"step {t}: window sum {total!r} vs theta {theta!r} "
                          f"but updated={bool(updated[t])}")
            if len(errors) >= 5:
                break
    return errors


def check_resync_utilities(u_physical, u_twin, updated):
    """An exact snapshot leaves both worlds with the same utility at a resync."""
    return [f"step {t}: resynced twin utility {u_twin[t]!r} != {u_physical[t]!r}"
            for t, up in enumerate(updated) if up and u_twin[t] != u_physical[t]][:5]


def check_mean_abs_gap(u_physical, u_twin, reported):
    """The reported deviation is the mean |u - u'|, summed exactly with fsum."""
    expected = math.fsum(abs(a - b) for a, b in zip(u_physical, u_twin)) / len(u_physical)
    if abs(expected - reported) > SUM_TOL:
        return [f"avg deviation {reported!r}, fsum mean {expected!r}"]
    return []


def check_utility_grid(values, n_objects, what="utility"):
    """Every utility is a multiple of 1/n_objects in [0, 1]."""
    errors = []
    for t, u in enumerate(values):
        scaled = u * n_objects
        if not (0.0 <= u <= 1.0) or abs(scaled - round(scaled)) > 1e-9:
            errors.append(f"{what}[{t}] = {u!r} is not a multiple of 1/{n_objects} in [0, 1]")
            if len(errors) >= 5:
                break
    return errors


def dominates(a, b):
    """a is no worse on both axes and better on one; both axes are minimized."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def front_flags(points):
    """O(n^2) dominance filter: 1 for every point no other point dominates."""
    return [int(not any(dominates(q, p) for q in points)) for p in points]


def check_front_flags(points, flags):
    expected = front_flags(points)
    return [f"point {p!r}: on_front={f}, dominance filter says {e}"
            for p, f, e in zip(points, flags, expected) if f != e]


def rectangle_union_area(points, ref=(1.0, 1.0)):
    """Exact area of the union of the boxes [x, ref_x] x [y, ref_y].

    Coordinates are compressed into a grid of cells; a cell counts when some
    point's box contains it. Fractions keep every product exact.
    """
    rx, ry = Fraction(ref[0]), Fraction(ref[1])
    pts = [(Fraction(x), Fraction(y)) for x, y in points if x <= ref[0] and y <= ref[1]]
    xs = sorted({x for x, _ in pts} | {rx})
    ys = sorted({y for _, y in pts} | {ry})
    area = Fraction(0)
    for x0, x1 in zip(xs, xs[1:]):
        for y0, y1 in zip(ys, ys[1:]):
            if any(px <= x0 and py <= y0 for px, py in pts):
                area += (x1 - x0) * (y1 - y0)
    return area


def check_hypervolume(points, reported, ref=(1.0, 1.0)):
    exact = rectangle_union_area(points, ref)
    if abs(Fraction(reported) - exact) > Fraction(1, 10**12):
        return [f"hypervolume {reported!r}, exact union area {float(exact)!r}"]
    return []


def check_action2_memory(mean_cost, m, k, steps):
    """action2 keeps 1 + detail scalars per drone per world on every step after
    the first (no actions exist yet at step 0); detail is 0 for a walk and at
    most max(2, k) for a notify or a respond."""
    per_drone_max = 1 + max(2, k)
    lo = 2 * m * (steps - 1) / steps
    hi = 2 * m * per_drone_max * (steps - 1) / steps
    if not (lo - 1e-9 <= mean_cost <= hi + 1e-9):
        return [f"action2 memory cost {mean_cost!r} outside [{lo!r}, {hi!r}]"]
    return []
