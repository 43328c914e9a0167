#!/usr/bin/env python3
"""Self-tests for the benchmark's oracles: the trigger-rule replay, the
dominance filter and the exact hypervolume.

Each oracle must accept a small hand-made input and reject a corrupted copy
of it, so a wrong oracle cannot pass a wrong program. run.py runs these
before every benchmark run; `python3 bench/selftest.py` runs them alone.
"""

from __future__ import annotations

import sys

import oracles

# theta = 1: step 1 fires on 0.5 + 0.7; step 2 starts a fresh window after
# the resync; step 3 fires on 0.1 + 3.0; step 4 starts fresh again.
METRICS = [0.5, 0.7, 0.1, 3.0, 0.2]
FLAGS = [False, True, False, True, False]
# The same values judged without restarting the window at each resync.
FLAGS_NO_RESTART = [False, True, False, True, True]

POINTS = [(0.1, 0.9), (0.2, 0.5), (0.3, 0.6), (0.5, 0.1), (0.5, 0.1), (0.9, 0.9)]
ON_FRONT = [1, 1, 0, 1, 1, 0]

# Two boxes of 0.8 x 0.4 overlapping in a 0.4 x 0.4 square.
HV_POINTS = [(0.2, 0.6), (0.6, 0.2)]
HV_AREA = 0.48


def failures() -> list[str]:
    found = []

    def accepts(name, errors):
        if errors:
            found.append(f"{name} rejects a correct input: {errors[0]}")

    def rejects(name, errors):
        if not errors:
            found.append(f"{name} accepts a corrupted input")

    accepts("trigger replay", oracles.replay_triggers(METRICS, FLAGS, 1.0))
    flipped = list(FLAGS)
    flipped[2] = not flipped[2]
    rejects("trigger replay (one flipped flag)", oracles.replay_triggers(METRICS, flipped, 1.0))
    rejects("trigger replay (no window restart)",
            oracles.replay_triggers(METRICS, FLAGS_NO_RESTART, 1.0))

    accepts("dominance filter", oracles.check_front_flags(POINTS, ON_FRONT))
    flipped_flags = list(ON_FRONT)
    flipped_flags[2] = 1 - flipped_flags[2]
    rejects("dominance filter (one flipped flag)",
            oracles.check_front_flags(POINTS, flipped_flags))
    moved = list(POINTS)
    moved[1] = (0.35, 0.5)  # no longer dominates (0.3, 0.6), which joins the front
    rejects("dominance filter (one moved front point)",
            oracles.check_front_flags(moved, ON_FRONT))

    accepts("exact hypervolume", oracles.check_hypervolume(HV_POINTS, HV_AREA))
    accepts("exact hypervolume (one point)", oracles.check_hypervolume([(0.5, 0.5)], 0.25))
    accepts("exact hypervolume (dominated point)",
            oracles.check_hypervolume(HV_POINTS + [(0.7, 0.7)], HV_AREA))
    rejects("exact hypervolume (one moved front point)",
            oracles.check_hypervolume([(0.25, 0.6), (0.6, 0.2)], HV_AREA))
    return found


if __name__ == "__main__":
    problems = failures()
    for p in problems:
        print(f"FAIL {p}")
    print("oracle self-tests:", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)
