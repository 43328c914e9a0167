"""Outside-in tracing: wrap twinsync's public functions from the benchmark.

The modules import each other's functions by name (worldsim holds its own
reference to agent.decide, harness to worldsim.step_world, cli to
harness.run_paired), so a wrapper is bound under every module attribute that
holds the original function, or calls go around it. The checker lambdas in
equivalence.CHECKERS look names up in equivalence's globals at call time, so
they reach the wrappers too.

Each wrapper records a call count and self time: the span's duration minus
the part its child spans cover. Spans stay in memory as per-function totals.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, qualified name) of every wrapped function, by layer.
WRAPPED = {
    "model": ("load_scene", "SceneSpec.build_world"),
    "agent": ("build_perceptions", "decide", "evolve_knowledge"),
    "worldsim": ("step_world", "utility_k", "coverage_map"),
    "equivalence": (
        "knowledge_vector",
        "state_vector",
        "drift",
        "state_deviation",
        "coarse_action_deviation",
        "mean_fine_action_deviation",
        "windowed_check",
    ),
    "harness": ("run_paired", "run_strategy_study", "sense_snapshot", "apply_update",
                "agent_streams"),
    "analysis": ("avg_utility_deviation", "comparison_memory_cost", "pareto_front",
                 "hypervolume2d"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{name}" for mod, names in WRAPPED.items() for name in names)

# The per-pair metric of each checker; their calls count metric evaluations.
METRIC_SPANS = (
    "equivalence.drift",
    "equivalence.state_deviation",
    "equivalence.coarse_action_deviation",
    "equivalence.mean_fine_action_deviation",
)


class Tracer:
    """Per-function call counts and self times, plus windowed-check outcomes."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.checks = 0  # windowed checks on the q-grid
        self.triggers = 0
        self._children: list[float] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn):
        calls, self_s, children = self.calls, self.self_s, self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_s[span] += duration - children.pop()
                calls[span] += 1
                if children:
                    children[-1] += duration

        if span == "equivalence.windowed_check":
            timed = wrapper

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                outcome = timed(*args, **kwargs)
                if outcome.value is not None:
                    self.checks += 1
                    self.triggers += bool(outcome.triggered)
                return outcome

        return wrapper

    def install(self) -> None:
        """Bind a wrapper wherever a twinsync module holds a wrapped function."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "twinsync" or name.startswith("twinsync."))]
        for mod_name, names in WRAPPED.items():
            home = sys.modules[f"twinsync.{mod_name}"]
            for name in names:
                span = f"{mod_name}.{name}"
                if "." in name:  # a method: patch the class attribute
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._undo.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(span, original))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(span, original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
