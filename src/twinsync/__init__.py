"""Lockstep digital-twin simulator for k-coverage drone swarms.

A "physical" world (with injected threats) and its twin advance step by
step in one process; pluggable checkers watch for divergence and trigger
twin resynchronization. The analysis layer scores runs on the deviation
versus update-count trade-off.
"""

from .analysis import (
    SolutionPoint,
    avg_utility_deviation,
    comparison_memory_cost,
    dominates,
    hypervolume2d,
    normalize_solutions,
    pareto_front,
)
from .agent import (
    Decision,
    build_perceptions,
    decide,
    evolve_knowledge,
    select_notify_targets,
    select_response,
)
from .equivalence import (
    CHECKER_NAMES,
    CheckerHistory,
    coarse_action_deviation,
    drift,
    fine_action_deviation,
    get_checker,
    knowledge_vector,
    mean_fine_action_deviation,
    state_deviation,
    state_vector,
    windowed_check,
)
from .harness import (
    CONDITIONS,
    STRATEGIES,
    Snapshot,
    StrategyStudyConfig,
    StrategyStudyResult,
    ThreatConfig,
    Trace,
    TwinRunConfig,
    apply_update,
    run_paired,
    run_strategy_study,
    sense_snapshot,
)
from .model import (
    ActionKind,
    ActionRecord,
    DroneState,
    Message,
    ObjectState,
    SceneSpec,
    Vec2,
    WorldParams,
    WorldState,
    load_scene,
    save_scene,
    validate_scene,
)
from .worldsim import (
    coverage_map,
    move_object,
    move_point_toward,
    step_world,
    toggle_importance,
    utility_k,
)

__version__ = "0.1.0"
