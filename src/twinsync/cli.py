"""Command-line front end: scene generation, runs, sweeps, studies, Pareto reports.

Usage:
    twinsync gen-scene --drones 5 --objects 10 --seed 101 --out scene1.json
    twinsync run --scene scene1.json --condition I --checker knowledge --theta 2.0
    twinsync sweep --scene scene1.json --condition I --checkers knowledge,state \
        --thetas 0,0.5,1,2,inf --repeats 5 --out solutions.csv
    twinsync strategy-study --scene scene6.json --condition I --out study.csv
    twinsync pareto --input solutions.csv --out pareto.csv

Every subcommand is deterministic given its seed flags. Exit codes: 0 ok,
1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import concurrent.futures  # loads ProcessPoolExecutor's modules only when a sweep pools
import csv
import math
import os
import statistics
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

from .analysis import (
    SolutionPoint,
    hypervolume2d,
    left_sum,
    normalize_solutions,
    pareto_front,
)
from .equivalence import CHECKER_NAMES
from .harness import (
    CONDITIONS,
    STRATEGIES,
    STREAM_SCENE,
    ConfigError,
    StrategyStudyConfig,
    Trace,
    TwinRunConfig,
    derive_rng,
    run_paired,
    run_strategy_study,
)
from .model import (
    NUMBER,
    SCENE_PARAMETERS,
    SceneDrone,
    SceneObject,
    SceneSpec,
    load_scene,
    parameter_violations,
    save_scene,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class UsageError(Exception):
    """Bad flag combinations or semantically invalid inputs; exits 1."""


# ============================================================
# Scene generation
# ============================================================


def generate_scene(params: SceneSpec, n_drones: int, n_objects: int, seed: int) -> SceneSpec:
    """`params` with drones and objects placed uniformly at random; deterministic per seed.

    Object headings are drawn from the four axis directions and importance
    is a fair coin. Draw order (drones first, then objects, coordinates
    before attributes) is part of the determinism contract. Parameters are
    checked before anything is drawn, and every bad one is named.
    """
    bad = parameter_violations(params)
    if n_drones < 2:  # knowledge is an edge between two drones
        bad.append(f"drones must be >= 2, got {n_drones}")
    if n_objects < 1:
        bad.append(f"objects must be >= 1, got {n_objects}")
    if seed < 0:
        bad.append(f"seed must be >= 0, got {seed}")
    if bad:
        raise ValueError("; ".join(bad))
    width, height = params.bounds
    rng = derive_rng(seed, STREAM_SCENE)
    drones = tuple(
        SceneDrone(i, float(rng.uniform(0.0, width)), float(rng.uniform(0.0, height)))
        for i in range(n_drones)
    )
    objects = tuple(
        SceneObject(
            i,
            float(rng.uniform(0.0, width)),
            float(rng.uniform(0.0, height)),
            float(rng.integers(4) * 90),
            bool(rng.integers(2)),
        )
        for i in range(n_objects)
    )
    return replace(params, drones=drones, objects=objects)


# ============================================================
# Argument plumbing
# ============================================================


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# Flags whose value may start with "-" (theta = -1 forces an update at every
# check). argparse reads a token like "-1,inf" as an option, so main joins
# such a value to its flag ("--thetas=-1,inf") before parsing.
_DASH_VALUE_FLAGS = ("--theta", "--thetas")


def _join_dash_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _DASH_VALUE_FLAGS and token.startswith("-"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


# gen-scene's (default, help) per world parameter, by SceneSpec field.
_SCENE_DEFAULTS = {
    "width": (50.0, "arena width"),
    "height": (50.0, "arena height"),
    "k": (2, "coverage requirement"),
    "sensing_range": (10.0, "sensing radius"),
    "gamma": (0.9, "edge evaporation factor"),
    "delta": (1.0, "edge reinforcement"),
    "importance_period": (30, "steps between importance flips"),
}


def _flag(field: str) -> str:
    return "--" + field.replace("_", "-")


def _config_flags(p: argparse.ArgumentParser, config_type, specs: dict) -> None:
    """One flag per config field, named after it and defaulting to its default."""
    defaults = {f.name: f.default for f in fields(config_type)}
    for field, (help_text, kwargs) in specs.items():
        p.add_argument(_flag(field), default=defaults[field],
                       help=f"{help_text} (default: %(default)s)", **kwargs)


_RUN_FLAGS = {
    "condition": ("threat condition", {"choices": sorted(CONDITIONS)}),
    "q": ("checking interval", {"type": int}),
    "l": ("window: a check at t sums the l + 1 steps t - l to t", {"type": int}),
    "steps": ("simulation steps", {"type": int}),
    "seed": ("physical-side seed; a divergent twin's choices use seed + 1", {"type": int}),
}

_STUDY_FLAGS = {
    "condition": ("threat condition", {"choices": sorted(CONDITIONS)}),
    "samples": ("sampled start times per repeat", {"type": int}),
    "repeats": ("physical trajectories", {"type": int}),
    "seed": ("study seed", {"type": int}),
    "accumulation": ("steps the clone drifts before the update", {"type": int}),
    "evaluation": ("steps scored after the update", {"type": int}),
    "start_min": ("earliest start time", {"type": int}),
    "start_max": ("latest start time", {"type": int}),
    "horizon": ("last step any episode may reach", {"type": int}),
}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scene", required=True, help="scene JSON file")
    _config_flags(p, TwinRunConfig, _RUN_FLAGS)


@contextmanager
def _naming_flags(**flags: str):
    """Turn a bad config field into a usage error naming its flag.

    A field's flag is its name in dashes unless `flags` maps it elsewhere.
    """
    try:
        yield
    except ConfigError as exc:
        raise UsageError(f"{flags.get(exc.field, _flag(exc.field))} {exc.problem}") from exc


def _load_scene_for(args) -> tuple[SceneSpec, str]:
    path = Path(args.scene)
    try:
        scene = load_scene(path)
    except OSError as exc:
        raise UsageError(f"cannot read scene file: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return scene, path.stem


def _check_paths(args) -> None:
    """Each output goes into an existing directory, and to no input or other output."""
    taken = {Path(getattr(args, field)).resolve(): field for field in args.inputs}
    for field in args.outputs:
        path = Path(getattr(args, field)).resolve()
        if not path.parent.is_dir():
            raise UsageError(f"{_flag(field)} {getattr(args, field)}: no such directory")
        if path in taken:
            raise UsageError(f"{_flag(field)} is the same file as {_flag(taken[path])}")
        taken[path] = field


def _pool_size(jobs: int, n_work: int) -> int:
    """Sweep worker processes: never more than the runs or the cores."""
    return min(jobs, n_work, os.cpu_count() or 1)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# The solutions CSV: one summary row per paired run, written by run and
# sweep and read by pareto. Floats are written with repr, so they read back
# exactly.
SUMMARY_HEADER = (
    "scene",
    "condition",
    "checker",
    "theta",
    "q",
    "l",
    "seed",
    "repeat",
    "updates",
    "avg_utility_deviation",
    "memory_cost",
)


def summary_row(config: TwinRunConfig, trace: Trace, repeat: int) -> tuple:
    return (
        config.scene_name,
        config.condition,
        config.checker,
        repr(config.theta),
        config.q,
        config.l,
        config.seed,
        repeat,
        trace.updates,
        repr(trace.avg_utility_deviation()),
        repr(trace.memory_cost),
    )


# ============================================================
# Subcommands
# ============================================================


def _cmd_gen_scene(args) -> int:
    params = SceneSpec(**{f: getattr(args, f) for f in _SCENE_DEFAULTS}, drones=(), objects=())
    try:
        scene = generate_scene(params, args.drones, args.objects, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    save_scene(scene, args.out)
    print(f"wrote {args.out}: {args.drones} drones, {args.objects} objects, seed {args.seed}")
    return EXIT_OK


def _run_config(args, scene: SceneSpec, name: str, **per_run) -> TwinRunConfig:
    """The run flags as a config; `per_run` adds the checker and theta, or overrides."""
    flags = {field: getattr(args, field) for field in _RUN_FLAGS}
    return TwinRunConfig(scene=scene, scene_name=name, **(flags | per_run))


def _cmd_run(args) -> int:
    scene, name = _load_scene_for(args)
    with _naming_flags():
        config = _run_config(args, scene, name, checker=args.checker, theta=args.theta)
    trace = run_paired(config)
    columns = zip(trace.u_physical, trace.u_twin, trace.metric_values, trace.updated)
    _write_csv(args.trace, ("t", "u_physical", "u_twin", "metric_value", "updated"),
               ((t, repr(up), repr(ut), repr(mv), int(upd))
                for t, (up, ut, mv, upd) in enumerate(columns)))
    row = summary_row(config, trace, repeat=0)
    _write_csv(args.summary, SUMMARY_HEADER, [row])
    print(",".join(str(v) for v in row))
    return EXIT_OK


def _sweep_worker(work: tuple[TwinRunConfig, int]) -> tuple:
    config, repeat = work
    return summary_row(config, run_paired(config), repeat)


def _cmd_sweep(args) -> int:
    scene, name = _load_scene_for(args)
    checkers = [c.strip() for c in args.checkers.split(",") if c.strip()]
    try:
        thetas = [float(x) for x in args.thetas.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"--thetas must list numbers: {exc}") from exc
    if not checkers or not thetas:
        raise UsageError("need at least one checker and one theta")
    for flag, values in (("--checkers", checkers), ("--thetas", thetas)):
        for i, value in enumerate(values):
            if value in values[:i]:
                raise UsageError(f"{flag} lists {value!r} twice")
    if args.repeats < 1:
        raise UsageError(f"--repeats must be >= 1, got {args.repeats}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")

    # every config is built, and so checked, before the first run starts
    with _naming_flags(checker="--checkers", theta="--thetas"):
        work = [
            (_run_config(args, scene, name, checker=checker, theta=theta,
                         seed=args.seed + repeat), repeat)
            for checker in checkers
            for theta in thetas
            for repeat in range(args.repeats)
        ]
    processes = _pool_size(args.jobs, len(work))
    if processes > 1:
        # map keeps submission order and hands out one run at a time; a dead
        # worker raises BrokenProcessPool rather than hanging
        with concurrent.futures.ProcessPoolExecutor(max_workers=processes) as pool:
            rows = list(pool.map(_sweep_worker, work))
    else:
        rows = [_sweep_worker(item) for item in work]
    _write_csv(args.out, SUMMARY_HEADER, rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return EXIT_OK


def _cmd_strategy_study(args) -> int:
    scene, name = _load_scene_for(args)
    with _naming_flags():
        config = StrategyStudyConfig(scene=scene, scene_name=name,
                                     **{field: getattr(args, field) for field in _STUDY_FLAGS})
    result = run_strategy_study(config)
    rows = []
    for strategy in STRATEGIES:
        values = result.deviations[strategy]
        stdev = statistics.stdev(values) if len(values) > 1 else 0.0
        rows.append((name, args.condition, strategy, len(values),
                     repr(statistics.fmean(values)), repr(stdev)))
    _write_csv(args.out, ("scene", "condition", "strategy", "n", "mean_dev", "stdev_dev"),
               rows)
    for row in rows:
        print(",".join(str(v) for v in row))
    return EXIT_OK


_SOLUTION_NUMBERS = ("theta", "updates", "avg_utility_deviation")


def _read_solutions(path: str) -> list[tuple[dict, float, SolutionPoint]]:
    """Each solutions row with its theta and its (deviation, updates) point.

    A value that is not a number, an update count that is not an integer
    >= 0, or a deviation that is not finite and >= 0 is a usage error
    naming the file, the row (the header is row 1) and the column. theta may
    be any number, -1 and inf included.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise UsageError(f"cannot read solutions file: {exc}") from exc
    if not rows:
        raise UsageError(f"no rows in {path}")
    missing = set(SUMMARY_HEADER) - set(rows[0])
    if missing:
        raise UsageError(f"{path} lacks columns: {', '.join(sorted(missing))}")
    parsed = []
    for number, row in enumerate(rows, start=2):
        values = {}
        for column in _SOLUTION_NUMBERS:
            try:
                values[column] = float(row[column])
            except (TypeError, ValueError):  # a short row leaves None
                raise UsageError(f"{path} row {number}: {column} must be a number, "
                                 f"got {row[column]!r}") from None
        updates, dev = values["updates"], values["avg_utility_deviation"]
        if not (updates >= 0 and updates.is_integer()):
            raise UsageError(f"{path} row {number}: updates must be an integer >= 0, "
                             f"got {row['updates']!r}")
        if not 0 <= dev < math.inf:  # NaN fails too
            raise UsageError(f"{path} row {number}: avg_utility_deviation must be finite "
                             f"and >= 0, got {row['avg_utility_deviation']!r}")
        parsed.append((row, values["theta"], SolutionPoint(dev, updates)))
    return parsed


def _cmd_pareto(args) -> int:
    if not (math.isfinite(args.max_updates) and args.max_updates > 0):
        raise UsageError(f"--max-updates must be finite and > 0, got {args.max_updates}")
    rows = _read_solutions(args.input)
    if args.scene is not None:
        rows = [r for r in rows if r[0]["scene"] == args.scene]
    if args.condition is not None:
        rows = [r for r in rows if r[0]["condition"] == args.condition]
    if not rows:
        raise UsageError("no rows left after filtering")
    groups = {(r["scene"], r["condition"]) for r, _, _ in rows}
    if len(groups) > 1:
        listing = "; ".join(f"{s}/{c}" for s, c in sorted(groups))
        raise UsageError(
            f"solutions span multiple scene/condition groups ({listing}); "
            "filter with --scene/--condition"
        )

    baseline_devs = [p.dev for _, theta, p in rows if math.isinf(theta)]
    if not baseline_devs:
        raise UsageError("no theta=inf baseline rows; sweep must include theta inf")
    baseline = left_sum(baseline_devs) / len(baseline_devs)
    if not baseline > 0:
        raise UsageError("baseline avg_utility_deviation (mean of the theta=inf rows) "
                         f"must be > 0, got {baseline!r}")

    out_rows: list[tuple] = []
    hv_rows: list[tuple] = []
    excluded = 0
    for checker in sorted({r["checker"] for r, _, _ in rows}):
        mine = [(r, p) for r, _, p in rows if r["checker"] == checker]
        norm = normalize_solutions([p for _, p in mine], baseline, args.max_updates)
        front = set(pareto_front(norm))
        boxed = [p for p in norm if p.dev <= 1.0 and p.upd <= 1.0]
        excluded += len(norm) - len(boxed)
        out_rows += [(checker, r["theta"], repr(p.dev), repr(p.upd), int(p in front))
                     for (r, _), p in zip(mine, norm)]
        hv_rows.append(("hypervolume", checker, repr(hypervolume2d(boxed))))

    _write_csv(args.out, ("checker", "theta", "dev_norm", "upd_norm", "on_front"),
               out_rows + hv_rows)
    if excluded:
        print(f"note: {excluded} point(s) fell outside the reference box", file=sys.stderr)
    for _, checker, hv in hv_rows:
        print(f"hypervolume,{checker},{hv}")
    return EXIT_OK


# ============================================================
# Parser wiring
# ============================================================


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="twinsync", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    shown = " (default: %(default)s)"

    p = sub.add_parser("gen-scene", help="generate a random scene file")
    p.add_argument("--drones", type=int, required=True)
    p.add_argument("--objects", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="placement seed" + shown)
    for key, field, kind, _ in SCENE_PARAMETERS:
        default, help_text = _SCENE_DEFAULTS[field]
        p.add_argument(_flag(key), dest=field, type=float if kind == NUMBER else int,
                       default=default, help=help_text + shown)
    p.add_argument("--out", required=True, help="output scene JSON path")
    p.set_defaults(func=_cmd_gen_scene, inputs=(), outputs=("out",))

    p = sub.add_parser("run", help="one paired run; writes trace and summary CSVs")
    _add_run_flags(p)
    _config_flags(p, TwinRunConfig, {
        "checker": ("equivalence checker", {"choices": CHECKER_NAMES}),
        "theta": ("window-sum threshold; inf never updates, -1 forces updates",
                  {"type": float}),
    })
    p.add_argument("--trace", default="trace.csv", help="trace CSV path" + shown)
    p.add_argument("--summary", default="summary.csv", help="summary CSV path" + shown)
    p.set_defaults(func=_cmd_run, inputs=("scene",), outputs=("trace", "summary"))

    p = sub.add_parser("sweep", help="threshold sweep; one summary row per (checker, theta, repeat)")
    _add_run_flags(p)
    p.add_argument("--checkers", default=",".join(CHECKER_NAMES),
                   help="comma-separated checker list" + shown)
    p.add_argument("--thetas", required=True, help="comma-separated threshold list (inf allowed)")
    p.add_argument("--repeats", type=int, default=5,
                   help="repeats per theta, at seeds seed, seed + 1, ..." + shown)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes, at most one per run and core" + shown)
    p.add_argument("--out", default="solutions.csv", help="solutions CSV path" + shown)
    p.set_defaults(func=_cmd_sweep, inputs=("scene",), outputs=("out",))

    p = sub.add_parser("strategy-study", help="compare update strategies on sampled drift episodes")
    p.add_argument("--scene", required=True, help="scene JSON file")
    _config_flags(p, StrategyStudyConfig, _STUDY_FLAGS)
    p.add_argument("--out", default="study.csv", help="study CSV path" + shown)
    p.set_defaults(func=_cmd_strategy_study, inputs=("scene",), outputs=("out",))

    p = sub.add_parser("pareto", help="normalize solutions, mark the front, report hypervolume")
    p.add_argument("--input", required=True, help="solutions CSV from sweep")
    p.add_argument("--scene", default=None, help="filter rows to one scene name")
    p.add_argument("--condition", default=None, help="filter rows to one condition")
    p.add_argument("--max-updates", type=float, default=1000.0,
                   help="update-count normalizer" + shown)
    p.add_argument("--out", default="pareto.csv", help="Pareto CSV path" + shown)
    # --scene is a row filter here, not a file
    p.set_defaults(func=_cmd_pareto, inputs=("input",), outputs=("out",))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        _check_paths(args)
        return args.func(args)
    except UsageError as exc:
        print(f"twinsync: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failures exit 2 with a message
        print(f"twinsync: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
