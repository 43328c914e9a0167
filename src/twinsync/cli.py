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
import csv
import math
import os
import sys
from multiprocessing import Pool
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
    StrategyStudyConfig,
    TwinRunConfig,
    derive_rng,
    run_paired,
    run_strategy_study,
    summary_row,
    SUMMARY_HEADER,
)
from .model import (
    SceneDrone,
    SceneObject,
    SceneSpec,
    load_scene,
    save_scene,
    validate_scene,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class UsageError(Exception):
    """Bad flag combinations or semantically invalid inputs; exits 1."""


# ============================================================
# Scene generation
# ============================================================


def generate_scene(
    n_drones: int,
    n_objects: int,
    width: float = 50.0,
    height: float = 50.0,
    seed: int = 0,
    k: int = 2,
    sensing_range: float = 10.0,
    gamma: float = 0.9,
    delta: float = 1.0,
    importance_period: int = 30,
) -> SceneSpec:
    """Place drones and objects uniformly at random; deterministic per seed.

    Object headings are drawn from the four axis directions and importance
    is a fair coin. Draw order (drones first, then objects, coordinates
    before attributes) is part of the determinism contract.
    """
    if n_drones < 1 or n_objects < 1:
        raise ValueError("need at least one drone and one object")
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
    return SceneSpec(
        width=width,
        height=height,
        k=k,
        sensing_range=sensing_range,
        gamma=gamma,
        delta=delta,
        importance_period=importance_period,
        drones=drones,
        objects=objects,
    )


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


def _add_scene_overrides(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("scene parameter overrides (default: scene file values)")
    g.add_argument("--k", type=int, default=None, help="coverage requirement")
    g.add_argument("--range", type=float, default=None, dest="sensing_range",
                   help="sensing radius")
    g.add_argument("--gamma", type=float, default=None, help="edge evaporation factor")
    g.add_argument("--delta", type=float, default=None, help="edge reinforcement")
    g.add_argument("--importance-period", type=int, default=None,
                   help="steps between importance flips")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scene", required=True, help="scene JSON file")
    p.add_argument("--condition", choices=sorted(CONDITIONS), default="none",
                   help="threat condition (default: none)")
    p.add_argument("--q", type=int, default=1, help="checking interval (default: 1)")
    p.add_argument("--l", type=int, default=1, help="window length (default: 1)")
    p.add_argument("--steps", type=int, default=1000, help="simulation steps (default: 1000)")
    p.add_argument("--seed", type=int, default=0, help="physical-side seed (default: 0)")
    p.add_argument("--twin-seed", type=int, default=None,
                   help="twin-side seed under divergence (default: seed+1)")
    p.add_argument("--strategy", choices=STRATEGIES, default="update",
                   help="twin update strategy (default: update)")
    p.add_argument("--bias-mode", choices=("accumulate", "fixed"), default="accumulate",
                   help="whether the heading bias compounds (default: accumulate)")
    p.add_argument("--signed-noise", action="store_true",
                   help="draw estimation noise from [-e, e] instead of [0, e]")
    _add_scene_overrides(p)


def _load_scene_for(args) -> tuple[SceneSpec, str]:
    path = Path(args.scene)
    try:
        scene = load_scene(path)
    except OSError as exc:
        raise UsageError(f"cannot read scene file: {exc}") from exc
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    scene = scene.with_overrides(
        k=args.k,
        sensing_range=args.sensing_range,
        gamma=args.gamma,
        delta=args.delta,
        importance_period=args.importance_period,
    )
    violations = validate_scene(scene)
    if violations:
        raise UsageError("invalid scene after overrides: " + "; ".join(violations))
    return scene, path.stem


def _jobs_from(args) -> int:
    env = os.environ.get("TWINSYNC_JOBS")
    if env is not None:  # env var wins over the flag
        try:
            jobs = int(env)
        except ValueError:
            raise UsageError(f"TWINSYNC_JOBS must be an integer, got {env!r}") from None
    else:
        jobs = args.jobs
    if jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _pool_size(jobs: int, n_work: int) -> int:
    """Sweep worker processes: never more than the runs or the cores."""
    return min(jobs, n_work, os.cpu_count() or 1)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow(header)
        writer.writerows(rows)


# ============================================================
# Subcommands
# ============================================================


def _cmd_gen_scene(args) -> int:
    try:
        scene = generate_scene(
            args.drones,
            args.objects,
            width=args.width,
            height=args.height,
            seed=args.seed,
            k=args.k,
            sensing_range=args.sensing_range,
            gamma=args.gamma,
            delta=args.delta,
            importance_period=args.importance_period,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    save_scene(scene, args.out)
    print(f"wrote {args.out}: {args.drones} drones, {args.objects} objects, seed {args.seed}")
    return EXIT_OK


def _run_config(args, scene: SceneSpec, name: str, checker: str, theta: float,
                seed: int) -> TwinRunConfig:
    return TwinRunConfig(
        scene=scene,
        scene_name=name,
        condition=args.condition,
        checker=checker,
        theta=theta,
        q=args.q,
        l=args.l,
        steps=args.steps,
        seed=seed,
        twin_seed=args.twin_seed,
        strategy=args.strategy,
        bias_mode=args.bias_mode,
        signed_noise=args.signed_noise,
    )


def _validate_run_flags(args) -> None:
    if args.q < 1:
        raise UsageError(f"--q must be >= 1, got {args.q}")
    if args.l < 1:
        raise UsageError(f"--l must be >= 1, got {args.l}")
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")


def _reject_nan(thetas: list[float], flag: str) -> None:
    # NaN compares false with every window sum, so the run would never update
    if any(math.isnan(theta) for theta in thetas):
        raise UsageError(f"{flag} must not be NaN")


def _cmd_run(args) -> int:
    _validate_run_flags(args)
    _reject_nan([args.theta], "--theta")
    scene, name = _load_scene_for(args)
    if args.checker == "action2" and scene.k < 2:
        raise UsageError("checker action2 needs k >= 2")
    config = _run_config(args, scene, name, args.checker, args.theta, args.seed)
    trace = run_paired(config)
    _write_csv(args.trace, ("t", "u_physical", "u_twin", "metric_value", "updated"),
               ((t, repr(up), repr(ut), repr(mv), upd) for t, up, ut, mv, upd in trace.rows()))
    row = summary_row(trace, repeat=0)
    _write_csv(args.summary, SUMMARY_HEADER, [row])
    print(",".join(str(v) for v in row))
    return EXIT_OK


def _sweep_worker(payload) -> tuple:
    args_ns, scene, name, checker, theta, repeat = payload
    config = _run_config(args_ns, scene, name, checker, theta, args_ns.seed + repeat)
    return summary_row(run_paired(config), repeat=repeat)


def _cmd_sweep(args) -> int:
    _validate_run_flags(args)
    scene, name = _load_scene_for(args)
    checkers = [c.strip() for c in args.checkers.split(",") if c.strip()]
    for c in checkers:
        if c not in CHECKER_NAMES:
            raise UsageError(f"unknown checker {c!r}")
        if c == "action2" and scene.k < 2:
            raise UsageError("checker action2 needs k >= 2")
    try:
        thetas = [float(x) for x in args.thetas.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad theta list: {exc}") from exc
    _reject_nan(thetas, "--thetas")
    if not checkers or not thetas:
        raise UsageError("need at least one checker and one theta")
    if args.repeats < 1:
        raise UsageError("repeats must be >= 1")

    work = [
        (args, scene, name, checker, theta, repeat)
        for checker in checkers
        for theta in thetas
        for repeat in range(args.repeats)
    ]
    processes = _pool_size(_jobs_from(args), len(work))
    if processes > 1:
        with Pool(processes=processes) as pool:
            rows = pool.map(_sweep_worker, work)  # map preserves submission order
    else:
        rows = [_sweep_worker(item) for item in work]
    _write_csv(args.out, SUMMARY_HEADER, rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    if args.means_out:
        named = [dict(zip(SUMMARY_HEADER, r)) for r in rows]
        groups: dict[tuple, list[dict]] = {}
        for r in named:
            groups.setdefault((r["checker"], r["theta"]), []).append(r)
        mean_rows = []
        for (checker, theta), members in groups.items():
            n = len(members)
            mean_rows.append((
                members[0]["scene"], members[0]["condition"], checker, theta, n,
                repr(sum(int(m["updates"]) for m in members) / n),
                repr(left_sum(float(m["avg_utility_deviation"]) for m in members) / n),
            ))
        _write_csv(args.means_out,
                   ("scene", "condition", "checker", "theta", "n",
                    "mean_updates", "mean_avg_utility_deviation"),
                   mean_rows)
        print(f"wrote {args.means_out}: {len(mean_rows)} rows")
    return EXIT_OK


def _cmd_strategy_study(args) -> int:
    scene, name = _load_scene_for(args)
    try:
        config = StrategyStudyConfig(
            scene=scene,
            scene_name=name,
            condition=args.condition,
            samples=args.samples,
            repeats=args.repeats,
            seed=args.seed,
            accumulation=args.accumulation,
            evaluation=args.evaluation,
            start_min=args.start_min,
            start_max=args.start_max,
            horizon=args.horizon,
            bias_mode=args.bias_mode,
            signed_noise=args.signed_noise,
        )
        result = run_strategy_study(config)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rows = []
    for strategy in STRATEGIES:
        n = len(result.deviations[strategy])
        rows.append((name, args.condition, strategy, n,
                     repr(result.mean(strategy)), repr(result.stdev(strategy))))
    _write_csv(args.out, ("scene", "condition", "strategy", "n", "mean_dev", "stdev_dev"),
               rows)
    for row in rows:
        print(",".join(str(v) for v in row))
    return EXIT_OK


def _read_solutions(path: str) -> list[dict]:
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
    return rows


def _cmd_pareto(args) -> int:
    if not (math.isfinite(args.max_updates) and args.max_updates > 0):
        raise UsageError(f"--max-updates must be finite and > 0, got {args.max_updates}")
    rows = _read_solutions(args.input)
    if args.scene is not None:
        rows = [r for r in rows if r["scene"] == args.scene]
    if args.condition is not None:
        rows = [r for r in rows if r["condition"] == args.condition]
    if not rows:
        raise UsageError("no rows left after filtering")
    groups = {(r["scene"], r["condition"]) for r in rows}
    if len(groups) > 1:
        listing = "; ".join(f"{s}/{c}" for s, c in sorted(groups))
        raise UsageError(
            f"solutions span multiple scene/condition groups ({listing}); "
            "filter with --scene/--condition"
        )

    baseline_rows = [r for r in rows if math.isinf(float(r["theta"]))]
    if not baseline_rows:
        raise UsageError("no theta=inf baseline rows; sweep must include theta inf")
    baseline = left_sum(float(r["avg_utility_deviation"]) for r in baseline_rows) / len(
        baseline_rows
    )
    if baseline <= 0:
        raise UsageError("baseline deviation is 0; nothing to normalize against")

    out_rows: list[tuple] = []
    hv_rows: list[tuple] = []
    excluded = 0
    checkers = sorted({r["checker"] for r in rows})
    for checker in checkers:
        mine = [r for r in rows if r["checker"] == checker]
        raw = [
            SolutionPoint(float(r["avg_utility_deviation"]), float(r["updates"]))
            for r in mine
        ]
        norm = normalize_solutions(raw, baseline, args.max_updates)
        front = set(pareto_front(norm))
        boxed = [p for p in norm if p.dev <= 1.0 and p.upd <= 1.0]
        excluded += len(norm) - len(boxed)
        hv = hypervolume2d(boxed)
        for r, p in zip(mine, norm):
            out_rows.append(
                (checker, r["theta"], repr(p.dev), repr(p.upd),
                 int(SolutionPoint(p.dev, p.upd) in front))
            )
        hv_rows.append(("hypervolume", checker, repr(hv)))

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("checker", "theta", "dev_norm", "upd_norm", "on_front"))
        writer.writerows(out_rows)
        writer.writerows(hv_rows)
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

    p = sub.add_parser("gen-scene", help="generate a random scene file")
    p.add_argument("--drones", type=int, required=True)
    p.add_argument("--objects", type=int, required=True)
    p.add_argument("--width", type=float, default=50.0)
    p.add_argument("--height", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--range", type=float, default=10.0, dest="sensing_range")
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--importance-period", type=int, default=30)
    p.add_argument("--out", required=True, help="output scene JSON path")
    p.set_defaults(func=_cmd_gen_scene)

    p = sub.add_parser("run", help="one paired run; writes trace and summary CSVs")
    _add_run_flags(p)
    p.add_argument("--checker", choices=CHECKER_NAMES, default="state",
                   help="equivalence checker (default: state)")
    p.add_argument("--theta", type=float, default=math.inf,
                   help="window-sum threshold; inf never updates, -1 forces updates")
    p.add_argument("--trace", default="trace.csv", help="trace CSV path")
    p.add_argument("--summary", default="summary.csv", help="summary CSV path")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="threshold sweep; one summary row per (checker, theta, repeat)")
    _add_run_flags(p)
    p.add_argument("--checkers", default="state,knowledge,action,action2",
                   help="comma-separated checker list")
    p.add_argument("--thetas", required=True, help="comma-separated threshold list (inf allowed)")
    p.add_argument("--repeats", type=int, default=5, help="repeats per theta (default: 5)")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes (default: available cores; env TWINSYNC_JOBS overrides)")
    p.add_argument("--out", default="solutions.csv", help="solutions CSV path")
    p.add_argument("--means-out", default="",
                   help="optional second CSV with per-(checker, theta) means")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("strategy-study", help="compare update strategies on sampled drift episodes")
    p.add_argument("--scene", required=True)
    p.add_argument("--condition", choices=sorted(CONDITIONS), default="I")
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--accumulation", type=int, default=50)
    p.add_argument("--evaluation", type=int, default=50)
    p.add_argument("--start-min", type=int, default=1)
    p.add_argument("--start-max", type=int, default=900)
    p.add_argument("--horizon", type=int, default=1000)
    p.add_argument("--bias-mode", choices=("accumulate", "fixed"), default="accumulate")
    p.add_argument("--signed-noise", action="store_true")
    _add_scene_overrides(p)
    p.add_argument("--out", default="study.csv")
    p.set_defaults(func=_cmd_strategy_study)

    p = sub.add_parser("pareto", help="normalize solutions, mark the front, report hypervolume")
    p.add_argument("--input", required=True, help="solutions CSV from sweep")
    p.add_argument("--scene", default=None, help="filter rows to one scene name")
    p.add_argument("--condition", default=None, help="filter rows to one condition")
    p.add_argument("--max-updates", type=float, default=1000.0,
                   help="update-count normalizer (default: 1000)")
    p.add_argument("--out", default="pareto.csv")
    p.set_defaults(func=_cmd_pareto)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_dash_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"twinsync: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failures exit 2 with a message
        print(f"twinsync: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
