"""End-to-end checks of the twinsync command line."""

import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from twinsync import cli
from twinsync.cli import main
from twinsync.harness import StrategyStudyConfig, TwinRunConfig, run_paired
from twinsync.model import load_scene

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def gen_scene(tmp_path, name="tiny.json", drones=3, objects=4, seed=7, flags=()):
    out = tmp_path / name
    rc = main(["gen-scene", "--drones", str(drones), "--objects", str(objects),
               "--seed", str(seed), *flags, "--out", str(out)])
    assert rc == 0
    return out


# ------------------------------------------------------------
# gen-scene
# ------------------------------------------------------------


def test_gen_scene_is_deterministic(tmp_path):
    a = gen_scene(tmp_path, "a.json")
    b = gen_scene(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_gen_scene_layout(tmp_path):
    data = json.loads(gen_scene(tmp_path).read_text())
    assert len(data["drones"]) == 3
    assert len(data["objects"]) == 4
    for d in data["drones"]:
        assert 0.0 <= d["x"] <= data["width"]
        assert 0.0 <= d["y"] <= data["height"]
    for o in data["objects"]:
        assert 0.0 <= o["x"] <= data["width"]
        assert 0.0 <= o["y"] <= data["height"]
        assert o["direction"] in (0.0, 90.0, 180.0, 270.0)
        assert isinstance(o["important"], bool)


def test_gen_scene_rejects_empty_fleet(tmp_path, capsys):
    rc = main(["gen-scene", "--drones", "0", "--objects", "4",
               "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_bundled_scenes_regenerate_byte_identical(tmp_path):
    # the recipes documented in scenes/README.md
    recipes = {
        "scene1.json": (5, 10, 101),
        "scene2.json": (8, 12, 102),
        "scene3.json": (8, 12, 103),
        "scene4.json": (10, 20, 104),
        "scene5.json": (15, 10, 105),
        "scene6.json": (10, 10, 106),
    }
    for name, (drones, objects, seed) in recipes.items():
        regen = gen_scene(tmp_path, name, drones, objects, seed)
        assert regen.read_bytes() == (SCENES / name).read_bytes(), name


# One value per gen-scene parameter flag, none of them the default: (JSON key, value).
SCENE_FLAG_VALUES = {
    "--width": ("width", 60.0),
    "--height": ("height", 40.0),
    "--k": ("k", 3),
    "--range": ("range", 7.0),
    "--gamma": ("gamma", 0.5),
    "--delta": ("delta", 2.0),
    "--importance-period": ("importance_period", 10),
}


def test_scene_flags_override_only_the_parameters_given(tmp_path):
    # scene1's recipe plus two parameter flags writes scene1 with only those changed
    out = gen_scene(tmp_path, "scene1-k3.json", 5, 10, 101, flags=["--k", "3", "--range", "7.0"])
    scene = load_scene(SCENES / "scene1.json")
    assert load_scene(out) == dataclasses.replace(scene, k=3, sensing_range=7.0)
    # each flag alone writes exactly its value, with its JSON type; only the
    # arena size also moves the placements
    scene1 = json.loads((SCENES / "scene1.json").read_text())
    for flag, (key, value) in SCENE_FLAG_VALUES.items():
        out = gen_scene(tmp_path, f"{key}.json", 5, 10, 101, flags=[flag, str(value)])
        data, expected = json.loads(out.read_text()), scene1 | {key: value}
        assert type(data[key]) is type(value), flag
        if key in ("width", "height"):
            for name in ("drones", "objects"):
                del data[name], expected[name]
        assert data == expected, flag
        load_scene(out)


# ------------------------------------------------------------
# run
# ------------------------------------------------------------


def run_cmd(tmp_path, scene, *extra):
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "summary.csv"
    rc = main(["run", "--scene", str(scene), "--steps", "20",
               "--trace", str(trace), "--summary", str(summary), *extra])
    return rc, trace, summary


def test_run_writes_trace_and_summary(tmp_path):
    scene = gen_scene(tmp_path)
    rc, trace, summary = run_cmd(tmp_path, scene, "--condition", "I",
                                 "--checker", "knowledge", "--theta", "1.0")
    assert rc == 0
    rows = read_rows(trace)
    assert rows[0] == ["t", "u_physical", "u_twin", "metric_value", "updated"]
    assert len(rows) == 21
    assert [r[0] for r in rows[1:]] == [str(t) for t in range(20)]
    srows = read_rows(summary)
    assert len(srows) == 2
    assert srows[1][2] == "knowledge"


def test_run_trace_rows_are_the_run_columns(tmp_path):
    # one row per step: t, then run_paired's u, u', metric value and 0/1 flag
    scene = gen_scene(tmp_path)
    rc, trace_csv, _ = run_cmd(tmp_path, scene, "--condition", "I",
                               "--checker", "state", "--theta", "2.0")
    assert rc == 0
    trace = run_paired(TwinRunConfig(scene=load_scene(scene), condition="I",
                                     checker="state", theta=2.0, steps=20))
    assert 0 < trace.updates < 20
    columns = zip(trace.u_physical, trace.u_twin, trace.metric_values, trace.updated)
    assert read_rows(trace_csv)[1:] == [
        [str(t), repr(up), repr(ut), repr(mv), "1" if upd else "0"]
        for t, (up, ut, mv, upd) in enumerate(columns)]
    assert all(0.0 <= u <= 1.0 for u in trace.u_physical + trace.u_twin)


def test_run_trace_is_byte_identical_across_invocations(tmp_path):
    scene = gen_scene(tmp_path)
    _, trace_a, _ = run_cmd(tmp_path, scene, "--condition", "I",
                            "--checker", "state", "--theta", "2.0")
    first = trace_a.read_bytes()
    _, trace_b, _ = run_cmd(tmp_path, scene, "--condition", "I",
                            "--checker", "state", "--theta", "2.0")
    assert trace_b.read_bytes() == first


def test_run_identity_trace_shows_zero_deviation(tmp_path):
    scene = gen_scene(tmp_path)
    rc, trace, _ = run_cmd(tmp_path, scene)
    assert rc == 0
    for row in read_rows(trace)[1:]:
        assert row[1] == row[2]
        assert row[4] == "0"


def test_run_rejects_action2_when_k_is_1(tmp_path, capsys):
    scene = gen_scene(tmp_path, "k1.json", flags=["--k", "1"])
    rc, _, _ = run_cmd(tmp_path, scene, "--checker", "action2")
    assert rc == 1
    assert "action2" in capsys.readouterr().err


def test_run_rejects_bad_step_count(tmp_path, capsys):
    scene = gen_scene(tmp_path)
    rc = main(["run", "--scene", str(scene), "--steps", "0"])
    assert rc == 1
    assert "--steps" in capsys.readouterr().err


def test_run_missing_scene_file_is_a_usage_error(tmp_path, capsys):
    rc = main(["run", "--scene", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "scene" in capsys.readouterr().err


def test_run_unknown_checker_exits_1(tmp_path):
    scene = gen_scene(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scene", str(scene), "--checker", "bogus"])
    assert exc.value.code == 1


def test_run_unwritable_output_is_a_runtime_error(tmp_path, capsys):
    # an existing directory passes the path check, and the write then fails
    scene = gen_scene(tmp_path)
    (tmp_path / "taken").mkdir()
    rc = main(["run", "--scene", str(scene), "--steps", "5",
               "--trace", str(tmp_path / "taken"), "--summary", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "runtime error" in capsys.readouterr().err


def summary_config(**kwargs):
    settings = dict(scene=load_scene(SCENES / "scene1.json"), scene_name="scene1",
                    steps=60, seed=5)
    return TwinRunConfig(**(settings | kwargs))


def test_summary_row_matches_header_and_reprs():
    config = summary_config(theta=math.inf, steps=10)
    trace = run_paired(config)
    row = cli.summary_row(config, trace, repeat=3)
    assert len(row) == len(cli.SUMMARY_HEADER)
    named = dict(zip(cli.SUMMARY_HEADER, row))
    assert named["scene"] == "scene1"
    assert named["theta"] == "inf"
    assert named["repeat"] == 3
    assert float(named["avg_utility_deviation"]) == trace.avg_utility_deviation()


def test_summary_row_of_a_paired_run_is_reproducible():
    config = summary_config(condition="I", theta=2.0, checker="knowledge")
    assert cli.summary_row(config, run_paired(config), 0) == \
        cli.summary_row(config, run_paired(config), 0)


# ------------------------------------------------------------
# sweep
# ------------------------------------------------------------


def test_sweep_emits_one_row_per_cell(tmp_path):
    scene = gen_scene(tmp_path)
    out = tmp_path / "sol.csv"
    rc = main(["sweep", "--scene", str(scene), "--condition", "I",
               "--checkers", "state,knowledge", "--thetas", "0,1,inf",
               "--repeats", "2", "--steps", "15", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert len(rows) == 1 + 2 * 3 * 2
    assert rows[0][:4] == ["scene", "condition", "checker", "theta"]
    assert {r[2] for r in rows[1:]} == {"state", "knowledge"}


def test_sweep_is_deterministic_across_worker_counts(tmp_path):
    scene = gen_scene(tmp_path)
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    # 4 runs, and 9 runs: more than 2 workers x 4 chunks, so chunking matters
    for thetas, repeats in (("0,2", "2"), ("0,2,inf", "3")):
        base = ["sweep", "--scene", str(scene), "--condition", "I",
                "--checkers", "knowledge", "--thetas", thetas, "--repeats", repeats,
                "--steps", "15"]
        assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()
        assert len(read_rows(serial)) == 1 + len(thetas.split(",")) * int(repeats)


def test_sweep_rejects_bad_theta_list(tmp_path, capsys):
    scene = gen_scene(tmp_path)
    rc = main(["sweep", "--scene", str(scene), "--thetas", "0,zap",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "theta" in capsys.readouterr().err


def test_sweep_accepts_a_theta_list_that_starts_with_a_dash(tmp_path):
    scene = gen_scene(tmp_path)
    base = ["sweep", "--scene", str(scene), "--condition", "I", "--checkers", "state",
            "--repeats", "1", "--steps", "15", "--jobs", "1"]
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert main(base + ["--thetas", "-1,inf", "--out", str(spaced)]) == 0
    assert main(base + ["--thetas=-1,inf", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    rows = read_rows(spaced)
    assert [r[3] for r in rows[1:]] == ["-1.0", "inf"]
    assert rows[1][8] == "15"  # theta = -1 updates at every check


@pytest.mark.parametrize("command,flag,value", [("run", "--theta", "nan"),
                                                ("sweep", "--thetas", "0,nan,inf")])
def test_nan_thresholds_are_rejected(tmp_path, capsys, command, flag, value):
    scene = gen_scene(tmp_path)
    outputs = (["--trace", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.csv")]
               if command == "run" else ["--out", str(tmp_path / "x.csv")])
    rc = main([command, "--scene", str(scene), flag, value, "--steps", "5", *outputs])
    assert rc == 1
    assert f"{flag} must not be NaN" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_sweep_pool_size_is_capped_by_runs_and_cores(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli._pool_size(1000, 50) == 4
    assert cli._pool_size(1000, 3) == 3
    assert cli._pool_size(2, 50) == 2
    assert cli._pool_size(1, 50) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._pool_size(8, 50) == 1


def test_sweep_starts_no_more_workers_than_runs_or_cores(tmp_path, monkeypatch):
    started = []

    class SerialPool:  # stands in for ProcessPoolExecutor; starts no process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):  # the default chunk of one run keeps every worker busy
            return [fn(item) for item in items]

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    scene = gen_scene(tmp_path)
    rc = main(["sweep", "--scene", str(scene), "--checkers", "state", "--thetas", "0,inf",
               "--repeats", "1", "--steps", "5", "--jobs", "1000",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 0
    assert started == [2]


# Runs a sweep whose worker for seed 102 dies at once, as an out-of-memory kill
# would end it. Module level, so a spawned worker process patches itself too.
DYING_SWEEP = """
import os, sys
from twinsync import cli

real_run_paired = cli.run_paired


def dying_run_paired(config):
    if config.seed == 102:
        os._exit(9)
    return real_run_paired(config)


cli.run_paired = dying_run_paired
os.cpu_count = lambda: 2  # two workers even on a one-core host

if __name__ == "__main__":
    sys.exit(cli.main(sys.argv[1:]))
"""


def test_sweep_whose_worker_dies_exits_2_and_writes_nothing(tmp_path):
    script = tmp_path / "dying_sweep.py"
    script.write_text(DYING_SWEEP)
    out = tmp_path / "x.csv"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(script), "sweep", "--scene", str(SCENES / "scene1.json"),
         "--checkers", "state", "--thetas", "0", "--repeats", "5", "--steps", "20",
         "--seed", "100", "--jobs", "2", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert "twinsync: runtime error" in done.stderr
    assert not out.exists()


def test_sweep_rejects_unknown_checker(tmp_path, capsys):
    scene = gen_scene(tmp_path)
    rc = main(["sweep", "--scene", str(scene), "--checkers", "state,bogus",
               "--thetas", "0", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("extra,named", [
    (["--checkers", "state,bogus"], "--checkers 'bogus' is not a known checker"),
    (["--checkers", "state,action2"], "--checkers action2 needs k >= 2"),
    (["--thetas", "0,nan"], "--thetas must not be NaN"),
    (["--jobs", "0"], "--jobs must be >= 1"),
    (["--checkers", "knowledge,knowledge"], "--checkers lists 'knowledge' twice"),
    (["--thetas", "0,0.0,inf"], "--thetas lists 0.0 twice"),
])
def test_sweep_with_a_bad_setting_starts_no_run(tmp_path, monkeypatch, capsys, extra, named):
    runs = []
    monkeypatch.setattr(cli, "run_paired", lambda config: runs.append(config))
    scene = gen_scene(tmp_path, "k1.json", flags=["--k", "1"])  # k = 1 refuses action2
    argv = ["sweep", "--scene", str(scene), "--checkers", "state", "--thetas", "0,inf",
            "--steps", "5", "--jobs", "1", "--out", str(tmp_path / "x.csv")]
    rc = main(argv + extra)
    assert rc == 1
    assert named in capsys.readouterr().err
    assert runs == []
    assert not any(tmp_path.glob("*.csv"))


# ------------------------------------------------------------
# settings: one check and one default per config field
# ------------------------------------------------------------


@pytest.mark.parametrize("argv,named", [
    (["run", "--steps", "5", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["run", "--steps", "5", "--condition", "I", "--seed", "-3"],
     "--seed must be >= 0, got -3"),
    (["sweep", "--steps", "5", "--thetas", "0", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["strategy-study", "--seed", "-2"], "--seed must be >= 0, got -2"),
])
def test_negative_seeds_exit_1_naming_the_seed(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)  # the default output paths land here
    scene = gen_scene(tmp_path)
    rc = main([*argv, "--scene", str(scene)])
    assert rc == 1
    assert named in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_gen_scene_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = main(["gen-scene", "--drones", "3", "--objects", "4", "--seed", "-1",
               "--out", str(out)])
    assert rc == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,config_type", [
    ("run", TwinRunConfig), ("sweep", TwinRunConfig),
    ("strategy-study", StrategyStudyConfig),
])
def test_flag_defaults_are_the_config_defaults(command, config_type):
    args = cli.build_parser().parse_args([command, "--scene", "s.json", "--thetas", "0"]
                                         if command == "sweep" else
                                         [command, "--scene", "s.json"])
    # every field but the scene's is a flag; the sweep lists checkers and thetas
    skip = {"scene", "scene_name"} | ({"checker", "theta"} if command == "sweep" else set())
    for f in dataclasses.fields(config_type):
        if f.name not in skip:
            assert getattr(args, f.name) == f.default, f.name


@pytest.mark.parametrize("command,shown", [
    ("gen-scene", ["arena width (default: 50.0)", "coverage requirement (default: 2)"]),
    ("run", ["simulation steps (default: 1000)", "equivalence checker (default: state)",
             "(default: inf)",
             "window: a check at t sums the l + 1 steps t - l to t (default: 1)"]),
    ("sweep", ["checking interval (default: 1)",
               "checker list (default: state,knowledge,action,action2)"]),
    ("strategy-study", ["threat condition (default: I)",
                        "steps scored after the update (default: 50)",
                        "last step any episode may reach (default: 1000)"]),
    ("pareto", ["update-count normalizer (default: 1000.0)"]),
])
def test_every_subcommand_help_renders_its_defaults(capsys, command, shown):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo line wrapping
    for snippet in shown:
        assert snippet in text


# ------------------------------------------------------------
# strategy-study
# ------------------------------------------------------------


def test_strategy_study_writes_one_row_per_strategy(tmp_path):
    scene = gen_scene(tmp_path)
    out = tmp_path / "study.csv"
    rc = main(["strategy-study", "--scene", str(scene), "--condition", "I",
               "--samples", "2", "--repeats", "1", "--accumulation", "10",
               "--evaluation", "10", "--start-min", "1", "--start-max", "20",
               "--horizon", "50", "--seed", "3", "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert rows[0] == ["scene", "condition", "strategy", "n", "mean_dev", "stdev_dev"]
    assert [r[2] for r in rows[1:]] == ["update", "keep", "clear"]
    assert all(r[3] == "2" for r in rows[1:])


def test_strategy_study_rejects_start_past_horizon(tmp_path, capsys):
    scene = gen_scene(tmp_path)
    rc = main(["strategy-study", "--scene", str(scene), "--samples", "2",
               "--repeats", "1", "--start-min", "1", "--start-max", "90",
               "--accumulation", "10", "--evaluation", "10", "--horizon", "50",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--evaluation", "0"), ("--accumulation", "-5")])
def test_strategy_study_rejects_bad_phase_lengths(tmp_path, capsys, flag, value):
    scene = gen_scene(tmp_path)
    out = tmp_path / "x.csv"
    rc = main(["strategy-study", "--scene", str(scene), "--samples", "2",
               "--repeats", "1", "--start-max", "20", "--horizon", "200",
               flag, value, "--out", str(out)])
    assert rc == 1
    assert f"{flag[2:]} must be >= " in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------
# pareto
# ------------------------------------------------------------

PARETO_HEADER = ("scene,condition,checker,theta,q,l,seed,repeat,"
                 "updates,avg_utility_deviation,memory_cost")


def write_solutions(path, rows):
    path.write_text(PARETO_HEADER + "\n" + "\n".join(rows) + "\n")


def test_pareto_against_hand_computed_front(tmp_path, capsys):
    # baseline = mean(0.19, 0.21) = 0.2; max updates 1000
    # normalized points: (0.05, 0.5), (0.1, 0.1), (0.3, 0.3), (0.95, 0), (1.05, 0)
    # front: first two and (0.95, 0); the (1.05, 0) point leaves the box
    # hypervolume over dev strips: 0.05*0.5 + 0.85*0.9 + 0.05*1 = 0.84
    src = tmp_path / "sol.csv"
    write_solutions(src, [
        "sA,I,state,0,1,1,100,0,500,0.01,10.0",
        "sA,I,state,2,1,1,100,0,100,0.02,10.0",
        "sA,I,state,5,1,1,100,0,300,0.06,10.0",
        "sA,I,state,inf,1,1,100,0,0,0.19,10.0",
        "sA,I,state,inf,1,1,101,1,0,0.21,10.0",
    ])
    out = tmp_path / "front.csv"
    rc = main(["pareto", "--input", str(src), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    hv_line = [l for l in captured.out.splitlines() if l.startswith("hypervolume")]
    tag, checker, hv = hv_line[0].split(",")
    assert (tag, checker) == ("hypervolume", "state")
    assert float(hv) == pytest.approx(0.84)
    assert "1 point(s) fell outside" in captured.err

    rows = read_rows(out)
    assert rows[0] == ["checker", "theta", "dev_norm", "upd_norm", "on_front"]
    body = rows[1:6]
    assert [r[1] for r in body] == ["0", "2", "5", "inf", "inf"]
    assert [float(r[2]) for r in body] == pytest.approx([0.05, 0.1, 0.3, 0.95, 1.05])
    assert [float(r[3]) for r in body] == pytest.approx([0.5, 0.1, 0.3, 0.0, 0.0])
    assert [r[4] for r in body] == ["1", "1", "0", "1", "0"]
    assert rows[6][:2] == ["hypervolume", "state"]
    assert float(rows[6][2]) == pytest.approx(0.84)


def test_pareto_max_updates_rescales(tmp_path, capsys):
    src = tmp_path / "sol.csv"
    write_solutions(src, [
        "sA,I,state,0,1,1,100,0,50,0.1,10.0",
        "sA,I,state,inf,1,1,100,0,0,0.2,10.0",
    ])
    out = tmp_path / "front.csv"
    rc = main(["pareto", "--input", str(src), "--max-updates", "100",
               "--out", str(out)])
    assert rc == 0
    rows = read_rows(out)
    assert float(rows[1][3]) == pytest.approx(0.5)


@pytest.mark.parametrize("value", ["nan", "-3", "inf", "0"])
def test_pareto_rejects_bad_max_updates(tmp_path, capsys, value):
    src = tmp_path / "sol.csv"
    write_solutions(src, [
        "sA,I,state,0,1,1,100,0,50,0.1,10.0",
        "sA,I,state,inf,1,1,100,0,0,0.2,10.0",
    ])
    out = tmp_path / "front.csv"
    rc = main(["pareto", "--input", str(src), "--max-updates", value, "--out", str(out)])
    assert rc == 1
    assert "--max-updates must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def test_pareto_requires_single_group_unless_filtered(tmp_path, capsys):
    src = tmp_path / "sol.csv"
    write_solutions(src, [
        "sA,I,state,0,1,1,100,0,500,0.01,10.0",
        "sA,I,state,inf,1,1,100,0,0,0.2,10.0",
        "sB,I,state,0,1,1,100,0,500,0.01,10.0",
    ])
    out = tmp_path / "front.csv"
    rc = main(["pareto", "--input", str(src), "--out", str(out)])
    assert rc == 1
    assert "filter with --scene/--condition" in capsys.readouterr().err
    rc = main(["pareto", "--input", str(src), "--scene", "sA", "--out", str(out)])
    assert rc == 0


def test_pareto_requires_baseline_rows(tmp_path, capsys):
    src = tmp_path / "sol.csv"
    write_solutions(src, ["sA,I,state,0,1,1,100,0,500,0.01,10.0"])
    rc = main(["pareto", "--input", str(src), "--out", str(tmp_path / "f.csv")])
    assert rc == 1
    assert "theta=inf" in capsys.readouterr().err.replace(" inf", "=inf")


def test_pareto_rejects_zero_baseline(tmp_path, capsys):
    src = tmp_path / "sol.csv"
    write_solutions(src, [
        "sA,I,state,0,1,1,100,0,500,0.01,10.0",
        "sA,I,state,inf,1,1,100,0,0,0.0,10.0",
    ])
    rc = main(["pareto", "--input", str(src), "--out", str(tmp_path / "f.csv")])
    assert rc == 1
    assert "baseline" in capsys.readouterr().err


@pytest.mark.parametrize("row,named", [
    ("sA,I,state,0,1,1,100,0,x,0.01,10.0", "row 2: updates must be a number, got 'x'"),
    ("sA,I,state,0,1,1,100", "row 2: updates must be a number, got None"),
    ("sA,I,state,zero,1,1,100,0,5,0.01,10.0", "row 2: theta must be a number"),
    ("sA,I,state,0,1,1,100,0,-500,0.01,10.0",
     "row 2: updates must be an integer >= 0, got '-500'"),
    ("sA,I,state,0,1,1,100,0,2.5,0.01,10.0", "row 2: updates must be an integer >= 0, got '2.5'"),
    ("sA,I,state,0,1,1,100,0,inf,0.01,10.0", "row 2: updates must be an integer >= 0, got 'inf'"),
    ("sA,I,state,0,1,1,100,0,5,-0.1,10.0",
     "row 2: avg_utility_deviation must be finite and >= 0, got '-0.1'"),
    ("sA,I,state,0,1,1,100,0,5,inf,10.0",
     "row 2: avg_utility_deviation must be finite and >= 0, got 'inf'"),
])
def test_pareto_names_the_row_and_column_of_a_bad_value(tmp_path, capsys, row, named):
    src = tmp_path / "sol.csv"
    write_solutions(src, [row, "sA,I,state,inf,1,1,100,0,0,0.2,10.0"])
    out = tmp_path / "f.csv"
    rc = main(["pareto", "--input", str(src), "--out", str(out)])
    assert rc == 1
    assert f"{src} {named}" in capsys.readouterr().err
    assert not out.exists()


def test_pareto_rejects_a_nan_baseline(tmp_path, capsys):
    src = tmp_path / "sol.csv"
    write_solutions(src, [
        "sA,I,state,0,1,1,100,0,500,0.01,10.0",
        "sA,I,state,inf,1,1,100,0,0,nan,10.0",
    ])
    out = tmp_path / "f.csv"
    rc = main(["pareto", "--input", str(src), "--out", str(out)])
    assert rc == 1
    # a NaN deviation is refused in its row, before any baseline is taken
    assert f"{src} row 3: avg_utility_deviation must be finite and >= 0, got 'nan'" \
        in capsys.readouterr().err
    assert not out.exists()


def test_pareto_takes_any_theta_and_a_whole_count(tmp_path, capsys):
    src = tmp_path / "sol.csv"
    write_solutions(src, [
        "sA,I,state,-1,1,1,100,0,1000,0.0,10.0",
        "sA,I,state,2,1,1,100,0,50.0,0.1,10.0",
        "sA,I,state,inf,1,1,100,0,0,0.2,10.0",
    ])
    out = tmp_path / "f.csv"
    assert main(["pareto", "--input", str(src), "--out", str(out)]) == 0
    assert [r[1:4] for r in read_rows(out)[1:4]] == [
        ["-1", "0.0", "1.0"], ["2", "0.5", "0.05"], ["inf", "1.0", "0.0"]]


def test_pareto_rejects_missing_columns(tmp_path, capsys):
    src = tmp_path / "sol.csv"
    src.write_text("scene,checker\nsA,state\n")
    rc = main(["pareto", "--input", str(src), "--out", str(tmp_path / "f.csv")])
    assert rc == 1
    assert "lacks columns" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,field", [
    ("--drones", "1", "drones"),
    ("--width", "-5", "width"),
    ("--height", "0", "height"),
    ("--k", "0", "k"),
    ("--range", "-2", "range"),
    ("--gamma", "1.5", "gamma"),
    ("--delta", "0", "delta"),
    ("--importance-period", "0", "importance_period"),
])
def test_gen_scene_rejects_bad_parameter_and_writes_nothing(tmp_path, capsys, flag, value,
                                                            field):
    out = tmp_path / "x.json"
    rc = main(["gen-scene", "--drones", "3", "--objects", "4", flag, value, "--out", str(out)])
    assert rc == 1
    assert f"{field} must" in capsys.readouterr().err
    assert not out.exists()


def test_gen_scene_names_every_bad_parameter(tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = main(["gen-scene", "--drones", "3", "--objects", "4", "--k", "0", "--gamma", "1.5",
               "--range", "-2", "--importance-period", "0", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    for field in ("k", "gamma", "range", "importance_period"):
        assert f"{field} must" in err
    assert not out.exists()


@pytest.mark.parametrize("command,flags", [
    ("run", ["--strategy", "keep"]), ("run", ["--bias-mode", "fixed"]),
    ("run", ["--signed-noise"]), ("sweep", ["--strategy", "clear"]),
    ("sweep", ["--bias-mode", "fixed"]), ("sweep", ["--signed-noise"]),
    ("strategy-study", ["--bias-mode", "fixed"]), ("strategy-study", ["--signed-noise"]),
    # a scene parameter comes from the scene file; gen-scene writes a new one
    *[(command, [flag, value]) for command in ("run", "sweep", "strategy-study")
      for flag, value in (("--k", "3"), ("--range", "7.0"), ("--gamma", "0.5"),
                          ("--delta", "2.0"), ("--importance-period", "10"))],
])
def test_removed_flags_are_usage_errors(tmp_path, monkeypatch, capsys, command, flags):
    monkeypatch.chdir(tmp_path)  # the default output paths land here
    small = {"run": ["--steps", "5"],
             "sweep": ["--thetas", "0", "--jobs", "1", "--steps", "5"],
             "strategy-study": ["--samples", "1", "--repeats", "1", "--accumulation", "2",
                                "--evaluation", "2", "--start-max", "5", "--horizon", "20"]}
    with pytest.raises(SystemExit) as exc:
        main([command, "--scene", str(SCENES / "scene1.json"), *flags, *small[command]])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["run", "sweep", "strategy-study"])
def test_a_one_drone_scene_exits_1_before_any_step(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)  # the default output paths land here
    data = json.loads((SCENES / "scene1.json").read_text())
    data["drones"] = data["drones"][:1]
    scene = tmp_path / "lone.json"
    scene.write_text(json.dumps(data))
    monkeypatch.setattr(cli, "run_paired", lambda config: pytest.fail("a run started"))
    monkeypatch.setattr(cli, "run_strategy_study", lambda config: pytest.fail("a study started"))
    extra = ["--thetas", "0", "--jobs", "1"] if command == "sweep" else []
    rc = main([command, "--scene", str(scene), *extra])
    assert rc == 1
    assert "scene has 1 drone; need at least two" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.csv"))


def test_run_rejects_mistyped_scene_field(tmp_path, capsys):
    data = json.loads((SCENES / "scene1.json").read_text())
    data["objects"][0]["important"] = "false"
    scene = tmp_path / "bad.json"
    scene.write_text(json.dumps(data))
    rc = main(["run", "--scene", str(scene), "--steps", "1",
               "--trace", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "objects[0].important must be true or false" in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (["gen-scene", "--drones", "3", "--objects", "4", "--out", "missing/x.json"],
     "--out missing/x.json: no such directory"),
    (["run", "--scene", "scene.json", "--trace", "missing/t.csv"],
     "--trace missing/t.csv: no such directory"),
    (["run", "--scene", "scene.json", "--summary", "missing/s.csv"],
     "--summary missing/s.csv: no such directory"),
    (["sweep", "--scene", "scene.json", "--thetas", "0", "--jobs", "1", "--out", "missing/x.csv"],
     "--out missing/x.csv: no such directory"),
    (["strategy-study", "--scene", "scene.json", "--out", "missing/x.csv"],
     "--out missing/x.csv: no such directory"),
    (["pareto", "--input", "sol.csv", "--out", "missing/x.csv"],
     "--out missing/x.csv: no such directory"),
    (["run", "--scene", "scene.json", "--trace", "scene.json"],
     "--trace is the same file as --scene"),
    (["run", "--scene", "scene.json", "--summary", "./scene.json"],
     "--summary is the same file as --scene"),
    (["run", "--scene", "scene.json", "--trace", "x.csv", "--summary", "x.csv"],
     "--summary is the same file as --trace"),
    (["run", "--scene", "scene.json", "--trace", "summary.csv"],  # --summary's default
     "--summary is the same file as --trace"),
    (["sweep", "--scene", "scene.json", "--thetas", "0", "--jobs", "1", "--out", "link.json"],
     "--out is the same file as --scene"),  # link.json is a symlink to scene.json
    (["strategy-study", "--scene", "scene.json", "--out", "scene.json"],
     "--out is the same file as --scene"),
    (["pareto", "--input", "sol.csv", "--out", "sol.csv"], "--out is the same file as --input"),
])
def test_a_bad_output_path_exits_1_before_any_work(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    shutil.copy(SCENES / "scene1.json", "scene.json")
    os.symlink("scene.json", "link.json")
    write_solutions(tmp_path / "sol.csv", ["sA,I,state,0,1,1,100,0,50,0.1,10.0",
                                           "sA,I,state,inf,1,1,100,0,0,0.2,10.0"])
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    monkeypatch.setattr(cli, "run_paired", lambda config: pytest.fail("a run started"))
    monkeypatch.setattr(cli, "run_strategy_study", lambda config: pytest.fail("a study started"))
    rc = main(argv)
    assert rc == 1
    assert named in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
