"""End-to-end checks of the twinsync command line."""

import csv
import json
import math
from pathlib import Path

import pytest

from twinsync import cli
from twinsync.cli import main

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def gen_scene(tmp_path, name="tiny.json", drones=3, objects=4, seed=7):
    out = tmp_path / name
    rc = main(["gen-scene", "--drones", str(drones), "--objects", str(objects),
               "--seed", str(seed), "--out", str(out)])
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
    scene = gen_scene(tmp_path)
    rc, _, _ = run_cmd(tmp_path, scene, "--checker", "action2", "--k", "1")
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
    scene = gen_scene(tmp_path)
    rc = main(["run", "--scene", str(scene), "--steps", "5",
               "--trace", str(tmp_path / "missing" / "trace.csv")])
    assert rc == 2
    assert "runtime error" in capsys.readouterr().err


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


def test_sweep_is_deterministic_across_worker_counts(tmp_path, monkeypatch):
    scene = gen_scene(tmp_path)
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    base = ["sweep", "--scene", str(scene), "--condition", "I",
            "--checkers", "knowledge", "--thetas", "0,2", "--repeats", "2",
            "--steps", "15"]
    monkeypatch.setenv("TWINSYNC_JOBS", "1")
    assert main(base + ["--out", str(serial)]) == 0
    monkeypatch.setenv("TWINSYNC_JOBS", "2")
    assert main(base + ["--out", str(pooled)]) == 0
    assert serial.read_bytes() == pooled.read_bytes()


def test_sweep_means_output(tmp_path):
    scene = gen_scene(tmp_path)
    out = tmp_path / "sol.csv"
    means = tmp_path / "means.csv"
    rc = main(["sweep", "--scene", str(scene), "--condition", "I",
               "--checkers", "knowledge", "--thetas", "0", "--repeats", "3",
               "--steps", "15", "--out", str(out), "--means-out", str(means)])
    assert rc == 0
    rows = read_rows(out)[1:]
    mrows = read_rows(means)
    assert mrows[0] == ["scene", "condition", "checker", "theta", "n",
                        "mean_updates", "mean_avg_utility_deviation"]
    assert len(mrows) == 2
    assert mrows[1][4] == "3"
    want_upd = sum(int(r[8]) for r in rows) / 3
    want_dev = sum(float(r[9]) for r in rows) / 3
    assert float(mrows[1][5]) == want_upd
    assert float(mrows[1][6]) == pytest.approx(want_dev)


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

    class SerialPool:  # stands in for multiprocessing.Pool; starts no process
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(cli, "Pool", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    scene = gen_scene(tmp_path)
    rc = main(["sweep", "--scene", str(scene), "--checkers", "state", "--thetas", "0,inf",
               "--repeats", "1", "--steps", "5", "--jobs", "1000",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 0
    assert started == [2]


def test_sweep_rejects_unknown_checker(tmp_path, capsys):
    scene = gen_scene(tmp_path)
    rc = main(["sweep", "--scene", str(scene), "--checkers", "state,bogus",
               "--thetas", "0", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


def test_sweep_rejects_bad_jobs_env(tmp_path, monkeypatch, capsys):
    scene = gen_scene(tmp_path)
    monkeypatch.setenv("TWINSYNC_JOBS", "many")
    rc = main(["sweep", "--scene", str(scene), "--thetas", "0",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "TWINSYNC_JOBS" in capsys.readouterr().err


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


def test_pareto_rejects_missing_columns(tmp_path, capsys):
    src = tmp_path / "sol.csv"
    src.write_text("scene,checker\nsA,state\n")
    rc = main(["pareto", "--input", str(src), "--out", str(tmp_path / "f.csv")])
    assert rc == 1
    assert "lacks columns" in capsys.readouterr().err
