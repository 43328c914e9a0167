"""Golden outputs: SHA-256 of the CSVs that `twinsync run` and `strategy-study` write.

The run cases together cover every checker, the conditions none, I and II,
and q/l = 1/1 and 5/10, at 200 steps per run; the study cases cover all
three update strategies under conditions II and I, the latter with a twin
that draws its choices from a divergent seed. The relabelled cases run the action checkers on a
scene whose ids are not positions. Any change to what the simulator computes, down to
the last bit of a float repr, changes a hash. A deliberate change of
behaviour regenerates the table with `_golden_table` and records why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from twinsync.cli import main
from twinsync.model import load_scene, save_scene

SCENES = Path(__file__).resolve().parent.parent / "scenes"
STEPS = "200"

# name: (scene, condition, checker, theta, q, l)
RUNS = {
    "none-state-update": ("scene1", "none", "state", "0.5", 1, 1),
    "none-knowledge-forced": ("scene2", "none", "knowledge", "-1", 1, 1),
    "I-knowledge-update": ("scene2", "I", "knowledge", "2", 1, 1),
    "I-action-update": ("scene1", "I", "action", "0.2", 1, 1),
    "I-action2-update": ("scene4", "I", "action2", "0.3", 5, 10),
    "I-state-free": ("scene3", "I", "state", "inf", 1, 1),
    "II-state-update": ("scene3", "II", "state", "1", 5, 10),
    "II-knowledge-update": ("scene5", "II", "knowledge", "1", 1, 1),
    "II-action2-update": ("scene6", "II", "action2", "0.5", 5, 10),
    "II-action-update": ("scene4", "II", "action", "0.1", 1, 1),
}

GOLDEN_RUNS = {
    "I-action-update": (
        "042de48172a62bb2978863d2fc43e7f2ee59e71e5d8c95e340942d746c89bd1b",
        "f1b4025f09fe29b21146504ca1c60cb86fad5f05ab8304a785b4b8e33523e042",
    ),
    "I-action2-update": (
        "0cc391b62b4454a2a7c145f1891bfadd6ae522de022cbe237ad604f2a767b193",
        "e72abf6480f43b0882995fa529a7bd8448f809586a0a6d1bba7f07cef4628818",
    ),
    "I-knowledge-update": (
        "fabe99c80488b5329237f84a3cff4ba1790292e6c5cc088b297dd5233659e0ce",
        "7984336959a4c6f81aeb61567d6bd744a31caada067f7bb432fd584848b95626",
    ),
    "I-state-free": (
        "8748496dd5c355a647dbc9fdfc049be3605402e841f4e8e55946fd003d4e5670",
        "32d68504525256629bcca263edb3a7f401528c25aeae1210eae259452d7e29fd",
    ),
    "II-action-update": (
        "446ce467976b155a0514f4b27128a10a1b89a9b4a9f60a8b0ee61a80c38d6d6d",
        "33c4202c7574e6ec6f28b4dde5aa5d35ad4ce54557eeeb5fe18bba680c09eb58",
    ),
    "II-action2-update": (
        "9fb6bf2243a24016238e06db283a08328dd23939cc4058758866331ba10a8f61",
        "f13ba745ed488bc8c9909782f0abb472175a0e4dc084d08dbdca8025a7298360",
    ),
    "II-knowledge-update": (
        "0ff119d8aa1f2f6239c6beef6bc7e06ba400f73768c8b960421fe2c2b38bebd6",
        "7d680ae49e29ba695494c9b2e7dd58cc89865be023f7229618970607271b4c5e",
    ),
    "II-state-update": (
        "0ebee668937f336b5ef1567991d6ccd1cdf2ed3aa2ca5355d79fe48aaae9fa66",
        "a30e517d2fbbfd6272c4db63fffd491f65e48e1618adaa79f8cbd43835bf2e68",
    ),
    "none-knowledge-forced": (
        "eacbdb2f58218bbec79948a3d3ab0cedd950343ff2a2be6d847850e350213880",
        "91c43d4f21e7c275e3d926c8b1c5b8a0439a0c65883265f1b8c154209fdcbcab",
    ),
    "none-state-update": (
        "dc9fc76eba63c838b83eb5f5f19f6fcd9ebcfab0044b9e2e1ba8808c72109b3a",
        "3f58605b8fac3c985b141138c7e32e309e2c026012b98f8ae1643ab8ca0eb3ea",
    ),
}

STUDY_ARGS = ["--scene", str(SCENES / "scene6.json"),
              "--samples", "3", "--repeats", "2", "--seed", "9",
              "--accumulation", "20", "--evaluation", "20",
              "--start-min", "1", "--start-max", "60", "--horizon", "100"]
GOLDEN_STUDY = "6c523099df643c667bb39ec34494d35de8a80c7c7509a224cdaa05749a4875ba"
GOLDEN_STUDY_I = "f74729b39b460df06f7349e08150b03105fb0b0abd27542ab4fe4f39d01f91b1"


# Runs on scene4 with its ids relabelled, so that no drone's or object's id is
# its position: name: (condition, checker, theta). Drone draws are keyed by
# id, so these traces differ from scene4's.
RELABELLED_RUNS = {
    "I-action": ("I", "action", "0.2"),
    "I-action2": ("I", "action2", "0.3"),
    "II-action": ("II", "action", "0.1"),
    "II-action2": ("II", "action2", "0.5"),
}

GOLDEN_RELABELLED = {
    "I-action": "81259d161680cb6f97f33cc088790e98b269f4b2e512d16c686fd53819551d69",
    "I-action2": "ff53e065d6054a7965b18ede99a98f8c4bc03884ab4cb3010cb8f00b778b6040",
    "II-action": "424e475af91b0e0cec017278835b2a39e869246224bca87fe148fbfae18090c4",
    "II-action2": "85b686afa9da1355d2a019b9819a0920f3617dafb8d5f02a686c88364fa1eb57",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(name: str, tmp_path: Path) -> tuple[str, str]:
    scene, condition, checker, theta, q, l = RUNS[name]
    trace, summary = tmp_path / f"{name}-trace.csv", tmp_path / f"{name}-summary.csv"
    rc = main(["run", "--scene", str(SCENES / f"{scene}.json"), "--condition", condition,
               "--checker", checker, f"--theta={theta}",
               "--q", str(q), "--l", str(l), "--steps", STEPS, "--seed", "11",
               "--trace", str(trace), "--summary", str(summary)])
    assert rc == 0
    return sha256(trace), sha256(summary)


def run_study(tmp_path: Path, condition: str = "II") -> str:
    out = tmp_path / "study.csv"
    assert main(["strategy-study", *STUDY_ARGS, "--condition", condition,
                 "--out", str(out)]) == 0
    return sha256(out)


def relabelled_scene4(tmp_path: Path) -> Path:
    """scene4 with drone ids from 100 and object ids from 1000 in steps of 7
    and 11, dealt out of file order and listed in reverse."""
    scene = load_scene(SCENES / "scene4.json")
    m, n = len(scene.drones), len(scene.objects)
    drones = [d._replace(id=100 + 7 * (3 * i % m)) for i, d in enumerate(scene.drones)]
    objects = [o._replace(id=1000 + 11 * (7 * j % n)) for j, o in enumerate(scene.objects)]
    path = tmp_path / "relabelled.json"
    save_scene(replace(scene, drones=tuple(reversed(drones)),
                       objects=tuple(reversed(objects))), path)
    return path


def run_relabelled(name: str, tmp_path: Path) -> str:
    condition, checker, theta = RELABELLED_RUNS[name]
    trace = tmp_path / f"{name}-trace.csv"
    assert main(["run", "--scene", str(relabelled_scene4(tmp_path)), "--condition", condition,
                 "--checker", checker, f"--theta={theta}", "--steps", STEPS, "--seed", "11",
                 "--trace", str(trace), "--summary", str(tmp_path / "summary.csv")]) == 0
    return sha256(trace)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_csvs_match_golden_hashes(name, tmp_path, capsys):
    assert run_case(name, tmp_path) == GOLDEN_RUNS[name]


def test_strategy_study_csv_matches_golden_hash(tmp_path, capsys):
    assert run_study(tmp_path) == GOLDEN_STUDY


def test_condition_I_strategy_study_csv_matches_golden_hash(tmp_path, capsys):
    assert run_study(tmp_path, "I") == GOLDEN_STUDY_I


@pytest.mark.parametrize("name", sorted(RELABELLED_RUNS))
def test_relabelled_scene_traces_match_golden_hashes(name, tmp_path, capsys):
    assert run_relabelled(name, tmp_path) == GOLDEN_RELABELLED[name]


def _golden_table(tmp_path: Path) -> str:
    """Print-ready GOLDEN_RUNS, GOLDEN_STUDY, GOLDEN_STUDY_I and GOLDEN_RELABELLED from the
    current code."""
    lines = ["GOLDEN_RUNS = {"]
    for name in sorted(RUNS):
        trace, summary = run_case(name, tmp_path)
        lines.append(f'    "{name}": (\n        "{trace}",\n        "{summary}",\n    ),')
    lines.append("}")
    lines.append(f'GOLDEN_STUDY = "{run_study(tmp_path)}"')
    lines.append(f'GOLDEN_STUDY_I = "{run_study(tmp_path, "I")}"')
    lines.append("GOLDEN_RELABELLED = {")
    lines.extend(f'    "{name}": "{run_relabelled(name, tmp_path)}",'
                 for name in sorted(RELABELLED_RUNS))
    lines.append("}")
    return "\n".join(lines)
