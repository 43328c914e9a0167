"""Golden outputs: SHA-256 of the CSVs that `twinsync run` and `strategy-study` write.

The cases together cover every checker, the conditions none, I and II, the
three update strategies, q/l = 1/1 and 5/10, both bias modes and signed
estimation noise, at 200 steps or fewer per run. Any change to what the
simulator computes, down to the last bit of a float repr, changes a hash.
A deliberate change of behaviour regenerates the table with `_golden_table`
and records why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from twinsync.cli import main

SCENES = Path(__file__).resolve().parent.parent / "scenes"
STEPS = "200"

# name: (scene, condition, checker, theta, strategy, q, l, extra flags)
RUNS = {
    "none-state-update": ("scene1", "none", "state", "0.5", "update", 1, 1, []),
    "none-knowledge-forced": ("scene2", "none", "knowledge", "-1", "update", 1, 1, []),
    "I-knowledge-update": ("scene2", "I", "knowledge", "2", "update", 1, 1, []),
    "I-action-keep": ("scene1", "I", "action", "0.2", "keep", 1, 1, []),
    "I-action2-clear-fixed": ("scene4", "I", "action2", "0.3", "clear", 5, 10,
                              ["--bias-mode", "fixed"]),
    "I-state-free": ("scene3", "I", "state", "inf", "update", 1, 1, []),
    "II-state-update": ("scene3", "II", "state", "1", "update", 5, 10, []),
    "II-knowledge-clear-signed": ("scene5", "II", "knowledge", "1", "clear", 1, 1,
                                  ["--signed-noise"]),
    "II-action2-keep-signed-fixed": ("scene6", "II", "action2", "0.5", "keep", 5, 10,
                                     ["--signed-noise", "--bias-mode", "fixed"]),
    "II-action-update": ("scene4", "II", "action", "0.1", "update", 1, 1, []),
}

GOLDEN_RUNS = {
    "I-action-keep": (
        "5875bd65f09f7fb1d7938d880464d6e089e4ff69de21322e3b371edb41b1e72d",
        "e783d4141d073d3ac26ba211b130d0cc779df36627a79540e11f716b2f9f5413",
    ),
    "I-action2-clear-fixed": (
        "cfbd91385712210c36f89c9784570c31ae387e91bdf716dc6c204e411ccbeabd",
        "d15a33ea1f980287f8bd8e2a414a5cde4799790c58ba2e04842bad96aa86659f",
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
    "II-action2-keep-signed-fixed": (
        "ff8fe450de33f9177d285b9be356a77d177a25d4490722f838a8e7f28721930e",
        "e2fe5fded9e37100de56736fd238d06f6cc1b615d32560bdccd9ddcd969c89fe",
    ),
    "II-knowledge-clear-signed": (
        "c0a16fa4e7bd13821d23a0a7f93fa8ab9070a2861ffbb4542ffff740534ec970",
        "541454aa5fcadfc421344d5af12685e273b90a4d4b5e70bd725a3afc18f5e23b",
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

STUDY_ARGS = ["--scene", str(SCENES / "scene6.json"), "--condition", "II",
              "--samples", "3", "--repeats", "2", "--seed", "9",
              "--accumulation", "20", "--evaluation", "20",
              "--start-min", "1", "--start-max", "60", "--horizon", "100",
              "--signed-noise"]
GOLDEN_STUDY = "470f5117022e841b79a51ef15f17f0b574516442c55530cd9587be61cfb367ec"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_case(name: str, tmp_path: Path) -> tuple[str, str]:
    scene, condition, checker, theta, strategy, q, l, extra = RUNS[name]
    trace, summary = tmp_path / f"{name}-trace.csv", tmp_path / f"{name}-summary.csv"
    rc = main(["run", "--scene", str(SCENES / f"{scene}.json"), "--condition", condition,
               "--checker", checker, f"--theta={theta}", "--strategy", strategy,
               "--q", str(q), "--l", str(l), "--steps", STEPS, "--seed", "11",
               "--trace", str(trace), "--summary", str(summary), *extra])
    assert rc == 0
    return sha256(trace), sha256(summary)


def run_study(tmp_path: Path) -> str:
    out = tmp_path / "study.csv"
    assert main(["strategy-study", *STUDY_ARGS, "--out", str(out)]) == 0
    return sha256(out)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_csvs_match_golden_hashes(name, tmp_path, capsys):
    assert run_case(name, tmp_path) == GOLDEN_RUNS[name]


def test_strategy_study_csv_matches_golden_hash(tmp_path, capsys):
    assert run_study(tmp_path) == GOLDEN_STUDY


def _golden_table(tmp_path: Path) -> str:
    """Print-ready GOLDEN_RUNS and GOLDEN_STUDY from the current code."""
    lines = ["GOLDEN_RUNS = {"]
    for name in sorted(RUNS):
        trace, summary = run_case(name, tmp_path)
        lines.append(f'    "{name}": (\n        "{trace}",\n        "{summary}",\n    ),')
    lines.append("}")
    lines.append(f'GOLDEN_STUDY = "{run_study(tmp_path)}"')
    return "\n".join(lines)
