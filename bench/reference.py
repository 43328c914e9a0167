#!/usr/bin/env python3
"""Write reference.json: digests of each workload's outputs at fixed seeds.

    python3 bench/reference.py

Runs one round of every workload at the default seed (100) and the held-out
seed (7919), checks it with the workload's oracles, and stores a SHA-256
digest of each operation's output. run.py compares a run's first round with
these digests whenever its seed is stored, so a change that alters results
reads `correct: false`. Rewrite the file only with a change that is meant to
alter the program's results, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

SEEDS = (100, 7919)


def main() -> int:
    ts = run.import_program()
    table = {}
    for name, cls in run.WORKLOADS.items():
        for seed in SEEDS:
            run.OUT.mkdir(exist_ok=True)
            workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=run.OUT))
            try:
                workload = cls(ts, seed, run.load_scenes(ts, cls.scene_names), workdir)
                outputs = {op.name: op.run() for op in workload.ops()}
                errors = workload.check(outputs)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if errors:
                sys.exit(f"{name} seed {seed} fails its checks: {errors}")
            table.setdefault(name, {})[str(seed)] = run.digests(workload, outputs)
            print(f"{name} seed {seed}: {len(outputs)} outputs", flush=True)
    run.REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
