#!/usr/bin/env python3
"""Rewrite perfbench/pinned.json: the bit-identity reference for `ccs simulate`.

    python3 perfbench/pin.py

Runs `ccs simulate` on the pinned batch for every (model, strategy) pair a
workload simulates, and records its exit code and the digests of the summary
it prints and of the run-0 CSV it writes. Rerun it only when a change is
meant to alter simulation results, and say so with the change.
"""

import json
import os
import shutil

from run import HERE, PIN_SCHEDULES, PIN_SEED, PINNED, PINNED_PAIRS, WORK, Launcher
from run import pinned_digests

work = WORK / f"pin-{os.getpid()}"
work.mkdir(parents=True)
launcher = Launcher()
try:
    digests = {f"{m}/{s}": pinned_digests(launcher, m, s, work) for m, s in PINNED_PAIRS}
finally:
    launcher.close()
    shutil.rmtree(work)
PINNED.write_text(json.dumps(
    {"seed": PIN_SEED, "schedules": PIN_SCHEDULES, "digests": digests}, indent=2) + "\n")
print(f"wrote {PINNED.relative_to(HERE.parent)}")
