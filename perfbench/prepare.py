"""Benchmark set-up, shared by the benchmark process and the set-up probe.

`prepare` does everything the benchmark needs before its first timed
operation: import ccskit, load the models, read the init boxes, build the
obligation sets and make the first, cold in-process calls (which fill the
simulator's compile caches). Run as a script it does this once in a fresh
interpreter and prints the seconds it took, so `setup_s` is measured as a
median over fresh processes:

    PYTHONPATH=src python3 perfbench/prepare.py '<json spec>'
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

FLOW_SAMPLES = 8
COLD_GRID = 2

# The watertank domain box of tests/test_acceptance.py and
# tests/test_obligations.py; the two_tanks box extends it to wl1, wl2 and
# fout2 with the bands of corpus/two_tanks.ccs.
WT_BOX = {"wl": [3, 7], "wlm": "=wl", "fin": [0, 1], "fout": 0.75, "t": 0, "tau_1": 0}
TT_BOX = {
    "wl1": [3, 7],
    "wlm": "=wl1",
    "wl2": [2, 10],
    "wlm2": "=wl2",
    "fin": [0, 1],
    "fout2": [0, 1],
    "fout1": 0.75,
    "t": 0,
    "tau_1": 0,
    "tau_2": 0,
}
CHECK_BOXES = {
    "watertank": WT_BOX,
    "two_tanks": TT_BOX,
    "vacuous": WT_BOX,
    "watertank_tight": WT_BOX,
}


def prepare(models: list[str], sim_models: list[str], check_sets: list[str]) -> dict:
    """Load `models`, read the init boxes of `sim_models`, build the
    obligations of `check_sets` and make the cold calls. Returns the
    prepared inputs plus the time of the cold calls alone."""
    from ccskit import dsl
    from ccskit.ast import TRUE
    from ccskit.components import Contract, make_ccs, with_contract
    from ccskit.errors import CcsError
    from ccskit.obligations import check_bounded, obligations_ccs
    from ccskit.simulator import Schedule, run, sample_init

    texts = {m: (CORPUS / f"{m}.ccs").read_text() for m in models}
    systems = {}
    for m, text in texts.items():
        try:
            systems[m] = dsl.load(text)
        except CcsError:
            systems[m] = None  # a rejected model; its rejection is checked later
    inits = {m: json.loads((CORPUS / f"{m}.init.json").read_text()) for m in sim_models}

    wt = systems["watertank"]
    check_systems = dict(systems)
    # The contract-free system of acceptance criterion 7.
    check_systems["vacuous"] = make_ccs(
        with_contract(wt.controller.choices[0], Contract()),
        with_contract(wt.plant, Contract()),
        env=wt.env,
        invariant=TRUE,
        name="vacuous",
    )
    obligations = {name: obligations_ccs(check_systems[name]) for name in check_sets}

    t0 = time.perf_counter()
    for name, obs in obligations.items():
        for ob in obs:
            check_bounded(ob, CHECK_BOXES[name], grid=COLD_GRID, flow_samples=FLOW_SAMPLES)
    for m in sim_models:
        init = sample_init(inits[m], random.Random(0))
        run(systems[m], Schedule(strategy="lazy-controller", seed=0, horizon=1.0), init)
    cold_s = time.perf_counter() - t0
    return {
        "texts": texts,
        "systems": systems,
        "inits": inits,
        "obligations": obligations,
        "cold_s": cold_s,
    }


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    t_start = time.perf_counter()
    prepared = prepare(spec["models"], spec["sim_models"], spec["check_sets"])
    print(json.dumps({"setup_s": time.perf_counter() - t_start, "cold_s": prepared["cold_s"]}))
