"""Every generated source, pinned by digest.

Keeping derived facts on the syntax nodes (free and bound names,
modalities, the last source printed) changes what printing a source
costs, never what it prints. These digests pin, byte for byte, every
source the compiler is handed on the benchmark's set-up
(`perfbench/prepare.py`: every corpus model, the four check sets' cold
checks and one short run of each simulated model) and by each loadable
corpus model's CompiledSystem and run pass under each strategy.

`prepare` was taken again when the checker's grid search became
generated code: its sources (the search in place of a point function
and antecedent per goal) changed by design. The `model/strategy`
digests did not move.

Run as a script to print the digests of the code on the path:

    PYTHONPATH=src python tests/test_source_digests.py
"""

import contextlib
import hashlib
import importlib.util
import json
from pathlib import Path

from ccskit import dsl, simulator
from ccskit.errors import CcsError

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

DIGESTS = {
    "prepare": "ce6d99836ec7e5521436fa949b8797fcf7fc1f28a4e12db9ea8759e364d9fb19",
    "two_tanks/uniform-random": "be21e08274ce35f2564cc2ce669068b799218cb2acdfe3af352abf1453bc8cd4",
    "two_tanks/lazy-controller": "bb6113047e44c9741f89868c004cfc1bb1be1b54b89a370b686cebcf91fffee2",
    "two_tanks/round-robin": "7d9f357ac3c9ae80911511ca43243ccc6de44f446cc0f2a78722ae0fa6d2219b",
    "watertank/uniform-random": "cdbad35dc65299643befc314969c10567f0a2b59620aafefff5eef20501692ba",
    "watertank/lazy-controller": "b1077c77c49d23c8bb7f7da1bb8381a1f2b940f7275303cc1e3213fd6a3c83f1",
    "watertank/round-robin": "d35e6e291bf1a8d33be4125a70fc8532dbfdfce24f31709f78b731a344a095d4",
    "watertank_late_ctrl/uniform-random": "07bfdcd9264cdd1b9a341778455567b704e09b8eed72f0f6d6bd85c1fa091b19",
    "watertank_late_ctrl/lazy-controller": "8f3925b50a1052d4c339cb7c048fc40e2daa3f8731883ce99ceb44cee2898689",
    "watertank_late_ctrl/round-robin": "f341ff9f2d61cd6253419fbc1dbd49ac3166518efcbcef92cc5eb73b787e7cdf",
    "watertank_tight/uniform-random": "a1cabafbd79f047a8816ae00cf2ad3e659e443e1b624f598d703e6ce26096bc0",
    "watertank_tight/lazy-controller": "ee37ccf92ab4bfb13520edc7de664119a65a38f1eb5c4672721efa6ea40f66fd",
    "watertank_tight/round-robin": "2b52049509cdad38e535ac926280e5b6b6aaa3aaf016ae1eb30651d6b7af012c",
}


@contextlib.contextmanager
def _recorded():
    """The set of `params\\0source` texts handed to compile_source inside
    the block, compiled or found in its cache."""
    sources: set[str] = set()
    compile_source = simulator.compile_source

    def record(params: str, src: str):
        sources.add(f"{params}\0{src}")
        return compile_source(params, src)

    simulator.compile_source = record
    try:
        yield sources
    finally:
        simulator.compile_source = compile_source


def _digest(sources: set[str]) -> str:
    return hashlib.sha256("\n".join(sorted(sources)).encode()).hexdigest()


def source_digests() -> dict[str, str]:
    """`prepare` over every corpus model, then `model/strategy` for each
    loadable model's CompiledSystem and run pass."""
    spec = importlib.util.spec_from_file_location("prepare", ROOT / "perfbench" / "prepare.py")
    prepare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(prepare)
    models = sorted(p.stem for p in CORPUS.glob("*.ccs"))
    simulated = sorted(p.name.split(".")[0] for p in CORPUS.glob("*.init.json"))
    out = {}
    with _recorded() as sources:
        prepare.prepare(models, simulated, list(prepare.CHECK_BOXES))
    out["prepare"] = _digest(sources)
    for model in models:
        try:
            system = dsl.load_file(CORPUS / f"{model}.ccs")
        except CcsError:
            continue
        for strategy in simulator.STRATEGIES:
            with _recorded() as sources:
                simulator.CompiledSystem(system).run_pass(strategy)
            out[f"{model}/{strategy}"] = _digest(sources)
    return out


def test_every_generated_source_is_byte_for_byte_pinned():
    assert source_digests() == DIGESTS


if __name__ == "__main__":
    print(json.dumps(source_digests(), indent=4))
