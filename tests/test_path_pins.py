"""Pinned runs and bounded checks on paths the corpus does not reach.

The corpus models are piecewise-constant actuation under affine domains
and never stop right at a guard expiry, so their pins leave several
simulator paths unpinned. Each small model here takes one of them:

* `late`: its one controller is enabled only within 1e-5 of its guard
  expiry, so a uniform-random run evolves right up to the expiry, snaps
  the clock onto it and fires there;
* `decay`: a right-hand side that reads an evolved variable (RK4 steps,
  a scan and a bisection at the domain exit);
* `bowl`: constant slopes under a non-affine domain (scan and bisect
  along the exact path);
* `rail`: `=` and `!=` domain conjuncts on the exact affine path.

Watertank runs with `MAX_ITERATIONS` lowered pin where a truncated run
stops. Each digest is the sha256 of a run's points, violations, end
time, truncated flag and residual, or of a bounded check's result; a
changed digest means a trace or a verdict moved.
"""

import hashlib
import json

import pytest

import ccskit.simulator
from ccskit import dsl
from ccskit.ast import Box
from ccskit.errors import StuckState
from ccskit.obligations import check_bounded
from ccskit.simulator import STRATEGIES, Schedule, run, run_batch


def _model(ctrl: str, body: str, plant: str, ode: str) -> str:
    return f"""
controller {ctrl} every 0.05 {{
  {body}
}}

plant {plant} within 0.2 {{
  {ode}
}}

contract {ctrl} {{ assume true guarantee true init true }}
contract {plant} {{ assume true guarantee true init true }}

system {ctrl} = {ctrl} | {plant}
"""


# Turn v around near x = lo and x = hi.
_TURN = "(?(x >= {hi}); v := -1 U ?(x <= {lo}); v := 1 U ?(x > {lo} & x < {hi}); v := v)"

MODELS = {
    "late": _model(
        "late", "?(t >= m + 0.04999); m := t;", "line", "x' = 1 & x >= 0"
    ),
    "decay": _model(
        "pump", _TURN.format(lo=0.52, hi=1.9), "decay",
        "x' = v * x & x >= 0.5 & x <= 1.95",
    ),
    "bowl": _model(
        "turn", _TURN.format(lo=-1.97, hi=1.97), "bowl", "x' = v & x * x <= 4"
    ),
    "rail": _model(
        "gate", "w := 0; " + _TURN.format(lo=-1.97, hi=1.97), "rail",
        "x' = v, y' = w & y = 0 & x != 2 & x >= -2",
    ),
}

INITS = {
    "late": {"x": 0, "m": 0, "t": 0, "tau_1": 0},
    "decay": {"x": 1, "v": -1, "t": 0, "tau_1": 0},
    "bowl": {"x": 0, "v": 1, "t": 0, "tau_1": 0},
    # w = 1 at the start holds the flow at y = 0 until the first firing.
    "rail": {"x": 0, "y": 0, "v": 1, "w": 1, "t": 0, "tau_1": 0},
}

WT_INIT = {"wl": 5.0, "wlm": "=wl", "fin": 1, "t": 0, "tau_1": 0}


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _trace_digest(trace) -> str:
    return _digest(
        {
            "points": [[p.time, p.event, p.values] for p in trace.points],
            "violations": [[v.time, v.monitor, v.values] for v in trace.violations],
            "end_time": trace.end_time,
            "truncated": trace.truncated,
            "max_invariant_residual": trace.max_invariant_residual,
        }
    )


# -- runs ----------------------------------------------------------------------

# (model, strategy, seed) -> trace digest, horizon 3. `late` only under
# uniform-random: the other two strategies stall it short of its expiry
# until MAX_ITERATIONS.
RUN_PINS = {
    ("bowl", "lazy-controller", 0): "d7a9ee2851049c9e64b262e1f3d24bd97565c53bf6858a8b5faffeacfe0b2a4c",
    ("bowl", "round-robin", 0): "5989b4305666ead00a9fef2e66bc87f9eb47a963551bea9eb5d901fdd916e2d3",
    ("bowl", "uniform-random", 0): "e11ae2d67f5f188a592be084b560fc56e96b0a305eb39484c888429e97e14518",
    ("bowl", "uniform-random", 1): "3f726cf29cdbe93059c66a0ef37c72064bf57d7f7abcd2913d73d4538d8acb28",
    ("decay", "lazy-controller", 0): "12311e6e4e18cbc6f51b93daffedd43157af973f81ab39b714156abf62f0b19d",
    ("decay", "round-robin", 0): "1e3d900cdd10ccd804824a158b69ad04b502400f3616e73193d4035097018e06",
    ("decay", "uniform-random", 0): "fb1ec717f3d23710cbe9f3dbf9af275ddb7d739481f79fc060abee80d6c8f5aa",
    ("decay", "uniform-random", 1): "3305ef65dd5d2d192ca83800fba171a93f4e90e01f5bcf8c99298bc477df7cbf",
    ("late", "uniform-random", 0): "c1e58bc0a6d12d6bafb7e317768fce7eea3fac233c93315e043cedaa52966768",
    ("late", "uniform-random", 1): "af9b903d000e6eaeeced9cc4cf35988cc1f506bd914a9905ee6377544f64a6bb",
    ("rail", "lazy-controller", 0): "d1483a68437ca005d760bffc17b68a6be51e0e09346ecdcb28751b709f7911e2",
    ("rail", "round-robin", 0): "d4084a8a54a4c8dd2223411c3624c1f9dcb38d5a281107e5e756c9644e021789",
    ("rail", "uniform-random", 0): "56c8f252484fdb2f958f54a25e7d31cf3b4efc4ee3cc6f2a4eaad67af3db4b5a",
    ("rail", "uniform-random", 1): "04dca599ab3492961b335665881776ae706b46cc7fcc7a87738445047f55b42a",
}


@pytest.mark.parametrize("model,strategy,seed", sorted(RUN_PINS))
def test_runs_on_uncovered_paths_are_pinned(model, strategy, seed):
    system = dsl.load(MODELS[model])
    trace = run(system, Schedule(strategy=strategy, seed=seed, horizon=3.0), INITS[model])
    assert _trace_digest(trace) == RUN_PINS[model, strategy, seed]


def test_late_controller_fires_on_its_guard_expiry():
    trace = run(dsl.load(MODELS["late"]), Schedule(seed=0, horizon=1.0), INITS["late"])
    events = [p.event for p in trace.points]
    assert events.count("guard-expiry") == 20
    # Each snap lands the clock on the expiry, where the controller fires
    # unless the horizon is reached.
    for i, event in enumerate(events[:-2]):
        if event == "guard-expiry":
            assert events[i + 1 : i + 3] == ["loop-boundary", "ctrl-fired(late)"]
    assert events[-2:] == ["guard-expiry", "loop-boundary"]


LATE_BATCH_PIN = "16367ce7dd057035234a2701cad7e9be397325688e4ddf8c20da80960a5cb9e9"


def test_late_batch_is_pinned():
    box = {"x": [0, 1], "m": 0, "t": 0, "tau_1": 0}
    summary = run_batch(dsl.load(MODELS["late"]), 4, 5, box, horizon=1.0)
    assert _digest(summary.to_json()) == LATE_BATCH_PIN


# strategy -> trace digest of a watertank run cut at 50 passes.
TRUNCATED_PINS = {
    "uniform-random": "adf14c68026099bf69c656a5f1579c11acbeaaf99dfc467944f14bdee0d385a3",
    "lazy-controller": "31bed54501eea41c796f92cf6b88051c26c7f4111acca90d4a01c5658620d313",
    "round-robin": "31bed54501eea41c796f92cf6b88051c26c7f4111acca90d4a01c5658620d313",
}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_truncated_runs_are_pinned(strategy, watertank, monkeypatch):
    monkeypatch.setattr(ccskit.simulator, "MAX_ITERATIONS", 50)
    trace = run(watertank, Schedule(strategy=strategy, seed=3), WT_INIT)
    assert trace.truncated and trace.end_time < 20.0
    assert _trace_digest(trace) == TRUNCATED_PINS[strategy]


STUCK_MODEL = _model("noop", "?(x < 0); y := 1;", "wall", "x' = 1 & x <= 0")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_stuck_runs_stop_at_a_pinned_time(strategy):
    system = dsl.load(STUCK_MODEL)
    init = {"x": -0.3, "y": 0, "t": 0, "tau_1": 0}
    with pytest.raises(StuckState) as stuck:
        run(system, Schedule(strategy=strategy, seed=2, horizon=1.0), init)
    assert str(stuck.value) == STUCK_PINS[strategy]


STUCK_PINS = {
    "uniform-random": "no enabled transition at t = 0.300000000",
    "lazy-controller": "no enabled transition at t = 0.300000000",
    "round-robin": "no enabled transition at t = 0.300000000",
}


# -- bounded checks --------------------------------------------------------------

# (model, post) -> digest of check_bounded([guarded ODE] post) on the
# model's box, grid 3, 8 flow samples. Each failing post fails only where
# the flow meets the domain's edge, so its counterexample is a flow state.
CHECK_BOXES = {
    "decay": {"x": [0.51, 0.53], "v": [-1, 1], "t": 0, "tau_1": 0},
    "bowl": {"x": [1.95, 1.99], "v": [-1, 1], "t": 0, "tau_1": 0},
    "rail": {"x": [1.96, 1.99], "y": 0, "v": [-1, 1], "w": [0, 1], "t": 0, "tau_1": 0},
}

CHECK_PINS = {
    ("decay", "x > 0.50001"): "8d04e1d1db572754ab234ca308506dc7a4c9bfc760a11d953e931455bfb23135",
    ("decay", "x < 0.54"): "5a0835c70755644223caeb4af730de9749ec8965047aaf8bff9819aed7abda29",
    ("bowl", "x < 1.9999"): "5f6794058445385974c96dca7d5a700a8116b47f5f56c467771e025892f526bb",
    ("bowl", "x * x <= 4"): "0f1ca72a59650dc7dec2a652afea42b4f46532e3a2ad3be8fb22e14115955f6b",
    ("rail", "x < 1.9999"): "5c041b9d7a6dc8e0ad1590203ac9794d90ad3ca1919a6bcad7da533972ae9d4f",
    ("rail", "y = 0"): "04bf605412d637352bba9269ffecf8af678119d23d6859257fd2d73308902980",
}


@pytest.mark.parametrize("model,post", sorted(CHECK_PINS))
def test_flow_checks_are_pinned(model, post):
    ode = dsl.load(MODELS[model]).guarded_ode()
    goal = Box(ode, dsl.parse_formula_text(post))
    result = check_bounded(goal, CHECK_BOXES[model], grid=3, flow_samples=8)
    assert _digest(result.to_json()) == CHECK_PINS[model, post]


@pytest.mark.parametrize("edge", ["x < 2", "x != 2"])
def test_an_open_domain_is_sampled_inside_its_exit(edge):
    """The exact path's last sample is the last state the domain holds
    in, not the exit point it excludes."""
    goal = dsl.parse_formula_text(f"x = 1.9 -> [{{x' = 1, t' = 1 & {edge}}}] {edge}")
    result = check_bounded(goal, {"x": [1.8, 1.9], "t": 0}, grid=2)
    assert (result.status, result.checked, result.counterexample) == ("holds", 1, None)


OPEN_FLOW_PIN = "bd231ed5fa90ef20698bcf469fcaf0d25f5513bc03ddaff66221b1c48c0ba612"


def test_a_flow_that_never_leaves_its_domain_is_pinned():
    # Without its guards, `bowl` at v = 0 never leaves its domain, and
    # flow_states stops at FLOW_MAX_STEPS.
    ode = dsl.load(MODELS["bowl"]).plant.ode()
    goal = Box(ode, dsl.parse_formula_text("x * x <= 4"))
    box = {"x": 1, "v": [-1, 1], "t": 0}
    result = check_bounded(goal, box, grid=3, flow_samples=8)
    assert "truncated" in result.caveat
    assert _digest(result.to_json()) == OPEN_FLOW_PIN
