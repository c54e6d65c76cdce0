"""The generated run pass against the loop it replaced, and its parts.

`_reference_run` is the interpretive loop `_run` used to be: closures
for evolving the plant and firing a controller, `rng.shuffle` over the
controllers, an `expiries` list per pass. The generated pass must record
the same events, states and violations, bit for bit, on every strategy:
one controller (watertank), two (two_tanks), three with a choice of
final states, and flows that scan (RK4, or a domain that is not affine).
The inline two-controller draw is pinned against `random.shuffle`, and
the batch's reductions against the folds they replaced.
"""

import json
import math
import random
from itertools import chain

import pytest
from hypothesis import example, given, settings, strategies as st

import ccskit.simulator
from ccskit import dsl
from ccskit.ast import print_formula
from ccskit.errors import InitViolatesAssumptions, StuckState
from ccskit.simulator import (
    BOUNDARY_TOLERANCE,
    DRAW_TWO,
    STRATEGIES,
    CompiledSystem,
    MonitorViolation,
    Schedule,
    batch_member,
    compile_program_over,
    compile_source,
)
from test_path_pins import INITS, MODELS


def _reference_run(system, cs: CompiledSystem, schedule: Schedule, init: dict):
    """`_run` as an interpretive loop: (events, states, violations,
    truncated), or StuckState."""
    values = ccskit.simulator._complete_init(cs.variables, cs.env_pins, init)
    state = tuple(values[n] for n in cs.layout)
    for label, f in cs.init_obligations:
        if not cs.holds(f)(state):
            raise InitViolatesAssumptions(f"{label}: {print_formula(f)}")
    delta, eps, clock, h = cs.delta, cs.eps, cs.clock, cs.h
    rng = random.Random(schedule.seed)
    controllers = [
        (code, cs.slots[rc.timestamp], compile_program_over(rc.ctrl, cs.slots))
        for code, rc in enumerate(system.controller.choices, 3)
    ]
    seg = cs.segment
    events, states, violations = [], [], []

    def record(s, code):
        states.append(s)
        events.append(code)

    def boundary(s):
        record(s, 0)
        for (name, text), ok in zip(cs.monitors, cs.truths(s)):
            if not ok:
                violations.append(MonitorViolation(s[clock], name, text, dict(zip(cs.layout, s))))

    def advance(s, dt_request):
        if seg.domain_affine:
            return seg.step(s, dt_request)
        end, dt, _exited, samples = seg.scan(s, dt_request, h)
        for mid in samples[:-1]:
            record(mid, 1)
        return end, dt

    def evolve(s, dt_request, next_expiry):
        end, dt = advance(s, dt_request)
        if dt <= 0.0:
            return s, False
        if abs(end[clock] - next_expiry) <= 2.0 * BOUNDARY_TOLERANCE:
            end = end[:clock] + (next_expiry,) + end[clock + 1:]
            record(end, 2)
        else:
            record(end, 1)
        return end, True

    def try_fire_any(order, s):
        for code, timestamp, program in order:
            if s[clock] > s[timestamp] + delta + BOUNDARY_TOLERANCE:
                continue
            outs = program(s, lambda: None)
            if outs:
                after = outs[0] if len(outs) == 1 else rng.choice(outs)
                return after[:timestamp] + (after[clock],) + after[timestamp + 1:], code
        return None

    boundary(state)
    horizon, uniform = schedule.horizon, schedule.strategy == "uniform-random"
    lazy = schedule.strategy == "lazy-controller"
    rr_index = 0
    for _ in range(ccskit.simulator.MAX_ITERATIONS):
        to_horizon = horizon - state[clock]
        if to_horizon <= BOUNDARY_TOLERANCE:
            break
        expiries = [state[timestamp] + delta for _, timestamp, _ in controllers]
        next_expiry = min(expiries)
        guard_room = next_expiry - state[clock]
        if to_horizon <= eps and guard_room >= to_horizon - BOUNDARY_TOLERANCE:
            state, _moved = evolve(state, to_horizon, next_expiry)
            boundary(state)
            break
        evolve_room = min(guard_room - eps, to_horizon)
        fired, advanced = None, False
        if uniform:
            if evolve_room > eps and rng.random() < 0.5:
                state, advanced = evolve(state, rng.uniform(eps, evolve_room), next_expiry)
            if not advanced:
                order = list(controllers)
                rng.shuffle(order)
                fired = try_fire_any(order, state)
        else:
            if lazy:
                target = controllers[expiries.index(next_expiry)]
            else:
                target = controllers[rr_index % len(controllers)]
                rr_index += 1
            order = [target] + [c for c in controllers if c is not target]
            if evolve_room > 0.0:
                state, advanced = evolve(state, evolve_room, next_expiry)
            if not (lazy and advanced and state[clock] < next_expiry - 2.0 * eps):
                fired = try_fire_any(order, state)
        if fired is not None:
            state, code = fired
            record(state, code)
        elif not advanced:
            remaining = min(guard_room, to_horizon)
            if remaining > BOUNDARY_TOLERANCE:
                state, advanced = evolve(state, remaining, next_expiry)
            if not advanced:
                raise StuckState(state[clock])
        boundary(state)
    else:
        return events, states, violations, True
    return events, states, violations, False


def _outcome(fn, *args):
    """`repr` of what `fn` returns, or of the error it raises: `repr`
    tells -0.0 from 0.0 and shows a NaN."""
    try:
        return repr(fn(*args))
    except StuckState as e:
        return f"StuckState({e})"


def _three(plant: str) -> str:
    """Three controllers on one plant: `a` fires one of two final states
    where both its tests hold, and two monitors fail near the top."""
    return f"""
controller a every 0.02 {{ (?(x <= 8); u := 1 U ?(x >= 2); u := -1) }}
controller b every 0.03 {{ w := x / 2 }}
controller c every 0.04 {{ (?(x >= 5); z := 1 U ?(x < 5); z := 0) }}
plant p within 0.2 {{ {plant} }}
contract a {{ assume true guarantee true init true }}
contract b {{ assume true guarantee true init true }}
contract c {{ assume true guarantee true init true }}
contract p {{ assume true guarantee x <= 9.5 init true }}
invariant three: x <= 9
system three = a, b, c | p
"""


THREE_INIT = {"x": [8, 10], "u": 1, "w": 0, "z": 0, "t": 0,
              "tau_1": 0, "tau_2": 0, "tau_3": 0}
SMALL_MODELS = {
    "three": (_three("x' = u & x >= 0 & x <= 10"), THREE_INIT),
    "three_rk4": (_three("x' = u * (x + 1) & x >= 0 & x <= 10"), THREE_INIT),
    "three_scan": (_three("x' = u & x * x <= 100 & x >= 0"), THREE_INIT),
}


def _systems(corpus_dir, strategy):
    for model in ("watertank", "watertank_late_ctrl", "watertank_tight", "two_tanks"):
        box = json.loads((corpus_dir / f"{model}.init.json").read_text())
        yield model, dsl.load_file(corpus_dir / f"{model}.ccs"), box
    for model, (text, box) in SMALL_MODELS.items():
        yield model, dsl.load(text), box
    for model, text in MODELS.items():  # a snap onto the guard expiry, RK4, scans
        if model != "late" or strategy == "uniform-random":  # `late` stalls the others
            yield model, dsl.load(text), INITS[model]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_pass_records_what_the_interpretive_loop_recorded(strategy, corpus_dir):
    for model, system, box in _systems(corpus_dir, strategy):
        cs = CompiledSystem(system)
        for i in range(4):
            schedule, init = batch_member(31, i, box, strategy, 3.0)
            expected = _outcome(_reference_run, system, cs, schedule, init)
            assert _outcome(ccskit.simulator._run, cs, schedule, init) == expected, (model, i)


def test_a_stuck_pass_and_a_truncated_pass_match_the_interpretive_loop(monkeypatch):
    text, box = SMALL_MODELS["three"]
    for body in ("(?(x <= 8); u := 1 U ?(x >= 2); u := -1)", "w := x / 2",
                 "(?(x >= 5); z := 1 U ?(x < 5); z := 0)"):
        text = text.replace(body, f"?(x >= 5); {body}")  # none fires below x = 5
    walled = dsl.load(text.replace("x <= 10", "x <= 1.5"))  # a wall it reaches in 0.01
    cs = CompiledSystem(walled)
    for strategy in STRATEGIES:
        schedule = Schedule(strategy, 5, 2.0)
        outcome = _outcome(_reference_run, walled, cs, schedule, {**box, "x": 1.49})
        assert outcome.startswith("StuckState")
        assert _outcome(ccskit.simulator._run, cs, schedule, {**box, "x": 1.49}) == outcome
    monkeypatch.setattr(ccskit.simulator, "MAX_ITERATIONS", 40)
    three = dsl.load(SMALL_MODELS["three"][0])
    for strategy in STRATEGIES:
        cs = CompiledSystem(three)  # a pass reads MAX_ITERATIONS when it is compiled
        schedule = Schedule(strategy, 5, 2.0)
        outcome = _outcome(_reference_run, three, cs, schedule, {**box, "x": 9.5})
        assert outcome.endswith("True)")
        assert _outcome(ccskit.simulator._run, cs, schedule, {**box, "x": 9.5}) == outcome


# -- the inline two-controller draw -------------------------------------------


def test_the_inline_draw_is_the_shuffle_of_two():
    """DRAW_TWO, compiled as the pass compiles it, keeps the order when
    `rng.shuffle` of two items keeps it, for 10,000 seeds and five draws
    each, and leaves the rng where the shuffle leaves it (CPython 3.11's
    `_randbelow`)."""
    draw = compile_source("bits", "".join(f"\n    {line}" for line in (*DRAW_TWO, "return keep")))
    for seed in range(10_000):
        shuffled, drawn = random.Random(seed), random.Random(seed)
        for _ in range(5):
            order = ["first", "second"]
            shuffled.shuffle(order)
            kept = draw(drawn.getrandbits)
            assert order == (["first", "second"] if kept else ["second", "first"]), seed
        assert drawn.random() == shuffled.random()


# -- the batch's reductions ---------------------------------------------------


def _reference_ranges(runs: list, width: int) -> dict:
    """The fold the batch used to take: per finished run, `zip(*distinct)`
    and `min(lo, *column)`/`max(hi, *column)` from the batch's range so
    far, or from the column's first value."""
    ranges: dict = {}
    for distinct in runs:
        for name, column in zip(range(width), zip(*distinct)):
            lo, hi = ranges.get(name, (column[0], column[0]))
            ranges[name] = (min(lo, *column), max(hi, *column))
    return ranges


def _batch_ranges(runs: list, width: int) -> dict:
    ranges = None
    for distinct in runs:
        ranges = ccskit.simulator._ranges(distinct, ranges or [(v, v) for v in distinct[0]])
    return dict(zip(range(width), ranges or ()))


_SPECIAL = st.sampled_from([math.nan, -math.nan, -0.0, 0.0, math.inf, -math.inf, 1.0, -1.0])
_REDUCED = st.one_of(_SPECIAL, st.floats())
_WIDTH = 3
_RUNS = st.lists(
    st.lists(st.tuples(*[_REDUCED] * _WIDTH), min_size=1, max_size=8), max_size=4
)
NAN, INF = math.nan, math.inf


@settings(max_examples=400, deadline=None)
@given(runs=_RUNS)
@example(runs=[[(NAN, 0.0, INF), (1.0, -0.0, -INF), (-2.0, 0.0, 3.0)]])  # NaN first
@example(runs=[[(1.0, -0.0, 2.0), (NAN, 0.0, NAN), (-1.0, -0.0, 5.0)]])  # NaN in the middle
@example(runs=[[(0.0, -0.0, 1.0)], [(-0.0, 0.0, 1.0), (0.0, -0.0, NAN)]])  # -0.0 ties 0.0
@example(runs=[[(1.0, 2.0, 3.0)], [(NAN, NAN, NAN), (0.5, 9.0, -INF)]])  # a later run starts NaN
@example(runs=[[(NAN, 1.0, 1.0)], [(-INF, INF, 0.0)]])  # a NaN range stays NaN
def test_the_ranges_are_the_fold_they_replaced(runs):
    """Compared by `repr`, so each bound's sign and NaN count."""
    assert repr(_batch_ranges(runs, _WIDTH)) == repr(_reference_ranges(runs, _WIDTH))


@settings(max_examples=300, deadline=None)
@given(states=st.lists(st.tuples(_REDUCED, _REDUCED), max_size=12))
@example(states=[(NAN, 1.0), (2.0, -0.0), (-0.0, INF)])
@example(states=[(INF, -INF), (-0.0, 0.0)])
def test_the_residual_is_the_fold_it_replaced(two_tanks, states):
    """The generated residual against `max` from 0.0 over each state's
    gaps in turn, two_tanks' two `=` conjuncts over wl1 and wl2 (every
    other slot 0.0), compared by `repr`."""
    cs = CompiledSystem(two_tanks)
    full = []
    for wl1, wl2 in states:
        s = [0.0] * len(cs.layout)
        s[cs.slots["wl1"]], s[cs.slots["wl2"]] = wl1, wl2
        full.append(tuple(s))
    reference = max(chain((0.0,), chain.from_iterable(map(cs.gaps, full))))
    assert repr(cs.residual(full)) == repr(reference)
