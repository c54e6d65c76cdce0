"""Closed-loop execution: exact flows, schedules, monitors, batches.

The water tank's dynamics are piecewise linear, so the expected level
is computable by hand at every sample: wl = (fin - fout)(t - tau) + wlm
between controller firings. The trace tests recompute that line
independently and require agreement to 1e-9, which pins the integrator
to the exact path rather than an approximation of it.
"""

import csv
import functools
import hashlib
import json
import math
import pickle
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import ccskit.simulator
import randgen
from ccskit import dsl
from ccskit.ast import (
    And,
    Assign,
    Box,
    Choice,
    Compare,
    Divide,
    FalseF,
    Implies,
    Loop,
    Minus,
    Neg,
    Not,
    ODE,
    Or,
    Plus,
    Rational,
    Seq,
    Test as Guard,
    Times,
    TRUE,
    TrueF,
    Variable,
    choice,
    conj,
    conjuncts,
    num,
    print_term,
    seq,
    var,
)
from ccskit.components import (
    Contract,
    MultiChoiceController,
    make_ccs,
    make_controllable_plant,
    make_reactive_controller,
)
from ccskit.errors import (
    CcsError,
    DivisionByZero,
    InitViolatesAssumptions,
    StuckState,
    UnboundedVariable,
)
from ccskit.obligations import check_bounded, obligations_ccs
from ccskit.simulator import (
    STRATEGIES,
    CompiledSystem,
    FlowSegment,
    Schedule,
    Trace,
    TracePoint,
    batch_member,
    batch_schedule_seed,
    compile_program_over,
    compile_source,
    compile_tuple,
    complete_init,
    emit_term,
    flow_states,
    run,
    run_batch,
    sample_init,
    slots_of,
    write_trace_csv,
)
from dict_states import formula_on_dicts, program_on_dicts, term_on_dicts

WT_INIT = {"wl": 5.0, "wlm": "=wl", "fin": 1, "t": 0, "tau_1": 0}


# -- the term and formula compiler -------------------------------------------

# Python keywords, names of the generated code's own parameters and helpers,
# quotes and backslashes: variables are only ever slots, never names.
AWKWARD_NAMES = [
    "x", "lambda", "if", "not", "s", "d", "_h", "_div", "_dz", "_d0", "'", '"', "\\",
    "a'b\\c",
]


def _tree_term(t, s):
    """Direct evaluation, in the order the compiled code must keep:
    operands left to right, a denominator before its numerator."""
    if isinstance(t, Variable):
        return s[t.name]
    if isinstance(t, Rational):
        return float(t.value)
    if isinstance(t, Neg):
        return -_tree_term(t.operand, s)
    if isinstance(t, Divide):
        d = _tree_term(t.right, s)
        if d == 0.0:
            raise DivisionByZero(print_term(t))
        return _tree_term(t.left, s) / d
    left, right = _tree_term(t.left, s), _tree_term(t.right, s)
    if isinstance(t, Plus):
        return left + right
    if isinstance(t, Minus):
        return left - right
    assert isinstance(t, Times)
    return left * right


def _tree_formula(f, s):
    if isinstance(f, (TrueF, FalseF)):
        return isinstance(f, TrueF)
    if isinstance(f, Compare):
        left, right = _tree_term(f.left, s), _tree_term(f.right, s)
        return {
            "=": lambda: abs(left - right) <= 1e-9,
            "!=": lambda: abs(left - right) > 1e-9,
            "<=": lambda: left <= right,
            "<": lambda: left < right,
            ">=": lambda: left >= right,
            ">": lambda: left > right,
        }[f.op]()
    if isinstance(f, Not):
        return not _tree_formula(f.operand, s)
    if isinstance(f, And):
        return _tree_formula(f.left, s) and _tree_formula(f.right, s)
    if isinstance(f, Or):
        return _tree_formula(f.left, s) or _tree_formula(f.right, s)
    assert isinstance(f, Implies)
    return (not _tree_formula(f.left, s)) or _tree_formula(f.right, s)


def _outcome(fn, *args):
    """A value as its exact bits (so -0.0 and NaN payloads count), or the
    error it raised."""
    try:
        value = fn(*args)
    except (DivisionByZero, KeyError) as e:
        return type(e).__name__, str(e)
    return struct.pack("d", value) if isinstance(value, float) else value


# Zero-heavy values make divisions by zero common; a name may be missing,
# so a KeyError and a division by zero race in both orders.
_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0]), st.floats())
_STATES = st.fixed_dictionaries({}, optional={n: _VALUES for n in AWKWARD_NAMES})


@settings(deadline=None)
@given(randgen.terms(AWKWARD_NAMES), _STATES)
def test_compiled_terms_match_tree_evaluation_bit_for_bit(t, s):
    assert _outcome(term_on_dicts(t), s) == _outcome(_tree_term, t, s)


@settings(deadline=None)
@given(randgen.formulas(AWKWARD_NAMES), _STATES)
def test_compiled_formulas_match_tree_evaluation(f, s):
    assert _outcome(formula_on_dicts(f), s) == _outcome(_tree_formula, f, s)


def test_division_by_zero_names_the_printed_term():
    t = Divide(var("x"), Minus(var("y"), var("y")))
    with pytest.raises(DivisionByZero) as e:
        term_on_dicts(t)({"x": 1.0, "y": 3.0})
    assert e.value.term_text == print_term(t) == "x / (y - y)"
    # The denominator is checked before the numerator is read.
    with pytest.raises(DivisionByZero):
        term_on_dicts(t)({"y": 3.0})


def test_nested_divisions_keep_their_own_denominators():
    x, y, z = var("x"), var("y"), var("z")
    s = {"x": 1.0, "y": 2.0, "z": 4.0}
    for t in (
        Divide(Divide(x, y), z),
        Divide(x, Divide(y, z)),
        Divide(Divide(x, y), Divide(y, z)),
    ):
        assert term_on_dicts(t)(s) == _tree_term(t, s)


def test_long_chains_compile():
    """Chains as long as these nest no deeper in the generated source
    than Python's parser allows."""
    chain = conj(*(Compare("<=", var("x"), num(i)) for i in range(400)))
    holds = formula_on_dicts(chain)
    assert holds({"x": 0.0}) and not holds({"x": 1.0})
    s = {"x": 0.5, "y": 2.0}
    sums = (" + ".join(["x"] * 400), " - ".join(["x", "y"] * 200), " * ".join(["y"] * 400))
    for text in sums:
        t = dsl.parse_term_text(text)
        assert _outcome(term_on_dicts(t), s) == _outcome(_tree_term, t, s)
    anyof = formula_on_dicts(
        dsl.parse_formula_text(" | ".join(f"x = {i}" for i in range(400)))
    )
    assert anyof({"x": 399.0}) and not anyof({"x": 0.5})


def test_equal_sources_share_one_compiled_function():
    slots = slots_of(("x",))
    first = compile_source("s", emit_term(Plus(var("x"), num(1)), slots))
    assert compile_source("s", emit_term(Plus(var("x"), num(1)), slots)) is first


# Sources compiled from a cold cache: building each corpus model's
# CompiledSystem and then one short run (which compiles the exact step on
# first use), and checking watertank's obligations at grid 2. Each is a
# ceiling: a change that compiles more on the cold path shows here first.
COLD_COMPILES = {
    "two_tanks": 10, "watertank": 8, "watertank_late_ctrl": 8, "watertank_tight": 9,
}
COLD_CHECK_COMPILES = 21


def test_cold_compiles_stay_within_their_ceilings(corpus_dir):
    counts = {}
    for model in COLD_COMPILES:
        system = dsl.load_file(corpus_dir / f"{model}.ccs")
        box = json.loads((corpus_dir / f"{model}.init.json").read_text())
        compile_source.cache_clear()
        CompiledSystem(system)
        run(system, Schedule("lazy-controller", 0, 1.0), sample_init(box, random.Random(0)))
        counts[model] = compile_source.cache_info().misses
    assert all(counts[m] <= ceiling for m, ceiling in COLD_COMPILES.items()), counts
    wt = dsl.load_file(corpus_dir / "watertank.ccs")
    box = {"wl": [3, 7], "wlm": "=wl", "fin": [0, 1], "fout": 0.75, "t": 0, "tau_1": 0}
    obligations = obligations_ccs(wt)
    compile_source.cache_clear()
    for ob in obligations:
        check_bounded(ob, box, grid=2, flow_samples=8)
    assert compile_source.cache_info().misses <= COLD_CHECK_COMPILES


def test_rk4_steps_follow_the_classic_formula_bit_for_bit():
    """A flow whose slopes read evolved variables takes RK4 steps, with
    the floating-point operations of the textbook formula in its order."""
    ode = ODE((("x", Neg(var("x"))), ("y", Times(var("x"), var("y")))), TRUE)
    seg = FlowSegment(ode, {"t": 0, "x": 1, "y": 2})
    assert not seg.exact

    def f(s):
        return (-s[1], s[1] * s[2])

    def shift(s, k, c):
        return (s[0], s[1] + c * k[0], s[2] + c * k[1])

    h = 0.37
    for s in ((2.0, 1.3, -0.7), (0.0, -0.0, 1e-300)):
        k1 = f(s)
        k2 = f(shift(s, k1, 0.5 * h))
        k3 = f(shift(s, k2, 0.5 * h))
        k4 = f(shift(s, k3, h))
        k = [a + 2.0 * b + 2.0 * c + d for a, b, c, d in zip(k1, k2, k3, k4)]
        expected = shift(s, k, h / 6.0)
        got = seg._rk4_step(s, h)
        assert [struct.pack("d", v) for v in got] == [
            struct.pack("d", v) for v in expected
        ]


# -- the exact step against the interpretive exit-time loop -----------------

# A flow over (a, b, t, x, y) whose slopes read only a and b, so it takes
# the exact path, and whose domain conjuncts are affine in t, x and y.
_FLOW_LAYOUT = ("a", "b", "t", "x", "y")
_FLOW_SLOTS = slots_of(_FLOW_LAYOUT)
_MOVING = [var("t"), var("x"), var("y")]
_SLOPE_TERMS = st.sampled_from([
    num(0), num(1), num(-2), var("a"), Neg(var("b")), Minus(var("a"), var("b")),
    Divide(num(1), var("b")),
])
_AFFINE_PARTS = st.one_of(
    st.sampled_from([*_MOVING, var("a"), num(0), num(3)]),
    st.builds(Times, st.sampled_from([num(2), num(-1), var("a")]), st.sampled_from(_MOVING)),
    st.builds(Divide, st.sampled_from(_MOVING), st.sampled_from([num(4), var("b")])),
)
_AFFINE_TERMS = st.lists(_AFFINE_PARTS, min_size=1, max_size=3).map(
    lambda parts: functools.reduce(Plus, parts)
)
_CONJUNCTS = st.builds(
    Compare, st.sampled_from(["<=", "<", ">=", ">", "=", "!="]), _AFFINE_TERMS, _AFFINE_TERMS
)
_FLOWS = st.builds(
    lambda slopes, parts: ODE(tuple(zip(("t", "x", "y"), slopes)), conj(*parts)),
    st.tuples(_SLOPE_TERMS, _SLOPE_TERMS, _SLOPE_TERMS),
    st.lists(_CONJUNCTS, min_size=1, max_size=4),
)
_FLOW_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, math.inf, -math.inf, math.nan]),
    st.floats(),
)
_FLOW_STATES = st.tuples(*[_FLOW_VALUES] * len(_FLOW_LAYOUT))
_REQUESTS = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 0.25, 1.0, 10.0, math.nan]),
    st.floats(min_value=0.0, max_value=1e6),
)


def _reference_exit_time(ode, seg, state, slopes):
    """The exit time as one loop that reads each conjunct's op at run time,
    over each conjunct's gap `left - right` at the start and at the probe
    state one time unit along."""
    parts = conjuncts(ode.domain)
    gaps = compile_tuple(
        "s", [f"({emit_term(c.left, _FLOW_SLOTS)} - {emit_term(c.right, _FLOW_SLOTS)})" for c in parts]
    )
    bound = math.inf
    probe = gaps(seg.at(state, slopes, 1.0))
    for op, g0, p1 in zip((c.op for c in parts), gaps(state), probe):
        g1 = p1 - g0  # slope of l - r in dt
        if op in ("<=", "<"):
            ok0 = g0 <= 0.0 if op == "<=" else g0 < 0.0
            if not ok0:
                return 0.0 if seg.domain(state) else -1.0
            if g1 > 0.0 and (dt := -g0 / g1) < bound:
                bound = dt
        elif op in (">=", ">"):
            ok0 = g0 >= 0.0 if op == ">=" else g0 > 0.0
            if not ok0:
                return 0.0 if seg.domain(state) else -1.0
            if g1 < 0.0 and (dt := -g0 / g1) < bound:
                bound = dt
        elif op == "=":
            if abs(g0) > 1e-9:
                return -1.0
            if abs(g1) > 1e-9:
                bound = min(bound, 0.0)
        else:  # !=
            if abs(g0) <= 1e-9:
                return -1.0
            if g1 != 0.0:
                crossing = -g0 / g1
                if crossing > 0.0:
                    bound = min(bound, crossing)
    return bound


def _reference_slopes(ode):
    return compile_tuple("s", [emit_term(e, _FLOW_SLOTS) for _, e in ode.equations])


def _reference_exit(ode, seg, state):
    """(slopes, exit time) at `state`."""
    slopes = _reference_slopes(ode)(state)
    return slopes, _reference_exit_time(ode, seg, state, slopes)


def _reference_last_inside(seg, state, slopes, exit_dt):
    """(end, dt): the state at `exit_dt`, or the last one inside the
    domain found by bisection to within 1e-9, or until no float lies
    between the bounds (past about 1e7 their spacing exceeds 1e-9)."""
    end = seg.at(state, slopes, exit_dt)
    if seg.domain(end):
        return end, exit_dt
    lo, good, hi = 0.0, state, exit_dt
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        cand = seg.at(state, slopes, mid)
        if seg.domain(cand):
            lo, good = mid, cand
        else:
            hi = mid
    return good, lo


def _reference_advance(ode, seg, state, dt_request):
    if not seg.domain(state) or dt_request <= 0.0:
        return state, 0.0
    slopes = _reference_slopes(ode)(state)
    exit_dt = _reference_exit_time(ode, seg, state, slopes)
    if exit_dt < 0.0:
        return state, 0.0
    if exit_dt <= dt_request:
        return _reference_last_inside(seg, state, slopes, exit_dt)
    return seg.at(state, slopes, dt_request), dt_request


def _reference_flow_states(ode, seg, state, n):
    if not seg.domain(state):
        return [], True
    slopes = _reference_slopes(ode)(state)
    exit_dt = _reference_exit_time(ode, seg, state, slopes)
    if exit_dt < 0.0:
        return [], True
    closes = not math.isinf(exit_dt)
    span = exit_dt if closes else 1e6
    samples = [seg.at(state, slopes, span * i / n) for i in range(n)]
    samples.append(_reference_last_inside(seg, state, slopes, span * n / n)[0])
    return samples, closes


def _exact_bits(fn, *args):
    """What `fn` returns with every float but NaN as its big-endian bytes
    (so -0.0 counts), or the error it raised. Every NaN is one value: the
    sign and payload of a NaN sum depend on whether CPython 3.11 has
    specialised the `+` that made it, so they vary with how warm the code
    is."""

    def bits(v):
        if isinstance(v, float):
            return struct.pack(">d", v) if v == v else "nan"
        if isinstance(v, (tuple, list)):
            return type(v)(map(bits, v))
        return v

    try:
        return bits(fn(*args))
    except DivisionByZero as e:
        return type(e).__name__, str(e)


_INF_GAP = (0.0, 0.0, 0.0, math.inf, 0.0)


@settings(max_examples=400, deadline=None)
@given(_FLOWS, _FLOW_STATES, _REQUESTS, st.integers(min_value=1, max_value=4))
@example(  # a `<` conjunct whose gap is -0.0 at the start
    ODE((("t", num(1)), ("x", num(0)), ("y", num(1))), conj(Compare("<", var("x"), num(0)))),
    (0.0, 0.0, 0.0, -0.0, 0.0), 1.0, 2,
)
@example(  # inf - inf: the domain holds but the gap is NaN
    ODE((("t", num(1)), ("x", num(0)), ("y", var("a"))),
        conj(Compare("<=", var("x"), Times(num(2), var("x"))), Compare(">=", var("y"), num(0)))),
    _INF_GAP, 0.5, 3,
)
@example(  # zero slopes: nothing ever exits
    ODE((("t", num(0)), ("x", num(0)), ("y", num(0))), conj(Compare("<=", var("x"), num(3)))),
    (0.0, 0.0, 0.0, 1.0, 0.0), 5.0, 2,
)
@example(  # an inf slope times the probe's 1.0, and a NaN one
    ODE((("t", num(1)), ("x", var("a")), ("y", var("b"))),
        conj(Compare("<=", var("x"), num(3)), Compare(">", var("y"), num(-1)))),
    (math.inf, math.nan, 0.0, 1.0, 0.0), 0.25, 1,
)
def test_the_exact_step_matches_the_interpretive_exit_time_bit_for_bit(ode, state, dt, n):
    """The generated exit time, the exact step and flow_states give what
    the loop reading each conjunct's op at run time gives, bit for bit:
    every op, conjuncts false at the start, zero, inf and NaN slopes."""
    seg = FlowSegment(ode, _FLOW_SLOTS)
    assert seg.domain_affine
    holds = _exact_bits(seg.domain, state)
    if holds is True:  # the exit time is only asked for inside the domain
        assert _exact_bits(seg.exit_time, state) == _exact_bits(
            _reference_exit, ode, seg, state
        )
    assert _exact_bits(seg.step, state, dt) == _exact_bits(
        _reference_advance, ode, seg, state, dt
    )
    assert _exact_bits(flow_states, seg, state, n) == _exact_bits(
        _reference_flow_states, ode, seg, state, n
    )


def test_an_exact_flow_nested_too_deeply_is_a_ccs_error():
    """The exact step and exit time compile on first use, a few levels of
    nesting deeper than the domain: a domain that compiles but whose step
    does not raises CcsError naming the domain, never a SyntaxError."""
    bound = var("x")
    for _ in range(196):
        bound = Plus(num(1), bound)
    seg = FlowSegment(ODE((("x", num(1)),), Compare("<=", var("x"), bound)), {"x": 0})
    named = r"^flow domain nests too deeply to compile \(SyntaxError\): x <= 1 \+ \(1"
    with pytest.raises(CcsError, match=named):
        flow_states(seg, (0.0,), 2)
    with pytest.raises(CcsError, match=named):
        seg.step((0.0,), 1.0)


def test_strategy_names_are_validated():
    with pytest.raises(ValueError):
        Schedule(strategy="chaotic")
    assert set(STRATEGIES) == {"uniform-random", "lazy-controller", "round-robin"}


@pytest.mark.parametrize("horizon", [0.0, -5.0, math.nan, math.inf])
def test_horizon_must_be_finite_and_positive(horizon):
    with pytest.raises(ValueError):
        Schedule(horizon=horizon)


def test_run_is_deterministic_for_a_seed(watertank):
    s = Schedule(strategy="uniform-random", seed=99, horizon=4.0)
    t1 = run(watertank, s, WT_INIT)
    t2 = run(watertank, s, WT_INIT)
    assert t1.points == t2.points
    assert t1.violations == t2.violations


def test_different_seeds_diverge(watertank):
    t1 = run(watertank, Schedule(seed=1, horizon=4.0), WT_INIT)
    t2 = run(watertank, Schedule(seed=2, horizon=4.0), WT_INIT)
    assert t1.points != t2.points


def test_trace_follows_the_exact_piecewise_line(watertank):
    trace = run(watertank, Schedule(seed=5, horizon=6.0), WT_INIT)
    assert len(trace.points) > 50
    for p in trace.points:
        v = p.values
        expected = (v["fin"] - v["fout"]) * (v["t"] - v["tau_1"]) + v["wlm"]
        assert abs(v["wl"] - expected) <= 1e-9
    assert trace.max_invariant_residual <= 1e-9


def test_run_reaches_the_horizon(watertank):
    trace = run(watertank, Schedule(seed=0, horizon=3.0), WT_INIT)
    assert math.isclose(trace.end_time, 3.0, abs_tol=1e-6)
    assert not trace.truncated
    assert trace.points[-1].event == "loop-boundary"


def test_guard_is_never_overrun(watertank):
    delta = float(watertank.controller.reactivity)
    for strategy in STRATEGIES:
        trace = run(watertank, Schedule(strategy=strategy, seed=4, horizon=3.0), WT_INIT)
        for p in trace.points:
            assert p.values["t"] <= p.values["tau_1"] + delta + 1e-6, (strategy, p.time)


def test_lazy_controller_fires_at_near_maximal_spacing(watertank):
    delta = float(watertank.controller.reactivity)
    trace = run(
        watertank, Schedule(strategy="lazy-controller", seed=7, horizon=2.0), WT_INIT
    )
    fires = [p.time for p in trace.points if p.event.startswith("ctrl-fired")]
    gaps = [b - a for a, b in zip(fires, fires[1:])]
    assert gaps and min(gaps) >= 0.9 * delta
    assert abs(len(fires) - 2.0 / delta) <= 2


def test_round_robin_alternates_controllers(two_tanks, corpus_dir):
    init = json.loads((corpus_dir / "two_tanks.init.json").read_text())
    init = {**init, "wl1": 5.0, "wl2": 6.0}
    trace = run(two_tanks, Schedule(strategy="round-robin", seed=3, horizon=1.0), init)
    fired = [p.event for p in trace.points if p.event.startswith("ctrl-fired")]
    assert len(fired) > 10
    assert all(a != b for a, b in zip(fired, fired[1:]))


def test_every_controller_of_a_loop_wider_than_a_byte_fires():
    """A recorded point's event code is a plain int: 256 controllers,
    codes 3 to 258, all fire and each firing names its controller."""
    n = 256
    ctrls = tuple(
        make_reactive_controller(
            f"c{i}", dsl.parse_program_text("?(x >= 0)"), Fraction(1, 20), f"tau_{i}",
            contract=Contract(),
        )
        for i in range(1, n + 1)
    )
    plant = make_controllable_plant(
        "level", (("x", num(0)),), Compare("<=", var("x"), num(10)), Fraction(1, 5),
        contract=Contract(),
    )
    loop = make_ccs(MultiChoiceController("many", ctrls, Fraction(1, 20)), plant, name="many")
    init = {"x": 0, "t": 0, **{f"tau_{i}": 0 for i in range(1, n + 1)}}
    trace = run(loop, Schedule(seed=0, horizon=0.05), init)
    fired = {p.event for p in trace.points if p.event.startswith("ctrl-fired")}
    assert fired == {f"ctrl-fired(c{i})" for i in range(1, n + 1)}


def test_init_outside_assumptions_is_rejected(watertank):
    with pytest.raises(InitViolatesAssumptions) as e:
        run(watertank, Schedule(seed=0), {**WT_INIT, "wl": 8.0})
    assert "assume[wlctrl]" in str(e.value) or "assume[tank]" in str(e.value)


def test_alias_init_and_environment_pins(watertank):
    state = complete_init(watertank, WT_INIT)
    assert state["wlm"] == state["wl"] == 5.0
    assert state["fout"] == 0.75  # picked up from the const declaration
    with pytest.raises(InitViolatesAssumptions) as e:
        complete_init(watertank, {"wl": 5.0, "wlm": "=wl"})
    assert "fin" in str(e.value)


def test_init_alias_chains_resolve_in_any_order(watertank):
    # Listed target-first: wlm -> fin -> t.
    state = complete_init(
        watertank, {"wlm": "=fin", "fin": "=t", "t": 0, "tau_1": 0, "wl": 5.0}
    )
    assert state["wlm"] == state["fin"] == state["t"] == 0.0
    with pytest.raises(UnboundedVariable):
        complete_init(watertank, {**WT_INIT, "wlm": "=wlx"})
    with pytest.raises(UnboundedVariable):
        complete_init(watertank, {**WT_INIT, "wlm": "=fin", "fin": "=wlm"})
    with pytest.raises(ValueError):
        complete_init(watertank, {**WT_INIT, "fin": "1"})


def test_init_alias_errors_name_the_entry_and_its_target(watertank):
    with pytest.raises(UnboundedVariable) as missing:
        complete_init(watertank, {**WT_INIT, "wlm": "=wlx"})
    assert str(missing.value) == "'wlm' aliases 'wlx', which has no value or interval"
    assert missing.value.name == "wlx"
    with pytest.raises(UnboundedVariable) as indirect:
        complete_init(watertank, {**WT_INIT, "wlm": "=a", "a": "=wlx"})
    assert str(indirect.value) == (
        "'wlm' aliases 'wlx' via 'a', which has no value or interval"
    )
    with pytest.raises(UnboundedVariable) as cycle:
        complete_init(watertank, {**WT_INIT, "wlm": "=fin", "fin": "=wlm"})
    assert str(cycle.value) == "the alias chain of 'wlm' loops: 'wlm' -> 'fin' -> 'wlm'"


def _stuck_system():
    """x rises into the wall x <= 0, and the only controller needs x < 0."""
    ctrl = make_reactive_controller(
        "noop",
        dsl.parse_program_text("?(x < 0); y := 1"),
        Fraction(1, 20),
        "tau_1",
        contract=Contract(),
    )
    plant = make_controllable_plant(
        "wall",
        (("x", num(1)),),
        Compare("<=", var("x"), num(0)),
        Fraction(1, 5),
        contract=Contract(),
    )
    return make_ccs(ctrl, plant, name="stuck")


def test_stuck_system_raises():
    sys_ = _stuck_system()
    with pytest.raises(StuckState):
        run(sys_, Schedule(seed=0, horizon=1.0), {"x": 0, "y": 0, "t": 0, "tau_1": 0})


def _level_system(program_text: str):
    """A constant level x and one controller running `program_text`."""
    ctrl = make_reactive_controller(
        "set",
        dsl.parse_program_text(program_text),
        Fraction(1, 20),
        "tau_1",
        contract=Contract(),
    )
    plant = make_controllable_plant(
        "level",
        (("x", num(0)),),
        Compare("<=", var("x"), num(10)),
        Fraction(1, 5),
        contract=Contract(),
    )
    return make_ccs(ctrl, plant, name="level")


LEVEL_INIT = {"x": 4, "fin": 0, "t": 0, "tau_1": 0}


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_branch_failing_after_its_first_statement_never_blocks(strategy):
    # The first branch fails its test only after assigning: with x = 4 the
    # program's one final state has fin = 1, so every firing succeeds.
    sys_ = _level_system("(fin := 0; ?(x > 5)) U fin := 1")
    for seed in range(20):
        trace = run(sys_, Schedule(strategy=strategy, seed=seed, horizon=1.0), LEVEL_INIT)
        fired = [p for p in trace.points if p.event.startswith("ctrl-fired")]
        assert fired and all(p.values["fin"] == 1.0 for p in fired)
        assert trace.end_time == pytest.approx(1.0)


def test_firing_draws_among_several_final_states():
    sys_ = _level_system("fin := 0 U fin := 1")
    trace = run(sys_, Schedule(strategy="lazy-controller", seed=0, horizon=1.0), LEVEL_INIT)
    fired = [p.values["fin"] for p in trace.points if p.event.startswith("ctrl-fired")]
    assert set(fired) == {0.0, 1.0}


def test_loops_yield_the_distinct_states_within_the_unroll_bound():
    body = dsl.parse_program_text("?(x < 2); x := x + 1")
    truncated = []
    loop = program_on_dicts(Loop(body), unroll=3, cut=lambda: truncated.append(1))
    assert loop({"x": 0.0}) == [{"x": 0.0}, {"x": 1.0}, {"x": 2.0}]
    assert truncated == []
    counter = program_on_dicts(
        Loop(dsl.parse_program_text("x := x + 1")),
        unroll=3,
        cut=lambda: truncated.append(1),
    )
    assert [s["x"] for s in counter({"x": 0.0})] == [0.0, 1.0, 2.0, 3.0]
    assert truncated == [1]


def _tree_program(p, s):
    """Every final state of a discrete program, as a list in branch order
    with duplicates kept: a sequence runs its first part to the end
    before its second part starts."""
    if isinstance(p, Assign):
        return [{**s, p.var: _tree_term(p.rhs, s)}]
    if isinstance(p, Guard):
        return [s] if _tree_formula(p.condition, s) else []
    if isinstance(p, Seq):
        return [r for m in _tree_program(p.first, s) for r in _tree_program(p.second, m)]
    assert isinstance(p, Choice)
    return _tree_program(p.left, s) + _tree_program(p.right, s)


def _listed(fn, *args):
    """The final states as text, so that -0.0 and NaN compare, or the
    error raised. A state lists its names sorted."""
    try:
        return repr([sorted(r.items()) for r in fn(*args)])
    except (DivisionByZero, KeyError) as e:
        return type(e).__name__, str(e)


_PROGRAM_NAMES = ["x", "s", "d", "_h"]
_PROGRAMS = st.recursive(
    st.one_of(
        st.builds(Assign, st.sampled_from(_PROGRAM_NAMES), randgen.terms(_PROGRAM_NAMES)),
        st.builds(Guard, randgen.formulas(_PROGRAM_NAMES)),
    ),
    lambda sub: st.one_of(st.builds(Seq, sub, sub), st.builds(Choice, sub, sub)),
    max_leaves=8,
)


@settings(deadline=None)
@given(_PROGRAMS, st.fixed_dictionaries({n: _VALUES for n in _PROGRAM_NAMES}))
def test_compiled_programs_list_the_reference_states_in_order(p, s):
    """Order decides which state a firing draws and which counterexample
    the checker reports first, so it is compared, not just the set."""
    assert _listed(program_on_dicts(p), s) == _listed(_tree_program, p, s)


@pytest.mark.parametrize(
    "s, expected",
    [
        ({"y": 3.0, "z": 2.0}, [(1.5, 1.5, 3.0), (1.5, 1.5, 3.0), (1.5, 2.5, 1.0)]),
        ({"y": -3.0, "z": 2.0}, [(-1.5, -1.5, 0.6), (-1.5, -1.5, 0.6), (-1.5, -0.5, 1.0)]),
        ({"y": 3.0, "z": 0.0}, ("DivisionByZero", "division by zero in y / z")),
        ({"y": 2.0, "z": 2.0}, ("DivisionByZero", "division by zero in x / (w - 1)")),
    ],
)
def test_a_division_assigned_before_more_statements(s, expected):
    p = dsl.parse_program_text(
        "x := y / z; (w := x U w := x U w := x + 1); ?(w != 0); y := x / (w - 1)"
    )
    got = _listed(program_on_dicts(p), s)
    assert got == _listed(_tree_program, p, s)
    if isinstance(expected, list):
        states = [{**s, "x": x, "w": w, "y": y} for x, w, y in expected]
        expected = _listed(lambda: states)
    assert got == expected


def test_a_sequence_nested_on_the_left_runs_to_its_end_first():
    """Every final state of `a; b` is computed before `c` starts on any,
    so the first error raised is b's, as the reference raises it."""
    ab = Seq(dsl.parse_program_text("x := 1 U x := 0"), dsl.parse_program_text("y := 1 / x"))
    p = Seq(ab, dsl.parse_program_text("z := 1 / 0"))
    got = _listed(program_on_dicts(p), {"x": 0.0})
    assert got == _listed(_tree_program, p, {"x": 0.0})
    assert got == ("DivisionByZero", "division by zero in 1 / x")


def test_long_sequences_compile_and_deep_nesting_is_a_ccs_error():
    """A sequence is one flat comprehension, so a thousand statements
    compile. Nesting past what Python will compile raises CcsError,
    naming the program, instead of a SyntaxError."""
    step = dsl.parse_program_text("x := x + 1")
    assert program_on_dicts(seq(*[step] * 1000))({"x": 0.0}) == [{"x": 1000.0}]
    p = Assign("z", num(0))
    for i in range(120):
        guarded = seq(Guard(Compare(">=", var("x"), num(0))), p, Assign("y", num(i)))
        p = choice(guarded, Assign("z", num(1)))
    named = r"^program nests too deeply to compile \(\w+\): \(\?\(x >= 0\); "
    with pytest.raises(CcsError, match=named):
        compile_program_over(p, slots_of("xyz"))


@pytest.mark.parametrize("depth", [200, 300, 600])
def test_programs_nested_past_the_interpreter_stack_are_a_ccs_error(depth):
    """Only the API can build these. Emitting or printing them exhausts
    the interpreter stack, which must surface as CcsError."""
    p = Assign("z", num(0))
    for i in range(depth):
        guarded = seq(Guard(Compare(">=", var("x"), num(0))), p, Assign("y", num(i)))
        p = choice(guarded, Assign("z", num(1)))
    with pytest.raises(CcsError, match=r"^program nests too deeply to compile"):
        compile_program_over(p, slots_of("xyz"))


def test_monitor_violations_name_the_guarantee(corpus_dir):
    late = dsl.load_file(corpus_dir / "watertank_late_ctrl.ccs")
    trace = run(late, Schedule(seed=2, horizon=20.0), WT_INIT)
    assert trace.violations
    assert {v.monitor for v in trace.violations} == {"G[tank]"}
    worst = max(v.values["wl"] for v in trace.violations)
    assert worst > 7.0


def test_csv_round_trip(tmp_path, watertank):
    trace = run(watertank, Schedule(seed=8, horizon=2.0), WT_INIT)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    names = trace.variables()
    assert rows[0] == ["time", "event", *names]
    assert len(rows) == len(trace.points) + 1
    for row, p in zip(rows[1:], trace.points):
        assert float(row[0]) == p.time  # repr() round-trips floats exactly
        assert row[1] == p.event
        for name, cell in zip(names, row[2:]):
            assert float(cell) == p.values[name]


def test_batch_seed_derivation_is_pinned():
    assert batch_schedule_seed(42, 0) == (42 * 1_000_003) % 2**63
    assert batch_schedule_seed(42, 3) == (42 * 1_000_003 + 3) % 2**63


def test_sample_init_draws_inside_the_box():
    import random

    box = {"wl": [3.6, 6.4], "wlm": "=wl", "fin": 1}
    draw = sample_init(box, random.Random(0))
    assert 3.6 <= draw["wl"] <= 6.4
    assert draw["wlm"] == "=wl"  # aliases stay symbolic for complete_init
    assert draw["fin"] == 1


def test_an_empty_init_interval_is_rejected_as_the_checker_rejects_it(watertank):
    box = {"wl": [6.4, 3.6], "wlm": "=wl", "fin": 1, "t": 0, "tau_1": 0}
    with pytest.raises(ValueError, match=r"^empty interval \[6\.4, 3\.6\]$"):
        sample_init(box, random.Random(0))
    with pytest.raises(ValueError, match=r"^empty interval \[6\.4, 3\.6\]$"):
        run_batch(watertank, 1, 0, box)
    with pytest.raises(ValueError, match=r"^empty interval \[6\.4, 3\.6\]$"):
        check_bounded(dsl.parse_formula_text("wl >= 0"), box)
    # Anything but two finite numbers is no interval, in either box.
    # A bound is a real number, not a bool, that converts to a finite float.
    bad_intervals = ([0, 1, 2], [1], [], [0, math.nan], [-math.inf, 1], [0, 10**400],
                     [None, 1], [False, 1], [0, True], ["0", 1], [0, 1j])
    for bad in bad_intervals:
        box["wl"] = bad
        message = r"^an interval is \[lo, hi\] of two finite numbers, got \["
        with pytest.raises(ValueError, match=message):
            sample_init(box, random.Random(0))
        with pytest.raises(ValueError, match=message):
            run_batch(watertank, 1, 0, box)
        with pytest.raises(ValueError, match=message):
            check_bounded(dsl.parse_formula_text("wl >= 0"), box)


@pytest.mark.parametrize("special", [math.nan, -0.0, math.inf])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_the_residual_is_the_running_maximum_bit_for_bit(two_tanks, special, where):
    """One `max` over a run's gaps equals the running maximum
    `m = max(m, *gaps(s))` from 0.0, with NaN, -0.0 and inf in either of
    two_tanks' two `=` conjuncts at the first, a middle and the last
    state. Every slot but wl1 and wl2 is 0.0, so the gaps are abs(wl1)
    and abs(wl2)."""
    cs = CompiledSystem(two_tanks)
    pack = struct.Struct(">d").pack
    for column in (0, 1):
        wl = [[3.0, -1.0, 7.5, -0.5, 2.0], [-2.0, 4.0, 0.25, 6.0, -6.5]]
        wl[column][where] = special
        states = []
        for a, b in zip(*wl):
            s = [0.0] * len(cs.layout)
            s[cs.slots["wl1"]], s[cs.slots["wl2"]] = a, b
            states.append(tuple(s))
        m = 0.0
        for s in states:
            assert len(cs.gaps(s)) == 2
            m = max(m, *cs.gaps(s))
        assert pack(cs.residual(states)) == pack(m)
    assert cs.residual([]) == 0.0


def test_run_batch_is_deterministic(watertank):
    box = {"wl": [3.6, 6.4], "wlm": "=wl", "fin": 1, "t": 0, "tau_1": 0}
    s1 = run_batch(watertank, 20, 7, box)
    s2 = run_batch(watertank, 20, 7, box)
    assert s1.to_json() == s2.to_json()
    assert s1.runs == 20 and s1.runs_with_violations == 0 and s1.stuck_runs == 0


def test_run_batch_reports_every_monitor(watertank):
    box = {"wl": [3.6, 6.4], "wlm": "=wl", "fin": 1, "t": 0, "tau_1": 0}
    summary = run_batch(watertank, 5, 1, box)
    assert set(summary.violations) == {"G[wlctrl]", "G[tank]", "invariant"}
    assert all(count == 0 for count in summary.violations.values())
    lo, hi = summary.variable_ranges["wl"]
    assert 3.0 <= lo <= hi <= 7.0
    payload = summary.to_json()
    assert payload["violations"] == {"G[tank]": 0, "G[wlctrl]": 0, "invariant": 0}


def test_run_batch_counts_mutant_violations(corpus_dir):
    late = dsl.load_file(corpus_dir / "watertank_late_ctrl.ccs")
    box = {"wl": [3.6, 6.4], "wlm": "=wl", "fin": 1, "t": 0, "tau_1": 0}
    summary = run_batch(late, 10, 3, box)
    assert summary.runs_with_violations > 0
    assert summary.violations["G[tank]"] > 0
    assert summary.violations["invariant"] == 0  # timing law still holds


# -- pinned seeded results ---------------------------------------------------

PIN_SEED = 20260814

# (model, strategy) -> (sha256 of the run-0 CSV, sha256 of the 4-run batch
# summary). Recorded with the interpreter-based simulator that compiled
# terms through global caches; any change here means a trace moved.
TRACE_PINS = {
    ("watertank", "uniform-random"): (
        "444e81c046d21f5c13ed542bded92983b81a6528c183e10161db04646cdb19c7",
        "caabe97eba3dd07290b1a3f873c3f9578ab740c51bf20bd2527047d2e1895eea",
    ),
    ("watertank", "lazy-controller"): (
        "5354174423e2b13e91f85400c6c783874301171e10880414b04a35d330c5c0b2",
        "3b957da92347849e8b4ae43a6561d6367cc31bd9daf67ebcbeb2eff236d53979",
    ),
    ("watertank", "round-robin"): (
        "9f78da95def1ef88163c2ca77e35ca8247fa65d3c96f0e084b9756117094f162",
        "34b213916b7e77b0afddc232e75598197dfabb5ac415d0c0f4a62a735e804913",
    ),
    ("two_tanks", "uniform-random"): (
        "881afcf1f037ea550ee5c8923794200845437b3ad1fed1967d85d6e3e18c27a9",
        "c2f07e4584fa6ab9e89c49acacabd3849c3aec31160d5eb14350caa21fbba595",
    ),
    ("two_tanks", "lazy-controller"): (
        "aead2656bf26059f1c0a25815deb236f9f32633ad5457f08ef004dcf77b36734",
        "90d2d97c0f7d03bc9095f49ad8bcf23d227ff0d08471e0e4002301b946845040",
    ),
    ("two_tanks", "round-robin"): (
        "aead2656bf26059f1c0a25815deb236f9f32633ad5457f08ef004dcf77b36734",
        "9220e88e707f6615566de707dad2e2d5cdda941e54c4d503dc21b8cd565f4f29",
    ),
    ("watertank_late_ctrl", "uniform-random"): (
        "1f8165e4b85090c678d1994be99e3b89916c7639c4d1f339247989578a129e42",
        "f01a773becb5f79c5ea52b9d8838d9ef2f0dd6ba0fd7a9c39eb23193eda3cbec",
    ),
    ("watertank_late_ctrl", "lazy-controller"): (
        "a9d82b49c69cca29919a7ad3d3504b312fa0df3e65ec324806c19dc53a988bfd",
        "0ddc2d488add29a8a229a845e2ac4d458bca7f6d09007830f7a3212a1d1a7198",
    ),
    ("watertank_late_ctrl", "round-robin"): (
        "3a428beb21494f2f5623e1aa332ab084303670ff109de071e3cd6f35bec2b626",
        "bcfb52dae80d06d683f28ef37a3b78c9224971d5910ea239aba2d71364706e54",
    ),
    ("watertank_tight", "uniform-random"): (
        "444e81c046d21f5c13ed542bded92983b81a6528c183e10161db04646cdb19c7",
        "3b881b99a0f4e1310a3d2c71b79a9c23902502ac168374fd2e0119462a5b994e",
    ),
    ("watertank_tight", "lazy-controller"): (
        "5354174423e2b13e91f85400c6c783874301171e10880414b04a35d330c5c0b2",
        "e488bfa3dbe46c24eab98d6c130d02408399a9295df1e983d3a57b21647dc274",
    ),
    ("watertank_tight", "round-robin"): (
        "9f78da95def1ef88163c2ca77e35ca8247fa65d3c96f0e084b9756117094f162",
        "c56f7775c4ff3229f55caad56f893546b32f32e2d3b13ba8e1e5c1321ec6a1bf",
    ),
}


def _member_init(box: dict, seed: int, index: int) -> tuple[int, dict]:
    run_seed = batch_schedule_seed(seed, index)
    return run_seed, sample_init(box, random.Random(run_seed ^ 0x5EED))


@pytest.mark.parametrize("model,strategy", sorted(TRACE_PINS))
def test_seeded_traces_and_batches_are_pinned(model, strategy, corpus_dir, tmp_path):
    system = dsl.load_file(corpus_dir / f"{model}.ccs")
    box = json.loads((corpus_dir / f"{model}.init.json").read_text())
    run_seed, init = _member_init(box, PIN_SEED, 0)
    trace = run(system, Schedule(strategy=strategy, seed=run_seed), init)
    path = tmp_path / "run0.csv"
    write_trace_csv(trace, path)
    summary = run_batch(system, 4, PIN_SEED, box, strategy)
    batch_bytes = json.dumps(summary.to_json(), sort_keys=True).encode()
    assert (
        hashlib.sha256(path.read_bytes()).hexdigest(),
        hashlib.sha256(batch_bytes).hexdigest(),
    ) == TRACE_PINS[model, strategy]


# -- a recorded trace against the eager build ---------------------------------

RUN_MODELS = sorted({model for model, _ in TRACE_PINS})


def _eager_trace(system, schedule: Schedule, init: dict) -> Trace:
    """The run's trace with every point built at once, one TracePoint
    and one dict per recorded state: the reference for a trace whose
    points are built when first read."""
    cs = CompiledSystem(system)
    events, states, violations, truncated = ccskit.simulator._run(cs, schedule, init)

    def named(s):
        return dict(zip(cs.layout, s))

    points = [TracePoint(s[cs.clock], cs.events[e], named(s)) for e, s in zip(events, states)]
    residual = cs.residual(ccskit.simulator._distinct(states))
    return Trace(points, violations, states[-1][cs.clock], truncated, residual)


def _hash_or_error(trace: Trace):
    try:
        return hash(trace)
    except TypeError as e:  # a trace's points are a list
        return str(e)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("model", RUN_MODELS)
def test_recorded_trace_is_the_eager_trace(model, strategy, corpus_dir):
    """A trace `run` returns is the eager trace in its points, its
    variables, `==`, hash, `repr` and pickling, each tried on a trace
    whose points were not read yet; so is run 0's trace of a batch."""
    system = dsl.load_file(corpus_dir / f"{model}.ccs")
    box = json.loads((corpus_dir / f"{model}.init.json").read_text())
    member = batch_member(PIN_SEED, 0, box, strategy, 20.0)
    eager = _eager_trace(system, *member)
    recorded = run(system, *member)
    assert recorded.variables() == eager.variables()
    assert recorded.points == eager.points
    assert recorded.variables() == eager.variables()
    assert run(system, *member) == eager and eager == run(system, *member)
    assert repr(run(system, *member)) == repr(eager)
    assert _hash_or_error(run(system, *member)) == _hash_or_error(eager)
    assert pickle.dumps(run(system, *member)) == pickle.dumps(eager)
    assert pickle.loads(pickle.dumps(run(system, *member))) == eager
    batch = run_batch(system, 2, PIN_SEED, box, strategy, keep_first=True)
    assert batch.first_trace == recorded


@pytest.mark.parametrize("model", RUN_MODELS)
def test_a_recorded_trace_lists_its_variables_without_building_points(
    model, corpus_dir, monkeypatch
):
    """`variables()` of a trace `run` returns reads its record's layout:
    no TracePoint is built, and the names are the eager trace's."""
    system = dsl.load_file(corpus_dir / f"{model}.ccs")
    box = json.loads((corpus_dir / f"{model}.init.json").read_text())
    member = batch_member(PIN_SEED, 0, box, "uniform-random", 20.0)
    eager = _eager_trace(system, *member)
    made = []
    real_point = ccskit.simulator.TracePoint

    def counting_point(*args):
        made.append(args)
        return real_point(*args)

    monkeypatch.setattr(ccskit.simulator, "TracePoint", counting_point)
    recorded = run(system, *member)
    assert recorded.variables() == eager.variables()
    assert made == []


# -- streamed batch aggregation ----------------------------------------------


def _summary_from_runs(system, n: int, seed: int, box: dict, strategy: str, horizon: float):
    """The batch aggregates, recomputed from full `run` traces."""
    ranges: dict[str, tuple[float, float]] = {}
    violations: dict[str, int] = {}
    residual, points, stuck = 0.0, 0, 0
    for i in range(n):
        run_seed, init = _member_init(box, seed, i)
        try:
            trace = run(system, Schedule(strategy=strategy, seed=run_seed, horizon=horizon), init)
        except StuckState:
            stuck += 1
            continue
        for p in trace.points:
            for name, value in p.values.items():
                lo, hi = ranges.get(name, (value, value))
                ranges[name] = (min(lo, value), max(hi, value))
        for v in trace.violations:
            violations[v.monitor] = violations.get(v.monitor, 0) + 1
        residual = max(residual, trace.max_invariant_residual)
        points += len(trace.points)
    return ranges, violations, residual, points, stuck


def _bits(ranges: dict) -> dict:
    pack = struct.Struct(">d").pack
    return {name: (pack(lo), pack(hi)) for name, (lo, hi) in ranges.items()}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("model", ["watertank", "watertank_late_ctrl", "two_tanks"])
def test_batch_aggregates_match_member_runs(model, strategy, corpus_dir):
    """The batch's reductions, which skip a state recorded twice in a
    row, are bit for bit those over every point of the full traces."""
    system = dsl.load_file(corpus_dir / f"{model}.ccs")
    box = json.loads((corpus_dir / f"{model}.init.json").read_text())
    summary = run_batch(system, 3, 11, box, strategy, horizon=6.0)
    ranges, violations, residual, points, stuck = _summary_from_runs(
        system, 3, 11, box, strategy, 6.0
    )
    assert _bits(summary.variable_ranges) == _bits(ranges)
    assert summary.total_points == points
    assert struct.pack(">d", summary.max_invariant_residual) == struct.pack(">d", residual)
    assert {k: c for k, c in summary.violations.items() if c} == violations
    assert summary.stuck_runs == stuck == 0


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_batch_member_reproduces_each_run(strategy, corpus_dir):
    system = dsl.load_file(corpus_dir / "watertank_late_ctrl.ccs")
    box = json.loads((corpus_dir / "watertank_late_ctrl.init.json").read_text())
    members = [batch_member(11, i, box, strategy, 6.0) for i in range(3)]
    for i, (schedule, init) in enumerate(members):
        run_seed, expected_init = _member_init(box, 11, i)
        assert schedule == Schedule(strategy=strategy, seed=run_seed, horizon=6.0)
        assert init == expected_init
    traces = [run(system, *member) for member in members]
    summary = run_batch(system, 3, 11, box, strategy, horizon=6.0)
    assert summary.total_points == sum(len(t.points) for t in traces)
    assert summary.runs_with_violations == sum(1 for t in traces if t.violations)
    assert summary.max_invariant_residual == max(t.max_invariant_residual for t in traces)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_stuck_members_stay_out_of_batch_aggregates(strategy):
    system = _stuck_system()
    box = {"x": [-2, 0], "y": 0, "t": 0, "tau_1": 0}
    summary = run_batch(system, 6, 3, box, strategy, horizon=1.0)
    ranges, violations, residual, points, stuck = _summary_from_runs(
        system, 6, 3, box, strategy, 1.0
    )
    # Members starting above x = -1 reach the wall before the horizon.
    assert 0 < summary.stuck_runs == stuck < summary.runs
    assert summary.variable_ranges == ranges
    assert summary.total_points == points
    assert summary.max_invariant_residual == residual
    assert violations == {}
    # A stuck member ends at the wall; no point of it may widen the range.
    assert summary.variable_ranges["x"][1] < -0.5


# -- tuple states: names stay out of the generated code ----------------------


def test_awkward_names_in_a_checked_goal():
    """Each name is pinned to its index; the program adds one to each in
    turn, and the postcondition wants the last one left alone, so the
    witness is the whole shifted state. `w` is bound only: it stays out
    of the initial state and shows in the witness."""
    names = AWKWARD_NAMES
    bumps = seq(*(Assign(n, Plus(var(n), num(1))) for n in names), Assign("w", var("x")))
    box = {n: float(i) for i, n in enumerate(names)}
    holds = Box(bumps, conj(*(Compare("=", var(n), num(i + 1)) for i, n in enumerate(names))))
    assert check_bounded(holds, box, grid=2).status == "holds"
    last = len(names) - 1
    fails = Box(bumps, Compare("<=", var(names[-1]), num(last)))
    res = check_bounded(fails, box, grid=2)
    assert res.status == "counterexample"
    assert res.initial == box
    assert res.counterexample == {**{n: i + 1.0 for i, n in enumerate(names)}, "w": 1.0}
    # Witness dicts follow the layout: the sorted variables.
    assert list(res.counterexample) == sorted(res.counterexample)


AWKWARD_INIT = {"lambda": 0, "'": 2, '"': 0, "\\": 3, "t": 0, "if": 0}


def _awkward_system(controller: str = "copy"):
    """A controller that copies `'` into `lambda` and a plant that moves
    `"` at the rate held in `\\`, over the variables of AWKWARD_INIT."""
    ctrl = make_reactive_controller(
        controller,
        Assign("lambda", Plus(var("'"), num(1))),
        Fraction(1, 20),
        "if",
        contract=Contract(guarantee=Compare("<=", var("lambda"), num(0))),
    )
    plant = make_controllable_plant(
        "move",
        (('"', var("\\")),),
        Compare("<=", var('"'), num(100)),
        Fraction(1, 5),
        contract=Contract(),
    )
    return make_ccs(ctrl, plant, name="awkward")


def test_awkward_names_in_a_run(tmp_path):
    """Every name of the awkward system survives to the trace, its
    violations and the CSV header."""
    init = AWKWARD_INIT
    trace = run(_awkward_system(), Schedule(strategy="round-robin", seed=1, horizon=0.5), init)
    assert trace.variables() == sorted(init)
    for p in trace.points:
        assert p.values['"'] == pytest.approx(3.0 * p.values["t"], abs=1e-9)
    fired = [p.values for p in trace.points if p.event.startswith("ctrl-fired")]
    assert fired and all(v["lambda"] == 3.0 and v["if"] == v["t"] for v in fired)
    assert trace.violations and {v.monitor for v in trace.violations} == {"G[copy]"}
    assert all(v.values["lambda"] == 3.0 for v in trace.violations)
    path = tmp_path / "awkward.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        assert next(csv.reader(fh)) == ["time", "event", *sorted(init)]


def test_init_names_outside_the_system_are_not_state(watertank, tmp_path):
    """A library caller's init may name variables the system lacks (the
    CLI rejects them). Such a name can be an alias target, but it is not
    part of the state: the run, its CSV and its batch are bit for bit the
    run with the alias resolved."""
    schedule = Schedule(seed=3, horizon=2.0)
    plain = run(watertank, schedule, WT_INIT)
    extra = run(watertank, schedule, {**WT_INIT, "zzz": 5, "aaa": "=wl", "wlm": "=aaa"})
    assert extra == plain and extra.variables() == plain.variables()
    assert [p.values for p in extra.points] == [p.values for p in plain.points]
    paths = tmp_path / "plain.csv", tmp_path / "extra.csv"
    for trace, path in zip((plain, extra), paths):
        write_trace_csv(trace, path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    box = {"wl": [3.6, 6.4], "wlm": "=wl", "fin": 1, "t": 0, "tau_1": 0}
    assert run_batch(watertank, 2, 1, {**box, "zzz": 2}) == run_batch(watertank, 2, 1, box)


# -- the CSV writer against one csv.writer row per point ---------------------


def _reference_csv(trace, path) -> None:
    """The run CSV as csv.writer writes it, one row per point: the
    writer's first form, kept as the reference for its bytes."""
    names = trace.variables()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "event", *names])
        for p in trace.points:
            writer.writerow([repr(p.time), p.event, *(repr(p.values[n]) for n in names)])


def _assert_csv_is_the_reference(trace, tmp_path) -> None:
    written, reference = tmp_path / "written.csv", tmp_path / "reference.csv"
    write_trace_csv(trace, written)
    _reference_csv(trace, reference)
    assert written.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("model", sorted({model for model, _ in TRACE_PINS}))
def test_run_0_csv_is_the_reference(model, strategy, corpus_dir, tmp_path):
    system = dsl.load_file(corpus_dir / f"{model}.ccs")
    box = json.loads((corpus_dir / f"{model}.init.json").read_text())
    trace = run(system, *batch_member(PIN_SEED, 0, box, strategy, 20.0))
    _assert_csv_is_the_reference(trace, tmp_path)


@pytest.mark.parametrize("model", RUN_MODELS)
def test_csv_after_the_points_are_read_is_the_reference(model, corpus_dir, tmp_path, monkeypatch):
    """A trace whose points were read first (perfbench's replay counts
    its events) is still written from its record: no point is built
    again, and the bytes are the reference's."""
    made = []
    real_point = ccskit.simulator.TracePoint

    def counting_point(*args):
        made.append(args)
        return real_point(*args)

    monkeypatch.setattr(ccskit.simulator, "TracePoint", counting_point)
    system = dsl.load_file(corpus_dir / f"{model}.ccs")
    box = json.loads((corpus_dir / f"{model}.init.json").read_text())
    trace = run(system, *batch_member(PIN_SEED, 0, box, "uniform-random", 20.0))
    assert made == []
    points = trace.points
    assert len(made) == len(points)
    _assert_csv_is_the_reference(trace, tmp_path)
    assert len(made) == len(points)


@pytest.mark.parametrize("controller", ["copy", 'co,p"y\nnext'])
def test_awkward_names_csv_is_the_reference(controller, tmp_path):
    """Names and events that need quoting: a `,`, a `"` and a newline in
    the controller's name land in its `ctrl-fired(...)` events."""
    system = _awkward_system(controller)
    trace = run(system, Schedule(strategy="round-robin", seed=1, horizon=0.5), AWKWARD_INIT)
    assert f"ctrl-fired({controller})" in {p.event for p in trace.points}
    _assert_csv_is_the_reference(trace, tmp_path)


def _hand_trace(rows) -> Trace:
    return Trace([TracePoint(*row) for row in rows], [], 0.0, False, 0.0)


def test_hand_built_csv_is_the_reference(tmp_path):
    """Special floats; -0.0 after a distinct 0.0 object, which must not
    reuse its text although the two are equal; one float object across
    rows; a quoted and an empty event; one variable; no points."""
    zero, minus_zero, same = float("0.0"), float("-0.0"), float("2.5")
    cases = [
        [
            (0.0, "start", {"a": math.nan, "b": math.inf, "c": 1e-300}),
            (0.5, "a,b", {"a": -math.inf, "b": math.nan, "c": -1e-300}),
            (1.0, 'say "hi"', {"a": zero, "b": same, "c": same}),
            (1.0, "", {"a": minus_zero, "b": same, "c": same}),
            (same, "", {"a": minus_zero, "b": same, "c": zero}),
            (same, "start", {"a": zero, "b": zero, "c": float("0.0")}),
        ],
        [(zero, "only", {"x": zero}), (zero, "only", {"x": minus_zero}), (same, "x", {"x": same})],
        [],
    ]
    for rows in cases:
        _assert_csv_is_the_reference(_hand_trace(rows), tmp_path)
    assert (tmp_path / "written.csv").read_bytes() == b"time,event\r\n"
