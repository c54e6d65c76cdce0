"""Concrete execution of closed-loop systems.

Scheduling resolves the nondeterminism of the loop: a strategy decides
when the plant evolves and which controller fires, subject to the hard
rule that time never passes a guard `t <= tau_i + delta`. Three
strategies are provided:

* uniform-random: seeded random segment lengths and controller orders,
* lazy-controller: every controller fires at the last admissible moment
  (t = tau + delta - eps), the adversarial schedule for overshoot,
* round-robin: controllers fire cyclically near each expiry.

A controller program means what the bounded checker takes it to mean:
`compile_program_over` gives the list of its final states, and a firing
takes the only one, or a seeded uniform draw when there are several. A
program with no final state (every branch failed a test) cannot fire.

Integration uses an exact closed form whenever every right-hand side is
constant over a segment (none of its free variables are evolved), which
covers piecewise-constant actuation models and keeps cross-component
invariants exact to float rounding. Anything else falls back to
fixed-step RK4 with h = min(reactivity, controllability) / 100.

Guarantees and the composition invariant are monitored at every loop
boundary; violations are recorded, never fatal. Identical
(system, schedule, init) inputs give bit-identical traces.

Everything a run evaluates is compiled once per system to Python source
by one emitter (`emit_term`/`emit_formula`). A run is one generated
pass per (system, strategy): the schedule loop as one function, with
each controller's event code, timestamp slot and stamp inline, and the
monitors, the clock's snap onto an expiry and, for an exact flow whose
domain is affine, the segment's one-expression step (domain, slopes and
exit time) written out where they are used. Rare cases call plain code:
an exit within the step, a stall, a flow that scans. With two
controllers a uniform-random pass draws the shuffle inline, as
`rng.shuffle` of two draws it; three or more shuffle a list. A run only
records each point's state and event code. Its residual and a batch's
ranges are taken after it, over its states less repeats: one generated
`max` over the gaps, and per slot a `min` and a `max` equal to
`min(lo, *column)` bit for bit. Its trace builds points only when read,
and its CSV comes from the record: one `repr` per distinct float object
in a column. The bounded checker's goals go through the same compiler
(`_compile`): boxes and quantifiers are generated loops, a box program
runs as a helper function its node keeps once per layout, an exact flow
with an affine domain is sampled by one generated function
(`flow_states`), and each grid search is generated too (`compile_check`,
one per goal and grid shape, which the checker's obligation keeps).
Every source is compiled inside `_guarded`, the one place where a source
Python will not compile raises CcsError naming what it was printed from.

A state is a tuple of floats over a layout, an ordered tuple of
variable names; the generated code reads and writes slot `s[i]` and
rebuilds a state as one full-width tuple. A run's layout is
`sorted(system_variables)`, the CSV's column order; an init entry
naming no variable of the system only serves as an alias target and is
not part of the state. Dicts are built only where a state leaves the
module: `TracePoint.values` and `MonitorViolation.values`.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import random
import re
from itertools import chain, compress
from numbers import Real
from operator import is_, is_not, itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from .ast import (
    And,
    Assign,
    Box,
    Compare,
    Divide,
    Exists,
    FalseF,
    Forall,
    Formula,
    Implies,
    Loop,
    Minus,
    Neg,
    Node,
    Not,
    ODE,
    Or,
    Plus,
    Program,
    Rational,
    Record,
    Seq,
    Term,
    Test,
    Times,
    TrueF,
    Variable,
    Choice,
    choice_alternatives,
    conj,
    conjuncts,
    modality,
    print_formula,
    print_program_inline,
    print_term,
)
from .components import MCCS, CLOCK, Contract
from .errors import (
    CcsError,
    DivisionByZero,
    InitViolatesAssumptions,
    StuckState,
    UnboundedVariable,
)
from .statics import all_vars, free_vars

# Equality comparisons share the invariant-residual budget: a conjunct
# `a = b` holds when |a - b| <= 1e-9, which float drift over a 20s run of
# exact-path segments never approaches (observed residuals are ~1e-13).
EQ_TOLERANCE = 1e-9
BOUNDARY_TOLERANCE = 1e-12
BISECT_TOLERANCE = 1e-9

# A state is a tuple of floats over a layout, an ordered tuple of variable
# names: slot i holds the value of layout[i], or None while a variable the
# checker only binds is unset. Dicts (name -> float) appear only where a
# state leaves the package.
State = tuple
Slots = Mapping[str, int]  # a layout's name -> slot index
_LAYOUTS: dict[tuple[str, ...], Slots] = {}


def slots_of(layout: Iterable[str]) -> Slots:
    """The layout's name -> slot index, as one read-only mapping per
    layout: the emitters key each node's kept source on its identity."""
    layout = tuple(layout)
    if layout not in _LAYOUTS:
        _LAYOUTS[layout] = MappingProxyType({n: i for i, n in enumerate(layout)})
    return _LAYOUTS[layout]


# ---------------------------------------------------------------------------
# Compiled evaluation of modality-free terms and formulas
#
# One compiler. emit_term/emit_formula print a term or formula as one
# Python expression over the state `s`, with the float operations of a
# direct evaluation in the same order: no term is reordered or rewritten,
# so results are bit for bit those of walking the tree. A variable is its
# slot `s[i]`, so no name ever reaches the source. A shared formula
# prints once per layout (see emit_formula). compile_source turns a
# source into a function once per distinct text; its cache holds strings,
# not AST nodes, and systems and goals that print the same expression
# share one function. A caller that evaluates a node many times compiles
# it once and keeps the function (see CompiledSystem, _compile, check_bounded).


def _division_by_zero(text: str):
    raise DivisionByZero(text)


_GLOBALS = dict(__builtins__={}, abs=abs, chain=chain, len=len, max=max, min=min,
                range=range, _dz=_division_by_zero)


@functools.lru_cache(maxsize=2048)
def compile_source(params: str, src: str) -> Callable:
    """`lambda <params>: <src>` as a function, compiled once per text. A
    `src` that starts with a newline is instead the indented body of a
    `def`."""
    if src[:1] != "\n":
        return eval(f"lambda {params}: {src}", _GLOBALS)
    scope: dict = {}
    exec(f"def f({params}):{src}", _GLOBALS, scope)
    return scope["f"]


def emit_term(t: Term, slots: Slots) -> str:
    """`t` as a Python expression over the state `s`. A variable is its
    slot `s[i]`, or the source `slots` maps it to in place of an index.

    Division evaluates its denominator first and raises DivisionByZero
    with the printed term when it is zero, before touching the numerator:
    the denominator is `d` of a one-element comprehension, a form that
    also compiles inside another comprehension's iterable, where a
    program's statements land.
    """
    if isinstance(t, Variable):
        slot = slots[t.name]
        return f"s[{slot}]" if isinstance(slot, int) else slot
    if isinstance(t, Rational):
        # float(Fraction), without its generic dispatch.
        return repr(t.value.numerator / t.value.denominator)
    if isinstance(t, Neg):
        return f"(-{emit_term(t.operand, slots)})"
    if isinstance(t, Divide):
        text = repr(print_term(t))
        return (
            f"[{emit_term(t.left, slots)} / d for d in "
            f"[{emit_term(t.right, slots)}] if d != 0.0 or _dz({text})][0]"
        )
    if isinstance(t, (Plus, Minus, Times)):
        op = "+" if isinstance(t, Plus) else "-" if isinstance(t, Minus) else "*"
        left = emit_term(t.left, slots)
        # Python groups `a - b + c` as `(a - b) + c`, so a left operand of
        # the same precedence drops its parentheses and the long chains the
        # parser builds do not nest past Python's limit.
        if isinstance(t.left, (Times,) if op == "*" else (Plus, Minus)):
            left = left[1:-1]
        return f"({left} {op} {emit_term(t.right, slots)})"
    raise TypeError(f"not a term: {t!r}")


def emit_formula(f: Formula, slots: Slots) -> str:
    """`f`, free of boxes and quantifiers, as a Python expression over
    the state `s`, its terms as emit_term prints them. `=` and `!=`
    compare within EQ_TOLERANCE (1e-9). And chains print flat, as `and`
    short-circuits the same way whatever the grouping; Or chains as
    Python groups them, left first. A compound formula keeps the last
    source printed from it with its `slots` (see ast.Node): the goals of
    a composition share their contract and invariant nodes, and a layout
    has one mapping (slots_of), so a shared formula prints once per
    layout. A term keeps nothing: few are printed twice over one layout.
    """
    if isinstance(f, TrueF):
        return "True"
    if isinstance(f, FalseF):
        return "False"
    kept = getattr(f, "_emitted", None)
    if kept is not None and kept[0] is slots:
        return kept[1]
    if isinstance(f, Compare):
        left, right = emit_term(f.left, slots), emit_term(f.right, slots)
        if f.op in ("=", "!="):
            op = "<=" if f.op == "=" else ">"
            text = f"(abs({left} - {right}) {op} {EQ_TOLERANCE!r})"
        else:
            text = f"({left} {f.op} {right})"
    elif isinstance(f, Not):
        text = f"(not {emit_formula(f.operand, slots)})"
    elif isinstance(f, And):
        parts = (emit_formula(c, slots) for c in conjuncts(f))
        text = "(" + " and ".join(parts) + ")"
    elif isinstance(f, Or):
        left = emit_formula(f.left, slots)
        left = left[1:-1] if isinstance(f.left, Or) else left
        text = f"({left} or {emit_formula(f.right, slots)})"
    elif isinstance(f, Implies):
        left = emit_formula(f.left, slots)
        text = f"((not {left}) or {emit_formula(f.right, slots)})"
    elif isinstance(f, (Box, Forall, Exists)):
        raise CcsError("formula is not modality/quantifier-free: " + print_formula(f))
    else:
        raise TypeError(f"not a formula: {f!r}")
    _keep_source(f, (slots, text))
    return text


_keep_source = Node._emitted.__set__


def _tuple_source(items: Iterable[str]) -> str:
    """The tuple of the `items` sources."""
    return "(" + "".join(f"{e}, " for e in items) + ")"


def compile_tuple(params: str, items: Iterable[str]) -> Callable:
    """A function of `params` returning the tuple of the `items` sources."""
    return compile_source(params, _tuple_source(items))


def emit_update(width: int, updates: dict[int, str]) -> str:
    """A copy of the state `s` with each slot in `updates` set to its
    source, as one full-width tuple (no slicing: it is the cheaper form)."""
    return _tuple_source(updates.get(i, f"s[{i}]") for i in range(width))


def _ignore() -> None:
    """A program's `cut` where nobody asks about truncation, and the
    `narrow` of a source that is not composite."""


def _guarded(node: Program | Formula, make: Callable, narrow: Callable = _ignore,
             what: str = "") -> Callable:
    """`make()`, which prints and compiles a source for `node`: the one
    place where Python's failing to (SyntaxError, RecursionError or
    MemoryError) raises CcsError naming `what`, by default `node`'s kind
    (a program or a formula), and the first 80 characters of `node`. A
    composite source calls `narrow` first, which raises that error for a
    part that fails alone."""
    try:
        return make()
    except (SyntaxError, RecursionError, MemoryError) as e:
        narrow()
        program = isinstance(node, Program)
        try:
            text = (print_program_inline if program else print_formula)(node)[:80]
        except RecursionError:
            text = "(too deep to print)"
        what = what or ("program" if program else "formula")
        raise CcsError(f"{what} nests too deeply to compile ({type(e).__name__}): {text}") from None


# ---------------------------------------------------------------------------
# Continuous flow


def _is_affine(t: Term, moving: frozenset[str]) -> bool:
    """Affine in the evolved variables (degree <= 1), so comparisons of
    such terms cross zero at most once along a constant-slope segment.
    """
    if isinstance(t, (Variable, Rational)):
        return True
    if isinstance(t, Neg):
        return _is_affine(t.operand, moving)
    if isinstance(t, (Plus, Minus)):
        return _is_affine(t.left, moving) and _is_affine(t.right, moving)
    if isinstance(t, Times):
        lmoving = bool(free_vars(t.left) & moving)
        rmoving = bool(free_vars(t.right) & moving)
        if lmoving and rmoving:
            return False
        return _is_affine(t.left, moving) and _is_affine(t.right, moving)
    if isinstance(t, Divide):
        if free_vars(t.right) & moving:
            return False
        return _is_affine(t.left, moving)
    raise TypeError(f"not a term: {t!r}")


# An exact flow's domain conjunct `l op r`, by op: the test of its gap
# `{g} := l - r` at the start, which holds only when both the conjunct and
# the exit time's own test of the gap do, and its candidate exit time from
# `{slope}`, the gap's slope in dt (inf when it never exits).
_EXIT_TESTS = {
    **{op: f"({{g}} := {{gap}}) {op} 0.0" for op in ("<=", "<", ">=", ">")},
    "=": f"abs({{g}} := {{gap}}) <= {EQ_TOLERANCE!r}",
    "!=": f"abs({{g}} := {{gap}}) > {EQ_TOLERANCE!r}",
}
_EXIT_CANDIDATES = {
    **dict.fromkeys(("<=", "<"), "(-{g} / _r if (_r := {slope}) > 0.0 else 1e999)"),
    **dict.fromkeys((">=", ">"), "(-{g} / _r if (_r := {slope}) < 0.0 else 1e999)"),
    "=": f"(0.0 if abs({{slope}}) > {EQ_TOLERANCE!r} else 1e999)",
    "!=": "(_d if (_r := {slope}) != 0.0 and (_d := -{g} / _r) > 0.0 else 1e999)",
}


def _emit_exit_time(ode: ODE, slots: Slots) -> tuple[str, str, str]:
    """The sources `(slopes, held, exit)` FlowSegment makes the exit time
    and the step of a `domain_affine` flow of. `slopes` binds slope j to
    `_kj` as a tuple's items; `held` tests each conjunct's gap at the
    start, in order; `exit`, run after both, is `min` over inf and each
    conjunct's candidate, its gap's slope taken against the state one
    time unit along (each evolved slot plus its `_kj`, the `_kj * 1.0` of
    `at`). `min` keeps the first of equal values and skips NaN, as a
    running minimum does."""
    k = {v: f"_k{j}" for j, (v, _) in enumerate(ode.equations)}
    slopes = "".join(f"{k[v]} := {emit_term(e, slots)}, " for v, e in ode.equations)
    probe = {**slots, **{v: f"(s[{slots[v]}] + {kv})" for v, kv in k.items()}}
    tests, candidates = [], []
    for i, c in enumerate(conjuncts(ode.domain)):
        g = f"_g{i}"
        gap = f"({emit_term(c.left, slots)} - {emit_term(c.right, slots)})"
        slope = f"({emit_term(c.left, probe)} - {emit_term(c.right, probe)}) - {g}"
        tests.append(_EXIT_TESTS[c.op].format(g=g, gap=gap))
        candidates.append(_EXIT_CANDIDATES[c.op].format(g=g, slope=slope))
    return slopes, " and ".join(tests), f"min(1e999, {', '.join(candidates)})"


class FlowSegment:
    """Integrates one ODE node from a start state over the layout `slots`.

    Exact linear advance when every right-hand side is constant over the
    segment; RK4 otherwise. Instances are cheap, stateless descriptions;
    all methods are pure in the start state.

    A `domain_affine` segment (exact, each domain conjunct a comparison
    affine in the evolved variables) has one generated `step` and its
    `exit_time`, and `flow_states` samples it by one generated function;
    any other one advances by `scan`. A segment holds the ODE's domain
    (`domain_formula`, which a compile error names), not the ODE: the
    ODE keeps its sampler (see `_compile`), which refers to the segment.
    """

    def __init__(self, ode: ODE, slots: Slots):
        self.domain_formula = ode.domain
        self.vars = tuple(v for v, _ in ode.equations)
        self.moving = frozenset(self.vars)
        self.exact = all(not (free_vars(rhs) & self.moving) for _, rhs in ode.equations)
        self._domain = emit_formula(ode.domain, slots)
        parts = conjuncts(ode.domain)
        self.domain_affine = self.exact and all(
            isinstance(c, Compare)
            and _is_affine(c.left, self.moving)
            and _is_affine(c.right, self.moving)
            for c in parts
        )
        moved = list(enumerate(slots[v] for v in self.vars))
        width = len(slots)
        self._at = emit_update(width, {i: f"(s[{i}] + (k[{j}] * dt))" for j, i in moved})
        if self.domain_affine:
            # The sources exit_time and step are compiled from on first use;
            # a run's pass inlines the step's.
            slopes, held, exit_dt = self._exit_parts = _emit_exit_time(ode, slots)
            end = self._end = emit_update(width, {i: f"(s[{i}] + (_k{j} * dt))" for j, i in moved})
            self.step_source = (
                f"(_last(s, _k, _e) if (_e := {exit_dt}) <= dt else ({end}, dt)) "
                f"if dt > 0.0 and {held} and (_k := ({slopes})) else _slow(s, dt)"
            )
            return
        # slopes(state): the right-hand sides, in equation order;
        # _shift(state, k, c): state + c * k, as RK4 writes it. A failure
        # names the ODE, as a program.
        self.slopes = _guarded(ode, lambda: compile_tuple(
            "s", [emit_term(e, slots) for _, e in ode.equations]))
        if not self.exact:
            self._shift = _guarded(ode, lambda: compile_source(
                "s, k, c", emit_update(width, {i: f"(s[{i}] + (c * k[{j}]))" for j, i in moved})))
        # (slot of x, e) per domain conjunct `x <= e` or `x < e` on an
        # evolved x; `scanned` sizes its scan step from them.
        self.upper_bounds = _guarded(ode.domain, lambda: tuple(
            (slots[c.left.name], compile_source("s", emit_term(c.right, slots)))
            for c in parts
            if isinstance(c, Compare)
            and c.op in ("<=", "<")
            and isinstance(c.left, Variable)
            and c.left.name in self.moving
        ), what="flow domain")

    # domain(state) tests the domain, and at(state, slopes, dt) is state +
    # slopes * dt on the evolved variables. A run's pass and the checker's
    # sampler inline them for a domain-affine segment, so each compiles on
    # first use, on a rare path. A failure to compile these, exit_time or
    # step names the flow domain.
    domain = functools.cached_property(lambda self: _guarded(
        self.domain_formula, lambda: compile_source("s", self._domain), what="flow domain"))
    at = functools.cached_property(lambda self: _guarded(
        self.domain_formula, lambda: compile_source("s, k, dt", self._at), what="flow domain"))

    def _rk4_step(self, state: State, h: float) -> State:
        f, shift = self.slopes, self._shift
        k1 = f(state)
        k2 = f(shift(state, k1, 0.5 * h))
        k3 = f(shift(state, k2, 0.5 * h))
        k4 = f(shift(state, k3, h))
        k = tuple(a + 2.0 * b + 2.0 * c + d for a, b, c, d in zip(k1, k2, k3, k4))
        return shift(state, k, h / 6.0)

    @functools.cached_property
    def exit_time(self) -> Callable[[State], tuple[tuple[float, ...], float]]:
        """`exit_time(state)` -> (slopes, the largest dt >= 0 with the
        domain true on [0, dt], math.inf if none): 0.0 when a conjunct is
        false at the start, -1.0 outside the domain. Compiled on first use."""
        slopes, held, exit_dt = self._exit_parts
        src = f"(({slopes}), {exit_dt} if {held} else (0.0 if _in(s) else -1.0))"
        return _guarded(self.domain_formula, lambda: compile_source(
            "_in", f"lambda s: {src}")(self.domain), what="flow domain")

    @functools.cached_property
    def step(self) -> Callable[[State, float], tuple[State, float]]:
        """`step(state, dt_request)` -> (end, dt): evolve for up to
        dt_request within the domain, ending on `last_inside` when it exits
        sooner, with the exit time inline. When dt_request is not > 0, a
        test fails or there is no slope (an empty, false tuple),
        `_slow_step` answers. Compiled on first use."""
        src = f"lambda s, dt: {self.step_source}"
        return _guarded(self.domain_formula, lambda: compile_source("_last, _slow", src)(
            self.last_inside, self._slow_step), what="flow domain")

    def _slow_step(self, state: State, dt_request: float) -> tuple[State, float]:
        """`step` in plain code, for the cases the generated one hands on."""
        if not self.domain(state) or dt_request <= 0.0:
            return state, 0.0
        slopes, exit_dt = self.exit_time(state)
        if exit_dt <= dt_request:
            return self.last_inside(state, slopes, exit_dt)
        return self.at(state, slopes, dt_request), dt_request

    def last_inside(
        self, state: State, slopes: tuple[float, ...], exit_dt: float
    ) -> tuple[State, float]:
        """(end, dt) for the last state inside the domain by `exit_dt` on
        the exact path: bisected when an open domain fails at its exit."""
        end = self.at(state, slopes, exit_dt)
        if self.domain(end):
            return end, exit_dt
        return self._bisect(self._along(slopes), state, exit_dt)

    def _along(self, slopes: tuple[float, ...]) -> Callable[[State, float], State]:
        """A step of the exact path: `at` with the slopes fixed."""
        return lambda s, dt: self.at(s, slopes, dt)

    def _bisect(
        self, step: Callable[[State, float], State], start: State, hi: float
    ) -> tuple[State, float]:
        """(step(start, dt), dt) for the largest dt in [0, hi] found, to
        within BISECT_TOLERANCE or until no float lies between the bounds,
        with the domain holding; (start, 0.0) when no probe holds."""
        lo, good = 0.0, start
        while hi - lo > BISECT_TOLERANCE:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            cand = step(start, mid)
            if self.domain(cand):
                lo, good = mid, cand
            else:
                hi = mid
        return good, lo

    def scan(
        self, state: State, dt_request: float, h: float
    ) -> tuple[State, float, bool, list[State]]:
        """Evolve a segment that is not `domain_affine` for up to dt_request
        within the domain, in steps of at most h along the exact path or by
        RK4. Returns (end state, dt achieved, exited_domain, the state after
        each step); an exit is bisected to within 1e-9."""
        if not self.domain(state):
            return state, 0.0, True, []
        samples: list[State] = []
        if dt_request <= 0.0:
            return state, 0.0, False, samples
        step = self._along(self.slopes(state)) if self.exact else self._rk4_step
        elapsed = 0.0
        current = state
        while elapsed < dt_request - BOUNDARY_TOLERANCE:
            dt = min(h, dt_request - elapsed)
            nxt = step(current, dt)
            if not self.domain(nxt):
                good, lo = self._bisect(step, current, dt)
                samples.append(good)
                return good, elapsed + lo, True, samples
            current = nxt
            elapsed += dt
            samples.append(current)
        return current, elapsed, False, samples

    def scanned(self, state: State, cut: Callable[[], None]) -> list[State]:
        """`flow_states` of a segment that is not `domain_affine`: the start
        and each `scan` step's end, with `cut()` past FLOW_MAX_STEPS steps."""
        if not self.domain(state):
            return []
        # A step from any clock-style bound, else a conservative default.
        h = 0.01
        for i, bound in self.upper_bounds:
            try:
                span = bound(state) - state[i]
            except (TypeError, DivisionByZero):  # TypeError: an unset slot
                continue
            if span > 0.0:
                h = min(h, span / 128.0)
        # One walk, given room for a step more than it keeps, so that float
        # drift in its elapsed time cannot shorten the last step that counts.
        _end, _dt, exited, walk = self.scan(state, (FLOW_MAX_STEPS + 1) * h, h)
        samples = [state, *walk[:FLOW_MAX_STEPS]]
        if not (exited and len(walk) <= FLOW_MAX_STEPS):
            cut()
        elif samples[-1] is samples[-2]:
            samples.pop()  # the exit's bisection found no room past the last step
        return samples


FLOW_MAX_STEPS = 20000


def flow_states(seg: FlowSegment, n_samples: int) -> Callable[[State, Callable], list[State]]:
    """All-durations sampling of one continuous evolution, for bounded
    checking: a function `(state, cut)` giving the states the ODE can
    stop in from `state`, none outside the domain, and calling `cut()`
    when it truncates. A `domain_affine` segment gets one generated
    function per source, shared through compile_source's cache, with the
    domain test and exit time inline: the states at `span * i / n` for
    i <= n, the last one bisected by the plain-code `last_inside` when an
    open domain fails there; `span` is the exit time, or 1e6 (truncated)
    when the domain never closes. Any other segment scans (`scanned`)."""
    if not seg.domain_affine:
        return seg.scanned
    slopes, held, exit_dt = seg._exit_parts
    n = n_samples
    # `_t` lies in [0, inf]: exit_time's value, as the domain holds at `s`.
    # The last `dt` is `_sp * n / n`, not `_sp`: it rounds as the others do.
    src = (
        f"\n def states(s, cut):\n  if not {seg._domain}:\n   return []"
        f"\n  _k = ({slopes})\n  _t = {exit_dt} if {held} else 0.0"
        f"\n  _sp = _t if _t < 1e999 else 1e6"
        f"\n  out = []\n  for i in range({n + 1}):"
        f"\n   dt = _sp * i / {n}\n   out.append({seg._end})"
        f"\n  s, _s = out[-1], s\n  if not {seg._domain}:"
        f"\n   out[-1] = _last(_s, _k, dt)[0]"
        f"\n  if _t == 1e999:\n   cut()\n  return out\n return states"
    )
    return _guarded(seg.domain_formula, lambda: compile_source("_last", src)(seg.last_inside),
                    what="flow domain")


# ---------------------------------------------------------------------------
# Program semantics, shared by the simulator and the bounded checker

LOOP_CAP = 8


def _state_key(s: State) -> tuple:
    return tuple(None if v is None else round(v, 12) for v in s)


def _emit_program(p: Program, slots: Slots, helper: Callable[[Program], str]) -> str:
    """The list of final states of `p`, in branch order, as one expression
    over the state `s`. A choice adds its alternatives' lists; a sequence
    starting with a test is its rest if the test holds, any other one a
    comprehension along its right spine: a test is an `if` clause, any
    other statement rebinds `s` to each of its final states. A sequence
    nested on the left stays one statement, which runs to its end before
    the rest starts. Loops and ODEs are the helper calls `helper` returns.
    """
    if isinstance(p, Test):
        return f"([s] if {emit_formula(p.condition, slots)} else [])"
    if isinstance(p, Assign):
        rhs = emit_term(p.rhs, slots)
        return f"[{emit_update(len(slots), {slots[p.var]: rhs})}]"
    if isinstance(p, Choice):
        # Bare `+` binds tighter than anywhere a choice lands: more nesting fits.
        return " + ".join(_emit_program(a, slots, helper) for a in choice_alternatives(p))
    if isinstance(p, Seq):
        if isinstance(p.first, Test):
            then = _emit_program(p.second, slots, helper)
            return f"({then} if {emit_formula(p.first.condition, slots)} else [])"
        src, rest = f"[s for s in {_emit_program(p.first, slots, helper)}", p
        while isinstance(rest, Seq):
            rest = rest.second
            st = rest.first if isinstance(rest, Seq) else rest
            if isinstance(st, Test):
                src += f" if {emit_formula(st.condition, slots)}"
            else:
                src += f" for s in {_emit_program(st, slots, helper)}"
        return src + "]"
    return helper(p)


def _loop(defs: list[str], head: str, test: str, found: bool) -> str:
    """The call of a loop def appended to `defs`: it returns `found` on
    the first pass of `head` (a `for` line, then any lines at its body's
    three-space indent) where `test` holds, else `not found`."""
    name = f"_l{len(defs)}"
    defs.append(f"\n def {name}(s, axis, cut, fail):\n  {head}\n   if {test}:"
                f"\n    return {found}\n  return {not found}")
    return f"{name}(s, axis, cut, fail)"


def _emit_goal(f: Formula, slots: Slots, helper: Callable[[Program], str],
               defs: list[str]) -> str:
    """`f` as one Python expression over the state `s`, true when `f`
    holds there. When it is false, the last `fail` call it made saw the
    witness: the reached state where a box- and quantifier-free part
    went false, or where a negation or an exists failed.

    Each box and quantifier is the call of a loop def appended to
    `defs`, which runs in its own scope and so rebinds a local `s`. A
    box's loop takes the final states of its program, which `helper`
    returns the call of, and a quantifier's the states with its slot set
    to each coordinate of `axis(slot)`. A forall that held, or an exists
    that found no value, calls `cut()`: its grid ran out without
    deciding it, as a loop or flow cut short does.
    """
    if not modality(f):
        return f"({emit_formula(f, slots)} or fail(s))"
    if isinstance(f, Not):
        return f"((not {_emit_goal(f.operand, slots, helper, defs)}) or fail(s))"
    if isinstance(f, (And, Or, Implies)):
        left = _emit_goal(f.left, slots, helper, defs)
        right = _emit_goal(f.right, slots, helper, defs)
        if isinstance(f, Implies):
            return f"((not {left}) or {right})"
        return f"({left} {'and' if isinstance(f, And) else 'or'} {right})"
    if isinstance(f, Box):
        post = _emit_goal(f.post, slots, helper, defs)
        return _loop(defs, f"for s in {helper(f.program)}:", f"not {post}", False)
    if isinstance(f, (Forall, Exists)):
        i = slots[f.var]
        body = _emit_goal(f.body, slots, helper, defs)
        head = f"for x in axis({i}):\n   s = {emit_update(len(slots), {i: 'x'})}"
        if isinstance(f, Forall):
            return f"({_loop(defs, head, f'not {body}', False)} and not cut())"
        return f"({_loop(defs, head, body, True)} or cut() or fail(s))"
    raise TypeError(f"not a formula: {f!r}")


def _goal_source(f: Formula, slots: Slots, helper: Callable[[Program], str]) -> str:
    """The source over `_h` of `f`'s function `(s, axis, cut, fail)`: a
    lambda of `_emit_goal`'s expression, or the body of a def that makes
    its loop defs and returns that lambda, or the one loop the side is."""
    defs: list[str] = []
    expr = _emit_goal(f, slots, helper, defs)
    side = f"lambda s, axis, cut, fail: {expr}"
    if not defs:
        return side
    last = f"_l{len(defs) - 1}"
    return "".join(defs) + f"\n return {last if expr == last + '(s, axis, cut, fail)' else side}"


def _compile(
    node: Program | Formula,
    emit: Callable[[Program | Formula, Slots, Callable[[Program], str]], str],
    slots: Slots,
    unroll: int = LOOP_CAP,
    flow_samples: int = 32,
) -> Callable:
    """What the source `emit(node, slots, helper)` makes, compiled once:
    the one compile entry for programs and checker goals. The source is
    a `lambda` or a `def` body over the tuple `_h` of helpers, so sources
    of one shape share one compiled source and a call goes through no
    partial.

    `helper(q)` is the call text `_h[i](s, cut)` of a program `q` that
    runs as a helper: a loop yields the distinct states (by `_state_key`)
    reachable in at most `unroll` passes of its body, an ODE the
    `flow_samples`-point sampler `flow_states` makes, and any other
    program what `compile_program_over` gives. `cut()` is called
    whenever a loop or a flow has more states than those bounds reach.
    `q` keeps the function per layout and bounds (see ast.Node), so a
    program or flow the obligations of a composition share is built once.

    Raises ValueError when `flow_samples` is not an int of at least 1,
    and CcsError naming `node` (see `_guarded`) when printing or
    compiling the source nests past Python's limits.
    """
    if isinstance(flow_samples, bool) or not isinstance(flow_samples, int):
        raise ValueError(f"flow_samples must be an int, got {flow_samples!r}")
    if flow_samples < 1:
        raise ValueError(f"flow_samples must be at least 1, got {flow_samples!r}")
    bounds = (unroll, flow_samples)
    helpers: list[Callable[[State, Callable[[], None]], list[State]]] = []

    def helper(q: Program) -> str:
        kept = getattr(q, "_emitted", None)
        if kept is None or kept[0] is not slots or kept[1] != bounds:
            kept = (slots, bounds, _helper_function(q, slots, unroll, flow_samples))
            _keep_source(q, kept)
        helpers.append(kept[2])
        return f"_h[{len(helpers) - 1}](s, cut)"

    return _guarded(node, lambda: compile_source("_h", emit(node, slots, helper))(tuple(helpers)))


def _helper_function(q: Program, slots: Slots, unroll: int, flow_samples: int) -> Callable:
    """The function `(s, cut)` that `_compile`'s `helper` runs `q` as."""
    if isinstance(q, ODE):
        return flow_states(FlowSegment(q, slots), flow_samples)
    if not isinstance(q, Program):
        raise TypeError(f"not a program: {q!r}")
    if not isinstance(q, Loop):
        return compile_program_over(q, slots, unroll, flow_samples)
    body = compile_program_over(q.body, slots, unroll, flow_samples)

    def unrolled(s: State, cut, _b=body) -> list[State]:
        seen = {_state_key(s): s}
        frontier = [s]
        for _ in range(unroll):  # each pass's new states, each kept once, in order
            frontier = [seen.setdefault(k, r) for st in frontier for r in _b(st, cut)
                        if (k := _state_key(r)) not in seen]
            if not frontier:
                break
        if frontier:
            cut()
        return list(seen.values())

    return unrolled


def compile_program_over(
    p: Program, slots: Slots, unroll: int = LOOP_CAP, flow_samples: int = 32
) -> Callable[[State, Callable[[], None]], list[State]]:
    """The relational semantics of `p` over the layout `slots`, compiled
    once to one generated expression (see _emit_program): a function
    `(s, cut)` giving every final state of `p` from `s`, in branch order,
    duplicates kept.

    A failed test yields no state, a choice the states of each
    alternative in turn, and loops and ODEs what `_compile`'s helpers
    give at the bounds `unroll` and `flow_samples`. The bounded checker
    enumerates the result; the simulator fires one of its states.

    Raises ValueError when `flow_samples` is not an int of at least 1,
    and CcsError when Python will not compile the expression: each
    level of `(?(x >= 0); P; y := i U z := 1)` nests two of the 200
    parentheses Python allows, so P can nest 99 levels deep, and past
    about 200 levels printing the expression recurses too deeply.
    """
    return _compile(p, lambda p, slots, helper: "lambda s, cut: " + _emit_program(
        p, slots, helper), slots, unroll, flow_samples)


def compile_goal(
    f: Formula, slots: Slots, unroll: int = LOOP_CAP, flow_samples: int = 32
) -> Callable[[State, Callable, Callable, Callable], bool]:
    """`f` compiled once to a function `(s, axis, cut, fail)`: the
    expression `_emit_goal` prints, with its loop defs, its box programs
    run as `_compile`'s helpers at the bounds `unroll` and
    `flow_samples`. Raises ValueError when `flow_samples` is not an int
    of at least 1, and CcsError when Python will not compile it."""
    return _compile(f, _goal_source, slots, unroll, flow_samples)


def conjunct_tests(f: Formula, slots: Slots) -> tuple[str, ...] | None:
    """The texts of `f`'s conjuncts over the state `s`, as emit_formula
    prints them, in order and each once, less `True`: tests a grid
    search may run apart and reorder, as none can raise. None when `f`
    has a box or a quantifier, or divides (a `_dz(` text), which must
    run whole. Raises CcsError naming `f` when it nests too deeply to
    print (see `_guarded`)."""
    if modality(f):
        return None
    texts = _guarded(f, lambda: dict.fromkeys(emit_formula(c, slots) for c in conjuncts(f)))
    texts.pop("True", None)
    return None if any("_dz(" in t for t in texts) else tuple(texts)


# A slot read `s[i]` in an emitted formula.
_SLOT = re.compile(r"s\[(\d+)\]")


def _search_source(tests: tuple[str, ...] | None, columns: tuple[int | None, ...],
                   looped: tuple[bool, ...]) -> tuple[str, bool]:
    """The source of `search(axes, axis, cut, fail)` over `pre` and
    `post` (see compile_check), and whether it calls `pre`: one `for`
    per axis with `looped` set, outermost first, the other axes bound
    before them. Slot i of a point holds the coordinate `c{k}` of axis
    k = `columns[i]`, or None.

    A test runs at the outermost loop that binds every slot it reads:
    level 0 before the loops, level j inside the j-th of the looped
    axes. When the tests of a level fail, `total` skips the block of
    points inside. When no test lands in a loop outside the innermost
    one, nothing is gained by testing apart: the search calls `pre` at
    each point instead, and its source, which then names no test, is
    the same for every antecedent over the same columns and shape.
    Binding the one-value axes first keeps the search within CPython's
    20 nested blocks: a grid of 200,000 points loops at most 17 axes."""
    order = [k for k, many in enumerate(looped) if many]
    depth = len(order)
    level = {k: i for i, k in enumerate(order, 1)}  # a one-value axis is level 0
    slot_level = [level.get(k, 0) for k in columns]
    at: list[list[str]] = [[] for _ in range(depth + 1)]
    for t in tests if tests and depth > 1 else ():
        at[max([slot_level[int(i)] for i in _SLOT.findall(t)], default=0)].append(t)
    calls_pre = not any(at[1:-1])
    # A test reads the coordinates its slots hold, not a state.
    texts = ["" if calls_pre else _SLOT.sub(lambda m: f"c{columns[int(m[1])]}", " and ".join(
        level_tests)) for level_tests in at]

    def block(k: int) -> str:  # the number of points inside level k
        return " * ".join(f"len(axes[{c}])" for c in order[k:]) or "1"

    lines = [f"c{k} = axes[{k}][0]" for k, many in enumerate(looped) if not many]
    lines += [f"b{k} = {block(k)}" for k in range(1, depth) if texts[k]]
    lines.append("checked = total = 0")
    pad = ""
    for k in range(depth):
        if texts[k]:
            lines.append(f"{pad}if not ({texts[k]}):")
            lines += [f"{pad} total += b{k}", f"{pad} continue"] if k else [
                f" return 0, {block(0)}, None"]
        lines.append(f"{pad}for c{order[k]} in axes[{order[k]}]:")
        pad += " "
    state = f"s = {_tuple_source('None' if k is None else f'c{k}' for k in columns)}"
    if calls_pre:
        lines += [f"{pad}total += 1", f"{pad}{state}", f"{pad}if pre(s, axis, cut, fail):",
                  f"{pad} checked += 1"]
    else:
        lines += [f"{pad}total += 1", f"{pad}if {texts[depth] or 'True'}:",
                  f"{pad} checked += 1", f"{pad} {state}"]
    lines += [f"{pad} if not post(s, axis, cut, fail):", f"{pad}  return checked, total, s",
              "return checked, total, None"]
    return "\n def search(axes, axis, cut, fail):" + "".join(
        f"\n  {line}" for line in lines) + "\n return search", calls_pre


def _implied(*_args) -> bool:
    """A consequent whose every conjunct the antecedent tests: it holds
    wherever a search reaches it."""
    return True


def compile_check(
    pre: Formula, post: Formula, slots: Slots, columns: tuple[int | None, ...],
    looped: tuple[bool, ...], unroll: int = LOOP_CAP, flow_samples: int = 32,
) -> Callable[..., tuple[int, int, State | None]]:
    """The goal `pre -> post` over the layout `slots`, compiled to one
    grid search for grids of the shape `looped` (which axes hold more
    than one value).

    `search(axes, axis, cut, fail)` goes over the points of the grid
    `axes` (the coordinates of each axis) in the order of their product.
    It counts each in `total` and, where `pre` holds, in `checked`, and
    stops at the first where `post` fails: `(checked, total, that point
    or None)`. Slot i of a point holds the coordinate of axis
    `columns[i]`, or None. `pre` is tested by its conjunct_tests, each at
    the outermost loop that binds what it reads, or whole at each point
    (see _search_source), and only then compiled by compile_goal; `post`
    by compile_goal at the bounds `unroll` and `flow_samples`, unless
    `pre` tests each of its conjuncts. Raises CcsError naming `pre` when
    Python will not compile the search."""
    tests = conjunct_tests(pre, slots)
    post_tests = None if tests is None else conjunct_tests(post, slots)
    implied = post_tests is not None and set(post_tests) <= set(tests)
    holds = _implied if implied else compile_goal(post, slots, unroll, flow_samples)
    source, calls_pre = _search_source(tests, columns, looped)
    whole = compile_goal(pre, slots, unroll, flow_samples) if calls_pre else None
    return _guarded(pre, lambda: compile_source("pre, post", source)(whole, holds))


# ---------------------------------------------------------------------------
# Schedules and traces

STRATEGIES = ("uniform-random", "lazy-controller", "round-robin")
# Passes of a run's loop before it stops with `truncated` set.
MAX_ITERATIONS = 400000


class Schedule(Record):
    __slots__ = ("strategy", "seed", "horizon")
    _defaults = {"strategy": "uniform-random", "seed": 0, "horizon": 20.0}

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; pick one of {STRATEGIES}"
            )
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon!r}")


_set = object.__setattr__


class TracePoint(Record):
    __slots__ = ("time", "event", "values")

    def __init__(self, time: float, event: str, values: dict[str, float]) -> None:
        # One per point a trace builds: spelled out, as it runs faster than Record's loop.
        _set(self, "time", time)
        _set(self, "event", event)
        _set(self, "values", values)


class MonitorViolation(Record):
    __slots__ = ("time", "monitor", "formula_text", "values")


class Trace(Record):
    """One run's points and monitor violations, its end time, whether
    it stopped at MAX_ITERATIONS and its largest invariant residual. A
    trace `run` returns builds its points from `_record` on first read."""

    __slots__ = (
        "points", "violations", "end_time", "truncated", "max_invariant_residual",
        "_record",
    )

    def __getattr__(self, name: str):
        # Reached only while a slot is unset: a recorded trace's points.
        if name != "points":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        layout, clock, names, codes, states = self._record
        _set(self, "points", [
            TracePoint(s[clock], names[e], dict(zip(layout, s))) for e, s in zip(codes, states)
        ])
        return self.points

    def variables(self) -> list[str]:
        record = getattr(self, "_record", None)  # a recorded trace's layout is sorted
        return list(record[0]) if record else sorted(self.points[0].values) if self.points else []


def write_trace_csv(trace: Trace, path) -> None:
    """The header `time,event,<variables>`, then one line per point: the
    repr of its time, its event and the repr of each value, in the bytes
    csv.writer writes. A recorded trace is written from its record's
    states even once its points are built, each event quoted once per
    code; a hand-built one from its points. Lines are streamed, and each
    costs only what differs from the line before (see _csv_lines)."""
    try:
        names, tick, events, codes, states = trace._record
    except AttributeError:  # a hand-built trace
        names, points = trace.variables(), trace.points
        tick = names.index(CLOCK) if CLOCK in names else None
        fields = {e: _csv_field(e) for e in {p.event for p in points}}
        lines = ((p.time, fields[p.event], [p.values[n] for n in names]) for p in points)
    else:  # the layout is sorted, and a point's time is its clock slot
        fields = [_csv_field(e) for e in events]
        lines = zip(map(itemgetter(tick), states), map(fields.__getitem__, codes), states)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["time", "event", *names])
        fh.writelines(_csv_lines(lines, len(names), tick))


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it as one field of a longer row."""
    out = io.StringIO()
    csv.writer(out).writerow((text, ""))
    return out.getvalue()[:-3]  # less the `,\r\n` of the empty last field


def _csv_lines(lines: Iterable[tuple], width: int, tick: int | None) -> Iterator[str]:
    """The CSV line of each (time, quoted event field, row of `width`
    values) in `lines`. A time or value that `is` the object in its column
    of the line before reuses that line's text; when every value is, so
    does their joined text. A time that `is` the value in column `tick` (a
    run's time is its clock slot) reuses that value's text. A float's
    repr needs no quoting, so the bytes are those of a csv.writer row."""
    time, text = object(), ""
    row, texts, tail = (object(),) * width, [""] * width, ""
    for t, event, values in lines:
        if values is not row and not all(map(is_, values, row)):
            texts = [x if v is r else repr(v) for v, r, x in zip(values, row, texts)]
            row, tail = values, ",".join(("", *texts))
        if t is not time:
            time = t
            text = texts[tick] if tick is not None and t is row[tick] else repr(t)
        yield f"{text},{event}{tail}\r\n"


# ---------------------------------------------------------------------------
# System runtime


def _contracts(system: MCCS) -> list[tuple[str, Contract]]:
    """(name, contract) of each component that has one: the controllers
    in order, then the plant."""
    components = (*system.controller.choices, system.plant)
    return [(c.name, c.contract) for c in components if c.contract is not None]


def system_variables(system: MCCS) -> frozenset[str]:
    """Every name the closed loop reads or writes, read from its
    components: the names `all_vars(system.to_program())` gives (the
    clock, the plant's equations and domain, and each controller's
    timestamp and behaviour) and those of the environment, the invariant
    and each contract."""
    plant = system.plant
    out = {CLOCK, *plant.evolved, *plant.rhs_free_vars(), *free_vars(plant.domain)}
    for rc in system.controller.choices:
        out.add(rc.timestamp)
        out |= all_vars(rc.ctrl)
    out |= free_vars(system.env.formula)
    out |= free_vars(system.invariant)
    for _, contract in _contracts(system):
        out |= contract.free_vars()
    return frozenset(out)


def alias_root(box: dict, name: str) -> str:
    """The end of `name`'s chain of `"=other"` aliases in `box`.

    Raises UnboundedVariable when the chain reaches a name missing from
    `box` or comes back to a name it passed, and ValueError on a string
    that is not `"=other"`.
    """
    if not isinstance(box.get(name, ""), str):  # no alias; a missing name raises below
        return name
    chain = [name]
    while name in box:
        spec = box[name]
        if not isinstance(spec, str):
            return name
        if not spec.startswith("="):
            raise ValueError(f"bad alias {spec!r} for {name!r}")
        name = spec[1:]
        if name in chain:
            loop = " -> ".join(map(repr, [*chain, name]))
            message = f"the alias chain of {chain[0]!r} loops: {loop}"
            raise UnboundedVariable(name, message)
        chain.append(name)
    if len(chain) == 1:
        raise UnboundedVariable(name)
    via = "".join(f" via {n!r}" for n in chain[1:-1])
    message = f"{chain[0]!r} aliases {name!r}{via}, which has no value or interval"
    raise UnboundedVariable(name, message)


def box_interval(spec, name: str) -> tuple[float, float]:
    """A box or init entry `spec` of `name` that is no `"=other"` alias,
    `[lo, hi]` or a number x read as [x, x], as two floats: the one reader
    of entries. Raises ValueError unless it holds reals, not bools, that
    convert to finite floats, lo <= hi, naming a number's entry. Exact
    floats and ints pass first, as the checker reads each entry per call."""
    pair = spec if isinstance(spec, (list, tuple)) else (spec, spec)
    try:
        lo, hi = pair
        if not (type(lo) in (float, int) and type(hi) in (float, int) or all(
                isinstance(x, Real) and not isinstance(x, bool) for x in pair)):
            lo = hi = math.nan
        lo, hi = float(lo), float(hi)
    except (ValueError, OverflowError):  # not two items, or an int too large for a float
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi)):
        if pair is not spec:
            raise ValueError(f"box entry {name!r} is {spec!r}, not a finite number")
        raise ValueError(f"an interval is [lo, hi] of two finite numbers, got {spec!r}")
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return lo, hi


def pinned_init(needed: frozenset[str], env_pins: dict, init: dict) -> dict:
    """`init` plus the environment pins of the `needed` names it omits."""
    return {**{n: v for n, v in env_pins.items() if n in needed}, **init}


def complete_init(system: MCCS, init: dict) -> dict[str, float]:
    """Resolve an initial-state description into a total float state.

    Entries may be numbers or chains of `"=other"` aliases; variables
    absent from `init` fall back to exact environment bindings
    (`name = q` conjuncts). box_interval reads the entry each chain ends
    at: one that is no finite number, or an interval nobody drew a value
    from (see sample_init), raises ValueError.
    """
    return _complete_init(system_variables(system), system.env.constants(), init)


def _complete_init(
    needed: frozenset[str], env_pins: dict, init: dict
) -> dict[str, float]:
    box = pinned_init(needed, env_pins, init)
    state = {}
    for name in box:
        root = alias_root(box, name)
        lo, hi = box_interval(box[root], root)
        if lo != hi:
            raise ValueError(f"init entry {root!r} is the interval {box[root]!r}, not a value")
        state[name] = lo
    missing = sorted(needed - state.keys())
    if missing:
        raise InitViolatesAssumptions("no initial value for: " + ", ".join(missing))
    return state


def _init_obligations(system: MCCS) -> list[tuple[str, Formula]]:
    out = [("environment", c) for c in conjuncts(system.env.formula)]
    for name, contract in _contracts(system):
        out.append((f"assume[{name}]", contract.assume))
        out.append((f"init[{name}]", contract.init))
    return out


def _monitors(system: MCCS) -> list[tuple[str, Formula]]:
    out = [(f"G[{name}]", contract.guarantee) for name, contract in _contracts(system)]
    if not isinstance(system.invariant, TrueF):
        out.append(("invariant", system.invariant))
    return out


# A recorded point's event code: its index into CompiledSystem.events,
# whose entries past these three are the controllers' firings.
BOUNDARY, ODE_STEP, GUARD_EXPIRY = range(3)

# `rng.shuffle` of two items, drawn inline by the run pass: `_randbelow(2)` draws
# `getrandbits(2)` until below 2, and a 0 swaps them, so `keep` is 1 when they stay.
DRAW_TWO = ("while (keep := bits(2)) > 1:", "    pass")


class CompiledSystem:
    """One closed loop, compiled once for any number of runs over the
    layout `sorted(system_variables)`, the CSV's column order: the
    guarded flow segment, the controller programs, the monitors, the init
    obligations and the invariant's equality conjuncts (whose |lhs - rhs|
    is the residual), plus the step sizes derived from the time bounds.
    A strategy's run pass is compiled on its first run.
    """

    def __init__(self, system: MCCS):
        self.variables = system_variables(system)
        self.layout = tuple(sorted(self.variables))
        slots = self.slots = slots_of(self.layout)
        self.clock = slots[CLOCK]
        self.env_pins = system.env.constants()
        self.init_obligations = _init_obligations(system)
        self.init_hold = self.holds(*(f for _, f in self.init_obligations))
        self.delta = float(system.controller.reactivity)
        cap = float(system.plant.controllability)
        self.h = min(self.delta, cap) / 100.0
        self.eps = self.h / 10.0
        self.segment = seg = FlowSegment(system.guarded_ode(), slots)
        choices = system.controller.choices
        self.events = (
            "loop-boundary", "ode-step", "guard-expiry",
            *(f"ctrl-fired({rc.name})" for rc in choices),
        )
        # (event code, timestamp slot, program) per controller; a pass
        # takes them with each one first, the others after it in order.
        ctrls = self.controllers = tuple(
            (code, slots[rc.timestamp], compile_program_over(rc.ctrl, slots))
            for code, rc in enumerate(choices, GUARD_EXPIRY + 1)
        )
        orders = tuple((c, *(o for o in ctrls if o is not c)) for c in ctrls)
        self.helpers = (
            seg.last_inside, seg._slow_step, seg.scan, self.violated, StuckState, _ignore,
            ctrls, orders, *(p for _, _, p in ctrls if len(ctrls) <= 2),
        )
        self._passes: dict[str, Callable] = {}
        monitors = _monitors(system)
        self.monitor_formulas = [f for _, f in monitors]
        self.monitors = [(name, print_formula(f)) for name, f in monitors]
        self._gaps = _tuple_source(
            f"abs({emit_term(c.left, slots)} - {emit_term(c.right, slots)})"
            for c in conjuncts(system.invariant)
            if isinstance(c, Compare) and c.op == "="
        )
        # residual(states): the largest |lhs - rhs| of the invariant's `=`
        # conjuncts over `states`, or 0.0: one `max` from 0.0 over the gaps in
        # state-then-conjunct order, bit for bit their running maximum.
        self.invariant = system.invariant
        residual = f"max(chain((0.0,), (g for s in states for g in {self._gaps})))"
        self.residual = _guarded(self.invariant, lambda: compile_source("states", residual))

    def compiled(self, formulas, join: Callable[[Iterable[str]], str]) -> Callable:
        """One function of the state `s`: the source `join` makes of the
        formulas' sources. Raises CcsError naming a formula nested too
        deeply, each of several tried alone first."""
        return _guarded(
            conj(*formulas),
            lambda: compile_source("s", join(emit_formula(f, self.slots) for f in formulas)),
            lambda: len(formulas) > 1 and [self.compiled([f], join) for f in formulas],
        )

    @functools.cached_property
    def truths(self) -> Callable[[State], tuple[bool, ...]]:
        """Whether each monitor holds at a state, in the order of
        `monitors`: compiled on a run's first failing boundary."""
        return self.compiled(self.monitor_formulas, _tuple_source)

    def holds(self, *formulas: Formula) -> Callable[[State], bool]:
        """One function: every formula holds, evaluated as an `and` chain
        that stops at the first false one."""
        return self.compiled(formulas, lambda src: " and ".join(src) or "True")

    def violated(self, s: State) -> list[MonitorViolation]:
        """A violation of each monitor that fails at `s`, in order."""
        return [
            MonitorViolation(s[self.clock], name, text, dict(zip(self.layout, s)))
            for (name, text), ok in zip(self.monitors, self.truths(s)) if not ok
        ]

    def run_pass(self, strategy: str) -> Callable:
        """`pass(state, horizon, push, mark, violations, rng, helpers)`,
        which records a run under `strategy`, compiled on first use.
        Raises CcsError naming what Python will not compile: a monitor, as
        `truths` compiles them at the pass's nesting, or the flow domain, as
        `step` does; when neither fails alone, the monitors."""
        if strategy not in self._passes:
            seg, params = self.segment, "s, horizon, push, mark, violations, rng, h"
            self._passes[strategy] = _guarded(
                conj(*self.monitor_formulas),
                lambda: compile_source(params, self._pass_source(strategy)),
                lambda: (self.truths, seg.domain_affine and seg.step),
            )
        return self._passes[strategy]

    def _pass_source(self, strategy: str) -> str:
        """`_run`'s loop over the state `s` under `strategy` as one body,
        each constant of the system inline. A pass starts at a boundary,
        which records `s` and tests the monitors. Evolving inlines the
        segment's step (or calls `scan`; a stall calls the plain-code step)
        and the snap onto the expiry `nx`; the `last` pass runs out the
        clock. Firing tests a guard, runs the program and stamps, with
        each controller's code and slots. Two controllers take one of two
        orders by `keep`, which uniform-random draws by DRAW_TWO; three or
        more go through an `order` that `rng.shuffle` or the target picks.
        Returns whether the run stopped at MAX_ITERATIONS.
        """
        c, n, seg, width = self.clock, len(self.controllers), self.segment, len(self.layout)
        tol, eps, delta = BOUNDARY_TOLERANCE, self.eps, self.delta
        uniform, lazy = strategy == "uniform-random", strategy == "lazy-controller"
        # A snap is rare, and slices compile smaller than a full-width tuple.
        snap = f"end[:{c}] + (nx,) + end[{c + 1}:]"

        def evolve(request: str, slow: bool = False) -> list[str]:  # `s` toward `nx`
            if not seg.domain_affine:
                head = [f"end, dt, _x, samples = scan(s, {request}, {self.h!r})",
                        "for m in samples[:-1]:", f"    push(m) or mark({ODE_STEP})"]
            else:
                head = [f"end, dt = _slow(s, {request})"] if slow else [
                    f"dt = {request}", f"end, dt = {seg.step_source}"]
            return [*head, "if not dt <= 0.0:",
                    f"    s, code = ({snap}, {GUARD_EXPIRY}) if abs(end[{c}] - nx) <= "
                    f"{2.0 * tol!r} else (end, {ODE_STEP})",
                    "    push(s) or mark(code)", "    moved = True"]

        def enabled(t, program: str) -> str:
            guard = f"not s[{c}] > s[{t}] + {delta!r} + {tol!r}"
            return f"{guard} and (outs := {program}(s, ignore))"

        def fired(code, t) -> list[str]:
            stamp = f"s[:t] + (s[{c}],) + s[t + 1:]" if n > 2 else emit_update(width, {t: f"s[{c}]"})
            return ["s = outs[0] if len(outs) == 1 else choice(outs)", f"s = {stamp}",
                    f"push(s) or mark({code})"]

        # Nothing fired or moved: evolve up to the guard, or the run is stuck.
        stall = ["rem = to_horizon if to_horizon < room else room", f"if rem > {tol!r}:",
                 *_indent(evolve("rem", slow=True)), "if not moved:", f"    raise stuck(s[{c}])"]

        def fire(otherwise: list[str]) -> list[str]:
            if n > 2:
                return ["for code, t, p in order:", f"    if {enabled('t', 'p')}:",
                        *_indent(_indent([*fired("code", "t"), "break"])),
                        "else:", *_indent(otherwise)]
            (code0, t0, _), *second = self.controllers
            lines = [f"if {enabled(t0, 'p0')}:", *_indent(fired(code0, t0))]
            if second:  # 0 fires first when `keep`, else if 1, tried first (`f1`), did not
                (code1, t1, _), = second
                lines[0] = (f"if ({enabled(t0, 'p0')} if keep else "
                            f"not (f1 := {enabled(t1, 'p1')}) and {enabled(t0, 'p0')}):")
                lines += [f"elif ({enabled(t1, 'p1')} if keep else f1):", *_indent(fired(code1, t1))]
            return [*lines, "else:", *_indent(otherwise)]

        expiries = [f"s[{t}] + {delta!r}" for _, t, _ in self.controllers]
        if n == 1:
            nx, pick = [f"nx = {expiries[0]}"], []
        elif n == 2:
            nx = [f"e0, e1 = {', '.join(expiries)}", "nx = e0 if (keep := not e1 < e0) else e1"]
            pick = [*DRAW_TWO] if uniform else [] if lazy else ["keep = rr = not rr"]
        else:
            nx = [f"nx = min(ex := [{', '.join(expiries)}])"]
            pick = (["order = [*ctrls]", "shuffle(order)"] if uniform
                    else ["order = orders[ex.index(nx)]"] if lazy
                    else [f"order = orders[rr % {n}]", "rr += 1"])
        if uniform:
            body = [f"if last or ev > {eps!r} and random() < 0.5:",
                    *_indent(evolve(f"to_horizon if last else uniform({eps!r}, ev)")),
                    "if not (moved or last):", *_indent([*pick, *fire(stall)])]
        else:
            wait = f" or moved and s[{c}] < nx - {2.0 * eps!r}" if lazy else ""
            body = [*pick, "if last or ev > 0.0:", *_indent(evolve("to_horizon if last else ev")),
                    f"if not (last{wait}):", *_indent(fire(["if not moved:", *_indent(stall)]))]
        monitors = " and ".join(emit_formula(f, self.slots) for f in self.monitor_formulas)
        record = f"push(s) or mark({BOUNDARY})"
        boundary = f"{record} or ({monitors or 'True'}) or violations.extend(violated(s))"
        programs = "".join(f"p{i}, " for i in range(n)) if n <= 2 else ""
        lines = [
            "random, uniform, choice, bits, shuffle = "
            "rng.random, rng.uniform, rng.choice, rng.getrandbits, rng.shuffle",
            f"_last, _slow, scan, violated, stuck, ignore, ctrls, orders, {programs}= h",
            "last, rr = False, 0",
            f"for _ in range({MAX_ITERATIONS}):",
            *_indent([
                boundary, f"if last or (to_horizon := horizon - s[{c}]) <= {tol!r}:", "    break",
                *nx, f"room = nx - s[{c}]",
                f"last = to_horizon <= {eps!r} and room >= to_horizon - {tol!r}",
                f"ev = to_horizon if to_horizon < (ev := room - {eps!r}) else ev",
                "moved = False", *body,
            ]),
            "else:  # the last pass's boundary; a `last` pass was not cut short",
            f"    {record} or violations.extend(violated(s))",
            "    return not last",
            "return False",
        ]
        return "".join(f"\n    {line}" for line in lines)


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


def run(system: MCCS, schedule: Schedule, init: dict) -> Trace:
    """Execute the closed loop under one schedule.

    Raises InitViolatesAssumptions when the start state fails the
    environment or any component's assume/init clause, and StuckState
    when a guard has expired but no controller run is enabled.
    """
    cs = CompiledSystem(system)
    events, states, violations, truncated = _run(cs, schedule, init)
    return _trace(cs, events, states, violations, truncated, cs.residual(_distinct(states)))


def _run(
    cs: CompiledSystem, schedule: Schedule, init: dict
) -> tuple[list[int], list[State], list[MonitorViolation], bool]:
    """`run` over a compiled system, which only records: each point
    appends its state and its event's code (an index into `cs.events`).
    Returns the codes, the states, the monitor violations and whether the
    run stopped at MAX_ITERATIONS, from which `_trace` builds the trace.
    """
    run_pass = cs.run_pass(schedule.strategy)
    values = _complete_init(cs.variables, cs.env_pins, init)
    state = tuple(values[n] for n in cs.layout)
    if not cs.init_hold(state):
        for label, f in cs.init_obligations:
            if not cs.holds(f)(state):
                raise InitViolatesAssumptions(f"{label}: {print_formula(f)}")
    events, states, violations = [], [], []
    truncated = run_pass(
        state, schedule.horizon, states.append, events.append, violations,
        random.Random(schedule.seed), cs.helpers,
    )
    return events, states, violations, truncated


def _distinct(states: list[State]) -> list[State]:
    """`states` less each state recorded again right after itself (a
    boundary records again the state just recorded): a repeat cannot
    move a min, a max or the residual."""
    return list(compress(states, map(is_not, states, chain((None,), states))))


def _ranges(distinct: list[State], ranges: list[tuple[float, float]]) -> list[tuple]:
    """Each slot's (lo, hi) in `ranges` widened over its column of
    `distinct`, bit for bit `(min(lo, *column), max(hi, *column))`: a NaN
    the fold starts from sticks, a later one is skipped, and of equal
    values the first is kept. `min(lo, min(column))` is that fold unless
    the column starts with NaN, which `min(column)` would keep."""
    return [
        (min(lo, min(c)), max(hi, max(c))) if c[0] == c[0] else (min(lo, *c), max(hi, *c))
        for (lo, hi), c in zip(ranges, zip(*distinct))
    ]


def _trace(
    cs: CompiledSystem, events: list, states: list, violations: list, truncated: bool,
    residual: float,
) -> Trace:
    """The trace of a run `_run` recorded, whose residual is `residual`,
    its record (layout, clock slot, event names, codes, states). A run
    records a boundary last, at the state where it ended."""
    trace = Trace.__new__(Trace)
    record = (cs.layout, cs.clock, cs.events, events, states)
    values = (violations, states[-1][cs.clock], truncated, residual, record)
    for name, value in zip(Trace.__slots__[1:], values):  # every slot but `points`
        _set(trace, name, value)
    return trace


# ---------------------------------------------------------------------------
# Batches


class BatchSummary(Record):
    # first_trace is run 0's full trace, when run_batch was asked to keep
    # it and run 0 was not stuck; truncated_runs counts the runs that
    # stopped at MAX_ITERATIONS. Equality, repr and to_json leave both out.
    __slots__ = (
        "runs", "strategy", "seed", "horizon", "violations", "runs_with_violations",
        "variable_ranges", "max_invariant_residual", "total_points", "stuck_runs",
        "first_trace", "truncated_runs",
    )
    _defaults = {"stuck_runs": 0, "first_trace": None, "truncated_runs": 0}
    _uncompared = ("first_trace", "truncated_runs")

    def to_json(self) -> dict:
        return {
            **self._asdict(),
            "violations": dict(sorted(self.violations.items())),
            "variable_ranges": {
                k: [lo, hi] for k, (lo, hi) in sorted(self.variable_ranges.items())
            },
        }


def batch_schedule_seed(seed: int, index: int) -> int:
    """Per-run seed derivation; `batch_member` builds a whole member of
    a batch from it.
    """
    return (seed * 1_000_003 + index) % (2**63)


def sample_init(init_box: dict, rng: random.Random) -> dict:
    """Draw one init description: each entry box_interval reads becomes
    a float, drawn uniformly from an interval, and `"=var"` aliases pass
    through for complete_init to resolve. An entry box_interval rejects
    raises ValueError, as in check_bounded.
    """
    out: dict = {}
    for name in sorted(init_box):
        spec = init_box[name]
        if isinstance(spec, str):
            out[name] = spec
        else:
            lo, hi = box_interval(spec, name)
            out[name] = lo if lo == hi else rng.uniform(lo, hi)
    return out


def batch_member(
    seed: int, index: int, init_box: dict, strategy: str, horizon: float
) -> tuple[Schedule, dict]:
    """The schedule and init of run `index` of a batch, so that
    `run(system, *batch_member(...))` reproduces that member exactly.
    """
    run_seed = batch_schedule_seed(seed, index)
    init = sample_init(init_box, random.Random(run_seed ^ 0x5EED))
    return Schedule(strategy=strategy, seed=run_seed, horizon=horizon), init


def run_batch(
    system: MCCS,
    n_schedules: int,
    seed: int,
    init_box: dict,
    strategy: str = "uniform-random",
    horizon: float = 20.0,
    keep_first: bool = False,
) -> BatchSummary:
    """`n_schedules` independent seeded runs with inits drawn from
    `init_box`. Deterministic in (system, n_schedules, seed, init_box):
    run i is `batch_member(seed, i, init_box, strategy, horizon)`.

    A stuck run counts in `stuck_runs` and adds nothing else. A run
    that stops at MAX_ITERATIONS, before the horizon, adds what it ran
    and counts in `truncated_runs`. With `keep_first`, `first_trace` is
    run 0's trace as `run` returns it, or None when run 0 is stuck.
    """
    cs = CompiledSystem(system)
    violations: dict[str, int] = {name: 0 for name, _ in cs.monitors}
    runs_with = 0
    ranges = None  # each slot's (lo, hi) over the finished runs
    max_residual = 0.0
    total_points = 0
    stuck = truncated_runs = 0
    first_trace = None
    for i in range(n_schedules):
        schedule, init = batch_member(seed, i, init_box, strategy, horizon)
        try:
            events, states, found, truncated = _run(cs, schedule, init)
        except StuckState:
            stuck += 1
            continue
        distinct = _distinct(states)
        residual = cs.residual(distinct)
        if keep_first and i == 0:
            first_trace = _trace(cs, events, states, found, truncated, residual)
        runs_with += bool(found)
        truncated_runs += truncated
        for v in found:
            violations[v.monitor] += 1
        ranges = _ranges(distinct, ranges or [(v, v) for v in distinct[0]])
        max_residual = max(max_residual, residual)
        total_points += len(states)
    return BatchSummary(
        runs=n_schedules,
        strategy=strategy,
        seed=seed,
        horizon=horizon,
        violations=violations,
        runs_with_violations=runs_with,
        variable_ranges=dict(zip(cs.layout, ranges or ())),
        max_invariant_residual=max_residual,
        total_points=total_points,
        stuck_runs=stuck,
        first_trace=first_trace,
        truncated_runs=truncated_runs,
    )
