"""Variable usage analysis, checked against a reference interpreter.

The property tests run small discrete programs under an exact
(Fraction-valued) evaluator and confirm the two facts the rest of the
toolkit leans on:

  * coincidence: states agreeing on FV(p) produce runs whose end states
    agree on FV(p) and on every must-bound variable,
  * frame: variables outside BV(p) never change.

The same interpreter is the oracle for `compile_program_over`, the one
program semantics that the simulator and the bounded checker share,
run on dict states through the `dict_states` adapter.
"""

import time
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import randgen
from ccskit.ast import (
    And,
    Assign,
    Box,
    Choice,
    Compare,
    Exists,
    FalseF,
    Forall,
    Loop,
    Minus,
    Neg,
    Not,
    ODE,
    Plus,
    Rational,
    Seq,
    Test as Guard,
    TrueF,
    Variable,
    num,
    var,
    walk,
)
from ccskit.dsl import parse_program_text
from ccskit.statics import (
    all_vars,
    bound_vars,
    free_and_bound_vars,
    free_vars,
    must_bound_vars,
)
from dict_states import program_on_dicts


# --- the worked example kept as a golden vector ----------------------------


def _example():
    # (v := a U v := 2); {x' = v & x <= 5}
    return Seq(
        Choice(Assign("v", var("a")), Assign("v", num(2))),
        ODE((("x", var("v")),), Compare("<=", var("x"), num(5))),
    )


def test_golden_vector_fv_bv():
    p = _example()
    assert free_vars(p) == frozenset({"a", "x"})
    assert bound_vars(p) == frozenset({"v", "x"})


def test_golden_vector_runtime_under_a_millisecond():
    p = _example()
    free_vars(p), bound_vars(p)  # warm any caches
    best = min(
        _timed(lambda: (free_vars(p), bound_vars(p))) for _ in range(5)
    )
    assert best < 1e-3, f"took {best * 1e3:.3f} ms"


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_sequence_discounts_must_bound_prefix_writes():
    # x := y; z := x  -- x is written before the read, so only y is free
    p = Seq(Assign("x", var("y")), Assign("z", var("x")))
    assert free_vars(p) == frozenset({"y"})
    # but a branch that may skip the write keeps x free
    p2 = Seq(Choice(Assign("x", var("y")), Guard(Compare(">", var("y"), num(0)))),
             Assign("z", var("x")))
    assert free_vars(p2) == frozenset({"x", "y"})


def test_ode_keeps_evolved_variable_free():
    o = ODE((("x", var("v")),), Compare("<=", var("x"), num(5)))
    assert free_vars(o) == frozenset({"v", "x"})
    assert bound_vars(o) == frozenset({"x"})
    assert must_bound_vars(o) == frozenset({"x"})


def test_all_vars_is_the_union():
    p = _example()
    assert all_vars(p) == free_vars(p) | bound_vars(p)


def _walked_bound_vars(node) -> frozenset:
    """The reference for bound_vars: the names assigned, evolved or
    quantified in `node`, collected through the generic `walk`."""
    out = set()
    for sub in walk(node):
        if isinstance(sub, (Assign, Forall, Exists)):
            out.add(sub.var)
        elif isinstance(sub, ODE):
            out.update(v for v, _ in sub.equations)
    return frozenset(out)


def _walked_vars(node) -> frozenset:
    """The reference for all_vars: the names read in `node` plus
    `_walked_bound_vars`."""
    read = {sub.name for sub in walk(node) if isinstance(sub, Variable)}
    return frozenset(read) | _walked_bound_vars(node)


_VAR_NAMES = ["w", "x", "y"]
_FORMULAS = randgen.formulas(_VAR_NAMES)
_ANY_PROGRAMS = st.recursive(
    st.one_of(
        st.builds(Assign, st.sampled_from(_VAR_NAMES), randgen.terms(_VAR_NAMES)),
        st.builds(Guard, _FORMULAS),
        st.builds(
            lambda v, rhs, domain: ODE(((v, rhs),), domain),
            st.sampled_from(_VAR_NAMES),
            randgen.terms(_VAR_NAMES),
            _FORMULAS,
        ),
    ),
    lambda sub: st.one_of(st.builds(Seq, sub, sub), st.builds(Choice, sub, sub), sub.map(Loop)),
    max_leaves=5,
)
_NODES = st.one_of(
    randgen.terms(_VAR_NAMES),
    _ANY_PROGRAMS,
    st.recursive(
        _FORMULAS,
        lambda sub: st.one_of(
            st.builds(Box, _ANY_PROGRAMS, sub),
            st.builds(Forall, st.sampled_from(_VAR_NAMES), sub),
            st.builds(Exists, st.sampled_from(_VAR_NAMES), sub),
            sub.map(Not),
            st.builds(And, sub, sub),
        ),
        max_leaves=4,
    ),
)


def _equation_free_vars(node) -> frozenset:
    """The reference for free_vars: the set equations, node by node."""
    fv = _equation_free_vars
    if isinstance(node, Variable):
        return frozenset({node.name})
    if isinstance(node, (Rational, TrueF, FalseF)):
        return frozenset()
    if isinstance(node, (Neg, Not)):
        return fv(node.operand)
    if isinstance(node, (Forall, Exists)):
        return fv(node.body) - {node.var}
    if isinstance(node, Box):
        return fv(node.program) | (fv(node.post) - must_bound_vars(node.program))
    if isinstance(node, Seq):
        return fv(node.first) | (fv(node.second) - must_bound_vars(node.first))
    if isinstance(node, Guard):
        return fv(node.condition)
    if isinstance(node, Assign):
        return fv(node.rhs)
    if isinstance(node, Loop):
        return fv(node.body)
    if isinstance(node, ODE):
        out = frozenset(v for v, _ in node.equations) | fv(node.domain)
        return out.union(*(fv(rhs) for _, rhs in node.equations))
    return fv(node.left) | fv(node.right)


@given(_NODES)
@settings(max_examples=300, deadline=None)
def test_variable_sets_match_their_reference_definitions(node):
    """The one direct recursion finds the free names the set equations
    give and the bound names the generic walk finds, each bound name once;
    together they are the names the generic walk finds, as a formula or
    program has no variable that is neither free nor bound."""
    free, written = free_and_bound_vars(node)
    assert free == free_vars(node) == _equation_free_vars(node)
    assert len(set(written)) == len(written)
    assert set(written) == bound_vars(node) == _walked_bound_vars(node)
    assert all_vars(node) == free | set(written) == _walked_vars(node)


def test_corpus_controller_sets(watertank):
    rc = watertank.controller.choices[0]
    prog = rc.to_program()
    assert bound_vars(prog) == frozenset({"wlm", "fin", "tau_1"})
    assert must_bound_vars(prog) == frozenset({"wlm", "fin", "tau_1"})
    assert free_vars(prog) == frozenset({"wl", "t", "tau_1", "fin"})
    assert bound_vars(watertank.plant.to_program()) == frozenset({"wl", "t"})


# --- reference interpreter -------------------------------------------------


def _eval_term(t, store):
    if isinstance(t, Variable):
        return store[t.name]
    if isinstance(t, Rational):
        return t.value
    if isinstance(t, Plus):
        return _eval_term(t.left, store) + _eval_term(t.right, store)
    if isinstance(t, Minus):
        return _eval_term(t.left, store) - _eval_term(t.right, store)
    raise NotImplementedError(type(t).__name__)


_OPS = {
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _runs(p, store):
    """All end states of a discrete program from `store`, as a set."""
    if isinstance(p, Assign):
        out = dict(store)
        out[p.var] = _eval_term(p.rhs, store)
        return {frozenset(out.items())}
    if isinstance(p, Guard):
        c = p.condition
        holds = _OPS[c.op](_eval_term(c.left, store), _eval_term(c.right, store))
        return {frozenset(store.items())} if holds else set()
    if isinstance(p, Seq):
        ends = set()
        for mid in _runs(p.first, store):
            ends |= _runs(p.second, dict(mid))
        return ends
    if isinstance(p, Choice):
        return _runs(p.left, store) | _runs(p.right, store)
    raise NotImplementedError(type(p).__name__)


NAMES = ("w", "x", "y", "z")

_terms = st.one_of(
    st.integers(-3, 3).map(num),
    st.sampled_from(NAMES).map(var),
    st.tuples(st.sampled_from(NAMES), st.integers(1, 3)).map(
        lambda p: Plus(var(p[0]), num(p[1]))
    ),
)

_atomic = st.one_of(
    st.tuples(st.sampled_from(NAMES), _terms).map(lambda p: Assign(*p)),
    st.tuples(st.sampled_from(sorted(_OPS)), _terms, _terms).map(
        lambda p: Guard(Compare(*p))
    ),
)


def _programs(depth: int):
    if depth == 0:
        return _atomic
    sub = _programs(depth - 1)
    return st.one_of(
        _atomic,
        st.tuples(sub, sub).map(lambda p: Seq(*p)),
        st.tuples(sub, sub).map(lambda p: Choice(*p)),
    )


_stores = st.fixed_dictionaries(
    {n: st.integers(-3, 3).map(Fraction) for n in NAMES}
)


@given(_programs(3), _stores, _stores)
@settings(max_examples=300, deadline=None)
def test_coincidence_property(p, s1, s2):
    fv = free_vars(p)
    merged = dict(s2)
    merged.update({n: s1[n] for n in fv})  # agree on FV, differ elsewhere
    keep = fv | must_bound_vars(p)

    def project(ends):
        return {frozenset((n, v) for n, v in e if n in keep) for e in ends}

    assert project(_runs(p, s1)) == project(_runs(p, merged))


@given(_programs(3), _stores)
@settings(max_examples=300, deadline=None)
def test_frame_property(p, store):
    bv = bound_vars(p)
    for end in _runs(p, store):
        changed = {n for n, v in end if store[n] != v}
        assert changed <= bv


@given(_programs(3), _stores)
@settings(max_examples=300, deadline=None)
def test_compiled_program_has_the_reference_semantics(p, store):
    # Integer stores keep float arithmetic exact, so the sets must match.
    start = {n: float(v) for n, v in store.items()}
    got = {frozenset(s.items()) for s in program_on_dicts(p)(start)}
    want = {frozenset((n, float(v)) for n, v in end) for end in _runs(p, store)}
    assert got == want


def test_a_test_failing_after_a_choice_leaves_the_other_branch():
    p = parse_program_text("(fin := 0; ?(wl > 5)) U fin := 1")
    assert program_on_dicts(p)({"wl": 4.0, "fin": 9.0}) == [{"wl": 4.0, "fin": 1.0}]


@given(_programs(3))
@settings(max_examples=300, deadline=None)
def test_must_bound_is_a_bound_subset(p):
    assert must_bound_vars(p) <= bound_vars(p)


@given(_programs(2), _programs(2))
@settings(max_examples=200, deadline=None)
def test_choice_grows_free_and_shrinks_must_bound(a, b):
    c = Choice(a, b)
    assert free_vars(a) <= free_vars(c)
    assert must_bound_vars(c) == must_bound_vars(a) & must_bound_vars(b)
