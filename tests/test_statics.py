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

The free and bound names each node keeps are checked against one walk
of the whole tree that keeps nothing, on generated nodes and on every
corpus obligation, with the stack that walk needs and, on the check
sets, one computation per distinct node.
"""

import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import randgen
from ccskit import statics
from ccskit.ast import (
    TRUE,
    And,
    Assign,
    Box,
    Choice,
    Compare,
    Divide,
    Exists,
    FalseF,
    Forall,
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
    TrueF,
    Variable,
    children,
    conj,
    num,
    seq,
    var,
    walk,
)
from ccskit.components import Contract, make_ccs, with_contract
from ccskit.dsl import load_file, parse_program_text
from ccskit.errors import CcsError
from ccskit.obligations import (
    check_bounded,
    obligations_ccs,
    obligations_controllers,
    obligations_plants,
)
from ccskit.statics import (
    all_vars,
    bound_vars,
    free_and_bound_vars,
    free_vars,
    must_bound_vars,
)
from dict_states import program_on_dicts
from test_obligations import TT_BOX, WT_BOX


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


# --- the kept pair against a walk that keeps nothing ----------------------


def _walked_free_and_bound(node) -> tuple[frozenset, frozenset]:
    """The reference for free_and_bound_vars: one walk of the whole tree
    that keeps nothing on it, adding each free name outside the names
    bound on every path to it and each bound name."""
    free: set[str] = set()
    written: dict[str, None] = {}
    _walk_free(node, frozenset(), free, written)
    return frozenset(free), frozenset(written)


def _walk_free(node, bound, free, written) -> None:
    # Loops down each last child, so a long right-nested chain does not
    # recurse.
    while True:
        if isinstance(node, Variable):
            if node.name not in bound:
                free.add(node.name)
            return
        if isinstance(node, (Plus, Minus, Times, Divide, Compare, And, Or, Implies)):
            _walk_free(node.left, bound, free, written)
            node = node.right
        elif isinstance(node, (Neg, Not)):
            node = node.operand
        elif isinstance(node, (Rational, TrueF, FalseF)):
            return
        elif isinstance(node, Box):
            _walk_free(node.program, bound, free, written)
            bound = bound | must_bound_vars(node.program)
            node = node.post
        elif isinstance(node, (Forall, Exists)):
            written[node.var] = None
            bound = bound | {node.var}
            node = node.body
        elif isinstance(node, Guard):
            node = node.condition
        elif isinstance(node, Assign):
            written[node.var] = None
            node = node.rhs
        elif isinstance(node, Seq):
            _walk_free(node.first, bound, free, written)
            bound = bound | must_bound_vars(node.first)
            node = node.second
        elif isinstance(node, Choice):
            _walk_free(node.left, bound, free, written)
            node = node.right
        elif isinstance(node, Loop):
            node = node.body
        elif isinstance(node, ODE):
            evolved = [v for v, _ in node.equations]
            written.update(dict.fromkeys(evolved))
            free.update(v for v in evolved if v not in bound)
            for _, rhs in node.equations:
                _walk_free(rhs, bound, free, written)
            node = node.domain
        else:
            raise TypeError(f"not an AST node: {node!r}")


def _assert_kept_pair_is_the_walked_one(node) -> None:
    expected = _walked_free_and_bound(node)
    assert free_and_bound_vars(node) == expected
    assert free_and_bound_vars(node) == expected  # now kept on the node


@given(st.one_of(_NODES, randgen.goals(), randgen.programs(), randgen.goals(randgen.affine_flows())))
@settings(max_examples=500, deadline=None)
def test_kept_pair_is_the_walked_one(node):
    """Free names and bound names, as one walk of the whole tree finds
    them, on the first call and from the node."""
    _assert_kept_pair_is_the_walked_one(node)


@given(randgen.goals(), randgen.goals())
@settings(max_examples=200, deadline=None)
def test_a_shared_subtree_keeps_one_pair_in_every_context(a, b):
    """A subtree whose pair is kept before its parents are built gives
    each parent what a walk of that parent finds."""
    free_and_bound_vars(a)
    for node in (And(a, b), Box(Seq(Assign("x0", var("u0")), Loop(Guard(a))), a), Forall("x0", a)):
        _assert_kept_pair_is_the_walked_one(node)


def _corpus_goals(corpus_dir, two_tanks_parts) -> list:
    goals = []
    for path in sorted(corpus_dir.glob("*.ccs")):
        try:
            system = load_file(path)
        except CcsError:
            continue
        goals += [ob.goal for ob in obligations_ccs(system)]
    _, rcs, cps, env, invariant = two_tanks_parts
    obs = obligations_controllers(rcs[0], rcs[1], env=env, invariant=invariant)
    obs += obligations_plants(cps[0], cps[1], env=env, invariant=invariant)
    return goals + [ob.goal for ob in obs]


def test_every_corpus_obligation_keeps_the_walked_pair(corpus_dir, two_tanks_parts):
    goals = _corpus_goals(corpus_dir, two_tanks_parts)
    assert len(goals) > 60
    for goal in goals:
        _assert_kept_pair_is_the_walked_one(goal)


def _distinct_nodes(roots) -> dict[int, object]:
    seen: dict[int, object] = {}
    todo = list(roots)
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(children(node))
    return seen


def test_the_check_sets_compute_each_pair_once_per_distinct_node(corpus_dir, monkeypatch):
    """Checking the 60 obligations of the four check sets computes the
    free and bound names of each distinct formula and program node at
    most once, however many goals share it, and keeps them there: at
    most 849 pairs for 7,352 tree nodes. Terms and comparisons keep
    nothing."""
    wt, tt, tight = (load_file(corpus_dir / f"{m}.ccs") for m in ("watertank", "two_tanks", "watertank_tight"))
    vacuous = make_ccs(
        with_contract(wt.controller.choices[0], Contract()),
        with_contract(wt.plant, Contract()),
        env=wt.env,
        invariant=TRUE,
        name="vacuous",
    )
    sets = [(wt, WT_BOX), (tt, TT_BOX), (vacuous, WT_BOX), (tight, WT_BOX)]
    obligations = [(ob, box) for system, box in sets for ob in obligations_ccs(system)]
    assert len(obligations) == 60
    computed: list = []
    keep = statics._keep_vars
    monkeypatch.setattr(statics, "_keep_vars", lambda node, pair: computed.append(node) or keep(node, pair))
    for ob, box in obligations:
        check_bounded(ob, box, grid=2, flow_samples=8)
    distinct = _distinct_nodes(ob.goal for ob, _ in obligations)
    assert len(distinct) <= 849
    assert len({id(n) for n in computed}) == len(computed)
    assert {id(n) for n in computed} <= distinct.keys()
    atoms = (Variable, Rational, Plus, Minus, Times, Divide, Neg, Compare, TrueF, FalseF)
    assert all(n._vars for n in distinct.values() if not isinstance(n, atoms))


def _least_recursion_limit(fn) -> int:
    """The least recursion limit, from this call's depth, under which
    `fn()` returns without RecursionError."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    lo, hi = depth + 2, depth + 10000
    limit = sys.getrecursionlimit()
    try:
        while lo < hi:
            mid = (lo + hi) // 2
            sys.setrecursionlimit(mid)
            try:
                fn()
                hi = mid
            except RecursionError:
                lo = mid + 1
    finally:
        sys.setrecursionlimit(limit)
    return lo


_cmp_x = Compare("<=", var("x"), num(1))


@pytest.mark.parametrize("shape", ["right-nested seq", "left-nested conj"])
def test_long_chains_need_no_more_recursion_than_the_walk(shape):
    """A 5,000-long chain needs no deeper stack than the walk that keeps
    nothing: a right-nested sequence is one loop down its spine, and a
    left-nested conjunction one frame per level in both."""
    link = Assign("x", Plus(var("x"), num(1))) if shape == "right-nested seq" else _cmp_x
    join = seq if shape == "right-nested seq" else conj

    def chain():  # new chain nodes over one shared link
        return join(*[link] * 5000)

    walked = _least_recursion_limit(lambda: _walked_free_and_bound(chain()))
    kept = _least_recursion_limit(lambda: free_and_bound_vars(chain()))
    assert kept <= walked


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
