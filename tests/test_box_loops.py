"""The bounded checker's generated box loops and flow sampler against the
form they replaced, as a reference: a goal side as one expression whose
boxes and quantifiers are `all`/`any` over generators, and an exact
flow sampled by separate `domain`, `exit_time`, `at` and `last_inside`
calls into a list. Both run through `check_bounded`, the reference by
patching it into the simulator's compiler, and must give the same
`BoundedCheckResult.to_json()`, witness and truncation included, or the
same error.
"""

import contextlib
import copy
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

import randgen
from ccskit import dsl, simulator
from ccskit.ast import ODE, And, Box, Compare, Forall, Implies, Not, Or, Variable, conj, modality, num
from ccskit.errors import CcsError
from ccskit.obligations import check_bounded, obligations_ccs
from ccskit.simulator import emit_formula, emit_update
from test_obligations import TT_BOX, WT_BOX


def _generator_goal(f, slots, helper):
    """A goal side as one expression: a box is `all` over a generator of
    its program's states, a quantifier `all` or `any` over the list of
    states with its slot set to each coordinate."""
    if not modality(f):
        return f"({emit_formula(f, slots)} or fail(s))"
    if isinstance(f, Not):
        return f"((not {_generator_goal(f.operand, slots, helper)}) or fail(s))"
    if isinstance(f, (And, Or, Implies)):
        left = _generator_goal(f.left, slots, helper)
        right = _generator_goal(f.right, slots, helper)
        if isinstance(f, Implies):
            return f"((not {left}) or {right})"
        return f"({left} {'and' if isinstance(f, And) else 'or'} {right})"
    if isinstance(f, Box):
        return f"all({_generator_goal(f.post, slots, helper)} for s in {helper(f.program)})"
    i = slots[f.var]
    body = _generator_goal(f.body, slots, helper)
    states = f"[{emit_update(len(slots), {i: 'x'})} for x in axis({i})]"
    if isinstance(f, Forall):
        return f"(all({body} for s in {states}) and not cut())"
    return f"(any({body} for s in {states}) or cut() or fail(s))"


def _listed_flow_states(seg, n):
    """An exact flow's states as a list of `at` calls at `span * i / n`,
    then `last_inside` at `span * n / n`; `span` is 1e6, and `cut()` is
    called after sampling, when the domain never closes."""
    if not seg.domain_affine:
        return seg.scanned

    def states(state, cut):
        if not seg.domain(state):
            return []
        slopes, exit_dt = seg.exit_time(state)
        closes = not math.isinf(exit_dt)
        span = exit_dt if closes else 1e6
        samples = [seg.at(state, slopes, span * i / n) for i in range(n)]
        samples.append(seg.last_inside(state, slopes, span * n / n)[0])
        if not closes:
            cut()
        return samples

    return states


@contextlib.contextmanager
def _reference_form():
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(simulator._GLOBALS, "all", all)
        patch.setitem(simulator._GLOBALS, "any", any)
        patch.setattr(
            simulator, "_goal_source",
            lambda f, slots, helper: f"lambda s, axis, cut, fail: {_generator_goal(f, slots, helper)}",
        )
        patch.setattr(simulator, "flow_states", _listed_flow_states)
        yield


def _outcome(goal, box, grid, flow_samples):
    """The result as JSON text, or the error raised."""
    try:
        return json.dumps(check_bounded(goal, box, grid, flow_samples).to_json())
    except (CcsError, TypeError) as e:
        return type(e).__name__, str(e)


def _both(goal, box, grid, flow_samples):
    """(result, reference result) of one check. The reference checks a
    copy of `goal`: its programs keep none of the functions the first
    check compiled, so its boxes run what the reference form builds."""
    got = _outcome(goal, box, grid, flow_samples)
    with _reference_form():
        return got, _outcome(copy.deepcopy(goal), box, grid, flow_samples)


_X0_T = (Variable("x0"), Variable("t"))


@settings(deadline=None, max_examples=200)
@given(
    randgen.goals(st.one_of(randgen.affine_flows(), randgen.programs())),
    randgen.goal_boxes(),
    st.integers(1, 3),
    st.integers(1, 4),
)
# A box whose post fails on the bisected last state of an open domain.
@example(
    Box(ODE((("x0", num(1)), ("t", num(0))), Compare("<", _X0_T[0], num(2))),
        Compare("<", _X0_T[0], num(1))),
    dict.fromkeys(randgen.GOAL_NAMES, 0), 1, 1,
)
# A domain that never closes, under a forall whose body fails.
@example(
    Forall("u0", Box(ODE((("x0", Variable("u0")), ("t", num(1))),
                         conj(Compare(">=", _X0_T[1], num(0)))),
                     Compare("<=", _X0_T[0], num(2)))),
    {**dict.fromkeys(randgen.GOAL_NAMES, 0), "u0": [-1, 1]}, 3, 2,
)
def test_box_loops_match_the_generator_form(goal, box, grid, flow_samples):
    got, expected = _both(goal, box, grid, flow_samples)
    assert got == expected


# (goal, box, grid, flow_samples, status, truncated)
CASES = {
    "never-closes": (
        "x >= 0 -> [{x' = 1 & x >= 0}] x <= 5", {"x": [0, 1]}, 2, 8, "counterexample", True,
    ),
    "never-closes-holds": (
        "x >= 0 -> [{x' = 1 & x >= 0}] x >= 0", {"x": [0, 1]}, 2, 8, "holds", True,
    ),
    "open-exit-bisected": (
        "[{x' = 1, t' = 1 & x < 2}] x < 1.9999", {"x": [1.9, 1.96], "t": 0}, 3, 8,
        "counterexample", False,
    ),
    # The exit time here is a float t with t * 3 / 3 != t: the last
    # sample bisects below the rounded time, as the others are taken.
    "open-exit-rounded": (
        "[{x' = 3, t' = 1 & x < 2}] x < 1.9999", {"x": 1.9181666666666666, "t": 0}, 1, 3,
        "counterexample", False,
    ),
    "start-outside": (
        "[{x' = 1 & x <= 0}] x < -5", {"x": [1, 2]}, 3, 8, "holds", False,
    ),
    "one-sample": (
        "[{x' = 1, t' = 1 & t <= 1}] x <= 1.5", {"x": [0, 1], "t": 0}, 3, 1,
        "counterexample", False,
    ),
    "box-in-box": (
        "[{x' = 1 & x <= 2}] ([{y' = x & y <= 3}] y <= 2)", {"x": [0, 1], "y": 0}, 3, 4,
        "counterexample", True,
    ),
    "forall-of-a-failing-box": (
        "forall z ([{x' = z & x <= 3}] x <= 2)", {"x": [0, 1], "z": [-1, 1]}, 3, 4,
        "counterexample", True,
    ),
    "exists-of-a-failing-box": (
        "exists z ([{x' = 1 & x <= z}] x <= 0.5)", {"x": [0, 1], "z": [1, 2]}, 3, 4,
        "counterexample", True,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_box_loops_match_the_generator_form_on_fixed_cases(case):
    """Each case reaches the path it names and gives the reference's
    result: status, truncation, and the witness the reference reports."""
    text, box, grid, flow_samples, status, truncated = CASES[case]
    got, expected = _both(dsl.parse_formula_text(text), box, grid, flow_samples)
    assert got == expected
    result = json.loads(got)
    assert result["status"] == status
    assert ("truncated" in result["caveat"]) == truncated


def test_the_bisected_witness_lies_inside_the_open_domain():
    result = check_bounded(dsl.parse_formula_text("[{x' = 1, t' = 1 & x < 2}] x < 1.9999"),
                           {"x": [1.9, 1.96], "t": 0}, grid=3)
    assert 1.9999 <= result.counterexample["x"] < 2.0


def test_an_exists_of_a_failing_box_reports_its_own_state():
    """An exists that finds no value fails at the state it was entered
    with, not at the box's last state."""
    result = check_bounded(dsl.parse_formula_text("exists z ([{x' = 1 & x <= z}] x <= 0.5)"),
                           {"x": [0, 1], "z": [1, 2]}, grid=3, flow_samples=4)
    assert result.counterexample == result.initial


@pytest.mark.parametrize("grid, flow_samples", [(2, 1), (3, 8)])
def test_box_loops_match_the_generator_form_on_the_corpus(corpus_dir, grid, flow_samples):
    for model, box in (("watertank", WT_BOX), ("two_tanks", TT_BOX)):
        for ob in obligations_ccs(dsl.load_file(corpus_dir / f"{model}.ccs")):
            got, expected = _both(ob.goal, box, grid, flow_samples)
            assert got == expected, ob.id
