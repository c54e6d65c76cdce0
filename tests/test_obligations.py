"""Proof decomposition: shape, goals, JSON/kyx round-trips, bounded search.

The golden files were generated once, read line by line against the
induction shape (base and use, eight commuting steps, the invariant
maintenance trio, the two compatibility goals) and frozen; these tests
keep the emitters pinned to them.
"""

import functools
import hashlib
import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ccskit import dsl
import randgen
from ccskit.ast import (
    And,
    Assign,
    Box,
    Choice,
    Compare,
    Exists,
    Forall,
    Implies,
    Loop,
    Not,
    Or,
    Plus,
    TRUE,
    Test as Guard,
    Times,
    choice,
    num,
    print_formula,
    seq,
    var,
)
from ccskit.components import (
    Contract,
    make_ccs,
    make_reactive_controller,
    with_contract,
)
from ccskit.errors import (
    BoundOccursInBehavior,
    CcsError,
    ReactivityExceedsControllability,
    UnboundedVariable,
)
from ccskit.obligations import (
    CHECK_UNROLL,
    ProofObligation,
    check_bounded,
    kyx_filename,
    obligation_from_json,
    obligations_ccs,
    obligations_controllers,
    obligations_plants,
    render_kyx,
)
from ccskit.simulator import (
    compile_goal,
    compile_program_over,
    compile_source,
    emit_formula,
    slots_of,
)
from ccskit.statics import free_and_bound_vars

WT_BOX = {
    "wl": [3, 7],
    "wlm": "=wl",
    "fin": [0, 1],
    "fout": 0.75,
    "t": 0,
    "tau_1": 0,
}
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

CASES_CCS = [
    "base", "use",
    "step-1", "step-2", "step-3", "step-4",
    "step-5", "step-6", "step-7", "step-8",
    "jcmp-init", "jcmp-ctrl", "jcmp-plant",
    "compat-ab", "compat-ba",
]

HINTS = {
    "component-proof-reuse",
    "fv-bv-separation",
    "compatibility",
    "composition-invariant",
    "differential-refinement",
}


def _golden(golden_dir, name):
    return json.loads((golden_dir / name).read_text())


def test_watertank_emits_fifteen_with_ten_core(watertank):
    obs = obligations_ccs(watertank)
    assert len(obs) == 15
    assert [o.case for o in obs] == CASES_CCS
    core = [o for o in obs if o.case in ("base", "use") or o.case.startswith("step-")]
    assert len(core) == 10
    assert all(o.theorem == "thm1" for o in obs)
    assert all(o.hint in HINTS for o in obs)
    assert all(o.status == "open" for o in obs)


def test_ids_and_provenance_format(watertank):
    obs = obligations_ccs(watertank)
    by_case = {o.case: o for o in obs}
    assert by_case["step-4"].id == "thm1.step.4"
    assert by_case["step-4"].provenance == "thm1/step-4"
    assert by_case["jcmp-ctrl"].id == "thm1.jcmp.ctrl"
    assert by_case["compat-ba"].id == "thm1.compat.ba"


def test_hint_assignment_follows_the_case_roles(watertank):
    hints = {o.case: o.hint for o in obligations_ccs(watertank)}
    assert hints["step-1"] == "component-proof-reuse"
    assert hints["step-2"] == "composition-invariant"
    assert hints["step-3"] == "fv-bv-separation"
    assert hints["step-4"] == "compatibility"
    assert hints["step-5"] == "fv-bv-separation"
    assert hints["step-6"] == "differential-refinement"
    assert hints["step-7"] == "differential-refinement"
    assert hints["step-8"] == "compatibility"
    assert hints["jcmp-init"] == "composition-invariant"
    assert hints["compat-ab"] == "compatibility"


def test_step_6_carries_both_plant_bounds(watertank):
    step6 = next(o for o in obligations_ccs(watertank) if o.case == "step-6")
    assert "t <= 0.2" in print_formula(step6.goal)  # emitted at the plant bound
    assert any("t <= 0.05" in n for n in step6.notes)  # reactivity-bound form
    assert any(n == "link: 0.05 <= 0.2 (arithmetic, auto-discharged)"
               for n in step6.notes)


def test_controller_steps_run_the_full_wrapped_program(watertank):
    by_case = {o.case: o for o in obligations_ccs(watertank)}
    for case in ("step-1", "step-2", "step-3", "step-4"):
        text = print_formula(by_case[case].goal)
        assert "?(t <= tau_1 + 0.05)" in text
        assert "tau_1 := t" in text
    # plant steps 5 and 8 are cut at the reactivity, 6 and 7 run to the bound
    assert "t <= 0.05" in print_formula(by_case["step-5"].goal)
    assert "t <= 0.05" in print_formula(by_case["step-8"].goal)
    assert "t <= 0.2" in print_formula(by_case["step-7"].goal)


def test_multi_controller_systems_tag_thm4(two_tanks):
    obs = obligations_ccs(two_tanks)
    assert len(obs) == 15
    assert all(o.theorem == "thm4" for o in obs)
    step1 = next(o for o in obs if o.case == "step-1")
    text = print_formula(step1.goal)
    assert "tau_1" in text and "tau_2" in text  # both atoms, joint bound
    assert "t <= tau_1 + 0.07" in text and "t <= tau_2 + 0.07" in text


@pytest.mark.parametrize(
    "fname,model",
    [
        ("watertank_obligations.json", "watertank"),
        ("two_tanks_obligations.json", "two_tanks"),
        ("watertank_tight_obligations.json", "watertank_tight"),
        ("watertank_late_ctrl_obligations.json", "watertank_late_ctrl"),
    ],
)
def test_golden_files_match_ccs(fname, model, golden_dir, corpus_dir):
    system = dsl.load_file(corpus_dir / f"{model}.ccs")
    emitted = [o.to_json() for o in obligations_ccs(system)]
    assert emitted == _golden(golden_dir, fname)


def test_golden_file_matches_controllers(golden_dir, two_tanks_parts):
    _, rcs, _, env, invariant = two_tanks_parts
    obs = obligations_controllers(rcs[0], rcs[1], env=env, invariant=invariant)
    assert [o.to_json() for o in obs] == _golden(
        golden_dir, "two_tanks_controllers_obligations.json"
    )


def test_golden_file_matches_plants(golden_dir, two_tanks_parts):
    _, _, cps, env, invariant = two_tanks_parts
    obs = obligations_plants(cps[0], cps[1], env=env, invariant=invariant)
    assert [o.to_json() for o in obs] == _golden(
        golden_dir, "two_tanks_plants_obligations.json"
    )


@pytest.fixture(scope="module")
def two_tanks_slow_parts(corpus_dir):
    return dsl.build_components((corpus_dir / "two_tanks_slow.ccs").read_text())


def test_golden_files_match_the_slow_pairs(golden_dir, two_tanks_slow_parts):
    _, rcs, cps, env, invariant = two_tanks_slow_parts
    obs = obligations_controllers(rcs[0], rcs[1], env=env, invariant=invariant)
    assert [o.to_json() for o in obs] == _golden(
        golden_dir, "two_tanks_slow_controllers_obligations.json"
    )
    obs = obligations_plants(cps[0], cps[1], env=env, invariant=invariant)
    assert [o.to_json() for o in obs] == _golden(
        golden_dir, "two_tanks_slow_plants_obligations.json"
    )


def test_slow_closed_loop_has_no_obligations(two_tanks_slow_parts):
    with pytest.raises(ReactivityExceedsControllability) as e:
        obligations_ccs(dsl.assemble(two_tanks_slow_parts))
    assert str(e.value) == (
        "controller scheduling cost 0.2 exceeds plant controllability 0.15"
    )


def test_controller_pair_shape(two_tanks_parts):
    _, rcs, _, env, invariant = two_tanks_parts
    obs = obligations_controllers(rcs[0], rcs[1], env=env, invariant=invariant)
    assert len(obs) == 15
    assert all(o.theorem == "thm2" for o in obs)
    hints = {o.case: o.hint for o in obs}
    assert hints["step-1"] == "component-proof-reuse"
    assert hints["step-6"] == "component-proof-reuse"
    core = [o for o in obs if o.case in ("base", "use") or o.case.startswith("step-")]
    assert len(core) == 10
    step1 = next(o for o in obs if o.case == "step-1")
    assert any("delta_wlctrl1" in n and "0.07" in n for n in step1.notes)


def test_plant_pair_shape(two_tanks_parts):
    _, _, cps, env, invariant = two_tanks_parts
    obs = obligations_plants(cps[0], cps[1], env=env, invariant=invariant)
    assert len(obs) == 10
    assert all(o.theorem == "thm3" for o in obs)
    step1 = next(o for o in obs if o.case == "step-1")
    assert "t <= 0.15" in print_formula(step1.goal)
    assert any("min(0.2, 0.15) = 0.15" in n for n in step1.notes)


def test_bound_name_may_not_leak_into_behaviour(two_tanks_parts):
    _, rcs, _, _, _ = two_tanks_parts
    greedy = make_reactive_controller(
        "greedy",
        dsl.parse_program_text("y := delta_greedy"),
        Fraction(1, 20),
        "tau_9",
        contract=Contract(),
    )
    with pytest.raises(BoundOccursInBehavior) as e:
        obligations_controllers(greedy, rcs[1])
    assert "delta_greedy" in str(e.value)
    assert "program" in str(e.value)


def test_bound_name_may_not_leak_into_guarantee(two_tanks_parts):
    _, rcs, _, _, _ = two_tanks_parts
    nosy = with_contract(
        rcs[0], Contract(guarantee=Compare("<=", var("delta_wlctrl1"), num(1)))
    )
    with pytest.raises(BoundOccursInBehavior) as e:
        obligations_controllers(nosy, rcs[1])
    assert "guarantee" in str(e.value)


def test_to_json_schema_is_stable(watertank):
    obs = obligations_ccs(watertank)
    by_case = {o.case: o for o in obs}
    bare = by_case["jcmp-ctrl"].to_json()
    assert sorted(bare) == ["goal", "hint", "id", "provenance", "status"]
    noted = by_case["step-6"].to_json()
    assert sorted(noted) == ["goal", "hint", "id", "notes", "provenance", "status"]


def test_json_round_trip_preserves_everything(watertank):
    for ob in obligations_ccs(watertank):
        back = obligation_from_json(ob.to_json())
        assert back == ob


def _kyx_sections(text: str) -> tuple[list[str], str]:
    """(declared names, Problem body) of a rendered prover file."""
    decls = text.split("ProgramVariables\n", 1)[1].split("End.", 1)[0]
    problem = text.split("Problem\n", 1)[1].split("End.", 1)[0]
    return re.findall(r"Real (\w+);", decls), problem


def _names_survive_export(a: str, b: str) -> None:
    body = Choice(Assign(a, var(b)), Assign(b, num(0)))
    post = Forall("q", Exists("r", Compare("<=", var(a), Plus(var("q"), var("r")))))
    ob = ProofObligation(
        id="kw.names",
        theorem="thm1",
        case="step-1",
        hint="compatibility",
        goal=Implies(Compare("<=", var(a), var(b)), Box(body, post)),
    )
    names, problem = _kyx_sections(render_kyx(ob))
    assert {a, b} <= set(names)
    for name in names:
        whole = r"(?<![\w\\])" + re.escape(name) + r"(?!\w)"
        assert re.search(whole, problem), (name, problem)
    assert "\\forall q" in problem and "\\exists r" in problem
    assert " ++ " in problem


def test_render_kyx_keeps_identifiers_that_contain_keywords():
    _names_survive_export("noforall", "notexists")


_KEYWORD_PARTS = st.sampled_from(["forall", "exists", "U"])
_PREFIXES = st.text("abnoxz_", max_size=3)
_SUFFIXES = st.text("abnoxz_019", max_size=3)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(_PREFIXES, _KEYWORD_PARTS, _SUFFIXES),
    st.tuples(_PREFIXES, _KEYWORD_PARTS, _SUFFIXES),
)
def test_render_kyx_keeps_every_suffixed_name(first, second):
    a, b = "".join(first), "".join(second)
    if a in dsl.KEYWORDS or b in dsl.KEYWORDS:
        return
    _names_survive_export(a, b)


def test_render_kyx_layout(watertank):
    step1 = next(o for o in obligations_ccs(watertank) if o.case == "step-1")
    text = render_kyx(step1)
    assert text.startswith("/* thm1.step.1 (thm1/step-1) */")
    assert "/* hint: component-proof-reuse */" in text
    assert "ProgramVariables" in text and "Problem" in text
    assert "  Real fin;" in text and "  Real wlm;" in text
    body = text.split("Problem", 1)[1]
    assert " ++ " in body and " U " not in body
    assert kyx_filename(step1) == "thm1.step.1.kyx"


def test_render_kyx_escapes_quantifiers():
    goal = Forall("x", Compare(">=", var("x"), var("x")))
    ob = ProofObligation(
        id="adhoc.q", theorem="adhoc", case="q", hint="compatibility", goal=goal
    )
    assert "\\forall x" in render_kyx(ob)


# --- bounded counterexample search -----------------------------------------


def test_check_bounded_accepts_tautologies():
    goal = Implies(Compare(">=", var("x"), num(0)), Compare(">=", var("x"), num(0)))
    res = check_bounded(goal, {"x": [0, 1]}, grid=3)
    assert res.status == "holds"
    assert res.checked == res.total == 3


def test_check_bounded_counts_only_antecedent_points(watertank):
    step3 = next(o for o in obligations_ccs(watertank) if o.case == "step-3")
    res = check_bounded(step3, WT_BOX, grid=5, flow_samples=8)
    assert res.status == "holds"
    assert res.total == 25  # wl grid x fin grid
    assert res.checked == 8  # invariant antecedent filters the rest


def test_check_bounded_requires_a_box_for_every_variable(watertank):
    base = obligations_ccs(watertank)[0]
    with pytest.raises(UnboundedVariable):
        check_bounded(base, {"wl": [3, 7]}, grid=3)


def test_check_bounded_resolves_alias_chains():
    goal = Implies(Compare("=", var("a"), var("b")), Compare("=", var("b"), var("c")))
    res = check_bounded(goal, {"a": [0, 2], "b": "=a", "c": "=b"}, grid=3)
    assert res.status == "holds"
    assert res.checked == 3


def test_check_bounded_grids_alias_targets_outside_the_goal():
    goal = Compare("<=", var("wlm"), num(7))
    res = check_bounded(goal, {"wl": [3, 7], "wlm": "=wl"}, grid=5)
    assert res.status == "holds"
    assert res.checked == res.total == 5
    res = check_bounded(
        Compare("<", var("wlm"), num(7)), {"wl": [3, 7], "wlm": "=wl"}, grid=5
    )
    assert res.status == "counterexample"
    assert res.initial == {"wl": 7.0, "wlm": 7.0}


def test_check_bounded_rejects_alias_cycles_and_missing_targets():
    goal = Compare("<=", var("a"), num(7))
    with pytest.raises(UnboundedVariable):
        check_bounded(goal, {"a": "=b", "b": "=c", "c": "=a"}, grid=3)
    with pytest.raises(UnboundedVariable):
        check_bounded(goal, {"a": "=a"}, grid=3)
    with pytest.raises(UnboundedVariable):
        check_bounded(goal, {"a": "=b"}, grid=3)


def test_check_bounded_alias_errors_name_the_entry_and_its_target():
    goal = Compare("<=", var("a"), num(7))
    with pytest.raises(UnboundedVariable, match=r"^'a' aliases 'b', which has no value"):
        check_bounded(goal, {"a": "=b"}, grid=3)
    with pytest.raises(UnboundedVariable) as cycle:
        check_bounded(goal, {"a": "=b", "b": "=c", "c": "=a"}, grid=3)
    assert str(cycle.value) == "the alias chain of 'a' loops: 'a' -> 'b' -> 'c' -> 'a'"
    with pytest.raises(UnboundedVariable) as unboxed:
        check_bounded(goal, {}, grid=3)
    assert str(unboxed.value) == "no interval given for variable 'a'"


def test_zero_checked_points_is_inconclusive():
    goal = Implies(Compare("<", var("x"), num(0)), Compare("=", var("x"), num(9)))
    res = check_bounded(goal, {"x": [0, 1]}, grid=3)
    assert res.status == "inconclusive"
    assert res.checked == 0


def test_tight_guarantee_yields_counterexample_above_six(corpus_dir):
    tight = dsl.load_file(corpus_dir / "watertank_tight.ccs")
    base = obligations_ccs(tight)[0]
    res = check_bounded(base, WT_BOX, grid=5, flow_samples=8)
    assert res.status == "counterexample"
    assert 6 < res.counterexample["wl"] <= 7
    assert res.initial["wl"] == res.counterexample["wl"]  # fails at time zero


def test_whole_watertank_set_holds_at_coarse_grid(watertank):
    for ob in obligations_ccs(watertank):
        res = check_bounded(ob, WT_BOX, grid=3, flow_samples=16)
        assert res.status == "holds", (ob.id, res.counterexample)


def test_vacuous_contracts_discharge_everywhere(watertank):
    ctrl = with_contract(watertank.controller.choices[0], Contract())
    plant = with_contract(watertank.plant, Contract())
    vac = make_ccs(ctrl, plant, env=watertank.env, invariant=TRUE, name="vacuous")
    for ob in obligations_ccs(vac):
        res = check_bounded(ob, WT_BOX, grid=3, flow_samples=8)
        assert res.status == "holds", ob.id


# Goal shapes no corpus obligation has: quantifiers, a negated box, a box
# under a disjunction, nested boxes. Expected results recorded on the
# checker that evaluated goals node by node, before goals were compiled.
_CAVEAT = (
    "bounded search: grid 3 per axis, loops unrolled 2 deep, "
    "flows sampled at 32 points"
)
_TRUNCATED = _CAVEAT + "; some behavior was truncated at these bounds"
_X = {"x": [0, 2]}
_XY = {"x": [0, 1], "y": [0, 2]}


def _result(status, checked, total, counterexample=None, initial=None, caveat=_CAVEAT):
    return {
        "status": status,
        "checked": checked,
        "total": total,
        "counterexample": counterexample,
        "initial": initial,
        "caveat": caveat,
    }


SHAPES = {
    "forall-holds": (
        Implies(
            Compare(">=", var("x"), num(0)),
            Forall("y", Compare(">=", Plus(var("x"), var("y")), var("y"))),
        ),
        _XY,
        _result("holds", 3, 3, caveat=_TRUNCATED),
    ),
    "forall-fails": (
        Forall("y", Compare(">=", Plus(var("x"), var("y")), num(1))),
        _XY,
        _result("counterexample", 1, 1, {"x": 0.0, "y": 0.0}, {"x": 0.0}),
    ),
    "exists-holds": (
        Exists("y", Compare(">=", var("y"), var("x"))),
        _XY,
        _result("holds", 3, 3),
    ),
    "exists-fails": (
        Exists("y", Compare(">", var("y"), Plus(var("x"), num(5)))),
        _XY,
        _result("counterexample", 1, 1, {"x": 0.0}, {"x": 0.0}, _TRUNCATED),
    ),
    "not-box": (
        Not(Box(Assign("x", Plus(var("x"), num(1))), Compare(">", var("x"), num(1)))),
        _X,
        _result("counterexample", 2, 2, {"x": 1.0}, {"x": 1.0}),
    ),
    "or-box": (
        Or(
            Compare("<", var("x"), num("0.5")),
            Box(Assign("x", Times(var("x"), num(2))), Compare("<=", var("x"), num(2))),
        ),
        _X,
        _result("counterexample", 3, 3, {"x": 4.0}, {"x": 2.0}),
    ),
    "box-box": (
        Box(
            Assign("x", Plus(var("x"), num(1))),
            Box(Assign("y", var("x")), Compare("<=", var("y"), num(2))),
        ),
        _X,
        _result("counterexample", 3, 3, {"x": 3.0, "y": 3.0}, {"x": 2.0}),
    ),
    "box-loop": (
        Box(Loop(Assign("x", Plus(var("x"), num(1)))), Compare(">=", var("x"), num(0))),
        _X,
        _result("holds", 3, 3, caveat=_TRUNCATED),
    ),
    # The antecedent never holds, so the quantifier without a box entry is
    # never reached.
    "unreached-quantifier": (
        Implies(
            Compare("<", var("x"), num(0)),
            Forall("z", Compare(">=", var("z"), var("x"))),
        ),
        {"x": [0, 1]},
        _result(
            "inconclusive", 0, 3,
            caveat=_CAVEAT + "; no grid point satisfied the antecedent",
        ),
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_check_bounded_goal_shapes(shape):
    goal, box, expected = SHAPES[shape]
    assert check_bounded(goal, box, grid=3).to_json() == expected


def test_check_bounded_follows_aliases_of_quantified_names():
    goal = dsl.parse_formula_text("forall v (v >= 0 -> x + v >= 0)")
    aliased = check_bounded(goal, {"x": [0, 1], "w": [0, 2], "v": "=w"}, grid=3)
    direct = check_bounded(goal, {"x": [0, 1], "w": [0, 2], "v": [0, 2]}, grid=3)
    assert aliased.status == "holds"
    assert aliased.to_json() == direct.to_json()
    with pytest.raises(UnboundedVariable) as broken:
        check_bounded(goal, {"x": [0, 1], "v": "=w"}, grid=3)
    assert str(broken.value) == "'v' aliases 'w', which has no value or interval"


def test_check_bounded_axes_quantifiers_when_reached():
    goal = Forall("z", Compare(">=", var("z"), var("x")))
    with pytest.raises(UnboundedVariable):
        check_bounded(goal, {"x": [0, 1]}, grid=3)
    with pytest.raises(ValueError, match="empty interval"):
        check_bounded(goal, {"x": [0, 1], "z": [1, 0]}, grid=3)


def test_check_bounded_goal_nested_too_deeply_is_a_ccs_error():
    f = Compare(">=", var("x"), num(0))
    for _ in range(250):
        f = Not(f)
    for goal, text in ((f, "!!!!"), (Box(Assign("x", num(1)), f), r"\[x := 1\] !!!!")):
        named = rf"^formula nests too deeply to compile \(SyntaxError\): {text}"
        with pytest.raises(CcsError, match=named):
            check_bounded(goal, {"x": [0, 1]})


def test_check_bounded_flow_domain_nested_too_deeply_is_a_ccs_error():
    """A box's flow whose domain Python will not compile raises CcsError
    naming the domain when the search reaches the flow."""
    goal = dsl.parse_formula_text(
        "x >= 0 -> [{x' = 1 & x >= 0 & " + "!" * 250 + "(x < -1)}] x >= 0"
    )
    named = r"^flow domain nests too deeply to compile \(SyntaxError\): x >= 0 & !!!!"
    with pytest.raises(CcsError, match=named):
        check_bounded(goal, {"x": [0, 1]}, grid=2)


def test_check_bounded_box_program_nested_too_deeply_names_the_program():
    """The box program compiles on its own, so the error names it, not
    the goal around it."""
    p = Assign("z", num(0))
    for i in range(120):
        guarded = seq(Guard(Compare(">=", var("x"), num(0))), p, Assign("y", num(i)))
        p = choice(guarded, Assign("z", num(1)))
    goal = Implies(Compare(">=", var("x"), num(0)), Box(p, Compare(">=", var("x"), num(0))))
    named = r"^program nests too deeply to compile \(\w+\): \(\?\(x >= 0\); "
    with pytest.raises(CcsError, match=named):
        check_bounded(goal, {"x": [0, 1], "y": 0, "z": 0})


@pytest.mark.parametrize(
    "grid,flow_samples,bad",
    [(5, 0, "flow_samples"), (5, -1, "flow_samples"), (0, 32, "grid"), (-3, 32, "grid")],
)
def test_check_bounded_rejects_a_grid_or_flow_samples_below_one(grid, flow_samples, bad):
    goal = dsl.parse_formula_text("x >= 0 -> [{x' = 1, t' = 1 & t <= 1}] x >= 0")
    with pytest.raises(ValueError, match=rf"^{bad} must be at least 1, got -?\d"):
        check_bounded(goal, {"x": [0, 1], "t": 0}, grid=grid, flow_samples=flow_samples)


@pytest.mark.parametrize("flow_samples", [0, -2])
def test_both_compile_entries_reject_flow_samples_below_one(flow_samples):
    """Rejected when compiling, not when a flow first runs (0 used to
    divide by zero there, and -2 to give one sample)."""
    flow = dsl.parse_program_text("{x' = 1, t' = 1 & t <= 1}")
    slots = slots_of(["t", "x"])
    message = rf"^flow_samples must be at least 1, got {flow_samples}$"
    with pytest.raises(ValueError, match=message):
        compile_program_over(flow, slots, flow_samples=flow_samples)
    with pytest.raises(ValueError, match=message):
        compile_goal(Box(flow, TRUE), slots, flow_samples=flow_samples)


def test_a_scanned_flow_starting_at_its_bound_is_not_truncated():
    """A start within 1.28e-10 of a bound `x <= 1` makes the scan step at
    most 1e-12; the scan still walks to the domain's exit."""
    goal = dsl.parse_formula_text("[{x' = 1, t' = 1 & x * x <= 4 & x <= 1}] x <= 1")
    result = check_bounded(goal, {"x": 1 - 1e-11, "t": 0})
    assert result.status == "holds"
    assert "truncated" not in result.caveat


# -- reference semantics ---------------------------------------------------------


def _has_modality(f):
    if isinstance(f, (Box, Forall, Exists)):
        return True
    if isinstance(f, Not):
        return _has_modality(f.operand)
    if isinstance(f, (And, Or, Implies)):
        return _has_modality(f.left) or _has_modality(f.right)
    return False


def _tree_goal(f, slots, compile_prog):
    """`f` as a closure `(s, axis, cut)` -> (verdict, failing state): the
    reached state where a box- and quantifier-free part went false, the
    state a negation or an exists failed at, or None when `f` holds. A
    quantifier reads its values from `axis(name)` and calls `cut()` when
    its grid ran out without deciding it."""
    if not _has_modality(f):
        leaf = compile_source("s", emit_formula(f, slots))
        return lambda s, axis, cut: (True, None) if leaf(s) else (False, s)
    if isinstance(f, Not):
        inner = _tree_goal(f.operand, slots, compile_prog)
        return lambda s, axis, cut: (
            (False, s) if inner(s, axis, cut)[0] else (True, None)
        )
    if isinstance(f, (And, Or, Implies)):
        left = _tree_goal(f.left, slots, compile_prog)
        right = _tree_goal(f.right, slots, compile_prog)

        def connective(s, axis, cut):
            ok, w = left(s, axis, cut)
            if isinstance(f, And):
                return right(s, axis, cut) if ok else (False, w)
            if isinstance(f, Or):
                return (True, None) if ok else right(s, axis, cut)
            return right(s, axis, cut) if ok else (True, None)

        return connective
    if isinstance(f, Box):
        reach = compile_prog(f.program)
        post = _tree_goal(f.post, slots, compile_prog)

        def box(s, axis, cut):
            for r in reach(s, cut):
                ok, w = post(r, axis, cut)
                if not ok:
                    return False, w
            return True, None

        return box
    body = _tree_goal(f.body, slots, compile_prog)
    i = slots[f.var]

    def bind(s, x):  # a copy of the state `s` with `f.var` set to x
        return s[:i] + (x,) + s[i + 1:]

    def quantifier(s, axis, cut):
        for x in axis(f.var):
            ok, w = body(bind(s, x), axis, cut)
            if ok != isinstance(f, Forall):
                return (ok, None) if ok else (False, w)
        cut()
        return (True, None) if isinstance(f, Forall) else (False, s)

    return quantifier


def _grid(spec, grid):
    if isinstance(spec, list):
        lo, hi = map(float, spec)
        if hi == lo or grid <= 1:
            return (lo,)
        return tuple(lo + (hi - lo) * i / (grid - 1) for i in range(grid))
    return (float(spec),)


def _tree_check(goal, box, grid, flow_samples):
    """check_bounded's result over `_tree_goal`, for a box of numbers and
    intervals (no aliases) that names every name of `goal`."""
    free, written = free_and_bound_vars(goal)
    keys = sorted(free)
    layout = tuple(sorted({*written, *box}))
    slots = slots_of(layout)
    compile_prog = functools.partial(
        compile_program_over, slots=slots, unroll=CHECK_UNROLL,
        flow_samples=flow_samples,
    )
    sides = (goal.left, goal.right) if isinstance(goal, Implies) else (TRUE, goal)
    pre, post = (_tree_goal(f, slots, compile_prog) for f in sides)
    cut_short = []

    def cut():
        cut_short.append(True)

    def axis(name):
        return _grid(box[name], grid)

    def named(s):
        return {n: v for n, v in zip(layout, s) if v is not None}

    def result(status, checked, total, counterexample=None, initial=None):
        caveat = (
            f"bounded search: grid {grid} per axis, loops unrolled {CHECK_UNROLL} "
            f"deep, flows sampled at {flow_samples} points"
        )
        if cut_short:
            caveat += "; some behavior was truncated at these bounds"
        if checked == 0:
            caveat += "; no grid point satisfied the antecedent"
        return _result(status, checked, total, counterexample, initial, caveat)

    checked = total = 0
    for combo in itertools.product(*(_grid(box[n], grid) for n in keys)):
        s = tuple(combo[keys.index(n)] if n in free else None for n in layout)
        total += 1
        if not pre(s, axis, cut)[0]:
            continue
        checked += 1
        ok, w = post(s, axis, cut)
        if not ok:
            return result("counterexample", checked, total, named(w), named(s))
    return result("holds" if checked else "inconclusive", checked, total)


def _outcome(fn, *args):
    """A result as JSON text, or the error raised."""
    try:
        return json.dumps(fn(*args))
    except (CcsError, TypeError) as e:
        return type(e).__name__, str(e)


_SPECS = st.one_of(
    st.integers(-2, 2), st.tuples(st.integers(-2, 2), st.integers(0, 2)).map(
        lambda p: [p[0], p[0] + p[1]]
    )
)


@settings(deadline=None, max_examples=200)
@given(
    randgen.goals(),
    st.fixed_dictionaries({n: _SPECS for n in randgen.GOAL_NAMES}),
    st.integers(1, 3),
    st.integers(1, 4),
)
# A box whose post fails in two final states: the witness is the first.
@example(
    Box(
        Choice(Assign("y0a", num(1)), Assign("y0a", num(2))),
        Compare(">", var("y0a"), num(5)),
    ),
    dict.fromkeys(randgen.GOAL_NAMES, 0),
    1,
    1,
)
def test_check_bounded_matches_the_tree_semantics(goal, box, grid, flow_samples):
    """Every field of the result, or the error, equals what evaluating
    the goal node by node gives, on goals nesting boxes over programs,
    loops and flows, quantifiers and connectives."""
    expected = _outcome(_tree_check, goal, box, grid, flow_samples)
    got = _outcome(lambda: check_bounded(goal, box, grid, flow_samples).to_json())
    assert got == expected


# sha256 of [status, checked, total, counterexample] per obligation, grid 5,
# default unroll and flow samples; recorded before the checker compiled
# its formulas once per call.
VERDICT_PINS = {
    "watertank": "1b9f0158b0bde3ffaf5fa57d15891acfc534bb4f01ad7a68d5ecf5e0406cc0e7",
    "two_tanks": "3adc86bdb7108fd00526edf77dc7575d2e34bb5303d8eba8ff1a679115b8834a",
    "watertank_tight": "788b974c88599d135448caca6dc96b419b2e0b55fb6ea3f1a9ba8295cad0e209",
}


@pytest.mark.parametrize("model", sorted(VERDICT_PINS))
def test_bounded_verdicts_are_pinned(model, corpus_dir):
    box = TT_BOX if model == "two_tanks" else WT_BOX
    system = dsl.load_file(corpus_dir / f"{model}.ccs")
    verdicts = []
    for ob in obligations_ccs(system):
        res = check_bounded(ob, box, grid=5)
        verdicts.append([res.status, res.checked, res.total, res.counterexample])
    digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    assert digest == VERDICT_PINS[model]


# -- each obligation compiled once --------------------------------------------


def test_a_checked_obligation_compiles_nothing_at_another_grid(watertank, monkeypatch):
    import ccskit.obligations
    import ccskit.simulator

    obs = obligations_ccs(watertank)
    for ob in obs:
        check_bounded(ob, WT_BOX, grid=2, flow_samples=8)
    calls = []

    def counting(emit):
        def fn(*args, **kwargs):
            calls.append(emit.__name__)
            return emit(*args, **kwargs)

        return fn

    for module in (ccskit.simulator, ccskit.obligations):
        for name in ("emit_formula", "emit_term"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    warm = [check_bounded(ob, WT_BOX, grid=3, flow_samples=8).to_json() for ob in obs]
    assert calls == []
    cold = [check_bounded(ob.replace(), WT_BOX, grid=3, flow_samples=8).to_json() for ob in obs]
    assert calls
    assert warm == cold


def test_a_warm_obligation_is_the_cold_one(watertank):
    import pickle

    warm, cold = obligations_ccs(watertank)[5], obligations_ccs(watertank)[5]
    check_bounded(warm, WT_BOX, grid=2, flow_samples=8)
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert pickle.dumps(warm) == pickle.dumps(cold)
    assert pickle.loads(pickle.dumps(warm)) == cold


def test_a_finished_check_leaves_no_reference_cycle(watertank):
    import gc

    obs = obligations_ccs(watertank)
    gc.collect()
    gc.disable()
    try:
        for grid in (2, 3):  # cold, then warm
            for ob in obs:
                check_bounded(ob, WT_BOX, grid=grid, flow_samples=8)
            for goal, box, _ in SHAPES.values():
                check_bounded(goal, box, grid=grid)
            assert gc.collect() == 0
    finally:
        gc.enable()
