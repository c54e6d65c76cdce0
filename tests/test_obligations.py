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
import math
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
    Divide,
    Exists,
    Forall,
    Implies,
    Loop,
    Minus,
    Not,
    Or,
    Plus,
    TRUE,
    Test as Guard,
    Times,
    choice,
    conj,
    num,
    print_formula,
    seq,
    var,
    walk,
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
from ccskit import simulator
from ccskit.simulator import (
    compile_goal,
    compile_program_over,
    compile_source,
    conjunct_tests,
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


# sha256 of the [file name, sha256 of its bytes] of every prover file that
# `ccs export-kyx` writes from each golden obligations file (each corpus
# model that loads, and each pair theorem), recorded before `all_vars`
# became one walk that keeps nothing.
KYX_PINS = {
    "two_tanks_controllers_obligations": "a1fd84fff619cbfa1c9a5bb0be607719646408255a8b6f043fec8169af628e3d",
    "two_tanks_obligations": "3555cbc03ea1a53212419676eff2ce5c0f68e3cf52998f6db286cce7d939353f",
    "two_tanks_plants_obligations": "96a9cf178d7819fc27d87f3509912430978cd251630f31e3ba07e01c9b867d2b",
    "two_tanks_slow_controllers_obligations": "10d832b6826eea5fc4cadc1b013cbdc96f232a7d58429a8f9eeb9e2cb7d4e58a",
    "two_tanks_slow_plants_obligations": "96a9cf178d7819fc27d87f3509912430978cd251630f31e3ba07e01c9b867d2b",
    "watertank_late_ctrl_obligations": "1c5ee84820ea94e4c6ec18eff224ea5c0eb4f8aff8423500dfe2ef43a4bbd6f4",
    "watertank_obligations": "f96643b7ee6d9944b9eb7a663f116a448156a93046fccbd48f02c22dc80201c4",
    "watertank_tight_obligations": "ccade92c7e0cc02d03b199c69b24b94c7fda3ff6d2fcd9d2a935143bab654dac",
}


def test_the_exported_prover_files_are_pinned(golden_dir):
    assert sorted(KYX_PINS) == sorted(p.stem for p in golden_dir.glob("*_obligations.json"))
    for stem, pin in KYX_PINS.items():
        obs = [obligation_from_json(d) for d in _golden(golden_dir, f"{stem}.json")]
        files = [[kyx_filename(ob), hashlib.sha256(render_kyx(ob).encode()).hexdigest()]
                 for ob in obs]
        assert hashlib.sha256(json.dumps(files).encode()).hexdigest() == pin, stem


def test_render_kyx_keeps_nothing_on_a_parsed_goal(golden_dir):
    """Rendering walks a goal parsed from JSON once and leaves no kept
    pair of names, modality or source on any of its nodes."""
    for data in _golden(golden_dir, "two_tanks_obligations.json"):
        ob = obligation_from_json(data)
        render_kyx(ob)
        for node in walk(ob.goal):
            assert all(getattr(node, slot, None) is None
                       for slot in ("_vars", "_modal", "_emitted")), node


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


@pytest.mark.parametrize("bad", [True, math.nan, math.inf, -math.inf, None, 10**400])
def test_check_bounded_rejects_a_box_number_that_is_no_finite_real(bad):
    """A number in the box is read as the interval [x, x]: a bool, NaN,
    an infinity, None or an int too large for a float raises ValueError
    naming its entry, whether a free name, an alias's root or a
    quantified name reads it."""
    goal = dsl.parse_formula_text("x >= 0 -> x + y >= 0")
    named = rf"^box entry 'x' is {re.escape(repr(bad))}, not a finite number$"
    for box in ({"x": bad, "y": [0, 1]}, {"x": bad, "y": "=x"}):
        with pytest.raises(ValueError, match=named):
            check_bounded(goal, box)
    quantified = Forall("x", Compare(">=", var("x"), var("y")))
    with pytest.raises(ValueError, match=named):
        check_bounded(quantified, {"x": bad, "y": [0, 1]})
    assert check_bounded(goal, {"x": 2, "y": [0, 1]}).status == "holds"


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
    # As an antecedent, called whole at each point or tested inside the
    # loop over x, apart from a test on y hoisted out of it.
    post = Compare(">=", var("x"), num(0))
    y_low = Compare("<=", var("y"), num(0))
    for pre, box in ((f, {"x": [0, 1]}), (And(y_low, f), {"x": [0, 1], "y": [0, 1]})):
        with pytest.raises(CcsError, match=r"^formula nests too deeply to compile \(SyntaxError\): "):
            check_bounded(Implies(pre, post), box)


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


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None])
def test_a_grid_or_flow_samples_that_is_no_int_is_rejected(corpus_dir, bad):
    """A float, a bool or any other value that is no int raises
    ValueError naming the argument, in check_bounded (also for an
    obligation that keeps a search) and in both compile entries."""
    message = rf"^{{}} must be an int, got {re.escape(repr(bad))}$"
    obs = obligations_ccs(dsl.load_file(corpus_dir / "watertank.ccs"))
    base = next(ob for ob in obs if ob.id == "thm1.base")
    assert check_bounded(base, WT_BOX, grid=2).status == "holds"
    flow_goal = dsl.parse_formula_text("x >= 0 -> [{x' = 1, t' = 1 & t <= 1}] x >= 0")
    for name in ("grid", "flow_samples"):
        for goal, box in ((base, WT_BOX), (flow_goal, {"x": [0, 1], "t": 0})):
            with pytest.raises(ValueError, match=message.format(name)):
                check_bounded(goal, box, **{name: bad})
    flow = dsl.parse_program_text("{x' = 1, t' = 1 & t <= 1}")
    with pytest.raises(ValueError, match=message.format("flow_samples")):
        compile_program_over(flow, slots_of(["t", "x"]), flow_samples=bad)
    with pytest.raises(ValueError, match=message.format("flow_samples")):
        compile_goal(Box(flow, TRUE), slots_of(["t", "x"]), flow_samples=bad)


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


@settings(deadline=None, max_examples=200)
@given(
    randgen.goals(),
    randgen.goal_boxes(),
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


# -- the grid search against the reference -----------------------------------

_DIVISOR = st.sampled_from(
    [Minus(var("x0"), var("u0")), Plus(var("u1"), num(1)), var("t"), num(2)]
)


@settings(deadline=None, max_examples=150)
@given(
    randgen.formulas(randgen.GOAL_NAMES),
    st.builds(
        Compare, st.sampled_from(["<=", "<", ">=", ">", "=", "!="]),
        st.builds(Divide, randgen.terms(randgen.GOAL_NAMES), _DIVISOR),
        randgen.terms(randgen.GOAL_NAMES),
    ),
    st.booleans(),
    randgen.goals(),
    randgen.goal_boxes(),
    st.integers(1, 3),
)
# `x0 > 5` never holds, so the division by t = 0, which reads only the
# outer axis t, is never reached: tested apart in the loop over t, it
# would raise.
@example(
    Compare(">", var("x0"), num(5)),
    Compare(">=", Divide(num(1), var("t")), num(0)),
    False,
    Compare(">=", var("x0"), num(0)),
    {**dict.fromkeys(randgen.GOAL_NAMES, 0), "t": [0, 1], "x0": [0, 2]},
    2,
)
def test_an_antecedent_that_divides_fails_where_the_tree_does(
    other, divides, first, post, box, grid
):
    """An antecedent with a division runs whole at each point, in order:
    a division by zero is raised at the point the reference raises it,
    or not at all when the reference finds a counterexample first."""
    pre = And(divides, other) if first else And(other, divides)
    goal = Implies(pre, post)
    expected = _outcome(_tree_check, goal, box, grid, 2)
    got = _outcome(lambda: check_bounded(goal, box, grid, 2).to_json())
    assert got == expected


@settings(deadline=None, max_examples=150)
@given(
    st.lists(randgen.formulas(randgen.GOAL_NAMES[:4]), min_size=1, max_size=3),
    st.lists(st.integers(0, 2), min_size=2, max_size=7),
    randgen.goals(),
    randgen.goal_boxes(),
    st.integers(1, 3),
)
def test_repeated_antecedent_conjuncts_match_the_tree(pool, picks, post, box, grid):
    """An antecedent whose conjuncts repeat (each tested once) checks as
    the reference, which evaluates every one of them."""
    pre = conj(*(pool[i % len(pool)] for i in picks))
    goal = Implies(pre, post)
    expected = _outcome(_tree_check, goal, box, grid, 2)
    got = _outcome(lambda: check_bounded(goal, box, grid, 2).to_json())
    assert got == expected


def test_a_repeated_conjunct_is_tested_once():
    x_high = Compare(">=", var("x"), num(2))
    y_low = Compare("<", var("y"), num(1))
    goal = Implies(conj(x_high, y_low, x_high, y_low), Compare(">", var("x"), var("y")))
    tests = conjunct_tests(goal.left, slots_of(("x", "y")))
    assert tests == ("(s[0] >= 2.0)", "(s[1] < 1.0)")
    source, whole = simulator._search_source(tests, (0, 1), (True, True))
    assert not whole
    assert source.count(">= 2.0") == source.count("< 1.0") == 1


def test_a_counterexample_after_skipped_blocks_counts_every_point():
    """`x >= 2` is tested in the outer loop, so the blocks of x = 0 and
    x = 1 are skipped whole; the counterexample at x = 3, y = 2 is the
    15th point of the product, the 7th to satisfy the antecedent."""
    goal = dsl.parse_formula_text("x >= 2 -> y < 2 | x < 3")
    box = {"x": [0, 3], "y": [0, 3]}
    result = check_bounded(goal, box, grid=4).to_json()
    assert result == _tree_check(goal, box, 4, 32)
    assert (result["status"], result["checked"], result["total"]) == ("counterexample", 7, 15)
    assert result["initial"] == {"x": 3.0, "y": 2.0}


@pytest.mark.parametrize("grid", [1, 2, 3])
@pytest.mark.parametrize(
    "text",
    [
        "1 < 2 -> 2 < 1",  # no axis at all
        "2 < 1 -> 1 < 2",
        "x >= 1 & y < 2 -> x + y < 2",  # every axis one value (x and y pinned)
        "x >= 1 -> [x := x + y] x < 3",
    ],
)
def test_searches_with_no_loop_match_the_tree(text, grid):
    goal = dsl.parse_formula_text(text)
    box = {"x": 1, "y": 0.5}
    assert check_bounded(goal, box, grid).to_json() == _tree_check(goal, box, grid, 32)


_WIDE = [f"n{i:02d}" for i in range(25)]


@pytest.mark.parametrize("grid", [1, 2])
@pytest.mark.parametrize("hoisted", [True, False])
def test_twenty_five_names_with_twenty_four_pinned_match_the_tree(grid, hoisted):
    """25 gridded names, 24 of them one value: the search binds those
    before its one loop (none at grid 1). The antecedent reads pinned
    names, and, unless `hoisted` is off, also the looped one alone."""
    box = {n: i for i, n in enumerate(_WIDE)}
    box["n12"] = [0, 4]
    pinned = conj(*(Compare(">=", var(n), num(0)) for n in _WIDE if n != "n12"))
    looped = Compare("<=", var("n12"), num(3)) if hoisted else TRUE
    post = Compare("<", Plus(var("n12"), var("n00")), var("n24"))
    goal = Implies(conj(pinned, looped), post)
    assert check_bounded(goal, box, grid).to_json() == _tree_check(goal, box, grid, 32)


def test_seventeen_looped_axes_nest_one_loop_each():
    """At grid 2 the cap allows 17 looped axes: one `for` each, inside
    CPython's limit of 20 nested blocks. A test of the outermost name
    skips its block; the rest are checked."""
    names = [f"a{i:02d}" for i in range(17)]
    box = {n: [0, 1] for n in names}
    pre = conj(Compare(">=", var(names[0]), num(1)), Compare(">=", var(names[-1]), num(0)))
    goal = Implies(pre, conj(*(Compare("<=", var(n), num(1)) for n in names)))
    result = check_bounded(goal, box, grid=2)
    assert (result.status, result.checked, result.total) == ("holds", 2**16, 2**17)


# sha256 of every field of every result over the four check sets of the
# benchmark (watertank, two_tanks, the contract-free system and
# watertank_tight) at grids 2, 3 and 5 and 1, 8 and 32 flow samples:
# 540 results, recorded before the grid search was generated.
CORPUS_RESULTS_DIGEST = "a13e80357e28b11aaba03c426cb8abbb8b357148e219fa84cee202c1c512e805"


def test_the_corpus_results_are_pinned(corpus_dir, watertank):
    vacuous = make_ccs(
        with_contract(watertank.controller.choices[0], Contract()),
        with_contract(watertank.plant, Contract()),
        env=watertank.env,
        invariant=TRUE,
        name="vacuous",
    )
    sets = {
        "watertank": (watertank, WT_BOX),
        "two_tanks": (dsl.load_file(corpus_dir / "two_tanks.ccs"), TT_BOX),
        "vacuous": (vacuous, WT_BOX),
        "watertank_tight": (dsl.load_file(corpus_dir / "watertank_tight.ccs"), WT_BOX),
    }
    results = []
    for name, (system, box) in sets.items():
        obligations = obligations_ccs(system)
        for grid, flow_samples in itertools.product((2, 3, 5), (1, 8, 32)):
            for ob in obligations:
                result = check_bounded(ob, box, grid, flow_samples).to_json()
                results.append([name, grid, flow_samples, ob.id, result])
    assert len(results) == 540
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == CORPUS_RESULTS_DIGEST


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


def _bench_prepare(corpus_dir):
    """The benchmark's `prepare` module: its check boxes and set-up."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "prepare", corpus_dir.parent / "perfbench" / "prepare.py")
    prepare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(prepare)
    return prepare


def test_each_flow_of_the_benchmark_checks_is_built_once_per_layout(corpus_dir, monkeypatch):
    """The cold checks of the benchmark's set-up (every obligation of its
    four check sets at grid 2) build one FlowSegment per distinct (ODE,
    layout): the obligations of a composition share their flows, and an
    ODE keeps the sampler made of it. Checking copies of the obligations
    at another grid, which compiles each goal again, builds none."""
    prepare = _bench_prepare(corpus_dir)
    built = []
    build = simulator.FlowSegment.__init__

    def counted(seg, ode, slots):
        built.append((ode, slots))
        build(seg, ode, slots)

    monkeypatch.setattr(simulator.FlowSegment, "__init__", counted)
    boxes = prepare.CHECK_BOXES
    models = ["watertank", "two_tanks", "watertank_tight"]
    prepared = prepare.prepare(models, [], list(boxes))
    assert len(built) == len({(id(ode), id(slots)) for ode, slots in built}) == 8
    for name, obs in prepared["obligations"].items():
        for ob in obs:
            check_bounded(ob.replace(), boxes[name], grid=3, flow_samples=prepare.FLOW_SAMPLES)
    assert len(built) == 8


def test_each_obligation_keeps_one_search_per_grid_shape(corpus_dir, monkeypatch):
    """After the benchmark's cold checks (every obligation of its four
    check sets at grid 2), checking them again at grids 3, 5 and 17, of
    the same shape, builds and compiles no search. A grid-1 check is a
    new shape: its search replaces the kept one, and grid 3 then gives
    what a fresh copy of the obligation gives."""
    prepare = _bench_prepare(corpus_dir)
    boxes, samples = prepare.CHECK_BOXES, prepare.FLOW_SAMPLES
    prepared = prepare.prepare(["watertank", "two_tanks", "watertank_tight"], [], list(boxes))
    calls = []

    def counted(fn):
        def call(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return call

    for name in ("_search_source", "compile_source"):
        monkeypatch.setattr(simulator, name, counted(getattr(simulator, name)))
    sets = [(boxes[name], obs) for name, obs in prepared["obligations"].items()]
    for grid in (3, 5, 17):
        for box, obs in sets:
            for ob in obs:
                check_bounded(ob, box, grid=grid, flow_samples=samples)
    assert calls == []
    for box, obs in sets:
        for ob in obs:
            check_bounded(ob, box, grid=1, flow_samples=samples)
            kept = check_bounded(ob, box, grid=3, flow_samples=samples).to_json()
            assert kept == check_bounded(ob.replace(), box, grid=3, flow_samples=samples).to_json()
    assert "_search_source" in calls


def test_a_quantified_axis_is_read_once_per_call(monkeypatch):
    """The search reads the box entry of a quantified slot once per call,
    at the first quantifier that asks, not once per grid point that
    reaches it; a quantifier never reached reads nothing."""
    import ccskit.obligations

    reads = []
    box_interval = ccskit.obligations.box_interval
    monkeypatch.setattr(ccskit.obligations, "box_interval",
                        lambda *entry: reads.append(entry) or box_interval(*entry))
    goal = dsl.parse_formula_text("0 <= x & x <= 1 -> forall y (y >= 0 -> x + y >= 0)")
    assert check_bounded(goal, {"x": [0, 1], "y": [0, 2]}, grid=5).status == "holds"
    assert reads == [([0, 1], "x"), ([0, 2], "y")]
    unreached = dsl.parse_formula_text("x >= 2 -> forall z (z >= x)")
    assert check_bounded(unreached, {"x": [0, 1]}, grid=5).status == "inconclusive"


def _obligation(goal):
    return ProofObligation(id="adhoc.k", theorem="adhoc", case="k", hint="compatibility", goal=goal)


def test_boxes_that_compare_equal_give_their_own_results():
    """True and 1, -0.0 and 0.0, a list and a tuple, and a list before
    and after it changes in place compare equal, and a call with the
    second of each pair after the first gives what a fresh obligation
    gives: a bool is still rejected and a -0.0 counterexample keeps its
    sign. The kept search refers to neither the box nor its lists."""
    import gc

    below_one = _obligation(dsl.parse_formula_text("x >= 0 -> x + y <= 1"))
    positive = _obligation(dsl.parse_formula_text("x > 0"))

    def outcome(ob, box):
        try:
            return repr(check_bounded(ob, box, grid=3))
        except ValueError as e:
            return repr(e)

    box = {"x": [0, 1], "y": 0}
    pairs = [
        (below_one, {"x": 1, "y": [0, 1]}, {"x": True, "y": [0, 1]}),
        (positive, {"x": 0.0}, {"x": -0.0}),
        (below_one, box, {"x": (0, 1), "y": 0}),
        (below_one, box, box),
    ]
    for ob, first, second in pairs:
        outcome(ob, first)
        if second is box:
            box["x"][1] = 2
        assert outcome(ob, second) == outcome(ob.replace(), second)
        lists = [v for v in second.values() if isinstance(v, list)]
        kept, seen = [ob._compiled], set()
        while kept:
            obj = kept.pop()
            assert obj is not second and all(obj is not v for v in lists)
            if isinstance(obj, (tuple, list, dict)) and id(obj) not in seen:
                seen.add(id(obj))
                kept += gc.get_referents(obj)
    assert outcome(below_one, pairs[0][2]) == (
        "ValueError(\"box entry 'x' is True, not a finite number\")")
    assert repr(check_bounded(positive, {"x": -0.0}, grid=3).counterexample) == "{'x': -0.0}"
    assert check_bounded(below_one, box, grid=3).counterexample == {"x": 2.0, "y": 0.0}


def test_a_warm_result_is_the_cold_one_over_the_benchmark_check_sets(corpus_dir):
    prepare = _bench_prepare(corpus_dir)
    boxes = prepare.CHECK_BOXES
    prepared = prepare.prepare(["watertank", "two_tanks", "watertank_tight"], [], list(boxes))
    for name, obs in prepared["obligations"].items():
        for grid in (2, 3, 5):
            for ob in obs:
                cold = check_bounded(ob.replace(), boxes[name], grid=grid, flow_samples=8)
                check_bounded(ob, boxes[name], grid=grid, flow_samples=8)
                warm = check_bounded(ob, boxes[name], grid=grid, flow_samples=8)
                assert repr(warm.to_json()) == repr(cold.to_json())


def test_an_obligation_keeps_only_its_names_and_compiled_goal():
    assert [s for s in ProofObligation.__slots__ if s[0] == "_"] == ["_names", "_compiled"]


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


# The domain box of each corpus model that loads; the rest are rejected.
CLEAN_MODEL_BOXES = {
    "two_tanks": TT_BOX, "watertank": WT_BOX, "watertank_late_ctrl": WT_BOX,
    "watertank_tight": WT_BOX,
}


def test_checking_the_clean_corpus_leaves_no_reference_cycle(corpus_dir):
    """Every obligation of every corpus model that loads, checked at grid
    2 from a cold compile cache, leaves nothing for the collector, also
    once the obligations, which keep their compiled goals, are dropped:
    no compiled goal, sampler or helper refers back to itself."""
    import gc

    clean = {}
    for path in sorted(corpus_dir.glob("*.ccs")):
        try:
            clean[path.stem] = dsl.load_file(path)
        except CcsError:
            continue
    assert sorted(clean) == sorted(CLEAN_MODEL_BOXES)
    compile_source.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for model, system in clean.items():
            for ob in obligations_ccs(system):
                check_bounded(ob, CLEAN_MODEL_BOXES[model], grid=2, flow_samples=8)
        assert gc.collect() == 0
    finally:
        gc.enable()
