"""Component construction: timing wrappers, gates, closed-loop shape."""

from fractions import Fraction

import pytest

from ccskit.ast import (
    And,
    Assign,
    Box,
    Compare,
    Exists,
    Forall,
    Implies,
    Loop,
    ODE,
    Not,
    Or,
    TRUE,
    choice_alternatives,
    conj,
    num,
    print_formula,
    print_program_inline,
    var,
)
from ccskit.components import (
    Contract,
    Environment,
    contract_validity_goal,
    joint_contract,
    make_ccs,
    make_controllable_plant,
    make_reactive_controller,
    with_contract,
)
from ccskit.errors import (
    ClockRedefined,
    EnvironmentNotConstant,
    InvalidContract,
    MissingContract,
    NonFreshTimestamp,
    NonPositiveBound,
    NotDiscrete,
    ReactivityExceedsControllability,
    ReservedName,
)


def _ctrl(name="c", reactivity=Fraction(1, 20), timestamp="tau_1", **kw):
    body = kw.pop("ctrl", Assign("u", num(1)))
    return make_reactive_controller(name, body, reactivity, timestamp, **kw)


def _plant(name="p", controllability=Fraction(1, 5), **kw):
    return make_controllable_plant(
        name,
        kw.pop("equations", (("x", var("u")),)),
        kw.pop("domain", Compare(">=", var("x"), num(0))),
        controllability,
        **kw,
    )


def test_reactive_controller_emits_guard_body_stamp():
    rc = _ctrl()
    assert print_program_inline(rc.to_program()) == "?(t <= tau_1 + 0.05); u := 1; tau_1 := t"
    # a composed system re-emits the same behaviour at the joint bound
    assert "t <= tau_1 + 0.07" in print_program_inline(rc.to_program(Fraction(7, 100)))


def test_controller_gates():
    with pytest.raises(NonPositiveBound):
        _ctrl(reactivity=Fraction(0))
    with pytest.raises(NotDiscrete):
        _ctrl(ctrl=ODE((("x", num(1)),), TRUE))
    with pytest.raises(ClockRedefined):
        _ctrl(ctrl=Assign("t", num(0)))
    with pytest.raises(ReservedName):
        _ctrl(ctrl=Assign("tau_9", num(0)))
    with pytest.raises(NonFreshTimestamp):
        _ctrl(ctrl=Assign("u", var("tau_1")))


def test_plant_program_injects_clock_and_time_cap():
    p = _plant()
    assert (
        print_program_inline(p.to_program())
        == "{x' = u, t' = 1 & t >= 0 & x >= 0 & t <= 0.2}"
    )
    assert "t <= 0.05" in print_program_inline(p.to_program(Fraction(1, 20)))


def test_plant_gates():
    with pytest.raises(NonPositiveBound):
        _plant(controllability=Fraction(-1, 2))
    with pytest.raises(ClockRedefined):
        _plant(equations=(("t", num(1)),))
    with pytest.raises(ClockRedefined):
        _plant(equations=(("x", var("t")),))
    with pytest.raises(ReservedName):
        _plant(equations=(("x", var("tau_1")),))
    with pytest.raises(ValueError):
        _plant(equations=())
    with pytest.raises(ValueError):
        _plant(equations=(("x", num(1)), ("x", num(2))))


def test_contract_rejects_modalities():
    boxed = Box(Assign("x", num(1)), TRUE)
    with pytest.raises(InvalidContract):
        Contract(guarantee=boxed)


def test_contract_finds_a_box_under_any_connective_or_quantifier():
    """A box anywhere in a clause is rejected, with the clause named; a
    quantifier alone is not a box."""
    boxed = Box(Assign("x", num(1)), Compare("<=", var("x"), num(2)))
    cmp = Compare(">=", var("y"), num(0))
    for clause in (Not(Or(cmp, boxed)), Implies(cmp, Forall("x", And(cmp, boxed)))):
        with pytest.raises(InvalidContract, match=r"^contract init clause contains a box modality$"):
            Contract(init=clause)
    assert Contract(assume=Exists("x", cmp)).assume == Exists("x", cmp)


def test_a_controller_family_keeps_its_joint_contract(two_tanks):
    family = two_tanks.controller
    assert family.contract is family.contract
    assert family.contract == joint_contract(*(rc.contract for rc in family.choices))


def test_make_ccs_loop_shape():
    sys_ = make_ccs(
        _ctrl(contract=Contract()), _plant(contract=Contract()), name="s"
    )
    body = sys_.to_program()
    assert isinstance(body, Loop)
    alts = choice_alternatives(body.body)
    assert isinstance(alts[0], ODE)
    # plant runs under the controller's own yield guard, not the full bound
    assert "t <= tau_1 + 0.05" in print_formula(alts[0].domain)
    assert "t <= 0.2" not in print_formula(alts[0].domain)
    assert print_program_inline(alts[1]).startswith("?(t <= tau_1 + 0.05);")


def test_make_ccs_rejects_unschedulable_pairs():
    slow = _ctrl(reactivity=Fraction(1, 2), contract=Contract())
    with pytest.raises(ReactivityExceedsControllability):
        make_ccs(slow, _plant(contract=Contract()), name="s")


def test_make_ccs_rejects_written_environment_constants():
    env = Environment(Compare("=", var("u"), num(1)))
    with pytest.raises(EnvironmentNotConstant):
        make_ccs(
            _ctrl(contract=Contract()),  # writes u
            _plant(contract=Contract()),
            env=env,
            name="s",
        )


def test_missing_contract_is_an_error_where_required():
    with pytest.raises(MissingContract):
        _plant().require_contract()


def test_with_contract_returns_updated_copy():
    rc = _ctrl()
    g = Compare("=", var("u"), num(1))
    rc2 = with_contract(rc, Contract(guarantee=g))
    assert rc.contract is None
    assert rc2.contract.guarantee == g
    assert rc2.ctrl == rc.ctrl


def test_contract_validity_goal_states_env_assume_init_loop_guarantee():
    a = Compare(">=", var("x"), num(0))
    g = Compare("<=", var("u"), num(1))
    init = Compare("=", var("u"), num(0))
    rc = _ctrl(contract=Contract(assume=a, guarantee=g, init=init))
    env = Environment(Compare("=", var("k"), num(2)))
    goal = contract_validity_goal(rc, env=env)
    assert isinstance(goal, Implies)
    assert goal.left == conj(env.formula, a, init)
    assert isinstance(goal.right, Box)
    assert isinstance(goal.right.program, Loop)
    assert goal.right.post == g


def test_system_validity_goal_conjoins_both_contracts():
    c = _ctrl(contract=Contract(guarantee=Compare("=", var("u"), num(1))))
    p = _plant(contract=Contract(guarantee=Compare(">=", var("x"), num(0))))
    sys_ = make_ccs(c, p, name="s")
    goal = contract_validity_goal(sys_)
    text = print_formula(goal)
    assert "u = 1 & x >= 0" in text
    assert text.count("[") == 1


def test_timestamps_survive_into_multi_choice_form(two_tanks):
    mc = two_tanks.controller
    assert list(mc.timestamps) == ["tau_1", "tau_2"]
    assert mc.reactivity == Fraction(7, 100)
    progs = [print_program_inline(rc.to_program(mc.reactivity)) for rc in mc.choices]
    assert "?(t <= tau_1 + 0.07)" in progs[0]
    assert "?(t <= tau_2 + 0.07)" in progs[1]
