"""Composition operators: scheduling cost, non-interference gates, AC laws.

Frozen cost expectations come from working the max-plus definition by
hand: one shared resource adds reactivities (1/20 + 1/50 = 7/100),
independent resources take the max (1/20).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import randgen
from ccskit.ast import normalize_ac, print_program_inline
from ccskit.components import Contract, with_contract
from ccskit.composition import (
    CostModel,
    compose_controllers,
    compose_mccs,
    compose_plants,
    cost,
    non_interference_controllers,
    non_interference_ctrl_plant,
)
from ccskit.errors import (
    InterferenceError,
    NonFreshTimestamp,
    ReactivityExceedsControllability,
    UnmappedController,
)

rng_pool = random.Random(20240814)


def _controllers(n=2):
    return [randgen.rand_controller(rng_pool, i) for i in range(n)]


def test_cost_shared_resource_adds():
    a, b = _controllers()
    a = a.replace(reactivity=Fraction(1, 20))
    b = b.replace(reactivity=Fraction(1, 50))
    assert cost(CostModel.uniform(), [a, b]) == Fraction(7, 100)


def test_cost_independent_resources_take_max():
    a, b = _controllers()
    a = a.replace(reactivity=Fraction(1, 20))
    b = b.replace(reactivity=Fraction(1, 50))
    cm = CostModel(mapping={a.name: "ecu0", b.name: "ecu1"})
    assert cost(cm, [a, b]) == Fraction(1, 20)


def test_cost_single_controller_is_its_reactivity():
    (a,) = _controllers(1)
    assert cost(CostModel.uniform(), [a]) == a.reactivity


def test_cost_requires_every_controller_mapped():
    a, b = _controllers()
    with pytest.raises(UnmappedController):
        cost(CostModel(mapping={a.name: "cpu"}), [a, b])


def test_cost_is_exact_rational_arithmetic():
    a, b = _controllers()
    a = a.replace(reactivity=Fraction(1, 10))
    b = b.replace(reactivity=Fraction(1, 5))
    total = cost(CostModel.uniform(), [a, b])
    assert total == Fraction(3, 10)
    assert isinstance(total, Fraction)


def test_compose_controllers_reemits_every_choice_at_joint_bound():
    a, b = _controllers()
    joint = compose_controllers(a, b, CostModel.uniform())
    assert joint.reactivity == a.reactivity + b.reactivity
    assert [rc.name for rc in joint.choices] == [a.name, b.name]
    for rc in joint.choices:
        text = print_program_inline(rc.to_program(joint.reactivity))
        assert f"t <= {rc.timestamp} + " in text


def test_compose_controllers_rejects_shared_writes():
    a, _ = _controllers()
    clash = randgen.rand_controller(rng_pool, 0)  # same slice, same outputs
    clash = clash.replace(name="c0b", timestamp="tau_9")
    with pytest.raises(InterferenceError) as e:
        compose_controllers(a, clash, CostModel.uniform())
    assert "y0a" in str(e.value)


def test_compose_controllers_rejects_shared_timestamps():
    a, b = _controllers()
    b = b.replace(timestamp=a.timestamp)
    # the shared stamp is itself a shared write, so the interference gate
    # catches it; the dedicated freshness check is the backstop
    with pytest.raises((InterferenceError, NonFreshTimestamp)) as e:
        compose_controllers(a, b, CostModel.uniform())
    assert a.timestamp in str(e.value)


def test_compose_plants_takes_min_bound_and_conjoins():
    pa = randgen.rand_plant(rng_pool, 0)
    pb = randgen.rand_plant(rng_pool, 1)
    joint = compose_plants(pa, pb)
    assert joint.controllability == min(pa.controllability, pb.controllability)
    assert joint.equations == pa.equations + pb.equations
    assert joint.evolved == pa.evolved | pb.evolved


def test_compose_plants_self_composition_keeps_bound():
    pa = randgen.rand_plant(rng_pool, 0)
    pb = randgen.rand_plant(rng_pool, 1)
    pb = pb.replace(controllability=pa.controllability)
    assert compose_plants(pa, pb).controllability == pa.controllability


def test_compose_plants_rejects_coupled_dynamics():
    from ccskit.ast import Compare, num, var

    pa = randgen.rand_plant(rng_pool, 0)
    pa = pa.replace(equations=(("x0", var("x1")),))
    pb = randgen.rand_plant(rng_pool, 1)
    pb = pb.replace(equations=(("x1", var("x0")),))
    with pytest.raises(InterferenceError):
        compose_plants(pa, pb)


def test_non_interference_reports_name_offenders():
    a, _ = _controllers()
    clash = randgen.rand_controller(rng_pool, 0)
    clash = clash.replace(name="cx", timestamp="tau_8")
    report = non_interference_controllers(a, clash)
    assert not report.ok
    offending = set().union(*(v.variables for v in report.violations))
    assert "y0a" in offending


def test_guarantee_reading_other_side_output_is_flagged():
    from ccskit.ast import Compare, num, var

    a, b = _controllers()
    nosy = with_contract(b, Contract(guarantee=Compare("<=", var("y0a"), num(1))))
    report = non_interference_controllers(a, nosy)
    assert not report.ok


def test_ctrl_plant_gate_passes_on_corpus(watertank):
    report = non_interference_ctrl_plant(watertank.controller, watertank.plant)
    assert report.ok


def test_compose_mccs_checks_schedulability():
    """Each loop schedulable alone (0.3 <= 0.5) but not together (0.6 > 0.5)."""
    from ccskit.components import make_ccs

    cm = CostModel.uniform()
    systems = []
    for slot in (0, 1):
        base = randgen.rand_mccs(rng_pool, slot)
        rc = base.controller.choices[0].replace(reactivity=Fraction(3, 10))
        plant = base.plant.replace(controllability=Fraction(1, 2))
        systems.append(make_ccs(rc, plant, name=f"s{slot}"))
    with pytest.raises(ReactivityExceedsControllability):
        compose_mccs(systems[0], systems[1], cm)


# --- the algebra, property-tested ------------------------------------------

_seeds = st.integers(0, 2**32 - 1)


def _norm(component) -> tuple:
    prog = normalize_ac(component.to_program())
    bound = getattr(component, "reactivity", None) or getattr(
        component, "controllability"
    )
    return prog, bound


@given(_seeds)
@settings(max_examples=120, deadline=None)
def test_controller_composition_is_commutative(seed):
    r = random.Random(seed)
    a, b = randgen.rand_controller(r, 0), randgen.rand_controller(r, 1)
    cm = CostModel.uniform()
    assert _norm(compose_controllers(a, b, cm)) == _norm(compose_controllers(b, a, cm))


@given(_seeds)
@settings(max_examples=120, deadline=None)
def test_controller_composition_is_associative(seed):
    r = random.Random(seed)
    a, b, c = (randgen.rand_controller(r, i) for i in range(3))
    cm = CostModel.uniform()
    left = compose_controllers(compose_controllers(a, b, cm), c, cm)
    right = compose_controllers(a, compose_controllers(b, c, cm), cm)
    assert _norm(left) == _norm(right)


@given(_seeds)
@settings(max_examples=120, deadline=None)
def test_plant_composition_is_commutative_and_associative(seed):
    r = random.Random(seed)
    a, b, c = (randgen.rand_plant(r, i) for i in range(3))
    assert _norm(compose_plants(a, b)) == _norm(compose_plants(b, a))
    left = compose_plants(compose_plants(a, b), c)
    right = compose_plants(a, compose_plants(b, c))
    assert _norm(left) == _norm(right)


@given(_seeds)
@settings(max_examples=60, deadline=None)
def test_system_composition_is_commutative(seed):
    r = random.Random(seed)
    a, b = randgen.rand_mccs(r, 0), randgen.rand_mccs(r, 1)
    cm = CostModel.uniform()
    ab, ba = compose_mccs(a, b, cm), compose_mccs(b, a, cm)
    assert normalize_ac(ab.to_program()) == normalize_ac(ba.to_program())
    assert ab.controller.reactivity == ba.controller.reactivity
    assert ab.plant.controllability == ba.plant.controllability


def test_two_tank_corpus_costs(two_tanks):
    assert two_tanks.controller.reactivity == Fraction(7, 100)
    assert two_tanks.plant.controllability == Fraction(3, 20)
