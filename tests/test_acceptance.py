"""Acceptance gate: one test per shipped criterion.

Each test here states a externally visible promise of the package and
pins its tolerance. `pytest -v tests/test_acceptance.py` prints one
pass/fail line per criterion. Component-level behavior is covered in
the sibling files; these tests only assert the end-to-end contract.
"""

import json
import random
import time
from fractions import Fraction

import pytest

import randgen
from ccskit import dsl
from ccskit.ast import (
    TRUE,
    Compare,
    ODE,
    choice,
    normalize_ac,
    num,
    seq,
    var,
)
from ccskit.ast import Assign
from ccskit.components import Contract, make_ccs, with_contract
from ccskit.composition import (
    CostModel,
    compose_controllers,
    compose_mccs,
    compose_plants,
    cost,
)
from ccskit.errors import ReactivityExceedsControllability
from ccskit.obligations import check_bounded, obligations_ccs
from ccskit.simulator import (
    Schedule,
    batch_schedule_seed,
    run,
    run_batch,
    sample_init,
)
from ccskit.statics import bound_vars, free_vars

INIT_BOX = {"wl": [3.6, 6.4], "wlm": "=wl", "fin": 1, "t": 0, "tau_1": 0}
DOMAIN_BOX = {
    "wl": [3, 7],
    "wlm": "=wl",
    "fin": [0, 1],
    "fout": 0.75,
    "t": 0,
    "tau_1": 0,
}


def test_criterion_1_variable_analysis_golden_vector():
    # (v := a  U  v := 2); {x' = v & x <= 5}
    program = seq(
        choice(Assign("v", var("a")), Assign("v", num(2))),
        ODE((("x", var("v")),), Compare("<=", var("x"), num(5))),
    )
    assert free_vars(program) == frozenset({"a", "x"})
    assert bound_vars(program) == frozenset({"v", "x"})
    best = min(
        _timed(lambda: (free_vars(program), bound_vars(program))) for _ in range(200)
    )
    assert best < 1e-3, f"analysis took {best*1e3:.3f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_composition_laws_hold_on_1000_random_instances():
    rng = random.Random(20260814)
    cm = CostModel.uniform()
    t0 = time.perf_counter()
    for _ in range(1000):
        a, b, c = (randgen.rand_controller(rng, s) for s in (0, 1, 2))
        ab, ba = compose_controllers(a, b, cm), compose_controllers(b, a, cm)
        assert normalize_ac(ab.to_program()) == normalize_ac(ba.to_program())
        assert ab.reactivity == ba.reactivity
        left = compose_controllers(compose_controllers(a, b, cm), c, cm)
        right = compose_controllers(a, compose_controllers(b, c, cm), cm)
        assert normalize_ac(left.to_program()) == normalize_ac(right.to_program())
        assert left.reactivity == right.reactivity

        p, q, r = (randgen.rand_plant(rng, s) for s in (0, 1, 2))
        pq, qp = compose_plants(p, q), compose_plants(q, p)
        assert normalize_ac(pq.to_program()) == normalize_ac(qp.to_program())
        assert pq.controllability == qp.controllability
        left = compose_plants(compose_plants(p, q), r)
        right = compose_plants(p, compose_plants(q, r))
        assert normalize_ac(left.to_program()) == normalize_ac(right.to_program())
        assert left.controllability == right.controllability

        m1, m2, m3 = (randgen.rand_mccs(rng, s) for s in (0, 1, 2))
        u, v = compose_mccs(m1, m2, cm), compose_mccs(m2, m1, cm)
        assert normalize_ac(u.to_program()) == normalize_ac(v.to_program())
        left = compose_mccs(compose_mccs(m1, m2, cm), m3, cm)
        right = compose_mccs(m1, compose_mccs(m2, m3, cm), cm)
        assert normalize_ac(left.to_program()) == normalize_ac(right.to_program())
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"law suite took {elapsed:.1f} s"


def test_criterion_3_scheduling_cost_is_exact_rational():
    a = randgen.rand_controller(random.Random(0), 0)
    b = randgen.rand_controller(random.Random(1), 1)
    a = _with_reactivity(a, Fraction(1, 20))
    b = _with_reactivity(b, Fraction(1, 50))
    assert cost(CostModel.uniform(), [a, b]) == Fraction(7, 100)
    split = CostModel(mapping={a.name: "cpu0", b.name: "cpu1"})
    assert cost(split, [a, b]) == Fraction(1, 20)


def _with_reactivity(ctrl, delta):
    return ctrl.replace(reactivity=delta)


def test_criterion_4_schedulability_gate(two_tanks, corpus_dir):
    assert two_tanks.controller.reactivity == Fraction(7, 100)
    assert two_tanks.plant.controllability == min(Fraction(1, 5), Fraction(3, 20))
    assert two_tanks.controller.reactivity <= two_tanks.plant.controllability
    with pytest.raises(ReactivityExceedsControllability):
        dsl.load_file(corpus_dir / "two_tanks_slow.ccs")


def test_criterion_5_obligation_census_and_golden_file(watertank, golden_dir):
    obs = obligations_ccs(watertank)
    core = [ob for ob in obs if ob.id.split(".")[1] in ("base", "use", "step")]
    assert len(core) == 10
    assert [ob.id for ob in core] == [
        "thm1.base",
        "thm1.use",
        *(f"thm1.step.{i}" for i in range(1, 9)),
    ]
    extras = {ob.hint for ob in obs if ob not in core}
    assert extras <= {"composition-invariant", "compatibility"}
    frozen = json.loads((golden_dir / "watertank_obligations.json").read_text())
    assert [ob.to_json() for ob in obs] == frozen


def test_criterion_6_simulation_safety_500_schedules(watertank, corpus_dir):
    t0 = time.perf_counter()
    summary = run_batch(watertank, 500, 20260814, INIT_BOX, horizon=20.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"batch took {elapsed:.1f} s"
    assert summary.runs == 500
    assert summary.runs_with_violations == 0
    assert summary.stuck_runs == 0
    assert all(count == 0 for count in summary.violations.values())
    assert summary.max_invariant_residual <= 1e-9

    # Reproduce a few members of the batch and recheck every sample
    # against the closed-form level, independent of the monitors.
    for index in (0, 123, 499):
        run_seed = batch_schedule_seed(20260814, index)
        init = sample_init(INIT_BOX, random.Random(run_seed ^ 0x5EED))
        trace = run(watertank, Schedule(seed=run_seed, horizon=20.0), init)
        for p in trace.points:
            v = p.values
            assert 3.0 <= v["wl"] <= 7.0
            line = (v["fin"] - v["fout"]) * (v["t"] - v["tau_1"]) + v["wlm"]
            assert abs(v["wl"] - line) <= 1e-9

    late = dsl.load_file(corpus_dir / "watertank_late_ctrl.ccs")
    mutated = run_batch(late, 10, 20260814, INIT_BOX, horizon=20.0)
    assert mutated.violations["G[tank]"] >= 1


def test_criterion_7_bounded_checker_sanity(watertank, corpus_dir):
    ctrl = with_contract(watertank.controller.choices[0], Contract())
    plant = with_contract(watertank.plant, Contract())
    vacuous = make_ccs(ctrl, plant, env=watertank.env, invariant=TRUE, name="vacuous")
    for ob in obligations_ccs(vacuous):
        res = check_bounded(ob, DOMAIN_BOX, grid=3, flow_samples=8)
        assert res.status == "holds", ob.id

    tight = dsl.load_file(corpus_dir / "watertank_tight.ccs")
    base = obligations_ccs(tight)[0]
    res = check_bounded(base, DOMAIN_BOX, grid=5, flow_samples=8)
    assert res.status == "counterexample"
    assert 6.0 < res.counterexample["wl"] <= 7.0


def test_criterion_8_parse_print_round_trip(corpus_dir):
    models = sorted(corpus_dir.glob("*.ccs"))
    assert len(models) >= 6
    for path in models:
        first = dsl.parse(path.read_text())
        assert dsl.parse(dsl.serialize_model(first)) == first, path.name
