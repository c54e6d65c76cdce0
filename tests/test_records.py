"""The plain records outside the AST: components, gates, declarations,
obligations and simulation results.

Each record is built by position and by keyword; its `repr`, equality,
hashing and pickling are pinned, and every record must refuse assignment.
"""

import pickle
from fractions import Fraction

import pytest

from ccskit.ast import TRUE, Assign, Compare, Rational, Variable
from ccskit.components import (
    MCCS,
    Contract,
    ControllablePlant,
    Environment,
    MultiChoiceController,
    ReactiveController,
)
from ccskit.composition import CostModel, NonInterferenceReport, Violation
from ccskit.dsl import (
    ConstDecl,
    ContractDecl,
    ControllerDecl,
    InvariantDecl,
    ModelSource,
    PlantDecl,
    SystemDecl,
    Token,
)
from ccskit.obligations import BoundedCheckResult, ProofObligation
from ccskit.simulator import (
    BatchSummary,
    MonitorViolation,
    Schedule,
    Trace,
    TracePoint,
)

_x = Variable("x")
_one = Rational(1)
_f = Compare("<=", _x, _one)
_contract = Contract(_f, TRUE, _f)
_rc = ReactiveController("c", Assign("x", _one), Fraction(1, 10), "tau_1", _contract, "delta_c")
_mcc = MultiChoiceController("c", (_rc,), Fraction(1, 10))
_plant = ControllablePlant("p", (("x", _one),), _f, Fraction(1, 5), None, "Delta_p")
_point = TracePoint(0.5, "ode-step", {"t": 0.5, "x": 1.0})
_mv = MonitorViolation(0.5, "G[c]", "x <= 1", {"t": 0.5, "x": 2.0})
_trace = Trace([_point], [_mv], 1.5, False, 0.25)

# (class, fields in constructor order, one changed field, whether an
# instance hashes); every record here is built from these values.
CASES = [
    (Contract, {"assume": _f, "guarantee": TRUE, "init": _f}, ("guarantee", _f), True),
    (Environment, {"formula": _f}, ("formula", TRUE), True),
    (
        ReactiveController,
        {
            "name": "c",
            "ctrl": Assign("x", _one),
            "reactivity": Fraction(1, 10),
            "timestamp": "tau_1",
            "contract": _contract,
            "bound_name": "delta_c",
        },
        ("reactivity", Fraction(1, 20)),
        True,
    ),
    (
        MultiChoiceController,
        {"name": "c", "choices": (_rc,), "reactivity": Fraction(1, 10)},
        ("name", "d"),
        True,
    ),
    (
        ControllablePlant,
        {
            "name": "p",
            "equations": (("x", _one),),
            "domain": _f,
            "controllability": Fraction(1, 5),
            "contract": None,
            "bound_name": "Delta_p",
        },
        ("contract", _contract),
        True,
    ),
    (
        MCCS,
        {
            "name": "s",
            "controller": _mcc,
            "plant": _plant,
            "env": Environment(_f),
            "invariant": _f,
        },
        ("invariant", TRUE),
        True,
    ),
    (CostModel, {"mapping": {"c": "cpu0"}, "default": "cpu"}, ("default", None), False),
    (
        Violation,
        {
            "gate": "ctrl-plant",
            "severity": "error",
            "description": "writes",
            "variables": frozenset({"x"}),
        },
        ("severity", "warning"),
        True,
    ),
    (
        NonInterferenceReport,
        {
            "gate": "ctrl-ctrl",
            "violations": (Violation("ctrl-ctrl", "error", "w", frozenset({"x"})),),
            "warnings": (),
        },
        ("violations", ()),
        True,
    ),
    (Token, {"kind": "name", "text": "x", "line": 3, "col": 7}, ("col", 8), True),
    (ConstDecl, {"name": "k", "value": Fraction(1, 2)}, ("value", Fraction(1, 3)), True),
    (
        ControllerDecl,
        {"name": "c", "reactivity": Fraction(1, 10), "body": Assign("x", _one)},
        ("name", "d"),
        True,
    ),
    (
        PlantDecl,
        {
            "name": "p",
            "controllability": Fraction(1, 5),
            "equations": (("x", _one),),
            "domain": _f,
        },
        ("domain", TRUE),
        True,
    ),
    (ContractDecl, {"component": "c", "contract": _contract}, ("component", "p"), True),
    (InvariantDecl, {"name": "J", "formula": _f}, ("name", "K"), True),
    (
        SystemDecl,
        {"name": "s", "controllers": ("c",), "plants": ("p",)},
        ("plants", ()),
        True,
    ),
    (
        ModelSource,
        {
            "consts": (ConstDecl("k", Fraction(1, 2)),),
            "controllers": (),
            "plants": (),
            "contracts": (),
            "invariants": (InvariantDecl("J", _f),),
            "systems": (SystemDecl("s", ("c",), ("p",)),),
        },
        ("consts", ()),
        True,
    ),
    (
        ProofObligation,
        {
            "id": "ccs_base",
            "theorem": "ccs",
            "case": "base",
            "hint": "compatibility",
            "goal": _f,
            "status": "open",
            "notes": ("n",),
        },
        ("status", "failed"),
        True,
    ),
    (
        BoundedCheckResult,
        {
            "status": "holds",
            "checked": 4,
            "total": 4,
            "counterexample": None,
            "initial": None,
            "caveat": "bounded",
        },
        ("checked", 3),
        True,
    ),
    (
        Schedule,
        {"strategy": "round-robin", "seed": 7, "horizon": 2.5},
        ("seed", 8),
        True,
    ),
    (
        TracePoint,
        {"time": 0.5, "event": "ode-step", "values": {"t": 0.5, "x": 1.0}},
        ("event", "loop-boundary"),
        False,
    ),
    (
        MonitorViolation,
        {"time": 0.5, "monitor": "G[c]", "formula_text": "x <= 1", "values": {"x": 2.0}},
        ("monitor", "invariant"),
        False,
    ),
    (
        Trace,
        {
            "points": [_point],
            "violations": [_mv],
            "end_time": 1.5,
            "truncated": False,
            "max_invariant_residual": 0.25,
        },
        ("truncated", True),
        False,
    ),
    (
        BatchSummary,
        {
            "runs": 2,
            "strategy": "round-robin",
            "seed": 3,
            "horizon": 1.0,
            "violations": {"G[c]": 1},
            "runs_with_violations": 1,
            "variable_ranges": {"x": (0.0, 1.0)},
            "max_invariant_residual": 0.0,
            "total_points": 10,
            "stuck_runs": 0,
            "first_trace": _trace,
        },
        ("stuck_runs", 1),
        False,
    ),
]

_F_REPR = (
    "Compare(op='<=', left=Variable(name='x'), right=Rational(value=Fraction(1, 1)))"
)
_CONTRACT_REPR = f"Contract(assume={_F_REPR}, guarantee=TrueF(), init={_F_REPR})"
_RC_REPR = (
    "ReactiveController(name='c', ctrl=Assign(var='x', rhs=Rational(value=Fraction(1, 1))), "
    f"reactivity=Fraction(1, 10), timestamp='tau_1', contract={_CONTRACT_REPR}, "
    "bound_name='delta_c')"
)
_PLANT_REPR = (
    "ControllablePlant(name='p', equations=(('x', Rational(value=Fraction(1, 1))),), "
    f"domain={_F_REPR}, controllability=Fraction(1, 5), contract=None, "
    "bound_name='Delta_p')"
)
_POINT_REPR = "TracePoint(time=0.5, event='ode-step', values={'t': 0.5, 'x': 1.0})"

REPRS = {
    Contract: _CONTRACT_REPR,
    Environment: f"Environment(formula={_F_REPR})",
    ReactiveController: _RC_REPR,
    MultiChoiceController: (
        f"MultiChoiceController(name='c', choices=({_RC_REPR},), "
        "reactivity=Fraction(1, 10))"
    ),
    ControllablePlant: _PLANT_REPR,
    MCCS: (
        f"MCCS(name='s', controller=MultiChoiceController(name='c', choices=({_RC_REPR},), "
        f"reactivity=Fraction(1, 10)), plant={_PLANT_REPR}, "
        f"env=Environment(formula={_F_REPR}), invariant={_F_REPR})"
    ),
    CostModel: "CostModel(mapping={'c': 'cpu0'}, default='cpu')",
    Violation: (
        "Violation(gate='ctrl-plant', severity='error', description='writes', "
        "variables=frozenset({'x'}))"
    ),
    NonInterferenceReport: (
        "NonInterferenceReport(gate='ctrl-ctrl', violations=(Violation(gate='ctrl-ctrl', "
        "severity='error', description='w', variables=frozenset({'x'})),), warnings=())"
    ),
    Token: "Token(kind='name', text='x', line=3, col=7)",
    ConstDecl: "ConstDecl(name='k', value=Fraction(1, 2))",
    ControllerDecl: (
        "ControllerDecl(name='c', reactivity=Fraction(1, 10), "
        "body=Assign(var='x', rhs=Rational(value=Fraction(1, 1))))"
    ),
    PlantDecl: (
        "PlantDecl(name='p', controllability=Fraction(1, 5), "
        f"equations=(('x', Rational(value=Fraction(1, 1))),), domain={_F_REPR})"
    ),
    ContractDecl: f"ContractDecl(component='c', contract={_CONTRACT_REPR})",
    InvariantDecl: f"InvariantDecl(name='J', formula={_F_REPR})",
    SystemDecl: "SystemDecl(name='s', controllers=('c',), plants=('p',))",
    ModelSource: (
        "ModelSource(consts=(ConstDecl(name='k', value=Fraction(1, 2)),), controllers=(), "
        f"plants=(), contracts=(), invariants=(InvariantDecl(name='J', formula={_F_REPR}),), "
        "systems=(SystemDecl(name='s', controllers=('c',), plants=('p',)),))"
    ),
    ProofObligation: (
        "ProofObligation(id='ccs_base', theorem='ccs', case='base', hint='compatibility', "
        f"goal={_F_REPR}, status='open', notes=('n',))"
    ),
    BoundedCheckResult: (
        "BoundedCheckResult(status='holds', checked=4, total=4, counterexample=None, "
        "initial=None, caveat='bounded')"
    ),
    Schedule: "Schedule(strategy='round-robin', seed=7, horizon=2.5)",
    TracePoint: _POINT_REPR,
    MonitorViolation: (
        "MonitorViolation(time=0.5, monitor='G[c]', formula_text='x <= 1', "
        "values={'x': 2.0})"
    ),
    Trace: (
        f"Trace(points=[{_POINT_REPR}], violations=[MonitorViolation(time=0.5, "
        "monitor='G[c]', formula_text='x <= 1', values={'t': 0.5, 'x': 2.0})], "
        "end_time=1.5, truncated=False, max_invariant_residual=0.25)"
    ),
    # first_trace stays out of the repr (and out of equality).
    BatchSummary: (
        "BatchSummary(runs=2, strategy='round-robin', seed=3, horizon=1.0, "
        "violations={'G[c]': 1}, runs_with_violations=1, "
        "variable_ranges={'x': (0.0, 1.0)}, max_invariant_residual=0.0, "
        "total_points=10, stuck_runs=0)"
    ),
}

_ids = [cls.__name__ for cls, *_ in CASES]


def test_cases_cover_every_record_class():
    assert len({cls for cls, *_ in CASES}) == 24 == len(REPRS)


@pytest.mark.parametrize("cls, fields, change, hashable", CASES, ids=_ids)
def test_record_semantics_are_pinned(cls, fields, change, hashable):
    by_position = cls(*fields.values())
    by_name = cls(**fields)
    changed = cls(**{**fields, change[0]: change[1]})
    assert repr(by_position) == repr(by_name) == REPRS[cls]
    assert by_position == by_name
    assert not by_position != by_name
    assert by_position != changed
    assert [getattr(by_name, f) for f in fields] == list(fields.values())
    if hashable:
        assert hash(by_position) == hash(by_name) == hash(tuple(fields.values()))
    else:
        with pytest.raises(TypeError):
            hash(by_position)
    clone = pickle.loads(pickle.dumps(by_position))
    assert type(clone) is cls and clone == by_position
    assert repr(clone) == repr(by_position)
    assert [getattr(clone, f) for f in fields] == list(fields.values())


@pytest.mark.parametrize("cls, fields, change, hashable", CASES, ids=_ids)
def test_records_are_immutable(cls, fields, change, hashable):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, change[1])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == REPRS[cls]


def test_batch_summary_ignores_its_first_trace():
    fields = dict(CASES[-1][1])
    assert BatchSummary(**fields) == BatchSummary(**{**fields, "first_trace": None})


def test_omitted_trailing_fields_take_their_defaults():
    assert Contract() == Contract(TRUE, TRUE, TRUE)
    assert NonInterferenceReport("g") == NonInterferenceReport("g", (), ())
    assert ModelSource() == ModelSource((), (), (), (), (), ())
    assert Schedule() == Schedule("uniform-random", 0, 20.0)
    assert Schedule(seed=4).horizon == 20.0
    assert CostModel({}).default is None
    rc = ReactiveController("c", Assign("x", _one), Fraction(1, 10), "tau_1")
    assert (rc.contract, rc.bound_name) == (None, "")
    ob = ProofObligation("o", "ccs", "base", "compatibility", _f)
    assert (ob.status, ob.notes) == ("open", ())


def test_constructors_reject_bad_arguments():
    with pytest.raises(TypeError):
        Token("name", "x", 1)
    with pytest.raises(TypeError):
        Token("name", "x", 1, 2, 3)
    with pytest.raises(TypeError):
        Schedule(speed=2)
    with pytest.raises(TypeError):
        Schedule("round-robin", strategy="round-robin")
    with pytest.raises(ValueError, match="unknown strategy"):
        Schedule(strategy="eager")
    with pytest.raises(ValueError, match="unknown hint"):
        ProofObligation("o", "ccs", "base", "guess", _f)


def test_replace_changes_only_the_named_fields():
    ob = ProofObligation("o", "ccs", "base", "compatibility", _f, notes=("n",))
    assert ob.free_vars == frozenset({"x"})
    done = ob.replace(status="discharged")
    assert done == ProofObligation("o", "ccs", "base", "compatibility", _f, "discharged", ("n",))
    assert ob.status == "open"
    assert _rc.replace(reactivity=Fraction(1, 20)).reactivity == Fraction(1, 20)
    with pytest.raises(TypeError):
        ob.replace(speed=2)
    with pytest.raises(ValueError, match="unknown status"):
        ob.replace(status="maybe")


def test_obligation_free_vars_are_computed_once():
    ob = ProofObligation("o", "ccs", "base", "compatibility", _f)
    assert ob.free_vars is ob.free_vars == frozenset({"x"})
    clone = pickle.loads(pickle.dumps(ob))
    assert clone.free_vars == ob.free_vars
