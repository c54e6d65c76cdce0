"""Component model: timed controllers, controllable plants and their

closed-loop combination.

A reactive controller is a discrete program that is re-run at most
`reactivity` seconds after its last completed run (its timestamp records
that completion on the global clock `t`). A controllable plant is an ODE
that is guaranteed to yield to control at the latest `controllability`
seconds after the last control action. The closed loop replaces the
plant's absolute time bound by per-controller guards `t <= tau_i + delta`
so that the plant can never outrun any controller.

Contracts (assume / guarantee / init) ride along on the components; the
composition gates and proof-obligation generators consume them.
"""

from __future__ import annotations

from fractions import Fraction

from . import ast
from .ast import (
    BOXED,
    TRUE,
    And,
    Assign,
    Box,
    Compare,
    Formula,
    Implies,
    Loop,
    ODE,
    Program,
    Rational,
    Record,
    Term,
    Test,
    TrueF,
    Variable,
    choice,
    conj,
    conjuncts,
    fraction_to_text,
    modality,
    seq,
    seq_statements,
    walk,
)
from .errors import (
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
from .statics import all_vars, bound_vars, free_vars

CLOCK = "t"
TIMESTAMP_PREFIX = "tau_"


class Contract(Record):
    """Assume/guarantee pair plus the initial-state predicate.

    All three are modality-free state predicates; a Box anywhere in them
    is rejected because every downstream consumer (monitors, bounded
    checking, obligation goals) treats them as evaluable at a state.
    """

    __slots__ = ("assume", "guarantee", "init")
    _defaults = {"assume": TRUE, "guarantee": TRUE, "init": TRUE}

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        for label, f in zip(self._fields, self._values()):
            if modality(f) == BOXED:
                raise InvalidContract(f"contract {label} clause contains a box modality")

    def free_vars(self) -> frozenset[str]:
        """The free variables of the three clauses together."""
        return free_vars(self.assume) | free_vars(self.guarantee) | free_vars(self.init)


def joint_contract(*contracts: Contract) -> Contract:
    """The contracts conjoined clause by clause."""
    clauses = zip(*(c._values() for c in contracts))
    return Contract(*(conj(*clause) for clause in clauses))


class Environment(Record):
    """Constraints on variables the system never writes (named constants,

    disturbance bounds, timing constants). Constancy against a concrete
    system is checked when the closed loop is assembled.
    """

    __slots__ = ("formula",)
    _defaults = {"formula": TRUE}

    def constants(self) -> dict[str, Fraction]:
        """Exact bindings from equality conjuncts of the form `name = q`."""
        out: dict[str, Fraction] = {}
        for c in conjuncts(self.formula):
            if isinstance(c, Compare) and c.op == "=":
                if isinstance(c.left, Variable) and isinstance(c.right, Rational):
                    out[c.left.name] = c.right.value
                elif isinstance(c.right, Variable) and isinstance(c.left, Rational):
                    out[c.right.name] = c.left.value
        return out


EMPTY_ENVIRONMENT = Environment()


# ---------------------------------------------------------------------------
# Reactive controller


class ReactiveController(Record):
    """Discrete control program re-run at least every `reactivity` seconds.

    `ctrl` is the bare behaviour; `to_program()` wraps it with the
    timing guard and the timestamp update:

        ?(t <= tau + delta); ctrl; tau := t
    """

    __slots__ = ("name", "ctrl", "reactivity", "timestamp", "contract", "bound_name")
    _defaults = {"contract": None, "bound_name": ""}

    def guard(self, bound: Fraction | None = None) -> Formula:
        delta = self.reactivity if bound is None else bound
        return Compare(
            "<=", Variable(CLOCK), ast.Plus(Variable(self.timestamp), Rational(delta))
        )

    def to_program(self, bound: Fraction | None = None) -> Program:
        """Guarded, timestamped run. `bound` overrides the guard's

        reactivity value (composition re-emits choices at the combined
        scheduling cost).
        """
        return seq(
            Test(self.guard(bound)),
            *seq_statements(self.ctrl),
            Assign(self.timestamp, Variable(CLOCK)),
        )

    def require_contract(self) -> Contract:
        if self.contract is None:
            raise MissingContract(self.name)
        return self.contract


def make_reactive_controller(
    name: str,
    ctrl: Program,
    reactivity: Fraction,
    timestamp: str,
    contract: Contract | None = None,
) -> ReactiveController:
    if reactivity <= 0:
        raise NonPositiveBound(f"reactivity of {name!r} must be > 0, got {reactivity}")
    for sub in walk(ctrl):
        if isinstance(sub, ODE):
            raise NotDiscrete(f"controller {name!r} contains continuous dynamics")
    if timestamp in all_vars(ctrl):
        raise NonFreshTimestamp(
            f"timestamp {timestamp!r} already occurs in the behaviour of {name!r}"
        )
    writes = bound_vars(ctrl)
    if CLOCK in writes:
        raise ClockRedefined(f"controller {name!r} writes the global clock")
    for w in writes:
        if w.startswith(TIMESTAMP_PREFIX):
            raise ReservedName(f"controller {name!r} writes reserved name {w!r}")
    return ReactiveController(
        name=name,
        ctrl=ctrl,
        reactivity=Fraction(reactivity),
        timestamp=timestamp,
        contract=contract,
        bound_name=f"delta_{name}",
    )


# ---------------------------------------------------------------------------
# Multi-choice controller (a family of reactive controllers scheduled as
# one nondeterministic union, all guarded by the same overall bound)


class MultiChoiceController(Record):
    __slots__ = ("name", "choices", "reactivity", "_contract")

    def to_program(self) -> Program:
        return choice(*(rc.to_program(self.reactivity) for rc in self.choices))

    @property
    def contract(self) -> Contract:
        """The choices' joint contract, kept on the record once built."""
        return self._kept(
            "_contract", lambda: joint_contract(*(rc.require_contract() for rc in self.choices))
        )

    @property
    def timestamps(self) -> tuple[str, ...]:
        return tuple(rc.timestamp for rc in self.choices)


def as_multi_controller(
    c: ReactiveController | MultiChoiceController,
) -> MultiChoiceController:
    if isinstance(c, MultiChoiceController):
        return c
    return MultiChoiceController(name=c.name, choices=(c,), reactivity=c.reactivity)


# ---------------------------------------------------------------------------
# Controllable plant


class ControllablePlant(Record):
    """ODE that yields to control within `controllability` seconds.

    `equations` / `domain` are the user dynamics; the shared clock
    equation t' = 1 and the time bounds are injected by `to_program`.
    """

    __slots__ = (
        "name", "equations", "domain", "controllability", "contract", "bound_name"
    )
    _defaults = {"contract": None, "bound_name": ""}

    @property
    def evolved(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.equations)

    def rhs_free_vars(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for _, rhs in self.equations:
            out |= free_vars(rhs)
        return out

    def ode(self, extra_domain: tuple[Formula, ...] = ()) -> ODE:
        """The full ODE node: user equations + t' = 1, domain

        t >= 0 & H & <extra>. Callers supply the time bound conjuncts.
        """
        eqs = self.equations + ((CLOCK, Rational(Fraction(1))),)
        t_nonneg = Compare(">=", Variable(CLOCK), Rational(Fraction(0)))
        parts = [t_nonneg, *conjuncts(self.domain), *extra_domain]
        parts = [p for p in parts if not isinstance(p, TrueF)]
        return ODE(eqs, conj(*parts))

    def to_program(self, bound: Fraction | None = None) -> Program:
        """Component form `{x' = e, t' = 1 & t >= 0 & H & t <= bound}`;

        the bound defaults to the plant's controllability.
        """
        b = self.controllability if bound is None else bound
        t_cap = Compare("<=", Variable(CLOCK), Rational(b))
        return self.ode(extra_domain=(t_cap,))

    def require_contract(self) -> Contract:
        if self.contract is None:
            raise MissingContract(self.name)
        return self.contract


def make_controllable_plant(
    name: str,
    equations: tuple[tuple[str, Term], ...],
    domain: Formula,
    controllability: Fraction,
    contract: Contract | None = None,
) -> ControllablePlant:
    if controllability <= 0:
        raise NonPositiveBound(
            f"controllability of {name!r} must be > 0, got {controllability}"
        )
    if not equations:
        raise ValueError(f"plant {name!r} has no equations")
    evolved = [v for v, _ in equations]
    if len(set(evolved)) != len(evolved):
        raise ValueError(f"plant {name!r} evolves a variable twice")
    if CLOCK in evolved:
        raise ClockRedefined(f"plant {name!r} declares its own clock equation")
    for _, rhs in equations:
        if CLOCK in free_vars(rhs):
            raise ClockRedefined(f"plant {name!r} dynamics read the global clock")
    touched = set(evolved)
    for _, rhs in equations:
        touched |= free_vars(rhs)
    touched |= free_vars(domain)
    for v in touched:
        if v.startswith(TIMESTAMP_PREFIX):
            raise ReservedName(f"plant {name!r} mentions reserved name {v!r}")
    return ControllablePlant(
        name=name,
        equations=tuple(equations),
        domain=domain,
        controllability=Fraction(controllability),
        contract=contract,
        bound_name=f"Delta_{name}",
    )


# ---------------------------------------------------------------------------
# Closed loop


class MCCS(Record):
    """Closed loop of a controller family and a plant:

        ( {plant & t >= 0 & H & /\\_i t <= tau_i + delta}  U  ctrl_1  U ... )*

    carrying the environment and the cross-component invariant used by
    monitoring and obligation generation.
    """

    __slots__ = ("name", "controller", "plant", "env", "invariant")
    _defaults = {"env": EMPTY_ENVIRONMENT, "invariant": TRUE}

    def guarded_ode(self) -> ODE:
        guards = tuple(
            rc.guard(self.controller.reactivity) for rc in self.controller.choices
        )
        ode = self.plant.ode(extra_domain=guards)
        assert isinstance(ode, ODE)
        return ode

    def to_program(self) -> Program:
        alts = [self.guarded_ode()]
        alts.extend(
            rc.to_program(self.controller.reactivity)
            for rc in self.controller.choices
        )
        return Loop(choice(*alts))


def make_ccs(
    controller: ReactiveController | MultiChoiceController,
    plant: ControllablePlant,
    env: Environment = EMPTY_ENVIRONMENT,
    invariant: Formula = TRUE,
    name: str | None = None,
) -> MCCS:
    """Assemble the closed loop, running every construction gate:

    timestamp freshness, controller/plant non-interference, environment
    constancy, and the scheduling bound `reactivity <= controllability`.
    """
    ctrl = as_multi_controller(controller)

    stamps = ctrl.timestamps
    for i, stamp in enumerate(stamps):
        if stamp in stamps[:i]:
            raise NonFreshTimestamp(f"timestamp {stamp!r} used by two controllers")
    # Where a timestamp may not occur, in the order they are checked; a
    # controller's own contract (the owner) may read its own timestamp.
    plant_vars = plant.evolved | plant.rhs_free_vars() | free_vars(plant.domain)
    places = [(None, f"plant {plant.name!r}", plant_vars)]
    places += [
        (rc, f"the contract of {rc.name!r}", rc.contract.free_vars())
        for rc in ctrl.choices
        if rc.contract is not None
    ]
    if plant.contract is not None:
        pc_vars = plant.contract.free_vars()
        places.append((None, f"the contract of plant {plant.name!r}", pc_vars))
    for rc in ctrl.choices:
        for owner, place, names in places:
            if owner is not rc and rc.timestamp in names:
                raise NonFreshTimestamp(f"timestamp {rc.timestamp!r} occurs in {place}")

    if ctrl.reactivity > plant.controllability:
        raise ReactivityExceedsControllability(
            fraction_to_text(ctrl.reactivity),
            fraction_to_text(plant.controllability),
        )

    # Variable-level separation between control and dynamics (gate).
    from .composition import non_interference_ctrl_plant, raise_on_violations

    raise_on_violations(non_interference_ctrl_plant(ctrl, plant))

    system = MCCS(
        name=name or f"{ctrl.name}__{plant.name}",
        controller=ctrl,
        plant=plant,
        env=env,
        invariant=invariant,
    )

    # bound_vars(system.to_program()): a choice's guard binds nothing.
    written = bound_vars(system.guarded_ode()).union(
        *(bound_vars(rc.ctrl) | {rc.timestamp} for rc in ctrl.choices)
    )
    clash = free_vars(env.formula) & written
    if clash:
        raise EnvironmentNotConstant(clash)
    return system


Component = ReactiveController | MultiChoiceController | ControllablePlant | MCCS


def contract_validity_goal(
    c: Component, env: Environment | None = None
) -> Formula:
    """The top-level correctness statement for one component or system:

        Env & A & Init  ->  [ (component)* ] G

    For a closed-loop system the component contracts are conjoined and
    the loop is the system program itself.
    """
    if isinstance(c, MCCS):
        environment = env if env is not None else c.env
        cc = c.controller.contract
        pc = c.plant.require_contract()
        ante = conj(
            environment.formula, cc.assume, cc.init, pc.assume, pc.init
        )
        return Implies(ante, Box(c.to_program(), And(cc.guarantee, pc.guarantee)))
    environment = env if env is not None else EMPTY_ENVIRONMENT
    if isinstance(c, (ReactiveController, ControllablePlant)):
        contract = c.require_contract()
        program = c.to_program()
    elif isinstance(c, MultiChoiceController):
        contract = c.contract
        program = c.to_program()
    else:
        raise TypeError(f"not a component: {c!r}")
    ante = conj(environment.formula, contract.assume, contract.init)
    return Implies(ante, Box(Loop(program), contract.guarantee))


def with_contract(component, contract: Contract):
    """Functional update helper (components are frozen)."""
    return component.replace(contract=contract)
