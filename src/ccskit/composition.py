"""Timed parallel composition of controllers, plants and closed loops.

The scheduling cost function is the n-ary max-plus form: controllers
sharing a resource run sequentially (their reactivities add), controllers
on independent resources run concurrently (max). Computing it over the
flat multiset of atomic controllers grouped by resource makes the
operator associative and commutative by construction, which the property
suite pins down.

Every operator is gated: it either returns a well-formed composite or
raises a named error; nothing is silently repaired. Each
non-interference gate is a list of `(description, variables)` rows, one
per side condition; its report keeps, in row order, the rows whose
variables are not empty.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from .ast import Record, conj, conjuncts
from .components import (
    MCCS,
    ControllablePlant,
    Environment,
    MultiChoiceController,
    ReactiveController,
    as_multi_controller,
    joint_contract,
    make_ccs,
)
from .errors import InterferenceError, UnmappedController
from .statics import bound_vars, free_vars


# ---------------------------------------------------------------------------
# Scheduling cost


class CostModel(Record):
    """Maps controller names to the resource each one runs on.

    `default` (if set) is the resource for unmapped controllers; without
    it, looking up an unmapped name is an error.
    """

    __slots__ = ("mapping", "default")
    _defaults = {"default": None}

    def resource(self, name: str) -> str:
        if name in self.mapping:
            return self.mapping[name]
        if self.default is not None:
            return self.default
        raise UnmappedController(name)

    @classmethod
    def uniform(cls, resource: str = "cpu") -> "CostModel":
        """Everything on one shared resource (the conservative default)."""
        return cls(mapping={}, default=resource)

    @classmethod
    def from_file(cls, path: str | Path) -> "CostModel":
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in data.items()
        ):
            raise ValueError("cost model must be a JSON object of name -> resource")
        default = data.pop("*", None)
        return cls(mapping=data, default=default)


def cost(cm: CostModel, controllers: Iterable[ReactiveController]) -> Fraction:
    """Worst-case time to run every controller once: reactivities add

    within a resource, the slowest resource wins across resources.
    """
    per_resource: dict[str, Fraction] = {}
    for rc in controllers:
        r = cm.resource(rc.name)
        per_resource[r] = per_resource.get(r, Fraction(0)) + rc.reactivity
    if not per_resource:
        return Fraction(0)
    return max(per_resource.values())


# ---------------------------------------------------------------------------
# Non-interference gates


class Violation(Record):
    # severity is "error" or "warning"; variables a frozenset of names.
    __slots__ = ("gate", "severity", "description", "variables")

    def describe(self) -> str:
        names = ", ".join(sorted(self.variables))
        return f"{self.gate}: {self.description} ({names})"


class NonInterferenceReport(Record):
    __slots__ = ("gate", "violations", "warnings")
    _defaults = {"violations": (), "warnings": ()}

    @property
    def ok(self) -> bool:
        return not self.violations


def raise_on_violations(report: NonInterferenceReport) -> NonInterferenceReport:
    if not report.ok:
        raise InterferenceError(report)
    return report


def _report(gate: str, errors, warnings=()) -> NonInterferenceReport:
    """The report of `gate` from `(description, variables)` rows: each
    row whose variables are not empty, in row order."""

    def kept(severity: str, rows) -> tuple[Violation, ...]:
        return tuple(Violation(gate, severity, d, names) for d, names in rows if names)

    return NonInterferenceReport(gate, kept("error", errors), kept("warning", warnings))


def non_interference_ctrl_plant(
    ctrl: ReactiveController | MultiChoiceController,
    plant: ControllablePlant,
) -> NonInterferenceReport:
    """Control and dynamics must not write each other's story:

    the controller guarantee may not mention evolved variables, the plant
    guarantee may not mention controller-written variables, and the two
    write sets are disjoint.
    """
    c = as_multi_controller(ctrl)
    g_ctrl = free_vars(c.contract.guarantee)
    g_plant = free_vars(plant.require_contract().guarantee)
    writes = frozenset().union(*(bound_vars(rc.ctrl) for rc in c.choices))
    evolved = plant.evolved
    return _report(
        "ctrl-plant",
        [
            (f"guarantee of {c.name!r} reads variables evolved by {plant.name!r}",
             g_ctrl & evolved),
            (f"guarantee of {plant.name!r} reads variables written by {c.name!r}",
             g_plant & writes),
            (f"{c.name!r} and {plant.name!r} write the same variables",
             writes & evolved),
        ],
    )


def non_interference_controllers(
    a: ReactiveController | MultiChoiceController,
    b: ReactiveController | MultiChoiceController,
) -> NonInterferenceReport:
    """Two controller families may not write the same variables, and

    neither guarantee may read what the other side writes. A guarantee
    reading its *own* writer's variables is reported as a warning only:
    it is the normal shape of an actuation guarantee. The write sets
    include the timestamps, so a shared timestamp is a shared write.
    """
    ma, mb = as_multi_controller(a), as_multi_controller(b)
    # A choice's guarded program writes its body's writes and its stamp.
    w_a, w_b = (
        frozenset().union(*(bound_vars(rc.ctrl) | {rc.timestamp} for rc in m.choices))
        for m in (ma, mb)
    )
    g_a, g_b = free_vars(ma.contract.guarantee), free_vars(mb.contract.guarantee)
    return _report(
        "controllers",
        [
            (f"{ma.name!r} and {mb.name!r} write the same variables", w_a & w_b),
            (f"guarantee of {ma.name!r} reads variables written by {mb.name!r}",
             g_a & w_b),
            (f"guarantee of {mb.name!r} reads variables written by {ma.name!r}",
             g_b & w_a),
        ],
        [
            (f"guarantee of {m.name!r} reads its own written variables", g & w)
            for m, g, w in ((ma, g_a, w_a), (mb, g_b, w_b))
        ],
    )


def non_interference_plants(
    a: ControllablePlant, b: ControllablePlant
) -> NonInterferenceReport:
    """Plant dynamics must be variable-disjoint: neither side evolves the

    other's variables, feeds them into its right-hand sides, or lets its
    guarantee depend on them.
    """
    g_a = free_vars(a.require_contract().guarantee)
    g_b = free_vars(b.require_contract().guarantee)
    return _report(
        "plants",
        [
            (f"{a.name!r} and {b.name!r} evolve the same variables",
             a.evolved & b.evolved),
            (f"dynamics of {b.name!r} read variables evolved by {a.name!r}",
             a.evolved & b.rhs_free_vars()),
            (f"dynamics of {a.name!r} read variables evolved by {b.name!r}",
             b.evolved & a.rhs_free_vars()),
            (f"guarantee of {b.name!r} reads variables evolved by {a.name!r}",
             a.evolved & g_b),
            (f"guarantee of {a.name!r} reads variables evolved by {b.name!r}",
             b.evolved & g_a),
        ],
    )


# ---------------------------------------------------------------------------
# Composition operators


def compose_controllers(
    a: ReactiveController | MultiChoiceController,
    b: ReactiveController | MultiChoiceController,
    cm: CostModel,
) -> MultiChoiceController:
    """Union of the two controller families, every choice re-emitted at

    the combined scheduling cost over the flat multiset of atomic
    controllers.
    """
    ma, mb = as_multi_controller(a), as_multi_controller(b)
    raise_on_violations(non_interference_controllers(ma, mb))
    atoms = ma.choices + mb.choices
    name = f"{ma.name}__{mb.name}"
    return MultiChoiceController(name=name, choices=atoms, reactivity=cost(cm, atoms))


def compose_plants(a: ControllablePlant, b: ControllablePlant) -> ControllablePlant:
    """Joint dynamics: concatenated equations under the conjoined domain,

    controllable within the smaller of the two bounds. The shared clock
    equation stays unique (it is injected at program emission, not
    stored).
    """
    raise_on_violations(non_interference_plants(a, b))
    return ControllablePlant(
        name=f"{a.name}__{b.name}",
        equations=a.equations + b.equations,
        domain=conj(*conjuncts(a.domain), *conjuncts(b.domain)),
        controllability=min(a.controllability, b.controllability),
        contract=joint_contract(a.require_contract(), b.require_contract()),
        bound_name=f"Delta_{a.name}__{b.name}",
    )


def compose_mccs(a: MCCS, b: MCCS, cm: CostModel) -> MCCS:
    """Parallel composition of two closed loops: all pairwise gates, the

    union of the controller families at the combined cost, the joint
    plant, and the schedulability side condition cost <= min bound.
    """
    raise_on_violations(non_interference_controllers(a.controller, b.controller))
    raise_on_violations(non_interference_plants(a.plant, b.plant))
    raise_on_violations(non_interference_ctrl_plant(a.controller, b.plant))
    raise_on_violations(non_interference_ctrl_plant(b.controller, a.plant))

    controller = compose_controllers(a.controller, b.controller, cm)
    plant = compose_plants(a.plant, b.plant)
    env = a.env if a.env == b.env else Environment(conj(a.env.formula, b.env.formula))
    invariant = conj(a.invariant, b.invariant)
    name = f"{a.name}__{b.name}"
    # make_ccs re-checks ctrl/plant interference, environment constancy and
    # the cost <= controllability side condition.
    return make_ccs(controller, plant, env=env, invariant=invariant, name=name)

