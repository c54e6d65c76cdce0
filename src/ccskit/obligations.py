"""Proof decomposition for composed systems, plus a bounded falsifier.

Each composition rule unfolds into a fixed obligation list by one loop
induction over a loop of two sides a and b, with the invariant
`A_a & G_a & A_b & G_b & J` (`_loop_induction`): one base case, one use
case, one induction step per loop branch and invariant conjunct, J's
establishment and its maintenance by each side, and the two mutual
compatibility conditions. A rule supplies only what differs: the two
contracts and programs, J, the environment, the controller timestamps,
its steps, and the notes whose wording is its own. Where both sides run
in the loop (thm1/thm4 and thm2), `_crossed_steps` writes the eight
steps: each side gives its own two and the wording of its fv-bv note,
and the helper adds the four crossed ones, each side's run keeping the
other side's guarantee and assumption. An obligation is a closed dL
formula plus a discharge hint naming the argument expected to close it:

* component-proof-reuse: the clause restates a component's own contract,
* fv-bv-separation: the program writes no free variable of the clause,
* compatibility: one side's assumptions survive the other side's runs,
* composition-invariant: J is established initially and maintained by
  each component,
* differential-refinement: the goal is stated at the component's own
  time bound; inside the loop the run is shorter (reactivity <=
  controllability), so the longer-bound proof carries over.

Rule tags: thm1 (controller + plant), thm2 (controller pair), thm3
(plant pair), thm4 (controller family + plant, same shape as thm1).

`check_bounded` is not a prover. It grids the antecedent box, unrolls
each loop LOOP_CAP passes deep, as a simulated controller firing does,
samples ODE flows, and reports `holds` only in the sense of
"no counterexample in this finite exploration"; the caveat field always
spells out the truncations. The simulator's `box_interval` reads each
box entry, and its `compile_check` turns a goal into one generated grid
search over tuple states for a grid shape (which axes hold more than
one value): the antecedent's conjuncts are tested at the outermost loop
that binds their names, and the consequent is the function
`compile_goal` makes, whose boxes enumerate the final states of the
program semantics a simulated controller firing uses, and whose
quantifiers the grid of their variable; this module prints no generated
code itself. An obligation keeps the search of its last grid shape, and
each program node the function it runs as, so later calls reuse them;
nothing of a box is kept, so each call reads its entries again.
"""

from __future__ import annotations

import collections
import functools
import math

from .ast import (
    Box,
    Compare,
    Formula,
    Implies,
    Program,
    Record,
    TRUE,
    Variable,
    choice,
    conj,
    fraction_to_text,
    print_formula,
)
from .components import (
    CLOCK,
    Contract,
    MCCS,
    ControllablePlant,
    Environment,
    EMPTY_ENVIRONMENT,
    MultiChoiceController,
    ReactiveController,
    as_multi_controller,
)
from .composition import (
    CostModel,
    compose_plants,
    cost,
    non_interference_controllers,
    raise_on_violations,
)
from .errors import BoundOccursInBehavior, CcsError
from .simulator import LOOP_CAP, alias_root, box_interval, compile_check, require_counts, slots_of
from .statics import all_vars, bound_vars, free_and_bound_vars, free_vars

HINTS = frozenset(
    {
        "component-proof-reuse",
        "fv-bv-separation",
        "compatibility",
        "composition-invariant",
        "differential-refinement",
    }
)

STATUSES = ("open", "discharged", "failed")


class ProofObligation(Record):
    # `_names` keeps the goal's free variables, and `_compiled` the goal
    # as check_bounded last compiled it; neither is a field.
    __slots__ = (
        "id", "theorem", "case", "hint", "goal", "status", "notes", "_names",
        "_compiled",
    )
    _defaults = {"status": "open", "notes": ()}

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        if self.hint not in HINTS:
            raise ValueError(f"unknown hint {self.hint!r}")
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def free_vars(self) -> frozenset[str]:
        """The goal's free variables, computed on first use."""
        return self._kept("_names", lambda: free_vars(self.goal))

    @property
    def provenance(self) -> str:
        return f"{self.theorem}/{self.case}"

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "provenance": self.provenance,
            "hint": self.hint,
            "goal": print_formula(self.goal),
            "status": self.status,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out


def obligation_from_json(data: dict) -> ProofObligation:
    """Rebuild an obligation from its JSON form (goal re-parsed from

    concrete syntax; provenance split back into rule tag and case).
    """
    from .dsl import parse_formula_text

    theorem, _, case = data["provenance"].partition("/")
    return ProofObligation(
        id=data["id"],
        theorem=theorem,
        case=case,
        hint=data["hint"],
        goal=parse_formula_text(data["goal"]),
        status=data.get("status", "open"),
        notes=tuple(data.get("notes", ())),
    )


# ---------------------------------------------------------------------------
# Loop induction over a two-sided loop


def _fmt_names(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


def _loop_invariant(ca: Contract, cb: Contract, J: Formula) -> Formula:
    return conj(ca.assume, ca.guarantee, cb.assume, cb.guarantee, J)


def _loop_induction(
    theorem: str,
    a: tuple[str, Contract, Program],
    b: tuple[str, Contract, Program],
    env: Formula,
    J: Formula,
    timestamps: tuple[str, ...],
    steps: list[tuple],
    base_note: str,
    survive_notes: tuple[str, str] = (
        "the first side's assumption survives the second side's runs",
        "the second side's assumption survives the first side's runs",
    ),
) -> list[ProofObligation]:
    """Loop induction with the invariant `inv = A_a & G_a & A_b & G_b & J`
    over a loop of two sides, each a (label, contract, own program).

    The obligations, with ids `<theorem>.<case>` and dots for dashes:
    base and use; `step-<i>` for the i-th `(hint, program, post, *notes)`
    of `steps`, with the goal `inv -> [program] post`; J's establishment
    from both inits (`jcmp-init`) and its maintenance by each side's own
    program (`jcmp-<label>`); and the two compatibility conditions, a's
    assumption surviving b's runs (`compat-ab`) and the converse. Base
    and jcmp-init also assume that every controller timestamp starts
    equal to the global clock (the closed loop is assembled that way),
    which is what makes measurement-style invariants true at time zero;
    jcmp-init notes this when there are timestamps.
    """
    (label_a, ca, own_a), (label_b, cb, own_b) = a, b
    A_a, G_a, I_a = ca.assume, ca.guarantee, ca.init
    A_b, G_b, I_b = cb.assume, cb.guarantee, cb.init
    inv = _loop_invariant(ca, cb, J)
    timing = [Compare("=", Variable(ts), Variable(CLOCK)) for ts in timestamps]
    timing_notes = ["timestamps equal the clock on loop entry"] if timing else []
    rows = [
        (
            "base",
            "component-proof-reuse",
            Implies(conj(env, I_a, I_b, *timing, A_a, A_b), inv),
            base_note,
        ),
        (
            "use",
            "component-proof-reuse",
            Implies(inv, conj(G_a, G_b)),
            "propositional: both guarantees are conjuncts of the loop invariant",
        ),
        *(
            (f"step-{i}", hint, Implies(inv, Box(program, post)), *notes)
            for i, (hint, program, post, *notes) in enumerate(steps, 1)
        ),
        (
            "jcmp-init",
            "composition-invariant",
            Implies(conj(I_a, I_b, *timing), J),
            *timing_notes,
        ),
        (f"jcmp-{label_a}", "composition-invariant", Implies(J, Box(own_a, J))),
        (f"jcmp-{label_b}", "composition-invariant", Implies(J, Box(own_b, J))),
        (
            "compat-ab",
            "compatibility",
            Implies(A_a, Box(own_b, Implies(conj(G_b, J), A_a))),
            survive_notes[0],
        ),
        (
            "compat-ba",
            "compatibility",
            Implies(A_b, Box(own_a, Implies(conj(G_a, J), A_b))),
            survive_notes[1],
        ),
    ]
    return [
        ProofObligation(
            id=f"{theorem}.{case}".replace("-", "."),
            theorem=theorem,
            case=case,
            hint=hint,
            goal=goal,
            notes=tuple(notes),
        )
        for case, hint, goal, *notes in rows
    ]


def _crossed_steps(theorem: str, a: tuple, b: tuple) -> list[tuple]:
    """The eight steps of a loop whose two sides both run in it, for
    `_loop_induction`. Each side is (contract, in-loop program, its own
    two steps, its fv-bv note with `{}` for the program's writes and for
    the other guarantee's free variables). In order: a's own two; a's run
    keeps b's guarantee (fv-bv separation) and b's assumption
    (compatibility); b's run keeps a's guarantee; b's own two; b's run
    keeps a's assumption."""
    (ca, prog_a, own_a, writes_a), (cb, prog_b, own_b, writes_b) = a, b

    def separation(prog: Program, writes: str, guarantee: Formula) -> tuple:
        names = _fmt_names(bound_vars(prog)), _fmt_names(free_vars(guarantee))
        return ("fv-bv-separation", prog, guarantee, writes.format(*names))

    return [
        *own_a,
        separation(prog_a, writes_a, cb.guarantee),
        (
            "compatibility",
            prog_a,
            cb.assume,
            f"follows from step-1 and step-2 with {theorem}.compat.ba",
        ),
        separation(prog_b, writes_b, ca.guarantee),
        *own_b,
        (
            "compatibility",
            prog_b,
            ca.assume,
            f"follows from step-6 and step-7 with {theorem}.compat.ab",
        ),
    ]


# ---------------------------------------------------------------------------
# Closed-loop systems: 15 obligations


def obligations_ccs(system: MCCS) -> list[ProofObligation]:
    """The full decomposition for one closed loop: always exactly 15.

    Loop induction over `(plant U controllers)*` with the invariant
    `A_c & G_c & A_p & G_p & J` gives base, use and eight steps (each
    loop branch must re-establish each invariant conjunct); J brings its
    establishment/maintenance trio and the contracts their two mutual
    compatibility conditions. Rule tag thm1, or thm4 when the controller
    side is a family.
    """
    ctrl = system.controller
    plant = system.plant
    cc = ctrl.contract
    pc = plant.require_contract()
    J = system.invariant
    inv = _loop_invariant(cc, pc, J)
    ctrl_prog = ctrl.to_program()
    ctrl_bare = choice(*(rc.ctrl for rc in ctrl.choices))
    plant_delta: Program = plant.to_program(bound=ctrl.reactivity)
    plant_own: Program = plant.to_program()
    link_note = (
        f"link: {fraction_to_text(ctrl.reactivity)} <= "
        f"{fraction_to_text(plant.controllability)} (arithmetic, auto-discharged)"
    )
    theorem = "thm1" if len(ctrl.choices) == 1 else "thm4"
    ctrl_steps = (
        (
            "component-proof-reuse",
            ctrl_prog,
            conj(cc.assume, cc.guarantee),
            "reuses the controller's own inductive step: "
            + print_formula(Implies(cc.guarantee, Box(ctrl_bare, cc.guarantee))),
        ),
        (
            "composition-invariant",
            ctrl_prog,
            J,
            f"reuses the maintenance condition {theorem}.jcmp.ctrl",
        ),
    )
    plant_steps = tuple(
        (
            "differential-refinement",
            plant_own,
            post,
            "in-system runs are cut short at the reactivity: "
            + print_formula(Implies(inv, Box(plant_delta, post))),
            link_note,
        )
        for post in (conj(pc.assume, pc.guarantee), J)
    )
    steps = _crossed_steps(
        theorem,
        (
            cc,
            ctrl_prog,
            ctrl_steps,
            "controller writes {} avoid the plant guarantee's free variables {}",
        ),
        (
            pc,
            plant_delta,
            plant_steps,
            "evolved variables {} avoid the controller guarantee's free variables {}",
        ),
    )
    return _loop_induction(
        theorem,
        ("ctrl", cc, ctrl_prog),
        ("plant", pc, plant_own),
        system.env.formula,
        J,
        ctrl.timestamps,
        steps,
        base_note="each component's contract supplies its own conjuncts; the "
        "timestamp equalities hold on loop entry and close the invariant",
        survive_notes=(
            "the controller's assumption survives any plant run",
            "the plant's assumption survives any controller run",
        ),
    )


# ---------------------------------------------------------------------------
# Controller pairs: 15 obligations


def obligations_controllers(
    a: ReactiveController | MultiChoiceController,
    b: ReactiveController | MultiChoiceController,
    cost_model: CostModel | None = None,
    env: Environment = EMPTY_ENVIRONMENT,
    invariant: Formula = TRUE,
) -> list[ProofObligation]:
    """Why `a` and `b` can share a loop at the joint firing bound.

    Same induction shape as the closed loop (rule tag thm2): the loop
    alternates the two controller families, each re-run at the joint
    scheduling cost of all atoms, and each branch must re-establish
    every invariant conjunct. Sound reuse of each side's standalone
    proof at the new bound requires that the numeric bound never leaks
    into behavior: the symbolic bound name must not occur in the
    programs, the guarantee, or the invariant (BoundOccursInBehavior
    otherwise).
    """
    am = as_multi_controller(a)
    bm = as_multi_controller(b)
    cm = cost_model if cost_model is not None else CostModel.uniform()
    raise_on_violations(non_interference_controllers(am, bm))
    for m in (am, bm):
        for rc in m.choices:
            for where, node in (
                ("program", rc.ctrl), ("guarantee", m.contract.guarantee), ("invariant", invariant)
            ):
                if rc.bound_name in all_vars(node):
                    raise BoundOccursInBehavior(rc.bound_name, where)

    atoms = list(am.choices) + list(bm.choices)
    joint = cost(cm, atoms)
    prog_a = choice(*(rc.to_program(bound=joint) for rc in am.choices))
    prog_b = choice(*(rc.to_program(bound=joint) for rc in bm.choices))
    own_a = am.to_program()
    own_b = bm.to_program()
    J = invariant

    def own_steps(m: MultiChoiceController, prog: Program, own: Program, label: str):
        clause = conj(m.contract.assume, m.contract.guarantee)
        reuse_note = (
            "the bound name "
            + ", ".join(rc.bound_name for rc in m.choices)
            + " occurs in neither behavior nor guarantee, so the standalone "
            f"proof transfers to the joint bound {fraction_to_text(joint)}: "
            + print_formula(Implies(clause, Box(own, clause)))
        )
        return (
            ("component-proof-reuse", prog, clause, reuse_note),
            (
                "composition-invariant",
                prog,
                J,
                f"the bound name does not occur in the invariant; reuses thm2.jcmp.{label}",
            ),
        )

    writes = "writes {} avoid the other guarantee's free variables {}"
    steps = _crossed_steps(
        "thm2",
        (am.contract, prog_a, own_steps(am, prog_a, own_a, "a"), writes),
        (bm.contract, prog_b, own_steps(bm, prog_b, own_b, "b"), writes),
    )
    return _loop_induction(
        "thm2",
        ("a", am.contract, own_a),
        ("b", bm.contract, own_b),
        env.formula,
        J,
        am.timestamps + bm.timestamps,
        steps,
        base_note="each side's contract supplies its own conjuncts; the "
        "timestamp equalities hold on loop entry and close the invariant",
    )


# ---------------------------------------------------------------------------
# Plant pairs: 10 obligations


def obligations_plants(
    a: ControllablePlant,
    b: ControllablePlant,
    env: Environment = EMPTY_ENVIRONMENT,
    invariant: Formula = TRUE,
) -> list[ProofObligation]:
    """Why the joint plant keeps both guarantees at the tighter bound.

    Rule tag thm3. The composed loop has a single branch (the joint
    ODE at bound min of the two), so the induction step splits into
    three: one reuse case per component contract and one maintenance
    case for the invariant. Reuse is sound because each side's
    equations are ghost dynamics for the other side's clauses (evolved
    variable sets are disjoint): dropping them from the joint ODE
    leaves an equivalent goal over the component's own dynamics.
    """
    joint = compose_plants(a, b)
    ca = a.require_contract()
    cb = b.require_contract()
    J = invariant
    inv = _loop_invariant(ca, cb, J)
    bound = joint.controllability
    joint_prog = joint.to_program()
    min_txt = (
        f"min({fraction_to_text(a.controllability)}, "
        f"{fraction_to_text(b.controllability)}) = {fraction_to_text(bound)}"
    )

    def reuse_step(p: ControllablePlant, other: ControllablePlant):
        clause = conj(p.contract.assume, p.contract.guarantee)
        ghosted = p.replace(domain=conj(p.domain, other.domain)).to_program(bound=bound)
        return (
            "component-proof-reuse",
            joint_prog,
            clause,
            f"joint time bound {min_txt}",
            "the other side's equations are removable ghosts here; retained "
            "goal over own dynamics: "
            + print_formula(Implies(inv, Box(ghosted, clause))),
        )

    steps = [
        reuse_step(a, b),
        reuse_step(b, a),
        (
            "composition-invariant",
            joint_prog,
            J,
            "reuses thm3.jcmp.a and thm3.jcmp.b over the joint flow",
        ),
    ]
    return _loop_induction(
        "thm3",
        ("a", ca, a.to_program()),
        ("b", cb, b.to_program()),
        env.formula,
        J,
        (),
        steps,
        base_note="each side's contract supplies its own conjuncts",
    )


# ---------------------------------------------------------------------------
# Bounded counterexample search


class BoundedCheckResult(Record):
    # status is "holds", "counterexample" or "inconclusive"; counterexample
    # and initial are states (name -> float) or None.
    __slots__ = ("status", "checked", "total", "counterexample", "initial", "caveat")

    def to_json(self) -> dict:
        return self._asdict()


def _axis(domain_box: dict, name: str, grid: int) -> tuple[float, ...]:
    """The coordinates of the box entry `name` as box_interval reads it:
    an interval's `grid` evenly spaced points, or a number's one value."""
    lo, hi = box_interval(domain_box[name], name)
    if hi == lo or grid <= 1:
        return (lo,)
    span, steps = hi - lo, grid - 1
    return tuple([lo + span * i / steps for i in range(grid)])


MAX_GRID_POINTS = 200000


def check_bounded(
    goal: Formula | ProofObligation,
    domain_box: dict,
    grid: int = 5,
    flow_samples: int = 32,
) -> BoundedCheckResult:
    """Grid-and-sample falsification of one goal over a variable box.

    `domain_box` maps every free variable to a number, an [lo, hi]
    interval (gridded), or an "=other" alias; box_interval reads each
    entry an alias chain ends at. Implication goals count a point as
    checked only when the antecedent held there; zero checked points is
    reported as inconclusive, never as holds.

    States are tuples over a layout, the box's names and the goal's
    bound names sorted, so goals checked against one box share the code
    of their common programs and flows. A grid point sets each free name
    and each root to its root's axis, one per sorted root; other slots
    hold None. One generated function (see compile_check) searches the
    axes' product, testing each antecedent conjunct at the outermost
    loop that binds its names and counting a block it skips in `total`.
    An obligation keeps the layout and search of its last grid shape
    (which axes hold more than one value), keyed by `flow_samples`, the
    roots, the box's names and the shape, so a check at another grid of
    that shape compiles nothing. Each call reads each root's entry once,
    and a quantified slot's entry once, when the search first reaches its
    quantifier; a quantifier never reached reads nothing. The
    counterexample and initial states are dicts in layout order, without
    unset slots.

    Raises ValueError when `grid` or `flow_samples` is not an int of at
    least 1, or a box entry holds no finite reals.
    """
    require_counts(grid=grid, flow_samples=flow_samples)
    ob = goal if isinstance(goal, ProofObligation) else None
    if ob is not None:
        goal = ob.goal
    names, written = free_and_bound_vars(goal)
    # Each free name's gridded root, each alias chain followed once.
    roots = {n: alias_root(domain_box, n) for n in sorted(names)}
    keys = sorted(set(roots.values()))
    axes = [_axis(domain_box, n, grid) for n in keys]

    n_points = math.prod(map(len, axes))
    if n_points > MAX_GRID_POINTS:
        raise CcsError(
            f"grid of {n_points} points exceeds the {MAX_GRID_POINTS} cap; "
            "pin more variables or lower the grid"
        )

    looped = tuple([len(axis) > 1 for axis in axes])
    key = (flow_samples, roots, tuple(domain_box), looped)
    kept = getattr(ob, "_compiled", None)
    if kept is None or kept[0] != key:
        layout = tuple(sorted({*written, *domain_box}))
        column = {k: i for i, k in enumerate(keys)}
        columns = tuple(column.get(roots.get(n, n)) for n in layout)
        sides = (goal.left, goal.right) if isinstance(goal, Implies) else (TRUE, goal)
        kept = (key, layout, compile_check(
            *sides, slots_of(layout), columns, looped, flow_samples))
        if ob is not None:
            object.__setattr__(ob, "_compiled", kept)
    _, layout, search = kept
    quantified = {}  # each quantified slot's axis, read when the search first asks

    def axis(i: int) -> tuple[float, ...]:
        if i not in quantified:
            quantified[i] = _axis(domain_box, alias_root(domain_box, layout[i]), grid)
        return quantified[i]

    # Non-empty once a loop, a flow or a quantifier grid has cut the search
    # short. `witness` keeps only the state the last `fail` call saw: `fail`
    # runs on every false leaf inside a box. No function refers back to
    # another, so nothing this call makes waits for the garbage collector.
    cut_short: set[bool] = set()
    cut = functools.partial(cut_short.add, True)
    witness: collections.deque[tuple] = collections.deque(maxlen=1)

    checked, total, initial = search(axes, axis, cut, witness.append)
    found = initial is not None
    # By position, which skips Record's keyword matching: status, checked,
    # total, counterexample, initial, caveat.
    return BoundedCheckResult(
        "counterexample" if found else "holds" if checked > 0 else "inconclusive",
        checked,
        total,
        _named(layout, witness[0]) if found else None,
        _named(layout, initial) if found else None,
        _caveat(grid, flow_samples, bool(cut_short), checked),
    )


def _named(layout: tuple[str, ...], s: tuple) -> dict[str, float]:
    """A state as a dict in layout order, without its unset slots."""
    return {n: v for n, v in zip(layout, s) if v is not None}


def _caveat(grid: int, flow_samples: int, incomplete: bool, checked: int) -> str:
    parts = [
        f"bounded search: grid {grid} per axis, loops unrolled {LOOP_CAP} deep, "
        f"flows sampled at {flow_samples} points"
    ]
    if incomplete:
        parts.append("some behavior was truncated at these bounds")
    if checked == 0:
        parts.append("no grid point satisfied the antecedent")
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# Prover-file rendering


# KeYmaera X writes a choice `++` and the quantifiers `\forall`, `\exists`.
KYX_SYNTAX = ("++", "\\")


def render_kyx(ob: ProofObligation) -> str:
    """One obligation as a standalone prover problem file. ValueError if
    a comment of it would hold a `*/`, which would end it early."""
    names = sorted(all_vars(ob.goal))
    decls = "\n".join(f"  Real {n};" for n in names)
    body = print_formula(ob.goal, KYX_SYNTAX)
    comments = [f"{ob.id} ({ob.provenance})", f"hint: {ob.hint}", *(f"note: {n}" for n in ob.notes)]
    if any("*/" in c for c in comments):
        raise ValueError(f"obligation {ob.id!r}: its provenance or a note holds '*/'")
    lines = [f"/* {c} */" for c in comments]
    lines += [
        "",
        "ProgramVariables",
        decls,
        "End.",
        "",
        "Problem",
        f"  {body}",
        "End.",
        "",
    ]
    return "\n".join(lines)


def kyx_filename(ob: ProofObligation) -> str:
    return f"{ob.id}.kyx"
