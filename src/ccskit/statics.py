"""Free, bound and must-bound variables of formulas and hybrid programs.

These are the workhorses behind every non-interference gate: composition
soundness reduces to emptiness checks over the sets computed here, so the
equations follow the standard static semantics of dynamic logic exactly.

The must-bound set MBV(p) contains the variables written on *every* path
through p; it is what makes sequencing precise
(FV(a; b) = FV(a) u (FV(b) \\ MBV(a))) instead of over-approximating with
a plain union.
"""

from __future__ import annotations

from .ast import (
    ODE,
    And,
    Assign,
    Box,
    Choice,
    Compare,
    Divide,
    Exists,
    FalseF,
    Forall,
    Formula,
    Implies,
    Loop,
    Minus,
    Neg,
    Node,
    Not,
    Or,
    Plus,
    Program,
    Rational,
    Seq,
    Test,
    Times,
    TrueF,
    Variable,
)

VarSet = frozenset[str]

EMPTY: VarSet = frozenset()


def free_vars(node: Node) -> VarSet:
    """Variables whose initial value can influence the meaning of `node`."""
    return free_and_bound_vars(node)[0]


def free_and_bound_vars(node: Node) -> tuple[VarSet, tuple[str, ...]]:
    """`free_vars(node)`, and the names `node` writes or quantifies (for
    a formula or program, `bound_vars(node)`) in the order it first binds
    them, from one walk."""
    free: set[str] = set()
    written: dict[str, None] = {}
    _add_free(node, EMPTY, free, written)
    return frozenset(free), tuple(written)


def _add_free(
    node: Node, bound: VarSet, free: set[str], written: dict[str, None]
) -> None:
    """Add to `free` the free variables of `node` outside `bound`, the
    names bound on every path to it, and to `written` the names it binds:
    FV(a; b) = FV(a) u (FV(b) \\ MBV(a)), FV([a]p) = FV(a) u (FV(p) \\ MBV(a))
    and FV(Q x. p) = FV(p) \\ {x}."""
    # Loops down each last child, so a long right-nested chain, such as
    # the sequence `seq` builds, does not recurse.
    while True:
        if isinstance(node, Variable):
            if node.name not in bound:
                free.add(node.name)
            return
        if isinstance(node, (Plus, Minus, Times, Divide, Compare, And, Or, Implies)):
            _add_free(node.left, bound, free, written)
            node = node.right
        elif isinstance(node, (Neg, Not)):
            node = node.operand
        elif isinstance(node, (Rational, TrueF, FalseF)):
            return
        elif isinstance(node, Box):
            _add_free(node.program, bound, free, written)
            bound = bound | must_bound_vars(node.program)
            node = node.post
        elif isinstance(node, (Forall, Exists)):
            written[node.var] = None
            bound = bound | {node.var}
            node = node.body
        elif isinstance(node, Test):
            node = node.condition
        elif isinstance(node, Assign):
            written[node.var] = None
            node = node.rhs
        elif isinstance(node, Seq):
            _add_free(node.first, bound, free, written)
            bound = bound | must_bound_vars(node.first)
            node = node.second
        elif isinstance(node, Choice):
            _add_free(node.left, bound, free, written)
            node = node.right
        elif isinstance(node, Loop):
            node = node.body
        elif isinstance(node, ODE):
            # Evolved variables are read (their initial values seed the
            # flow); domain-only variables count as free reads, never as
            # bound.
            evolved = [v for v, _ in node.equations]
            written.update(dict.fromkeys(evolved))
            free.update(v for v in evolved if v not in bound)
            for _, rhs in node.equations:
                _add_free(rhs, bound, free, written)
            node = node.domain
        else:
            raise TypeError(f"not an AST node: {node!r}")


def bound_vars(node: Formula | Program) -> VarSet:
    """Variables written (assigned or evolved) or quantified somewhere in
    `node`."""
    return frozenset(free_and_bound_vars(node)[1])


def must_bound_vars(program: Program) -> VarSet:
    """Variables written on every execution path of `program`.

    Always a subset of bound_vars(program): choices intersect, loops may
    run zero times and so must-bind nothing.
    """
    if isinstance(program, Test):
        return EMPTY
    if isinstance(program, Assign):
        return frozenset((program.var,))
    if isinstance(program, ODE):
        return frozenset(v for v, _ in program.equations)
    if isinstance(program, Seq):
        return must_bound_vars(program.first) | must_bound_vars(program.second)
    if isinstance(program, Choice):
        return must_bound_vars(program.left) & must_bound_vars(program.right)
    if isinstance(program, Loop):
        return EMPTY
    raise TypeError(f"not a program: {program!r}")


def all_vars(node: Node) -> VarSet:
    """Every variable name occurring syntactically in `node`: the free
    ones and, for a formula or program, the bound ones, as a name that is
    not free is only read after it is bound."""
    free, written = free_and_bound_vars(node)
    return free.union(written)
