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
    walk,
)

VarSet = frozenset[str]

EMPTY: VarSet = frozenset()


def free_vars(node: Node) -> VarSet:
    """Variables whose initial value can influence the meaning of `node`."""
    if isinstance(node, Variable):
        return frozenset((node.name,))
    if isinstance(node, Rational):
        return EMPTY
    if isinstance(node, (Plus, Minus, Times, Divide)):
        return free_vars(node.left) | free_vars(node.right)
    if isinstance(node, Neg):
        return free_vars(node.operand)
    if isinstance(node, (TrueF, FalseF)):
        return EMPTY
    if isinstance(node, Compare):
        return free_vars(node.left) | free_vars(node.right)
    if isinstance(node, Not):
        return free_vars(node.operand)
    if isinstance(node, (And, Or, Implies)):
        return free_vars(node.left) | free_vars(node.right)
    if isinstance(node, (Forall, Exists)):
        return free_vars(node.body) - {node.var}
    if isinstance(node, Box):
        return free_vars(node.program) | (
            free_vars(node.post) - must_bound_vars(node.program)
        )
    if isinstance(node, Test):
        return free_vars(node.condition)
    if isinstance(node, Assign):
        return free_vars(node.rhs)
    if isinstance(node, ODE):
        # Evolved variables are read (their initial values seed the flow);
        # domain-only variables count as free reads, never as bound.
        out = frozenset(v for v, _ in node.equations)
        for _, rhs in node.equations:
            out |= free_vars(rhs)
        return out | free_vars(node.domain)
    if isinstance(node, Seq):
        return free_vars(node.first) | (
            free_vars(node.second) - must_bound_vars(node.first)
        )
    if isinstance(node, Choice):
        return free_vars(node.left) | free_vars(node.right)
    if isinstance(node, Loop):
        return free_vars(node.body)
    raise TypeError(f"not an AST node: {node!r}")


def bound_vars(node: Formula | Program) -> VarSet:
    """Variables written (assigned or evolved) somewhere in `node`."""
    if isinstance(node, (TrueF, FalseF, Compare)):
        return EMPTY
    if isinstance(node, Not):
        return bound_vars(node.operand)
    if isinstance(node, (And, Or, Implies)):
        return bound_vars(node.left) | bound_vars(node.right)
    if isinstance(node, (Forall, Exists)):
        return bound_vars(node.body) | {node.var}
    if isinstance(node, Box):
        return bound_vars(node.program) | bound_vars(node.post)
    if isinstance(node, Test):
        return EMPTY
    if isinstance(node, Assign):
        return frozenset((node.var,))
    if isinstance(node, ODE):
        return frozenset(v for v, _ in node.equations)
    if isinstance(node, (Seq, Choice)):
        a, b = (
            (node.first, node.second)
            if isinstance(node, Seq)
            else (node.left, node.right)
        )
        return bound_vars(a) | bound_vars(b)
    if isinstance(node, Loop):
        return bound_vars(node.body)
    raise TypeError(f"not a formula or program: {node!r}")


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
    """Every variable name occurring syntactically in `node`."""
    out: set[str] = set()
    for sub in walk(node):
        if isinstance(sub, Variable):
            out.add(sub.name)
        elif isinstance(sub, Assign):
            out.add(sub.var)
        elif isinstance(sub, ODE):
            out.update(v for v, _ in sub.equations)
        elif isinstance(sub, (Forall, Exists)):
            out.add(sub.var)
    return frozenset(out)
