"""Free, bound and must-bound variables of formulas and hybrid programs.

These are the workhorses behind every non-interference gate: composition
soundness reduces to emptiness checks over the sets computed here, so the
equations follow the standard static semantics of dynamic logic exactly.
Each formula and program node but a comparison keeps its free and bound
names once computed, from its children's (see `ast.Node`; `all_vars`
keeps nothing): a composition rule states every obligation over the
same contract and invariant nodes, so those are walked once.

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
    Or,
    Plus,
    Program,
    Rational,
    Seq,
    Test,
    Times,
    TrueF,
    Variable,
    children,
)

VarSet = frozenset[str]

EMPTY: VarSet = frozenset()


def free_vars(node: Node) -> VarSet:
    """Variables whose initial value can influence the meaning of `node`."""
    return free_and_bound_vars(node)[0]


def free_and_bound_vars(node: Node) -> tuple[VarSet, VarSet]:
    """`free_vars(node)`, and the names `node` writes or quantifies (for
    a formula or program, `bound_vars(node)`): FV(a; b) = FV(a) u (FV(b)
    \\ MBV(a)), FV([a]p) = FV(a) u (FV(p) \\ MBV(a)) and FV(Q x. p) =
    FV(p) \\ {x}.

    Each formula and program node keeps its pair once computed (see
    Node), so a subtree that many formulas share is walked once. A term,
    comparison or truth constant keeps nothing: its names are one walk,
    cheaper than keeping them.
    """
    if isinstance(node, _UNKEPT):
        names: set[str] = set()
        _add_names(node, names)
        return frozenset(names), EMPTY
    kept = getattr(node, "_vars", None)
    if kept is not None:
        return kept
    # Down each last child (a compound node's last field) to a node whose
    # pair is at hand, then back up, so that a long right-nested chain,
    # such as the sequence `seq` builds, does not recurse.
    spine = []
    while True:
        if not isinstance(node, Node):
            raise TypeError(f"not an AST node: {node!r}")
        spine.append(node)
        node = getattr(node, node._fields[-1])
        if isinstance(node, _UNKEPT) or getattr(node, "_vars", None) is not None:
            break
    free, written = free_and_bound_vars(node)
    for node in reversed(spine):
        if isinstance(node, (And, Or, Implies, Choice)):
            first_free, first_written = free_and_bound_vars(node.left)
            free, written = _union(first_free, free), _union(first_written, written)
        elif isinstance(node, (Seq, Box)):
            first = node.first if isinstance(node, Seq) else node.program
            first_free, first_written = free_and_bound_vars(first)
            free = _union(first_free, free - must_bound_vars(first))
            written = _union(first_written, written)
        elif isinstance(node, (Forall, Exists)):
            free, written = free - {node.var}, written | {node.var}
        elif isinstance(node, Assign):
            written = written | {node.var}
        elif isinstance(node, ODE):
            # Evolved variables are read (their initial values seed the
            # flow); domain-only variables count as free reads, never as
            # bound.
            evolved = {v for v, _ in node.equations}
            names = set(evolved)
            for _, rhs in node.equations:
                _add_names(rhs, names)
            free, written = free.union(names), written.union(evolved)
        # A negation, test or loop has its one child's pair.
        _keep_vars(node, (free, written))
    return free, written


# The nodes that keep no pair: terms, comparisons and truth constants.
_UNKEPT = (Variable, Rational, Plus, Minus, Times, Divide, Neg, Compare, TrueF, FalseF)


def _add_names(node: Node, names: set[str]) -> None:
    """Add to `names` the variables of the term or comparison `node`
    (none for a truth constant)."""
    # Loops down each right operand, so a right-nested chain does not
    # recurse.
    while True:
        if isinstance(node, Variable):
            names.add(node.name)
            return
        if isinstance(node, (Rational, TrueF, FalseF)):
            return
        if isinstance(node, Neg):
            node = node.operand
        elif isinstance(node, (Plus, Minus, Times, Divide, Compare)):
            _add_names(node.left, names)
            node = node.right
        else:
            raise TypeError(f"not a term: {node!r}")


_keep_vars = Node._vars.__set__


def _union(a: VarSet, b: VarSet) -> VarSet:
    """`a | b`, or whichever of the two holds the other: a kept set is
    then shared, not copied."""
    if a <= b:
        return b
    return a if b <= a else a | b


def bound_vars(node: Formula | Program) -> VarSet:
    """Variables written (assigned or evolved) or quantified somewhere in
    `node`."""
    return free_and_bound_vars(node)[1]


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
    """Every variable name occurring syntactically in `node`: each name
    read, written or quantified, by one walk that keeps nothing on the
    nodes (a goal parsed for export shares no node a later call reuses)."""
    names: set[str] = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, _UNKEPT) or not isinstance(node, Node):
            _add_names(node, names)  # a TypeError on what is no node
            continue
        if isinstance(node, (Assign, Forall, Exists)):
            names.add(node.var)
        elif isinstance(node, ODE):
            names.update(v for v, _ in node.equations)
        stack.extend(children(node))
    return frozenset(names)
