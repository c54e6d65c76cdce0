"""Abstract syntax for terms, first-order formulas and hybrid programs.

Design notes

* Every node is a frozen dataclass: structural equality and hashing come
  from the field tuples, so two independently built trees compare equal
  exactly when they are the same tree. No interning, no identity games.
* Numeric literals are exact rationals (`fractions.Fraction`). Nothing in
  this module ever converts to float; the simulator does that once at its
  own boundary.
* `normalize_ac` rewrites the associative/commutative shapes that the
  composition operators produce (choice chains, ODE equation lists,
  conjunction chains inside evolution domains) into a canonical form so
  that "equal up to AC" becomes plain structural equality.
* `pretty_print` emits the concrete syntax understood by `ccskit.dsl`;
  parse(pretty_print(x)) == x structurally for everything the toolchain
  produces (see test_dsl / test_acceptance round-trip suites).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Rational:
    """Exact rational literal. Always non-negative in concrete syntax;

    negative values are representable but print as `p/q` or via `Neg`.
    """

    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Plus:
    left: Term
    right: Term


@dataclass(frozen=True)
class Minus:
    left: Term
    right: Term


@dataclass(frozen=True)
class Times:
    left: Term
    right: Term


@dataclass(frozen=True)
class Divide:
    left: Term
    right: Term


@dataclass(frozen=True)
class Neg:
    operand: Term


Term = Union[Variable, Rational, Plus, Minus, Times, Divide, Neg]


# ---------------------------------------------------------------------------
# Formulas

COMPARISON_OPS = ("<=", "<", "=", "!=", ">", ">=")


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class FalseF:
    pass


TRUE = TrueF()
FALSE = FalseF()


@dataclass(frozen=True)
class Compare:
    op: str
    left: Term
    right: Term

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")


@dataclass(frozen=True)
class Not:
    operand: Formula


@dataclass(frozen=True)
class And:
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or:
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies:
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall:
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists:
    var: str
    body: Formula


@dataclass(frozen=True)
class Box:
    """`[program] post`: post holds after every run of program."""

    program: Program
    post: Formula


Formula = Union[TrueF, FalseF, Compare, Not, And, Or, Implies, Forall, Exists, Box]


# ---------------------------------------------------------------------------
# Hybrid programs


@dataclass(frozen=True)
class Test:
    condition: Formula


@dataclass(frozen=True)
class Assign:
    var: str
    rhs: Term


@dataclass(frozen=True)
class ODE:
    """`{x' = e, ... & domain}`: continuous evolution inside the domain.

    `equations` maps each evolved variable to its right-hand side; the
    evolution may stop at any time while the domain still holds.
    """

    equations: tuple[tuple[str, Term], ...]
    domain: Formula


@dataclass(frozen=True)
class Seq:
    first: Program
    second: Program


@dataclass(frozen=True)
class Choice:
    left: Program
    right: Program


@dataclass(frozen=True)
class Loop:
    body: Program


Program = Union[Test, Assign, ODE, Seq, Choice, Loop]

Node = Union[Term, Formula, Program]


# ---------------------------------------------------------------------------
# Convenience constructors


def num(value) -> Rational:
    """Exact rational literal from int / str / Fraction.

    Strings go through Fraction's decimal parsing, so num("0.05") is
    exactly 1/20, never a binary float.
    """
    if isinstance(value, float):
        raise TypeError("refusing float literal; pass a str or Fraction")
    return Rational(Fraction(value))


def var(name: str) -> Variable:
    return Variable(name)


def seq(*programs: Program) -> Program:
    """Right-nested sequence of one or more statements.

    Nested `Seq` arguments are flattened first, so the result is always a
    right-leaning chain of non-Seq statements: that is the shape the
    parser produces for `a; b; c`, which keeps parse/print round-trips
    structural.
    """
    flat: list[Program] = []
    for p in programs:
        flat.extend(seq_statements(p))
    if not flat:
        raise ValueError("empty sequence")
    out = flat[-1]
    for p in reversed(flat[:-1]):
        out = Seq(p, out)
    return out


def seq_statements(p: Program) -> list[Program]:
    """Flatten a Seq chain into its statement list (left to right)."""
    if isinstance(p, Seq):
        return seq_statements(p.first) + seq_statements(p.second)
    return [p]


def choice(*programs: Program) -> Program:
    """Left-nested choice over one or more alternatives (parser shape)."""
    if not programs:
        raise ValueError("empty choice")
    out = programs[0]
    for p in programs[1:]:
        out = Choice(out, p)
    return out


def choice_alternatives(p: Program) -> list[Program]:
    """Flatten a Choice chain into its alternatives (left to right)."""
    if isinstance(p, Choice):
        return choice_alternatives(p.left) + choice_alternatives(p.right)
    return [p]


def conj(*formulas: Formula) -> Formula:
    """Left-nested conjunction; `conj()` is `true`."""
    flat = [f for f in formulas if not isinstance(f, TrueF)]
    if not flat:
        return TRUE
    out = flat[0]
    for f in flat[1:]:
        out = And(out, f)
    return out


def conjuncts(f: Formula) -> list[Formula]:
    """Flatten an And chain into its conjuncts (left to right)."""
    if isinstance(f, And):
        return conjuncts(f.left) + conjuncts(f.right)
    return [f]


# ---------------------------------------------------------------------------
# Generic traversal


def children(node: Node) -> tuple[Node, ...]:
    if isinstance(node, (Variable, Rational, TrueF, FalseF)):
        return ()
    if isinstance(node, (Plus, Minus, Times, Divide)):
        return (node.left, node.right)
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, Compare):
        return (node.left, node.right)
    if isinstance(node, Not):
        return (node.operand,)
    if isinstance(node, (And, Or, Implies)):
        return (node.left, node.right)
    if isinstance(node, (Forall, Exists)):
        return (node.body,)
    if isinstance(node, Box):
        return (node.program, node.post)
    if isinstance(node, Test):
        return (node.condition,)
    if isinstance(node, Assign):
        return (node.rhs,)
    if isinstance(node, ODE):
        return tuple(rhs for _, rhs in node.equations) + (node.domain,)
    if isinstance(node, Seq):
        return (node.first, node.second)
    if isinstance(node, Choice):
        return (node.left, node.right)
    if isinstance(node, Loop):
        return (node.body,)
    raise TypeError(f"not an AST node: {node!r}")


def walk(node: Node) -> Iterator[Node]:
    """Yield node and every descendant, depth first."""
    yield node
    for child in children(node):
        yield from walk(child)


# ---------------------------------------------------------------------------
# Canonical ordering + AC normalisation

_Key = tuple  # recursive (tag: str, children: tuple[_Key, ...])


def canonical_key(node: Node) -> _Key:
    """Total, deterministic order key: (kind tag, child keys).

    Identifier names and exact rational values are folded into the tag so
    every key has the homogeneous shape (str, tuple), which Python tuples
    compare without type errors.
    """
    if isinstance(node, Variable):
        return (f"var:{node.name}", ())
    if isinstance(node, Rational):
        return (f"num:{node.value.numerator}/{node.value.denominator}", ())
    if isinstance(node, Plus):
        return ("plus", (canonical_key(node.left), canonical_key(node.right)))
    if isinstance(node, Minus):
        return ("minus", (canonical_key(node.left), canonical_key(node.right)))
    if isinstance(node, Times):
        return ("times", (canonical_key(node.left), canonical_key(node.right)))
    if isinstance(node, Divide):
        return ("divide", (canonical_key(node.left), canonical_key(node.right)))
    if isinstance(node, Neg):
        return ("neg", (canonical_key(node.operand),))
    if isinstance(node, TrueF):
        return ("true", ())
    if isinstance(node, FalseF):
        return ("false", ())
    if isinstance(node, Compare):
        return (f"cmp:{node.op}", (canonical_key(node.left), canonical_key(node.right)))
    if isinstance(node, Not):
        return ("not", (canonical_key(node.operand),))
    if isinstance(node, And):
        return ("and", (canonical_key(node.left), canonical_key(node.right)))
    if isinstance(node, Or):
        return ("or", (canonical_key(node.left), canonical_key(node.right)))
    if isinstance(node, Implies):
        return ("implies", (canonical_key(node.left), canonical_key(node.right)))
    if isinstance(node, Forall):
        return (f"forall:{node.var}", (canonical_key(node.body),))
    if isinstance(node, Exists):
        return (f"exists:{node.var}", (canonical_key(node.body),))
    if isinstance(node, Box):
        return ("box", (canonical_key(node.program), canonical_key(node.post)))
    if isinstance(node, Test):
        return ("test", (canonical_key(node.condition),))
    if isinstance(node, Assign):
        return (f"assign:{node.var}", (canonical_key(node.rhs),))
    if isinstance(node, ODE):
        eq_keys = tuple(
            (f"eq:{v}", (canonical_key(rhs),)) for v, rhs in node.equations
        )
        return ("ode", eq_keys + (canonical_key(node.domain),))
    if isinstance(node, Seq):
        return ("seq", (canonical_key(node.first), canonical_key(node.second)))
    if isinstance(node, Choice):
        return ("choice", (canonical_key(node.left), canonical_key(node.right)))
    if isinstance(node, Loop):
        return ("loop", (canonical_key(node.body),))
    raise TypeError(f"not an AST node: {node!r}")


def normalize_ac(node: Node) -> Node:
    """Canonical form modulo the AC laws of composition.

    Rewrites, recursively:
      * choice chains: flattened and sorted by canonical key,
      * ODE equation lists: sorted by canonical key,
      * conjunction chains inside evolution domains: flattened and sorted.
    Everything else (terms, tests, formula structure outside domains) is
    left untouched. Idempotent, and preserves the multiset of atomic
    statements by construction (sorting never drops or invents leaves).
    """
    if isinstance(node, Choice):
        alts = [normalize_ac(a) for a in choice_alternatives(node)]
        alts.sort(key=canonical_key)
        return choice(*alts)
    if isinstance(node, ODE):
        eqs = sorted(
            ((v, rhs) for v, rhs in node.equations),
            key=lambda e: (f"eq:{e[0]}", (canonical_key(e[1]),)),
        )
        parts = [normalize_ac(c) for c in conjuncts(node.domain)]
        parts.sort(key=canonical_key)
        return ODE(tuple(eqs), conj(*parts) if parts else TRUE)
    if isinstance(node, Seq):
        return Seq(normalize_ac(node.first), normalize_ac(node.second))
    if isinstance(node, Loop):
        return Loop(normalize_ac(node.body))
    if isinstance(node, Test):
        return Test(normalize_ac(node.condition))
    if isinstance(node, Not):
        return Not(normalize_ac(node.operand))
    if isinstance(node, And):
        return And(normalize_ac(node.left), normalize_ac(node.right))
    if isinstance(node, Or):
        return Or(normalize_ac(node.left), normalize_ac(node.right))
    if isinstance(node, Implies):
        return Implies(normalize_ac(node.left), normalize_ac(node.right))
    if isinstance(node, Forall):
        return Forall(node.var, normalize_ac(node.body))
    if isinstance(node, Exists):
        return Exists(node.var, normalize_ac(node.body))
    if isinstance(node, Box):
        return Box(normalize_ac(node.program), normalize_ac(node.post))
    # Assign, Variable, Rational, arithmetic, Compare, TrueF/FalseF: no AC
    # shapes below them that this pass reorders.
    return node


# ---------------------------------------------------------------------------
# Rational literal formatting


def fraction_to_text(value: Fraction) -> str:
    """Exact decimal rendering when one exists, else `p/q`.

    1/20 -> "0.05", 3 -> "3", 7/100 -> "0.07", 1/3 -> "1/3".
    """
    num_, den = value.numerator, value.denominator
    if den == 1:
        return str(num_)
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num_}/{den}"
    k = max(twos, fives)
    scaled = abs(num_) * 10**k // den
    digits = str(scaled).rjust(k + 1, "0")
    sign = "-" if num_ < 0 else ""
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


# ---------------------------------------------------------------------------
# Pretty printer (concrete syntax; the parser in ccskit.dsl is its inverse)

_TERM_ATOM, _TERM_UNARY, _TERM_MUL, _TERM_ADD = 4, 3, 2, 1


def _print_term(t: Term, parent_level: int, right_side: bool = False) -> str:
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, Rational):
        return fraction_to_text(t.value)
    if isinstance(t, Neg):
        body = _print_term(t.operand, _TERM_UNARY)
        text = f"-{body}"
        level = _TERM_UNARY
    elif isinstance(t, (Times, Divide)):
        op = "*" if isinstance(t, Times) else "/"
        text = (
            f"{_print_term(t.left, _TERM_MUL)} {op} "
            f"{_print_term(t.right, _TERM_MUL, right_side=True)}"
        )
        level = _TERM_MUL
    elif isinstance(t, (Plus, Minus)):
        op = "+" if isinstance(t, Plus) else "-"
        text = (
            f"{_print_term(t.left, _TERM_ADD)} {op} "
            f"{_print_term(t.right, _TERM_ADD, right_side=True)}"
        )
        level = _TERM_ADD
    else:
        raise TypeError(f"not a term: {t!r}")
    # Left-associative grammar: a right child at the same level needs parens
    # to survive a round trip ("a - (b - c)").
    if level < parent_level or (level == parent_level and right_side):
        return f"({text})"
    return text


def print_term(t: Term) -> str:
    return _print_term(t, 0)


_F_ATOM, _F_NOT, _F_AND, _F_OR, _F_IMP = 5, 4, 3, 2, 1


def _print_formula(f: Formula, parent_level: int, right_side: bool = False) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Compare):
        return f"{print_term(f.left)} {f.op} {print_term(f.right)}"
    if isinstance(f, Forall):
        return f"forall {f.var} ({_print_formula(f.body, 0)})"
    if isinstance(f, Exists):
        return f"exists {f.var} ({_print_formula(f.body, 0)})"
    if isinstance(f, Box):
        post = _print_formula(f.post, _F_NOT)
        return f"[{print_program_inline(f.program)}] {post}"
    if isinstance(f, Not):
        text = f"!{_print_formula(f.operand, _F_NOT)}"
        level = _F_NOT
    elif isinstance(f, And):
        text = (
            f"{_print_formula(f.left, _F_AND)} & "
            f"{_print_formula(f.right, _F_AND, right_side=True)}"
        )
        level = _F_AND
    elif isinstance(f, Or):
        text = (
            f"{_print_formula(f.left, _F_OR)} | "
            f"{_print_formula(f.right, _F_OR, right_side=True)}"
        )
        level = _F_OR
    elif isinstance(f, Implies):
        # Right-associative: the *left* child needs parens at equal level.
        text = (
            f"{_print_formula(f.left, _F_IMP + 1)} -> "
            f"{_print_formula(f.right, _F_IMP)}"
        )
        level = _F_IMP
    else:
        raise TypeError(f"not a formula: {f!r}")
    if level < parent_level or (level == parent_level and right_side):
        return f"({text})"
    return text


def print_formula(f: Formula) -> str:
    return _print_formula(f, 0)


def _print_statement(p: Program) -> str:
    """One statement, without a trailing separator."""
    if isinstance(p, Test):
        return f"?({print_formula(p.condition)})"
    if isinstance(p, Assign):
        return f"{p.var} := {print_term(p.rhs)}"
    if isinstance(p, ODE):
        eqs = ", ".join(f"{v}' = {print_term(rhs)}" for v, rhs in p.equations)
        return f"{{{eqs} & {print_formula(p.domain)}}}"
    if isinstance(p, Choice):
        alts = " U ".join(
            print_program_inline(a) for a in choice_alternatives(p)
        )
        return f"({alts})"
    if isinstance(p, Loop):
        return f"({print_program_inline(p.body)})*"
    if isinstance(p, Seq):
        # A Seq used where a single statement is required (its parent Seq had
        # a non-atomic first element): grouping parens keep the tree shape.
        return f"({print_program_inline(p)})"
    raise TypeError(f"not a program: {p!r}")


def print_program_inline(p: Program) -> str:
    """Statements joined by `; ` without a trailing terminator (the form

    used inside choices, loop bodies and boxes).
    """
    if isinstance(p, Seq):
        first = _print_statement(p.first)
        return f"{first}; {print_program_inline(p.second)}"
    return _print_statement(p)


def print_program(p: Program) -> str:
    """Top-level program text; every statement ends with `;`."""
    return print_program_inline(p) + ";"


def pretty_print(node: Node) -> str:
    """Concrete syntax for any AST node.

    Programs get the top-level statement-terminator form, formulas and
    terms their plain expression form.
    """
    if isinstance(node, (Test, Assign, ODE, Seq, Choice, Loop)):
        return print_program(node)
    if isinstance(
        node, (TrueF, FalseF, Compare, Not, And, Or, Implies, Forall, Exists, Box)
    ):
        return print_formula(node)
    return print_term(node)
