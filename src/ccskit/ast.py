"""Abstract syntax for terms, first-order formulas and hybrid programs.

Design notes

* Every node is an immutable `Node`, a `Record`: structural equality and
  hashing come from the field tuples, so two independently built trees
  compare equal exactly when they are the same tree. No interning, no
  identity games.
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

from fractions import Fraction
from operator import attrgetter
from typing import Iterator, Union


class Record:
    """An immutable record, built from its fields by position or by name.

    Each subclass names its fields, in constructor order, in `__slots__`;
    a slot whose name starts with `_` is private state, not a field. The
    field tuple (`_fields`) drives equality, hashing, `repr`, copying,
    pickling and `replace`. `_defaults` maps trailing fields to the value
    an omitted one takes; `_uncompared` names fields that equality,
    hashing and `repr` leave out.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls._fields = tuple(f for f in cls.__slots__ if f[0] != "_")
        # Each slot's own setter: the fastest write past __setattr__.
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)
        cls._values = _getter(fields)
        cls._compared = tuple(f for f in fields if f not in cls._uncompared)
        cls._key = _getter(cls._compared)

    def __init__(self, *values, **named) -> None:
        if named or len(values) != len(self._fields):
            values = self._complete(values, named)
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    @classmethod
    def _complete(cls, values: tuple, named: dict) -> list:
        """Every field's value, in order: given by position, by name, or
        the default."""
        rest = cls._fields[len(values):]
        if len(values) > len(cls._fields) or not named.keys() <= set(rest):
            raise TypeError(f"{cls.__name__} takes the fields {cls._fields}")
        given = {**cls._defaults, **named}
        try:
            return [*values, *[given[f] for f in rest]]
        except KeyError as missing:
            raise TypeError(f"{cls.__name__} is missing field {missing}") from None

    def _values(self) -> tuple:
        """The field values, in `_fields` order."""
        return ()

    def _asdict(self) -> dict:
        """The compared fields by name, in order."""
        return dict(zip(self._compared, self._key()))

    def replace(self, **changes):
        """A copy with the named fields changed."""
        values = [changes.pop(f, v) for f, v in zip(self._fields, self._values())]
        return type(self)(*values, **changes)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def _kept(self, slot: str, make):
        """The private `slot`, set to `make()` on first use: a per-record
        cache that equality, hashing, `repr` and pickling leave out."""
        try:
            return getattr(self, slot)
        except AttributeError:
            object.__setattr__(self, slot, make())
            return getattr(self, slot)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _getter(fields: tuple[str, ...]):
    """record -> the tuple of the named fields' values. (attrgetter gives a
    bare value for one name, and does not bind as a method.)"""
    if not fields:
        return lambda self: ()
    get = attrgetter(*fields)
    if len(fields) == 1:
        return lambda self: (get(self),)
    return lambda self: get(self)


class Node(Record):
    """A syntax node: its fields are the children and labels that the
    generic traversals below walk."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Terms


class Variable(Node):
    __slots__ = ("name",)


class Rational(Node):
    """Exact rational literal. Always non-negative in concrete syntax;

    negative values are representable but print as `p/q` or via `Neg`.
    """

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        super().__init__(value if isinstance(value, Fraction) else Fraction(value))


class Plus(Node):
    __slots__ = ("left", "right")


class Minus(Node):
    __slots__ = ("left", "right")


class Times(Node):
    __slots__ = ("left", "right")


class Divide(Node):
    __slots__ = ("left", "right")


class Neg(Node):
    __slots__ = ("operand",)


Term = Union[Variable, Rational, Plus, Minus, Times, Divide, Neg]


# ---------------------------------------------------------------------------
# Formulas

COMPARISON_OPS = ("<=", "<", "=", "!=", ">", ">=")


class TrueF(Node):
    __slots__ = ()


class FalseF(Node):
    __slots__ = ()


TRUE = TrueF()
FALSE = FalseF()


class Compare(Node):
    """`left op right`, with `op` one of COMPARISON_OPS."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Term, right: Term) -> None:
        if op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        super().__init__(op, left, right)


class Not(Node):
    __slots__ = ("operand",)


class And(Node):
    __slots__ = ("left", "right")


class Or(Node):
    __slots__ = ("left", "right")


class Implies(Node):
    __slots__ = ("left", "right")


class Forall(Node):
    __slots__ = ("var", "body")


class Exists(Node):
    __slots__ = ("var", "body")


class Box(Node):
    """`[program] post`: post holds after every run of program."""

    __slots__ = ("program", "post")


Formula = Union[TrueF, FalseF, Compare, Not, And, Or, Implies, Forall, Exists, Box]


# ---------------------------------------------------------------------------
# Hybrid programs


class Test(Node):
    __slots__ = ("condition",)


class Assign(Node):
    __slots__ = ("var", "rhs")


class ODE(Node):
    """`{x' = e, ... & domain}`: continuous evolution inside the domain.

    `equations` is a tuple of `(variable, right-hand side)` pairs; the
    evolution may stop at any time while the domain still holds.
    """

    __slots__ = ("equations", "domain")


class Seq(Node):
    __slots__ = ("first", "second")


class Choice(Node):
    __slots__ = ("left", "right")


class Loop(Node):
    __slots__ = ("body",)


Program = Union[Test, Assign, ODE, Seq, Choice, Loop]


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
    """The node-valued fields in order; an ODE's right-hand sides first."""
    if isinstance(node, ODE):
        return tuple(rhs for _, rhs in node.equations) + (node.domain,)
    return tuple([v for v in node._values() if isinstance(v, Node)])


def walk(node: Node) -> Iterator[Node]:
    """Yield node and every descendant, depth first."""
    yield node
    for child in children(node):
        yield from walk(child)


# ---------------------------------------------------------------------------
# Canonical ordering + AC normalisation

_Key = tuple  # recursive (tag: str, children: tuple[_Key, ...])

_KEY_TAGS = {"Variable": "var", "Compare": "cmp", "TrueF": "true", "FalseF": "false"}


def canonical_key(node: Node) -> _Key:
    """Total, deterministic order key: (kind tag, child keys).

    The tag is the lowercased class name (or its `_KEY_TAGS` short form)
    followed by `:value` for each identifier or operator field; exact
    rational values are folded in the same way, so every key has the
    homogeneous shape (str, tuple), which Python tuples compare without
    type errors.
    """
    if isinstance(node, Rational):
        return (f"num:{node.value.numerator}/{node.value.denominator}", ())
    if isinstance(node, ODE):
        eq_keys = tuple(
            (f"eq:{v}", (canonical_key(rhs),)) for v, rhs in node.equations
        )
        return ("ode", eq_keys + (canonical_key(node.domain),))
    name = type(node).__name__
    tag = _KEY_TAGS.get(name, name.lower())
    keys = []
    for value in node._values():
        if isinstance(value, str):
            tag += f":{value}"
        else:
            keys.append(canonical_key(value))
    return (tag, tuple(keys))


def normalize_ac(node: Node) -> Node:
    """Canonical form modulo the AC laws of composition.

    Rewrites, recursively:
      * choice chains: flattened and sorted by canonical key,
      * ODE equation lists: sorted by canonical key,
      * conjunction chains inside evolution domains: flattened and sorted.
    Everything else (terms, tests, formula structure outside domains) is
    left untouched: a node none of whose children changed is returned as
    it is. Idempotent, and preserves the multiset of atomic statements by
    construction (sorting never drops or invents leaves).
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
    values = node._values()
    normal = tuple(normalize_ac(v) if isinstance(v, Node) else v for v in values)
    return node if normal == values else type(node)(*normal)


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

# A target syntax: the token between choice alternatives and the prefix of
# the quantifier keywords (terms print the same in every target).
CCS_SYNTAX = ("U", "")


def _print_formula(
    f: Formula, syntax: tuple[str, str], parent_level: int, right_side: bool = False
) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Compare):
        return f"{print_term(f.left)} {f.op} {print_term(f.right)}"
    if isinstance(f, (Forall, Exists)):
        keyword = "forall" if isinstance(f, Forall) else "exists"
        return f"{syntax[1]}{keyword} {f.var} ({_print_formula(f.body, syntax, 0)})"
    if isinstance(f, Box):
        post = _print_formula(f.post, syntax, _F_NOT)
        return f"[{print_program_inline(f.program, syntax)}] {post}"
    if isinstance(f, Not):
        text = f"!{_print_formula(f.operand, syntax, _F_NOT)}"
        level = _F_NOT
    elif isinstance(f, And):
        text = (
            f"{_print_formula(f.left, syntax, _F_AND)} & "
            f"{_print_formula(f.right, syntax, _F_AND, right_side=True)}"
        )
        level = _F_AND
    elif isinstance(f, Or):
        text = (
            f"{_print_formula(f.left, syntax, _F_OR)} | "
            f"{_print_formula(f.right, syntax, _F_OR, right_side=True)}"
        )
        level = _F_OR
    elif isinstance(f, Implies):
        # Right-associative: the *left* child needs parens at equal level.
        text = (
            f"{_print_formula(f.left, syntax, _F_IMP + 1)} -> "
            f"{_print_formula(f.right, syntax, _F_IMP)}"
        )
        level = _F_IMP
    else:
        raise TypeError(f"not a formula: {f!r}")
    if level < parent_level or (level == parent_level and right_side):
        return f"({text})"
    return text


def print_formula(f: Formula, syntax: tuple[str, str] = CCS_SYNTAX) -> str:
    return _print_formula(f, syntax, 0)


def _print_statement(p: Program, syntax: tuple[str, str]) -> str:
    """One statement, without a trailing separator."""
    if isinstance(p, Test):
        return f"?({print_formula(p.condition, syntax)})"
    if isinstance(p, Assign):
        return f"{p.var} := {print_term(p.rhs)}"
    if isinstance(p, ODE):
        eqs = ", ".join(f"{v}' = {print_term(rhs)}" for v, rhs in p.equations)
        return f"{{{eqs} & {print_formula(p.domain, syntax)}}}"
    if isinstance(p, Choice):
        alts = f" {syntax[0]} ".join(
            print_program_inline(a, syntax) for a in choice_alternatives(p)
        )
        return f"({alts})"
    if isinstance(p, Loop):
        return f"({print_program_inline(p.body, syntax)})*"
    if isinstance(p, Seq):
        # A Seq used where a single statement is required (its parent Seq had
        # a non-atomic first element): grouping parens keep the tree shape.
        return f"({print_program_inline(p, syntax)})"
    raise TypeError(f"not a program: {p!r}")


def print_program_inline(p: Program, syntax: tuple[str, str] = CCS_SYNTAX) -> str:
    """Statements joined by `; ` without a trailing terminator (the form

    used inside choices, loop bodies and boxes).
    """
    if isinstance(p, Seq):
        first = _print_statement(p.first, syntax)
        return f"{first}; {print_program_inline(p.second, syntax)}"
    return _print_statement(p, syntax)


def print_program(p: Program) -> str:
    """Top-level program text; every statement ends with `;`."""
    return print_program_inline(p) + ";"


def pretty_print(node: Node) -> str:
    """Concrete syntax for any AST node.

    Programs get the top-level statement-terminator form, formulas and
    terms their plain expression form.
    """
    if isinstance(node, Program):
        return print_program(node)
    if isinstance(node, Formula):
        return print_formula(node)
    return print_term(node)
