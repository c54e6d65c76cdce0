"""Concrete syntax for component models.

A model file is a sequence of declarations:

    const fout = 0.75

    controller wlctrl every 0.05 {
      wlm := wl;
      (?(wlm >= 6.5); fin := 0 U ?(wlm <= 3.5); fin := 1 U ?(wlm > 3.5 & wlm < 6.5); fin := fin);
    }

    plant tank within 0.2 {
      wl' = fin - fout & wl >= 0
    }

    contract wlctrl {
      assume 3 <= wl & wl <= 7
      guarantee (wlm <= 3.5 -> fin = 1) & (6.5 <= wlm -> fin = 0)
      init wl = wlm
    }

    invariant watertank: wl = (fin - fout) * (t - tau_1) + wlm

    system watertank = wlctrl | tank

`parse` produces a declaration-level ModelSource without building or
gating anything; `load` resolves names, allocates timestamps in system
declaration order (tau_1, tau_2, ...) and assembles the gated closed
loop. The split matters: ill-composed models (shared outputs, cost over
bound) still parse, print and round-trip; they only fail to load.

Number literals are exact: decimals go through Fraction's base-10
parsing (0.05 is one twentieth, not a binary float). The serializer
emits decimals whenever the denominator allows it and `p/q` otherwise,
which `parse` reads back as an exact division.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache

from .ast import (
    Assign,
    Box,
    COMPARISON_OPS,
    Compare,
    Divide,
    Exists,
    FALSE,
    Forall,
    Formula,
    Implies,
    Loop,
    Minus,
    Neg,
    Not,
    ODE,
    Or,
    And,
    Plus,
    Program,
    Rational,
    Record,
    Term,
    Test,
    Times,
    TRUE,
    TrueF,
    Variable,
    choice,
    conj,
    conjuncts,
    fraction_to_text,
    print_formula,
    print_program_inline,
    print_term,
    seq,
    seq_statements,
)
from .components import (
    MCCS,
    Contract,
    ControllablePlant,
    Environment,
    MultiChoiceController,
    ReactiveController,
    TIMESTAMP_PREFIX,
    make_ccs,
    make_controllable_plant,
    make_reactive_controller,
)
from .composition import CostModel, compose_controllers, compose_plants
from .errors import CcsError, MissingContract, ParseError, UnresolvedName

KEYWORDS = frozenset(
    {
        "const",
        "controller",
        "plant",
        "contract",
        "invariant",
        "system",
        "every",
        "within",
        "assume",
        "guarantee",
        "init",
        "true",
        "false",
        "forall",
        "exists",
        "U",
    }
)


# ---------------------------------------------------------------------------
# Tokens


class Token(Record):
    # kind is "number", "name", "op" or "eof".
    __slots__ = ("kind", "text", "line", "col")


# One match per token: the whitespace and comments before it, then the
# token, or the end of the text, or a character no token starts with. As
# nothing after the skipped run can fail, a match never backtracks. Past
# a last match that ends the text, `findall` adds one of no characters.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*
    (?:( [A-Za-z_][A-Za-z0-9_]*                       # name
       | [0-9]+(?:\.[0-9]+)?                          # number
       | [:<>!]=|->|[-+*/(){}\[\];,:'&|!<>=?] )      # op
    | \Z | . )""",
    re.VERBOSE,
)


def _scan(text: str) -> list[str]:
    """The texts of the tokens of `text`, and "" for its end."""
    texts = _TOKEN_RE.findall(text + "\n")  # so always one empty match more
    texts.pop()
    first = texts.index("")
    if first < len(texts) - 1:  # a character no token starts with
        at = list(_TOKEN_RE.finditer(text))[first].end() - 1
        line = text.count("\n", 0, at) + 1
        raise ParseError(line, at - text.rfind("\n", 0, at), "a token", text[at])
    return texts


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for t, m in zip(_scan(text), _TOKEN_RE.finditer(text)):
        at = m.start(1) if t else len(text)
        breaks = text.count("\n", m.start(), at)  # in the run skipped before it
        if breaks:
            line += breaks
            line_start = text.rindex("\n", 0, at) + 1
        kind = "number" if t[:1].isdigit() else "name" if t.isidentifier() else "op"
        tokens.append(Token(kind if t else "eof", t, line, at - line_start + 1))
    return tokens


@lru_cache(maxsize=4096)
def _leaf(text: str) -> Term | None:
    """The literal or variable that the token `text` reads as, if any:
    built once per text, as terms keep nothing and trees may share them."""
    if text[:1].isdigit():
        return Rational(Fraction(text))
    return Variable(text) if text.isidentifier() and text not in KEYWORDS else None


# ---------------------------------------------------------------------------
# Declarations


class ConstDecl(Record):
    __slots__ = ("name", "value")


class ControllerDecl(Record):
    __slots__ = ("name", "reactivity", "body")


class PlantDecl(Record):
    __slots__ = ("name", "controllability", "equations", "domain")


class ContractDecl(Record):
    __slots__ = ("component", "contract")


class InvariantDecl(Record):
    __slots__ = ("name", "formula")


class SystemDecl(Record):
    __slots__ = ("name", "controllers", "plants")


class ModelSource(Record):
    __slots__ = (
        "consts", "controllers", "plants", "contracts", "invariants", "systems"
    )
    _defaults = dict.fromkeys(__slots__, ())


# ---------------------------------------------------------------------------
# Parser


# At most the interpreter frames the parser's recursion holds: one per `!` or
# unary `-`, two per box, three per program, five per formula or bracketed term.
# The later passes over a tree (printing, emitting, free variables) recurse as
# deep as the tree: one frame per link of a left-deep `+ - * / & |` chain, a
# `;` statement list, a `U` choice list or the `&` chain of a model's consts,
# which the parser reads in a loop, on top of what encloses it less the brackets.
# Both are kept under MAX_NESTING, well under Python's limit of 1000, so a
# model loads the same from any caller.
MAX_NESTING = 600
# The left-deep chains of binary operators, loosest first (see _chain).
_CHAINS = ({"|": Or}, {"&": And}, {"+": Plus, "-": Minus}, {"*": Times, "/": Divide})


class _Parser:
    def __init__(self, text: str):
        """A parser over `text`, which it reads as token texts alone."""
        self.text = text
        self.texts = _scan(text)
        self.pos = 0
        self.depth = 0  # the frames held, as MAX_NESTING counts them
        self.level = 0  # those of them that are levels of the tree, not brackets
        self.tallest = 0  # the deepest level a chain closed in this scope reaches

    def nest(self, frames: int, node=None, bracket: int = 0):
        """`node`, once `frames` more frames are counted as held (fewer,
        released, when negative), `bracket` of them for no tree level.
        Past MAX_NESTING, raise RecursionError: the input nests too
        deeply."""
        self.depth += frames
        self.level += frames - bracket
        if self.depth > MAX_NESTING:
            raise RecursionError(f"input nests more than {MAX_NESTING} levels deep")
        return node

    # -- primitives

    @cached_property
    def tokens(self) -> list[Token]:
        """The tokens, with their lines and columns: built when an
        error's position is first asked for, and kept, as backtracking
        on `(` can raise several errors in one parse."""
        return tokenize(self.text)

    def error(self, expected: str) -> ParseError:
        tok = self.tokens[self.pos]
        return ParseError(tok.line, tok.col, expected, tok.text or "end of input")

    def expect(self, text: str) -> None:
        if self.texts[self.pos] != text:
            raise self.error(f"{text!r}")
        self.pos += 1

    def expect_name(self, what: str = "a name") -> str:
        text = self.texts[self.pos]
        if not text.isidentifier() or text in KEYWORDS:
            raise self.error(what)
        self.pos += 1
        return text

    def accept(self, text: str) -> bool:
        """Whether the next token is `text`, consumed when it is."""
        found = self.texts[self.pos] == text
        self.pos += found
        return found

    # -- terms

    def parse_term(self) -> Term:
        return self._chain(2)

    def linked(self, outer: int, links: int, node):
        """`node`, a chain or a `;` or `U` list of `links` links, read in
        a loop after `tallest` was saved in `outer` and reset. Its tree is
        one level per link deeper than its deepest item: this level, or
        the deepest list within it, which `tallest` holds. On the way out
        `tallest` holds the deeper of that list and those closed before
        it (`outer`), so the depths of siblings do not add up. Past
        MAX_NESTING, raise RecursionError."""
        if links:
            peak = max(self.tallest, self.level) + links
            if peak > MAX_NESTING:
                raise RecursionError(f"input nests more than {MAX_NESTING} levels deep")
            self.tallest = peak
        if outer > self.tallest:
            self.tallest = outer
        return node

    def _chain(self, level: int):
        """A left-deep chain of the operators of `_CHAINS[level]`, a list
        (see `linked`): over chains of the next level, or over `!` forms
        (level 1) or `-` forms (level 3)."""
        outer, self.tallest = self.tallest, 0
        ops, make, links = _CHAINS[level], None, -1
        while True:
            right = (self._chain(level + 1) if level in (0, 2) else
                     self._not_formula() if level == 1 else self._unary())
            out = right if make is None else make(out, right)
            links += 1
            make = ops.get(self.texts[self.pos])
            if make is None:
                break
            self.pos += 1
        # With no link and no list closed before it, `linked` changes nothing.
        return self.linked(outer, links, out) if links or outer else out

    def _unary(self) -> Term:
        text = self.texts[self.pos]
        leaf = _leaf(text)
        if leaf is not None:
            self.pos += 1
            return leaf
        if text == "-":
            self.pos += 1
            self.nest(1)
            return self.nest(-1, Neg(self._unary()))
        if text == "(":
            self.pos += 1
            self.nest(5, bracket=5)
            inner = self.nest(-5, self.parse_term(), -5)
            self.expect(")")
            return inner
        raise self.error("a term")

    # -- formulas

    def parse_formula(self) -> Formula:
        self.nest(5, bracket=4)  # a level only as an implication
        left = self.nest(-4, self._chain(0), -4)  # past it, only this frame is held
        if self.accept("->"):
            return self.nest(-1, Implies(left, self.parse_formula()))
        return self.nest(-1, left)

    def _not_formula(self) -> Formula:
        text = self.texts[self.pos]
        if text == "!":
            self.pos += 1
            self.nest(1)
            return self.nest(-1, Not(self._not_formula()))
        if text in ("true", "false"):
            self.pos += 1
            return TRUE if text == "true" else FALSE
        if text in ("forall", "exists"):
            self.pos += 1
            name = self.expect_name("a quantified variable")
            self.expect("(")
            body = self.parse_formula()
            self.expect(")")
            return Forall(name, body) if text == "forall" else Exists(name, body)
        if text == "[":
            self.pos += 1
            prog = self.parse_program()
            self.expect("]")
            self.nest(2)
            return self.nest(-2, Box(prog, self._not_formula()))
        if text == "(":
            # Either a parenthesised formula or a parenthesised term starting
            # a comparison; try the formula reading first and fall back.
            mark = self.pos, self.depth, self.level, self.tallest
            self.pos += 1
            try:
                inner = self.parse_formula()
                self.expect(")")
                return inner
            except ParseError:
                self.pos, self.depth, self.level, self.tallest = mark
        left = self.parse_term()
        op = self.texts[self.pos]
        if op not in COMPARISON_OPS:
            raise self.error("a comparison operator")
        self.pos += 1
        return Compare(op, left, self.parse_term())

    # -- programs

    def _starts_statement(self) -> bool:
        """A test, an ODE, a parenthesised choice or an assignment comes
        next; a `;` followed by anything else ends the statement list."""
        text = self.texts[self.pos]
        return text in ("?", "{", "(") or text.isidentifier() and text not in KEYWORDS

    def parse_choice(self) -> Program:
        """Statement lists separated by `U`, a list (see `linked`)."""
        outer, self.tallest = self.tallest, 0
        alternatives = [self.parse_program()]
        while self.accept("U"):
            alternatives.append(self.parse_program())
        return self.linked(outer, len(alternatives) - 1, choice(*alternatives))

    def parse_program(self) -> Program:
        """Statements separated by `;`, a list (see `linked`)."""
        self.nest(3)
        outer, self.tallest = self.tallest, 0
        statements = [self._statement()]
        while self.accept(";"):
            if not self._starts_statement():
                break
            statements.append(self._statement())
        return self.nest(-3, self.linked(outer, len(statements) - 1, seq(*statements)))

    def _statement(self) -> Program:
        if self.accept("?"):
            self.expect("(")
            condition = self.parse_formula()
            self.expect(")")
            return Test(condition)
        if self.accept("{"):
            equations, domain = self._ode_body()
            self.expect("}")
            return ODE(equations, domain)
        if self.accept("("):
            inner = self.parse_choice()
            self.expect(")")
            if self.accept("*"):
                return Loop(inner)
            return inner
        if self._starts_statement():
            name = self.expect_name()
            self.expect(":=")
            return Assign(name, self.parse_term())
        raise self.error("a statement")

    def _ode_body(self) -> tuple[tuple[tuple[str, Term], ...], Formula]:
        equations: list[tuple[str, Term]] = []
        while True:
            name = self.expect_name("an evolved variable")
            self.expect("'")
            self.expect("=")
            equations.append((name, self.parse_term()))
            if not self.accept(","):
                break
        domain: Formula = TRUE
        if self.accept("&"):
            domain = self.parse_formula()
        return tuple(equations), domain

    # -- constant expressions

    def parse_const_expr(self, env: dict[str, Fraction]) -> Fraction:
        start = self.pos
        term = self.parse_term()
        try:
            return _fold_const(term, env)
        except ZeroDivisionError:
            tok = self.tokens[start]
            raise ParseError(tok.line, tok.col, "a nonzero divisor") from None
        except KeyError as e:
            tok = self.tokens[start]
            raise ParseError(
                tok.line, tok.col, f"a constant (unknown name {e.args[0]!r})"
            ) from None

    # -- declarations

    def parse_model(self) -> ModelSource:
        consts: list[ConstDecl] = []
        controllers: list[ControllerDecl] = []
        plants: list[PlantDecl] = []
        contracts: list[ContractDecl] = []
        invariants: list[InvariantDecl] = []
        systems: list[SystemDecl] = []
        const_env: dict[str, Fraction] = {}
        while self.texts[self.pos]:
            if self.accept("const"):
                name = self.expect_name("a constant name")
                self.expect("=")
                value = self.parse_const_expr(const_env)
                consts.append(ConstDecl(name, value))
                const_env[name] = value
            elif self.accept("controller"):
                name = self.expect_name("a controller name")
                self.expect("every")
                reactivity = self.parse_const_expr(const_env)
                self.expect("{")
                body = self.parse_program()
                self.expect("}")
                controllers.append(ControllerDecl(name, reactivity, body))
            elif self.accept("plant"):
                name = self.expect_name("a plant name")
                self.expect("within")
                bound = self.parse_const_expr(const_env)
                self.expect("{")
                equations, domain = self._ode_body()
                self.expect("}")
                plants.append(PlantDecl(name, bound, equations, domain))
            elif self.accept("contract"):
                component = self.expect_name("a component name")
                self.expect("{")
                self.expect("assume")
                assume = self.parse_formula()
                self.expect("guarantee")
                guarantee = self.parse_formula()
                self.expect("init")
                init = self.parse_formula()
                self.expect("}")
                contracts.append(
                    ContractDecl(component, Contract(assume, guarantee, init))
                )
            elif self.accept("invariant"):
                name = self.expect_name("a system name")
                self.expect(":")
                invariants.append(InvariantDecl(name, self.parse_formula()))
            elif self.accept("system"):
                name = self.expect_name("a system name")
                self.expect("=")
                ctrl_names = [self.expect_name("a controller name")]
                while self.accept(","):
                    ctrl_names.append(self.expect_name("a controller name"))
                self.expect("|")
                plant_names = [self.expect_name("a plant name")]
                while self.accept(","):
                    plant_names.append(self.expect_name("a plant name"))
                systems.append(
                    SystemDecl(name, tuple(ctrl_names), tuple(plant_names))
                )
            else:
                raise self.error(
                    "a declaration (const / controller / plant / contract / "
                    "invariant / system)"
                )
        # The environment is one `&` chain over the consts (see `_environment`),
        # a list of its own: no other declaration's list lies inside or around it.
        self.tallest = 0
        return ModelSource(
            consts=self.linked(0, len(consts[1:]), tuple(consts)),
            controllers=tuple(controllers),
            plants=tuple(plants),
            contracts=tuple(contracts),
            invariants=tuple(invariants),
            systems=tuple(systems),
        )


def _fold_const(t: Term, env: dict[str, Fraction]) -> Fraction:
    if isinstance(t, Rational):
        return t.value
    if isinstance(t, Variable):
        return env[t.name]
    if isinstance(t, Neg):
        return -_fold_const(t.operand, env)
    if isinstance(t, Plus):
        return _fold_const(t.left, env) + _fold_const(t.right, env)
    if isinstance(t, Minus):
        return _fold_const(t.left, env) - _fold_const(t.right, env)
    if isinstance(t, Times):
        return _fold_const(t.left, env) * _fold_const(t.right, env)
    if isinstance(t, Divide):
        return _fold_const(t.left, env) / _fold_const(t.right, env)
    raise TypeError(f"not a constant term: {t!r}")


def parse(text: str) -> ModelSource:
    """Concrete syntax -> declaration list. No name resolution, no gates."""
    return _Parser(text).parse_model()


def _parse_whole(text: str, rule):
    """`rule` of the parser over all of `text`."""
    p = _Parser(text)
    out = rule(p)
    if p.texts[p.pos]:
        raise p.error("end of input")
    return out


def parse_formula_text(text: str) -> Formula:
    return _parse_whole(text, _Parser.parse_formula)


def parse_term_text(text: str) -> Term:
    return _parse_whole(text, _Parser.parse_term)


def parse_program_text(text: str) -> Program:
    return _parse_whole(text, _Parser.parse_choice)


# ---------------------------------------------------------------------------
# Serializer


def _program_block(p: Program) -> str:
    return "\n".join(f"  {print_program_inline(st)};" for st in seq_statements(p))


def serialize_model(m: ModelSource) -> str:
    """Deterministic concrete syntax; parse(serialize_model(parse(s)))

    equals parse(s) structurally.
    """
    blocks: list[str] = []
    for c in m.consts:
        blocks.append(f"const {c.name} = {fraction_to_text(c.value)}")
    for d in m.controllers:
        blocks.append(
            f"controller {d.name} every {fraction_to_text(d.reactivity)} {{\n"
            f"{_program_block(d.body)}\n}}"
        )
    for d in m.plants:
        eqs = ", ".join(f"{v}' = {print_term(rhs)}" for v, rhs in d.equations)
        blocks.append(
            f"plant {d.name} within {fraction_to_text(d.controllability)} {{\n"
            f"  {eqs} & {print_formula(d.domain)}\n}}"
        )
    for d in m.contracts:
        blocks.append(
            f"contract {d.component} {{\n"
            f"  assume {print_formula(d.contract.assume)}\n"
            f"  guarantee {print_formula(d.contract.guarantee)}\n"
            f"  init {print_formula(d.contract.init)}\n}}"
        )
    for d in m.invariants:
        blocks.append(f"invariant {d.name}: {print_formula(d.formula)}")
    for d in m.systems:
        blocks.append(
            f"system {d.name} = {', '.join(d.controllers)} | "
            f"{', '.join(d.plants)}"
        )
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# Loader: declarations -> gated components


def _environment(m: ModelSource) -> Environment:
    pins: dict[str, Formula] = {}
    for c in m.consts:
        if c.name in pins:
            raise CcsError(f"two const declarations for {c.name!r}")
        pins[c.name] = Compare("=", Variable(c.name), Rational(c.value))
    return Environment(conj(*pins.values()))


Parts = tuple[
    SystemDecl,
    list[ReactiveController],
    list[ControllablePlant],
    Environment,
    Formula,
]


def build_components(source: ModelSource | str, system: str | None = None) -> Parts:
    """Resolve one system declaration into its gated parts.

    Timestamps are allocated tau_1, tau_2, ... in the order controllers
    are listed in the system declaration. A contract must name a declared
    component and an invariant a declared system (UnresolvedName
    otherwise), each at most once.
    """
    m = parse(source) if isinstance(source, str) else source
    if not m.systems:
        raise CcsError("model declares no system")
    if system is None:
        if len(m.systems) > 1:
            names = ", ".join(s.name for s in m.systems)
            raise CcsError(f"model declares several systems ({names}); pick one")
        sysdecl = m.systems[0]
    else:
        matches = [s for s in m.systems if s.name == system]
        if not matches:
            raise UnresolvedName(system, "system declarations")
        sysdecl = matches[0]

    controllers = {d.name: d for d in m.controllers}
    plants = {d.name: d for d in m.plants}
    contracts: dict[str, Contract] = {}
    for d in m.contracts:
        if d.component in contracts:
            raise CcsError(f"two contracts declared for {d.component!r}")
        if d.component not in controllers and d.component not in plants:
            raise UnresolvedName(d.component, "contract declarations")
        contracts[d.component] = d.contract
    systems = {s.name for s in m.systems}
    invariants: dict[str, Formula] = {}
    for d in m.invariants:
        if d.name in invariants:
            raise CcsError(f"two invariants declared for {d.name!r}")
        if d.name not in systems:
            raise UnresolvedName(d.name, "invariant declarations")
        invariants[d.name] = d.formula

    rcs: list[ReactiveController] = []
    for i, name in enumerate(sysdecl.controllers, 1):
        if name not in controllers:
            raise UnresolvedName(name, f"system {sysdecl.name!r}")
        d = controllers[name]
        rcs.append(
            make_reactive_controller(
                name=d.name,
                ctrl=d.body,
                reactivity=d.reactivity,
                timestamp=f"{TIMESTAMP_PREFIX}{i}",
                contract=contracts.get(name),
            )
        )
    cps: list[ControllablePlant] = []
    for name in sysdecl.plants:
        if name not in plants:
            raise UnresolvedName(name, f"system {sysdecl.name!r}")
        d = plants[name]
        if name not in contracts:
            raise MissingContract(name)
        cps.append(
            make_controllable_plant(
                name=d.name,
                equations=d.equations,
                domain=d.domain,
                controllability=d.controllability,
                contract=contracts[name],
            )
        )

    return sysdecl, rcs, cps, _environment(m), invariants.get(sysdecl.name, TRUE)


def load(
    source: ModelSource | str,
    system: str | None = None,
    cost_model: CostModel | None = None,
) -> MCCS:
    """Assemble the closed loop for one system declaration.

    Multiple controllers compose under `cost_model` (uniform single
    resource when omitted: reactivities add); multiple plants compose
    pairwise left to right. All construction gates run; an ill-composed
    model raises the specific gate error.
    """
    return assemble(build_components(source, system), cost_model)


def assemble(parts: Parts, cost_model: CostModel | None = None) -> MCCS:
    """The closed loop of parts from `build_components`, as `load` builds it."""
    sysdecl, rcs, cps, env, invariant = parts
    cm = cost_model if cost_model is not None else CostModel.uniform()

    controller: ReactiveController | MultiChoiceController = rcs[0]
    for rc in rcs[1:]:
        controller = compose_controllers(controller, rc, cm)
    plant = cps[0]
    for p in cps[1:]:
        plant = compose_plants(plant, p)

    return make_ccs(
        controller,
        plant,
        env=env,
        invariant=invariant,
        name=sysdecl.name,
    )


def load_file(
    path, system: str | None = None, cost_model: CostModel | None = None
) -> MCCS:
    from pathlib import Path

    return load(Path(path).read_text(), system=system, cost_model=cost_model)


# ---------------------------------------------------------------------------
# Built system -> concrete syntax


def source_of_system(system: MCCS) -> ModelSource:
    """Declaration view of a built system, suitable for serialization.

    Controller atoms keep their original reactivities; reloading the
    output recomposes them under the uniform cost model, which
    reproduces the original joint bound when that is how the system was
    built. Only environments pinning each name to one constant can be
    represented.
    """
    pins: dict[str, Fraction] = {}
    for c in conjuncts(system.env.formula):
        pin = Environment(c).constants()
        if not pin and not isinstance(c, TrueF):
            raise CcsError(
                "environment constraint is not a constant pin and cannot be "
                "written as a const declaration: " + print_formula(c)
            )
        for name, value in pin.items():
            if pins.setdefault(name, value) != value:
                raise CcsError(
                    f"environment pins {name!r} to two values, "
                    f"{fraction_to_text(pins[name])} and {fraction_to_text(value)}"
                )
    consts = tuple(ConstDecl(n, q) for n, q in sorted(pins.items()))
    controllers = tuple(
        ControllerDecl(rc.name, rc.reactivity, rc.ctrl)
        for rc in system.controller.choices
    )
    plants = (
        PlantDecl(
            system.plant.name,
            system.plant.controllability,
            system.plant.equations,
            system.plant.domain,
        ),
    )
    contracts = []
    for rc in system.controller.choices:
        if rc.contract is not None:
            contracts.append(ContractDecl(rc.name, rc.contract))
    contracts.append(ContractDecl(system.plant.name, system.plant.require_contract()))
    invariants = ()
    if system.invariant != TRUE:
        invariants = (InvariantDecl(system.name, system.invariant),)
    systems = (
        SystemDecl(
            system.name,
            tuple(rc.name for rc in system.controller.choices),
            (system.plant.name,),
        ),
    )
    return ModelSource(
        consts=consts,
        controllers=controllers,
        plants=plants,
        contracts=tuple(contracts),
        invariants=invariants,
        systems=systems,
    )


def serialize_composed(system: MCCS) -> str:
    return serialize_model(source_of_system(system))
