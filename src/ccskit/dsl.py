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

from .ast import (
    Assign,
    Box,
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


_set = object.__setattr__


class Token(Record):
    # kind is "number", "name", "op" or "eof".
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int) -> None:
        # One per token: spelled out, as it runs faster than Record's loop.
        _set(self, "kind", kind)
        _set(self, "text", text)
        _set(self, "line", line)
        _set(self, "col", col)


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<comment>//[^\n]*)
    | (?P<nl>\n)
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>:=|<=|>=|!=|->|[-+*/(){}\[\];,:'&|!<>=?])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, pos - line_start + 1, "a token", text[pos])
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind not in ("ws", "comment"):
            tokens.append(Token(kind, value, line, m.start() - line_start + 1))
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- primitives

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, expected: str) -> ParseError:
        tok = self.peek()
        found = tok.text if tok.kind != "eof" else "end of input"
        return ParseError(tok.line, tok.col, expected, found)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            raise self.error(f"{text!r}")
        return self.advance()

    def expect_name(self, what: str = "a name") -> str:
        tok = self.peek()
        if tok.kind != "name" or tok.text in KEYWORDS:
            raise self.error(what)
        self.advance()
        return tok.text

    def at(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind != "eof" and tok.text == text

    def accept(self, text: str) -> bool:
        """Whether the next token is `text`, consumed when it is."""
        tok = self.tokens[self.pos]
        found = tok.kind != "eof" and tok.text == text
        self.pos += found
        return found

    # -- terms

    def parse_term(self) -> Term:
        return self._additive()

    def _additive(self) -> Term:
        out = self._multiplicative()
        while self.at("+") or self.at("-"):
            op = self.advance().text
            right = self._multiplicative()
            out = Plus(out, right) if op == "+" else Minus(out, right)
        return out

    def _multiplicative(self) -> Term:
        out = self._unary()
        while self.at("*") or self.at("/"):
            op = self.advance().text
            right = self._unary()
            out = Times(out, right) if op == "*" else Divide(out, right)
        return out

    def _unary(self) -> Term:
        if self.accept("-"):
            return Neg(self._unary())
        return self._primary()

    def _primary(self) -> Term:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Rational(Fraction(tok.text))
        if tok.kind == "name" and tok.text not in KEYWORDS:
            self.advance()
            return Variable(tok.text)
        if self.accept("("):
            inner = self.parse_term()
            self.expect(")")
            return inner
        raise self.error("a term")

    # -- formulas

    def parse_formula(self) -> Formula:
        left = self._or_formula()
        if self.accept("->"):
            return Implies(left, self.parse_formula())
        return left

    def _or_formula(self) -> Formula:
        out = self._and_formula()
        while self.accept("|"):
            out = Or(out, self._and_formula())
        return out

    def _and_formula(self) -> Formula:
        out = self._not_formula()
        while self.accept("&"):
            out = And(out, self._not_formula())
        return out

    def _not_formula(self) -> Formula:
        if self.accept("!"):
            return Not(self._not_formula())
        return self._atom_formula()

    def _atom_formula(self) -> Formula:
        tok = self.peek()
        if self.accept("true"):
            return TRUE
        if self.accept("false"):
            return FALSE
        if tok.text in ("forall", "exists"):
            self.advance()
            name = self.expect_name("a quantified variable")
            self.expect("(")
            body = self.parse_formula()
            self.expect(")")
            return Forall(name, body) if tok.text == "forall" else Exists(name, body)
        if self.accept("["):
            prog = self.parse_program()
            self.expect("]")
            return Box(prog, self._not_formula())
        if self.at("("):
            # Either a parenthesised formula or a parenthesised term starting
            # a comparison; try the formula reading first and fall back.
            mark = self.pos
            self.advance()
            try:
                inner = self.parse_formula()
                self.expect(")")
                return inner
            except ParseError:
                self.pos = mark
        left = self.parse_term()
        op_tok = self.peek()
        if op_tok.text not in ("<=", "<", "=", "!=", ">", ">="):
            raise self.error("a comparison operator")
        self.advance()
        right = self.parse_term()
        return Compare(op_tok.text, left, right)

    # -- programs

    def _starts_statement(self) -> bool:
        """A test, an ODE, a parenthesised choice or an assignment comes
        next; a `;` followed by anything else ends the statement list."""
        tok = self.peek()
        if tok.text in ("?", "{", "("):
            return True
        return tok.kind == "name" and tok.text not in KEYWORDS

    def parse_choice(self) -> Program:
        """Statement lists separated by `U`."""
        alternatives = [self.parse_program()]
        while self.accept("U"):
            alternatives.append(self.parse_program())
        return choice(*alternatives)

    def parse_program(self) -> Program:
        statements = [self._statement()]
        while self.accept(";"):
            if not self._starts_statement():
                break
            statements.append(self._statement())
        return seq(*statements)

    def _statement(self) -> Program:
        tok = self.peek()
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
        if tok.kind == "name" and tok.text not in KEYWORDS:
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
        tok = self.peek()
        term = self.parse_term()
        try:
            return _fold_const(term, env)
        except ZeroDivisionError:
            raise ParseError(tok.line, tok.col, "a nonzero divisor") from None
        except KeyError as e:
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
        while self.peek().kind != "eof":
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
        return ModelSource(
            consts=tuple(consts),
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
    return _Parser(tokenize(text)).parse_model()


def _parse_whole(text: str, rule):
    """`rule` of the parser over all of `text`."""
    p = _Parser(tokenize(text))
    out = rule(p)
    if p.peek().kind != "eof":
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
    are listed in the system declaration.
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

    invariant: Formula = TRUE
    for d in m.invariants:
        if d.name == sysdecl.name:
            invariant = d.formula
    return sysdecl, rcs, cps, _environment(m), invariant


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
