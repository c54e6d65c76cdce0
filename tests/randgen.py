"""Random well-formed components for the composition law suites.

Each generated component owns a private variable slice (slot 0, 1 or 2)
so any pair or triple passes the non-interference gates by
construction: controllers write only their own slice, plant equations
evolve only their own slice, and guarantees mention only owned
variables. Shared read-only inputs u0/u1 exercise the free-variable
side of the gates without tripping them.

`terms` and `formulas` are hypothesis strategies over every term and
formula constructor, for the compiler tests; `goals` nests them under
boxes over slot 0's programs and flows (or `affine_flows`, whose
domains may be open or never close), quantifiers and connectives, for
the bounded checker's tests.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import strategies as st

from ccskit.ast import (
    COMPARISON_OPS,
    FALSE,
    TRUE,
    And,
    Assign,
    Choice,
    Box,
    Compare,
    Divide,
    Exists,
    Forall,
    Implies,
    Loop,
    Minus,
    Neg,
    Not,
    ODE,
    Or,
    Plus,
    Rational,
    Seq,
    Test,
    Times,
    Variable,
    conj,
    num,
)
from ccskit.components import (
    MCCS,
    Contract,
    ControllablePlant,
    ReactiveController,
    make_ccs,
)

INPUTS = ("u0", "u1")

# Small reactivities against large controllabilities keep every pairwise
# and triple-wise composition schedulable, so the law suites never trip
# the cost gate by accident.
REACTIVITIES = [Fraction(n, 100) for n in (1, 2, 3, 5)]
CONTROLLABILITIES = [Fraction(n, 10) for n in (5, 7, 9)]


def _own_vars(slot: int) -> tuple[str, str]:
    return (f"y{slot}a", f"y{slot}b")


def _term(rng: random.Random, readable: list[str]):
    kind = rng.randrange(3)
    if kind == 0:
        return num(rng.randrange(-3, 4))
    if kind == 1:
        return Variable(rng.choice(readable))
    return Plus(Variable(rng.choice(readable)), num(rng.randrange(1, 4)))


def _discrete(rng: random.Random, own: tuple[str, str], depth: int = 2):
    readable = list(own) + list(INPUTS)
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.7:
            return Assign(rng.choice(own), _term(rng, readable))
        op = rng.choice(["<=", "<", ">=", ">", "="])
        return Test(Compare(op, _term(rng, readable), _term(rng, readable)))
    ctor = rng.choice([Seq, Choice])
    return ctor(_discrete(rng, own, depth - 1), _discrete(rng, own, depth - 1))


def rand_controller(rng: random.Random, slot: int) -> ReactiveController:
    own = _own_vars(slot)
    guarantee = Compare(
        rng.choice(["<=", ">="]), Variable(own[0]), num(rng.randrange(-5, 6))
    )
    return ReactiveController(
        name=f"c{slot}",
        ctrl=Seq(Assign(own[0], _term(rng, list(own) + list(INPUTS))),
                 _discrete(rng, own, depth=1)),
        reactivity=rng.choice(REACTIVITIES),
        timestamp=f"tau_{slot + 1}",
        contract=Contract(guarantee=guarantee),
    )


def rand_plant(rng: random.Random, slot: int) -> ControllablePlant:
    x = f"x{slot}"
    rhs = _term(rng, [x, *INPUTS])
    domain = Compare(">=", Variable(x), num(rng.randrange(-2, 1)))
    guarantee = Compare("<=", Variable(x), num(rng.randrange(5, 12)))
    return ControllablePlant(
        name=f"p{slot}",
        equations=((x, rhs),),
        domain=domain,
        controllability=rng.choice(CONTROLLABILITIES),
        contract=Contract(guarantee=guarantee),
    )


def rand_mccs(rng: random.Random, slot: int) -> MCCS:
    """One controller plus one plant over the same slice.

    The controller writes y-variables, the plant evolves the x-variable,
    so the closed-loop gates pass; inputs stay read-only.
    """
    ctrl = rand_controller(rng, slot)
    plant = rand_plant(rng, slot)
    return make_ccs(ctrl, plant, name=f"s{slot}")


def rand_store(rng: random.Random, names, lo: int = -4, hi: int = 4) -> dict:
    return {n: Fraction(rng.randrange(lo, hi + 1)) for n in names}


# -- hypothesis strategies over every term and formula constructor ----------


def terms(names) -> st.SearchStrategy:
    """Terms over the variables `names`, with signed fractional literals."""
    leaves = st.one_of(
        st.sampled_from(names).map(Variable),
        st.fractions(min_value=-8, max_value=8, max_denominator=8).map(Rational),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            sub.map(Neg),
            *(st.builds(op, sub, sub) for op in (Plus, Minus, Times, Divide)),
        ),
        max_leaves=10,
    )


def formulas(names) -> st.SearchStrategy:
    """Box- and quantifier-free formulas over the variables `names`."""
    atoms = st.one_of(
        st.sampled_from([TRUE, FALSE]),
        st.builds(Compare, st.sampled_from(COMPARISON_OPS), terms(names), terms(names)),
    )
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            sub.map(Not),
            *(st.builds(op, sub, sub) for op in (And, Or, Implies)),
        ),
        max_leaves=6,
    )


# Every name slot 0's programs and plant flows read or write.
GOAL_NAMES = ("t", *INPUTS, "x0", *_own_vars(0))


def programs() -> st.SearchStrategy:
    """Slot 0's discrete programs and plant flows, as `_discrete` and
    `rand_plant` build them from a seed, and loops of the programs."""

    def build(seed: int, kind: str):
        rng = random.Random(seed)
        if kind == "flow":
            return rand_plant(rng, 0).to_program()
        p = _discrete(rng, _own_vars(0))
        return Loop(p) if kind == "loop" else p

    kinds = st.sampled_from(["program", "flow", "loop"])
    return st.builds(build, st.integers(0, 2**16), kinds)


def affine_flows() -> st.SearchStrategy:
    """Flows of x0 and t at slopes that read no evolved name, in a domain
    comparing x0, t or their sum with a small integer by any operator: it
    may be open at its exit, hold only on a boundary, or never close."""
    slope = st.one_of(st.integers(-2, 2).map(num), st.sampled_from(INPUTS).map(Variable))
    evolved = st.sampled_from([Variable("x0"), Variable("t"), Plus(Variable("x0"), Variable("t"))])
    conjunct = st.builds(
        Compare, st.sampled_from(COMPARISON_OPS), evolved, st.integers(-2, 3).map(num)
    )
    return st.builds(
        lambda a, b, parts: ODE((("x0", a), ("t", b)), conj(*parts)),
        slope, slope, st.lists(conjunct, min_size=1, max_size=3),
    )


def goal_boxes() -> st.SearchStrategy:
    """Domain boxes over GOAL_NAMES: each name a small integer or an
    interval [lo, lo + 0..2]."""
    entry = st.one_of(
        st.integers(-2, 2),
        st.tuples(st.integers(-2, 2), st.integers(0, 2)).map(lambda p: [p[0], p[0] + p[1]]),
    )
    return st.fixed_dictionaries({n: entry for n in GOAL_NAMES})


def goals(boxed: st.SearchStrategy | None = None) -> st.SearchStrategy:
    """Goals over GOAL_NAMES: comparisons of names, small integers and
    their sums, under negations, connectives, boxes over `boxed`
    (`programs()` by default) and quantifiers of those names. No
    division, so that few checks end in an error before the first box is
    entered."""
    small = st.one_of(
        st.sampled_from(GOAL_NAMES).map(Variable), st.integers(-2, 2).map(num)
    )
    terms = st.one_of(small, st.builds(Plus, small, small))
    return st.recursive(
        st.builds(Compare, st.sampled_from(COMPARISON_OPS), terms, terms),
        lambda sub: st.one_of(
            sub.map(Not),
            *(st.builds(op, sub, sub) for op in (And, Or, Implies)),
            st.builds(Box, programs() if boxed is None else boxed, sub),
            *(st.builds(q, st.sampled_from(GOAL_NAMES), sub) for q in (Forall, Exists)),
        ),
        max_leaves=5,
    )
