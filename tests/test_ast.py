"""Core tree: constructors, printers, exact rationals, AC normal form."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ccskit.ast import (
    Assign,
    Box,
    Choice,
    Compare,
    Implies,
    Loop,
    ODE,
    Plus,
    Rational,
    Seq,
    Test as Guard,
    TRUE,
    Times,
    Variable,
    canonical_key,
    choice,
    choice_alternatives,
    conj,
    conjuncts,
    fraction_to_text,
    normalize_ac,
    num,
    pretty_print,
    print_formula,
    print_program,
    print_program_inline,
    seq,
    seq_statements,
    var,
    walk,
)
from ccskit.statics import all_vars


def test_num_parses_decimals_exactly():
    assert num("0.05").value == Fraction(1, 20)
    assert num("0.07").value == Fraction(7, 100)
    assert num(3).value == Fraction(3)


def test_num_refuses_floats():
    with pytest.raises(TypeError):
        num(0.1)


def test_fraction_to_text_prefers_terminating_decimals():
    assert fraction_to_text(Fraction(1, 20)) == "0.05"
    assert fraction_to_text(Fraction(7, 100)) == "0.07"
    assert fraction_to_text(Fraction(3, 20)) == "0.15"
    assert fraction_to_text(Fraction(5)) == "5"
    assert fraction_to_text(Fraction(-1, 2)) == "-0.5"
    # non-terminating denominators fall back to the exact quotient
    assert fraction_to_text(Fraction(1, 3)) == "1/3"


def test_conj_flattens_and_drops_true():
    f = conj(TRUE, Compare("<=", var("x"), num(1)), TRUE)
    assert f == Compare("<=", var("x"), num(1))
    assert conj() == TRUE
    parts = conjuncts(conj(Compare("=", var("a"), num(0)), Compare("=", var("b"), num(1))))
    assert len(parts) == 2


def test_choice_and_seq_helpers_invert():
    a = Assign("x", num(1))
    b = Assign("y", num(2))
    c = Guard(TRUE)
    assert choice_alternatives(choice(a, b, c)) == [a, b, c]
    assert seq_statements(seq(a, b, c)) == [a, b, c]
    assert choice(a) is a
    assert seq(a) is a


def test_print_round_corners():
    p = Loop(Choice(Seq(Guard(Compare(">", var("x"), num(0))), Assign("x", num(0))),
                    ODE((("x", var("v")),), Compare("<=", var("x"), num(5)))))
    inline = print_program_inline(p)
    assert inline == "((?(x > 0); x := 0 U {x' = v & x <= 5}))*"
    assert print_program(p) == inline + ";"
    f = Implies(TRUE, Box(p, Compare(">=", var("x"), num(0))))
    assert print_formula(f) == f"true -> [{inline}] x >= 0"
    assert pretty_print(Times(Plus(var("a"), num(1)), var("b"))) == "(a + 1) * b"


def test_all_vars_sees_reads_writes_and_odes():
    p = Seq(Assign("x", var("a")), ODE((("y", num(1)),), TRUE))
    assert "x" in all_vars(p)
    assert "a" in all_vars(p)
    assert "y" in all_vars(p)
    assert "z" not in all_vars(p)


def test_walk_yields_every_node():
    p = Seq(Assign("x", Plus(var("a"), num(1))), Guard(TRUE))
    kinds = [type(n).__name__ for n in walk(p)]
    assert kinds == ["Seq", "Assign", "Plus", "Variable", "Rational", "Test", "TrueF"]


# --- AC normal form -------------------------------------------------------

_atoms = st.sampled_from([
    Assign("x", num(1)),
    Assign("y", var("x")),
    Guard(Compare("<", var("x"), num(3))),
    Assign("z", Plus(var("y"), num(2))),
    Guard(Compare(">=", var("z"), num(0))),
])


@given(st.lists(_atoms, min_size=2, max_size=5), st.randoms(use_true_random=False))
def test_normalize_ac_is_order_insensitive_for_choice(atoms, rng):
    shuffled = atoms[:]
    rng.shuffle(shuffled)
    assert normalize_ac(choice(*atoms)) == normalize_ac(choice(*shuffled))


@given(st.lists(_atoms, min_size=1, max_size=5))
def test_normalize_ac_is_idempotent(atoms):
    once = normalize_ac(choice(*atoms))
    assert normalize_ac(once) == once


@given(st.lists(_atoms, min_size=2, max_size=4))
def test_normalize_ac_preserves_alternative_multiset(atoms):
    normal = normalize_ac(choice(*atoms))
    assert sorted(map(canonical_key, choice_alternatives(normal))) == sorted(
        map(canonical_key, atoms)
    )


def test_normalize_ac_sorts_ode_equations_and_domain():
    o1 = ODE((("y", num(1)), ("x", var("y"))),
             conj(Compare(">=", var("x"), num(0)), Compare("<=", var("y"), num(9))))
    o2 = ODE((("x", var("y")), ("y", num(1))),
             conj(Compare("<=", var("y"), num(9)), Compare(">=", var("x"), num(0))))
    assert normalize_ac(o1) == normalize_ac(o2)


def test_normalize_ac_does_not_reorder_sequence():
    a, b = Assign("x", num(1)), Assign("x", num(2))
    assert normalize_ac(Seq(a, b)) == Seq(a, b)
    assert normalize_ac(Seq(a, b)) != normalize_ac(Seq(b, a))


def test_canonical_key_is_total_on_mixed_nodes():
    nodes = [var("a"), num(2), Assign("x", num(1)), Guard(TRUE),
             ODE((("x", num(1)),), TRUE), Plus(var("a"), var("b"))]
    keys = sorted(map(canonical_key, nodes))
    assert len(set(keys)) == len(nodes)


def test_programs_are_hashable_value_objects():
    p1 = Seq(Assign("x", num(1)), Guard(TRUE))
    p2 = Seq(Assign("x", num(1)), Guard(TRUE))
    assert p1 == p2 and hash(p1) == hash(p2)
    assert len({p1, p2}) == 1
