"""Core tree: constructors, printers, exact rationals, AC normal form."""

import copy
import hashlib
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import randgen
from ccskit import dsl
from ccskit.ast import (
    And,
    Assign,
    Box,
    Choice,
    Compare,
    Divide,
    Exists,
    FALSE,
    FalseF,
    Forall,
    Formula,
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
    Term,
    Test as Guard,
    TRUE,
    Times,
    TrueF,
    Variable,
    canonical_key,
    choice,
    choice_alternatives,
    conj,
    conjuncts,
    fraction_to_text,
    modality,
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
from ccskit.obligations import obligations_ccs
from ccskit.simulator import emit_formula, emit_term, slots_of
from ccskit.statics import all_vars, free_and_bound_vars


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


# --- value semantics of every node class ----------------------------------

_x, _half = Variable("x"), Rational(Fraction(1, 2))
_cmp = Compare("<=", _x, _half)
_assign = Assign("x", Plus(_x, _half))
ONE_OF_EACH = [
    _x, _half, Plus(_x, _half), Minus(_x, _half), Times(_x, _half),
    Divide(_x, _half), Neg(_x), TRUE, FALSE, _cmp, Not(_cmp), And(_cmp, TRUE),
    Or(_cmp, FALSE), Implies(_cmp, TRUE), Forall("x", _cmp), Exists("x", _cmp),
    Box(_assign, _cmp), Guard(_cmp), _assign, ODE((("x", _half),), _cmp),
    Seq(_assign, Guard(_cmp)), Choice(_assign, Guard(_cmp)), Loop(_assign),
]
FIELD_NAMES = (
    "name", "value", "left", "right", "operand", "op", "var", "body",
    "program", "post", "condition", "rhs", "equations", "domain", "first",
    "second",
)


def test_one_of_each_covers_every_node_class():
    assert len({type(n) for n in ONE_OF_EACH}) == 23


@pytest.mark.parametrize("node", ONE_OF_EACH, ids=lambda n: type(n).__name__)
def test_nodes_copy_pickle_and_stay_immutable(node):
    for clone in (
        copy.copy(node),
        copy.deepcopy(node),
        pickle.loads(pickle.dumps(node)),
    ):
        assert type(clone) is type(node)
        assert clone == node and hash(clone) == hash(node)
    before = repr(node)
    for name in FIELD_NAMES:
        with pytest.raises(AttributeError):
            setattr(node, name, _x)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert repr(node) == before


def test_nodes_carry_no_instance_dict():
    assert not [n for n in ONE_OF_EACH if hasattr(n, "__dict__")]


_KEPT = ("_vars", "_modal", "_emitted")


@pytest.mark.parametrize("node", ONE_OF_EACH, ids=lambda n: type(n).__name__)
def test_kept_facts_are_not_fields(node):
    """What a formula or program node keeps once derived (its names,
    modality and last source; a term keeps nothing) changes neither
    equality, hashing, `repr` nor pickling, and no copy, pickle or
    `replace` carries it."""
    before = (repr(node), hash(node), pickle.dumps(node))
    fresh = pickle.loads(before[2])
    free_and_bound_vars(node)
    if isinstance(node, Term):
        emit_term(node, slots_of(("x",)))
    elif isinstance(node, Formula) and not modality(node):
        emit_formula(node, slots_of(("x",)))
    keeps_nothing = isinstance(node, (Term, TrueF, FalseF))
    assert keeps_nothing == all(getattr(node, slot, None) is None for slot in _KEPT)
    assert (repr(node), hash(node), pickle.dumps(node)) == before
    assert node == fresh and hash(node) == hash(fresh)
    for clone in (copy.copy(node), copy.deepcopy(node), fresh, node.replace()):
        assert clone == node
        assert all(getattr(clone, slot, None) is None for slot in _KEPT)


def test_constructors_check_their_fields():
    assert type(Rational(3).value) is Fraction
    assert Rational("0.05") == Rational(Fraction(1, 20))
    with pytest.raises(ValueError, match="unknown comparison operator"):
        Compare("<>", _x, _half)
    with pytest.raises(TypeError):
        Plus(_x)


def test_repr_names_every_field():
    assert repr(Plus(_x, _half)) == (
        "Plus(left=Variable(name='x'), right=Rational(value=Fraction(1, 2)))"
    )
    assert repr(TRUE) == "TrueF()"


_key_nodes = st.one_of(randgen.terms(["x", "y"]), randgen.formulas(["x", "y"]))


@given(_key_nodes, _key_nodes)
def test_canonical_key_agrees_with_equality(a, b):
    assert (canonical_key(a) == canonical_key(b)) == (a == b)
    assert canonical_key(copy.deepcopy(a)) == canonical_key(a)


# sha256 over repr(canonical_key(n)) and repr(normalize_ac(n)) for the
# system program and every obligations_ccs goal of each loadable corpus
# model; recorded on the dataclass-based tree, before the generic key.
AC_PINS = {
    "two_tanks": "b852498df57a0ab486049da84317b992213b759b8e21adc3513ca8c7c8d80585",
    "watertank": "2d0a17aeadaf170a343f6b66b6fb367e5c2497cdec3562209ac149c4bdfaf90c",
    "watertank_late_ctrl": "6ae7040ba7c7e14b30f27b799c1b09178c0d288e131deb90e1de11e5af8f7bf6",
    "watertank_tight": "52d763361ce0686d586727a2a037e661c9c9353eb7b3563ff4e6718edd3cbd2e",
}


@pytest.mark.parametrize("model", sorted(AC_PINS))
def test_keys_and_normal_forms_are_pinned(model, corpus_dir):
    system = dsl.load_file(corpus_dir / f"{model}.ccs")
    nodes = [system.to_program()] + [ob.goal for ob in obligations_ccs(system)]
    digest = hashlib.sha256()
    for n in nodes:
        digest.update(repr(canonical_key(n)).encode() + b"\n")
        digest.update(repr(normalize_ac(n)).encode() + b"\n")
    assert digest.hexdigest() == AC_PINS[model]
