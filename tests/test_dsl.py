"""Concrete syntax: parsing, serialization, model assembly."""

from fractions import Fraction

import pytest

from ccskit import dsl
from ccskit.ast import (
    Compare,
    conj,
    num,
    print_formula,
    print_program_inline,
)
from ccskit.components import Environment
from ccskit.composition import CostModel
from ccskit.errors import CcsError, ParseError, UnresolvedName

CORPUS_FILES = [
    "watertank.ccs",
    "watertank_late_ctrl.ccs",
    "watertank_tight.ccs",
    "two_tanks.ccs",
    "two_tanks_slow.ccs",
    "bad_shared_output.ccs",
]


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_parse_serialize_parse_is_identity(name, corpus_dir):
    text = (corpus_dir / name).read_text()
    first = dsl.parse(text)
    second = dsl.parse(dsl.serialize_model(first))
    assert first == second


def _nested(n: int) -> dict[str, str]:
    """A formula text nesting each construct `n` levels deep."""
    return {
        "not": "!" * n + "x > 0",
        "minus": "-" * n + "x > 0",
        "term-parens": "x > " + "(" * n + "x" + ")" * n,
        "formula-parens": "(" * n + "x > 0" + ")" * n,
        "implies": " -> ".join(["x > 0"] * n),
        "forall": "forall x (" * n + "x > 0" + ")" * n,
        "box": "[x := 1] " * n + "x > 0",
        "program-parens": "[" + "(" * n + "x := 1" + ")" * n + "] x > 0",
        "box-in-test": "[?(" * n + "x > 0" + ")] x > 0" * n,
        "sum": "x > y" + " + 1" * n,
        "product": "x > y" + " * 1" * n,
        "and": "x > 0" + " & x > 0" * n,
        "or": "x > 0" + " | x > 0" * n,
    }


def _called_deeper(frames: int, fn):
    """`fn()`, called from `frames` more frames of stack."""
    return fn() if frames == 0 else _called_deeper(frames - 1, fn)


@pytest.mark.parametrize("construct", sorted(_nested(1)))
def test_the_parser_stops_at_its_own_nesting_limit(construct):
    """Each construct parses nested 20 deep. Nested past
    dsl.MAX_NESTING, it raises the parser's RecursionError, before the
    interpreter's own, also when parsed from 250 frames deeper."""
    assert dsl.parse_formula_text(_nested(20)[construct])
    too_deep = _nested(1000)[construct]
    message = rf"^input nests more than {dsl.MAX_NESTING} levels deep$"
    for frames in (0, 250):
        with pytest.raises(RecursionError, match=message):
            _called_deeper(frames, lambda: dsl.parse_formula_text(too_deep))


def test_chains_add_up_only_along_a_path():
    """A chain's links (see test_the_parser_stops_at_its_own_nesting_limit)
    add to those of a chain within it, first or last, and to the
    negations between them, also from 250 frames deeper. A 400-link chain parses, chains side by
    side do not add up, and brackets are no level of the tree: 110
    nested `(1 / x)` parse."""
    inner = "-" * 250 + "(y" + " + 1" * 300 + ")"
    for nested in ("x > " + "1 + " * 300 + inner, "x > " + inner + " + 1" * 300):
        for frames in (0, 250):
            with pytest.raises(RecursionError, match=f"^input nests more than {dsl.MAX_NESTING}"):
                _called_deeper(frames, lambda: dsl.parse_formula_text(nested))
    divisions = "x"
    for _ in range(110):
        divisions = f"(1 / {divisions})"
    side_by_side = "x" + " + 1" * 400 + " > y" + " + 1" * 400
    chains = [_nested(400)[c] for c in ("sum", "product", "and", "or")]
    for text in [*chains, side_by_side, f"x > {divisions}"]:
        assert dsl.parse_formula_text(text)


def test_corpus_has_at_least_six_models(corpus_dir):
    assert len(list(corpus_dir.glob("*.ccs"))) >= 6


def test_parse_reads_exact_decimals():
    m = dsl.parse("const k = 0.05\n")
    assert m.consts[0].value == Fraction(1, 20)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as e:
        dsl.parse("controller c every 0.1 {\n  x := ;\n}\n")
    assert "2:" in str(e.value)


@pytest.mark.parametrize(
    "snippet",
    [
        "plant p within 0.1 { x' = 1 & }",
        "system s =",
        "contract c { assume }",
        "controller c every {dt} { x := 1; }",
    ],
)
def test_malformed_declarations_raise_parse_errors(snippet):
    with pytest.raises(ParseError):
        dsl.parse(snippet)


def test_formula_term_program_text_parsers_round_trip():
    f = dsl.parse_formula_text("x >= 0 & (y < 2 | z = 1) -> [a := 1] a = 1")
    assert dsl.parse_formula_text(print_formula(f)) == f
    t = dsl.parse_term_text("(a + 1) * b - c / 2")
    assert print_formula(Compare("=", t, num(0))) == "(a + 1) * b - c / 2 = 0"
    p = dsl.parse_program_text("?(x > 0); (x := 0 U x := x + 1)")
    assert dsl.parse_program_text(print_program_inline(p)) == p


def test_parse_program_text_accepts_top_level_choice():
    p = dsl.parse_program_text("x := 0 U x := 5")
    assert print_program_inline(p) == "(x := 0 U x := 5)"
    assert dsl.parse_program_text(print_program_inline(p)) == p


@pytest.mark.parametrize(
    "follow",
    [")", "}", "]", "U z := 3", "", "const k = 1", "controller", "plant",
     "contract", "invariant", "system", "assume", "guarantee", "init"],
)
def test_trailing_semicolon_ends_a_statement_list(follow):
    """`;` before anything that cannot start a statement ends the list:
    the same program comes out and the same tokens are left."""

    def statements(text):
        p = dsl._Parser(dsl.tokenize(text))
        return p.parse_program(), [t.text for t in p.tokens[p.pos:]]

    body = "x := 1; (y := 2 U ?(x > 0)); {x' = 1 & x <= 2}"
    assert statements(f"{body}; {follow}") == statements(f"{body} {follow}")


def test_build_components_allocates_timestamps_in_order(two_tanks_parts):
    sysdecl, rcs, cps, env, invariant = two_tanks_parts
    assert sysdecl.name == "two_tanks"
    assert [rc.timestamp for rc in rcs] == ["tau_1", "tau_2"]
    assert [rc.name for rc in rcs] == ["wlctrl1", "wlctrl2"]
    assert [p.name for p in cps] == ["tank1", "tank2"]
    assert "tau_1" in print_formula(invariant) and "tau_2" in print_formula(invariant)


def test_build_components_pins_consts_into_environment(two_tanks_parts):
    _, _, _, env, _ = two_tanks_parts
    assert env.constants() == {"fout1": Fraction(3, 4)}


def test_load_composes_under_cost_model(corpus_dir):
    text = (corpus_dir / "two_tanks.ccs").read_text()
    shared = dsl.load(text)
    assert shared.controller.reactivity == Fraction(7, 100)
    split = dsl.load(
        text, cost_model=CostModel(mapping={"wlctrl1": "ecu0", "wlctrl2": "ecu1"})
    )
    assert split.controller.reactivity == Fraction(1, 20)


def test_load_rejects_unknown_system(corpus_dir):
    text = (corpus_dir / "watertank.ccs").read_text()
    with pytest.raises(UnresolvedName):
        dsl.load(text, system="no_such_system")


def test_model_without_system_declaration_is_rejected():
    with pytest.raises(CcsError):
        dsl.load("const k = 1\n")


def test_two_contracts_for_one_component_are_rejected():
    text = (
        "controller c every 0.1 { x := 1; }\n"
        "plant p within 0.5 { y' = 1 & y >= 0 }\n"
        "contract c { assume true guarantee x = 1 init true }\n"
        "contract c { assume true guarantee x = 1 init true }\n"
        "contract p { assume true guarantee y >= 0 init true }\n"
        "system s = c | p\n"
    )
    with pytest.raises(CcsError) as e:
        dsl.build_components(text)
    assert str(e.value) == "two contracts declared for 'c'"


_INVARIANT_MODEL = (
    "controller c every 0.1 { x := 1; }\n"
    "plant p within 0.5 { y' = 1 & y >= 0 }\n"
    "contract c { assume true guarantee x = 1 init true }\n"
    "contract p { assume true guarantee y >= 0 init true }\n"
    "system s = c | p\n"
)


def test_an_invariant_that_names_no_system_is_rejected():
    """As a contract that names no component is: the invariant is not
    silently dropped from the monitors and the obligations."""
    text = _INVARIANT_MODEL + "invariant inv: x = 1\n"
    with pytest.raises(UnresolvedName) as e:
        dsl.build_components(text)
    assert str(e.value) == "unresolved name 'inv' in invariant declarations"


def test_two_invariants_for_one_system_are_rejected():
    text = _INVARIANT_MODEL + "invariant s: x = 1\ninvariant s: y >= 0\n"
    with pytest.raises(CcsError) as e:
        dsl.build_components(text)
    assert str(e.value) == "two invariants declared for 's'"


def test_an_invariant_named_after_its_system_is_kept():
    *_, invariant = dsl.build_components(_INVARIANT_MODEL + "invariant s: x = 1\n")
    assert print_formula(invariant) == "x = 1"


def test_two_consts_of_one_name_are_rejected():
    text = (
        "const k = 0.75\n"
        "const k = 1\n"
        "controller c every 0.1 { x := k; }\n"
        "plant p within 0.5 { y' = 1 & y >= 0 }\n"
        "contract c { assume true guarantee true init true }\n"
        "contract p { assume true guarantee y >= 0 init true }\n"
        "system s = c | p\n"
    )
    with pytest.raises(CcsError) as e:
        dsl.build_components(text)
    assert str(e.value) == "two const declarations for 'k'"


def test_serialize_composed_rejects_a_name_pinned_to_two_values(watertank):
    env = Environment(conj(watertank.env.formula, dsl.parse_formula_text("fout = 1")))
    with pytest.raises(CcsError) as e:
        dsl.source_of_system(watertank.replace(env=env))
    assert str(e.value) == "environment pins 'fout' to two values, 0.75 and 1"
    # The same pin twice is one const.
    again = Environment(conj(watertank.env.formula, dsl.parse_formula_text("0.75 = fout")))
    assert dsl.source_of_system(watertank.replace(env=again)) == dsl.source_of_system(watertank)


def test_serialize_composed_round_trips_to_equivalent_system(two_tanks, golden_dir):
    text = dsl.serialize_composed(two_tanks)
    assert text == (golden_dir / "two_tanks_composed.ccs").read_text()
    again = dsl.load(text)
    assert again.controller.reactivity == two_tanks.controller.reactivity
    assert again.plant.controllability == two_tanks.plant.controllability
    assert again.plant.equations == two_tanks.plant.equations
    assert again.invariant == two_tanks.invariant


def test_serialize_composed_rejects_an_environment_bound(watertank):
    bound = dsl.parse_formula_text("fout <= 1")
    env = Environment(conj(watertank.env.formula, bound))
    with pytest.raises(CcsError) as e:
        dsl.serialize_composed(watertank.replace(env=env))
    assert str(e.value) == (
        "environment constraint is not a constant pin and cannot be "
        "written as a const declaration: fout <= 1"
    )


def test_source_of_system_keeps_component_programs(watertank):
    src = dsl.source_of_system(watertank)
    names = [c.name for c in src.controllers]
    assert names == ["wlctrl"]
    assert src.plants[0].name == "tank"
    round_tripped = dsl.parse(dsl.serialize_model(src))
    assert round_tripped == src


def test_comments_and_whitespace_are_ignored(corpus_dir):
    text = (corpus_dir / "watertank.ccs").read_text()
    noisy = "// leading comment\n\n" + text.replace(
        "system watertank", "// mid comment\nsystem watertank"
    )
    assert dsl.parse(noisy).systems == dsl.parse(text).systems
