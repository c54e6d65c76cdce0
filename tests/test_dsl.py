"""Concrete syntax: parsing, serialization, model assembly."""

import hashlib
import json
import random
import string
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import randgen
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
from ccskit.errors import CcsError, MissingContract, ParseError, UnresolvedName

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
        "statements": "[" + "; ".join(["x := 1"] * n) + "] x > 0",
        "choices": "[(" + " U ".join(["x := 1"] * n) + ")] x > 0",
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


@pytest.mark.parametrize("text", ["x <= \u0663", "x <= \uff13", "x <= 1\u0663"])
def test_numerals_are_ascii_digits(text):
    """Any other digit starts no token, so it is an error at its column."""
    with pytest.raises(ParseError) as e:
        dsl.parse_formula_text(text)
    assert str(e.value) == f"1:{len(text)}: expected a token, found {text[-1]}"


def test_parsing_goals_builds_no_token_and_reads_each_numeral_once(golden_dir, monkeypatch):
    """Over every golden goal, `parse_formula_text` builds no Token, and
    turns each distinct numeral text into a Fraction at most once."""
    goals = [
        entry["goal"]
        for path in sorted(golden_dir.glob("*_obligations.json"))
        for entry in json.loads(path.read_text())
    ]
    tokens, numerals = [], []
    monkeypatch.setattr(dsl.Token, "__init__", lambda self, *a: tokens.append(a))
    monkeypatch.setattr(dsl, "Fraction", lambda text: numerals.append(text) or Fraction(text))
    dsl._leaf.cache_clear()
    for goal in goals:
        dsl.parse_formula_text(goal)
    assert tokens == []
    assert numerals and sorted(numerals) == sorted(set(numerals))


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
        p = dsl._Parser(text)
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


_NO_CONTRACT_FOR_P = "contract p { assume true guarantee y >= 0 init true }\n"


@pytest.mark.parametrize("text, error, message", [
    (_INVARIANT_MODEL + "contract q { assume true guarantee true init true }\n",
     UnresolvedName, "unresolved name 'q' in contract declarations"),
    (_INVARIANT_MODEL.replace("= c |", "= c, d |"), UnresolvedName, "unresolved name 'd' in system 's'"),
    (_INVARIANT_MODEL.replace("| p", "| p, q"), UnresolvedName, "unresolved name 'q' in system 's'"),
    (_INVARIANT_MODEL.replace(_NO_CONTRACT_FOR_P, ""), MissingContract, "component 'p' has no contract"),
], ids=["contract", "controller", "plant", "plant-without-contract"])
def test_a_name_no_declaration_backs_is_rejected(text, error, message):
    with pytest.raises(error) as e:
        dsl.build_components(text)
    assert str(e.value) == message


def test_const_expressions_fold_to_exact_rationals():
    """`const`, `every` and `within` take a term over the constants
    declared before, folded exactly: `0.05 + 0.02` is 7/100."""
    m = dsl.parse(
        "const fout = 0.75\nconst k = 2 * fout - 1/4\n"
        "controller c every 0.05 + 0.02 { x := k; }\nplant p within -(-k) { y' = 1 }\n"
    )
    assert [c.value for c in m.consts] == [Fraction(3, 4), Fraction(5, 4)]
    assert m.controllers[0].reactivity == Fraction(7, 100)
    assert m.plants[0].controllability == Fraction(5, 4)


@pytest.mark.parametrize("expr, expected", [
    ("1/0", "a nonzero divisor"), ("2 * fout2", "a constant (unknown name 'fout2')"),
])
def test_a_const_expression_that_does_not_fold_is_a_parse_error_at_its_start(expr, expected):
    with pytest.raises(ParseError) as e:
        dsl.parse(f"const fout = 0.75\nconst k = {expr}\n")
    assert str(e.value) == f"2:11: expected {expected}"


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


# -- pinned parse outcomes ----------------------------------------------------


def _outcome(parse, reprint, text: str) -> str:
    """The reprinted tree `parse` reads from `text`, or the text of the
    error it raises."""
    try:
        return reprint(parse(text))
    except (ParseError, RecursionError) as e:
        return f"{type(e).__name__}: {e}"


def _mutants(text: str, rng: random.Random, each: int) -> list[str]:
    """`each` mutants of `text` of every kind, all ASCII: one token dropped,
    duplicated or swapped with the next, the text cut before a token, or
    a printable ASCII character inserted anywhere."""
    line_starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    spans = [
        (line_starts[t.line - 1] + t.col - 1, line_starts[t.line - 1] + t.col - 1 + len(t.text))
        for t in dsl.tokenize(text)[:-1]
    ]
    out = []
    for _ in range(each):
        i = rng.randrange(len(spans))
        (s, e), (s2, e2) = spans[i], spans[min(i + 1, len(spans) - 1)]
        out.append(text[:s] + text[e:])
        out.append(text[:e] + " " + text[s:e] + text[e:])
        if s2 > s:
            out.append(text[:s] + text[s2:e2] + text[e:s2] + text[s:e] + text[e2:])
        out.append(text[:s])
        at = rng.randrange(len(text) + 1)
        out.append(text[:at] + rng.choice(string.printable) + text[at:])
    return out


def _pinned_inputs():
    """(parse, reprint, text) for every corpus model, every golden goal
    and their seeded mutants."""
    tests = Path(__file__).resolve().parent
    models = [p.read_text() for p in sorted((tests.parent / "corpus").glob("*.ccs"))]
    goals = [
        entry["goal"]
        for path in sorted((tests / "golden").glob("*_obligations.json"))
        for entry in json.loads(path.read_text())
    ]
    rng = random.Random(20191)
    for parse, reprint, texts, each in (
        (dsl.parse, dsl.serialize_model, models, 40),
        (dsl.parse_formula_text, print_formula, goals, 3),
    ):
        for text in texts:
            for t in [text, *_mutants(text, rng, each)]:
                yield parse, reprint, t


# sha256 over every pinned input and its outcome, taken before the scanner
# and parser were rewritten to read token texts alone.
PARSE_PINS = {
    "inputs": 2962,
    "sha256": "87d247e6189120de2ec347271d6f0a1e814823da1221cd15cefe0222edc9137a",
}


def test_parse_outcomes_are_pinned():
    digest, count = hashlib.sha256(), 0
    for parse, reprint, text in _pinned_inputs():
        digest.update(f"{text}\0{_outcome(parse, reprint, text)}\0".encode())
        count += 1
    assert {"inputs": count, "sha256": digest.hexdigest()} == PARSE_PINS


# The deepest nesting of each construct of _nested that parses; one level
# more raises the parser's RecursionError.
DEEPEST = {
    "and": 599, "box": 297, "box-in-test": 74, "forall": 119, "formula-parens": 119,
    "implies": 596, "minus": 595, "not": 595, "or": 599, "product": 599,
    "program-parens": 197, "sum": 599, "term-parens": 119,
    "statements": 597, "choices": 597,
}


@pytest.mark.parametrize("construct", sorted(DEEPEST))
def test_each_construct_nests_exactly_to_its_pinned_depth(construct):
    n = DEEPEST[construct]
    text = _nested(n)[construct]
    assert print_formula(dsl.parse_formula_text(print_formula(dsl.parse_formula_text(text)))) \
        == print_formula(dsl.parse_formula_text(text))
    with pytest.raises(RecursionError):
        dsl.parse_formula_text(_nested(n + 1)[construct])


# The most const declarations a model parses with, as DEEPEST pins each
# construct's depth: their environment is one `&` chain of a link fewer.
DEEPEST_CONSTS = 601


def test_a_model_declares_at_most_its_pinned_number_of_consts():
    def consts(n):
        return "".join(f"const k{i} = {i}\n" for i in range(n))

    first = dsl.parse(consts(DEEPEST_CONSTS))
    assert len(first.consts) == DEEPEST_CONSTS
    assert dsl.parse(dsl.serialize_model(first)) == first
    message = rf"^input nests more than {dsl.MAX_NESTING} levels deep$"
    for frames in (0, 250):
        with pytest.raises(RecursionError, match=message):
            _called_deeper(frames, lambda: dsl.parse(consts(DEEPEST_CONSTS + 1)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(randgen.formulas(randgen.GOAL_NAMES), randgen.goals()))
def test_printing_the_parsed_print_gives_the_print_back(g):
    """Once read: a literal such as `1/3` reads back as a division, and a
    sequence nested to the left as one flat sequence."""
    once = print_formula(dsl.parse_formula_text(print_formula(g)))
    assert print_formula(dsl.parse_formula_text(once)) == once
