"""Pins of the composition gates' reports and errors, message text included.

Crafted controllers, controller families and plants go pairwise through
the three non-interference gates and the four operators that run them
(`compose_controllers`, `compose_plants`, `make_ccs`, `compose_mccs`).
Each call leaves one line per report row (gate, severity, description,
sorted variables) or the type and message of the error it raised. One
sha256 over those lines pins them all, so a rewrite of the gates that
changes a message, the order of the rows or which error comes first
fails here.

The crafted cases cover shared writes, shared and evolved variables,
guarantees reading the other side's writes or their own, missing
contracts, unschedulable pairs, unmapped controllers, and timestamps
that are shared, occur in a plant, or are read by another controller's
contract or by the plant's contract. No line holds the `repr` of a set,
whose element order would follow hash randomisation.
"""

import hashlib
from fractions import Fraction

from ccskit.components import (
    Contract,
    ControllablePlant,
    MultiChoiceController,
    ReactiveController,
    make_ccs,
)
from ccskit.composition import (
    CostModel,
    compose_controllers,
    compose_mccs,
    compose_plants,
    non_interference_controllers,
    non_interference_ctrl_plant,
    non_interference_plants,
)
from ccskit.dsl import parse_formula_text, parse_program_text, parse_term_text
from ccskit.errors import CcsError


def _contract(assume="true", guarantee="true", init="true") -> Contract:
    return Contract(*map(parse_formula_text, (assume, guarantee, init)))


def _ctrl(name, body, stamp, contract, reactivity=Fraction(1, 20)):
    return ReactiveController(
        name=name,
        ctrl=parse_program_text(body),
        reactivity=reactivity,
        timestamp=stamp,
        contract=contract,
        bound_name=f"delta_{name}",
    )


def _plant(name, equations, domain, contract, controllability=Fraction(1, 5)):
    return ControllablePlant(
        name=name,
        equations=tuple((v, parse_term_text(rhs)) for v, rhs in equations),
        domain=parse_formula_text(domain),
        controllability=controllability,
        contract=contract,
        bound_name=f"Delta_{name}",
    )


CA = _ctrl("ca", "ya := 1", "tau_1", _contract(guarantee="ya <= 1"))
CB = _ctrl("cb", "ya := 2; yb := ya", "tau_2", _contract(guarantee="yb >= 0"))
CD = _ctrl("cd", "yd := 0", "tau_1", _contract())
CG = _ctrl(
    "cg", "yg := 1", "tau_6", _contract(assume="tau_1 >= 0", guarantee="yg = 1")
)
CI = _ctrl(
    "ci", "yi := 1", "tau_8", _contract(guarantee="tau_8 <= t", init="tau_2 = 0")
)
CM = _ctrl("cm", "ym := u", "tau_11", _contract(guarantee="ym = u"))
CN = _ctrl("cn", "yn := ym", "tau_12", _contract(guarantee="yn = ym"))

CONTROLLERS = [
    CA,
    CB,
    _ctrl("cc", "yc := u", "tau_3", _contract(guarantee="ya <= yc")),
    CD,
    _ctrl("ce", "x := 0", "tau_4", _contract(guarantee="x >= 0")),
    _ctrl("cf", "yf := x", "tau_5", _contract(guarantee="x <= 10 & yf = x")),
    CG,
    _ctrl("ch", "yh := 1", "tau_7", None),
    CI,
    _ctrl("cj", "yj := 1", "tau_9", _contract(), reactivity=Fraction(1)),
    _ctrl("ck", "u := 1; yk := u", "tau_10", _contract(guarantee="u >= 0")),
    _ctrl("cl", "?(yl >= 0); yl := yl - 1 U yl := 0", "tau_13", _contract()),
    MultiChoiceController(name="fmn", choices=(CM, CN), reactivity=Fraction(1, 10)),
    MultiChoiceController(name="fad", choices=(CA, CD), reactivity=Fraction(1, 10)),
    MultiChoiceController(name="fag", choices=(CA, CG), reactivity=Fraction(1, 10)),
    MultiChoiceController(name="fbi", choices=(CB, CI), reactivity=Fraction(1, 10)),
]

PLANTS = [
    _plant("pa", [("x", "u")], "x >= 0", _contract("u >= 0", "x <= 10")),
    _plant("pb", [("x", "1")], "true", _contract(guarantee="x >= 0"), Fraction(1, 2)),
    _plant("pc", [("z", "x")], "z >= 0", _contract(guarantee="z >= 0")),
    _plant("pd", [("w", "-w")], "true", _contract(guarantee="w <= x")),
    _plant("pe", [("r", "1")], "true", _contract(assume="tau_1 >= 0")),
    _plant("pf", [("s", "1")], "s <= tau_2", _contract()),
    _plant("pg", [("q", "1")], "true", None),
    _plant("ph", [("h", "1")], "true", _contract(guarantee="ya <= h")),
    _plant("pi", [("ya", "1")], "true", _contract()),
    _plant("pj", [("v", "1")], "true", _contract(), Fraction(1, 100)),
    _plant("pk", [("k", "yb")], "true", _contract("true", "k >= 0", "tau_3 = 0")),
    _plant("pl", [("l", "tau_4"), ("m", "l")], "m >= 0", _contract()),
]

COST_MODELS = [CostModel.uniform(), CostModel(mapping={"ca": "ecu0", "cm": "ecu1"})]


def _record(lines: list[str], label: str, call):
    """Append `label` and the rows of the report `call()` returns, the
    name of the component it builds, or its error's type and message;
    return what `call()` returned, or None on an error."""
    try:
        out = call()
    except CcsError as e:
        lines.append(f"{label} !{type(e).__name__}: {e}")
        return None
    if not hasattr(out, "violations"):
        lines.append(f"{label} ok {out.name}")
        return out
    lines.append(f"{label} report {out.gate}")
    lines.extend(
        f"  {v.gate}|{v.severity}|{v.description}|{','.join(sorted(v.variables))}"
        for v in (*out.violations, *out.warnings)
    )
    return out


def gate_lines() -> list[str]:
    lines: list[str] = []

    def record(label: str, call):
        return _record(lines, label, call)

    for a in CONTROLLERS:
        for b in CONTROLLERS:
            pair = f"{a.name}/{b.name}"
            record(f"ni-ctrl {pair}", lambda: non_interference_controllers(a, b))
            for i, cm in enumerate(COST_MODELS):
                label = f"compose-ctrl#{i} {pair}"
                record(label, lambda: compose_controllers(a, b, cm))
    for a in PLANTS:
        for b in PLANTS:
            pair = f"{a.name}/{b.name}"
            record(f"ni-plants {pair}", lambda: non_interference_plants(a, b))
            record(f"compose-plants {pair}", lambda: compose_plants(a, b))
    built = {}
    for c in CONTROLLERS:
        for p in PLANTS:
            pair = f"{c.name}/{p.name}"
            record(f"ni-ctrl-plant {pair}", lambda: non_interference_ctrl_plant(c, p))
            built[c.name, p.name] = record(f"make-ccs {pair}", lambda: make_ccs(c, p))
    # One closed loop per controller, on the first plant it accepts from a
    # start that moves one plant along per controller, so that the loops
    # differ in both components.
    systems = []
    for i, c in enumerate(CONTROLLERS):
        k = i % len(PLANTS)
        for p in PLANTS[k:] + PLANTS[:k]:
            if built[c.name, p.name] is not None:
                systems.append(built[c.name, p.name])
                break
    for a in systems:
        for b in systems:
            for i, cm in enumerate(COST_MODELS):
                label = f"compose-mccs#{i} {a.name}/{b.name}"
                record(label, lambda: compose_mccs(a, b, cm))
    return lines


def test_gate_reports_and_errors_are_pinned():
    lines = gate_lines()
    calls = sum(not line.startswith(" ") for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (calls, len(lines), digest) == PIN


def test_every_freshness_place_rejects_a_timestamp():
    """Each place `make_ccs` checks a timestamp against raises its own
    message: a repeat in the family, the plant, another controller's
    contract and the plant's contract."""
    messages = {
        line.partition(" !NonFreshTimestamp: ")[2]
        for line in gate_lines()
        if line.startswith("make-ccs ") and "!NonFreshTimestamp" in line
    }
    assert messages == {
        "timestamp 'tau_1' used by two controllers",
        "timestamp 'tau_2' occurs in plant 'pf'",
        "timestamp 'tau_4' occurs in plant 'pl'",
        "timestamp 'tau_1' occurs in the contract of 'cg'",
        "timestamp 'tau_2' occurs in the contract of 'ci'",
        "timestamp 'tau_1' occurs in the contract of plant 'pe'",
        "timestamp 'tau_3' occurs in the contract of plant 'pk'",
    }


PIN = (
    1682,
    2227,
    "ccb09d56495ddb7b9dd9f90a1142e56f109b1b0162fdea56d171c112f35511a6",
)
