"""Dict-state views of the compiler, for the reference tests.

The package compiles terms, formulas and programs over tuple states, one
slot per name of a layout (`emit_term`/`emit_formula` with
`compile_source`, and `compile_program_over`). The reference evaluators
in the tests take dicts (name -> float) instead. These adapters run the
package's compiled code on such a dict, over the layout of the node's
names, sorted.

A term or formula reads the dict through that layout, so a name the dict
lacks raises KeyError only when the generated code reads it, as it does
in a direct evaluation of the dict.
"""

from ccskit.simulator import (
    compile_program_over,
    compile_source,
    emit_formula,
    emit_term,
    slots_of,
)
from ccskit.statics import all_vars


class ByName:
    """A dict read as a tuple state: `v[i]` is `d[layout[i]]`."""

    __slots__ = ("d", "layout")

    def __init__(self, d: dict, layout: tuple[str, ...]) -> None:
        self.d = d
        self.layout = layout

    def __getitem__(self, i: int) -> float:
        return self.d[self.layout[i]]


def _on_dicts(emit, node):
    layout = tuple(sorted(all_vars(node)))
    fn = compile_source("s", emit(node, slots_of(layout)))
    return lambda d: fn(ByName(d, layout))


def term_on_dicts(t):
    """`t` as a function of a dict state."""
    return _on_dicts(emit_term, t)


def formula_on_dicts(f):
    """`f` as a function of a dict state to its truth value."""
    return _on_dicts(emit_formula, f)


def program_on_dicts(p, cut=lambda: None):
    """`p` as a function from a dict state to the list of its final
    states, each the input dict updated with the slots the path set.
    Every name `p` reads before writing it must be in the input."""
    layout = tuple(sorted(all_vars(p)))
    fn = compile_program_over(p, slots_of(layout))

    def run(d: dict) -> list[dict]:
        finals = fn(tuple(d.get(n) for n in layout), cut)
        return [
            {**d, **{n: v for n, v in zip(layout, r) if v is not None}}
            for r in finals
        ]

    return run
