"""Exception types shared across the toolchain.

Every gate failure has its own class so callers (and the CLI exit-code
mapping) can tell *which* well-formedness rule broke without string
matching. All of them derive from :class:`CcsError`.
"""

from __future__ import annotations


class CcsError(Exception):
    """Base class for every model/verification error raised by ccskit."""


class ParseError(CcsError):
    """Concrete-syntax error with source position.

    Attributes:
        line: 1-based line of the offending token.
        col: 1-based column of the offending token.
        expected: human-readable description of what would have been legal.
    """

    def __init__(self, line: int, col: int, expected: str, found: str = ""):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found
        at = f"{line}:{col}"
        msg = f"{at}: expected {expected}"
        if found:
            msg += f", found {found}"
        super().__init__(msg)


class UnresolvedName(CcsError):
    """A declaration references a name that is not declared in the file."""

    def __init__(self, name: str, context: str = ""):
        self.name = name
        suffix = f" in {context}" if context else ""
        super().__init__(f"unresolved name {name!r}{suffix}")


class NotDiscrete(CcsError):
    """A controller body contains continuous dynamics."""


class NonFreshTimestamp(CcsError):
    """A controller timestamp collides with variables already in use."""


class NonPositiveBound(CcsError):
    """A reactivity/controllability bound must be strictly positive."""


class ClockRedefined(CcsError):
    """The global clock `t` was declared or written by user dynamics."""


class ReservedName(CcsError):
    """`t` / `tau_<k>` used where user programs may not touch them."""


class ReactivityExceedsControllability(CcsError):
    """Scheduling cost of the controllers is too slow for some plant."""

    def __init__(self, cost, bound):
        self.cost = cost
        self.bound = bound
        super().__init__(
            f"controller scheduling cost {cost} exceeds plant controllability {bound}"
        )


class InterferenceError(CcsError):
    """A variable-level non-interference gate failed.

    Carries the full report so callers can render every violation, not
    just the first one.
    """

    def __init__(self, report):
        self.report = report
        first = report.violations[0].describe() if report.violations else "?"
        extra = len(report.violations) - 1
        msg = first if extra <= 0 else f"{first} (+{extra} more)"
        super().__init__(msg)


class EnvironmentNotConstant(CcsError):
    """The environment formula reads a variable the system writes."""

    def __init__(self, names):
        self.names = frozenset(names)
        super().__init__(
            "environment mentions system-written variable(s): "
            + ", ".join(sorted(self.names))
        )


class InvalidContract(CcsError):
    """Contract formulas must be modality-free first-order state predicates."""


class MissingContract(CcsError):
    """Composition was asked for a component that has no contract attached."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"component {name!r} has no contract")


class UnmappedController(CcsError):
    """Cost model lookup failed for a controller name."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"controller {name!r} is not mapped to a resource")


class BoundOccursInBehavior(CcsError):
    """A reactivity constant's name leaks into behaviour it must not steer."""

    def __init__(self, name: str, where: str):
        self.name = name
        self.where = where
        super().__init__(f"reactivity constant {name!r} occurs in {where}")


class UnboundedVariable(CcsError):
    """A sampled variable has no interval, or an alias chain no end value."""

    def __init__(self, name: str, message: str | None = None):
        self.name = name
        super().__init__(message or f"no interval given for variable {name!r}")


class InitViolatesAssumptions(CcsError):
    """Simulation start state fails Env / Init / A of some component."""

    def __init__(self, formula_text: str):
        self.formula_text = formula_text
        super().__init__(f"initial state violates: {formula_text}")


class StuckState(CcsError):
    """No branch of the system is enabled and time may not advance."""

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"no enabled transition at t = {time:.9f}")


class DivisionByZero(CcsError):
    """Term evaluation divided by zero."""

    def __init__(self, term_text: str):
        self.term_text = term_text
        super().__init__(f"division by zero in {term_text}")
