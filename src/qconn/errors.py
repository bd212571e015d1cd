"""Exception types shared across the package."""

from __future__ import annotations


class QconnError(Exception):
    """Base class for all package errors."""


class ParseError(QconnError):
    """Input is not syntactically readable (malformed JSON, bad rational)."""


class SchemaError(QconnError):
    """Input parses but does not match an instance schema or invariant."""


class QpmValidationError(QconnError):
    """Matrix fails the quasi-pseudometric axioms.

    Carries the complete list of violation records (NonZeroDiagonal /
    TriangleViolation), not just the first one found.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:8])
        more = "" if len(self.violations) <= 8 else f" (+{len(self.violations) - 8} more)"
        super().__init__(f"{len(self.violations)} axiom violation(s): {lines}{more}")


class NonRepresentable(QconnError):
    """The result has no form in the requested mode: irrational in exact
    mode, or overflowing float arithmetic in float mode."""

    def __init__(self, p, detail=""):
        self.p = p
        super().__init__(f"value not representable for exponent {p}{': ' + detail if detail else ''}")


class EmptyGrid(QconnError):
    pass


class NonPositiveScale(QconnError):
    pass


class KindMismatch(QconnError):
    """A power gauge met a gauge of another kind or exponent in a merge."""


class NonPositiveParameter(QconnError):
    pass


class EmptySubset(QconnError):
    pass


class CoherenceError(QconnError):
    """Minimal-neighborhood map violates y in N(x) => N(y) subset of N(x)."""


class CarrierTooLarge(QconnError):
    pass


class UnknownProperty(QconnError):
    pass


class NotCauchy(QconnError):
    pass


class NegativeRadius(QconnError):
    pass


class NonPositiveEpsilon(QconnError):
    pass


class CarrierMismatch(QconnError):
    pass


class PreconditionFailed(QconnError):
    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)
