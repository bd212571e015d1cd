"""Exact arithmetic on the extended nonnegative rationals [0, inf].

Every gauge and distance in this package takes values here.  Keeping the
codomain exact (Fraction or the distinguished infinity) is what turns
zero-distance tests and triangle checks into decision procedures instead
of tolerance judgements.
"""

from __future__ import annotations

from fractions import Fraction


MAX_LITERAL_DIGITS = 400
MAX_LITERAL_EXPONENT = 400


class LiteralTooLarge(ValueError):
    """A rational literal beyond MAX_LITERAL_DIGITS or MAX_LITERAL_EXPONENT."""


def parse_rational(text: str) -> Fraction:
    """Parse a rational string like "3/2", "-1", "0.25", "1e-3".

    Literals with more than MAX_LITERAL_DIGITS digits or an exponent beyond
    +-MAX_LITERAL_EXPONENT are refused before Fraction sees them (it would
    build a 33-million-bit integer for "1e9999999").  The limits admit
    every IEEE double, as its shortest decimal or exactly as num/den.  A
    text of at most MAX_LITERAL_DIGITS characters without "e" or "E" can
    break neither limit and goes straight to Fraction.
    """
    text = str(text)
    if len(text) <= MAX_LITERAL_DIGITS and "e" not in text and "E" not in text:
        return Fraction(text)
    digits = sum(c.isdigit() for c in text)
    _, marker, exponent = text.lower().partition("e")
    try:
        power = abs(int(exponent)) if marker else 0
    except ValueError:
        power = 0  # not a decimal exponent; Fraction rejects the text
    if digits > MAX_LITERAL_DIGITS or power > MAX_LITERAL_EXPONENT:
        raise LiteralTooLarge(
            f"literal with {digits} digits and exponent {power} exceeds the limits "
            f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}, "
            f"MAX_LITERAL_EXPONENT = {MAX_LITERAL_EXPONENT}")
    return Fraction(text)


class ExtNonNeg:
    """A nonnegative rational or +infinity.

    Addition absorbs infinity, comparison places infinity on top, and all
    operations are exact.  Instances are immutable and hashable.
    """

    __slots__ = ("_v",)

    def __init__(self, value):
        if value is None:
            self._v = None
            return
        if isinstance(value, ExtNonNeg):
            self._v = value._v
            return
        if isinstance(value, str):
            if value == "inf":  # the one spelling of infinity
                self._v = None
                return
            v = parse_rational(value)
        else:
            v = Fraction(value)  # floats enter only through the documented float mode
        if v < 0:
            raise ValueError(f"negative value not allowed: {value!r}")
        self._v = v

    @property
    def is_inf(self) -> bool:
        return self._v is None

    @property
    def frac(self) -> Fraction:
        if self._v is None:
            raise ValueError("infinite value has no finite representation")
        return self._v

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "ExtNonNeg") -> "ExtNonNeg":
        other = enn(other)
        if self._v is None or other._v is None:
            return INF
        return ExtNonNeg(self._v + other._v)

    __radd__ = __add__

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ExtNonNeg, int, Fraction)):
            return NotImplemented
        other = enn(other)
        return self._v == other._v

    def __hash__(self):
        return hash(("ExtNonNeg", self._v))

    def __lt__(self, other) -> bool:
        other = enn(other)
        if self._v is None:
            return False
        if other._v is None:
            return True
        return self._v < other._v

    def __le__(self, other) -> bool:
        other = enn(other)
        if other._v is None:
            return True
        if self._v is None:
            return False
        return self._v <= other._v

    def __gt__(self, other) -> bool:
        return enn(other).__lt__(self)

    def __ge__(self, other) -> bool:
        return enn(other).__le__(self)

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        return "inf" if self._v is None else str(self._v)

    def __repr__(self) -> str:
        return f"ExtNonNeg({str(self)!r})"


def enn(x) -> ExtNonNeg:
    """Shorthand constructor; returns ExtNonNeg arguments unchanged."""
    return x if isinstance(x, ExtNonNeg) else ExtNonNeg(x)


ZERO = ExtNonNeg(0)
INF = ExtNonNeg(None)


def exact_root(value: Fraction, degree: int) -> Fraction | None:
    """Exact nonnegative degree-th root of a nonnegative rational, or None
    if the root is irrational."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if value < 0:
        raise ValueError("value must be nonnegative")
    if degree == 1 or value in (0, 1):
        return Fraction(value)
    num = int_root(value.numerator, degree)
    den = int_root(value.denominator, degree)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def int_root(n: int, k: int) -> int | None:
    """Exact k-th root of a nonnegative integer, or None if it is irrational."""
    if n in (0, 1):
        return n
    lo, hi = 0, 1
    while hi**k < n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None
