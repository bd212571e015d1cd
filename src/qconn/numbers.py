"""Exact arithmetic on the extended nonnegative rationals [0, inf].

Every gauge and distance in this package takes values here: a finite
value is a plain Fraction and +infinity is the one object INF.  Keeping
the codomain exact is what turns zero-distance tests and triangle checks
into decision procedures instead of tolerance judgements.
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


class _Infinity:
    """+infinity, the one value of [0, inf] that is not a Fraction.

    Addition absorbs it and it sorts above every number.  Fraction's
    operators return NotImplemented for an operand they do not know, so
    Python calls the reflected method here and nothing is converted to
    float (``Fraction + math.inf`` converts the Fraction, which raises
    OverflowError past about 1.8e308).  Copies and pickles give back INF.
    """

    __slots__ = ()

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True

    def __str__(self) -> str:
        return "inf"

    __repr__ = __str__

    def __reduce__(self) -> str:
        return "INF"


INF = _Infinity()
ZERO = Fraction(0)
Value = Fraction | _Infinity  # a value in [0, inf]


def enn(x) -> Value:
    """x as a value in [0, inf]: INF for INF itself or exactly the text
    "inf", else a nonnegative Fraction; other text goes through
    parse_rational."""
    if x is INF or x == "inf":
        return INF
    v = parse_rational(x) if isinstance(x, str) else Fraction(x)  # floats only in float mode
    if v < 0:
        raise ValueError(f"negative value not allowed: {x!r}")
    return v


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
