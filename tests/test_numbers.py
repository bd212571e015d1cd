import copy
import pickle
from fractions import Fraction

import pytest

from qconn.numbers import (
    INF,
    MAX_LITERAL_DIGITS,
    MAX_LITERAL_EXPONENT,
    ZERO,
    LiteralTooLarge,
    enn,
    exact_root,
    parse_rational,
)

HUGE = Fraction(10**400)  # past the float range


def test_parse_and_render():
    assert str(enn("3/2")) == "3/2"
    assert str(enn("inf")) == "inf"
    assert str(enn(0)) == "0"
    assert enn("2") == Fraction(2)


@pytest.mark.parametrize("value", [3, Fraction(3, 2), 0.25, "3/2", "1e-3"])
def test_finite_values_are_plain_fractions(value):
    assert type(enn(value)) is Fraction


def test_infinity_is_one_object():
    assert enn("inf") is INF
    assert enn(INF) is INF
    assert copy.copy(INF) is INF
    assert copy.deepcopy(INF) is INF
    assert copy.deepcopy([INF, {"v": INF}])[1]["v"] is INF
    assert pickle.loads(pickle.dumps(INF)) is INF


def test_negative_rejected():
    for value in (-1, "-3/2", Fraction(-1, 3)):
        with pytest.raises(ValueError, match="negative value not allowed"):
            enn(value)


def test_infinity_absorbs_addition():
    assert INF + enn(5) is INF
    assert enn(5) + INF is INF
    assert 5 + INF is INF
    assert INF + INF is INF
    assert enn("1/2") + enn("1/3") == enn("5/6")


def test_infinity_meets_huge_fractions_without_float():
    # math.inf would raise OverflowError here: Fraction converts to float
    assert HUGE + INF is INF
    assert INF + HUGE is INF
    assert HUGE < INF and HUGE <= INF and INF > HUGE and INF >= HUGE
    assert not (INF < HUGE or INF <= HUGE or HUGE > INF or HUGE >= INF)
    assert HUGE != INF and INF != HUGE
    assert sorted([INF, HUGE, ZERO, INF, HUGE + 1]) == [ZERO, HUGE, HUGE + 1, INF, INF]
    assert max(HUGE, INF) is INF and min(INF, HUGE) == HUGE


def test_infinity_is_maximal():
    assert enn(10**9) < INF
    assert INF <= INF and INF >= INF
    assert not INF < INF and not INF > INF


def test_comparisons_coerce_rationals():
    assert enn("1/2") < Fraction(2, 3)
    assert enn(2) >= 2
    assert not INF < Fraction(10**12)
    assert 0 < INF and not INF <= 0


def test_exact_root():
    assert exact_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert exact_root(Fraction(4), 2) == Fraction(2)
    assert exact_root(Fraction(2), 2) is None
    assert exact_root(Fraction(0), 5) == Fraction(0)


def test_hash_consistency():
    assert hash(enn("2/4")) == hash(enn("1/2"))
    assert len({enn(1), enn("1"), INF, enn("inf")}) == 2


def test_zero_constant():
    assert ZERO == enn(0)
    assert type(ZERO) is Fraction and ZERO is not INF


def test_literal_limits():
    for x in (5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1):
        exact = Fraction(x)
        assert parse_rational(f"{exact.numerator}/{exact.denominator}") == exact
        assert parse_rational(repr(x)) == Fraction(repr(x))
    assert parse_rational("1" * MAX_LITERAL_DIGITS) == int("1" * MAX_LITERAL_DIGITS)
    assert parse_rational(f"1e-{MAX_LITERAL_EXPONENT}") == Fraction(1, 10**MAX_LITERAL_EXPONENT)
    for text in ("1" * (MAX_LITERAL_DIGITS + 1), f"1e{MAX_LITERAL_EXPONENT + 1}",
                 "2E-9999999", "1/" + "3" * (MAX_LITERAL_DIGITS + 1)):
        with pytest.raises(LiteralTooLarge):
            parse_rational(text)
        with pytest.raises(ValueError):
            enn(text)
    with pytest.raises(ValueError):
        parse_rational("1e5x")


@pytest.mark.parametrize("text, ok", [
    ("7" * MAX_LITERAL_DIGITS, True), ("7" * (MAX_LITERAL_DIGITS + 1), False),
    (f"1e{MAX_LITERAL_EXPONENT}", True), (f"1e{MAX_LITERAL_EXPONENT + 1}", False),
    (f"1E{MAX_LITERAL_EXPONENT + 1}", False),
])
def test_literal_limit_boundaries(text, ok):
    if ok:
        assert parse_rational(text) == Fraction(text)
    else:
        with pytest.raises(LiteralTooLarge):
            parse_rational(text)
