from fractions import Fraction

import pytest

from kappacalc.dsl import (MAX_EXPONENT, Bin, DslEvalError, DslSyntaxError,
                           Lit, Pow, Var, eval_dsl, parse_dsl, render_dsl)
from kappacalc.scalars import GaussScalar
from kappacalc.series import TruncSeries


def frac(p, q=1):
    return GaussScalar(Fraction(p, q))


def test_parse_render_round_trip():
    sources = [
        "1",
        "A",
        "exp(-A)",
        "A/(exp(A)-1)",
        "1-A",
        "exp(((c-1)/r)*log(1+r*A))",
        "(1+A)^-2",
        "sqrt(1+A^2)",
        "-A*exp(A)",
        "1+A-A^2/3",
        "(1+A)^-2/3",
    ]
    for src in sources:
        node = parse_dsl(src)
        again = parse_dsl(render_dsl(node))
        assert again == node, src


def test_eval_basic():
    assert (eval_dsl("1", 3) - TruncSeries.one(3)).is_zero()
    assert (eval_dsl("A", 3) - TruncSeries.t(3)).is_zero()
    assert (eval_dsl("exp(A)", 4) - TruncSeries.t(4).exp()).is_zero()
    assert (eval_dsl("2*A - A", 2) - TruncSeries.t(2)).is_zero()
    assert eval_dsl("3/4", 1)[0] == frac(3, 4)


def test_bernoulli_series():
    # A/(exp(A)-1) = 1 - A/2 + A^2/12 - A^4/720 + ...
    s = eval_dsl("A/(exp(A)-1)", 4)
    assert s[0] == frac(1)
    assert s[1] == frac(-1, 2)
    assert s[2] == frac(1, 12)
    assert s[3] == frac(0)
    assert s[4] == frac(-1, 720)


def test_adaptive_order_through_division():
    # the inner division would naively lose an order; result must carry all 5
    s = eval_dsl("exp(A/(exp(A)-1) - 1)", 5)
    assert s.order == 5
    check = (eval_dsl("A/(exp(A)-1)", 5) - TruncSeries.one(5)).exp()
    assert (s - check).is_zero()


def test_bindings():
    s = eval_dsl("exp(((c-1)/r)*log(1+r*A))", 3,
                 {"c": Fraction(2), "r": Fraction(1)})
    assert (s - (TruncSeries.one(3) + TruncSeries.t(3))).is_zero()
    with pytest.raises(DslEvalError):
        eval_dsl("c*A", 2)


def test_negative_and_power():
    s = eval_dsl("(1+A)^-2", 3)
    want = (TruncSeries.one(3) + TruncSeries.t(3)).recip().pow(2)
    assert (s - want).is_zero()
    assert (eval_dsl("-(1+A)", 2) + TruncSeries.one(2) + TruncSeries.t(2)) \
        .is_zero()


def test_exponent_then_division():
    # a number p/q after '^' is the exponent p followed by the division /q
    assert parse_dsl("A^2/3") == Bin("/", Pow(Var(), 2), Lit(Fraction(3)))
    assert parse_dsl("A^-2/3") == Bin("/", Pow(Var(), -2), Lit(Fraction(3)))
    assert parse_dsl("A^2/3/4") == Bin("/", parse_dsl("A^2/3"),
                                       Lit(Fraction(4)))
    # elsewhere p/q stays one rational literal
    assert parse_dsl("2/3*A") == Bin("*", Lit(Fraction(2, 3)), Var())
    t = TruncSeries.t(3)
    assert eval_dsl("1+A-A^2/3", 3) == \
        TruncSeries.one(3) + t - (t * t).scale(Fraction(1, 3))
    assert eval_dsl("(1+A)^-2/3", 3) == \
        (TruncSeries.one(3) + t).recip().pow(2).scale(Fraction(1, 3))
    with pytest.raises(DslEvalError):
        eval_dsl("A^2/0", 3)
    with pytest.raises(DslSyntaxError):
        parse_dsl("A^2/")


def test_syntax_errors():
    for src in ["", "A+", "exp A", "(1+A", "A^^2", "A # B", "1..2", "A^(1/2)",
                "1/0", "A+3/0", "9^99999999", f"A^{MAX_EXPONENT + 1}",
                f"(1+A)^-{MAX_EXPONENT + 1}", "(2^100)^100", "(1+2^40*A)^40",
                "A^2^600", "9" * 5000, "(" * 3000 + "1" + ")" * 3000,
                "-" * 5000 + "1"]:
        with pytest.raises(DslSyntaxError):
            parse_dsl(src)
    # the bound itself is accepted, also as a product of nested exponents
    assert eval_dsl(f"A^{MAX_EXPONENT}", 3).is_zero()
    assert eval_dsl(f"(1+A)^-{MAX_EXPONENT}", 1)[1] == frac(-MAX_EXPONENT)
    assert parse_dsl("(2^10)^100").exponent == 100


def test_eval_errors():
    with pytest.raises(DslEvalError):
        eval_dsl("log(A)", 3)
    with pytest.raises(DslEvalError):
        eval_dsl("exp(1+A)", 3)
    with pytest.raises(DslEvalError):
        eval_dsl("1/A", 3)  # inexact division
    with pytest.raises(DslEvalError):
        eval_dsl("A^-1", 3)  # negative power of a non-unit


def test_division_is_field_like_on_units():
    s = eval_dsl("(1+A)/(1-A)", 3)
    one, t = TruncSeries.one(3), TruncSeries.t(3)
    assert (s * (one - t) - (one + t)).is_zero()
