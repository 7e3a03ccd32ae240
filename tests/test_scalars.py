from fractions import Fraction

import pytest

from kappacalc.scalars import (GaussScalar, I, MINUS_I, ONE, ScalarError,
                               ZERO)


def test_construction_and_coercion():
    assert GaussScalar.coerce(3) == GaussScalar(3)
    assert GaussScalar.coerce(Fraction(1, 2)) == GaussScalar(Fraction(1, 2))
    assert GaussScalar.coerce(ONE) is ONE
    g = GaussScalar(Fraction(2, 4), Fraction(-6, 3))
    assert g.re == Fraction(1, 2)
    assert g.im == -2


def test_ring_operations():
    a = GaussScalar(1, 2)
    b = GaussScalar(3, -1)
    assert a + b == GaussScalar(4, 1)
    assert a - b == GaussScalar(-2, 3)
    # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
    assert a * b == GaussScalar(5, 5)
    assert -a == GaussScalar(-1, -2)
    assert I * I == GaussScalar(-1)
    assert I * MINUS_I == ONE


def test_division_and_inverse():
    a = GaussScalar(1, 2)
    b = GaussScalar(3, -1)
    assert (a * b) / b == a
    assert ONE / I == MINUS_I
    with pytest.raises(ZeroDivisionError):
        a / ZERO
    with pytest.raises(ScalarError):
        GaussScalar.coerce(0.5)


def test_exponent_notation_is_refused():
    # "1e99999999" would build a 10^99999999 numerator; decimals still pass
    from kappacalc.algebra import Context
    from kappacalc.calculus import build_calculus
    from kappacalc.realizations import build_basis
    from kappacalc.series import TruncSeries
    for bad in ("1e5", "2E3", "0.5e1"):
        with pytest.raises(ScalarError, match="exponent notation"):
            GaussScalar(bad)
    with pytest.raises(ScalarError):
        TruncSeries(["2e3"])
    with pytest.raises(ScalarError):
        build_calculus(build_basis(Context(2, 2, (1, 0)), "bicrossproduct"),
                       "1e0")
    assert GaussScalar("0.25", "-3/4") == GaussScalar(Fraction(1, 4),
                                                      Fraction(-3, 4))


def test_conjugate_and_powers():
    a = GaussScalar(2, -3)
    assert a.conjugate() == GaussScalar(2, 3)
    assert a * a.conjugate() == GaussScalar(13)
    assert I ** 4 == ONE
    assert I ** -1 == MINUS_I
    assert a ** 0 == ONE


def test_predicates_and_hash():
    assert ZERO.is_zero()
    assert not ONE.is_zero()
    assert hash(GaussScalar(1, 2)) == hash(GaussScalar(1, 2))
    assert len({ONE, GaussScalar(1), GaussScalar(1, 0)}) == 1


def test_render():
    assert GaussScalar(0).render() == "0"
    assert ONE.render() == "1"
    assert I.render() == "i"
    assert MINUS_I.render() == "-i"
    assert GaussScalar(Fraction(1, 2)).render() == "1/2"
    out = GaussScalar(1, -2).render()
    assert "1" in out and "2" in out and "i" in out
