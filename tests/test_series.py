import random
from fractions import Fraction
from math import factorial, gcd

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy import QQ_I
from sympy.polys.rings import ring
from sympy.polys.ring_series import (rs_exp, rs_log, rs_mul,
                                     rs_series_inversion,
                                     rs_series_reversion, rs_subs)

import oracle_series as oracle
from kappacalc.algebra import Context
from kappacalc.calculus import build_calculus
from kappacalc.dsl import eval_dsl
from kappacalc.realizations import build_basis, family_params
from kappacalc.scalars import GaussScalar, I, ONE, ScalarError
from kappacalc.series import OrderMismatch, SeriesError, TruncSeries


def frac(p, q=1):
    return GaussScalar(Fraction(p, q))


def test_constructors_and_order():
    t = TruncSeries.t(4)
    assert t.order == 4
    assert t[1] == ONE and t[0].is_zero()
    assert TruncSeries.const(7, 2).coeffs == (frac(7), frac(0), frac(0))
    assert TruncSeries.monomial(Fraction(1, 3), 2, 3)[2] == frac(1, 3)
    assert TruncSeries.monomial(5, 7, 3).is_zero()


def test_strict_order_matching():
    a = TruncSeries.one(3)
    b = TruncSeries.one(2)
    with pytest.raises(OrderMismatch):
        a + b
    with pytest.raises(OrderMismatch):
        a * b
    assert (a + a.truncate(3)).order == 3


def test_mul_against_convolution():
    a = TruncSeries([1, 2, 3, 4])
    b = TruncSeries([5, 6, 7, 8])
    prod = a * b
    # manual convolution through order 3
    want = [5, 6 + 10, 7 + 12 + 15, 8 + 14 + 18 + 20]
    assert list(prod.coeffs) == [frac(w) for w in want]


def test_exp_log_oracles():
    t = TruncSeries.t(6)
    e = t.exp()
    for k in range(7):
        assert e[k] == frac(1, factorial(k))
    # log(1+t) = t - t^2/2 + t^3/3 - ...
    lg = (TruncSeries.one(6) + t).log()
    assert lg[0].is_zero()
    for k in range(1, 7):
        assert lg[k] == frac((-1) ** (k + 1), k)
    # round trips
    assert (e.log() - t).is_zero()
    assert ((lg).exp() - (TruncSeries.one(6) + t)).is_zero()


def test_exp_requires_zero_constant():
    with pytest.raises(SeriesError):
        TruncSeries.one(3).exp()
    with pytest.raises(SeriesError):
        TruncSeries.const(2, 3).log()


def test_recip_and_sqrt():
    s = TruncSeries([1, 3, -2, 5, 1])
    assert (s * s.recip() - TruncSeries.one(4)).is_zero()
    with pytest.raises(SeriesError):
        TruncSeries.t(3).recip()
    r = (TruncSeries.one(5) + TruncSeries.t(5)).sqrt()
    assert (r * r - TruncSeries.one(5) - TruncSeries.t(5)).is_zero()
    # binomial coefficients of (1+t)^(1/2)
    assert r[1] == frac(1, 2)
    assert r[2] == frac(-1, 8)
    assert r[3] == frac(1, 16)


def test_derivative_drops_order_integrate_keeps():
    s = TruncSeries([1, 1, 1, 1])
    d = s.derivative()
    assert d.order == 2
    assert list(d.coeffs) == [frac(1), frac(2), frac(3)]
    i = d.integrate()
    assert i.order == 2
    assert (i - s.truncate(2) + TruncSeries.one(2)).is_zero()
    with pytest.raises(SeriesError):
        TruncSeries.const(1, 0).derivative()


def test_div_by_t_is_honest():
    s = TruncSeries([0, 0, 3, 4, 5])
    q = s.div_by_t(2)
    assert q.order == 2
    assert list(q.coeffs) == [frac(3), frac(4), frac(5)]
    with pytest.raises(SeriesError):
        TruncSeries([1, 2, 3]).div_by_t()
    with pytest.raises(SeriesError):
        TruncSeries([0, 1]).div_by_t(2)


def test_compose_and_inverse():
    t = TruncSeries.t(6)
    f = t.exp() - TruncSeries.one(6)  # e^t - 1
    g = f.comp_inverse()              # log(1+t)
    lg = (TruncSeries.one(6) + t).log()
    assert (g - lg).is_zero()
    assert (f.compose(g) - t).is_zero()
    assert (g.compose(f) - t).is_zero()
    with pytest.raises(SeriesError):
        TruncSeries.one(3).compose(TruncSeries.one(3))


def test_valuation_and_scale():
    assert TruncSeries([0, 0, 2, 1]).valuation() == 2
    assert TruncSeries.zero(3).valuation() == 4
    # s * s is nonzero through order 3, so this checks i * i = -1
    s = TruncSeries([1, 1, 2, 1])
    assert (s.scale(I) * s.scale(I) - (s * s).scale(-1)).is_zero()


def test_pow_including_negative():
    s = TruncSeries([1, 1, 0, 0])
    assert (s.pow(3) - TruncSeries([1, 3, 3, 1])).is_zero()
    assert (s.pow(-1) - s.recip()).is_zero()
    assert (s.pow(0) - TruncSeries.one(3)).is_zero()


def test_render():
    s = TruncSeries([1, 0, Fraction(-1, 2)])
    out = s.render("a0")
    assert "a0^2" in out and "1/2" in out


# -- the integer-numerator kernel against the list oracle ---------------------

# p/q with q <= 12 and |p/q| <= 7: the 645 values of st.fractions(-7, 7,
# max_denominator=12), sampled from a list built once
RATIONAL_VALUES = sorted({Fraction(p, q) for q in range(1, 13)
                          for p in range(-7 * q, 7 * q + 1)})
rationals = st.sampled_from(RATIONAL_VALUES)
gaussians = st.tuples(rationals, rationals).map(lambda p: GaussScalar(*p))
# zero, purely real, purely imaginary and full coefficients, so the kernel's
# zero-skipping paths all run
coefficients = st.one_of(
    st.just(GaussScalar(0)),
    rationals.map(GaussScalar),
    rationals.map(lambda q: GaussScalar(0, q)),
    gaussians)
scalar_factors = st.one_of(st.integers(-6, 6), rationals, gaussians)


def coefficient_lists(order):
    return st.lists(coefficients, min_size=order + 1, max_size=order + 1)


def assert_matches(s, want):
    """s has the oracle's coefficients, is canonical, and equals and hashes
    like the series built from the oracle's list."""
    assert list(s.coeffs) == want
    assert s.order == len(want) - 1
    degrees = [k for k, _, _ in s.nz]
    assert degrees == sorted(set(degrees))
    assert all(0 <= k <= s.order and (x or y) for k, x, y in s.nz)
    numerators = [v for _, x, y in s.nz for v in (x, y)]
    assert s.den > 0 and gcd(s.den, *numerators) == 1
    if all(c.is_zero() for c in want):
        assert s.nz == () and s.den == 1
    rebuilt = TruncSeries(want)
    assert (s.order, s.nz, s.den) == (rebuilt.order, rebuilt.nz, rebuilt.den)
    assert s == rebuilt and hash(s) == hash(rebuilt)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 8), st.data())
def test_kernel_against_list_oracle(order, data):
    a_list = data.draw(coefficient_lists(order))
    b_list = data.draw(coefficient_lists(order))
    a, b = TruncSeries(a_list), TruncSeries(b_list)
    assert_matches(a, a_list)
    assert_matches(a * b, oracle.mul(a_list, b_list))
    assert_matches(a + b, oracle.add(a_list, b_list))
    assert_matches(a - b, oracle.sub(a_list, b_list))
    assert_matches(-a, oracle.neg(a_list))
    factor = data.draw(scalar_factors)
    assert_matches(a.scale(factor), oracle.scale(a_list, factor))
    cut = data.draw(st.integers(0, order))
    assert_matches(a.truncate(cut), oracle.truncate(a_list, cut))
    k = data.draw(st.integers(0, 4))
    assert_matches(a.pow(k), oracle.power(a_list, k))
    if not a_list[0].is_zero():
        inverse = oracle.recip(a_list)
        assert_matches(a.recip(), inverse)
        assert_matches(a.pow(-k), oracle.power(inverse, k))
    assert_matches(a.integrate(), oracle.integrate(a_list))
    if order:
        assert_matches(a.derivative(), oracle.derivative(a_list))
        shift = data.draw(st.integers(1, order))
        shifted = [GaussScalar(0)] * shift + b_list[:order + 1 - shift]
        assert_matches(TruncSeries(shifted).div_by_t(shift),
                       oracle.div_by_t(shifted, shift))
    # equal values reached by different routes are equal and hash alike
    for other in ((a + b) - b, a.scale(6).scale(Fraction(1, 6)),
                  a.scale(I).scale(-I), TruncSeries(a.coeffs)):
        assert other == a and hash(other) == hash(a)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert (a - a) == TruncSeries.zero(order) and (a - a).den == 1


def test_floats_are_rejected():
    with pytest.raises(ScalarError):
        TruncSeries([0.5])
    with pytest.raises(ScalarError):
        TruncSeries.one(2).scale(0.5)
    with pytest.raises(ScalarError):
        TruncSeries.const(0.5, 2)


def _bicrossproduct():
    return build_basis(Context(2, 2, (1, 0)), "bicrossproduct")


@pytest.mark.parametrize("entry", [
    lambda: eval_dsl("1+q*A", 2, {"q": 0.1}),
    lambda: family_params(0.5, 2, 3),
    lambda: family_params(1, 0.5, 3),
    lambda: build_calculus(_bicrossproduct(), 0.5),
], ids=["dsl-bindings", "family-r", "family-c", "build-calculus"])
def test_floats_are_rejected_at_entry_points(entry):
    # each entry point once took Fraction(x), which accepts a float inexactly
    with pytest.raises(ScalarError):
        entry()


# -- the transcendental functions against SymPy's ring series over Q(i) -------
#
# SymPy's ring_series works on polynomials over QQ_I with its own
# algorithms (Newton iteration for exp, log, inversion and reversion); sqrt
# is the binomial series of (1 + u)^(1/2), where kappacalc takes exp(log/2).

RING, T = ring("t", QQ_I)
KINDS = ("zero", "real", "imaginary", "gaussian")


def _coefficient(rng, kind: str) -> GaussScalar:
    re = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    im = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return {"zero": GaussScalar(0), "real": GaussScalar(re),
            "imaginary": GaussScalar(0, im),
            "gaussian": GaussScalar(re, im)}[kind]


def _nonzero(rng, kind: str) -> GaussScalar:
    """A nonzero coefficient of the kind; 2 for the zero kind."""
    if kind == "zero":
        return GaussScalar(2)
    c = _coefficient(rng, kind)
    while c.is_zero():
        c = _coefficient(rng, kind)
    return c


def _draw(rng, kind: str, order: int, head=()) -> TruncSeries:
    """`head` followed by coefficients of the kind, through `order`."""
    head = list(head)[:order + 1]
    return TruncSeries(head + [_coefficient(rng, kind)
                               for _ in range(order + 1 - len(head))])


def _to_ring(s: TruncSeries):
    return sum((QQ_I(c.re, c.im) * T**k for k, c in enumerate(s.coeffs)),
               RING.zero)


def _from_ring(p, order: int) -> list:
    out = []
    for k in range(order + 1):
        c = p.get((k,), QQ_I.zero)
        out.append(GaussScalar(Fraction(int(c.x.numerator),
                                        int(c.x.denominator)),
                               Fraction(int(c.y.numerator),
                                        int(c.y.denominator))))
    return out


def _binomial_sqrt(p, prec: int):
    u = p - 1
    out, power = RING.zero, RING.one
    for k in range(prec):
        out += QQ_I.from_sympy(sp.binomial(sp.Rational(1, 2), k)) * power
        power = rs_mul(power, u, T, prec)
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_transcendental_against_sympy(kind):
    rng = random.Random(KINDS.index(kind))
    one, zero = GaussScalar(1), GaussScalar(0)
    for order in range(9):
        prec = order + 1
        x = _draw(rng, kind, order, [zero])
        assert list(x.exp().coeffs) == _from_ring(
            rs_exp(_to_ring(x), T, prec), order), (order, "exp")
        u = _draw(rng, kind, order, [one])
        assert list(u.log().coeffs) == _from_ring(
            rs_log(_to_ring(u), T, prec), order), (order, "log")
        assert list(u.sqrt().coeffs) == _from_ring(
            _binomial_sqrt(_to_ring(u), prec), order), (order, "sqrt")
        g = _draw(rng, kind, order, [_nonzero(rng, kind)])
        assert list(g.recip().coeffs) == _from_ring(
            rs_series_inversion(_to_ring(g), T, prec), order), \
            (order, "recip")
        f = _draw(rng, kind, order)
        assert list(f.compose(x).coeffs) == _from_ring(
            rs_subs(_to_ring(f), {T: _to_ring(x)}, T, prec), order), \
            (order, "compose")
        y = _draw(rng, kind, order, [zero, _nonzero(rng, kind)])
        if order == 0:
            with pytest.raises(SeriesError):
                y.comp_inverse()
            continue
        assert list(y.comp_inverse().coeffs) == _from_ring(
            rs_series_reversion(_to_ring(y), T, prec, T), order), \
            (order, "comp_inverse")
