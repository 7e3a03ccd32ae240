"""Randomized property checks (hypothesis).

Every property runs on at least 500 generated instances; sizes are kept small
(dim 2, low orders, low exponents) so the whole module stays fast.  The
strategies are built once, here: building them per draw, and drawing
rationals through `st.fractions`, cost far more than the properties.
"""
from fractions import Fraction
from itertools import product

from hypothesis import example, given, settings, strategies as st

from kappacalc.algebra import (AlgElement, Context, anticommutator,
                               commutator, graded_commutator)
from kappacalc.scalars import GaussScalar, I
from kappacalc.series import TruncSeries

CTX = Context(2, 2, (1, 0))

MANY = settings(max_examples=500, deadline=None)

# p/q with q <= 4 and |p/q| <= 6: 73 values
RATIONAL_VALUES = sorted({Fraction(p, q) for q in range(1, 5)
                          for p in range(-6 * q, 6 * q + 1)})
rationals = st.sampled_from(RATIONAL_VALUES)
scalars = st.tuples(rationals, rationals).map(lambda p: GaussScalar(*p))


def series(order: int):
    return st.lists(scalars, min_size=order + 1,
                    max_size=order + 1).map(TruncSeries)


def _monomial(xexp, mask, dexp) -> AlgElement:
    """x^xexp dx^mask d^dexp, built as a product of generators."""
    mono = AlgElement.one(CTX)
    for mu in range(2):
        for _ in range(xexp[mu]):
            mono = mono * AlgElement.x(CTX, mu)
    for mu in range(2):
        if mask >> mu & 1:
            mono = mono * AlgElement.dx(CTX, mu)
    for mu in range(2):
        for _ in range(dexp[mu]):
            mono = mono * AlgElement.d(CTX, mu)
    return mono


# exponents 0..1 per coordinate and every dx mask
MONOMIALS = [_monomial(xexp, mask, dexp)
             for xexp in product(range(2), repeat=2) for mask in range(4)
             for dexp in product(range(2), repeat=2)]


def _element(terms) -> AlgElement:
    """The sum of monomial * series over (monomial, series) pairs."""
    out = AlgElement.zero(CTX)
    for mono, s in terms:
        out = out + mono.scale(s)
    return out


def _keep_parity(e: AlgElement, parity: int) -> AlgElement:
    kept = {k: v for k, v in e.terms.items()
            if bin(k[1]).count("1") % 2 == parity}
    return AlgElement(CTX, kept)


def _truncated(e: AlgElement, k: int) -> AlgElement:
    """e through a0^k: restricted into the context of order k, or, at k = 0,
    where no context exists, its classical limit."""
    if k == 0:
        return e.classical_limit()
    return AlgElement(Context(e.ctx.dim, k, e.ctx.direction), e.terms)


SERIES = series(3)
# small inhomogeneous elements with 1..3 monomial terms
ELEMENTS = st.lists(st.tuples(st.sampled_from(MONOMIALS), series(CTX.order)),
                    min_size=1, max_size=3).map(_element)
# elements with only even (dx-mask population) terms
EVEN_ELEMENTS = ELEMENTS.map(lambda e: _keep_parity(e, 0))
# elements of definite parity
HOMOGENEOUS_ELEMENTS = st.tuples(ELEMENTS, st.integers(0, 1)).map(
    lambda p: _keep_parity(*p))

# Pinned boundary cases: 0, +-6, denominator 4, and purely real and purely
# imaginary coefficients.
_g = GaussScalar
ZERO_S = TruncSeries.zero(3)
EDGE_S = TruncSeries([_g(6), _g(-6), _g(0, Fraction(-1, 4)),
                      _g(Fraction(3, 4), Fraction(-23, 4))])
REAL_S = TruncSeries([_g(Fraction(-9, 4)), _g(0), _g(6), _g(Fraction(1, 3))])
IMAG_S = TruncSeries([_g(0, Fraction(5, 2)), _g(0, -6), _g(0),
                      _g(0, Fraction(7, 4))])
_EDGE, _REAL, _IMAG = (s.truncate(CTX.order) for s in (EDGE_S, REAL_S, IMAG_S))
ZERO_E = AlgElement.zero(CTX)
# parity 0: x0 x1 dx0 dx1 d0 and d1, with real and imaginary coefficients
EVEN_E = _element([(_monomial((1, 1), 3, (1, 0)), _REAL),
                   (_monomial((0, 0), 0, (0, 1)), _IMAG)])
# parity 1: x0 dx1 d0 d1 and x1 dx0
ODD_E = _element([(_monomial((1, 0), 2, (1, 1)), _EDGE),
                  (_monomial((0, 1), 1, (0, 0)), _IMAG)])
MIXED_E = _element([(_monomial((1, 0), 1, (1, 0)), _EDGE),
                    (_monomial((0, 0), 0, (0, 0)), _REAL),
                    (_monomial((0, 1), 3, (0, 1)), _IMAG)])


@MANY
@given(SERIES, SERIES, SERIES)
@example(EDGE_S, REAL_S, IMAG_S)
@example(ZERO_S, EDGE_S, EDGE_S)
def test_series_ring_axioms(a, b, c):
    assert ((a + b) + c - (a + (b + c))).is_zero()
    assert ((a * b) * c - (a * (b * c))).is_zero()
    assert (a * b - b * a).is_zero()
    assert (a * (b + c) - a * b - a * c).is_zero()
    # i * i = -1: a sign slip there still leaves a commutative ring
    assert a.scale(I) * a.scale(I) == -(a * a)


@MANY
@given(SERIES, SERIES)
@example(EDGE_S, IMAG_S)
@example(REAL_S, ZERO_S)
def test_series_truncation_functorial(a, b):
    # truncation commutes with the ring operations
    for k in range(a.order + 1):
        assert ((a * b).truncate(k) - a.truncate(k) * b.truncate(k)).is_zero()
        assert ((a + b).truncate(k) - (a.truncate(k) + b.truncate(k))) \
            .is_zero()


@MANY
@given(SERIES, SERIES)
@example(EDGE_S, IMAG_S)
@example(REAL_S, ZERO_S)
def test_exp_is_a_homomorphism(a, b):
    az = a - TruncSeries.const(a[0], a.order)
    bz = b - TruncSeries.const(b[0], b.order)
    assert ((az + bz).exp() - az.exp() * bz.exp()).is_zero()


@MANY
@given(ELEMENTS, ELEMENTS, ELEMENTS)
@example(MIXED_E, ODD_E, EVEN_E)
@example(ZERO_E, MIXED_E, MIXED_E)
def test_algebra_associativity(a, b, c):
    assert ((a * b) * c - (a * (b * c))).is_zero()


@MANY
@given(ELEMENTS, ELEMENTS, ELEMENTS)
@example(MIXED_E, ODD_E, EVEN_E)
@example(ZERO_E, MIXED_E, MIXED_E)
def test_algebra_distributivity(a, b, c):
    assert ((a + b) * c - a * c - b * c).is_zero()
    assert (a * (b + c) - a * b - a * c).is_zero()


@MANY
@given(EVEN_ELEMENTS, EVEN_ELEMENTS, EVEN_ELEMENTS)
@example(EVEN_E, _keep_parity(MIXED_E, 0), EVEN_E)
@example(ZERO_E, EVEN_E, EVEN_E)
def test_jacobi_identity(a, b, c):
    resid = (commutator(a, commutator(b, c))
             + commutator(b, commutator(c, a))
             + commutator(c, commutator(a, b)))
    assert resid.is_zero()


@MANY
@given(HOMOGENEOUS_ELEMENTS, HOMOGENEOUS_ELEMENTS)
@example(ODD_E, ODD_E)
@example(ODD_E, EVEN_E)
@example(EVEN_E, ZERO_E)
def test_graded_bracket_symmetry(a, b):
    pa, pb = a.parity(), b.parity()
    sign = -1 if (pa and pb) else 1
    lhs = graded_commutator(a, b)
    rhs = graded_commutator(b, a).scale(-sign)
    assert (lhs - rhs).is_zero()
    if pa and pb:
        assert (lhs - anticommutator(a, b)).is_zero()
    else:
        assert (lhs - commutator(a, b)).is_zero()


@MANY
@given(HOMOGENEOUS_ELEMENTS, HOMOGENEOUS_ELEMENTS)
@example(ODD_E, ODD_E)
@example(ODD_E, EVEN_E)
@example(EVEN_E, ZERO_E)
def test_parity_multiplicative(a, b):
    prod = a * b
    if prod.is_zero():
        return
    assert prod.parity() == (a.parity() + b.parity()) % 2


@MANY
@given(ELEMENTS, ELEMENTS)
@example(MIXED_E, ODD_E)
@example(ZERO_E, EVEN_E)
def test_element_truncation_functorial(a, b):
    for k in range(CTX.order + 1):
        assert (_truncated(a * b, k)
                - _truncated(a, k) * _truncated(b, k)).is_zero()
        assert (_truncated(a + b, k)
                - (_truncated(a, k) + _truncated(b, k))).is_zero()


@MANY
@given(EVEN_ELEMENTS, st.integers(0, 1), st.integers(0, 1))
@example(EVEN_E, 0, 1)
@example(_keep_parity(MIXED_E, 0), 1, 0)
def test_vacuum_absorbs_derivatives(a, mu, nu):
    # (a d_mu) |> 1 = 0 for every even element a
    e = a * AlgElement.d(CTX, mu)
    assert e.vacuum_project().is_zero()
    # projection is idempotent
    p = a.vacuum_project()
    assert (p.vacuum_project() - p).is_zero()
