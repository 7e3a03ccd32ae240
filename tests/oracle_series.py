"""Independent truncated-series oracle used only by the tests.

A series is a plain list [c0, ..., cN] of GaussScalar coefficients, and each
operation is the textbook formula on that list: termwise sums, the Cauchy
product, powers by repeated multiplication and the reciprocal as a
geometric series.  None of it touches the integer numerators, common
denominator or canonical form of kappacalc.series.TruncSeries, so agreement
between the two is meaningful evidence.
"""
from kappacalc.scalars import GaussScalar, ONE, ZERO


def add(a, b):
    return [x + y for x, y in zip(a, b, strict=True)]


def sub(a, b):
    return [x - y for x, y in zip(a, b, strict=True)]


def neg(a):
    return [-x for x in a]


def mul(a, b):
    assert len(a) == len(b)
    out = []
    for k in range(len(a)):
        acc = ZERO
        for i in range(k + 1):
            acc = acc + a[i] * b[k - i]
        out.append(acc)
    return out


def scale(a, s):
    s = GaussScalar.coerce(s)
    return [x * s for x in a]


def truncate(a, order):
    assert order < len(a)
    return a[:order + 1]


def one(order):
    return [ONE] + [ZERO] * order


def recip(a):
    """1/a = (1/c0) * sum_k (-u)^k with a = c0 (1 + u), u(0) = 0; the sum
    stops at the order because u^k starts at t^k."""
    inv0 = ONE / a[0]
    minus_u = [ZERO] + [-(x * inv0) for x in a[1:]]
    out = one(len(a) - 1)
    term = one(len(a) - 1)
    for _ in range(1, len(a)):
        term = mul(term, minus_u)
        out = add(out, term)
    return scale(out, inv0)


def power(a, k):
    assert k >= 0
    out = one(len(a) - 1)
    for _ in range(k):
        out = mul(out, a)
    return out


def div_by_t(a, k):
    assert all(x.is_zero() for x in a[:k]) and k < len(a)
    return a[k:]


def derivative(a):
    return [a[k] * k for k in range(1, len(a))]


def integrate(a):
    return [ZERO] + [a[k - 1] / k for k in range(1, len(a))]
