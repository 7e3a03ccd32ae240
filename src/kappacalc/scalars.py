"""Exact Gaussian-rational scalars: the coefficient field for everything else.

A scalar is re + im*i with arbitrary-precision rational parts.  No floats
are accepted anywhere; construction coerces ints, Fractions and rational
strings ("3", "3/4" or a decimal "0.75") only.  Exponent notation is
refused: "1e999999999" would build 10^999999999.

GaussScalar is the boundary type of the coefficient field, not the storage
of series: a TruncSeries keeps integer numerators over one common
denominator (see `series`) and builds GaussScalars only when coercing its
inputs, when a caller reads `s[k]` or `s.coeffs`, when rendering, and inside
the transcendental functions that need division in Q(i).
"""
from __future__ import annotations

from fractions import Fraction


class ScalarError(ValueError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x.lower():
            raise ScalarError(f"exponent notation is not accepted: {x!r}")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise ScalarError(f"not an exact rational: {x!r}") from None
    raise ScalarError(f"not an exact rational: {x!r}")


class GaussScalar:
    """Element of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @staticmethod
    def coerce(x) -> "GaussScalar":
        if isinstance(x, GaussScalar):
            return x
        return GaussScalar(_frac(x))

    # -- ring/field operations ------------------------------------------------

    def __add__(self, other):
        o = GaussScalar.coerce(other)
        return GaussScalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussScalar.coerce(other)
        return GaussScalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussScalar.coerce(other) - self

    def __neg__(self):
        return GaussScalar(-self.re, -self.im)

    def __mul__(self, other):
        o = GaussScalar.coerce(other)
        return GaussScalar(self.re * o.re - self.im * o.im,
                           self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussScalar.coerce(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussScalar")
        return GaussScalar((self.re * o.re + self.im * o.im) / n,
                           (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        return GaussScalar.coerce(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise ScalarError("only integer powers")
        if k < 0:
            return (ONE / self) ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure ------------------------------------------------------------

    def conjugate(self):
        return GaussScalar(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussScalar(other)
        if not isinstance(other, GaussScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def render(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            im = "i"
        elif self.im == -1:
            im = "-i"
        else:
            im = f"{self.im}*i"
        if self.re == 0:
            return im
        sep = "+" if not im.startswith("-") else ""
        return f"{self.re}{sep}{im}"

    def __repr__(self):
        return f"GaussScalar({self.render()})"


ZERO = GaussScalar(0)
ONE = GaussScalar(1)
I = GaussScalar(0, 1)
MINUS_I = GaussScalar(0, -1)
