"""Truncated one-variable Taylor series over the Gaussian rationals.

A series carries coefficients c0..cN exactly; every operation agrees with
the untruncated result through order N.  Division by the variable reduces
the usable order instead of padding, so the order of a series is an honest
statement of what is known.

Representation: the order N, a positive int `den` and a tuple `nz` of the
nonzero entries (k, re, im) in ascending k, with c_k = (re + i*im)/den:
integer numerators over one common denominator, stored sparse because a
realized coefficient is nearly always a single power of a0.  Every series is
kept in canonical form, gcd(den, every re and im) == 1 and no entry zero (so
the zero series is `()` over den 1), which makes equal series have equal
fields: `==` and `hash` compare plain int tuples.  The ring operations (`*`,
`+`, `-`, `scale`, `truncate`, `div_by_t`, `derivative`, `integrate`) are
integer loops over the entries and never build a `GaussScalar`.

The transcendental functions are compositions: `exp`, `log` and `recip`
compose fixed rational series (1/k!, (-1)^(k+1)/k, (-1)^k) with their
argument, and `compose` is the power sum `power_sum`, which also evaluates a
series on an algebra element.  A reciprocal 1/c in Q(i) is taken through the
conjugate's norm, on integers.

`GaussScalar` appears only at the boundary: the constructor coerces its
inputs through it (floats raise `ScalarError`), `s[k]` and `coeffs` return
GaussScalars, rendering formats them, and `power_sum` scales its powers by
them.  The transcendental functions run a few times per realization; the
products run 10^5 times per verification.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from .scalars import GaussScalar


class SeriesError(ValueError):
    pass


class OrderMismatch(SeriesError):
    pass


def _gauss_int(x) -> tuple:
    """(re, im, den) ints with x = (re + i*im)/den and den > 0; x is an int,
    a Fraction or anything GaussScalar.coerce accepts."""
    if type(x) is int:  # bools go through GaussScalar and become Fractions
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    g = GaussScalar.coerce(x)
    den = lcm(g.re.denominator, g.im.denominator)
    return (g.re.numerator * (den // g.re.denominator),
            g.im.numerator * (den // g.im.denominator), den)


def _make(order: int, nz: tuple, den: int) -> "TruncSeries":
    """A series from fields already in canonical form."""
    s = object.__new__(TruncSeries)
    s.order = order
    s.nz = nz
    s.den = den
    return s


def _inverse(re: int, im: int, den: int) -> tuple:
    """(re, im, den) of 1/((re + i*im)/den), through the conjugate's norm;
    the result need not be in lowest terms."""
    return den * re, -den * im, re * re + im * im


def reduced(order: int, nz, den: int) -> "TruncSeries":
    """The series with nonzero entries `nz` (ascending k, at most `order`)
    over `den` > 0, in canonical form."""
    g = den
    for _, x, y in nz:
        if g == 1:
            break
        g = gcd(g, x, y)
    if g == 1:
        return _make(order, tuple(nz), den)
    return _make(order, tuple((k, x // g, y // g) for k, x, y in nz), den // g)


def dense_entries(re: list, im: list) -> list:
    """[(k, re[k], im[k]), ...] for the nonzero slots of two dense lists."""
    return [(k, x, y) for k, (x, y) in enumerate(zip(re, im)) if x or y]


def entries(s: "TruncSeries", factor: int):
    """((k, re, im), ...): the nonzero numerators of s times `factor`, in
    ascending k."""
    if factor == 1:
        return s.nz
    return [(k, x * factor, y * factor) for k, x, y in s.nz]


def convolve(a, b, order: int) -> list:
    """[(k, re, im), ...]: the product of two entry lists through `order`,
    in ascending k, one Gaussian multiply per pair of entries whose degrees
    sum to at most `order`.  Q(i) has no zero divisors, so the product of
    the two lowest entries is nonzero: the result is empty exactly when the
    truncated product vanishes.  With one entry on a side, no two degrees
    coincide; otherwise the pairs accumulate in dense slots."""
    if len(a) == 1 or len(b) == 1:
        return [(i + j, ar * br - ai * bi, ar * bi + ai * br)
                for i, ar, ai in a for j, br, bi in b if i + j <= order]
    re = [0] * (order + 1)
    im = [0] * (order + 1)
    for i, ar, ai in a:
        for j, br, bi in b:
            k = i + j
            if k > order:
                break
            re[k] += ar * br - ai * bi
            im[k] += ar * bi + ai * br
    return dense_entries(re, im)


def power_sum(f: "TruncSeries", x, one):
    """sum_k f_k x^k through the order of x, where `one` is x^0.  x is a
    series with zero constant term or an algebra element whose coefficients
    vanish at a0 = 0, so its powers vanish past the order: the sum stops at
    the first vanishing power."""
    out = one.scale(f[0])
    pw = one
    for k in range(1, x.order + 1):
        pw = pw * x
        if pw.is_zero():
            break
        if f._entry(k) != (0, 0):
            out = out + pw.scale(f[k])
    return out


def _fixed(coeff, order: int) -> "TruncSeries":
    """The rational series sum_k coeff(k) t^k through `order`."""
    return TruncSeries([coeff(k) for k in range(order + 1)])


class TruncSeries:
    __slots__ = ("order", "nz", "den")

    def __init__(self, coeffs):
        parts = [_gauss_int(c) for c in coeffs]
        if not parts:
            raise SeriesError("series needs at least a constant coefficient")
        # Each part is in lowest terms, so for every prime power dividing the
        # lcm some numerator is prime to it: the fields come out canonical.
        den = lcm(*(d for _, _, d in parts))
        self.order = len(parts) - 1
        self.nz = tuple((k, r * (den // d), m * (den // d))
                        for k, (r, m, d) in enumerate(parts) if r or m)
        self.den = den

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return _make(order, (), 1)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.monomial(1, 0, order)

    @classmethod
    def const(cls, value, order: int) -> "TruncSeries":
        return cls.monomial(value, 0, order)

    @classmethod
    def t(cls, order: int) -> "TruncSeries":
        if order < 1:
            raise SeriesError("order must be >= 1 to hold t")
        return cls.monomial(1, 1, order)

    @classmethod
    def monomial(cls, value, k: int, order: int) -> "TruncSeries":
        r, m, d = _gauss_int(value)  # canonical, as in the constructor
        if k > order or not (r or m):
            return cls.zero(order)
        return _make(order, ((k, r, m),), d)

    # -- basic structure ------------------------------------------------------

    def _entry(self, k: int) -> tuple:
        """(re, im) of coefficient k over `den`."""
        return next(((x, y) for j, x, y in self.nz if j == k), (0, 0))

    def __getitem__(self, k: int) -> GaussScalar:
        if not 0 <= k <= self.order:
            raise IndexError(f"no coefficient {k} at order {self.order}")
        x, y = self._entry(k)
        return GaussScalar(Fraction(x, self.den), Fraction(y, self.den))

    @property
    def coeffs(self) -> tuple:
        """The coefficients as GaussScalars, built on each read."""
        return tuple(self[k] for k in range(self.order + 1))

    def is_zero(self) -> bool:
        return not self.nz

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient; order+1 if zero."""
        return self.nz[0][0] if self.nz else self.order + 1

    def truncate(self, order: int) -> "TruncSeries":
        n = self.order
        if order >= n:
            if order > n:
                raise SeriesError(f"cannot extend order {n} to {order}")
            return self
        return reduced(order, [e for e in self.nz if e[0] <= order], self.den)

    def _same_order(self, other: "TruncSeries"):
        if self.order != other.order:
            raise OrderMismatch(f"order mismatch: {self.order} vs {other.order}")

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.order == other.order and self.den == other.den
                and self.nz == other.nz)

    def __hash__(self):
        return hash((self.order, self.nz, self.den))

    # -- ring operations ------------------------------------------------------

    def _combine(self, other: "TruncSeries", sign: int) -> "TruncSeries":
        """self + sign*other over the least common denominator."""
        self._same_order(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        re = [0] * (self.order + 1)
        im = [0] * (self.order + 1)
        for k, x, y in self.nz:
            re[k], im[k] = x * fa, y * fa
        for k, x, y in other.nz:
            re[k] += x * fb
            im[k] += y * fb
        return reduced(self.order, dense_entries(re, im), den)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "TruncSeries":
        return _make(self.order, tuple((k, -x, -y) for k, x, y in self.nz),
                     self.den)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._same_order(other)
        return reduced(self.order, convolve(self.nz, other.nz, self.order),
                       self.den * other.den)

    def scale(self, scalar) -> "TruncSeries":
        """Multiply by an int, a Fraction or a GaussScalar."""
        return self._scaled(*_gauss_int(scalar))

    def _scaled(self, sr: int, si: int, sd: int) -> "TruncSeries":
        """Multiply by (sr + i*si)/sd, sd > 0."""
        if not si:
            if not sr:
                return TruncSeries.zero(self.order)
            nz = [(k, x * sr, y * sr) for k, x, y in self.nz]
        elif not sr:
            nz = [(k, -y * si, x * si) for k, x, y in self.nz]
        else:
            nz = [(k, x * sr - y * si, x * si + y * sr)
                  for k, x, y in self.nz]
        return reduced(self.order, nz, self.den * sd)

    def pow(self, k: int) -> "TruncSeries":
        if k < 0:
            return self.recip().pow(-k)
        out = TruncSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- analytic operations --------------------------------------------------

    def _const_is_one(self) -> bool:
        return self._entry(0) == (self.den, 0)

    def recip(self) -> "TruncSeries":
        """1/c0 times 1/(1 + u), u = self/c0 - 1, the composition of
        sum_k (-1)^k t^k with u."""
        c0 = self._entry(0)
        if c0 == (0, 0):
            raise SeriesError("recip requires nonzero constant term")
        inv0 = _inverse(*c0, self.den)
        u = self._scaled(*inv0) - TruncSeries.one(self.order)
        return _fixed(lambda k: (-1) ** k, self.order).compose(u) \
            ._scaled(*inv0)

    def exp(self) -> "TruncSeries":
        if self.valuation() == 0:
            raise SeriesError("exp requires zero constant term")
        return _fixed(lambda k: Fraction(1, factorial(k)),
                      self.order).compose(self)

    def log(self) -> "TruncSeries":
        if not self._const_is_one():
            raise SeriesError("log requires constant term 1")
        u = self - TruncSeries.one(self.order)
        return _fixed(lambda k: Fraction((-1) ** (k + 1), k) if k else 0,
                      self.order).compose(u)

    def sqrt(self) -> "TruncSeries":
        if not self._const_is_one():
            raise SeriesError("sqrt requires constant term 1")
        return self.log().scale(Fraction(1, 2)).exp()

    # -- calculus -------------------------------------------------------------

    def derivative(self) -> "TruncSeries":
        """Term-wise derivative; the result order drops by one since the top
        coefficient of the derivative is not determined by a truncated input."""
        if self.order == 0:
            raise SeriesError("cannot differentiate an order-0 series")
        return reduced(self.order - 1, [(k - 1, k * x, k * y)
                                        for k, x, y in self.nz if k],
                       self.den)

    def integrate(self) -> "TruncSeries":
        """Antiderivative with zero constant term, at the same order."""
        n = self.order
        scale = lcm(*range(1, n + 1))
        return reduced(n, [(k + 1, x * (scale // (k + 1)),
                            y * (scale // (k + 1)))
                           for k, x, y in self.nz if k < n],
                       self.den * scale)

    # -- composition ----------------------------------------------------------

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner(t)); inner must have zero constant term."""
        self._same_order(inner)
        if inner.valuation() == 0:
            raise SeriesError("composition requires inner constant term 0")
        return power_sum(self, inner, TruncSeries.one(self.order))

    def comp_inverse(self) -> "TruncSeries":
        """Compositional inverse: self o result = result o self = t.

        Each step g -> g - (self o g - t)/c1 makes one more coefficient of
        self o g agree with t: coefficient k of self o g is c1 g_k plus terms
        in g_1..g_{k-1}."""
        if self.valuation() == 0:
            raise SeriesError("compositional inverse requires constant term 0")
        if self.order < 1 or self.valuation() != 1:
            raise SeriesError("compositional inverse requires nonzero linear term")
        inv1 = _inverse(*self._entry(1), self.den)
        t = TruncSeries.t(self.order)
        out = TruncSeries.zero(self.order)
        for _ in range(self.order):
            out = out - (self.compose(out) - t)._scaled(*inv1)
        return out

    # -- division by powers of the variable -----------------------------------

    def div_by_t(self, k: int = 1) -> "TruncSeries":
        if k < 1:
            raise SeriesError("k must be a positive integer")
        if self.order - k < 0:
            raise SeriesError("division would exhaust the known order")
        low = self.valuation()
        if low < k:
            raise SeriesError(
                f"not divisible by t^{k}: coefficient c{low} is nonzero")
        # dropping zero entries keeps the gcd, so the result stays canonical
        return _make(self.order - k,
                     tuple((j - k, x, y) for j, x, y in self.nz), self.den)

    # -- rendering ------------------------------------------------------------

    def render(self, var: str = "t") -> str:
        parts = []
        for k, x, y in self.nz:
            cs = GaussScalar(Fraction(x, self.den),
                             Fraction(y, self.den)).render()
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            if k == 0:
                parts.append(cs)
            else:
                pw = var if k == 1 else f"{var}^{k}"
                parts.append(pw if cs == "1" else f"{cs}*{pw}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"TruncSeries[{self.order}]({self.render()})"
