"""Truncated h-adic super-Weyl algebra with normal-ordered elements.

Generators per spacetime index mu: a coordinate x_mu, a derivative d_mu and
an anticommuting one-form dx_mu.  The defining relations are

    [d_mu, x_nu] = eta_mu_nu,   eta = diag(-1, +1, ..., +1),
    [dx_mu, x_nu] = [dx_mu, d_nu] = 0,   {dx_mu, dx_nu} = 0.

Elements are finite maps from normal-ordered monomials (x's, then dx's in
ascending index, then d's) to truncated series in the deformation parameter
a0, all at the order of the element's Context: that order is the one
truncation order of elements, tensors and the Hopf layer.  All values are
immutable and all operations pure.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import product as iproduct
from math import comb, factorial, lcm, perm
from operator import add

from .records import FrozenRecord
from .series import (TruncSeries, _gauss_int, convolve, dense_entries,
                     entries, power_sum, reduced)


class AlgebraError(ValueError):
    pass


class ContextMismatch(AlgebraError):
    pass


class ParityError(AlgebraError):
    pass


def _frac(x) -> Fraction:
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise AlgebraError(f"direction entries must be exact rationals, got {x!r}")


class Context(FrozenRecord):
    """Shared, immutable build context: dimension, truncation order in a0 and
    the rational direction of the deformation vector a_mu = a0 * e_mu."""

    __slots__ = ("dim", "order", "direction")

    def __init__(self, dim: int, order: int, direction: tuple):
        for name, value in (("dim", dim), ("order", order)):
            if type(value) is not int:
                raise AlgebraError(f"{name} must be an int, got {value!r}")
        if dim < 2:
            raise AlgebraError("dimension must be >= 2")
        if order < 1:
            raise AlgebraError("truncation order must be >= 1")
        e = tuple(_frac(v) for v in direction)
        if len(e) != dim:
            raise AlgebraError("direction vector length must equal the dimension")
        super().__init__(dim, order, e)

    def metric(self, mu: int) -> int:
        return -1 if mu == 0 else 1

    def is_timelike_axis(self) -> bool:
        return self.direction == (Fraction(1),) + (Fraction(0),) * (self.dim - 1)


# A monomial key is (xexp: tuple[int], dxmask: int, dexp: tuple[int]).


def _koszul(dim: int, dx1: int, dx2: int) -> int:
    """Sign from merging two disjoint ascending dx words."""
    inv = 0
    if dx1 and dx2:
        for i in range(dim):
            if dx1 >> i & 1:
                inv += bin(dx2 & ((1 << i) - 1)).count("1")
    return -1 if inv % 2 else 1


@lru_cache(maxsize=None)
def _mul_mono(dim: int, m1, m2):
    """Normal-ordered product of two monomials; returns a tuple of
    ((monomial, int_factor)) pairs, or () if the product vanishes."""
    x1, dx1, d1 = m1
    x2, dx2, d2 = m2
    if dx1 & dx2:
        return ()
    sign = _koszul(dim, dx1, dx2)
    mask = dx1 | dx2
    per_coord = []
    for mu in range(dim):
        b, a = d1[mu], x2[mu]
        if b == 0 or a == 0:
            per_coord.append(((0, 1),))
            continue
        eta = -1 if mu == 0 else 1
        opts = []
        for k in range(min(a, b) + 1):
            f = comb(a, k) * comb(b, k) * factorial(k)
            if eta < 0 and k % 2:
                f = -f
            opts.append((k, f))
        per_coord.append(tuple(opts))
    out = []
    for combo in iproduct(*per_coord):
        coef = sign
        xexp = list(x1)
        dexp = list(d2)
        for mu, (k, f) in enumerate(combo):
            coef *= f
            xexp[mu] += x2[mu] - k
            dexp[mu] += d1[mu] - k
        out.append(((tuple(xexp), mask, tuple(dexp)), coef))
    return tuple(out)


@lru_cache(maxsize=None)
def _comm_mono(dim: int, m1, m2):
    """Key map of the commutator: the terms of m1 m2 - m2 m1.

    Unless a derivative of one meets a coordinate of the other on some
    index, neither order contracts, and both give the merged monomial with
    their Koszul signs: an even pair commutes, and the terms of an odd pair
    add.  Otherwise the two normal-ordered products are subtracted."""
    x1, dx1, d1 = m1
    x2, dx2, d2 = m2
    if dx1 & dx2:
        return ()
    if not any(b and a for b, a in zip(d1, x2)) \
            and not any(b and a for b, a in zip(d2, x1)):
        coef = _koszul(dim, dx1, dx2) - _koszul(dim, dx2, dx1)
        if not coef:
            return ()
        return (((tuple(map(add, x1, x2)), dx1 | dx2, tuple(map(add, d1, d2))),
                 coef),)
    out = dict(_mul_mono(dim, m1, m2))
    for key, coef in _mul_mono(dim, m2, m1):
        out[key] = out.get(key, 0) - coef
    return tuple((key, coef) for key, coef in out.items() if coef)


@lru_cache(maxsize=None)
def _act_mono(dim: int, m1, m2):
    """Key map of the module action: the terms of (m1 m2) |> 1.

    A derivative of m2 survives every contraction, so m2 must have none.
    Of the contractions in _mul_mono only k = d1 on every coordinate leaves
    no derivative, and it needs x2 >= d1.  So a pair gives at most one
    monomial, x1 + x2 - d1 with dx1|dx2, and its factor is the Koszul sign
    times prod x2!/(x2 - d1)!, times (-1)^d1[0] because eta_00 = -1."""
    x1, dx1, d1 = m1
    x2, dx2, d2 = m2
    if dx1 & dx2 or any(d2):
        return ()
    coef = _koszul(dim, dx1, dx2)
    for a, b in zip(x2, d1):
        if a < b:
            return ()
        coef *= perm(a, b)
    if d1[0] % 2:
        coef = -coef
    xexp = tuple(p + a - b for p, a, b in zip(x1, x2, d1))
    return (((xexp, dx1 | dx2, (0,) * dim), coef),)


def _mono_sort_key(m):
    x, dx, d = m
    return (sum(x) + bin(dx).count("1") + sum(d), x, dx, d)


def _mono_gens(mono) -> list:
    """Generator names of a normal-ordered monomial, in normal order."""
    x, dx, d = mono
    gens = [f"x{mu}" if e == 1 else f"x{mu}^{e}" for mu, e in enumerate(x) if e]
    gens += [f"dx{mu}" for mu in range(len(x)) if dx >> mu & 1]
    gens += [f"d{mu}" if e == 1 else f"d{mu}^{e}" for mu, e in enumerate(d) if e]
    return gens


def _coeff_data(s: TruncSeries) -> list:
    return [[str(c.re), str(c.im)] for c in s.coeffs]


def _numerators(terms: dict, den: int) -> list:
    """[(key, entries), ...]: every series in `terms` read once, as its
    nonzero numerators over `den`, a multiple of each series'
    denominator."""
    return [(key, entries(s, den // s.den)) for key, s in terms.items()]


def _sum_products(groups: list, order: int, key_map) -> dict:
    """{key: series}: the sum of n*m*a*b through a0^order over every group
    (n, left, right) of an int factor and two key -> series maps, every
    (k1, a) in left, (k2, b) in right and every (key, m) in key_map(k1, k2);
    keys whose sum cancels are left out.  Every series is at `order` or
    above: the product loops skip every pair above it.

    This is the one kernel for sums of keyed series products.  Each series
    is read once as its nonzero numerators over one denominator, the product
    of the least common denominators of all left and of all right series; a
    pair convolves only those entries, the integer numerators accumulate in
    place, and one canonical series per key is built at the end.  key_map is
    called only for pairs whose product is nonzero; a pair of one-entry
    series asks it first and is skipped, unmultiplied, if it gives no key."""
    width = order + 1
    den1 = lcm(*(s.den for _, left, _ in groups for s in left.values()))
    den2 = lcm(*(s.den for _, _, right in groups for s in right.values()))
    acc: dict = {}
    for n, left, right in groups:
        right = _numerators(right, den2)
        for k1, a in _numerators(left, den1):
            single = len(a) == 1  # the common case: one Gaussian multiply
            if single:
                (i, ar, ai), = a
            for k2, b in right:
                if single and len(b) == 1:
                    (j, br, bi), = b
                    if i + j > order:
                        continue
                    keys = key_map(k1, k2)
                    if not keys:
                        continue
                    prod = ((i + j, ar * br - ai * bi, ar * bi + ai * br),)
                else:
                    prod = convolve(a, b, order)
                    if not prod:
                        continue
                    keys = key_map(k1, k2)
                for key, coef in keys:
                    coef *= n
                    got = acc.get(key)
                    if got is None:
                        acc[key] = got = ([0] * width, [0] * width)
                    out_re, out_im = got
                    for k, x, y in prod:
                        out_re[k] += coef * x
                        out_im[k] += coef * y
    den = den1 * den2
    return {key: reduced(order, nz, den) for key, (re, im) in acc.items()
            if (nz := dense_entries(re, im))}


class _Sparse:
    """Finite map from keys to a0-series truncated at the order of its
    Context, with the arithmetic shared by elements, tensors and the Hopf
    layer's symbolic tensors.  A subclass supplies its key shape
    (`_same_shape`, `_new`), its key product
    `_mul_keys(dim, k1, k2) -> ((key, int_factor), ...)` and, if it is
    rendered, `_sort_key` and `_render_term`.  The product is one
    call of `_sum_products` with `_mul_keys` as the key map; the tensor outer
    product and the Hopf layer's sums over realized or mapped words use the
    same kernel with their own key maps."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict):
        self.ctx = ctx
        order = ctx.order
        clean = {}
        for key, s in terms.items():
            if s.order != order:
                s = s.truncate(order)
            if not s.is_zero():
                clean[key] = s
        self.terms = clean

    @property
    def order(self) -> int:
        """The truncation order of every coefficient: the context's."""
        return self.ctx.order

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._same_shape(other) and self.terms == other.terms

    def _check(self, other):
        if not self._same_shape(other):
            raise ContextMismatch("operands differ in context or shape")

    # -- ring operations ------------------------------------------------------

    def _combine(self, other, sign: int):
        """self + sign*other."""
        self._check(other)
        out = dict(self.terms)
        for k, s in other.terms.items():
            got = out.get(k)
            out[k] = (s if sign > 0 else -s) if got is None \
                else got._combine(s, sign)
        return self._new(out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._new({k: -s for k, s in self.terms.items()})

    def __mul__(self, other):
        return self.sum_products([(1, self, other)])

    def sum_products(self, products, key_map=None):
        """The sum of n*a*b over the (n, a, b) in `products`, in one kernel
        pass that builds none of the products; the result has self's shape,
        key_map defaults to the key product."""
        groups = []
        for n, a, b in products:
            self._check(a)
            self._check(b)
            groups.append((n, a.terms, b.terms))
        return self._new(_sum_products(groups, self.order, key_map or partial(
            self._mul_keys, self.ctx.dim)))

    def scale(self, scalar):
        """Multiply by a GaussScalar/rational or a TruncSeries in a0 of at
        least the element's order."""
        if isinstance(scalar, TruncSeries):
            st = scalar.truncate(self.order)
            return self._new({k: s * st for k, s in self.terms.items()})
        sr, si, sd = _gauss_int(scalar)
        if not (sr or si):
            return self._new({})
        return self._new({k: c._scaled(sr, si, sd)
                          for k, c in self.terms.items()})

    # -- deformation-specific operations --------------------------------------

    def classical_limit(self):
        return self._new({k: TruncSeries.const(s[0], self.order)
                          for k, s in self.terms.items()})

    # -- rendering ------------------------------------------------------------

    def _sorted_keys(self) -> list:
        return sorted(self.terms, key=self._sort_key)

    def render(self) -> str:
        return " + ".join(self._render_term(key, self.terms[key].render("a0"))
                          for key in self._sorted_keys()) or "0"


class AlgElement(_Sparse):
    """Element of the algebra, keyed by one normal-ordered monomial."""

    __slots__ = ()
    _mul_keys = staticmethod(_mul_mono)
    _sort_key = staticmethod(_mono_sort_key)

    def _new(self, terms: dict) -> "AlgElement":
        return AlgElement(self.ctx, terms)

    def _same_shape(self, other) -> bool:
        return self.ctx == other.ctx

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ctx: Context) -> "AlgElement":
        return cls(ctx, {})

    @classmethod
    def scalar(cls, ctx: Context, value) -> "AlgElement":
        key = ((0,) * ctx.dim, 0, (0,) * ctx.dim)
        return cls(ctx, {key: TruncSeries.const(value, ctx.order)})

    @classmethod
    def one(cls, ctx: Context) -> "AlgElement":
        return cls.scalar(ctx, 1)

    @classmethod
    def from_series(cls, ctx: Context, s: TruncSeries) -> "AlgElement":
        """The constant element s, for s of at least the context's order."""
        key = ((0,) * ctx.dim, 0, (0,) * ctx.dim)
        return cls(ctx, {key: s})

    @classmethod
    def _generator(cls, ctx: Context, mu: int, slot: int):
        if not 0 <= mu < ctx.dim:
            raise AlgebraError(f"index {mu} out of range for dimension {ctx.dim}")
        unit = tuple(1 if i == mu else 0 for i in range(ctx.dim))
        zero = (0,) * ctx.dim
        key = ((unit, 0, zero), (zero, 1 << mu, zero), (zero, 0, unit))[slot]
        return cls(ctx, {key: TruncSeries.one(ctx.order)})

    @classmethod
    def x(cls, ctx: Context, mu: int) -> "AlgElement":
        return cls._generator(ctx, mu, 0)

    @classmethod
    def dx(cls, ctx: Context, mu: int) -> "AlgElement":
        return cls._generator(ctx, mu, 1)

    @classmethod
    def d(cls, ctx: Context, mu: int) -> "AlgElement":
        return cls._generator(ctx, mu, 2)

    # -- structure ------------------------------------------------------------

    def parity(self) -> int:
        """0 or 1 for homogeneous elements; raises on mixed parity."""
        ps = {bin(k[1]).count("1") % 2 for k in self.terms}
        if len(ps) > 1:
            raise ParityError("element has mixed parity")
        return ps.pop() if ps else 0

    def is_momentum_only(self) -> bool:
        return all(sum(k[0]) == 0 and k[1] == 0 for k in self.terms)

    def is_derivative_free(self) -> bool:
        return all(sum(k[2]) == 0 for k in self.terms)

    def min_a0_degree(self) -> int:
        if not self.terms:
            return self.order + 1
        return min(s.valuation() for s in self.terms.values())

    def pow(self, k: int) -> "AlgElement":
        if k < 0:
            raise AlgebraError("negative powers are not defined on elements")
        out = AlgElement.one(self.ctx)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def vacuum_project(self) -> "AlgElement":
        """Action on the unit: every derivative annihilates 1."""
        zero_d = (0,) * self.ctx.dim
        return AlgElement(self.ctx, {k: s for k, s in self.terms.items()
                                     if k[2] == zero_d})

    # -- rendering ------------------------------------------------------------

    def coefficient(self, key) -> TruncSeries:
        return self.terms.get(key, TruncSeries.zero(self.order))

    @staticmethod
    def _render_term(key, coeff: str) -> str:
        body = "*".join(_mono_gens(key))
        if not body:
            return f"({coeff})"
        return body if coeff == "1" else f"({coeff})*{body}"

    def to_data(self) -> dict:
        terms = [{"x": list(x),
                  "dx": [mu for mu in range(self.ctx.dim) if dx >> mu & 1],
                  "d": list(d),
                  "coeff": _coeff_data(self.terms[(x, dx, d)])}
                 for x, dx, d in self._sorted_keys()]
        return {"order": self.order, "terms": terms}

    def __repr__(self):
        return f"AlgElement[{self.order}]({self.render()})"


# -- operations on elements ---------------------------------------------------


def commutator(a: AlgElement, b: AlgElement) -> AlgElement:
    """ab - ba in one kernel pass over the pairs' commutator terms."""
    return a.sum_products([(1, a, b)], partial(_comm_mono, a.ctx.dim))


def anticommutator(a: AlgElement, b: AlgElement) -> AlgElement:
    return a.sum_products([(1, a, b), (1, b, a)])


def graded_commutator(a: AlgElement, b: AlgElement) -> AlgElement:
    """ab - (-1)^{|a||b|} ba for homogeneous a, b."""
    if a.parity() == 1 and b.parity() == 1:
        return anticommutator(a, b)
    return commutator(a, b)


def lift_in_A(ctx: Context, f: TruncSeries) -> AlgElement:
    """f(A) with A = -i a0 d0, expanded into a0^k d0^k terms: entry k of f
    times (-i)^k, on integers, for f of at least the context's order."""
    order = ctx.order
    if f.order < order:
        raise AlgebraError(f"series order {f.order} is below the context's "
                           f"order {order}")
    terms = {}
    zero = (0,) * ctx.dim
    for k, x, y in f.nz:
        if k > order:
            break
        x, y = ((x, y), (y, -x), (-x, -y), (-y, x))[k % 4]
        terms[(zero, 0, (k,) + zero[1:])] = reduced(order, ((k, x, y),), f.den)
    return AlgElement(ctx, terms)


def substitute_series(f: TruncSeries, elem: AlgElement) -> AlgElement:
    """f evaluated on a momentum-only element whose coefficients all vanish
    at a0 = 0, so the sum terminates at the truncation order."""
    if not elem.is_momentum_only():
        raise AlgebraError("substitution argument must be momentum-only")
    if elem.min_a0_degree() < 1:
        raise AlgebraError("substitution argument must vanish at a0 = 0")
    if f.order < elem.order:
        raise AlgebraError("series order too low for substitution")
    return power_sum(f, elem, AlgElement.one(elem.ctx))


def act_sum(products) -> AlgElement:
    """The sum of n (a f) |> 1 over the (n, a, f) in `products`, in one
    kernel pass that builds none of the products.  A right term ending in a
    derivative leaves one in every term of its product, so (a f) |> 1 =
    (a (f |> 1)) |> 1: only f's derivative-free terms take part, and
    `_act_mono` gives the one surviving monomial of each pair.  A chain
    projects from the right: (a b f) |> 1 = act_on(a, act_on(b, f))."""
    first = products[0][1]
    return first.sum_products([(n, a, f.vacuum_project())
                               for n, a, f in products],
                              partial(_act_mono, first.ctx.dim))


def act_on(a: AlgElement, f: AlgElement) -> AlgElement:
    """Module action a |> f = (a f) |> 1: `act_sum` of one pair."""
    return act_sum([(1, a, f)])


# -- tensor products ----------------------------------------------------------


def _combine_legs(leg_terms) -> list:
    """The terms of the tensor product of the legs' terms
    ((monomial, int_factor), ...): one monomial per leg, the factors
    multiplied."""
    out = []
    for combo in iproduct(*leg_terms):
        coef = 1
        for _, c in combo:
            coef *= c
        out.append((tuple(mono for mono, _ in combo), coef))
    return out


def _mul_legs(dim: int, k1, k2):
    """Leg-wise normal-ordered product of two tensor keys."""
    return _combine_legs([_mul_mono(dim, m1, m2) for m1, m2 in zip(k1, k2)])


def _comm_legs(dim: int, k1, k2):
    """Key map of the tensor commutator: the terms of k1 k2 - k2 k1,

        U A - A U = sum_j (a_i u_i)_{i<j} (x) [u_j, a_j] (x) (u_i a_i)_{i>j}

    for U = k1, A = k2 (a telescoping sum).  Legs carry no one-forms, so
    no sign crosses a leg, and a leg whose monomials commute adds nothing:
    most pairs stop at the commutator of each leg, and the others extend
    their keys one leg at a time."""
    out = []
    for j in range(len(k1)):
        comm = _comm_mono(dim, k1[j], k2[j])
        if comm:
            terms = [((), 1)]
            for i in range(len(k1)):
                leg = (comm if i == j else _mul_mono(dim, k2[i], k1[i])
                       if i < j else _mul_mono(dim, k1[i], k2[i]))
                terms = [(key + (mono,), c * f)
                         for key, c in terms for mono, f in leg]
            out += terms
    return out


def _append_leg(key: tuple, mono) -> tuple:
    """Key map of the outer product: one more leg."""
    return ((key + (mono,), 1),)


class TensorElement(_Sparse):
    """k-legged tensor product of one-form-free elements, keyed by one
    monomial per leg."""

    __slots__ = ("legs",)
    _mul_keys = staticmethod(_mul_legs)

    def __init__(self, ctx: Context, legs: int, terms: dict):
        for key in terms:
            for mono in key:
                if mono[1]:
                    raise AlgebraError("tensor legs cannot carry one-forms")
        self.legs = legs
        super().__init__(ctx, terms)

    def _new(self, terms: dict) -> "TensorElement":
        return TensorElement(self.ctx, self.legs, terms)

    def _same_shape(self, other) -> bool:
        return self.ctx == other.ctx and self.legs == other.legs

    @staticmethod
    def _sort_key(key):
        return tuple(_mono_sort_key(m) for m in key)

    @classmethod
    def zero(cls, ctx: Context, legs: int):
        return cls(ctx, legs, {})

    @classmethod
    def outer(cls, elems) -> "TensorElement":
        """The tensor product of elements of one context."""
        first, *rest = elems
        terms = {(mono,): s for mono, s in first.terms.items()}
        for e in rest:
            first._check(e)
            terms = _sum_products([(1, terms, e.terms)], first.order,
                                  _append_leg)
        return cls(first.ctx, 1 + len(rest), terms)

    @classmethod
    def scalar(cls, ctx: Context, legs: int, value):
        unit = ((0,) * ctx.dim, 0, (0,) * ctx.dim)
        return cls(ctx, legs,
                   {(unit,) * legs: TruncSeries.const(value, ctx.order)})

    @staticmethod
    def _render_term(key, coeff: str) -> str:
        body = " (x) ".join("*".join(_mono_gens(m)) or "1" for m in key)
        return body if coeff == "1" else f"({coeff})*[{body}]"

    def to_data(self) -> dict:
        terms = [{"legs": [{"x": list(m[0]), "d": list(m[2])} for m in key],
                  "coeff": _coeff_data(self.terms[key])}
                 for key in self._sorted_keys()]
        return {"order": self.order, "legs": self.legs, "terms": terms}

    def __repr__(self):
        return f"TensorElement[{self.legs} legs, {self.order}]({self.render()})"


def tensor_commutator(a: TensorElement, b: TensorElement) -> TensorElement:
    """ab - ba in one kernel pass over the pairs' commutator terms."""
    return a.sum_products([(1, a, b)], partial(_comm_legs, a.ctx.dim))
