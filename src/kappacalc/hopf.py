"""Coproducts, antipodes and counits of the deformed Poincare generators.

The Hopf maps are defined on a small symbolic layer: words over the atoms

    AFun(f)   -- f(A) with A = a0 p0 (covers Z = exp(BigPsi(A)) and friends),
    Mom(i)    -- a spatial momentum p_i,
    Rot(i,j)  -- a rotation generator M_ij (i < j),
    Boost(i)  -- a boost generator M_i0,

with truncated-series coefficients in a0.  The coproduct is an algebra
morphism, the antipode an anti-morphism and the counit a morphism on this
layer; symbolic tensors are realized into concrete elements of the engine
only when two sides of an identity are compared.

The coproduct of a function of A uses the exact addition law

    W(u, v) = BigPsiInv(BigPsi(u) + BigPsi(v)),

a bivariate series, which encodes Delta Z = Z (x) Z.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (AlgebraError, AlgElement, Context, TensorElement,
                      lift_in_A, tensor_commutator)
from .realizations import RealizationSet
from .reports import SuiteReport
from .scalars import GaussScalar, MINUS_I, ONE, ZERO
from .series import BiSeries, TruncSeries


class HopfError(AlgebraError):
    pass


# -- atoms and symbolic expressions -------------------------------------------


@dataclass(frozen=True)
class AFun:
    f: TruncSeries


@dataclass(frozen=True)
class Mom:
    i: int


@dataclass(frozen=True)
class Rot:
    i: int
    j: int


@dataclass(frozen=True)
class Boost:
    i: int


class SymTensor:
    """Sum of (coefficient, word per leg) with series coefficients in a0.
    One leg is a plain symbolic expression."""

    __slots__ = ("legs", "terms")

    def __init__(self, legs: int, terms):
        self.legs = legs
        self.terms = [(c, ws) for (c, ws) in terms if not c.is_zero()]

    @classmethod
    def from_word(cls, legs: int, word, coeff: TruncSeries) -> "SymTensor":
        ws = [()] * legs
        ws[0] = tuple(word)
        return cls(legs, [(coeff, tuple(ws))])

    @classmethod
    def unit(cls, legs: int, order: int) -> "SymTensor":
        return cls(legs, [(TruncSeries.one(order), ((),) * legs)])

    def __add__(self, other: "SymTensor") -> "SymTensor":
        return SymTensor(self.legs, self.terms + other.terms)

    def __mul__(self, other: "SymTensor") -> "SymTensor":
        out = []
        for c1, ws1 in self.terms:
            for c2, ws2 in other.terms:
                order = min(c1.order, c2.order)
                c = c1.truncate(order) * c2.truncate(order)
                out.append((c, tuple(w1 + w2 for w1, w2 in zip(ws1, ws2))))
        return SymTensor(self.legs, out)

    def scale(self, s) -> "SymTensor":
        if isinstance(s, TruncSeries):
            out = []
            for c, ws in self.terms:
                order = min(c.order, s.order)
                out.append((c.truncate(order) * s.truncate(order), ws))
            return SymTensor(self.legs, out)
        g = GaussScalar.coerce(s)
        return SymTensor(self.legs, [(c.scale(g), ws) for c, ws in self.terms])

    def __neg__(self):
        return self.scale(-1)


def expr(word, coeff: TruncSeries) -> SymTensor:
    """A one-leg symbolic expression."""
    return SymTensor.from_word(1, word, coeff)


def _rot(i: int, j: int) -> tuple:
    """M_ij as (Rot atom with ascending indices, sign)."""
    return (Rot(i, j), ONE) if i < j else (Rot(j, i), -ONE)


# -- the Hopf data derived from a realization ---------------------------------

_GENERATOR = re.compile(r"p(0|[1-9][0-9]*)|Z|Zinv|M([0-9])([0-9])")


class HopfStructure:
    """Coproduct/antipode/counit machinery for a noncovariant realization."""

    def __init__(self, r: RealizationSet, order: int | None = None):
        if r.frame != "noncovariant":
            raise HopfError("the Hopf formulas are given in the "
                            "noncovariant (phi, psi) basis")
        self.r = r
        self.ctx: Context = r.ctx
        params = r.params
        # One guard order: Delta p0 and S-axiom checks divide once by a0.
        self.order = order if order is not None else r.ctx.order
        self.work = self.order + 1
        if params.order < self.work + 1:
            raise HopfError("realization params carry too little series order")
        w = self.work
        self.phi = params.phi.truncate(w)
        self.psi = params.psi.truncate(w)
        self.big_psi = params.big_psi.truncate(w)
        self.big_psi_inv = self.big_psi.comp_inverse()
        self.exp_psi = self.big_psi.exp()
        self.exp_mpsi = (-self.big_psi).exp()
        # addition law W(u, v) and the antipode substitution sigma(A)
        psi_u = BiSeries.from_uni(self.big_psi, 0, w)
        psi_v = BiSeries.from_uni(self.big_psi, 1, w)
        self.addition_law = BiSeries.compose_uni(self.big_psi_inv,
                                                 psi_u + psi_v)
        self.sigma = self.big_psi_inv.compose(-self.big_psi)
        # realization caches; words share prefixes across tensor terms
        self._atom_cache: dict = {}
        self._word_cache: dict = {}
        self._outer_cache: dict = {}
        self._delta_cache: dict = {}
        self._antipode_cache: dict = {}
        self._datom_cache: dict = {}

    # -- generator table ------------------------------------------------------

    def generator(self, name: str) -> tuple:
        """Returns (symbolic expr, a0_division) for a named generator; the
        expression realizes to a0^k times the generator."""
        match = _GENERATOR.fullmatch(name)
        if match is None:
            raise HopfError(f"unknown generator {name!r}")
        w = self.work
        one = TruncSeries.one(w)
        if name == "p0":
            return expr((AFun(TruncSeries.t(w)),), one), 1
        if name == "Z":
            return expr((AFun(self.exp_psi),), one), 0
        if name == "Zinv":
            return expr((AFun(self.exp_mpsi),), one), 0
        if match[1]:
            i = int(match[1])
            self._spatial(i)
            return expr((Mom(i),), one), 0
        i, j = int(match[2]), int(match[3])
        if j == 0:
            self._spatial(i)
            return expr((Boost(i),), one), 0
        self._spatial(i)
        self._spatial(j)
        if i == j:
            raise HopfError("M indices must differ")
        rot, sign = _rot(i, j)
        return expr((rot,), one.scale(sign)), 0

    def _spatial(self, i: int):
        if not 1 <= i < self.ctx.dim:
            raise HopfError(f"spatial index {i} out of range")

    # -- coproduct ------------------------------------------------------------

    def _delta_afun(self, f: TruncSeries) -> SymTensor:
        comp = BiSeries.compose_uni(f.truncate(self.work), self.addition_law)
        w = self.work
        terms = []
        for (j, k), c in comp.terms.items():
            word_l = (AFun(TruncSeries.monomial(1, j, w)),) if j else ()
            word_r = (AFun(TruncSeries.monomial(1, k, w)),) if k else ()
            terms.append((TruncSeries.const(c, w), (word_l, word_r)))
        return SymTensor(2, terms)

    def _delta_atom(self, atom) -> SymTensor:
        w = self.work
        one = TruncSeries.one(w)
        if isinstance(atom, AFun):
            return self._delta_afun(atom.f)
        if isinstance(atom, Mom):
            i = atom.i
            pi_over_phi = (Mom(i), AFun(self.phi.recip()))
            left = SymTensor(2, [(one, (pi_over_phi, ()))])
            right = SymTensor(2, [(one, ((AFun(self.exp_psi),), pi_over_phi))])
            return self._delta_afun(self.phi) * (left + right)
        if isinstance(atom, Rot):
            return SymTensor(2, [(one, ((atom,), ())), (one, ((), (atom,)))])
        if isinstance(atom, Boost):
            i = atom.i
            terms = [(one, ((atom,), ())),
                     (one, ((AFun(self.exp_psi),), (atom,)))]
            minus_a0 = TruncSeries.monomial(-1, 1, w)
            for j in range(1, self.ctx.dim):
                if j == i:
                    continue
                rot, sign = _rot(i, j)
                terms.append((minus_a0.scale(sign),
                              ((Mom(j), AFun(self.phi.recip())), (rot,))))
            return SymTensor(2, terms)
        raise HopfError(f"unknown atom {atom!r}")

    def _merge_sym(self, sym: SymTensor) -> SymTensor:
        """Collect coefficients of words with equal canonical forms."""
        merged: dict = {}
        for c, ws in sym.terms:
            key = tuple(self.canonical_word(w) for w in ws)
            got = merged.get(key)
            if got is None:
                merged[key] = c
            else:
                o = min(got.order, c.order)
                merged[key] = got.truncate(o) + c.truncate(o)
        return SymTensor(sym.legs, [(c, ws) for ws, c in merged.items()])

    def delta_word(self, word) -> SymTensor:
        word = self.canonical_word(word)
        got = self._delta_cache.get(word)
        if got is None:
            got = SymTensor.unit(2, self.work)
            for atom in word:
                da = self._datom_cache.get(atom)
                if da is None:
                    da = self._merge_sym(self._delta_atom(atom))
                    self._datom_cache[atom] = da
                got = self._merge_sym(got * da)
            self._delta_cache[word] = got
        return got

    @staticmethod
    def _map_leg(tensor: SymTensor, leg: int, word_map, legs: int,
                 multiply: bool = False) -> SymTensor:
        """Replace the word on `leg` of every term by its image under
        `word_map` (a word -> `legs`-leg SymTensor), multiplying the
        coefficients; with `multiply`, then multiply all legs into one."""
        terms = []
        for c, ws in tensor.terms:
            for c2, image in word_map(ws[leg]).terms:
                order = min(c.order, c2.order)
                new_ws = ws[:leg] + image + ws[leg + 1:]
                if multiply:
                    new_ws = (sum(new_ws, ()),)
                terms.append((c.truncate(order) * c2.truncate(order), new_ws))
        return SymTensor(1 if multiply else tensor.legs + legs - 1, terms)

    def delta(self, sym: SymTensor) -> SymTensor:
        """Coproduct of a one-leg symbolic expression."""
        if sym.legs != 1:
            raise HopfError("delta acts on one-leg expressions")
        return self._merge_sym(self._map_leg(sym, 0, self.delta_word, 2))

    def delta_leg(self, tensor: SymTensor, leg: int) -> SymTensor:
        """Apply the coproduct to one leg of a symbolic tensor."""
        return self._merge_sym(self._map_leg(tensor, leg, self.delta_word, 2))

    # -- antipode -------------------------------------------------------------

    def antipode_atom(self, atom) -> SymTensor:
        w = self.work
        one = TruncSeries.one(w)
        if isinstance(atom, AFun):
            return expr((AFun(atom.f.truncate(w).compose(self.sigma)),), one)
        if isinstance(atom, Mom):
            factor = (self.phi.compose(self.sigma) * self.phi.recip()
                      * self.exp_mpsi).scale(-1)
            return expr((Mom(atom.i), AFun(factor)), one)
        if isinstance(atom, Rot):
            return expr((atom,), one).scale(-1)
        if isinstance(atom, Boost):
            i = atom.i
            terms = [(one.scale(-1), ((AFun(self.exp_mpsi), atom),))]
            minus_a0 = TruncSeries.monomial(-1, 1, w)
            for j in range(1, self.ctx.dim):
                if j == i:
                    continue
                rot, sign = _rot(i, j)
                terms.append((minus_a0.scale(sign),
                              ((AFun(self.exp_mpsi * self.phi.recip()),
                                Mom(j), rot),)))
            return SymTensor(1, terms)
        raise HopfError(f"unknown atom {atom!r}")

    def antipode_word(self, word) -> SymTensor:
        word = self.canonical_word(word)
        got = self._antipode_cache.get(word)
        if got is None:
            got = SymTensor.unit(1, self.work)
            for atom in reversed(word):
                got = self._merge_sym(got * self.antipode_atom(atom))
            self._antipode_cache[word] = got
        return got

    def antipode(self, sym: SymTensor) -> SymTensor:
        if sym.legs != 1:
            raise HopfError("antipode acts on one-leg expressions")
        return self._map_leg(sym, 0, self.antipode_word, 1)

    def mul_antipode(self, tensor: SymTensor, leg: int) -> SymTensor:
        """m (S (x) id) for leg 0, m (id (x) S) for leg 1, of a two-leg
        symbolic tensor, as one leg."""
        return self._map_leg(tensor, leg, self.antipode_word, 1, multiply=True)

    # -- counit ---------------------------------------------------------------

    def counit_word(self, word) -> GaussScalar:
        out = ONE
        for atom in word:
            if isinstance(atom, AFun):
                out = out * atom.f[0]
            else:
                return ZERO
        return out

    def counit_leg(self, tensor: SymTensor, leg: int) -> SymTensor:
        terms = []
        for c, ws in tensor.terms:
            eps = self.counit_word(ws[leg])
            if eps.is_zero():
                continue
            terms.append((c.scale(eps), ws[:leg] + ws[leg + 1:]))
        return SymTensor(tensor.legs - 1, terms)

    # -- realization ----------------------------------------------------------

    def realize_atom(self, atom, order: int) -> AlgElement:
        key = (atom, order)
        got = self._atom_cache.get(key)
        if got is not None:
            return got
        ctx = self.ctx
        if isinstance(atom, AFun):
            out = lift_in_A(ctx, atom.f, min(order, atom.f.order))
        elif isinstance(atom, Mom):
            out = AlgElement.d(ctx, atom.i, order).scale(MINUS_I)
        elif isinstance(atom, Rot):
            out = self.r.M[atom.i][atom.j].truncate(
                min(order, self.r.M[atom.i][atom.j].order))
        elif isinstance(atom, Boost):
            out = self.r.M[atom.i][0].truncate(
                min(order, self.r.M[atom.i][0].order))
        else:
            raise HopfError(f"unknown atom {atom!r}")
        self._atom_cache[key] = out
        return out

    def realize_word(self, word, order: int) -> AlgElement:
        if not word:
            return AlgElement.one(self.ctx, order)
        key = (word, order)
        got = self._word_cache.get(key)
        if got is None:
            got = self.realize_word(word[:-1], order) \
                * self.realize_atom(word[-1], order)
            self._word_cache[key] = got
        return got

    @staticmethod
    def canonical_word(word):
        """Merge runs of mutually commuting momentum atoms: consecutive
        AFun factors multiply into one, Mom atoms sort ahead of it.  Rot
        and Boost atoms stay in place.  The realized element is unchanged,
        but far fewer distinct words survive."""
        out = []
        moms = []
        afun = None

        def flush():
            nonlocal afun
            out.extend(Mom(i) for i in sorted(moms))
            moms.clear()
            if afun is not None:
                if afun.den != 1 or afun.re[0] != 1 or any(afun.re[1:]) \
                        or any(afun.im):
                    out.append(AFun(afun))
                afun = None

        for atom in word:
            if isinstance(atom, Mom):
                moms.append(atom.i)
            elif isinstance(atom, AFun):
                if afun is None:
                    afun = atom.f
                else:
                    w = min(afun.order, atom.f.order)
                    afun = afun.truncate(w) * atom.f.truncate(w)
            else:
                flush()
                out.append(atom)
        flush()
        return tuple(out)

    def _outer(self, ws, order: int) -> TensorElement:
        key = (ws, order)
        got = self._outer_cache.get(key)
        if got is None:
            got = TensorElement.outer(
                [self.realize_word(w, order) for w in ws])
            self._outer_cache[key] = got
        return got

    def realize(self, sym: SymTensor, order: int | None = None):
        order = order if order is not None else self.work
        wo = min([order] + [c.order for c, _ in sym.terms])
        # realize each canonical word once, then accumulate into one dict:
        # folding term by term with + would copy the accumulator per term
        acc: dict = {}
        for c, ws in self._merge_sym(sym).terms:
            ct = c.truncate(wo)
            elem = self.realize_word(ws[0], order) if sym.legs == 1 \
                else self._outer(ws, order)
            for key, s in elem.terms.items():
                contrib = s.truncate(wo) * ct
                got = acc.get(key)
                acc[key] = contrib if got is None else got + contrib
        if sym.legs == 1:
            return AlgElement(self.ctx, acc, wo)
        return TensorElement(self.ctx, sym.legs, acc, wo)


def _generator_names(ctx: Context):
    names = ["p0", "Z"]
    for i in range(1, ctx.dim):
        names.append(f"p{i}")
        names.append(f"M{i}0")
    for i in range(1, ctx.dim):
        for j in range(i + 1, ctx.dim):
            names.append(f"M{i}{j}")
    return names


# -- public operations --------------------------------------------------------


def _realize_mapped(name: str, r: RealizationSet, hopf, hopf_map: str | None):
    """The named generator, mapped by the HopfStructure method `hopf_map`
    (or left alone), realized at the Hopf order."""
    hopf = hopf or HopfStructure(r)
    sym, div = hopf.generator(name)
    if hopf_map is not None:
        sym = getattr(hopf, hopf_map)(sym)
    out = hopf.realize(sym)
    if div:
        out = out.divide_by_a0(div)
    return out.truncate(hopf.order)


def coproduct(name: str, r: RealizationSet,
              hopf: HopfStructure | None = None) -> TensorElement:
    return _realize_mapped(name, r, hopf, "delta")


def antipode(name: str, r: RealizationSet,
             hopf: HopfStructure | None = None) -> AlgElement:
    return _realize_mapped(name, r, hopf, "antipode")


def counit(name: str, r: RealizationSet,
           hopf: HopfStructure | None = None) -> GaussScalar:
    hopf = hopf or HopfStructure(r)
    sym, div = hopf.generator(name)
    out = ZERO
    for c, (word,) in sym.terms:
        eps = hopf.counit_word(word)
        if eps.is_zero():
            continue
        coeff = c.scale(eps)
        if div:
            coeff = coeff.div_by_t(div)
        out = out + coeff[0]
        if any(not coeff[k].is_zero() for k in range(1, coeff.order + 1)):
            raise HopfError(f"counit of {name} is not a scalar")
    return out


def check_hopf_axioms(name: str, r: RealizationSet,
                      hopf: HopfStructure | None = None) -> SuiteReport:
    """Coassociativity, counit and antipode axioms for one generator,
    verified on realized (tensor) elements at the working order."""
    hopf = hopf or HopfStructure(r)
    rep = SuiteReport(f"hopf-axioms[{name}]")
    N = hopf.order
    sym, div = hopf.generator(name)
    d2 = hopf.delta(sym)

    left = hopf.realize(hopf.delta_leg(d2, 0))
    right = hopf.realize(hopf.delta_leg(d2, 1))
    if div:
        left, right = left.divide_by_a0(div), right.divide_by_a0(div)
    rep.record("coassociativity",
               left.truncate(N) - right.truncate(N))

    g_elem = hopf.realize(sym)
    for leg, tag in ((0, "eps (x) id"), (1, "id (x) eps")):
        collapsed = hopf.realize(hopf.counit_leg(d2, leg))
        resid = collapsed - g_elem
        if div:
            resid = resid.divide_by_a0(div)
        rep.record(f"counit axiom {tag}", resid.truncate(min(N, resid.order)))

    eps = counit(name, r, hopf)
    for leg, tag in ((0, "m(S (x) id)"), (1, "m(id (x) S)")):
        val = hopf.realize(hopf.mul_antipode(d2, leg))
        target = AlgElement.scalar(hopf.ctx, eps, val.order)
        if div:
            # compare the a0^div-multiplied axiom, then strip the power
            target = target.scale(TruncSeries.monomial(1, div, val.order))
            resid = (val - target).divide_by_a0(div)
        else:
            resid = val - target
        rep.record(f"antipode axiom {tag}", resid.truncate(min(N, resid.order)))
    return rep


def check_group_like(r: RealizationSet,
                     hopf: HopfStructure | None = None) -> SuiteReport:
    hopf = hopf or HopfStructure(r)
    rep = SuiteReport("group-like")
    N = hopf.order
    dz = coproduct("Z", r, hopf)
    zz = TensorElement.outer([r.Z, r.Z]).truncate(N)
    rep.record("Delta Z = Z (x) Z", dz - zz)
    sz = antipode("Z", r, hopf)
    rep.record("S(Z) = Z^-1", sz - r.Zinv.truncate(N))
    rep.record("S(Z) Z = 1",
               sz * r.Z.truncate(N) - AlgElement.one(r.ctx, N))
    return rep


def check_classical_primitivity(r: RealizationSet,
                                hopf: HopfStructure | None = None) -> SuiteReport:
    """At a0 = 0 every coproduct must reduce to the primitive form."""
    hopf = hopf or HopfStructure(r)
    rep = SuiteReport("classical-primitivity")
    N = hopf.order
    one = AlgElement.one(r.ctx, N)
    for name in _generator_names(r.ctx):
        if name == "Z":
            continue
        dg = coproduct(name, r, hopf)
        g = realize_generator(name, r, hopf).truncate(N)
        primitive = (TensorElement.outer([g, one])
                     + TensorElement.outer([one, g]))
        rep.record(f"primitive limit of Delta {name}",
                   (dg - primitive).classical_limit())
    return rep


def realize_generator(name: str, r: RealizationSet,
                      hopf: HopfStructure | None = None) -> AlgElement:
    return _realize_mapped(name, r, hopf, None)


def check_morphism_compat(r: RealizationSet,
                          hopf: HopfStructure | None = None) -> SuiteReport:
    """Delta and S must respect [M, p_lambda] = G(p).  The left-hand sides
    apply the Hopf maps to the closed-form G expressions symbolically; the
    1/a0 factors inside G are handled by computing a0 * G and dividing the
    realized tensors at the end."""
    hopf = hopf or HopfStructure(r)
    rep = SuiteReport("morphism-compat")
    ctx = hopf.ctx
    n = ctx.dim
    N = hopf.order
    w = hopf.work
    one = TruncSeries.one(w)

    phi, psi = hopf.phi, hopf.psi
    gamma = r.params.gamma.truncate(w)
    exp_psi, exp_mpsi = hopf.exp_psi, hopf.exp_mpsi

    def sym_G(i, lam) -> tuple:
        """(symbolic expr, a0 power) with expr realizing to a0^k G_{i 0 lam}."""
        if lam == 0:
            return expr((AFun((psi * phi.recip()).scale(-1)), Mom(i)), one), 0
        # a0 * G_{i 0 j}
        terms = []
        if lam == i:
            terms.append((one, ((AFun(phi * (one - exp_psi)),),)))
            # -(1/2) phi e^{BigPsi} * (a0^2 box);  a0^2 box = -a0^2 lap
            # e^{-BigPsi}/phi^2 ... is an element; build from its series form:
            # a0^2 box = 4 sinh^2(BigPsi/2) - a0^2 sum_k p_k^2 e^{-BigPsi}/phi^2
            # (p_k^2 = -d_k^2 and lap = sum d_k^2, so -lap = sum p_k^2).
            sinh2x4 = exp_psi + exp_mpsi - TruncSeries.const(2, w)
            terms.append((one.scale(Fraction(-1, 2)),
                          ((AFun(phi * exp_psi * sinh2x4),),)))
            t2 = TruncSeries.monomial(Fraction(1, 2), 2, w)
            for k in range(1, n):
                terms.append((t2, ((AFun(phi * exp_psi * exp_mpsi
                                         * phi.recip().pow(2)),
                                    Mom(k), Mom(k)),)))
        minus_a0sq = TruncSeries.monomial(-1, 2, w)
        terms.append((minus_a0sq,
                      ((AFun(gamma * phi.recip()), Mom(i), Mom(lam)),)))
        return SymTensor(1, terms), 1

    delta_p, anti_p, div_p = {}, {}, {}
    for lam in range(n):
        psym, pdiv = hopf.generator(f"p{lam}" if lam else "p0")
        delta_p[lam] = hopf.realize(hopf.delta(psym))
        anti_p[lam] = hopf.realize(hopf.antipode(psym))
        div_p[lam] = pdiv
    for i in range(1, n):
        dm = hopf.realize(hopf.delta(expr((Boost(i),), one)))
        sm = hopf.realize(hopf.antipode(expr((Boost(i),), one)))
        for lam in range(n):
            gsym, gdiv = sym_G(i, lam)
            lhs_d = hopf.realize(hopf.delta(gsym))
            lhs_s = hopf.realize(hopf.antipode(gsym))
            dp, sp, pdiv = delta_p[lam], anti_p[lam], div_p[lam]
            rhs_d = tensor_commutator(dm, dp)
            rhs_s = -(sm * sp - sp * sm)

            # align a0 powers: lhs carries gdiv, rhs carries pdiv
            shift = gdiv - pdiv
            if shift > 0:
                rhs_d = rhs_d.scale(TruncSeries.monomial(1, shift, rhs_d.order))
                rhs_s = rhs_s.scale(TruncSeries.monomial(1, shift, rhs_s.order))
            elif shift < 0:
                lhs_d = lhs_d.scale(TruncSeries.monomial(1, -shift, lhs_d.order))
                lhs_s = lhs_s.scale(TruncSeries.monomial(1, -shift, lhs_s.order))
            rep.record(f"Delta[M{i}0, p{lam}]",
                       (lhs_d - rhs_d).truncate(N))
            rep.record(f"S[M{i}0, p{lam}]",
                       (lhs_s - rhs_s).truncate(N))

    # rotations: primitive coproduct against G_{ijk} = d_jk p_i - d_ik p_j
    for i in range(1, n):
        for j in range(i + 1, n):
            for k in range(1, n):
                gexpr = SymTensor(1, [])
                if j == k:
                    gexpr = gexpr + expr((Mom(i),), one)
                if i == k:
                    gexpr = gexpr + expr((Mom(j),), one).scale(-1)
                lhs = hopf.realize(hopf.delta(gexpr)) if gexpr.terms else \
                    TensorElement.zero(ctx, 2, w)
                dm = hopf.realize(hopf.delta(expr((Rot(i, j),), one)))
                dp = hopf.realize(hopf.delta(expr((Mom(k),), one)))
                rhs = tensor_commutator(dm, dp)
                rep.record(f"Delta[M{i}{j}, p{k}]", (lhs - rhs).truncate(N))
    return rep


def adjoint_action(name: str, r: RealizationSet, f: AlgElement,
                   hopf: HopfStructure | None = None) -> AlgElement:
    """Quantum adjoint action ad(g)(f) = sum g_(1) f S(g_(2)), built from the
    symbolic coproduct and antipode."""
    hopf = hopf or HopfStructure(r)
    sym, div = hopf.generator(name)
    if div:
        raise HopfError("adjoint action is defined for the Lorentz sector")
    d2 = hopf.delta(sym)
    order = min(f.order, hopf.ctx.order)
    out = AlgElement.zero(hopf.ctx, order)
    for c, (wl, wr) in d2.terms:
        left = hopf.realize_word(wl, order)
        right = hopf.realize(hopf.antipode_word(wr), order)
        out = out + (left * f * right).scale(c)
    return out


def special_case_table(r: RealizationSet,
                       hopf: HopfStructure | None = None) -> SuiteReport:
    """For phi = psi = 1 the coproducts and antipodes collapse to the
    bicrossproduct table; compare symbol-for-symbol on realized tensors."""
    hopf = hopf or HopfStructure(r)
    rep = SuiteReport("bicrossproduct-table")
    ctx = hopf.ctx
    N = hopf.order
    one = AlgElement.one(ctx, N)
    a0 = TruncSeries.monomial(1, 1, N)
    Z, Zinv = r.Z.truncate(N), r.Zinv.truncate(N)

    p0 = realize_generator("p0", r, hopf)
    rep.record("Delta p0 primitive",
               coproduct("p0", r, hopf)
               - TensorElement.outer([p0, one]) - TensorElement.outer([one, p0]))
    rep.record("S(p0) = -p0", antipode("p0", r, hopf) + p0)
    for i in range(1, ctx.dim):
        pi = realize_generator(f"p{i}", r, hopf)
        rep.record(f"Delta p{i} = p{i} (x) 1 + Z (x) p{i}",
                   coproduct(f"p{i}", r, hopf)
                   - TensorElement.outer([pi, one])
                   - TensorElement.outer([Z, pi]))
        rep.record(f"S(p{i}) = -Zinv p{i}",
                   antipode(f"p{i}", r, hopf) + Zinv * pi)
    for i in range(1, ctx.dim):
        Mi0 = r.M[i][0].truncate(N)
        expected = (TensorElement.outer([Mi0, one])
                    + TensorElement.outer([Z, Mi0]))
        s_expected = -(Zinv * Mi0)
        for j in range(1, ctx.dim):
            if j == i:
                continue
            Mij = r.M[i][j].truncate(N)
            pj = realize_generator(f"p{j}", r, hopf)
            expected = expected - TensorElement.outer([pj, Mij]).scale(a0)
            s_expected = s_expected - (Zinv * pj * Mij).scale(a0)
        rep.record(f"Delta M{i}0 table", coproduct(f"M{i}0", r, hopf) - expected)
        rep.record(f"S(M{i}0) table", antipode(f"M{i}0", r, hopf) - s_expected)
    for i in range(1, ctx.dim):
        for j in range(i + 1, ctx.dim):
            Mij = r.M[i][j].truncate(N)
            rep.record(f"Delta M{i}{j} primitive",
                       coproduct(f"M{i}{j}", r, hopf)
                       - TensorElement.outer([Mij, one])
                       - TensorElement.outer([one, Mij]))
            rep.record(f"S(M{i}{j}) = -M{i}{j}",
                       antipode(f"M{i}{j}", r, hopf) + Mij)
    return rep
