"""Coproducts, antipodes and counits of the deformed Poincare generators.

The Hopf maps are defined on a small symbolic layer: words over the atoms

    AFun(f)   -- f(A) with A = a0 p0 (covers Z = exp(BigPsi(A)) and friends),
    Mom(i)    -- a momentum p_i (p0 included),
    Rot(i,j)  -- a rotation generator M_ij (i < j),
    Boost(i)  -- a boost generator M_i0,

with truncated-series coefficients in a0.  Atoms are plain immutable
classes that store their hash when built, since they key every word-level
dict and cache.  A `SymTensor` is a sparse map
from one canonical word per leg to its coefficient, on the same core as the
realized elements.  The coproduct is an algebra morphism, the antipode an
anti-morphism and the counit a morphism on this layer.  An identity's
residual is formed on this layer and realized into a concrete element of
the engine once.  Every tensor, symbolic or realized, is truncated at the
order N of the realization's Context.

The momentum atoms commute, so a word made of them alone is
p0^k p^alpha f(A), and its coproduct is built in one step:

    Delta(phi^|alpha| f)(A)
      prod_i (p_i phi^-1 (x) 1 + e^BigPsi (x) p_i phi^-1)^alpha_i (Delta p0)^k,

since Delta p_i = Delta phi (p_i phi^-1 (x) 1 + e^BigPsi (x) p_i phi^-1).
The antipode and realization of a word, and the coproduct of a word with a
Rot or Boost atom, come from one memoized fold over atom tables: the empty
word maps to the unit, one atom to its table entry, a longer word w to
image(w[:-1]) image(w[-1:]), and S, an anti-morphism, folds the reversed
word.  The coproduct's fold cuts a word before its trailing momentum run
instead, so its table holds only the Lorentz atoms.  Every word image, and
every generator's realized coproduct and antipode, is built once per
`HopfStructure`.  `_map_leg` maps one leg of a tensor word by word; the
counit goes through it too, its image of a word being a zero-leg tensor.

A tensor is realized one leg per kernel pass: each pass takes the first
word off every term, groups the terms by it and appends the realized word
behind the rest of the term.  Each word is realized once, and no realized
tensor product of single terms is ever built.

The paper divides by a0 only through A = a0 p0: in Delta p0 = Delta(A)/a0,
S(p0) = S(A)/a0 and the f(A)/a0 terms of the morphism check's G.  With
f(0) = 0, f(A)/a0 = (f/t)(A) p0, and f/t comes from f one order above N, so
nothing realized is ever divided.

The coproduct of a function of A is f(Delta A) = sum_k f_k (Delta A)^k,
from the powers of Delta A, built once.  Delta A goes through the primitive
B = BigPsi(A): Delta Z = Z (x) Z says Delta B = B (x) 1 + 1 (x) B, so

    Delta A = BigPsiInv(B (x) 1 + 1 (x) B)
            = sum_j B^j (x) BigPsiInv^(j)(B) / j!,

which needs only one-variable series.

Every public operation takes the request's `HopfStructure`, which holds its
realization as `hopf.r`; none builds one of its own.

Every symbolic term is truncated by its total a0-degree.  The degree of a
word is the sum of the valuations of its AFun atoms: A = -i a0 d0, so the
word realizes with at least that a0-valuation; Mom(0) = p0, like every
other atom but AFun, has degree 0.  A term's total degree adds
its coefficient's valuation.  Each `SymTensor` drops, on construction, the
part of every term above its order; its product pairs only terms whose
degrees add up to at most the order; and the leg maps keep only the image
terms that fit beside the term's other legs.  This is exact: degrees add
under products (the join of AFun runs multiplies their series), the
coproduct and antipode never lower them (Delta B = B (x) 1 + 1 (x) B,
sigma(A) = -A + O(A^2), and each term c a0^(m+n-1) p0^m (x) p0^n of
Delta p0 has m + n >= 1), the counit only zeroes terms, and a tensor is
realized at its own order N, where the dropped part realizes to zero.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, partial, reduce

from .algebra import (AlgebraError, AlgElement, Context, TensorElement,
                      _Sparse, _append_leg, _sum_products, act_on, act_sum,
                      commutator, lift_in_A, tensor_commutator)
from .realizations import RealizationSet
from .reports import SuiteReport
from .scalars import GaussScalar, MINUS_I, ONE
from .series import TruncSeries, reduced


class HopfError(AlgebraError):
    pass


# -- atoms and symbolic expressions -------------------------------------------


class _Atom:
    """Atoms key every word-level dict and cache, so each is immutable and
    stores the hash of the tuple of its fields at construction.  Each atom
    class compares its own class and fields, and names `__hash__` again,
    since a class that defines `__eq__` loses the inherited one."""

    __slots__ = ("_hash",)

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash(fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return self._hash

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class AFun(_Atom):
    __slots__ = ("f",)
    __hash__ = _Atom.__hash__

    def __eq__(self, other):
        return other.__class__ is AFun and other.f == self.f


class Mom(_Atom):
    __slots__ = ("i",)
    __hash__ = _Atom.__hash__

    def __eq__(self, other):
        return other.__class__ is Mom and other.i == self.i


class Rot(_Atom):
    __slots__ = ("i", "j")
    __hash__ = _Atom.__hash__

    def __eq__(self, other):
        return (other.__class__ is Rot and other.i == self.i
                and other.j == self.j)


class Boost(_Atom):
    __slots__ = ("i",)
    __hash__ = _Atom.__hash__

    def __eq__(self, other):
        return other.__class__ is Boost and other.i == self.i


@lru_cache(maxsize=None)
def canonical_word(word: tuple) -> tuple:
    """Merge runs of mutually commuting momentum atoms: consecutive AFun
    factors multiply into one (dropped if it is 1), Mom atoms sort ahead of
    it.  Rot and Boost atoms stay in place.  The realized element is
    unchanged, but far fewer distinct words survive.  Most words are built
    canonical and canonicalized again, so the result is cached."""
    out = []
    moms = []
    afun = None

    def flush():
        nonlocal afun
        out.extend(Mom(i) for i in sorted(moms))
        moms.clear()
        if afun is not None:
            if afun != TruncSeries.one(afun.order):
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


@lru_cache(maxsize=None)
def join_words(w1: tuple, w2: tuple) -> tuple:
    """canonical_word(w1 + w2) for canonical w1, w2: only the momentum run
    where the two words meet is merged again.  Products repeat few distinct
    pairs (543 in 11476 joins for the hopf suite at weyl-symmetric, n=3,
    N=4), so they are cached."""
    i = len(w1)
    while i and isinstance(w1[i - 1], (Mom, AFun)):
        i -= 1
    j = 0
    while j < len(w2) and isinstance(w2[j], (Mom, AFun)):
        j += 1
    if i == len(w1) or not j:
        return w1 + w2
    return w1[:i] + canonical_word(w1[i:] + w2[:j]) + w2[j:]


@lru_cache(maxsize=None)
def word_degree(word: tuple) -> int:
    """The a0-degree of a word: the sum of the valuations of its AFun atoms.
    A = -i a0 d0, so the word realizes with at least this a0-valuation."""
    return sum(atom.f.valuation() for atom in word if isinstance(atom, AFun))


def _key_degree(key: tuple) -> int:
    return sum(map(word_degree, key))


def _degree(key: tuple, c: TruncSeries) -> int:
    """Total a0-degree of a term: coefficient valuation plus key degree."""
    return c.valuation() + _key_degree(key)


def _project(terms: dict, order: int) -> dict:
    """The terms of total degree <= order: a key above `order` is dropped
    and its coefficient's entries above order - degree are dropped."""
    out = {}
    for key, c in terms.items():
        room = order - _key_degree(key)
        if room < 0:
            continue
        if c.order != order:
            c = c.truncate(order)
        if c.nz and c.nz[-1][0] > room:
            c = reduced(order, [e for e in c.nz if e[0] <= room], c.den)
        out[key] = c
    return out


def _mul_words(dim: int, k1, k2):
    """Leg-wise product of two symbolic keys."""
    return ((tuple(join_words(a, b) for a, b in zip(k1, k2)), 1),)


class SymTensor(_Sparse):
    """Sum of a0-series coefficients keyed by one canonical word per leg;
    one leg is a plain symbolic expression.  Every key is canonical, so
    equal terms are always merged, and every term has total a0-degree at
    most the order: the projection runs on every construction."""

    __slots__ = ("legs", "_fitting")
    _mul_keys = staticmethod(_mul_words)

    def __init__(self, ctx: Context, legs: int, terms: dict):
        self.legs = legs
        self._fitting: dict = {}
        super().__init__(ctx, _project(terms, ctx.order))

    def _new(self, terms: dict) -> "SymTensor":
        return SymTensor(self.ctx, self.legs, terms)

    def _same_shape(self, other) -> bool:
        return self.ctx == other.ctx and self.legs == other.legs

    def fitting(self, room: int) -> dict:
        """The terms of total degree <= room, memoized per room."""
        if room >= self.order:
            return self.terms
        got = self._fitting.get(room)
        if got is None:
            got = self._fitting[room] = {
                key: c for key, c in self.terms.items()
                if _degree(key, c) <= room}
        return got

    def __mul__(self, other):
        """Left terms are grouped by total degree d, and each group meets
        only the right terms of degree <= order - d: degrees add under
        products, so the other pairs have nothing at or below the order."""
        self._check(other)
        order = self.order
        by_degree: dict = {}
        for key, c in self.terms.items():
            by_degree.setdefault(_degree(key, c), {})[key] = c
        groups = [(1, left, other.fitting(order - d))
                  for d, left in by_degree.items()]
        return self._new(_sum_products(groups, order,
                                       partial(self._mul_keys, self.ctx.dim)))

    @classmethod
    def collect(cls, ctx: Context, legs: int, pairs) -> "SymTensor":
        """Sum (canonical key, series) pairs, adding equal keys."""
        terms: dict = {}
        for key, c in pairs:
            c = c.truncate(ctx.order)
            got = terms.get(key)
            terms[key] = c if got is None else got + c
        return cls(ctx, legs, terms)


def _rot(i: int, j: int) -> tuple:
    """M_ij as (Rot atom with ascending indices, sign)."""
    return (Rot(i, j), ONE) if i < j else (Rot(j, i), -ONE)


@lru_cache(maxsize=None)
def _a_power(k: int, order: int) -> tuple:
    """The word of A^k."""
    return (AFun(TruncSeries.monomial(1, k, order)),) if k else ()


# -- the Hopf data derived from a realization ---------------------------------

_GENERATOR = re.compile(r"p(0|[1-9][0-9]*)|Z|Zinv|M([0-9])([0-9])")


class HopfStructure:
    """Coproduct/antipode/counit machinery for a noncovariant realization,
    at the realization's order N."""

    def __init__(self, r: RealizationSet):
        if r.frame != "noncovariant":
            raise HopfError("the Hopf formulas are given in the "
                            "noncovariant (phi, psi) basis")
        self.r = r
        self.ctx: Context = r.ctx
        params = r.params
        N = r.ctx.order
        # BigPsi and sigma run one order up: Delta p0 and S(p0) divide
        # series in them by t.  Every other series runs at N.
        self.big_psi = params.big_psi.truncate(N + 1)
        self.big_psi_inv = self.big_psi.comp_inverse()
        # the antipode substitution sigma(A)
        sigma = self.big_psi_inv.compose(-self.big_psi)
        self.sigma = sigma.truncate(N)
        self.antipode_p0 = sigma.div_by_t()  # S(p0) = (sigma/t)(A) p0
        self.phi = params.phi.truncate(N)
        self.phi_inv = self.phi.recip()
        self.psi = params.psi.truncate(N)
        self.exp_psi = self.big_psi.truncate(N).exp()
        self.exp_mpsi = (-self.big_psi.truncate(N)).exp()
        # everything built once per structure, keyed by the name of what
        # builds it (and its argument): word images, Delta of series and of
        # p0, the powers of Delta A, the adjoint legs and the realized maps
        self._memo: dict = {}

    def _once(self, key, build):
        """The memoized value of `key`, built by `build()` on first use."""
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = build()
        return got

    def sym(self, terms, legs: int = 1) -> SymTensor:
        """The symbolic tensor sum of (coefficient, word per leg) at the
        order N; the words need not be canonical."""
        return SymTensor.collect(
            self.ctx, legs,
            ((tuple(canonical_word(w) for w in ws), c) for c, ws in terms))

    def expr(self, word) -> SymTensor:
        """The one-leg symbolic expression `word`, coefficient 1."""
        return self.sym([(TruncSeries.one(self.ctx.order), (word,))])

    # -- generator table ------------------------------------------------------

    def generator(self, name: str) -> SymTensor:
        """The symbolic expression of a named generator."""
        match = _GENERATOR.fullmatch(name)
        if match is None:
            raise HopfError(f"unknown generator {name!r}")
        if name == "Z":
            return self.expr((AFun(self.exp_psi),))
        if name == "Zinv":
            return self.expr((AFun(self.exp_mpsi),))
        if match[1]:
            i = int(match[1])
            if i:
                self._spatial(i)
            return self.expr((Mom(i),))
        i, j = int(match[2]), int(match[3])
        if i == j:
            raise HopfError("M indices must differ")
        for k in (i, j):
            if k:
                self._spatial(k)
        if j == 0:
            return self.expr((Boost(i),))
        if i == 0:
            return self.expr((Boost(j),)).scale(-ONE)  # M_0j = -M_j0
        rot, sign = _rot(i, j)
        return self.expr((rot,)).scale(sign)

    def _spatial(self, i: int):
        if not 1 <= i < self.ctx.dim:
            raise HopfError(f"spatial index {i} out of range")

    # -- coproduct ------------------------------------------------------------

    def _delta_a_powers(self) -> list:
        """(Delta A)^k for k <= N + 1, each as its rows at order N + 1: row
        m of a power is the series in A of its right leg beside A^m, and
        (Delta A)^k has no terms A^m (x) A^n with m + n < k.  With
        B = BigPsi(A), Delta B = B (x) 1 + 1 (x) B, so

            Delta A = sum_j B^j (x) BigPsiInv^(j)(B) / j!,

        which needs only one-variable series.  Built once."""
        def build():
            w = self.ctx.order + 1
            zero = [TruncSeries.zero(w - m) for m in range(w + 1)]
            delta_a = list(zero)
            b_power = TruncSeries.one(w)  # B^j in A
            deriv = self.big_psi_inv      # BigPsiInv^(j)/j!, order w-j
            for j in range(w + 1):
                right = deriv.compose(self.big_psi.truncate(w - j))
                for m in range(j, w + 1):
                    delta_a[m] = delta_a[m] \
                        + right.truncate(w - m).scale(b_power[m])
                if j < w:
                    b_power = b_power * self.big_psi
                    deriv = deriv.derivative().scale(Fraction(1, j + 1))
            powers = [[TruncSeries.one(w)] + zero[1:]]
            for _ in range(w):
                last = powers[-1]
                powers.append([sum((last[a].truncate(w - m)
                                    * delta_a[m - a].truncate(w - m)
                                    for a in range(m + 1)), zero[m])
                               for m in range(w + 1)])
            return powers
        return self._once("_delta_a_powers", build)

    def _delta_afun(self, f: TruncSeries) -> SymTensor:
        """Delta f(A) = sum_k f_k (Delta A)^k, expanded in A^m (x) A^n for
        m + n <= N, built once per series."""
        N = self.ctx.order

        def build():
            rows = [TruncSeries.zero(N - m) for m in range(N + 1)]
            for k, power in enumerate(self._delta_a_powers()[:N + 1]):
                if not f[k].is_zero():
                    rows = [row + part.truncate(N - m).scale(f[k])
                            for m, (row, part) in enumerate(zip(rows, power))]
            return self.sym([(TruncSeries.const(row[n], N),
                              (_a_power(m, N), _a_power(n, N)))
                             for m, row in enumerate(rows)
                             for n in range(N - m + 1)], legs=2)
        return self._once(("_delta_afun", f), build)

    def _delta_p0(self) -> SymTensor:
        """Delta p0 = Delta(A)/a0: each term c A^m (x) A^n of Delta A, with
        m + n >= 1, becomes c a0^(m+n-1) p0^m (x) p0^n.  Built once."""
        N = self.ctx.order
        return self._once("_delta_p0", lambda: self.sym(
            [(TruncSeries.monomial(row[n], m + n - 1, N),
              ((Mom(0),) * m, (Mom(0),) * n))
             for m, row in enumerate(self._delta_a_powers()[1])
             for n in range(N + 2 - m) if m + n], legs=2))

    def _delta_momenta(self, word) -> SymTensor:
        """Delta of a word of momentum atoms, p0^k p^alpha f(A), in one step:

            Delta(phi^|alpha| f)(A)
              prod_i (p_i phi^-1 (x) 1 + e^BigPsi (x) p_i phi^-1)^alpha_i
              (Delta p0)^k.

        Delta is a morphism, these atoms commute and Delta p_i is Delta phi
        times its two-term factor, so the phi's of the p_i merge with f into
        one series."""
        N = self.ctx.order
        one = TruncSeries.one(N)
        g, factors = one, []
        for atom in word:
            if isinstance(atom, AFun):
                g = g * atom.f.truncate(N)
            elif atom.i:
                g = g * self.phi
                pi_over_phi = (Mom(atom.i), AFun(self.phi_inv))
                factors.append(self.sym(
                    [(one, (pi_over_phi, ())),
                     (one, ((AFun(self.exp_psi),), pi_over_phi))], legs=2))
            else:
                factors.append(self._delta_p0())
        return reduce(SymTensor.__mul__, factors, self._delta_afun(g))

    def _delta_atom(self, atom) -> SymTensor:
        """Delta of a Lorentz atom."""
        one = TruncSeries.one(self.ctx.order)
        if isinstance(atom, Rot):
            return self.sym([(one, ((atom,), ())), (one, ((), (atom,)))],
                            legs=2)
        if isinstance(atom, Boost):
            i = atom.i
            terms = [(one, ((atom,), ())),
                     (one, ((AFun(self.exp_psi),), (atom,)))]
            minus_a0 = TruncSeries.monomial(-1, 1, self.ctx.order)
            for j in range(1, self.ctx.dim):
                if j == i:
                    continue
                rot, sign = _rot(i, j)
                terms.append((minus_a0.scale(sign),
                              ((Mom(j), AFun(self.phi_inv)), (rot,))))
            return self.sym(terms, legs=2)
        raise HopfError(f"unknown atom {atom!r}")

    def _unit(self, legs: int) -> SymTensor:
        return self.sym([(TruncSeries.one(self.ctx.order), ((),) * legs)], legs)

    def _fold(self, table: str, word: tuple):
        """The image of a nonempty word under the morphism whose atom images
        the method named `table` gives: table(atom) for one atom,
        image(w[:-1]) image(w[-1:]) for more, each built once."""
        def build():
            if len(word) == 1:
                return getattr(self, table)(word[0])
            return self._fold(table, word[:-1]) * self._fold(table, word[-1:])
        return self._once((table, word), build)

    def delta_word(self, word) -> SymTensor:
        """Coproduct of a canonical word, built once: a word of momentum
        atoms in one step, a Lorentz atom from its table, and any other
        word as Delta(w[:cut]) Delta(w[cut:]), cut before its trailing run
        of momentum atoms or else before its last atom."""
        def build():
            cut = len(word)
            while cut and isinstance(word[cut - 1], (Mom, AFun)):
                cut -= 1
            if not cut:
                return self._delta_momenta(word)
            if len(word) == 1:
                return self._delta_atom(word[0])
            cut = min(cut, len(word) - 1)
            return self.delta_word(word[:cut]) * self.delta_word(word[cut:])
        return self._once(("delta_word", word), build) if word \
            else self._unit(2)

    @staticmethod
    def _map_leg(tensor: SymTensor, leg: int, word_map, legs: int,
                 multiply: bool = False) -> SymTensor:
        """Replace the word on `leg` of every term by its image under
        `word_map` (a word -> `legs`-leg SymTensor), multiplying the
        coefficients; with `multiply`, then multiply all legs into one."""
        def splice(ws, image):
            key = ws[:leg] + image + ws[leg + 1:]
            if multiply:
                key = (reduce(join_words, key, ()),)
            return ((key, 1),)

        # an image term fits beside the term's other legs and coefficient
        groups = [(1, {ws: c}, word_map(ws[leg]).fitting(
                       tensor.order - _degree(ws, c) + word_degree(ws[leg])))
                  for ws, c in tensor.terms.items()]
        return SymTensor(tensor.ctx, 1 if multiply else tensor.legs + legs - 1,
                         _sum_products(groups, tensor.order, splice))

    def delta(self, sym: SymTensor) -> SymTensor:
        """Coproduct of a one-leg symbolic expression."""
        if sym.legs != 1:
            raise HopfError("delta acts on one-leg expressions")
        return self._map_leg(sym, 0, self.delta_word, 2)

    def delta_leg(self, tensor: SymTensor, leg: int) -> SymTensor:
        """Apply the coproduct to one leg of a symbolic tensor."""
        return self._map_leg(tensor, leg, self.delta_word, 2)

    # -- antipode -------------------------------------------------------------

    def antipode_atom(self, atom) -> SymTensor:
        w = self.ctx.order
        if isinstance(atom, AFun):
            return self.expr((AFun(atom.f.truncate(w).compose(self.sigma)),))
        if atom == Mom(0):
            return self.expr((Mom(0), AFun(self.antipode_p0)))
        if isinstance(atom, Mom):
            factor = (self.phi.compose(self.sigma) * self.phi_inv
                      * self.exp_mpsi).scale(-1)
            return self.expr((Mom(atom.i), AFun(factor)))
        if isinstance(atom, Rot):
            return self.expr((atom,)).scale(-1)
        if isinstance(atom, Boost):
            i = atom.i
            terms = [(TruncSeries.const(-1, w), ((AFun(self.exp_mpsi), atom),))]
            minus_a0 = TruncSeries.monomial(-1, 1, w)
            for j in range(1, self.ctx.dim):
                if j == i:
                    continue
                rot, sign = _rot(i, j)
                terms.append((minus_a0.scale(sign),
                              ((AFun(self.exp_mpsi * self.phi_inv),
                                Mom(j), rot),)))
            return self.sym(terms)
        raise HopfError(f"unknown atom {atom!r}")

    def antipode_word(self, word) -> SymTensor:
        """Antipode of a canonical word.  S is an anti-morphism, so it is
        the fold over the reversed word: S(w[1:]) S(w[:1])."""
        return (self._fold("antipode_atom", word[::-1]) if word
                else self._unit(1))

    def antipode(self, sym: SymTensor) -> SymTensor:
        if sym.legs != 1:
            raise HopfError("antipode acts on one-leg expressions")
        return self._map_leg(sym, 0, self.antipode_word, 1)

    def mul_antipode(self, tensor: SymTensor, leg: int) -> SymTensor:
        """m (S (x) id) for leg 0, m (id (x) S) for leg 1, of a two-leg
        symbolic tensor, as one leg."""
        return self._map_leg(tensor, leg, self.antipode_word, 1, multiply=True)

    # -- counit ---------------------------------------------------------------

    def counit_word(self, word) -> SymTensor:
        """The counit of a word as a zero-leg tensor: the product of f(0)
        over its AFun atoms, or zero if it has any other atom; built once
        per word."""
        def build():
            if not all(isinstance(atom, AFun) for atom in word):
                return self.sym([], legs=0)
            eps = reduce(lambda out, atom: out * atom.f[0], word, ONE)
            return self.sym([(TruncSeries.const(eps, self.ctx.order), ())],
                            legs=0)
        return self._once(("counit_word", word), build)

    def counit_leg(self, tensor: SymTensor, leg: int) -> SymTensor:
        return self._map_leg(tensor, leg, self.counit_word, 0)

    # -- realization ----------------------------------------------------------

    def realize_atom(self, atom) -> AlgElement:
        ctx = self.ctx
        if isinstance(atom, AFun):
            return lift_in_A(ctx, atom.f)
        if isinstance(atom, Mom):
            return AlgElement.d(ctx, atom.i).scale(MINUS_I)
        if isinstance(atom, Rot):
            return self.r.M[atom.i][atom.j]
        if isinstance(atom, Boost):
            return self.r.M[atom.i][0]
        raise HopfError(f"unknown atom {atom!r}")

    def realize_word(self, word) -> AlgElement:
        return (self._fold("realize_atom", word) if word
                else AlgElement.one(self.ctx))

    def adjoint_legs(self, name: str) -> list:
        """[(c g_(1), w), ...] over the terms c g_(1) (x) w of Delta g: the
        left word realized and scaled, once per generator."""
        return self._once(("adjoint_legs", name), lambda: [
            (self.realize_word(wl).scale(c), wr)
            for (wl, wr), c in self.delta(self.generator(name)).terms.items()])

    def realized_antipode(self, word) -> AlgElement:
        """S(word) realized, once per word."""
        return self._once(("realized_antipode", word),
                          lambda: self.realize(self.antipode_word(word)))

    def _realize_legs(self, terms: dict, legs: int) -> dict:
        """{(monomial per leg): series}: the `legs`-leg symbolic terms
        {(word per leg): c} realized one leg per kernel pass.  A pass takes
        the first word off every key, groups the keys by it and appends the
        group's realized word behind the rest of each key, so after `legs`
        passes every key is one monomial per leg."""
        for _ in range(legs):
            groups: dict = {}
            for key, c in terms.items():
                groups.setdefault(key[0], {})[key[1:]] = c
            terms = _sum_products([(1, rest, self.realize_word(w).terms)
                                   for w, rest in groups.items()],
                                  self.ctx.order, _append_leg)
        return terms

    def realize(self, sym: SymTensor):
        terms = self._realize_legs(sym.terms, sym.legs)
        if sym.legs == 1:
            return AlgElement(self.ctx, {m: s for (m,), s in terms.items()})
        return TensorElement(self.ctx, sym.legs, terms)


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


def coproduct(name: str, hopf: HopfStructure) -> TensorElement:
    """Delta of a generator, realized once per Hopf structure."""
    return hopf._once(("coproduct", name),
                      lambda: hopf.realize(hopf.delta(hopf.generator(name))))


def antipode(name: str, hopf: HopfStructure) -> AlgElement:
    """S of a generator, realized once per Hopf structure."""
    return hopf._once(("antipode", name), lambda: hopf.realize(
        hopf.antipode(hopf.generator(name))))


def counit(name: str, hopf: HopfStructure) -> GaussScalar:
    eps = hopf.counit_leg(hopf.generator(name), 0)
    c = eps.terms.get((), TruncSeries.zero(eps.order))
    if c != TruncSeries.const(c[0], c.order):
        raise HopfError(f"counit of {name} is not a scalar")
    return c[0]


def check_hopf_axioms(name: str, hopf: HopfStructure) -> SuiteReport:
    """Coassociativity, counit and antipode axioms for one generator.  Each
    residual is formed on the symbolic layer and realized once; realization
    is linear, so it equals the difference of the realized sides."""
    rep = SuiteReport(f"hopf-axioms[{name}]")
    sym = hopf.generator(name)
    d2 = hopf.delta(sym)

    def record(check: str, resid: SymTensor):
        rep.record(check, hopf.realize(resid))

    record("coassociativity", hopf.delta_leg(d2, 0) - hopf.delta_leg(d2, 1))
    for leg, tag in ((0, "eps (x) id"), (1, "id (x) eps")):
        record(f"counit axiom {tag}", hopf.counit_leg(d2, leg) - sym)
    target = hopf._unit(1).scale(counit(name, hopf))
    for leg, tag in ((0, "m(S (x) id)"), (1, "m(id (x) S)")):
        record(f"antipode axiom {tag}", hopf.mul_antipode(d2, leg) - target)
    return rep


def check_group_like(hopf: HopfStructure) -> SuiteReport:
    r = hopf.r
    rep = SuiteReport("group-like")
    dz = coproduct("Z", hopf)
    rep.record("Delta Z = Z (x) Z", dz - TensorElement.outer([r.Z, r.Z]))
    sz = antipode("Z", hopf)
    rep.record("S(Z) = Z^-1", sz - r.Zinv)
    rep.record("S(Z) Z = 1", sz * r.Z - AlgElement.one(r.ctx))
    return rep


def check_classical_primitivity(hopf: HopfStructure) -> SuiteReport:
    """At a0 = 0 every coproduct must reduce to the primitive form."""
    rep = SuiteReport("classical-primitivity")
    one = AlgElement.one(hopf.ctx)
    for name in _generator_names(hopf.ctx):
        if name == "Z":
            continue
        dg = coproduct(name, hopf)
        g = realize_generator(name, hopf)
        primitive = (TensorElement.outer([g, one])
                     + TensorElement.outer([one, g]))
        rep.record(f"primitive limit of Delta {name}",
                   (dg - primitive).classical_limit())
    return rep


def realize_generator(name: str, hopf: HopfStructure) -> AlgElement:
    return hopf.realize(hopf.generator(name))


def check_morphism_compat(hopf: HopfStructure) -> SuiteReport:
    """Delta and S must respect [M, p_lambda] = G(p).  The left-hand sides
    apply the Hopf maps to the closed-form G expressions symbolically; each
    f(A)/a0 inside G, with f(0) = 0, is written (f/t)(A) p0, from f one
    order above N."""
    rep = SuiteReport("morphism-compat")
    ctx = hopf.ctx
    n = ctx.dim
    N = ctx.order
    one = TruncSeries.one(N)

    phi, phi_inv, psi = hopf.phi, hopf.phi_inv, hopf.psi
    gamma = hopf.r.params.gamma.truncate(N)
    exp_psi, exp_mpsi = hopf.exp_psi, hopf.exp_mpsi
    # the series divided by a0 are taken one order up
    phi_up = hopf.r.params.phi.truncate(N + 1)
    exp_psi_up, exp_mpsi_up = hopf.big_psi.exp(), (-hopf.big_psi).exp()

    def over_a0(f_up: TruncSeries) -> tuple:
        """The word of f(A)/a0 = (f/t)(A) p0, for f(0) = 0."""
        return (AFun(f_up.div_by_t()), Mom(0))

    def sym_G(i, lam) -> SymTensor:
        """The symbolic expression of G_{i 0 lam}."""
        if lam == 0:
            return hopf.expr((AFun((psi * phi_inv).scale(-1)), Mom(i)))
        terms = []
        if lam == i:
            terms.append((one, (over_a0(
                phi_up * (TruncSeries.one(N + 1) - exp_psi_up)),)))
            # -(1/2) phi e^{BigPsi} * (a0 box), built from the series form
            # a0^2 box = 4 sinh^2(BigPsi/2) - a0^2 sum_k p_k^2 e^{-BigPsi}/phi^2
            # (p_k^2 = -d_k^2 and lap = sum d_k^2, so -lap = sum p_k^2).
            sinh2x4 = exp_psi_up + exp_mpsi_up - TruncSeries.const(2, N + 1)
            terms.append((one.scale(Fraction(-1, 2)),
                          (over_a0(phi_up * exp_psi_up * sinh2x4),)))
            half_a0 = TruncSeries.monomial(Fraction(1, 2), 1, N)
            for k in range(1, n):
                terms.append((half_a0, ((AFun(phi * exp_psi * exp_mpsi
                                              * phi_inv.pow(2)),
                                         Mom(k), Mom(k)),)))
        minus_a0 = TruncSeries.monomial(-1, 1, N)
        terms.append((minus_a0,
                      ((AFun(gamma * phi_inv), Mom(i), Mom(lam)),)))
        return hopf.sym(terms)

    delta_p = {lam: coproduct(f"p{lam}", hopf) for lam in range(n)}
    anti_p = {lam: antipode(f"p{lam}", hopf) for lam in range(n)}
    for i in range(1, n):
        dm = coproduct(f"M{i}0", hopf)
        sm = antipode(f"M{i}0", hopf)
        for lam in range(n):
            gsym = sym_G(i, lam)
            lhs_d = hopf.realize(hopf.delta(gsym))
            lhs_s = hopf.realize(hopf.antipode(gsym))
            rep.record(f"Delta[M{i}0, p{lam}]",
                       lhs_d - tensor_commutator(dm, delta_p[lam]))
            rep.record(f"S[M{i}0, p{lam}]",
                       lhs_s + commutator(sm, anti_p[lam]))

    # rotations: primitive coproduct against G_{ijk} = d_jk p_i - d_ik p_j
    # (Delta is linear, so Delta G is Delta p_i, -Delta p_j or 0)
    for i in range(1, n):
        for j in range(i + 1, n):
            dm = coproduct(f"M{i}{j}", hopf)
            for k in range(1, n):
                if j == k:
                    lhs = delta_p[i]
                elif i == k:
                    lhs = -delta_p[j]
                else:
                    lhs = TensorElement.zero(ctx, 2)
                rep.record(f"Delta[M{i}{j}, p{k}]",
                           lhs - tensor_commutator(dm, delta_p[k]))
    return rep


def adjoint_action(name: str, f: AlgElement, hopf: HopfStructure, *,
                   project: bool = False) -> AlgElement:
    """Quantum adjoint action ad(g)(f) = sum g_(1) f S(g_(2)), from the
    generator's cached legs (c g_(1), S(g_(2))), in one kernel pass.  With
    `project`, its action on the unit, ad(g)(f) |> 1 =
    sum g_(1) |> (f |> S(g_(2))), without the full products."""
    legs = hopf.adjoint_legs(name)
    if project:
        return act_sum([(1, left, act_on(f, hopf.realized_antipode(w)))
                        for left, w in legs])
    return f.sum_products([(1, left, f * hopf.realized_antipode(w))
                           for left, w in legs])


def special_case_table(hopf: HopfStructure) -> SuiteReport:
    """For phi = psi = 1 the coproducts and antipodes collapse to the
    bicrossproduct table; compare symbol-for-symbol on realized tensors."""
    r = hopf.r
    rep = SuiteReport("bicrossproduct-table")
    ctx = hopf.ctx
    one = AlgElement.one(ctx)
    a0 = TruncSeries.monomial(1, 1, ctx.order)
    Z, Zinv = r.Z, r.Zinv

    p0 = realize_generator("p0", hopf)
    rep.record("Delta p0 primitive",
               coproduct("p0", hopf)
               - TensorElement.outer([p0, one]) - TensorElement.outer([one, p0]))
    rep.record("S(p0) = -p0", antipode("p0", hopf) + p0)
    for i in range(1, ctx.dim):
        pi = realize_generator(f"p{i}", hopf)
        rep.record(f"Delta p{i} = p{i} (x) 1 + Z (x) p{i}",
                   coproduct(f"p{i}", hopf)
                   - TensorElement.outer([pi, one])
                   - TensorElement.outer([Z, pi]))
        rep.record(f"S(p{i}) = -Zinv p{i}",
                   antipode(f"p{i}", hopf) + Zinv * pi)
    for i in range(1, ctx.dim):
        Mi0 = r.M[i][0]
        expected = (TensorElement.outer([Mi0, one])
                    + TensorElement.outer([Z, Mi0]))
        s_expected = -(Zinv * Mi0)
        for j in range(1, ctx.dim):
            if j == i:
                continue
            Mij = r.M[i][j]
            pj = realize_generator(f"p{j}", hopf)
            expected = expected - TensorElement.outer([pj, Mij]).scale(a0)
            s_expected = s_expected - (Zinv * pj * Mij).scale(a0)
        rep.record(f"Delta M{i}0 table", coproduct(f"M{i}0", hopf) - expected)
        rep.record(f"S(M{i}0) table", antipode(f"M{i}0", hopf) - s_expected)
    for i in range(1, ctx.dim):
        for j in range(i + 1, ctx.dim):
            Mij = r.M[i][j]
            rep.record(f"Delta M{i}{j} primitive",
                       coproduct(f"M{i}{j}", hopf)
                       - TensorElement.outer([Mij, one])
                       - TensorElement.outer([one, Mij]))
            rep.record(f"S(M{i}{j}) = -M{i}{j}",
                       antipode(f"M{i}{j}", hopf) + Mij)
    return rep
