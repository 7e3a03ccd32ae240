"""Deformed exterior derivative, one-forms and the Lorentz action on forms.

The exterior derivative is the one-parameter family

    dhat = -dx0 d0 K1(A) + (sum_k dxk dk) K2(A),    A = -i a0 d0,

with K2 = Z^{-1}/phi forced by compatibility and K1 = (1 - Z^{-s})/(sA)
(K1 = BigPsi(A)/A at s = 0).  The one-forms xi_mu = [dhat, xhat_mu] then
close under commutation with the coordinates,

    [xi_mu, xhat_nu] = i sum_lambda K^lambda_mu_nu xi_lambda,

with constant K^lambda_mu_nu, and the whole differential algebra carries an
action of the Lorentz generators.

`build_calculus(r, s)` builds the `CalculusSet` of a realization at the
exponent s, and every check takes that set alone and reads the realization
from `c.r`; the adjoint agreement check takes the request's `HopfStructure`
and reads it from `hopf.r`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations_with_replacement

from .algebra import (AlgElement, act_on, act_sum, anticommutator,
                      commutator, lift_in_A)
from .realizations import RealizationError, RealizationSet
from .reports import Check, SuiteReport
from .scalars import GaussScalar, I, ZERO, _frac
from .series import TruncSeries


class CalculusError(RealizationError):
    pass


S_VALUES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


@dataclass(frozen=True)
class CalculusSet:
    """The calculus of one realization at exponent s: the forced coefficient
    functions K1 and K2, dhat and the one-forms xi[mu] = [dhat, xhat_mu]."""

    r: RealizationSet
    s: Fraction
    K1: TruncSeries
    K2: TruncSeries
    dhat: AlgElement
    xi: tuple

    @cached_property
    def closure(self):
        """extract_K(self), formed once for the closure check and the K
        decomposition."""
        return extract_K(self)


def expected_xi(c: CalculusSet) -> tuple:
    """The closed forms xi0 = dx0 Z^{-s}, xi_i = dxi Z^{-1}."""
    ctx = c.r.ctx
    big_psi = c.r.params.big_psi
    zs = big_psi.scale(-c.s).exp()
    zinv = (-big_psi).exp()
    out = [AlgElement.dx(ctx, 0) * lift_in_A(ctx, zs)]
    for i in range(1, ctx.dim):
        out.append(AlgElement.dx(ctx, i) * lift_in_A(ctx, zinv))
    return tuple(out)


def build_calculus(r: RealizationSet, s, fault: bool = False) -> CalculusSet:
    """K1 and K2 from r's (phi, psi) at r's order N, dhat and the one-forms
    xi_mu = [dhat, xhat_mu]; `run_calculus_suites` compares the xi with
    `expected_xi`."""
    if r.frame != "noncovariant" or not r.ctx.is_timelike_axis():
        raise CalculusError("the exterior derivative is built over the "
                            "noncovariant timelike realization")
    s = _frac(s)
    ctx = r.ctx
    N = ctx.order
    params = r.params
    if params.order < N + 1:
        raise CalculusError("params order too low to derive K1")
    big_psi = params.big_psi.truncate(N + 1)
    if s == 0:
        k1 = big_psi.div_by_t(1)
    else:
        k1 = (TruncSeries.one(N + 1)
              - big_psi.scale(-s).exp()).div_by_t(1).scale(1 / s)
    k2 = ((-params.big_psi).exp() * params.phi.recip()).truncate(N)
    if k1[0] != GaussScalar(1):
        raise CalculusError("K1(0) must equal 1")
    k1_elem = lift_in_A(ctx, k1)
    if fault:
        # corrupt the K1 coefficient operator with a coordinate-dependent term
        k1_elem = k1_elem + AlgElement.x(ctx, 1).scale(
            TruncSeries.monomial(1, 1, N))
    dhat = -(AlgElement.dx(ctx, 0) * AlgElement.d(ctx, 0) * k1_elem)
    k2_elem = lift_in_A(ctx, k2)
    for k in range(1, ctx.dim):
        dhat = dhat + AlgElement.dx(ctx, k) * AlgElement.d(ctx, k) * k2_elem
    xi = tuple(commutator(dhat, r.xhat[mu]) for mu in range(ctx.dim))
    return CalculusSet(r, s, k1, k2, dhat, xi)


# -- d properties -------------------------------------------------------------


def _coordinate_monomials(ctx, max_degree: int):
    """All ordered index tuples of length 1..max_degree."""
    out = []
    for k in range(1, max_degree + 1):
        out.extend(combinations_with_replacement(range(ctx.dim), k))
    return out


def xhat_monomial(r: RealizationSet, indices) -> AlgElement:
    out = AlgElement.one(r.ctx)
    for mu in indices:
        out = out * r.xhat[mu]
    return out


def check_d_properties(c: CalculusSet, max_degree: int = 3) -> SuiteReport:
    """dhat^2 = 0, anticommuting one-forms and the undeformed Leibniz rule."""
    rep = SuiteReport("d-properties")
    r = c.r
    n = r.ctx.dim
    rep.record("dhat^2 = 0", c.dhat * c.dhat)
    for mu in range(n):
        for nu in range(mu, n):
            rep.record(f"{{xi{mu},xi{nu}}} = 0",
                       anticommutator(c.xi[mu], c.xi[nu]))
    monos = _coordinate_monomials(r.ctx, max_degree)
    # each monomial and its [dhat, .] once, not once per pair
    xs = {m: xhat_monomial(r, m) for m in monos}
    dxs = {m: commutator(c.dhat, f) for m, f in xs.items()}
    for left in monos:
        f, df = xs[left], dxs[left]
        for right in monos:
            g, dg = xs[right], dxs[right]
            fg = f * g
            resid = c.dhat.sum_products(
                [(1, c.dhat, fg), (-1, fg, c.dhat), (-1, df, g), (-1, f, dg)])
            rep.record(f"Leibniz on x{list(left)}*x{list(right)}", resid)
    return rep


# -- closure and the K constants ----------------------------------------------


def extract_K(c: CalculusSet):
    """Solve [xi_mu, xhat_nu] = i sum K^lam_mu_nu xi_lam for constants.

    Returns (K, report) where K[mu][nu][lam] is the rational q in
    K^lam_mu_nu = q * a0; extraction failures are recorded in the report."""
    r = c.r
    ctx = r.ctx
    n = ctx.dim
    rep = SuiteReport("closure")
    zero_d = (0,) * n
    zero_x = (0,) * n
    K = [[[Fraction(0) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for mu in range(n):
        lead = {}
        for lam in range(n):
            # the dx_lam part of xi_lam with no derivatives: h(0) != 0
            key = (zero_x, 1 << lam, zero_d)
            s = c.xi[lam].coefficient(key)
            lead[lam] = s[0]
        for nu in range(n):
            comm = commutator(c.xi[mu], r.xhat[nu])
            resid = comm
            for lam in range(n):
                key = (zero_x, 1 << lam, zero_d)
                cseries = comm.coefficient(key)
                if lead[lam].is_zero():
                    continue
                # candidate q from i*q*a0*h(0) = linear coefficient
                q = cseries[1] / (I * lead[lam])
                if not q.im == 0:
                    rep.record(f"[xi{mu},xhat{nu}] constant K^{lam}", False)
                    continue
                K[mu][nu][lam] = q.re
                if q.re != 0:
                    resid = resid - c.xi[lam].scale(
                        TruncSeries.monomial(GaussScalar(0, q.re), 1,
                                             comm.order))
            rep.record(f"[xi{mu},xhat{nu}] closed in the xi's", resid)
    return K, rep


def check_closure_and_K(c: CalculusSet) -> SuiteReport:
    K, closure = c.closure
    rep = SuiteReport(closure.suite, list(closure.checks))
    n = c.r.ctx.dim
    s = c.s
    for mu in range(n):
        for nu in range(n):
            for lam in range(n):
                want = Fraction(0)
                if mu == lam == nu == 0:
                    want = -s
                elif mu == lam != 0 and nu == 0:
                    want = Fraction(-1)
                rep.record(f"K^{lam}_{mu}{nu} = {want}*a0",
                           K[mu][nu][lam] == want)
    return rep


# -- compatibility ------------------------------------------------------------


def compatibility_report(r: RealizationSet, xi, suite: str) -> SuiteReport:
    """[xi_mu, xhat_nu] - [xi_nu, xhat_mu] = i(a_mu xi_nu - a_nu xi_mu)."""
    rep = SuiteReport(suite)
    n = r.ctx.dim
    for mu in range(n):
        for nu in range(mu + 1, n):
            lhs = xi[mu].sum_products(
                [(1, xi[mu], r.xhat[nu]), (-1, r.xhat[nu], xi[mu]),
                 (-1, xi[nu], r.xhat[mu]), (1, r.xhat[mu], xi[nu])])
            rhs = (xi[nu].scale(r.a_component(mu))
                   - xi[mu].scale(r.a_component(nu))).scale(I)
            rep.record(f"compat ({mu},{nu})", lhs - rhs)
    return rep


def check_compatibility(c: CalculusSet) -> SuiteReport:
    return compatibility_report(c.r, c.xi, "compatibility")


def inadmissible_one_forms(r: RealizationSet) -> tuple:
    """The rejected assignment h_mu_nu = delta_mu_nu, i.e. xi_mu = dx_mu."""
    return tuple(AlgElement.dx(r.ctx, mu) for mu in range(r.ctx.dim))


# -- K = A + S decomposition --------------------------------------------------


def _momentum_derivative(elem: AlgElement, beta: int) -> AlgElement:
    """Formal derivative with respect to d_beta of a momentum-only element."""
    if not elem.is_momentum_only():
        raise CalculusError("derivative defined on momentum-only elements")
    out = {}
    for (x, dx, d), s in elem.terms.items():
        k = d[beta]
        if k == 0:
            continue
        nd = tuple(e - 1 if m == beta else e for m, e in enumerate(d))
        out[(x, dx, nd)] = s.scale(k)
    return AlgElement(elem.ctx, out)


def _unlift_A(elem: AlgElement, order: int) -> TruncSeries:
    """Inverse of lift_in_A: recover f with f(A) = elem, A = -i a0 d0."""
    zero = (0,) * elem.ctx.dim
    coeffs = [ZERO] * (order + 1)
    for (x, dx, d), s in elem.terms.items():
        k = d[0]
        if x != zero or dx or any(d[1:]) or k > order or s.valuation() != k \
                or s != TruncSeries.monomial(s[k], k, s.order):
            raise CalculusError("element is not a function of A")
        coeffs[k] = s[k] * I ** k  # (-i a0 d0)^k carries (-i)^k
    return TruncSeries(coeffs)


def _split_by_index(elems, index, message: str) -> list:
    """out[al][mu]: the part of elems[mu] that carries the generator of index
    al, with that generator removed and the index lowered (sign -1 for
    al = 0).  index(x, dx) names al for one term, or None if the term does
    not carry exactly one such generator; then `message` is raised."""
    ctx = elems[0].ctx
    n = ctx.dim
    zero = (0,) * n
    parts = [[{} for _ in range(n)] for _ in range(n)]
    for mu, elem in enumerate(elems):
        for (x, dx, d), s in elem.terms.items():
            al = index(x, dx)
            if al is None:
                raise CalculusError(message.format(mu))
            # d fixes the key within one (al, mu) entry
            parts[al][mu][(zero, 0, d)] = -s if al == 0 else s
    return [[AlgElement(ctx, parts[al][mu]) for mu in range(n)]
            for al in range(n)]


def extract_h(c: CalculusSet):
    """h_al_mu from xi_mu = sum_al dx^al h_al_mu(d); dx^0 = -dx0."""
    return _split_by_index(
        c.xi, lambda x, dx: (dx.bit_length() - 1 if sum(x) == 0
                             and bin(dx).count("1") == 1 else None),
        "xi{} is not a pure one-form")


def extract_phi_matrix(r: RealizationSet):
    """phi_al_mu from xhat_mu = sum_al x^al phi_al_mu(d); x^0 = -x0."""
    return _split_by_index(
        r.xhat, lambda x, dx: x.index(1) if sum(x) == 1 and not dx else None,
        "xhat{} is not linear in x")


def decompose_K(c: CalculusSet) -> SuiteReport:
    """K = A + S with A^lam_mu_nu = (a_mu d_nu_lam - a_nu d_mu_lam)/2 and
    S^lam_mu_nu = -(i/2) sum h^-1_lam_al (dh_al_mu/dd_be phi_be_nu
                                          + dh_al_nu/dd_be phi_be_mu)."""
    rep = SuiteReport("K-decomposition")
    r = c.r
    ctx = r.ctx
    n = ctx.dim
    N = ctx.order
    h = extract_h(c)
    phi = extract_phi_matrix(r)
    for al in range(n):
        for mu in range(n):
            if al != mu:
                rep.record(f"h{al}{mu} diagonal", h[al][mu])
    hinv = []
    for lam in range(n):
        hseries = _unlift_A(h[lam][lam], N)
        hinv.append(lift_in_A(ctx, hseries.recip()))
    K, _ = c.closure
    e = ctx.direction
    half = Fraction(1, 2)
    for lam in range(n):
        for mu in range(n):
            for nu in range(mu, n):
                num = AlgElement.zero(ctx)
                for be in range(n):
                    num = num \
                        + _momentum_derivative(h[lam][mu], be) * phi[be][nu] \
                        + _momentum_derivative(h[lam][nu], be) * phi[be][mu]
                S = (hinv[lam] * num).scale(GaussScalar(0, -half))
                a_sym = half * (e[mu] * (1 if nu == lam else 0)
                                - e[nu] * (1 if mu == lam else 0))
                s_val = Fraction(K[mu][nu][lam]) - a_sym
                target = AlgElement.from_series(
                    ctx, TruncSeries.monomial(s_val, 1, N))
                rep.record(f"S^{lam}_{mu}{nu} constant, K = A + S", S - target)
                # symmetry of the extracted K-minus-A part
                rep.record(f"S^{lam}_{mu}{nu} symmetric",
                           K[mu][nu][lam] - half * (e[mu] * (nu == lam)
                                                    - e[nu] * (mu == lam))
                           == K[nu][mu][lam] - half * (e[nu] * (mu == lam)
                                                       - e[mu] * (nu == lam)))
    return rep


# -- Lorentz sector -----------------------------------------------------------


def commutators_M_xi(c: CalculusSet) -> SuiteReport:
    rep = SuiteReport("M-xi")
    r = c.r
    ctx = r.ctx
    n = ctx.dim
    N = ctx.order
    s = c.s
    phi_inv = lift_in_A(ctx, r.params.phi.recip())
    for i in range(1, n):
        di = AlgElement.d(ctx, i)
        factor = di * phi_inv
        lhs0 = commutator(r.M[i][0], c.xi[0])
        want0 = (c.xi[0] * factor).scale(
            TruncSeries.monomial(GaussScalar(0, -s), 1, N))
        rep.record(f"[M{i}0,xi0] = -s*i*a0*xi0*d{i}/phi", lhs0 - want0)
        for k in range(1, n):
            lhsk = commutator(r.M[i][0], c.xi[k])
            wantk = (c.xi[k] * factor).scale(
                TruncSeries.monomial(GaussScalar(0, -1), 1, N))
            rep.record(f"[M{i}0,xi{k}] = -i*a0*xi{k}*d{i}/phi", lhsk - wantk)
        for j in range(i + 1, n):
            rep.record(f"[M{i}{j},xi0] = 0", commutator(r.M[i][j], c.xi[0]))
            for k in range(1, n):
                rep.record(f"[M{i}{j},xi{k}] = 0",
                           commutator(r.M[i][j], c.xi[k]))
    # [M, dhat] never vanishes, even classically
    pairs = [(mu, nu) for mu in range(n) for nu in range(mu + 1, n)]
    for mu, nu in pairs:
        comm = commutator(r.M[mu][nu], c.dhat)
        rep.record(f"[M{mu}{nu},dhat] != 0", not comm.is_zero())
        classical = (AlgElement.dx(ctx, nu) * AlgElement.d(ctx, mu)
                     - AlgElement.dx(ctx, mu) * AlgElement.d(ctx, nu))
        rep.record(f"classical [M{mu}{nu},dhat]",
                   comm.classical_limit() - classical)
    return rep


def lorentz_action(r: RealizationSet, f: AlgElement, mu: int,
                   nu: int) -> AlgElement:
    """M_mu_nu |> f = (M_mu_nu f) |> 1, which is [M_mu_nu, f] |> 1 since
    every realized Lorentz generator annihilates the vacuum."""
    return act_on(r.M[mu][nu], f)


def check_action_table(c: CalculusSet) -> SuiteReport:
    """The coordinate action table and M |> f(xi) = 0."""
    rep = SuiteReport("actions")
    r = c.r
    ctx = r.ctx
    n = ctx.dim
    for i in range(1, n):
        rep.record(f"M{i}0 |> xhat0 = -x{i}",
                   lorentz_action(r, r.xhat[0], i, 0)
                   + AlgElement.x(ctx, i))
        for k in range(1, n):
            want = -AlgElement.x(ctx, 0) if k == i \
                else AlgElement.zero(ctx)
            rep.record(f"M{i}0 |> xhat{k}",
                       lorentz_action(r, r.xhat[k], i, 0) - want)
        for j in range(i + 1, n):
            rep.record(f"M{i}{j} |> xhat0 = 0",
                       lorentz_action(r, r.xhat[0], i, j))
            for k in range(1, n):
                want = AlgElement.zero(ctx)
                if j == k:
                    want = AlgElement.x(ctx, i)
                elif i == k:
                    want = -AlgElement.x(ctx, j)
                rep.record(f"M{i}{j} |> xhat{k}",
                           lorentz_action(r, r.xhat[k], i, j) - want)
    # pure one-form monomials are invariant
    xi_monos = [(0,), (1,), (0, 1)]
    if n > 2:
        xi_monos.append((1, 2))
    for mono in xi_monos:
        g = AlgElement.one(ctx)
        for mu in mono:
            g = g * c.xi[mu]
        for i in range(1, n):
            rep.record(f"M{i}0 |> xi{list(mono)} = 0",
                       lorentz_action(r, g, i, 0))
            for j in range(i + 1, n):
                rep.record(f"M{i}{j} |> xi{list(mono)} = 0",
                           lorentz_action(r, g, i, j))
    return rep


def check_adjoint_agreement(hopf, monos=None) -> SuiteReport:
    """ad(M)(f) |> 1 = M |> f = (M f) |> 1, and the Z-conjugation shift on
    monomials.  Each residual sum c g_(1) |> (f |> S(w)) - (M f) |> 1 is one
    act_sum pass over the generator's cached legs (c g_(1), w), and
    f |> S(w) is formed once per f and right word w, shared by every
    generator.  `hopf` is the request's HopfStructure; the coordinates and
    Lorentz generators are those of `hopf.r`."""
    r = hopf.r
    rep = SuiteReport("adjoint")
    ctx = r.ctx
    monos = monos if monos is not None else _coordinate_monomials(ctx, 3)
    pairs = [(i, 0) for i in range(1, ctx.dim)]
    pairs += [(i, j) for i in range(1, ctx.dim) for j in range(i + 1, ctx.dim)]
    legs = {(i, j): hopf.adjoint_legs(f"M{i}{j}") for i, j in pairs}
    words = dict.fromkeys(w for got in legs.values() for _, w in got)
    for indices in monos:
        f = xhat_monomial(r, indices)
        f_s = {w: act_on(f, hopf.realized_antipode(w)) for w in words}
        for (i, j), got in legs.items():
            rep.record(f"ad(M{i}{j}) on x{list(indices)}", act_sum(
                [(1, left, f_s[w]) for left, w in got]
                + [(-1, r.M[i][j], f)]))
        shifted = AlgElement.one(ctx)
        for mu in indices:
            step = r.xhat[mu] + AlgElement.from_series(
                ctx, r.a_component(mu).scale(I))
            shifted = shifted * step
        rep.record(f"Z-shift on x{list(indices)}",
                   r.Z * f * r.Zinv - shifted)
    return rep


# -- module property and realization independence -----------------------------


def abstract_coords(r: RealizationSet, elem: AlgElement, max_degree: int):
    """Express a vacuum-projected, one-form-free element as a polynomial in
    the ordered coordinate monomials xhat_mu1 ... xhat_muk |> 1.

    Returns {index-tuple: TruncSeries}; works by elimination from the top
    x-degree down, using that each projected monomial leads with the plain
    commutative x-monomial."""
    ctx = r.ctx
    if not elem.is_derivative_free():
        raise CalculusError("abstract coordinates need a projected element")
    residual = elem
    out = {}
    for k in range(max_degree, -1, -1):
        for key in sorted(residual.terms):
            x, dx, d = key
            if dx or sum(x) != k:
                continue
            indices = tuple(mu for mu in range(ctx.dim) for _ in range(x[mu]))
            coeff = residual.terms[key]
            # xhat_mu1 ... xhat_muk |> 1, projected from the right
            basis = AlgElement.one(ctx)
            for mu in reversed(indices):
                basis = act_on(r.xhat[mu], basis)
            out[indices] = coeff
            residual = residual - basis.scale(coeff)
    if not residual.is_zero():
        raise CalculusError("element is not a polynomial of degree "
                            f"<= {max_degree} in the coordinates")
    return out


def check_module_property(c: CalculusSet, max_degree: int = 3,
                          other: RealizationSet | None = None) -> SuiteReport:
    """M |> (f(xhat) g(xi)) = (M |> f) g(xi), with M |> h = (M h) |> 1,
    plus, given a second basis `other`, realization independence of the
    coordinate action across c.r and `other`."""
    rep = SuiteReport("module-property")
    r = c.r
    ctx = r.ctx
    n = ctx.dim
    pairs = [(i, 0) for i in range(1, n)]
    pairs += [(i, j) for i in range(1, n) for j in range(i + 1, n)]
    f_monos = _coordinate_monomials(ctx, max_degree)
    g_monos = [(), (0,), (1,), (0, 1)]
    gs = {}
    for gm in g_monos:
        g = AlgElement.one(ctx)
        for mu in gm:
            g = g * c.xi[mu]
        gs[gm] = g
    # M |> f once per (f, pair), shared with the independence check
    acts = {}
    for indices in f_monos:
        f = xhat_monomial(r, indices)
        for pair in pairs:
            acts[indices, pair] = lorentz_action(r, f, *pair)
        for gm, g in gs.items():
            fg = f * g
            for (mu, nu) in pairs:
                M = r.M[mu][nu]
                rep.record(f"M{mu}{nu} |> x{list(indices)}*xi{list(gm)}",
                           act_sum([(1, M, fg),
                                    (-1, acts[indices, (mu, nu)], g)]))
    if other is not None:
        for indices in f_monos:
            f = xhat_monomial(other, indices)
            for (mu, nu) in pairs:
                here = abstract_coords(r, acts[indices, (mu, nu)], max_degree)
                there = abstract_coords(
                    other, lorentz_action(other, f, mu, nu), max_degree)
                same = ({k: v for k, v in here.items() if not v.is_zero()}
                        == {k: v for k, v in there.items()
                            if not v.is_zero()})
                rep.record(
                    f"realization-independent M{mu}{nu} |> x{list(indices)}",
                    same)
    return rep


def run_calculus_suites(c: CalculusSet) -> list:
    """The full per-(basis, s) verification battery, led by the comparison
    of the xi with their closed forms.  A structural failure in a check
    (e.g. one-forms that are no longer pure under fault injection) is
    reported as a failed identity rather than raised."""
    xi_rep = SuiteReport("xi-closed-forms")
    for mu, want in enumerate(expected_xi(c)):
        xi_rep.record(f"xi{mu} closed form", c.xi[mu] - want)
    out = [xi_rep]
    steps = (
        ("d-properties", lambda: check_d_properties(c, max_degree=2)),
        ("closure", lambda: check_closure_and_K(c)),
        ("compatibility", lambda: check_compatibility(c)),
        ("K-decomposition", lambda: decompose_K(c)),
        ("M-xi", lambda: commutators_M_xi(c)),
    )
    for label, fn in steps:
        try:
            out.append(fn())
        except CalculusError as exc:
            rep = SuiteReport(label)
            rep.checks.append(Check(label, False, str(exc)))
            out.append(rep)
    return out
