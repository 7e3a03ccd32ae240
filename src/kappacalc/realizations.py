"""Realizations of the deformed spacetime generators and their verifiers.

Two frames are supported:

* the noncovariant two-function family (phi, psi) along the timelike axis,
  with the shift operator Z = exp(BigPsi(A)), A = -i a0 d0;
* the natural frame, where the coordinates are built from the frame
  generators X_mu = x_mu and D_mu = d_mu and the Poincare sector is
  undeformed.

`NoncovParams` forms the (phi, psi) series once, and `g_terms` writes
G = [M, p] once, for the Lorentz suite and the Hopf morphism check.

Everything is exact: a verifier passes iff the residual element is
identically zero at the working truncation order.
"""
from __future__ import annotations

from fractions import Fraction

from .algebra import (AlgebraError, AlgElement, Context, commutator,
                      lift_in_A, substitute_series)
from .dsl import eval_dsl
from .records import FrozenRecord
from .reports import SuiteReport
from .scalars import GaussScalar, I, MINUS_I, _frac
from .series import TruncSeries

# The order of (phi, psi) above the working order N.  Every element is built
# at N; only one-variable series are divided by t, each once (K1, Delta p0,
# S(p0) and each f(A)/a0 written as (f/t)(A) p0), so one order suffices.
GUARD = 1


class RealizationError(AlgebraError):
    pass


# -- basis catalog ------------------------------------------------------------

CATALOG = {
    "bicrossproduct": ("1", "1"),
    "left": ("exp(-A)", "1"),
    "weyl-symmetric": ("A/(exp(A)-1)", "1"),
    "left-covariant": ("1-A", "1-A"),
    "right-covariant": ("1", "1+A"),
}


class NoncovParams(FrozenRecord):
    """The pair (phi, psi) plus the series every builder derives from it,
    each formed once at the pair's order: gamma, big_psi, e^{+-BigPsi}
    and 1/phi."""

    __slots__ = ("phi", "psi", "gamma", "big_psi", "exp_psi", "exp_mpsi",
                 "phi_inv")

    @classmethod
    def build(cls, phi: TruncSeries, psi: TruncSeries) -> "NoncovParams":
        if phi.order != psi.order:
            raise RealizationError("phi and psi must share an order")
        one = GaussScalar(1)
        if phi[0] != one or psi[0] != one:
            raise RealizationError("phi(0) and psi(0) must both equal 1")
        order = phi.order
        phi_inv = phi.recip()
        gamma = (phi.derivative() * phi_inv.truncate(order - 1)
                 * psi.truncate(order - 1)) + TruncSeries.one(order - 1)
        big_psi = psi.recip().integrate()
        return cls(phi, psi, gamma, big_psi, big_psi.exp(), (-big_psi).exp(),
                   phi_inv)

    @property
    def order(self) -> int:
        return self.phi.order


def named_basis_params(name: str, order: int) -> NoncovParams:
    """The (phi, psi) pair for one of the named bases."""
    if name not in CATALOG:
        raise RealizationError(
            f"unknown basis {name!r}; known: {', '.join(sorted(CATALOG))}")
    phi_src, psi_src = CATALOG[name]
    return NoncovParams.build(eval_dsl(phi_src, order), eval_dsl(psi_src, order))


def family_params(r, c, order: int) -> NoncovParams:
    """The two-parameter family psi = 1 + r*A with constant gamma = c,
    realized as phi = (1 + r*A)^((c-1)/r)."""
    r, c = _frac(r), _frac(c)
    if r == 0:
        raise RealizationError("family parameter r must be nonzero")
    bindings = {"r": r, "q": (c - 1) / r}
    phi = eval_dsl("exp(q*log(1+r*A))", order, bindings)
    psi = eval_dsl("1+r*A", order, bindings)
    return NoncovParams.build(phi, psi)


# -- realization sets ---------------------------------------------------------


class RealizationSet(FrozenRecord):
    """The realized generators in one frame ("noncovariant" or "natural"):
    xhat, M[mu][nu] (antisymmetric), p_mu = -i d_mu, Z, Zinv, D and X are
    elements or tuples of them; box and params are None where the frame has
    none."""

    __slots__ = ("ctx", "frame", "xhat", "M", "p", "Z", "Zinv", "D", "X",
                 "box", "params")

    def a_component(self, mu: int) -> TruncSeries:
        """a_mu = a0 * e_mu as a series in a0, at the working order."""
        return TruncSeries.monomial(self.ctx.direction[mu], 1, self.ctx.order)


def _minkowski_dot(ctx: Context, left: list, right: list) -> AlgElement:
    out = -(left[0] * right[0])
    for i in range(1, ctx.dim):
        out = out + left[i] * right[i]
    return out


def _e_dot(ctx: Context, V: list) -> AlgElement:
    """e.V = -e0 V0 + sum_i e_i V_i for the direction e of the deformation."""
    e = ctx.direction
    out = -(V[0].scale(e[0]))
    for i in range(1, ctx.dim):
        out = out + V[i].scale(e[i])
    return out


def _radical(ctx: Context, V: list, sign: int, w: int) -> AlgElement:
    """sqrt(1 + sign a0^2 (e.e) V.V) at order w: sign -1 for V = D and +1
    for V = P = -i D give the same radical."""
    e = ctx.direction
    ee = -e[0] * e[0] + sum(e[i] * e[i] for i in range(1, ctx.dim))
    sqrt1pt = (TruncSeries.one(w) + TruncSeries.t(w)).sqrt()
    return substitute_series(sqrt1pt, _minkowski_dot(ctx, V, V).scale(
        TruncSeries.monomial(sign * ee, 2, w)))


def _natural_frame(ctx: Context, X, D) -> tuple:
    """(Z^-1, xhat, M) of the natural-frame formulas on frame generators X
    and D at the context's order:

        Z^-1 = -i a0 e.D + sqrt(1 - a0^2 (e.e) D.D),
        xhat_mu = X_mu Z^-1 + i (aX) D_mu,
        M_mu_nu = X_mu D_nu - X_nu D_mu = -M_nu_mu."""
    n, w = ctx.dim, ctx.order
    Zinv = (_e_dot(ctx, D).scale(TruncSeries.monomial(MINUS_I, 1, w))
            + _radical(ctx, D, -1, w))
    aX = _e_dot(ctx, X).scale(TruncSeries.monomial(1, 1, w))
    xhat = tuple(X[mu] * Zinv + (aX * D[mu]).scale(I) for mu in range(n))
    M = [[AlgElement.zero(ctx) for _ in range(n)] for _ in range(n)]
    for mu in range(n):
        for nu in range(mu + 1, n):
            M[mu][nu] = X[mu] * D[nu] - X[nu] * D[mu]
            M[nu][mu] = -M[mu][nu]
    return Zinv, xhat, tuple(tuple(row) for row in M)


def build_noncov(ctx: Context, params: NoncovParams) -> RealizationSet:
    """Assemble the noncovariant family along the timelike axis at order N.
    Each f(A)/a0^k with f = O(t^k) is built as (f/t^k)(A) p0^k, since
    A = a0 p0, so no element is divided by a0."""
    if not ctx.is_timelike_axis():
        raise RealizationError(
            "the noncovariant family requires direction e = (1, 0, ..., 0)")
    n, N = ctx.dim, ctx.order
    if params.order < N + GUARD:
        raise RealizationError(
            f"params order {params.order} too low; need >= {N + GUARD}")

    exp_psi, exp_mpsi = params.exp_psi, params.exp_mpsi
    phi_inv = params.phi_inv
    one = TruncSeries.one(params.order)

    def L(s: TruncSeries) -> AlgElement:
        return lift_in_A(ctx, s)

    x = [AlgElement.x(ctx, mu) for mu in range(n)]
    d = [AlgElement.d(ctx, mu) for mu in range(n)]
    p = [e.scale(MINUS_I) for e in d]
    dil = AlgElement.zero(ctx)  # sum_k x_k d_k (spatial dilation)
    for k in range(1, n):
        dil = dil + x[k] * d[k]
    it = TruncSeries.monomial(I, 1, N)  # the series i*a0
    half_it = TruncSeries.monomial(GaussScalar(0, Fraction(1, 2)), 1, N)
    # the lifts and products the per-index loops share
    phi_of_A = L(params.phi)
    d_over_phi = [None] + [d[i] * L(phi_inv) for i in range(1, n)]

    xhat = [x[0] * L(params.psi) + (dil * L(params.gamma)).scale(it)]
    xhat += [x[i] * phi_of_A for i in range(1, n)]

    Z = L(exp_psi)
    Zinv = L(exp_mpsi)

    # deformed Laplacian: lap * e^{-BigPsi}/phi^2 + (4/a0^2) sinh^2(BigPsi/2),
    # the second term ((e^{BigPsi/2} - e^{-BigPsi/2})/t)^2(A) p0^2
    lap = AlgElement.zero(ctx)
    for i in range(1, n):
        lap = lap + d[i] * d[i]
    half_psi = params.big_psi.scale(Fraction(1, 2))
    sinh_t = (half_psi.exp() - (-half_psi).exp()).div_by_t()
    exp_mpsi_over_phi = exp_mpsi * phi_inv
    box = (lap * L(exp_mpsi_over_phi * phi_inv)
           + L(sinh_t * sinh_t) * p[0] * p[0])

    # D_0 = (e^{-BigPsi} - 1)/(i a0) + (i a0 / 2) box
    D0 = ((L((exp_mpsi - one).div_by_t()) * p[0]).scale(MINUS_I)
          + box.scale(half_it))
    k2 = L(exp_mpsi_over_phi)
    D = [D0] + [d[i] * k2 for i in range(1, n)]

    # X_mu via the geometric inverse of 1 + (a0^2/2) box
    half_t2 = TruncSeries.monomial(Fraction(1, 2), 2, N)
    inv_factor = substitute_series(_geom(N), box.scale(half_t2))
    X0 = xhat[0] * inv_factor
    phi_exp_psi = L(params.phi * exp_psi)
    X = [X0] + [x[i] * phi_exp_psi + (X0 * d_over_phi[i]).scale(it)
                for i in range(1, n)]

    # Lorentz generators
    M = [[AlgElement.zero(ctx) for _ in range(n)] for _ in range(n)]
    w_series = ((L((one - exp_psi).div_by_t()) * p[0]).scale(MINUS_I)
                + (box * Z).scale(half_it))
    phi_w = phi_of_A * w_series
    for i in range(1, n):
        Mi0 = x[i] * phi_w - xhat[0] * d_over_phi[i]
        M[i][0] = Mi0
        M[0][i] = -Mi0
        for j in range(1, n):
            if i != j:
                M[i][j] = x[i] * d[j] - x[j] * d[i]

    return RealizationSet(
        ctx=ctx, frame="noncovariant", xhat=tuple(xhat),
        M=tuple(tuple(row) for row in M), p=tuple(p), Z=Z, Zinv=Zinv,
        D=tuple(D), X=tuple(X), box=box, params=params)


def _geom(order: int) -> TruncSeries:
    """1/(1+t) at the given order."""
    return (TruncSeries.one(order) + TruncSeries.t(order)).recip()


def build_natural(ctx: Context) -> RealizationSet:
    """The covariant frame: xhat_mu = X_mu Z^{-1} + i (aX) D_mu with the
    frame generators X_mu = x_mu, D_mu = d_mu and any rational direction."""
    n = ctx.dim
    X = [AlgElement.x(ctx, mu) for mu in range(n)]
    D = [AlgElement.d(ctx, mu) for mu in range(n)]
    Zinv, xhat, M = _natural_frame(ctx, X, D)
    Z = substitute_series(_geom(ctx.order), Zinv - AlgElement.one(ctx))
    return RealizationSet(
        ctx=ctx, frame="natural", xhat=xhat, M=M,
        p=tuple(e.scale(MINUS_I) for e in D), Z=Z, Zinv=Zinv,
        D=tuple(D), X=tuple(X), box=None, params=None)


def build_basis(ctx: Context, name: str) -> RealizationSet:
    return build_noncov(ctx, named_basis_params(name, ctx.order + GUARD))


# -- verifiers ----------------------------------------------------------------


def verify_space(r: RealizationSet) -> SuiteReport:
    """[xhat_mu, xhat_nu] = i (a_mu xhat_nu - a_nu xhat_mu)."""
    rep = SuiteReport("space")
    n = r.ctx.dim
    for mu in range(n):
        for nu in range(mu + 1, n):
            lhs = commutator(r.xhat[mu], r.xhat[nu])
            rhs = (r.xhat[nu].scale(r.a_component(mu))
                   - r.xhat[mu].scale(r.a_component(nu))).scale(I)
            rep.record(f"[xhat{mu},xhat{nu}]", lhs - rhs)
    return rep


def _eta(mu: int, nu: int) -> int:
    if mu != nu:
        return 0
    return -1 if mu == 0 else 1


def verify_lorentz_and_mixed(r: RealizationSet) -> SuiteReport:
    rep = SuiteReport("lorentz")
    n = r.ctx.dim
    pairs = [(mu, nu) for mu in range(n) for nu in range(mu + 1, n)]
    for mu, nu in pairs:
        for lam, rho in pairs:
            if (lam, rho) < (mu, nu):
                continue
            lhs = commutator(r.M[mu][nu], r.M[lam][rho])
            rhs = (r.M[mu][rho].scale(_eta(nu, lam))
                   - r.M[nu][rho].scale(_eta(mu, lam))
                   - r.M[mu][lam].scale(_eta(nu, rho))
                   + r.M[nu][lam].scale(_eta(mu, rho)))
            rep.record(f"[M{mu}{nu},M{lam}{rho}]", lhs - rhs)
    for mu, nu in pairs:
        for lam in range(n):
            lhs = commutator(r.M[mu][nu], r.xhat[lam])
            rhs = (r.xhat[mu].scale(_eta(nu, lam))
                   - r.xhat[nu].scale(_eta(mu, lam))
                   - r.M[nu][lam].scale(r.a_component(mu)).scale(I)
                   + r.M[mu][lam].scale(r.a_component(nu)).scale(I))
            rep.record(f"[M{mu}{nu},xhat{lam}]", lhs - rhs)
    return rep


def verify_shift(r: RealizationSet) -> SuiteReport:
    rep = SuiteReport("shift")
    n = r.ctx.dim
    ctx = r.ctx
    for mu in range(n):
        lhs = commutator(r.Z, r.xhat[mu])
        rep.record(f"[Z,xhat{mu}]",
                   lhs - r.Z.scale(r.a_component(mu)).scale(I))
        dmu = AlgElement.d(ctx, mu)
        rep.record(f"[Z,d{mu}]", commutator(r.Z, dmu))
    rep.record("Z*Zinv", r.Z * r.Zinv - AlgElement.one(ctx))
    for k in (-2, -1, 1, 2):
        zk = r.Z.pow(k) if k > 0 else r.Zinv.pow(-k)
        zmk = r.Zinv.pow(k) if k > 0 else r.Z.pow(-k)
        for mu in range(n):
            conj = zk * r.xhat[mu] * zmk
            shift = AlgElement.from_series(
                ctx, r.a_component(mu).scale(GaussScalar(0, k)))
            rep.record(f"Z^{k} conjugation of xhat{mu}",
                       conj - r.xhat[mu] - shift)
    for mu in range(n):
        for nu in range(mu + 1, n):
            rep.record(f"xhat{mu}*Z*xhat{nu} symmetry",
                       r.xhat[mu] * r.Z * r.xhat[nu]
                       - r.xhat[nu] * r.Z * r.xhat[mu])
    return rep


def verify_box(r: RealizationSet) -> SuiteReport:
    rep = SuiteReport("box")
    if r.frame != "noncovariant" or r.box is None:
        raise RealizationError("the Laplacian check applies to the "
                               "noncovariant frame only")
    n = r.ctx.dim
    for mu in range(n):
        lhs = commutator(r.box, r.xhat[mu])
        rep.record(f"[box,xhat{mu}] = 2 D{mu}", lhs - r.D[mu].scale(2))
    wave = -(AlgElement.d(r.ctx, 0).pow(2))
    for i in range(1, n):
        wave = wave + AlgElement.d(r.ctx, i).pow(2)
    rep.record("classical limit of box is the wave operator",
               r.box.classical_limit() - wave)
    return rep


def crosscheck_frames(r: RealizationSet) -> SuiteReport:
    """Substitute X(x, d) and D(d) into the natural-frame formulas and compare
    with the noncovariant xhat and M."""
    rep = SuiteReport("frames")
    if r.frame != "noncovariant":
        raise RealizationError("frame cross-check starts from the "
                               "noncovariant realization")
    n = r.ctx.dim
    Zinv, xhat, M = _natural_frame(r.ctx, r.X, r.D)
    rep.record("reconstructed Z^-1 matches the shift operator",
               Zinv - r.Zinv)
    for mu in range(n):
        rep.record(f"xhat{mu} from the natural formula",
                   xhat[mu] - r.xhat[mu])
    for mu in range(n):
        for nu in range(mu + 1, n):
            rep.record(f"M{mu}{nu} from the natural formula",
                       M[mu][nu] - r.M[mu][nu])
    return rep


def expected_H(r: RealizationSet) -> list:
    """Closed forms of the momentum-coordinate deformation matrix."""
    ctx = r.ctx
    n, w = ctx.dim, ctx.order
    if r.frame == "noncovariant":
        params = r.params
        phi = params.phi
        psi, gamma = params.psi, params.gamma
        H = [[AlgElement.zero(ctx) for _ in range(n)] for _ in range(n)]
        H[0][0] = lift_in_A(ctx, -psi)
        for i in range(1, n):
            # -a0 p_i gamma(A) = i a0 d_i gamma(A)
            H[i][0] = (AlgElement.d(ctx, i) * lift_in_A(ctx, gamma)) \
                .scale(TruncSeries.monomial(I, 1, w))
            H[i][i] = lift_in_A(ctx, phi)
        return H
    # natural frame: H = eta (aP + sqrt(1 + a^2 P^2)) - a_mu P_nu
    e = ctx.direction
    P = r.p
    aP = _e_dot(ctx, P).scale(TruncSeries.monomial(1, 1, w))
    scalar_part = aP + _radical(ctx, P, 1, w)
    H = [[AlgElement.zero(ctx) for _ in range(n)] for _ in range(n)]
    for mu in range(n):
        for nu in range(n):
            out = P[nu].scale(TruncSeries.monomial(-e[mu], 1, w))
            if mu == nu:
                out = out + scalar_part.scale(_eta(mu, nu))
            H[mu][nu] = out
    return H


def g_terms(params: NoncovParams, n: int, N: int) -> dict:
    """The closed forms G_{i0lam} = [M_i0, p_lam] of the (phi, psi) basis at
    order N, for i = 1..n-1, as {(i, lam): [(c, f, ks), ...]}: each term is
    c f(A) p_k1 p_k2 ... with c a series in a0 and f one in A.  Each
    f(A)/a0, with f(0) = 0, is written (f/t)(A) p0 from f one order up, and
    the box enters through its series form

        a0^2 box = 4 sinh^2(BigPsi/2) - a0^2 sum_k p_k^2 e^{-BigPsi}/phi^2

    (p_k^2 = -d_k^2).  The Lorentz suite realizes these terms and the Hopf
    morphism check maps them to words."""
    up = N + 1
    phi_up, exp_psi_up, exp_mpsi_up = (
        s.truncate(up) for s in (params.phi, params.exp_psi, params.exp_mpsi))
    phi_inv = params.phi_inv.truncate(N)
    one = TruncSeries.one(N)
    minus_psi_over_phi = -(params.psi.truncate(N) * phi_inv)
    gamma_over_phi = params.gamma.truncate(N) * phi_inv
    # lam = i: phi (1 - e^{BigPsi})(A)/a0 + box_factor phi e^{BigPsi} (a0 box)
    box_factor = Fraction(-1, 2)
    sinh2x4 = exp_psi_up + exp_mpsi_up - TruncSeries.const(2, up)
    diagonal = [(one, (phi_up - phi_up * exp_psi_up).div_by_t(), (0,)),
                (one.scale(box_factor),
                 (phi_up * exp_psi_up * sinh2x4).div_by_t(), (0,))]
    # phi e^{BigPsi} e^{-BigPsi}/phi^2 = 1/phi
    diagonal += [(TruncSeries.monomial(-box_factor, 1, N), phi_inv, (k, k))
                 for k in range(1, n)]
    minus_a0 = TruncSeries.monomial(-1, 1, N)
    out = {}
    for i in range(1, n):
        out[i, 0] = [(one, minus_psi_over_phi, (i,))]
        for lam in range(1, n):
            out[i, lam] = (diagonal if lam == i else []) \
                + [(minus_a0, gamma_over_phi, (i, lam))]
    return out


def expected_G(r: RealizationSet) -> list:
    """Closed forms of [M_mu_nu, p_lambda]; indexed G[mu][nu][lambda].  The
    natural frame and the rotations keep the classical form
    p_mu eta_nu_lam - p_nu eta_mu_lam; the boosts of the (phi, psi) basis
    realize the terms of `g_terms`, with one lift per distinct series."""
    ctx = r.ctx
    n = ctx.dim
    P = r.p
    G = [[[P[mu].scale(_eta(nu, lam)) - P[nu].scale(_eta(mu, lam))
           for lam in range(n)] for nu in range(n)] for mu in range(n)]
    if r.frame == "natural":
        return G
    lifted = {}
    for (i, lam), terms in g_terms(r.params, n, ctx.order).items():
        Gi0 = AlgElement.zero(ctx)
        for c, f, ks in terms:
            if f not in lifted:
                lifted[f] = lift_in_A(ctx, f)
            term = lifted[f]
            for k in ks:
                term = P[k] * term
            Gi0 = Gi0 + term.scale(c)
        G[i][0][lam] = Gi0
        G[0][i][lam] = -Gi0
    return G


def extract_H_G(r: RealizationSet) -> SuiteReport:
    """Read H from [p_mu, xhat_nu] = -i H_mu_nu(p) and G from
    [M_mu_nu, p_lambda] = G_mu_nu_lambda(p), then compare with the closed
    forms and the classical-limit conditions."""
    rep = SuiteReport("deformation-functions")
    ctx = r.ctx
    n = ctx.dim
    H_exp = expected_H(r)
    for mu in range(n):
        for nu in range(n):
            H = commutator(r.p[mu], r.xhat[nu]).scale(I)
            rep.record(f"H{mu}{nu}", H - H_exp[mu][nu])
            limit = H.classical_limit() - AlgElement.scalar(ctx, _eta(mu, nu))
            rep.record(f"classical limit H{mu}{nu} = eta", limit)
    G_exp = expected_G(r)
    for mu in range(n):
        for nu in range(n):
            if mu == nu:
                continue
            for lam in range(n):
                G = commutator(r.M[mu][nu], r.p[lam])
                rep.record(f"G{mu}{nu}{lam}", G - G_exp[mu][nu][lam])
                classical = (r.p[mu].scale(_eta(nu, lam))
                             - r.p[nu].scale(_eta(mu, lam)))
                rep.record(f"classical limit G{mu}{nu}{lam}",
                           G.classical_limit() - classical.classical_limit())
    return rep
