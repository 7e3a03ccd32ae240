"""Realizations of the deformed spacetime generators and their verifiers.

Two frames are supported:

* the noncovariant two-function family (phi, psi) along the timelike axis,
  with the shift operator Z = exp(BigPsi(A)), A = -i a0 d0;
* the natural frame, where the coordinates are built from the frame
  generators X_mu = x_mu and D_mu = d_mu and the Poincare sector is
  undeformed.

Everything is exact: a verifier passes iff the residual element is
identically zero at the working truncation order.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (AlgebraError, AlgElement, Context, commutator,
                      lift_in_A, substitute_series)
from .dsl import eval_dsl
from .reports import SuiteReport
from .scalars import GaussScalar, I, MINUS_I
from .series import TruncSeries

# Extra series/element order used internally so that derivatives and the
# divisions by a0 still deliver full order at the end.
GUARD = 3


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


@dataclass(frozen=True)
class NoncovParams:
    """The pair (phi, psi) plus the derived data every builder needs."""

    phi: TruncSeries
    psi: TruncSeries
    gamma: TruncSeries
    big_psi: TruncSeries

    @classmethod
    def build(cls, phi: TruncSeries, psi: TruncSeries) -> "NoncovParams":
        if phi.order != psi.order:
            raise RealizationError("phi and psi must share an order")
        one = GaussScalar(1)
        if phi[0] != one or psi[0] != one:
            raise RealizationError("phi(0) and psi(0) must both equal 1")
        order = phi.order
        gamma = (phi.derivative() * phi.truncate(order - 1).recip()
                 * psi.truncate(order - 1)) + TruncSeries.one(order - 1)
        big_psi = psi.recip().integrate()
        return cls(phi, psi, gamma, big_psi)

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
    r, c = Fraction(r), Fraction(c)
    if r == 0:
        raise RealizationError("family parameter r must be nonzero")
    bindings = {"r": r, "q": (c - 1) / r}
    phi = eval_dsl("exp(q*log(1+r*A))", order, bindings)
    psi = eval_dsl("1+r*A", order, bindings)
    return NoncovParams.build(phi, psi)


# -- realization sets ---------------------------------------------------------


@dataclass(frozen=True)
class RealizationSet:
    ctx: Context
    frame: str  # "noncovariant" | "natural"
    xhat: tuple
    M: tuple  # M[mu][nu], antisymmetric
    p: tuple  # p_mu = -i d_mu
    Z: AlgElement
    Zinv: AlgElement
    D: tuple
    X: tuple
    box: AlgElement | None
    params: NoncovParams | None

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


def _natural_zinv(ctx: Context, D: list, w: int) -> AlgElement:
    """The natural-frame Z^-1 = -i a0 e.D + sqrt(1 - a0^2 (e.e) D.D)."""
    return (_e_dot(ctx, D).scale(TruncSeries.monomial(MINUS_I, 1, w))
            + _radical(ctx, D, -1, w))


def build_noncov(ctx: Context, params: NoncovParams) -> RealizationSet:
    """Assemble the noncovariant family along the timelike axis."""
    if not ctx.is_timelike_axis():
        raise RealizationError(
            "the noncovariant family requires direction e = (1, 0, ..., 0)")
    n, N = ctx.dim, ctx.order
    w = N + 2  # element working order
    if params.order < N + GUARD:
        raise RealizationError(
            f"params order {params.order} too low; need >= {N + GUARD}")

    phi, psi = params.phi, params.psi
    gamma, big_psi = params.gamma, params.big_psi
    exp_psi = big_psi.exp()
    exp_mpsi = (-big_psi).exp()

    def L(s: TruncSeries) -> AlgElement:
        return lift_in_A(ctx, s, w)

    x = [AlgElement.x(ctx, mu, w) for mu in range(n)]
    d = [AlgElement.d(ctx, mu, w) for mu in range(n)]
    dil = AlgElement.zero(ctx, w)  # sum_k x_k d_k (spatial dilation)
    for k in range(1, n):
        dil = dil + x[k] * d[k]
    it = TruncSeries.monomial(I, 1, w)  # the series i*a0

    xhat = [None] * n
    xhat[0] = x[0] * L(psi) + (dil * L(gamma)).scale(it)
    for i in range(1, n):
        xhat[i] = x[i] * L(phi)

    Z = L(exp_psi)
    Zinv = L(exp_mpsi)

    # deformed Laplacian: lap * e^{-BigPsi}/phi^2 + (4/a0^2) sinh^2(BigPsi/2)
    lap = AlgElement.zero(ctx, w)
    for i in range(1, n):
        lap = lap + d[i] * d[i]
    sinh2 = (exp_psi + exp_mpsi - TruncSeries.const(2, exp_psi.order)) \
        .scale(Fraction(1, 4))
    box = (lap * L(exp_mpsi * phi.recip().pow(2))
           + L(sinh2.scale(4)).divide_by_a0(2))

    # D_0 = (e^{-BigPsi} - 1)/(i a0) + (i a0 / 2) box
    D0 = (L(exp_mpsi - TruncSeries.one(exp_mpsi.order)).divide_by_a0(1)
          .scale(MINUS_I)
          + box.scale(TruncSeries.monomial(GaussScalar(0, Fraction(1, 2)), 1,
                                           box.order)))
    D = [D0] + [d[i] * L(exp_mpsi * phi.recip()) for i in range(1, n)]

    # X_mu via the geometric inverse of 1 + (a0^2/2) box
    half_t2 = TruncSeries.monomial(Fraction(1, 2), 2, box.order)
    inv_factor = substitute_series(_geom(box.order), box.scale(half_t2))
    X0 = xhat[0] * inv_factor
    X = [X0]
    for i in range(1, n):
        X.append(x[i] * L(phi * exp_psi)
                 + (xhat[0] * inv_factor * (d[i] * L(phi.recip()))).scale(it))

    # Lorentz generators
    M = [[AlgElement.zero(ctx, w) for _ in range(n)] for _ in range(n)]
    w_series = (L(TruncSeries.one(exp_psi.order) - exp_psi).divide_by_a0(1)
                .scale(MINUS_I)
                + (box * L(exp_psi)).scale(
                    TruncSeries.monomial(GaussScalar(0, Fraction(1, 2)), 1,
                                         box.order)))
    for i in range(1, n):
        Mi0 = x[i] * L(phi) * w_series - xhat[0] * (d[i] * L(phi.recip()))
        M[i][0] = Mi0
        M[0][i] = -Mi0
        for j in range(1, n):
            if i != j:
                M[i][j] = x[i] * d[j] - x[j] * d[i]

    p = [AlgElement.d(ctx, mu, w).scale(MINUS_I) for mu in range(n)]

    t = lambda e: e.truncate(N)
    return RealizationSet(
        ctx=ctx, frame="noncovariant",
        xhat=tuple(t(e) for e in xhat),
        M=tuple(tuple(t(e) for e in row) for row in M),
        p=tuple(t(e) for e in p),
        Z=t(Z), Zinv=t(Zinv),
        D=tuple(t(e) for e in D),
        X=tuple(t(e) for e in X),
        box=t(box),
        params=params,
    )


def _geom(order: int) -> TruncSeries:
    """1/(1+t) at the given order."""
    return (TruncSeries.one(order) + TruncSeries.t(order)).recip()


def build_natural(ctx: Context) -> RealizationSet:
    """The covariant frame: xhat_mu = X_mu Z^{-1} + i (aX) D_mu with the
    frame generators X_mu = x_mu, D_mu = d_mu and any rational direction."""
    n, N = ctx.dim, ctx.order
    w = N + 1
    X = [AlgElement.x(ctx, mu, w) for mu in range(n)]
    D = [AlgElement.d(ctx, mu, w) for mu in range(n)]

    Zinv = _natural_zinv(ctx, D, w)
    Z = substitute_series(_geom(w), Zinv - AlgElement.one(ctx, w))
    aX = _e_dot(ctx, X).scale(TruncSeries.monomial(1, 1, w))

    xhat = [X[mu] * Zinv + (aX * D[mu]).scale(I) for mu in range(n)]

    M = [[AlgElement.zero(ctx, w) for _ in range(n)] for _ in range(n)]
    for mu in range(n):
        for nu in range(n):
            if mu != nu:
                M[mu][nu] = X[mu] * D[nu] - X[nu] * D[mu]

    p = [D[mu].scale(MINUS_I) for mu in range(n)]

    t = lambda el: el.truncate(N)
    return RealizationSet(
        ctx=ctx, frame="natural",
        xhat=tuple(t(el) for el in xhat),
        M=tuple(tuple(t(el) for el in row) for row in M),
        p=tuple(t(el) for el in p),
        Z=t(Z), Zinv=t(Zinv),
        D=tuple(t(el) for el in D),
        X=tuple(t(el) for el in X),
        box=None,
        params=None,
    )


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
        dmu = AlgElement.d(ctx, mu, r.Z.order)
        rep.record(f"[Z,d{mu}]", commutator(r.Z, dmu))
    rep.record("Z*Zinv", r.Z * r.Zinv - AlgElement.one(ctx, r.Z.order))
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
    wave = -(AlgElement.d(r.ctx, 0, r.box.order).pow(2))
    for i in range(1, n):
        wave = wave + AlgElement.d(r.ctx, i, r.box.order).pow(2)
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
    ctx = r.ctx
    n = ctx.dim
    w = min(e.order for e in r.D)
    D = [e.truncate(w) for e in r.D]
    X = [e.truncate(w) for e in r.X]

    Zinv = _natural_zinv(ctx, D, w)
    aX = _e_dot(ctx, X).scale(TruncSeries.monomial(1, 1, w))

    rep.record("reconstructed Z^-1 matches the shift operator",
               Zinv - r.Zinv.truncate(w))
    for mu in range(n):
        nat = X[mu] * Zinv + (aX * D[mu]).scale(I)
        rep.record(f"xhat{mu} from the natural formula",
                   nat - r.xhat[mu].truncate(nat.order))
    for mu in range(n):
        for nu in range(mu + 1, n):
            nat = X[mu] * D[nu] - X[nu] * D[mu]
            rep.record(f"M{mu}{nu} from the natural formula",
                       nat - r.M[mu][nu].truncate(nat.order))
    return rep


def expected_H(r: RealizationSet) -> list:
    """Closed forms of the momentum-coordinate deformation matrix."""
    ctx = r.ctx
    n = ctx.dim
    w = min(e.order for e in r.xhat)
    if r.frame == "noncovariant":
        params = r.params
        phi = params.phi
        psi, gamma = params.psi, params.gamma
        H = [[AlgElement.zero(ctx, w) for _ in range(n)] for _ in range(n)]
        H[0][0] = lift_in_A(ctx, -psi, w)
        for i in range(1, n):
            # -a0 p_i gamma(A) = i a0 d_i gamma(A)
            H[i][0] = (AlgElement.d(ctx, i, w) * lift_in_A(ctx, gamma, w)) \
                .scale(TruncSeries.monomial(I, 1, w))
            H[i][i] = lift_in_A(ctx, phi, w)
        return H
    # natural frame: H = eta (aP + sqrt(1 + a^2 P^2)) - a_mu P_nu
    e = ctx.direction
    P = [el.truncate(w) for el in r.p]
    aP = _e_dot(ctx, P).scale(TruncSeries.monomial(1, 1, w))
    scalar_part = aP + _radical(ctx, P, 1, w)
    H = [[AlgElement.zero(ctx, w) for _ in range(n)] for _ in range(n)]
    for mu in range(n):
        for nu in range(n):
            out = P[nu].scale(TruncSeries.monomial(-e[mu], 1, w))
            if mu == nu:
                out = out + scalar_part.scale(_eta(mu, nu))
            H[mu][nu] = out
    return H


def expected_G(r: RealizationSet) -> list:
    """Closed forms of [M_mu_nu, p_lambda]; indexed G[mu][nu][lambda]."""
    ctx = r.ctx
    n = ctx.dim
    w = min(e.order for e in r.p)
    P = [el.truncate(w) for el in r.p]
    G = [[[AlgElement.zero(ctx, w) for _ in range(n)] for _ in range(n)]
         for _ in range(n)]
    if r.frame == "natural":
        for mu in range(n):
            for nu in range(n):
                for lam in range(n):
                    G[mu][nu][lam] = (P[mu].scale(_eta(nu, lam))
                                      - P[nu].scale(_eta(mu, lam)))
        return G
    params = r.params
    # gamma carries one less order than phi/psi; align everything
    wp = params.gamma.order
    phi, psi, gamma, big_psi = (params.phi.truncate(wp),
                                params.psi.truncate(wp),
                                params.gamma,
                                params.big_psi.truncate(wp))
    exp_psi = big_psi.exp()
    L = lambda s: lift_in_A(ctx, s, w + 1)
    box = r.box.truncate(w)
    # (1 - e^{BigPsi})/a0 needs one guard order
    shrink = L(TruncSeries.one(exp_psi.order) - exp_psi).divide_by_a0(1) \
        .truncate(w)
    half_t = TruncSeries.monomial(Fraction(1, 2), 1, w)
    for i in range(1, n):
        Gi00 = P[i] * lift_in_A(ctx, -(psi * phi.recip()), w)
        G[i][0][0] = Gi00
        G[0][i][0] = -Gi00
        for j in range(1, n):
            out = (P[i] * P[j] * lift_in_A(ctx, gamma * phi.recip(), w)) \
                .scale(TruncSeries.monomial(-1, 1, w))
            if i == j:
                out = out + lift_in_A(ctx, phi, w) * (
                    shrink - (box * lift_in_A(ctx, exp_psi, w)).scale(half_t))
            G[i][0][j] = out
            G[0][i][j] = -out
        for j in range(1, n):
            for k in range(1, n):
                out = AlgElement.zero(ctx, w)
                if j == k:
                    out = out + P[i]
                if i == k:
                    out = out - P[j]
                G[i][j][k] = out
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
            rep.record(f"H{mu}{nu}", H - H_exp[mu][nu].truncate(H.order))
            limit = H.classical_limit() - AlgElement.scalar(ctx, _eta(mu, nu),
                                                            H.order)
            rep.record(f"classical limit H{mu}{nu} = eta", limit)
    G_exp = expected_G(r)
    for mu in range(n):
        for nu in range(n):
            if mu == nu:
                continue
            for lam in range(n):
                G = commutator(r.M[mu][nu], r.p[lam])
                rep.record(f"G{mu}{nu}{lam}",
                           G - G_exp[mu][nu][lam].truncate(G.order))
                classical = (r.p[mu].scale(_eta(nu, lam))
                             - r.p[nu].scale(_eta(mu, lam))).truncate(G.order)
                rep.record(f"classical limit G{mu}{nu}{lam}",
                           G.classical_limit() - classical.classical_limit())
    return rep
