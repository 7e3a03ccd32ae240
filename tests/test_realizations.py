from fractions import Fraction

import pytest

from helpers import replace
from kappacalc import realizations
from kappacalc.algebra import AlgElement, Context, act_on, lift_in_A
from kappacalc.dsl import eval_dsl
from kappacalc.realizations import (CATALOG, GUARD, NoncovParams,
                                    RealizationError, _eta, build_basis,
                                    build_natural, build_noncov,
                                    crosscheck_frames, extract_H_G,
                                    family_params, named_basis_params,
                                    verify_box,
                                    verify_lorentz_and_mixed, verify_shift,
                                    verify_space)
from kappacalc.scalars import GaussScalar, MINUS_I
from kappacalc.series import TruncSeries

CTX = Context(2, 3, (1, 0))


def _assert_report(rep):
    bad = [c.name for c in rep.checks if not c.passed]
    assert not bad, f"{rep.suite}: {bad}"


def test_params_build_and_validation():
    p = named_basis_params("weyl-symmetric", 6)
    assert p.phi[0] == GaussScalar(1)
    assert p.phi[1] == GaussScalar(Fraction(-1, 2))
    assert p.big_psi[1] == GaussScalar(1)  # psi = 1 so BigPsi = A
    with pytest.raises(RealizationError):
        named_basis_params("nope", 6)
    with pytest.raises(RealizationError):
        NoncovParams.build(eval_dsl("1", 4), eval_dsl("1", 5))
    with pytest.raises(RealizationError):
        NoncovParams.build(eval_dsl("2", 4), eval_dsl("1", 4))


def test_gamma_values():
    # gamma = (phi'/phi) psi + 1
    p = named_basis_params("left", 6)  # phi = exp(-A): gamma = 0
    assert p.gamma.is_zero()
    p = named_basis_params("left-covariant", 6)  # phi = psi = 1 - A
    # gamma = (-1/(1-A))(1-A) + 1 = 0
    assert p.gamma.is_zero()
    p = family_params(Fraction(1, 2), 3, 6)  # constant gamma = c
    assert (p.gamma - TruncSeries.const(3, p.gamma.order)).is_zero()
    with pytest.raises(RealizationError):
        family_params(0, 1, 6)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_bases_satisfy_all_relations(name):
    r = build_basis(CTX, name)
    _assert_report(verify_space(r))
    _assert_report(verify_lorentz_and_mixed(r))
    _assert_report(verify_shift(r))
    _assert_report(verify_box(r))
    _assert_report(crosscheck_frames(r))
    _assert_report(extract_H_G(r))


def test_family_realization():
    params = family_params(1, 2, CTX.order + GUARD)
    r = build_noncov(CTX, params)
    _assert_report(verify_space(r))
    _assert_report(verify_lorentz_and_mixed(r))
    _assert_report(extract_H_G(r))


def test_dim3_basis():
    ctx = Context(3, 2, (1, 0, 0))
    r = build_basis(ctx, "bicrossproduct")
    _assert_report(verify_space(r))
    _assert_report(verify_lorentz_and_mixed(r))
    _assert_report(verify_shift(r))


def test_natural_frame_timelike():
    ctx = Context(3, 3, (1, 0, 0))
    r = build_natural(ctx)
    _assert_report(verify_space(r))
    _assert_report(verify_lorentz_and_mixed(r))
    _assert_report(verify_shift(r))
    _assert_report(extract_H_G(r))


def test_natural_frame_lightlike():
    # the natural frame works for any rational direction, even null ones
    ctx = Context(3, 3, (1, 1, 0))
    r = build_natural(ctx)
    _assert_report(verify_space(r))
    _assert_report(verify_lorentz_and_mixed(r))
    _assert_report(verify_shift(r))
    _assert_report(extract_H_G(r))


def test_noncov_requires_timelike_axis():
    ctx = Context(2, 3, (1, 1))
    with pytest.raises(RealizationError):
        build_noncov(ctx, named_basis_params("bicrossproduct", 3 + GUARD))
    with pytest.raises(RealizationError):
        build_noncov(CTX, named_basis_params("bicrossproduct", CTX.order))


def test_noncov_builds_one_order_above_N():
    # psi != 1, so BigPsi is not A and every term divided by a0 is exercised
    from kappacalc.calculus import build_calculus, expected_xi
    from kappacalc.hopf import HopfStructure, check_morphism_compat
    N = 3
    ctx = Context(3, N, (1, 0, 0))

    def params(order):
        return NoncovParams.build(eval_dsl("exp(A/2)", order),
                                  eval_dsl("1+A/3+A^2", order))

    r = build_noncov(ctx, params(N + 1))
    for rep in (verify_box(r), crosscheck_frames(r), extract_H_G(r),
                check_morphism_compat(HopfStructure(r))):
        _assert_report(rep)
    c = build_calculus(r, 1)
    for mu, (got, want) in enumerate(zip(c.xi, expected_xi(c))):
        assert (got - want).is_zero(), mu
    with pytest.raises(RealizationError):
        build_noncov(ctx, params(N))


def test_frame_checks_guard_against_wrong_frame():
    r = build_natural(Context(2, 2, (1, 0)))
    with pytest.raises(RealizationError):
        verify_box(r)
    with pytest.raises(RealizationError):
        crosscheck_frames(r)


def test_bicrossproduct_closed_form():
    # phi = psi = 1: xhat_0 = x0 + i a0 sum x_k d_k, xhat_i = x_i
    r = build_basis(CTX, "bicrossproduct")
    ctx = CTX
    w = r.xhat[0].order
    x0 = AlgElement.x(ctx, 0)
    x1 = AlgElement.x(ctx, 1)
    d1 = AlgElement.d(ctx, 1)
    want = x0 + (x1 * d1).scale(TruncSeries.monomial(GaussScalar(0, 1), 1, w))
    assert (r.xhat[0] - want).is_zero()
    assert (r.xhat[1] - x1).is_zero()


def test_expected_G_lifts_each_series_once(monkeypatch):
    # the lifted series do not depend on the indices, so at n=4 five lifts
    # serve every closed form G_mu_nu_lambda
    r = build_basis(Context(4, 2, (1, 0, 0, 0)), "weyl-symmetric")
    calls = []

    def counted(*args):
        calls.append(args)
        return lift_in_A(*args)
    monkeypatch.setattr(realizations, "lift_in_A", counted)
    realizations.expected_G(r)
    assert 0 < len(calls) <= 5


def test_classical_limits():
    r = build_basis(CTX, "left")
    for mu in range(2):
        assert (r.xhat[mu].classical_limit()
                - AlgElement.x(CTX, mu).classical_limit()).is_zero()
    assert (r.Z.classical_limit() - AlgElement.one(CTX)).is_zero()


def leibniz_probe(r, mu: int, nu: int, lam: int):
    """p_mu |> (xhat_nu xhat_lam) and its deviation from the undeformed
    Leibniz value -i (eta_mu_nu xhat_lam + eta_mu_lam xhat_nu) |> 1."""
    action = act_on(r.p[mu], r.xhat[nu] * r.xhat[lam])
    undeformed = (r.xhat[lam].scale(_eta(mu, nu))
                  + r.xhat[nu].scale(_eta(mu, lam))).scale(MINUS_I) \
        .vacuum_project()
    return action, action - undeformed


def test_leibniz_probe_deviation():
    r = build_basis(CTX, "bicrossproduct")
    # p_1 acting on xhat_0 xhat_1 deviates from the undeformed Leibniz value
    action, deviation = leibniz_probe(r, 1, 0, 1)
    assert not deviation.is_zero()
    assert deviation.min_a0_degree() >= 1
    # but the classical part of the action is the undeformed one
    assert (deviation.classical_limit()).is_zero()


def test_failure_is_reported_not_raised():
    # perturb xhat_0 by an order-a0 term: the space relations must then fail
    # with a rendered residual rather than an exception
    r = build_basis(CTX, "bicrossproduct")
    bad0 = r.xhat[0] + AlgElement.d(CTX, 1) \
        .scale(TruncSeries.monomial(1, 1, CTX.order))
    broken = replace(r, xhat=(bad0,) + r.xhat[1:])
    rep = verify_space(broken)
    assert not rep.passed
    assert any(c.residual for c in rep.checks if not c.passed)
