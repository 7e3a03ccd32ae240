import dataclasses
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from helpers import replace
from kappacalc import calculus
from kappacalc.algebra import (AlgElement, Context, TensorElement, act_on,
                               anticommutator, commutator, tensor_commutator)
from kappacalc.calculus import (CalculusError, S_VALUES,
                                abstract_coords, build_calculus,
                                check_action_table, check_adjoint_agreement,
                                check_closure_and_K, check_compatibility,
                                check_d_properties, check_module_property,
                                commutators_M_xi, compatibility_report,
                                decompose_K, expected_xi, extract_K,
                                inadmissible_one_forms, lorentz_action,
                                run_calculus_suites, xhat_monomial)
from kappacalc.dsl import eval_dsl
from kappacalc.hopf import HopfStructure, adjoint_action
from kappacalc.realizations import (CATALOG, GUARD, NoncovParams,
                                    build_basis, build_natural, build_noncov,
                                    named_basis_params)
from kappacalc.scalars import GaussScalar
from kappacalc.series import TruncSeries

N = 3
CTX = Context(2, N, (1, 0))


def _calculus(name="bicrossproduct", s=1, ctx=CTX, **kw):
    r = build_basis(ctx, name)
    return r, build_calculus(r, s, **kw)


def _assert_report(rep):
    bad = [c.name for c in rep.checks if not c.passed]
    assert not bad, f"{rep.suite}: {bad}"


def test_calc_params_values():
    r = build_basis(Context(2, 4, (1, 0)), "bicrossproduct")  # BigPsi = A
    c = build_calculus(r, 1)
    # K1 = (1 - e^{-A})/A = 1 - A/2 + A^2/6 - ...
    assert c.K1[0] == GaussScalar(1)
    assert c.K1[1] == GaussScalar(Fraction(-1, 2))
    assert c.K1[2] == GaussScalar(Fraction(1, 6))
    # K2 = e^{-A}
    assert c.K2[1] == GaussScalar(-1)
    c0 = build_calculus(r, 0)
    # s = 0: K1 = BigPsi/A = 1
    assert (c0.K1 - TruncSeries.one(c0.K1.order)).is_zero()
    c2 = build_calculus(r, 2)
    assert c2.K1[1] == GaussScalar(-1)
    # a realization assembled by hand may carry params below order N + 1
    low = replace(r, params=named_basis_params("bicrossproduct", 4))
    with pytest.raises(CalculusError, match="params order too low"):
        build_calculus(low, 1)


def test_closed_forms_checked_on_build():
    r, c = _calculus("left", s=Fraction(1, 2))
    for mu, (got, want) in enumerate(zip(c.xi, expected_xi(c))):
        assert (got - want).is_zero(), mu


def test_build_requires_noncov():
    nat = build_natural(CTX)
    with pytest.raises(CalculusError):
        build_calculus(nat, 1)


@pytest.mark.parametrize("s", S_VALUES)
def test_d_properties_and_closure(s):
    r, c = _calculus("weyl-symmetric", s=s)
    _assert_report(check_d_properties(c, max_degree=2))
    _assert_report(check_closure_and_K(c))
    _assert_report(check_compatibility(c))


def test_closure_constants():
    r, c = _calculus("left-covariant", s=2)
    K, rep = extract_K(c)
    _assert_report(rep)
    assert K[0][0][0] == -2       # K^0_00 = -s * a0
    assert K[1][0][1] == -1       # K^1_10 = -a0
    assert K[0][1][1] == 0
    assert K[1][1][0] == 0


def test_K_decomposition():
    for name, s in (("bicrossproduct", 1), ("right-covariant", Fraction(1, 2))):
        r, c = _calculus(name, s=s)
        _assert_report(decompose_K(c))


def test_M_xi_commutators():
    ctx = Context(3, 2, (1, 0, 0))
    r, c = _calculus("bicrossproduct", s=1, ctx=ctx)
    _assert_report(commutators_M_xi(c))


def test_action_table():
    ctx = Context(3, 2, (1, 0, 0))
    r, c = _calculus("left", s=1, ctx=ctx)
    _assert_report(check_action_table(c))


def test_lorentz_generators_annihilate_the_vacuum():
    # lorentz_action and the adjoint and module residuals form M |> f as
    # (M f) |> 1 and leave out (f M) |> 1 = f (M |> 1), which needs this
    ctx = Context(3, N, (1, 0, 0))
    dsl_pair = NoncovParams.build(eval_dsl("exp(A/2)", N + GUARD),
                                  eval_dsl("1+A/3+A^2", N + GUARD))
    realizations = [build_basis(ctx, name) for name in CATALOG] + [
        build_noncov(ctx, dsl_pair), build_natural(Context(3, N, (1, 1, 0)))]
    for r in realizations:
        one = AlgElement.one(r.ctx)
        for mu in range(1, 3):
            for nu in range(mu):
                assert act_on(r.M[mu][nu], one).is_zero(), (mu, nu)
                assert act_on(r.M[nu][mu], one).is_zero(), (nu, mu)


def test_adjoint_agreement():
    r = build_basis(CTX, "bicrossproduct")
    monos = [(0,), (1,), (0, 1), (1, 1)]
    _assert_report(check_adjoint_agreement(HopfStructure(r), monos))


@pytest.mark.parametrize("basis", ["left", "weyl-symmetric", "bicrossproduct"])
def test_adjoint_check_maps_each_generator_and_word_once(basis, monkeypatch):
    # one coproduct per Lorentz generator and one realized S(w) per distinct
    # right word w, however many monomials f are checked
    calls = {"delta": 0, "realize": 0}
    for attr in calls:
        original = getattr(HopfStructure, attr)

        def counted(self, *args, attr=attr, original=original, **kw):
            calls[attr] += 1
            return original(self, *args, **kw)
        monkeypatch.setattr(HopfStructure, attr, counted)
    r = build_basis(Context(3, N, (1, 0, 0)), basis)
    rep = check_adjoint_agreement(HopfStructure(r))
    _assert_report(rep)
    assert len(rep.checks) == 76
    # M10, M20, M12; right words (), M10, M20, M12
    assert calls == {"delta": 3, "realize": 4}


def test_abstract_coords_round_trip():
    r = build_basis(CTX, "left")
    elem = (xhat_monomial(r, (0, 1)).scale(2)
            + xhat_monomial(r, (1,)).scale(TruncSeries.monomial(1, 1, N))) \
        .vacuum_project()
    coords = abstract_coords(r, elem, 2)
    nonzero = {k: v for k, v in coords.items() if not v.is_zero()}
    assert set(nonzero) == {(0, 1), (1,)}
    assert nonzero[(0, 1)][0] == GaussScalar(2)
    with pytest.raises(CalculusError):
        abstract_coords(r, AlgElement.d(CTX, 0), 2)


def test_module_property_cross_basis():
    r, c = _calculus("bicrossproduct", s=1)
    other = build_basis(CTX, "left")
    _assert_report(check_module_property(c, 2, other))


def test_inadmissible_one_forms_fail_compatibility():
    r = build_basis(CTX, "bicrossproduct")
    rep = compatibility_report(r, inadmissible_one_forms(r), "inadmissible")
    assert not rep.passed


def test_fault_injection_breaks_d_squared():
    r = build_basis(CTX, "bicrossproduct")
    c = build_calculus(r, 1, fault=True)
    assert not (c.dhat * c.dhat).is_zero()
    reps = run_calculus_suites(c)
    assert not all(rep.passed for rep in reps)
    # structural breakage is reported, never raised
    for rep in reps:
        assert rep.checks


def test_run_calculus_suites_green():
    r, c = _calculus("right-covariant", s=1)
    reps = run_calculus_suites(c)
    for rep in reps:
        _assert_report(rep)


def test_calculus_run_extracts_K_once(monkeypatch):
    # the closure check and the K decomposition share one extraction, and
    # the closure check's appends leave the shared report alone
    calls = []

    def counted(c):
        calls.append(c)
        return extract_K(c)
    monkeypatch.setattr(calculus, "extract_K", counted)
    r, c = _calculus("left-covariant", s=2)
    reps = {rep.suite: rep for rep in run_calculus_suites(c)}
    assert calls == [c]
    n = r.ctx.dim
    assert len(reps["closure"].checks) == n ** 2 + n ** 3
    assert len(c.closure[1].checks) == n ** 2
    assert reps["K-decomposition"].passed
    assert check_closure_and_K(c).checks == reps["closure"].checks


def _unfused_commutator(a, b):
    return a * b - b * a


def test_fused_residuals_match_unfused_products():
    # Each commutator, action and residual is one signed kernel pass; here
    # against the products it fuses.  A realization is homogeneous in a0
    # (the a0 power of a term is fixed by its monomial), so every series has
    # one nonzero entry; the operands below are not: the faulty dhat and the
    # DSL pair's generators scaled by exp(a0) or mixed with generators of
    # another a0 grading, so their series have several.
    ctx = Context(3, N, (1, 0, 0))
    r = build_noncov(ctx, NoncovParams.build(
        eval_dsl("exp(A/2)", N + GUARD), eval_dsl("1+A/3+A^2", N + GUARD)))
    e = eval_dsl("exp(A)", N)
    c = build_calculus(r, 1, fault=True)
    c = dataclasses.replace(c, dhat=c.dhat.scale(e))
    legs = [r.xhat[0].scale(e) + r.M[1][0], r.xhat[1] + r.p[0].scale(e),
            r.M[2][1]]
    elems = [c.dhat, c.xi[0].scale(e)] + legs
    for a in elems[:-1]:
        assert any(len(s.nz) > 1 for s in a.terms.values())
    for a in elems:
        for b in elems:
            assert commutator(a, b) == a * b - b * a
            assert anticommutator(a, b) == a * b + b * a
    ta, tb = TensorElement.outer(legs[:2]), TensorElement.outer(legs[1:])
    assert tensor_commutator(ta, tb) == ta * tb - tb * ta
    rm = replace(r, M=tuple(tuple(m.scale(e) for m in row) for row in r.M))
    for f in elems:
        for mu, nu in ((1, 0), (2, 1)):
            M = rm.M[mu][nu]
            assert lorentz_action(rm, f, mu, nu) == \
                act_on(M, f) - act_on(f, M)
    # the Leibniz residual [dhat, fg] - (df)g - f(dg), check by check (an
    # inner derivation satisfies it, so every residual cancels)
    monos = [m for k in (1, 2)
             for m in combinations_with_replacement(range(ctx.dim), k)]
    want = {}
    for left in monos:
        f = xhat_monomial(r, left)
        for right in monos:
            g = xhat_monomial(r, right)
            resid = (_unfused_commutator(c.dhat, f * g)
                     - _unfused_commutator(c.dhat, f) * g
                     - f * _unfused_commutator(c.dhat, g))
            want[f"Leibniz on x{list(left)}*x{list(right)}"] = \
                None if resid.is_zero() else resid.render()
    got = {ch.name: ch.residual
           for ch in check_d_properties(c, max_degree=2).checks
           if ch.name.startswith("Leibniz")}
    assert got == want
    # and the left side of the compatibility residual
    xi = tuple(x.scale(e) for x in c.xi)
    got = {ch.name: ch.residual
           for ch in compatibility_report(r, xi, "fused").checks}
    for mu, nu in combinations_with_replacement(range(ctx.dim), 2):
        if mu == nu:
            continue
        lhs = (_unfused_commutator(xi[mu], r.xhat[nu])
               - _unfused_commutator(xi[nu], r.xhat[mu]))
        resid = lhs - (xi[nu].scale(r.a_component(mu))
                       - xi[mu].scale(r.a_component(nu))).scale(GaussScalar(0, 1))
        assert got[f"compat ({mu},{nu})"] == \
            (None if resid.is_zero() else resid.render())


def test_fused_adjoint_and_module_residuals_match_two_step():
    # The adjoint and module residuals are one act_sum pass each; here
    # against the two-step forms they replace, ad - M |> f and
    # M |> fg - (M |> f) g.  The residuals are made nonzero on purpose: the
    # realization's M gets a coordinate term, so it no longer realizes the
    # algebra its coproduct was derived for (a scalar factor such as exp(a0)
    # would cancel: every term of Delta M and S(M) is linear in M), and the
    # one-forms get coordinates added.
    ctx = Context(3, N, (1, 0, 0))
    r, c = _calculus("weyl-symmetric", ctx=ctx)
    e = eval_dsl("exp(A)", N)
    rm = replace(r, M=tuple(tuple(m + r.xhat[2] for m in row) for row in r.M))
    hopf = HopfStructure(rm)
    c = dataclasses.replace(c, r=rm, xi=(c.xi[0] + r.xhat[2],
                                         c.xi[1].scale(e) + r.xhat[0],
                                         c.xi[2]))
    pairs = [(1, 0), (2, 0), (1, 2)]

    def residuals(rep, prefix):
        return {ch.name: ch.residual for ch in rep.checks
                if ch.name.startswith(prefix)}

    monos = [(0,), (1,), (0, 2), (1, 1, 2)]
    want = {}
    for indices in monos:
        f = xhat_monomial(rm, indices)
        for mu, nu in pairs:
            ad = adjoint_action(f"M{mu}{nu}", f, hopf, project=True)
            resid = ad - lorentz_action(rm, f, mu, nu)
            want[f"ad(M{mu}{nu}) on x{list(indices)}"] = \
                None if resid.is_zero() else resid.render()
    got = residuals(check_adjoint_agreement(hopf, monos), "ad(")
    assert got == want
    assert sum(v is not None for v in got.values()) > len(got) // 2
    # module property over every (f, g) pair of the check
    want = {}
    for indices in [m for k in (1, 2)
                    for m in combinations_with_replacement(range(3), k)]:
        f = xhat_monomial(rm, indices)
        for gm in [(), (0,), (1,), (0, 1)]:
            g = AlgElement.one(ctx)
            for mu in gm:
                g = g * c.xi[mu]
            for mu, nu in pairs:
                resid = (lorentz_action(rm, f * g, mu, nu)
                         - act_on(lorentz_action(rm, f, mu, nu), g))
                want[f"M{mu}{nu} |> x{list(indices)}*xi{list(gm)}"] = \
                    None if resid.is_zero() else resid.render()
    got = residuals(check_module_property(c, 2), "M")
    assert got == want
    assert sum(v is not None for v in got.values()) > len(got) // 2
