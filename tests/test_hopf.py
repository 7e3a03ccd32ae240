import collections
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from helpers import replace
from kappacalc.algebra import (AlgElement, Context, TensorElement, act_on,
                               commutator, lift_in_A)
from kappacalc.cli import RunConfig, run_suites
from kappacalc.hopf import (AFun, Boost, HopfError, HopfStructure, Mom, Rot,
                            SymTensor, _generator_names, adjoint_action,
                            antipode, canonical_word,
                            check_classical_primitivity, check_group_like,
                            check_hopf_axioms, check_morphism_compat, counit,
                            coproduct, join_words, realize_generator,
                            special_case_table, word_degree)
from kappacalc.dsl import eval_dsl
from kappacalc.realizations import (CATALOG, GUARD, NoncovParams, build_basis,
                                    build_natural, build_noncov,
                                    expected_G, family_params, g_terms,
                                    named_basis_params)
from kappacalc.scalars import GaussScalar, I, ZERO
from kappacalc.series import TruncSeries

N = 3
CTX = Context(2, N, (1, 0))


def _hopf(name, ctx=CTX):
    r = build_basis(ctx, name)
    return r, HopfStructure(r)


def _assert_report(rep):
    bad = [c.name for c in rep.checks if not c.passed]
    assert not bad, f"{rep.suite}: {bad}"


def test_requires_noncov_frame():
    nat = build_natural(Context(2, 3, (1, 0)))
    with pytest.raises(HopfError):
        HopfStructure(nat)


def test_generator_names_and_errors():
    _, hopf = _hopf("bicrossproduct")
    for name in ("p0", "p1", "M10", "Z", "Zinv"):
        hopf.generator(name)
    with pytest.raises(HopfError):
        hopf.generator("p7")
    with pytest.raises(HopfError):
        hopf.generator("M00")
    for bad in ("M", "p", "Mab", "M1", "M123", "p+1", "p01", "p 1", "Z0"):
        with pytest.raises(HopfError):
            hopf.generator(bad)
    with pytest.raises(HopfError):
        coproduct("bogus", hopf)


def test_boosts_named_in_either_index_order():
    # M_0i = -M_i0, as M_ji = -M_ij for the rotations
    r, hopf = _hopf("left", Context(3, N, (1, 0, 0)))
    for i in (1, 2):
        assert realize_generator(f"M0{i}", hopf) == r.M[0][i]
        assert coproduct(f"M0{i}", hopf) == -coproduct(f"M{i}0", hopf)
        assert antipode(f"M0{i}", hopf) == -antipode(f"M{i}0", hopf)
    with pytest.raises(HopfError, match="M indices must differ"):
        hopf.generator("M00")


def test_counit_values():
    # every generator but Z and Zinv is killed by the counit; Z = e^BigPsi
    # and Zinv have the value 1 at A = 0
    ctx = Context(3, N, (1, 0, 0))
    names = _generator_names(ctx) + ["Zinv"]
    assert {"p0", "p2", "M20", "M12"} < set(names)
    for basis in sorted(CATALOG):
        _, hopf = _hopf(basis, ctx)
        for name in names:
            want = GaussScalar(1) if name in ("Z", "Zinv") else ZERO
            assert counit(name, hopf) == want, (basis, name)


@pytest.mark.parametrize("dim", range(2, 11))
def test_generator_names_round_trip(dim):
    # each name parses back to its own atom: no name fails and no two
    # names share an atom
    ctx = Context(dim, 1, (1,) + (0,) * (dim - 1))
    r, hopf = _hopf("bicrossproduct", ctx)
    atoms = []
    for name in _generator_names(ctx):
        ((key, c),) = hopf.generator(name).terms.items()
        assert c == TruncSeries.one(1), name
        ((atom,),) = key
        atoms.append(atom)
    spatial = range(1, dim)
    want = {AFun(hopf.exp_psi), *map(Mom, range(dim)), *map(Boost, spatial),
            *(Rot(i, j) for i in spatial for j in spatial if i < j)}
    assert len(atoms) == len(want) and set(atoms) == want


def test_atoms_are_immutable_values():
    # atoms key every word-level dict and cache: each refuses assignment,
    # compares its class and fields, and hashes as the tuple of its fields
    atoms = [AFun(TruncSeries.t(2)), Mom(1), Rot(1, 2), Boost(1)]
    for atom in atoms:
        field = type(atom).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(atom, field, 2)
        with pytest.raises(AttributeError):
            delattr(atom, field)
        twin = type(atom)(*(getattr(atom, name)
                            for name in type(atom).__slots__))
        assert twin is not atom and twin == atom
        assert hash(twin) == hash(atom) == hash(tuple(
            getattr(atom, name) for name in type(atom).__slots__))
    assert Mom(1) != Boost(1) and Boost(1) != Mom(1)
    assert Mom(1) != Mom(2) and Rot(1, 2) != Rot(1, 3)
    assert AFun(TruncSeries.t(2)) != AFun(TruncSeries.t(3))
    assert len({Mom(1), Boost(1), Mom(1), Rot(1, 2), Rot(1, 2)}) == 3


@pytest.mark.parametrize("name", ["bicrossproduct", "left-covariant"])
def test_hopf_axioms_all_generators(name):
    _, hopf = _hopf(name)
    for gen in ("p0", "p1", "M10", "Z"):
        _assert_report(check_hopf_axioms(gen, hopf))


def test_group_like_and_primitivity():
    _, hopf = _hopf("left")
    _assert_report(check_group_like(hopf))
    _assert_report(check_classical_primitivity(hopf))


def test_morphism_compat():
    _, hopf = _hopf("right-covariant")
    _assert_report(check_morphism_compat(hopf))


def test_morphism_compat_reaches_the_top_order():
    # a boost perturbed by a0^N x1 d0 changes [M10, p1] first at a0^N, the
    # top order the Hopf structure checks
    r, _ = _hopf("left", Context(3, N, (1, 0, 0)))
    bump = (AlgElement.x(r.ctx, 1) * AlgElement.d(r.ctx, 0)).scale(
        TruncSeries.monomial(1, N, r.ctx.order))
    M = [list(row) for row in r.M]
    M[1][0] = M[1][0] + bump
    M[0][1] = -M[1][0]
    bad = replace(r, M=tuple(map(tuple, M)))
    rep = check_morphism_compat(HopfStructure(bad))
    assert [c.name for c in rep.checks if not c.passed] == [
        "Delta[M10, p1]", "S[M10, p1]"]


# the catalog bases cover psi = 1 (left, weyl-symmetric) and psi != 1
# (right-covariant); the DSL pair has psi != 1 beside a transcendental phi
G_TERM_PAIRS = [*(CATALOG[b] for b in ("left", "weyl-symmetric",
                                       "right-covariant")),
                ("exp(A/2)", "1+A/3")]


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("phi_src,psi_src", G_TERM_PAIRS)
def test_g_terms_as_hopf_words_match_expected_G(phi_src, psi_src, order):
    # the one closed form of G, read by the Lorentz suite through
    # expected_G and by the morphism check as words, agrees term by term
    params = NoncovParams.build(eval_dsl(phi_src, order + GUARD),
                                eval_dsl(psi_src, order + GUARD))
    big_psi = params.big_psi
    assert params.exp_psi == big_psi.exp()
    assert params.exp_mpsi == (-big_psi).exp()
    assert params.phi_inv == params.phi.recip()
    ctx = Context(3, order, (1, 0, 0))
    r = build_noncov(ctx, params)
    hopf = HopfStructure(r)
    want = expected_G(r)
    got = g_terms(params, ctx.dim, order)
    assert sorted(got) == [(i, lam) for i in (1, 2) for lam in range(3)]
    for (i, lam), terms in got.items():
        sym = hopf.sym([(c, ((AFun(f), *map(Mom, ks)),))
                        for c, f, ks in terms])
        assert hopf.realize(sym) == want[i][0][lam], (i, lam)


@pytest.mark.parametrize("basis", ["left", "weyl-symmetric", "bicrossproduct",
                                   "right-covariant"])
def test_boost_coproduct_leg_swap_is_caught(basis, monkeypatch):
    # the projected adjoint agreement misses a swap of the legs of
    # Delta M_i0; the morphism check and the axioms must see it
    original = HopfStructure._delta_atom

    def swapped(self, atom):
        got = original(self, atom)
        if not isinstance(atom, Boost):
            return got
        return SymTensor(got.ctx, 2, {(b, a): c for (a, b), c
                                      in got.terms.items()})
    monkeypatch.setattr(HopfStructure, "_delta_atom", swapped)
    _, hopf = _hopf(basis, Context(3, 3, (1, 0, 0)))
    failing = [c.name for c in check_morphism_compat(hopf).checks
               if not c.passed]
    assert len(failing) == 6, failing
    for name in ("M10", "M20"):
        rep = check_hopf_axioms(name, hopf)
        assert sum(not c.passed for c in rep.checks) == 3, name


def test_rotation_sector_dim3():
    ctx = Context(3, 2, (1, 0, 0))
    _, hopf = _hopf("bicrossproduct", ctx)
    for gen in ("M12", "M20"):
        _assert_report(check_hopf_axioms(gen, hopf))


def test_special_case_table_bicrossproduct():
    _, hopf = _hopf("bicrossproduct")
    _assert_report(special_case_table(hopf))


def test_special_case_table_fails_off_special_point():
    # the collapsed table is specific to phi = psi = 1
    _, hopf = _hopf("left")
    rep = special_case_table(hopf)
    assert not rep.passed


def test_coproduct_realizes_commutation():
    # Delta is an algebra map: Delta[p1, xhat-free p0] trivially commutes
    _, hopf = _hopf("bicrossproduct")
    dp0 = coproduct("p0", hopf)
    dp1 = coproduct("p1", hopf)
    assert (dp0 * dp1 - dp1 * dp0).is_zero()


def test_antipode_squared_on_momenta():
    # S^2(p_i) = Z^-1 p_i Z realized: for the momentum sector S^2 = id here
    # since p_i commutes with Z
    r, hopf = _hopf("weyl-symmetric")
    sym = hopf.generator("p1")
    s2 = hopf.realize(hopf.antipode(hopf.antipode(sym)))
    assert s2 == hopf.realize(sym)


def test_adjoint_action_classical_limit():
    r, hopf = _hopf("bicrossproduct")
    x1 = AlgElement.x(hopf.ctx, 1)
    ad = adjoint_action("M10", x1, hopf)
    cls = commutator(r.M[1][0], x1).classical_limit()
    assert (ad.classical_limit() - cls).is_zero()
    # ad(p0)(1) = eps(p0) 1 = 0
    assert adjoint_action("p0", AlgElement.one(hopf.ctx), hopf).is_zero()


def test_realize_and_adjoint_match_per_term_fold():
    # the sums over symbolic terms, folded term by term with scale and +:
    # the one-leg generator, its two-leg coproduct and both three-leg
    # coproducts of that, on realizations at the order N and at N - 1
    ctx, low = Context(3, 3, (1, 0, 0)), Context(3, 2, (1, 0, 0))
    for basis in ("weyl-symmetric", "left"):
        for _, hopf in (_hopf(basis, ctx), _hopf(basis, low)):
            for name in ("p1", "M10"):
                sym = hopf.generator(name)
                d2 = hopf.delta(sym)
                assert len(d2.terms) > 2, name
                for t in (sym, d2, hopf.delta_leg(d2, 0),
                          hopf.delta_leg(d2, 1)):
                    pairs = [(c, ws) for ws, c in t.terms.items()]
                    assert hopf.realize(t) == _fold(hopf, pairs, t.legs), \
                        (basis, name, hopf.ctx.order)

    # the adjoint action from the cached legs, for every Lorentz generator
    # on two bases, on a coordinate monomial, an element with a one-form
    # and one on the realization at order N - 1, against the products and
    # actions of each symbolic term
    for basis in ("weyl-symmetric", "left"):
        here, there = _hopf(basis, ctx), _hopf(basis, low)
        cases = [(*here, AlgElement.x(ctx, 0) * AlgElement.x(ctx, 2)),
                 (*here, AlgElement.x(ctx, 1) * AlgElement.dx(ctx, 0)),
                 (*there, there[0].xhat[1] * there[0].xhat[2])]
        moved = set()
        for name in ("M10", "M20", "M12"):
            for k, (r, hopf, f) in enumerate(cases):
                d2 = hopf.delta(hopf.generator(name))
                want = AlgElement.zero(f.ctx)
                want_projected = AlgElement.zero(f.ctx)
                for (wl, wr), c in d2.terms.items():
                    left = hopf.realize_word(wl)
                    right = hopf.realize(hopf.antipode_word(wr))
                    want = want + (left * f * right).scale(c)
                    want_projected = want_projected + act_on(
                        left, act_on(f, right)).scale(c)
                assert adjoint_action(name, f, hopf) == want
                assert adjoint_action(name, f, hopf,
                                      project=False) == want
                projected = adjoint_action(name, f, hopf, project=True)
                assert projected == want_projected == want.vacuum_project()
                if not projected.is_zero() and projected != want:
                    moved.add(k)
        assert moved == {0, 1, 2}, basis


# -- two-atom words whose atoms do not commute: S must reverse their order
#
# The axioms and products of single generators cannot tell S from a
# morphism; on products of two atoms, m(S (x) id) Delta and the realized
# products can.

_PAIR_ATOMS = [Mom(0), Mom(1), Boost(1), Boost(2), Rot(1, 2)]
_PAIR_BASES = ["left", "weyl-symmetric", "bicrossproduct"]


def _pair_words(hopf):
    atoms = _PAIR_ATOMS + [AFun(hopf.exp_psi)]
    return [(a, b) for a in atoms for b in atoms]


@pytest.mark.parametrize("basis", _PAIR_BASES)
def test_antipode_axioms_on_two_atom_words(basis):
    # m(S (x) id) Delta(w) = m(id (x) S) Delta(w) = eps(w) 1, with eps of an
    # atom 1 on AFun(e^BigPsi) and 0 on the others
    r, hopf = _hopf(basis, Context(3, N, (1, 0, 0)))
    one = TruncSeries.one(N)
    failing = []
    for word in _pair_words(hopf):
        d2 = hopf.delta(hopf.sym([(one, (word,))]))
        eps = 1 if all(isinstance(atom, AFun) for atom in word) else 0
        for leg in (0, 1):
            resid = (hopf.realize(hopf.mul_antipode(d2, leg))
                     - AlgElement.one(hopf.ctx).scale(eps))
            if not resid.is_zero():
                failing.append((word, leg))
    assert not failing


# a series from the DSL, beside e^BigPsi, among the momentum atoms
_DSL_ATOM = "exp(A/3)/(1-A)"


def _atom_coproduct(hopf, atom) -> TensorElement:
    """The realized coproduct of a momentum atom from its own formula, not
    from `delta_word`: Delta f(A) and Delta p0 from their series (checked
    against SymPy and against Delta A / a0 below), and Delta p_i =
    Delta phi (p_i phi^-1 (x) 1 + Z (x) p_i phi^-1) on the realization's
    own p_i and Z."""
    if isinstance(atom, AFun):
        return hopf.realize(hopf._delta_afun(atom.f))
    if not atom.i:
        return hopf.realize(hopf._delta_p0())
    r = hopf.r
    pi_over_phi = r.p[atom.i] * lift_in_A(hopf.ctx, hopf.phi_inv)
    one = AlgElement.one(hopf.ctx)
    return hopf.realize(hopf._delta_afun(hopf.phi)) * (
        TensorElement.outer([pi_over_phi, one])
        + TensorElement.outer([r.Z, pi_over_phi]))


@pytest.mark.parametrize("basis", _PAIR_BASES + ["dsl"])
def test_hopf_maps_of_two_atom_words_against_realized_products(basis):
    # Delta is a morphism and S an anti-morphism of the realized algebra,
    # and so is the realization of a word
    hopf = HopfStructure(build_noncov(Context(3, N, (1, 0, 0)),
                                      _params(basis, N + GUARD)))
    failing = []
    for a, b in _pair_words(hopf):
        ab = canonical_word((a, b))
        checks = {
            "delta": (hopf.realize(hopf.delta_word(ab)),
                      hopf.realize(hopf.delta_word((a,)))
                      * hopf.realize(hopf.delta_word((b,)))),
            "antipode": (hopf.realize(hopf.antipode_word(ab)),
                         hopf.realize(hopf.antipode_word((b,)))
                         * hopf.realize(hopf.antipode_word((a,)))),
            "realize": (hopf.realize_word(ab),
                        hopf.realize_word((a,)) * hopf.realize_word((b,))),
        }
        failing += [(a, b, name) for name, (got, want) in checks.items()
                    if got != want]
    assert not failing

    # the coproduct of a word of one, two or three commuting momentum atoms
    # against the product of its atoms' realized coproducts, at N and N + 2
    for order in (N, N + 2):
        hopf = HopfStructure(build_noncov(Context(3, order, (1, 0, 0)),
                                          _params(basis, order + GUARD)))
        atoms = [Mom(0), Mom(1), Mom(2), AFun(hopf.exp_psi),
                 AFun(eval_dsl(_DSL_ATOM, order))]
        single = {a: _atom_coproduct(hopf, a) for a in atoms}
        products = {(): TensorElement.scalar(hopf.ctx, 2, 1)}
        for size in (1, 2, 3):
            for word in combinations_with_replacement(atoms, size):
                want = products[word] = products[word[:-1]] * single[word[-1]]
                got = hopf.realize(hopf.delta_word(canonical_word(word)))
                if got != want:
                    failing.append((order, word))
    assert not failing


@pytest.mark.parametrize("basis", ["left", "weyl-symmetric"])
def test_hopf_suite_maps_each_atom_once(basis, monkeypatch):
    # one hopf-suite run takes each atom's coproduct, antipode and
    # realization from the atom tables once
    calls = collections.Counter()
    for table in ("_delta_atom", "antipode_atom", "realize_atom"):
        original = getattr(HopfStructure, table)

        def counted(self, *args, table=table, original=original):
            calls[table, *args] += 1
            return original(self, *args)
        monkeypatch.setattr(HopfStructure, table, counted)
    cfg = RunConfig(dim=3, order=N, basis=basis, suites=("hopf",))
    cfg.validate()
    run_suites(cfg)
    assert {key[0] for key in calls} == {"_delta_atom", "antipode_atom",
                                         "realize_atom"}
    assert {key: k for key, k in calls.items() if k > 1} == {}


def test_realize_generator_matches_realization_set():
    r, hopf = _hopf("left-covariant")
    for name, elem in (("p0", r.p[0]), ("p1", r.p[1]),
                       ("M10", r.M[1][0]), ("Z", r.Z)):
        assert realize_generator(name, hopf) == elem, name


def _params(basis: str, order: int):
    if basis == "dsl":
        return NoncovParams.build(eval_dsl("exp(A/2)", order),
                                  eval_dsl("1+A/3+A^2", order))
    return named_basis_params(basis, order)


def _divide_by_a0(t: TensorElement) -> dict:
    """The terms of t/a0, each coefficient divided on its own."""
    return {key: s.div_by_t() for key, s in t.terms.items()}


@pytest.mark.parametrize("basis", ["left", "weyl-symmetric", "dsl"])
def test_p0_maps_against_divided_maps_of_A(basis):
    # Delta p0 and S(p0) at order N against Delta A and S(A), A = a0 p0,
    # realized one order up and divided by a0 (the contexts differ in order
    # only, so the terms are compared)
    ctx, up = Context(3, N, (1, 0, 0)), Context(3, N + 1, (1, 0, 0))
    r = build_noncov(ctx, _params(basis, N + GUARD))
    hopf_up = HopfStructure(build_noncov(up, _params(basis, N + 1 + GUARD)))
    a = hopf_up.expr((AFun(TruncSeries.t(N + 1)),))
    hopf = HopfStructure(r)
    dp0 = coproduct("p0", hopf)
    for got, want in ((dp0, hopf_up.delta(a)),
                      (antipode("p0", hopf), hopf_up.antipode(a))):
        want = _divide_by_a0(hopf_up.realize(want))
        assert (got.order, got.terms) == (N, want)
    if basis == "dsl":
        # psi != 1, so Delta p0 is not primitive
        one = AlgElement.one(r.ctx)
        assert dp0 != (TensorElement.outer([r.p[0], one])
                       + TensorElement.outer([one, r.p[0]]))


# -- Delta f(A) against SymPy: f(W(u, v)), W = BigPsiInv(BigPsi(u) + BigPsi(v))

A, U, V, S, Y = sp.symbols("A u v s y")


def _sympy_coproduct(f, psi, work: int) -> dict:
    """{(m, n): coefficient of u^m v^n} of f(W(u, v)) through total degree
    `work`, with BigPsi = int_0^A dA/psi and its inverse solved by SymPy."""
    big_psi = sp.integrate(1 / psi, (A, 0, A))
    inverse = [sol for sol in sp.solve(sp.Eq(big_psi, Y), A)
               if sp.simplify(sol.subs(Y, 0)) == 0]
    assert len(inverse) == 1
    w_uv = inverse[0].subs(Y, big_psi.subs(A, S * U) + big_psi.subs(A, S * V))
    expansion = sp.series(f.subs(A, w_uv), S, 0, work + 1).removeO()
    poly = sp.Poly(sp.expand(expansion), U, V, S)
    return {(m, n): c for (m, n, _), c in poly.terms()}


def _series(f, order: int) -> TruncSeries:
    taylor = sp.series(f, A, 0, order + 1).removeO()
    return TruncSeries([Fraction(str(taylor.coeff(A, k))) for k in
                        range(order + 1)])


def _engine_coproduct(hopf: HopfStructure, f: TruncSeries) -> dict:
    """{(m, n): coefficient} of hopf._delta_afun(f), whose keys are the
    words (AFun(A^m),) (x) (AFun(A^n),)."""
    w = hopf.ctx.order

    def power(word):
        if not word:
            return 0
        (atom,) = word
        k = atom.f.valuation()
        assert atom.f == TruncSeries.monomial(1, k, w)
        return k

    out = {}
    for (wl, wr), c in hopf._delta_afun(f).terms.items():
        assert c == TruncSeries.const(c[0], w)
        out[(power(wl), power(wr))] = c[0]
    return out


# basis -> (psi(A), the functions f whose coproduct is compared)
COPRODUCT_CASES = {
    "left-covariant": (1 - A, [A, 1 - A, 1 / (1 - A), sp.exp(A)]),
    "right-covariant": (1 + A, [A, sp.exp(-A), 1 / (1 + A) ** 2]),
    # psi = 1 + r A with r = 2, c = 1/3: phi = (1 + 2A)^((c - 1)/r)
    "family": (1 + 2 * A, [A, (1 + 2 * A) ** sp.Rational(-1, 3), sp.exp(A)]),
    "bicrossproduct": (sp.Integer(1), [sp.exp(A), 1 / (1 + A)]),
}


@pytest.mark.parametrize("basis", sorted(COPRODUCT_CASES))
def test_delta_afun_against_sympy(basis):
    psi, fs = COPRODUCT_CASES[basis]
    w = 4
    ctx = Context(2, w, (1, 0))
    params = family_params(2, Fraction(1, 3), w + GUARD) \
        if basis == "family" else named_basis_params(basis, w + GUARD)
    hopf = HopfStructure(build_noncov(ctx, params))
    for f in fs:
        expected = {key: GaussScalar(Fraction(str(c))) for key, c in
                    _sympy_coproduct(f, psi, w).items() if c != 0}
        assert _engine_coproduct(hopf, _series(f, w)) == expected, (basis, f)
    if basis == "bicrossproduct":
        # BigPsi = A: exp(u + v) = sum u^j v^k / (j! k!)
        got = _engine_coproduct(hopf, _series(sp.exp(A), w))
        assert got == {(j, k): GaussScalar(Fraction(1, factorial(j)
                                                    * factorial(k)))
                       for j in range(w + 1) for k in range(w + 1 - j)}


# -- canonical words: the junction merge against a full re-canonicalization

_W = 3
_ONE_PLUS_T = TruncSeries([1, 1, 0, 0])
_AFUNS = [_ONE_PLUS_T, _ONE_PLUS_T.recip(), TruncSeries.const(2, _W),
          TruncSeries.const(Fraction(1, 2), _W), TruncSeries.one(_W),
          TruncSeries.t(_W).exp(), (-TruncSeries.t(_W)).exp(),
          TruncSeries.monomial(I, 1, _W)]
atoms = st.one_of(st.builds(Mom, st.integers(1, 2)),
                  st.just(Rot(1, 2)),
                  st.builds(Boost, st.integers(1, 2)),
                  st.sampled_from(_AFUNS).map(AFun))
raw_words = st.lists(atoms, max_size=6).map(tuple)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(raw_words, raw_words)
@example((Mom(2), AFun(_ONE_PLUS_T)), (AFun(_ONE_PLUS_T.recip()), Mom(1)))
@example((Rot(1, 2), AFun(_ONE_PLUS_T)), (AFun(_ONE_PLUS_T.recip()),))
def test_join_words_is_canonical_concatenation(raw1, raw2):
    w1, w2 = canonical_word(raw1), canonical_word(raw2)
    assert canonical_word(w1) == w1
    assert join_words(w1, w2) == canonical_word(w1 + w2)
    assert join_words(w1, w2) == canonical_word(raw1 + raw2)


# -- terms above the order: symbolic maps against realized folds
#
# Random one- and two-leg tensors over a word pool whose AFun atoms have
# valuations 0..w+1, so many terms and pairs lie above the working order w.
# Symbolic products, which keep such terms, and the leg maps, which filter
# image terms by degree, are compared at order w with a path that never
# filters: products of realized elements, or a per-term fold of realized
# words.

_FILTER_ATOMS = [Mom(1), Mom(2), Rot(1, 2), Boost(1), Boost(2)]


@pytest.fixture(scope="module")
def filter_hopf():
    return _hopf("weyl-symmetric", Context(3, 4, (1, 0, 0)))[1]


def _gauss(rng) -> GaussScalar:
    return GaussScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                       Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def _series_from(rng, valuation: int, order: int) -> TruncSeries:
    """A Gaussian series with the given valuation (<= order)."""
    lead = _gauss(rng)
    while lead.is_zero():
        lead = _gauss(rng)
    return TruncSeries([0] * valuation + [lead] + [
        _gauss(rng) for _ in range(order - valuation)])


def _low(rng, top: int) -> int:
    """A draw from 0..top, skewed low so that most terms survive."""
    return min(rng.randint(0, top), rng.randint(0, top))


def _random_word(rng, w: int) -> tuple:
    atoms = [rng.choice(_FILTER_ATOMS) for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(0, 2)):
        # one order above w, so that valuation w + 1 is a nonzero series
        afun = AFun(_series_from(rng, _low(rng, w + 1), w + 1))
        atoms.insert(rng.randint(0, len(atoms)), afun)
    return tuple(atoms)


def _random_pairs(rng, w: int, legs: int, size: int) -> list:
    return [(_series_from(rng, _low(rng, w), w),
             tuple(_random_word(rng, w) for _ in range(legs)))
            for _ in range(size)]


def _realized_term(hopf, c, words):
    if len(words) == 1:
        return hopf.realize_word(words[0]).scale(c)
    return TensorElement.outer([hopf.realize_word(v) for v in words]).scale(c)


def _fold(hopf, pairs, legs: int):
    out = (AlgElement.zero(hopf.ctx) if legs == 1
           else TensorElement.zero(hopf.ctx, legs))
    for c, words in pairs:
        out = out + _realized_term(hopf, c, words)
    return out


def _assert_projected(t):
    """Every term has degree <= order, with no coefficient entry above
    order - degree."""
    for key, c in t.terms.items():
        degree = sum(map(word_degree, key))
        assert degree <= t.order, key
        assert all(c[k].is_zero()
                   for k in range(t.order - degree + 1, t.order + 1)), key


def _degree_of(key, c) -> int:
    return c.valuation() + sum(map(word_degree, key))


@pytest.mark.parametrize("seed", range(4))
def test_products_above_order_against_realized_products(filter_hopf, seed):
    hopf, rng = filter_hopf, random.Random(seed)
    w = hopf.ctx.order
    for legs, size in ((1, 10), (2, 6)):
        px, py = (_random_pairs(rng, w, legs, size) for _ in range(2))
        x, y = hopf.sym(px, legs), hopf.sym(py, legs)
        # terms above the order, in the inputs and in the pairs
        assert any(_degree_of(key, c) > w for c, key in px)
        assert any(_degree_of(k1, a) + _degree_of(k2, b) > w
                   for k1, a in x.terms.items() for k2, b in y.terms.items())
        xy = x * y
        assert hopf.realize(x) == _fold(hopf, px, legs)
        assert hopf.realize(y) == _fold(hopf, py, legs)
        assert hopf.realize(xy) == hopf.realize(x) * hopf.realize(y)


@pytest.mark.parametrize("seed", range(3))
def test_degree_filter_leg_maps_against_per_term_fold(filter_hopf, seed):
    hopf, rng = filter_hopf, random.Random(100 + seed)
    w = hopf.ctx.order
    x = hopf.sym(_random_pairs(rng, w, 1, 6))
    got = hopf.antipode(x)
    want = AlgElement.zero(hopf.ctx)
    for (word,), c in x.terms.items():
        want = want + hopf.realize(hopf.antipode_word(word)).scale(c)
    assert hopf.realize(got) == want

    t = hopf.sym(_random_pairs(rng, w, 2, 4), legs=2)
    for leg in (0, 1):
        got = hopf.delta_leg(t, leg)
        want = TensorElement.zero(hopf.ctx, 3)
        for ws, c in t.terms.items():
            for image, b in hopf.delta_word(ws[leg]).terms.items():
                want = want + _realized_term(
                    hopf, c * b, ws[:leg] + image + ws[leg + 1:])
        assert hopf.realize(got) == want, leg

        got = hopf.mul_antipode(t, leg)
        want = AlgElement.zero(hopf.ctx)
        for ws, c in t.terms.items():
            factors = [hopf.realize_word(v) for v in ws]
            factors[leg] = hopf.realize(hopf.antipode_word(ws[leg]))
            want = want + (factors[0] * factors[1]).scale(c)
        assert hopf.realize(got) == want, leg


def test_hopf_maps_stay_projected(filter_hopf):
    hopf = filter_hopf
    for name in ("p0", "p1", "M10", "M12", "Z"):
        sym = hopf.generator(name)
        d2 = hopf.delta(sym)
        for t in (d2, hopf.antipode(sym), hopf.delta_leg(d2, 0),
                  hopf.mul_antipode(d2, 1), hopf.counit_leg(d2, 0)):
            _assert_projected(t)
