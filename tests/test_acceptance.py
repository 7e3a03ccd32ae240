"""Acceptance gate: the ten headline criteria, one printed line each.

Each test prints exactly one "[PASS]"/"[FAIL]" line naming the criterion;
the assertion carries the same condition so pytest stays authoritative.
"""
import random
import time
from fractions import Fraction

import pytest

from helpers import run_cli
from kappacalc.algebra import (AlgElement, Context, anticommutator,
                               commutator, graded_commutator)
from kappacalc.calculus import (S_VALUES, build_calculus,
                                check_action_table, check_adjoint_agreement,
                                check_closure_and_K,
                                check_module_property, compatibility_report,
                                decompose_K, expected_xi,
                                inadmissible_one_forms)
from kappacalc.hopf import (HopfStructure, check_hopf_axioms,
                            special_case_table, _generator_names)
from kappacalc.realizations import (CATALOG, GUARD, build_basis, build_natural,
                                    build_noncov, crosscheck_frames,
                                    family_params, verify_box,
                                    verify_lorentz_and_mixed, verify_shift,
                                    verify_space)
from kappacalc.scalars import GaussScalar
from kappacalc.series import TruncSeries

BASES = tuple(sorted(CATALOG))


def _report_line(num, title, ok):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {title}")
    assert ok, f"criterion {num}: {title}"


def _all_pass(reports):
    return all(rep.passed for rep in reports)


@pytest.fixture(scope="module")
def n4_realizations():
    """The 5 catalog bases plus the (r, c) = (1, 2) family at n=4, N=5."""
    ctx = Context(4, 5, (1, 0, 0, 0))
    sets = {name: build_basis(ctx, name) for name in BASES}
    sets["family(1,2)"] = build_noncov(ctx, family_params(1, 2, 5 + GUARD))
    return sets


def test_criterion_01_space_relations(n4_realizations):
    start = time.monotonic()
    ok = all(verify_space(r).passed for r in n4_realizations.values())
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    _report_line(1, "coordinate commutators for 5 bases + family, "
                    f"n=4, N=5 ({elapsed:.1f}s)", ok)


def test_criterion_02_lorentz_and_mixed(n4_realizations):
    ok = all(verify_lorentz_and_mixed(r).passed
             for r in n4_realizations.values())
    nat = build_natural(Context(4, 4, (1, 1, 0, 0)))
    ok = ok and verify_lorentz_and_mixed(nat).passed
    ok = ok and verify_space(nat).passed
    _report_line(2, "Lorentz and mixed sector, plus the natural frame at "
                    "e=(1,1,0,0)", ok)


def test_criterion_03_shift_and_laplacian(n4_realizations):
    ok = True
    for name in BASES:
        r = n4_realizations[name]
        ok = ok and verify_shift(r).passed and verify_box(r).passed
    _report_line(3, "shift operator and deformed Laplacian, all bases, N=5",
                 ok)


def test_criterion_04_frame_crosscheck():
    ctx = Context(4, 4, (1, 0, 0, 0))
    ok = all(crosscheck_frames(build_basis(ctx, name)).passed
             for name in BASES)
    _report_line(4, "natural-frame formulas reproduce every catalog basis "
                    "at N=4", ok)


def test_criterion_05_hopf_axioms():
    start = time.monotonic()
    ok = True
    for name in BASES:
        rh = build_basis(Context(4, 4, (1, 0, 0, 0)), name)
        hopf = HopfStructure(rh)
        for gen in _generator_names(rh.ctx):
            ok = ok and check_hopf_axioms(gen, hopf).passed
        if name == "bicrossproduct":
            ok = ok and special_case_table(hopf).passed
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 180
    _report_line(5, "Hopf axioms for all generators and bases at N=4, n=4, "
                    f"plus the phi=psi=1 table ({elapsed:.1f}s)", ok)


@pytest.fixture(scope="module")
def calculus_grid():
    ctx = Context(4, 5, (1, 0, 0, 0))
    out = {}
    for name in BASES:
        r = build_basis(ctx, name)
        for s in S_VALUES:
            out[(name, s)] = build_calculus(r, s)
    return out


def test_criterion_06_calculus(calculus_grid):
    ok = True
    for (name, s), c in calculus_grid.items():
        ok = ok and (c.dhat * c.dhat).is_zero()
        for got, want in zip(c.xi, expected_xi(c)):
            ok = ok and (got - want).is_zero()
        ok = ok and check_closure_and_K(c).passed
    _report_line(6, "dhat^2 = 0, xi closed forms and closure constants for "
                    "all bases x s in {0, 1/2, 1, 2} at N=5", ok)


def test_criterion_07_K_decomposition(calculus_grid):
    ok = all(decompose_K(calculus_grid[(name, Fraction(1))]).passed
             for name in BASES)
    ok = ok and decompose_K(calculus_grid[("bicrossproduct",
                                           Fraction(2))]).passed
    _report_line(7, "K = A + S with antisymmetric A and constant S", ok)


def test_criterion_08_actions():
    ctx = Context(4, 4, (1, 0, 0, 0))
    r = build_basis(ctx, "bicrossproduct")
    c = build_calculus(r, 1)
    other = build_basis(ctx, "left")
    ok = check_action_table(c).passed
    ok = ok and check_module_property(c, 3, other).passed
    ok = ok and check_adjoint_agreement(HopfStructure(r)).passed
    _report_line(8, "action table, invariant forms, module property and "
                    "adjoint agreement at N=4, degree <= 3", ok)


def _random_element(rng, ctx, n_terms, even_only=False):
    out = AlgElement.zero(ctx)
    for _ in range(n_terms):
        mono = AlgElement.one(ctx)
        for mu in range(ctx.dim):
            for _ in range(rng.randint(0, 1)):
                mono = mono * AlgElement.x(ctx, mu)
        mask = rng.randint(0, (1 << ctx.dim) - 1)
        if even_only and bin(mask).count("1") % 2:
            mask = 0
        for mu in range(ctx.dim):
            if mask >> mu & 1:
                mono = mono * AlgElement.dx(ctx, mu)
        for mu in range(ctx.dim):
            for _ in range(rng.randint(0, 1)):
                mono = mono * AlgElement.d(ctx, mu)
        coeffs = [GaussScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                              Fraction(rng.randint(-4, 4)))
                  for _ in range(ctx.order + 1)]
        out = out + mono.scale(TruncSeries(coeffs))
    return out


def _homogeneous(rng, ctx):
    e = _random_element(rng, ctx, 2)
    p = rng.randint(0, 1)
    kept = {k: v for k, v in e.terms.items()
            if bin(k[1]).count("1") % 2 == p}
    return AlgElement(ctx, kept)


def _truncated(e, k):
    """e through a0^k: restricted into the context of order k, or, at k = 0,
    where no context exists, its classical limit."""
    if k == 0:
        return e.classical_limit()
    return AlgElement(Context(e.ctx.dim, k, e.ctx.direction), e.terms)


def test_criterion_09_property_instances():
    ctx = Context(2, 2, (1, 0))
    rng = random.Random(20260824)
    ok = True
    for _ in range(500):  # associativity
        a, b, c = (_random_element(rng, ctx, 2) for _ in range(3))
        ok = ok and ((a * b) * c - a * (b * c)).is_zero()
    for _ in range(500):  # graded Jacobi (even sector)
        a, b, c = (_random_element(rng, ctx, 2, even_only=True)
                   for _ in range(3))
        resid = (commutator(a, commutator(b, c))
                 + commutator(b, commutator(c, a))
                 + commutator(c, commutator(a, b)))
        ok = ok and resid.is_zero()
    for _ in range(500):  # parity multiplicativity
        a, b = _homogeneous(rng, ctx), _homogeneous(rng, ctx)
        prod = a * b
        if not prod.is_zero():
            ok = ok and prod.parity() == (a.parity() + b.parity()) % 2
        bracket = graded_commutator(a, b)
        if a.parity() and b.parity():
            ok = ok and (bracket - anticommutator(a, b)).is_zero()
        else:
            ok = ok and (bracket - commutator(a, b)).is_zero()
    for _ in range(500):  # truncation functoriality
        a, b = (_random_element(rng, ctx, 2) for _ in range(2))
        k = rng.randint(0, ctx.order)
        ok = ok and (_truncated(a * b, k)
                     - _truncated(a, k) * _truncated(b, k)).is_zero()
        ok = ok and (_truncated(a + b, k)
                     - (_truncated(a, k) + _truncated(b, k))).is_zero()
    _report_line(9, "500 randomized instances each: associativity, graded "
                    "Jacobi, parity, truncation functoriality", ok)


def test_criterion_10_negative_controls():
    ctx = Context(2, 3, (1, 0))
    r = build_basis(ctx, "bicrossproduct")
    # the flat one-form assignment xi_mu = dx_mu violates compatibility
    rep = compatibility_report(r, inadmissible_one_forms(r), "inadmissible")
    ok = not rep.passed and all(c.residual for c in rep.checks
                                if not c.passed)
    # the corrupted K1 operator breaks dhat^2 = 0 and the CLI exits 1
    c = build_calculus(r, 1, fault=True)
    ok = ok and not (c.dhat * c.dhat).is_zero()
    res = run_cli(["verify", "--dim", "2", "--order", "2", "--suites",
                   "calculus", "--inject-fault"])
    ok = ok and res.exit_code == 1
    _report_line(10, "inadmissible one-forms fail compatibility; injected "
                     "K1 fault breaks dhat^2 = 0 with exit code 1", ok)
