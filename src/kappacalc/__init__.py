"""Exact engine for kappa-deformed spacetime realizations.

Everything is computed over the Gaussian rationals, order by order in the
deformation parameter a0; a verified identity means every coefficient of the
residual is exactly zero at the truncation order.
"""
from .algebra import (AlgebraError, AlgElement, Context, ContextMismatch,
                      ParityError, TensorElement, act_on, anticommutator,
                      commutator, graded_commutator, lift_in_A,
                      substitute_series, tensor_commutator)
from .calculus import (CalcParams, CalculusError, CalculusSet, build_calculus,
                       check_closure_and_K, check_compatibility,
                       check_d_properties, decompose_K, expected_xi,
                       lorentz_action)
from .dsl import DslError, DslEvalError, DslSyntaxError, eval_dsl, parse_dsl, \
    render_dsl
from .hopf import (HopfError, HopfStructure, antipode, check_hopf_axioms,
                   coproduct, counit)
from .realizations import (CATALOG, GUARD, NoncovParams, RealizationError,
                           RealizationSet, build_basis, build_natural,
                           build_noncov, family_params, named_basis_params,
                           verify_lorentz_and_mixed, verify_shift,
                           verify_space)
from .reports import Check, SuiteReport
from .scalars import GaussScalar, ScalarError
from .series import OrderMismatch, SeriesError, TruncSeries

__version__ = "1.0.0"

__all__ = [
    "AlgebraError", "AlgElement", "CATALOG", "CalcParams",
    "CalculusError", "CalculusSet", "Check", "Context", "ContextMismatch",
    "DslError", "DslEvalError", "DslSyntaxError", "GUARD", "GaussScalar",
    "HopfError", "HopfStructure", "NoncovParams", "OrderMismatch",
    "ParityError", "RealizationError", "RealizationSet", "ScalarError",
    "SeriesError", "SuiteReport", "TensorElement", "TruncSeries", "act_on",
    "anticommutator", "antipode", "build_basis", "build_calculus",
    "build_natural", "build_noncov", "check_closure_and_K",
    "check_compatibility", "check_d_properties", "check_hopf_axioms",
    "commutator", "coproduct", "counit", "decompose_K", "eval_dsl",
    "expected_xi", "family_params", "graded_commutator", "lift_in_A",
    "lorentz_action", "named_basis_params", "parse_dsl", "render_dsl",
    "substitute_series", "tensor_commutator", "verify_lorentz_and_mixed",
    "verify_shift", "verify_space",
]
