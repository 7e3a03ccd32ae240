"""Exact engine for kappa-deformed spacetime realizations.

Everything is computed over the Gaussian rationals, order by order in the
deformation parameter a0; a verified identity means every coefficient of the
residual is exactly zero at the truncation order.

The public names are resolved on first access (PEP 562), so importing the
package, or only the modules a command needs, loads nothing else.
"""
from importlib import import_module

__version__ = "1.0.0"

_EXPORTS = {
    "algebra": ("AlgebraError", "AlgElement", "Context", "ContextMismatch",
                "ParityError", "TensorElement", "act_on", "anticommutator",
                "commutator", "graded_commutator", "lift_in_A",
                "substitute_series", "tensor_commutator"),
    "calculus": ("CalculusError", "CalculusSet", "build_calculus",
                 "check_closure_and_K", "check_compatibility",
                 "check_d_properties", "decompose_K", "expected_xi",
                 "lorentz_action"),
    "dsl": ("DslError", "DslEvalError", "DslSyntaxError", "eval_dsl",
            "parse_dsl", "render_dsl"),
    "hopf": ("HopfError", "HopfStructure", "antipode", "check_hopf_axioms",
             "coproduct", "counit"),
    "realizations": ("CATALOG", "GUARD", "NoncovParams", "RealizationError",
                     "RealizationSet", "build_basis", "build_natural",
                     "build_noncov", "family_params", "named_basis_params",
                     "verify_lorentz_and_mixed", "verify_shift",
                     "verify_space"),
    "reports": ("Check", "SuiteReport"),
    "scalars": ("GaussScalar", "ScalarError"),
    "series": ("OrderMismatch", "SeriesError", "TruncSeries"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
