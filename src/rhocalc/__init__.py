"""rhocalc: computable asymptotic analysis over the scale rho.

Truncated Levi-Civita series arithmetic, a symbolic growth-order
calculus with the convex-ring chain, algebraic closure operations
(inverses, roots, Newton-polygon root lifting), an algebra of
asymptotic generalized functions with a mollifier-based distribution
embedding, a Fréchet-filter sandbox, and an expression CLI/REPL.

The package exports load lazily (PEP 562): ``import rhocalc`` runs no
submodule, and ``rhocalc.<name>`` imports only the submodule that
defines it, so the series layer never pays for numpy or sympy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "BackendError", "BudgetError", "CanonicalizationError",
        "ConnectivityError", "DerivativeOrderError", "DivisionByZero",
        "DomainError", "GlueError", "LiftError", "ModeError",
        "MomentSystemError", "OrderError", "ParameterError", "ParseError",
        "ProviderError", "RhoCalcError", "RootError", "SpecError"),
    "growth": (
        "CHAIN", "Cmp", "GrowthOrder", "Membership", "RingFamily",
        "SequenceKind", "ThresholdKind", "ThresholdSet", "chain_position",
        "classify_ring", "cmp_growth", "format_growth", "in_ideal", "in_ring",
        "parse_growth", "spill_check", "validate_generating"),
    "series": (
        "INF", "Backend", "ExtendedScalar", "Kind", "LCNumber", "LCVector",
        "Sign", "format_lc"),
    "closure": (
        "DEFAULT_DEPTH", "LCInterval", "LCPolynomial", "PuiseuxRoot",
        "effective_valuation", "inverse", "lc_cos", "lc_exp", "lc_log",
        "lc_sin", "nested_interval_point", "nth_root", "poly_roots", "sqrt"),
    "funcs": (
        "AsymptoticFunction", "AsymptoticPoint", "CompactBox",
        "ConstancyResult", "Domain", "ExprProvider", "ModerateReport",
        "NegligibilityMode", "OpenBox", "ProductProvider", "SmoothProvider",
        "SumProvider", "eval_at", "fn_add", "fn_derive", "fn_mul", "fn_neg",
        "fn_sub", "glue", "gradient_constancy", "is_moderate",
        "is_negligible", "pair", "partition_of_unity", "restrict", "support",
        "weak_equal"),
    "mollify": (
        "DeltaAt", "DeltaKernel", "DerivativeOfDelta", "EmbeddedFunction",
        "FiniteCombination", "Heaviside", "LocallyIntegrableKernel",
        "RateResult", "TestFunction", "build_mollifier", "convergence_rate",
        "cutoff", "embed_distribution", "reference_bump",
        "reference_pairing", "rho_delta"),
    "filters": (
        "ClosedForm", "EventuallyConstant", "FilterSeq", "Periodic",
        "Sampled", "StarElement", "Verdict", "ae_equal", "canonical_nu",
        "exceeds", "infinitesimal_reciprocal", "perturb",
        "star_extend_finite", "undecided"),
    "parser": (
        "Env", "deserialize", "evaluate", "parse", "render", "serialize"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
