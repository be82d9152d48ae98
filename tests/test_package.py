"""The package's lazy exports."""

import importlib

import pytest

import rhocalc

# the names that ``rhocalc/__init__.py`` imported eagerly before its exports
# became lazy, by the submodule that defines them
EXPORTED = {
    "errors": """BackendError BudgetError CanonicalizationError ConnectivityError
        DerivativeOrderError DivisionByZero DomainError GlueError LiftError ModeError
        MomentSystemError OrderError ParameterError ParseError ProviderError
        RhoCalcError RootError SpecError""",
    "growth": """CHAIN Cmp GrowthOrder Membership RingFamily SequenceKind ThresholdKind
        ThresholdSet chain_position classify_ring cmp_growth format_growth in_ideal
        in_ring parse_growth spill_check validate_generating""",
    "series": "INF Backend ExtendedScalar Kind LCNumber LCVector Sign format_lc",
    "closure": """DEFAULT_DEPTH LCInterval LCPolynomial PuiseuxRoot effective_valuation
        inverse lc_cos lc_exp lc_log lc_sin nested_interval_point nth_root poly_roots
        sqrt""",
    "funcs": """AsymptoticFunction AsymptoticPoint CompactBox ConstancyResult Domain
        ExprProvider ModerateReport NegligibilityMode OpenBox ProductProvider
        SmoothProvider SumProvider eval_at fn_add fn_derive fn_mul fn_neg fn_sub glue
        gradient_constancy is_moderate is_negligible pair partition_of_unity restrict
        support weak_equal""",
    "mollify": """DeltaAt DeltaKernel DerivativeOfDelta EmbeddedFunction
        FiniteCombination Heaviside LocallyIntegrableKernel RateResult TestFunction
        build_mollifier convergence_rate cutoff embed_distribution reference_bump
        reference_pairing rho_delta""",
    "filters": """ClosedForm EventuallyConstant FilterSeq Periodic Sampled StarElement
        Verdict ae_equal canonical_nu exceeds infinitesimal_reciprocal perturb
        star_extend_finite undecided""",
    "parser": "Env deserialize evaluate parse render serialize",
}


def test_every_old_export_resolves_to_its_definition():
    listing = dir(rhocalc)
    for module, names in EXPORTED.items():
        mod = importlib.import_module(f"rhocalc.{module}")
        assert getattr(rhocalc, module) is mod and module in listing
        for name in names.split():
            assert getattr(rhocalc, name) is getattr(mod, name), name
            assert name in listing, name


def test_star_import_binds_the_same_names():
    # the eager package bound every export and, as package attributes,
    # the submodules that defined them
    want = set(EXPORTED) | {n for names in EXPORTED.values() for n in names.split()}
    ns = {}
    exec("from rhocalc import *", ns)
    assert set(ns) - {"__builtins__"} == want


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rhocalc.no_such_name


def test_every_traced_attribute_is_an_own_attribute():
    # the benchmark tracer wraps owner.__dict__[attr] on classes; an
    # attribute moved to a base class would silently go untraced
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, name, _ in tracing.layer_patches():
        where = f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
        if isinstance(owner, type):
            assert attr in owner.__dict__, where
        else:
            assert hasattr(owner, attr), where
