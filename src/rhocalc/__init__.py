"""rhocalc: computable asymptotic analysis over the scale rho.

Truncated Levi-Civita series arithmetic, a symbolic growth-order
calculus with the convex-ring chain, algebraic closure operations
(inverses, roots, Newton-polygon root lifting), an algebra of
asymptotic generalized functions with a mollifier-based distribution
embedding, a Fréchet-filter sandbox, and an expression CLI/REPL.
"""

from .errors import (BackendError, BudgetError, CanonicalizationError,
                     ConnectivityError, DerivativeOrderError, DivisionByZero,
                     DomainError, GlueError, LiftError, ModeError,
                     MomentSystemError, OrderError, ParameterError, ParseError,
                     ProviderError, RhoCalcError, RootError, SpecError)
from .growth import (CHAIN, Cmp, GrowthOrder, Membership, RingFamily,
                     SequenceKind, ThresholdKind, ThresholdSet, chain_position,
                     classify_ring, cmp_growth, format_growth, in_ideal,
                     in_ring, parse_growth, spill_check, validate_generating)
from .series import (INF, Backend, ExtendedScalar, Kind, LCNumber, LCVector,
                     Sign, format_lc)
from .closure import (DEFAULT_DEPTH, LCInterval, LCPolynomial, PuiseuxRoot,
                      effective_valuation, inverse, lc_cos, lc_exp, lc_log,
                      lc_sin, nested_interval_point, nth_root, poly_roots,
                      sqrt)
from .funcs import (AsymptoticFunction, AsymptoticPoint, CompactBox,
                    ConstancyResult, Domain, ExprProvider, ModerateReport,
                    NegligibilityMode, OpenBox, ProductProvider,
                    SmoothProvider, SumProvider, eval_at, fn_add, fn_derive,
                    fn_mul, fn_neg, fn_sub, glue, gradient_constancy,
                    is_moderate, is_negligible, pair, partition_of_unity,
                    restrict, support, weak_equal)
from .mollify import (DeltaAt, DeltaKernel, DerivativeOfDelta,
                      EmbeddedFunction, FiniteCombination, Heaviside,
                      LocallyIntegrableKernel, RateResult, TestFunction,
                      build_mollifier, convergence_rate, cutoff,
                      embed_distribution, reference_bump, reference_pairing,
                      rho_delta)
from .filters import (ClosedForm, EventuallyConstant, FilterSeq, Periodic,
                      Sampled, StarElement, Verdict, ae_equal, canonical_nu,
                      exceeds, infinitesimal_reciprocal, perturb,
                      star_extend_finite, undecided)
from .parser import Env, deserialize, evaluate, parse, render, serialize

__version__ = "0.1.0"
