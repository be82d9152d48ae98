import math
from fractions import Fraction

import numpy as np
import pytest

from rhocalc.errors import (ConnectivityError, DomainError, GlueError,
                            ModeError, ProviderError)
from rhocalc.funcs import (AsymptoticFunction, AsymptoticPoint, CompactBox,
                           ConstProvider, Domain, ExprProvider,
                           NegligibilityMode, OpenBox, SmoothProvider,
                           _gather_hints, _multi_indices, eval_at, fn_add,
                           fn_derive, fn_mul, fn_scale, fn_sub,
                           glue, gradient_constancy, is_moderate,
                           is_negligible, pair, partition_of_unity, restrict,
                           support, weak_equal)
from rhocalc import mollify
from rhocalc.mollify import (DeltaAt, DerivativeOfDelta, Heaviside,
                             _basis_layout, build_mollifier,
                             embed_distribution, reference_bump, rho_delta)
from rhocalc.series import LCNumber, LCVector

DOM = Domain.interval(-3.0, 3.0)
R = LCNumber.rho(backend="rational")


def F(expr, dom=DOM):
    return AsymptoticFunction.embed(expr, dom)


class TestDomains:
    def test_box_predicates(self):
        b = OpenBox((0.0,), (2.0,))
        assert b.contains((1.0,)) and not b.contains((2.0,))
        assert b.overlaps(OpenBox((1.5,), (3.0,)))
        assert b.intersect(OpenBox((3.0,), (4.0,))) is None

    def test_domain_connectivity(self):
        d = Domain((OpenBox((0.0,), (2.0,)), OpenBox((1.0,), (3.0,))))
        assert d.is_connected()
        d2 = Domain((OpenBox((0.0,), (1.0,)), OpenBox((2.0,), (3.0,))))
        assert not d2.is_connected()

    def test_empty_intersection_raises(self):
        with pytest.raises(DomainError):
            Domain.interval(0, 1).intersect(Domain.interval(2, 3))


class TestEvaluation:
    def test_standard_point(self):
        f = F("exp(-x1**2)*cos(x1)")
        v = eval_at(f, AsymptoticPoint((0.5,)))
        assert v.coefficient(Fraction(0)) == \
            pytest.approx(math.exp(-0.25) * math.cos(0.5))

    def test_monad_taylor(self):
        f = F("sin(x1)")
        dx = LCVector([LCNumber.rho(backend="float")])
        v = eval_at(f, AsymptoticPoint((0.0,), dx), horizon=Fraction(6))
        # sin(rho) = rho - rho^3/6 + rho^5/120
        assert abs(v.coefficient(Fraction(1)) - 1) < 1e-12
        assert abs(v.coefficient(Fraction(3)) + 1 / 6) < 1e-12
        assert abs(v.coefficient(Fraction(5)) - 1 / 120) < 1e-12

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            eval_at(F("x1"), AsymptoticPoint((10.0,)))

    def test_algebra_is_pointwise(self):
        f, g = F("sin(x1)"), F("x1**2 + 1")
        p = AsymptoticPoint((1.2,))
        s = eval_at(fn_add(f, g), p).coefficient(Fraction(0))
        m = eval_at(fn_mul(f, g), p).coefficient(Fraction(0))
        a, b = math.sin(1.2), 1.2 ** 2 + 1
        assert s == pytest.approx(a + b) and m == pytest.approx(a * b)

    def test_derivative_leibniz(self):
        f, g = F("sin(x1)"), F("cos(x1)")
        h = fn_derive(fn_mul(f, g), (1,))
        v = eval_at(h, AsymptoticPoint((0.7,))).coefficient(Fraction(0))
        assert v == pytest.approx(math.cos(2 * 0.7))

    @pytest.mark.parametrize("q, terms, horizon", [
        (-1, [(-1, 0.5), (0, 1.0)], 2),       # rho^-1 (0.5 + rho + O(rho^3))
        (2, [(2, 0.5), (3, 1.0)], 5)])        # rho^2 (0.5 + rho + O(rho^3))
    def test_monad_horizon_shifts_with_the_term(self, q, terms, horizon):
        f = AsymptoticFunction([(q, ExprProvider("x1", dim=1))], DOM)
        dx = LCNumber({1: 1.0}, horizon=3, backend="float")
        v = eval_at(f, AsymptoticPoint((0.5,), LCVector([dx])), horizon=6)
        assert v.terms == tuple((Fraction(e), complex(c)) for e, c in terms)
        assert v.horizon == horizon

    def test_product_horizon_follows_the_series_rule(self):
        z = AsymptoticFunction.zero(DOM, horizon=-1)
        zz = LCNumber.zero(backend="rational").truncate(-1)
        assert fn_mul(z, z).horizon == (zz * zz).horizon == -2
        assert fn_mul(F("x1"), AsymptoticFunction.zero(DOM, horizon=3)).horizon == 3


class TestModeration:
    K = CompactBox((-2.0,), (2.0,))

    def test_scaled_term_witness(self):
        f = AsymptoticFunction([(Fraction(-2), ExprProvider("cos(x1)", dim=1))],
                               DOM)
        rep = is_moderate(f, self.K)
        assert rep.moderate and rep.witness_n == 2

    def test_unbounded_coefficient_flagged(self):
        near = Domain.interval(-1.0, 1.0)
        f = AsymptoticFunction([(Fraction(0), ExprProvider("1/x1", dim=1))],
                               near)
        with pytest.raises(ProviderError):
            is_moderate(f, CompactBox((-0.5,), (0.5,)))

    def test_negligible_modes_agree(self):
        zero = fn_sub(F("sin(x1)"), F("sin(x1)"))
        rep = is_moderate(zero, self.K)
        assert is_negligible(zero, self.K, NegligibilityMode.ALL_DERIVATIVES)
        assert is_negligible(zero, self.K,
                             NegligibilityMode.ORDER_ZERO_GIVEN_MODERATE,
                             moderate_report=rep)
        live = F("sin(x1)")
        assert not is_negligible(live, self.K)

    def test_order_zero_mode_requires_report(self):
        with pytest.raises(ModeError):
            is_negligible(F("x1"), self.K,
                          NegligibilityMode.ORDER_ZERO_GIVEN_MODERATE)


class TestPairing:
    def test_polynomial_moment(self):
        tau = reference_bump(1)
        f = F("x1**2")
        got = pair(f, tau).coefficient(Fraction(0))
        # oracle: direct quadrature of x^2 tau(x)
        from scipy import integrate
        lo, hi = tau.support_box()
        want, _ = integrate.quad(lambda x: x * x * tau.at((x,)), lo[0], hi[0],
                                 limit=200)
        assert got.real == pytest.approx(want, abs=1e-10)

    def test_weak_equality(self):
        taus = [reference_bump(1, center=c, width=0.5) for c in (-1.0, 0.0, 1.0)]
        assert weak_equal(F("cos(x1)**2"), F("1 - sin(x1)**2"), taus).equal
        rep = weak_equal(F("x1"), F("x1 + 0.01"), taus)
        assert not rep.equal and rep.failing_index is not None

    def test_support_leak_raises(self):
        with pytest.raises(DomainError):
            pair(F("x1", Domain.interval(0, 1)), reference_bump(1))


def _scipy_pairing(f, tau):
    """The pairing of a single-term 1-D function by scalar scipy.quad on
    the real and the imaginary part, with the breakpoint hints and the
    default tolerances of ``pair``."""
    from scipy import integrate
    (_, prov), = f.terms
    a, b = tau.support_box()[0][0], tau.support_box()[1][0]
    hs = set(tau.quad_hints())
    _gather_hints(prov, hs)
    pts = sorted(h for h in hs if a < h < b)

    def part(fn):
        return lambda x: float(fn(prov.at((x,)) * tau.at((x,))))

    re, _ = integrate.quad(part(np.real), a, b, points=pts, limit=300,
                           epsabs=1e-12, epsrel=1e-10)
    im, _ = integrate.quad(part(np.imag), a, b, points=pts, limit=300,
                           epsabs=1e-12, epsrel=1e-10)
    return complex(re, im)


def _heaviside():
    return (embed_distribution(Heaviside(), Domain.interval(-4.0, 4.0), 0.1, 1),
            reference_bump(1, center=0.15, width=0.7))


def _delta_square():
    emb = embed_distribution(DeltaAt((0.0,)), DOM, 1e-3, 2)
    return fn_mul(emb, emb), reference_bump(1, width=0.9)


def _delta_prime():
    return (embed_distribution(DerivativeOfDelta((1,), (0.0,)),
                               Domain.interval(-4.0, 4.0), 1e-2, 4),
            reference_bump(1, center=0.1, width=0.7))


class _Counting(SmoothProvider):
    """Pass-through provider that records the size of every evaluation."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.sizes = []

    def evaluate(self, points, alpha=None):
        self.sizes.append(len(points))
        return self.base.evaluate(points, alpha)


class TestQuadrature:
    @pytest.mark.parametrize("case", [_heaviside, _delta_square, _delta_prime],
                             ids=["heaviside", "delta-square", "delta-prime"])
    def test_agrees_with_scipy_quad(self, case):
        f, tau = case()
        got = complex(pair(f, tau).coefficient(Fraction(0)))
        want = _scipy_pairing(f, tau)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_noisy_derivative_kernel(self):
        # ∫|f| is ~1e5 times the pairing, and the kernel derivative's
        # evaluation noise near its piece edges sits above the per-panel
        # roundoff floor; the reference integrates by parts, -∫ D τ'
        kernel = rho_delta(build_mollifier(3), 1e-2)
        tau = reference_bump(1, center=0.002, width=0.686)
        f = AsymptoticFunction([(Fraction(0), kernel.provider().derivative((1,)))], DOM)
        got = complex(pair(f, tau).coefficient(Fraction(0)))
        pts, wts = kernel.quad_nodes()
        want = -float(np.sum(wts * kernel.evaluate(pts) * tau.evaluate(pts, (1,))))
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_one_batched_evaluation_per_round(self):
        emb = embed_distribution(DeltaAt((0.0,)), DOM, 1e-2, 3)
        counting = _Counting(emb.terms[0][1])
        f = AsymptoticFunction([(Fraction(0), counting)], DOM)
        pair(f, reference_bump(1, center=0.1, width=0.7))
        assert 0 < len(counting.sizes) <= 40
        assert min(counting.sizes) > 1

    def test_unresolvable_integrand_raises(self):
        with pytest.raises(ProviderError):
            pair(F("sin(1e7*x1)"), reference_bump(1))

    @pytest.mark.parametrize("rho", [0.1, 0.03, 0.01])
    def test_two_dim_delta(self, rho):
        # a fixed 10-panel Gauss grid gave 1.50, 2.09, -4.13 here; at the
        # default tolerance the box budget may run out, at 1e-4 it must not
        tau = reference_bump(2, center=(0.1, -0.05), width=0.8)
        emb = embed_distribution(DeltaAt((0.0, 0.0)),
                                 Domain.box((-1.0, -1.0), (1.0, 1.0)), rho, 2)
        want = tau.at((0.0, 0.0))
        try:
            got = complex(pair(emb, tau).coefficient(Fraction(0)))
            assert abs(got - want) <= 25 * rho ** 3
        except ProviderError:
            pass
        got = complex(pair(emb, tau, quad_tol=1e-4).coefficient(Fraction(0)))
        assert abs(got - want) <= min(1e-4, 25 * rho ** 3)

    def test_two_dim_smooth(self):
        f = AsymptoticFunction([(Fraction(0), ConstProvider(5.0, dim=2)),
                                (Fraction(1), ExprProvider("x1*x2", dim=2))],
                               Domain.box((-1.0, -1.0), (1.0, 1.0)))
        tau = reference_bump(2, center=(0.1, -0.05), width=0.8)
        got = pair(f, tau)
        assert complex(got.coefficient(Fraction(0))) == pytest.approx(5.0, rel=1e-10)
        assert complex(got.coefficient(Fraction(1))) == pytest.approx(0.1 * -0.05, rel=1e-9)

    @pytest.mark.parametrize("d,n", [(1, n) for n in range(9)] + [(2, n) for n in range(5)])
    def test_mollifier_matches_per_basis_moments(self, d, n):
        layout = _basis_layout(n, d)
        alphas = list(_multi_indices(d, n))
        basis = [mollify.TestFunction(d, ((1.0, c, w),), 1.0) for c, w in layout]
        M = np.array([[b.moment(a) for b in basis] for a in alphas])
        rhs = np.array([1.0] + [0.0] * (len(alphas) - 1))
        if M.shape[0] == M.shape[1]:
            coeffs = np.linalg.solve(M, rhs)
        else:
            coeffs, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        want = tuple((float(a), c, w) for a, (c, w) in zip(coeffs, layout))
        assert build_mollifier(n, d).pieces == want


class TestSheaf:
    def test_restrict_identity(self):
        f = F("sin(x1)")
        sub = Domain.interval(-1.0, 1.0)
        g = restrict(f, sub)
        assert g.terms == f.terms and g.domain is sub
        gg = restrict(restrict(f, Domain.interval(-2, 2)), sub)
        assert gg.terms == f.terms

    def test_partition_sums_to_one(self):
        cover = (OpenBox((0.0,), (2.0,)), OpenBox((1.0,), (3.0,)))
        phis = partition_of_unity(cover)
        xs = np.linspace(0.1, 2.9, 41).reshape(-1, 1)
        total = sum(p.evaluate(xs).real for p in phis)
        assert np.max(np.abs(total - 1)) < 1e-12

    def test_glue_compatible(self):
        cover = (OpenBox((0.0,), (2.0,)), OpenBox((1.0,), (3.0,)))
        locs = [F("sin(x1)", Domain((b,))) for b in cover]
        g = glue(cover, locs)
        for x in (0.3, 1.5, 2.7):
            v = eval_at(g, AsymptoticPoint((x,))).coefficient(Fraction(0))
            assert abs(v - math.sin(x)) < 1e-10

    def test_glue_incompatible_witnessed(self):
        cover = (OpenBox((0.0,), (2.0,)), OpenBox((1.0,), (3.0,)))
        locs = [F("sin(x1)", Domain((cover[0],))),
                F("sin(x1) + 0.1", Domain((cover[1],)))]
        with pytest.raises(GlueError) as e:
            glue(cover, locs)
        w = e.value.witness
        assert w is not None and 1.0 < w[0] < 2.0

    def test_support_localized(self):
        tau = reference_bump(1, center=0.0, width=0.5)
        f = F(tau.provider())
        cells = support(f)
        assert cells
        assert all(-0.6 < lo[0] and hi[0] < 0.6 for lo, hi in cells)


class TestConstancy:
    def test_constant_detected(self):
        f = AsymptoticFunction([(Fraction(-1), ConstProvider(2.0, dim=1)),
                                (Fraction(2), ConstProvider(-3.0, dim=1))], DOM)
        res = gradient_constancy(f)
        assert res.is_constant
        assert res.constant.coefficient(Fraction(-1)) == pytest.approx(2.0)
        assert res.constant.coefficient(Fraction(2)) == pytest.approx(-3.0)

    def test_nonconstant_witnessed(self):
        res = gradient_constancy(F("x1**2"))
        assert not res.is_constant
        pt, axis, q = res.witness
        assert axis == 0 and q == 0 and abs(2 * pt[0]) > 1e-9

    def test_disconnected_raises(self):
        d = Domain((OpenBox((0.0,), (1.0,)), OpenBox((2.0,), (3.0,))))
        f = AsymptoticFunction([(Fraction(0), ConstProvider(1.0, dim=1))], d)
        with pytest.raises(ConnectivityError):
            gradient_constancy(f)

    def test_two_dim_constant(self):
        d = Domain.box((-1.0, -1.0), (1.0, 1.0))
        f = AsymptoticFunction([(Fraction(0), ConstProvider(5.0, dim=2))], d)
        res = gradient_constancy(f)
        assert res.is_constant
        assert res.constant.coefficient(Fraction(0)) == pytest.approx(5.0)
