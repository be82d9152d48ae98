import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate

from rhocalc.errors import MomentSystemError, ParameterError, SpecError
from rhocalc.funcs import (AsymptoticPoint, Domain, ExprProvider, eval_at,
                           fn_mul, pair)
from rhocalc.mollify import (DeltaAt, DerivativeOfDelta, FiniteCombination,
                             Heaviside, LocallyIntegrableKernel, RateResult,
                             _Bump1D, build_mollifier, convergence_rate, cutoff,
                             embed_distribution, reference_bump,
                             reference_pairing, rho_delta)

DOM = Domain.interval(-3.0, 3.0)


class TestBump:
    POINTS = [float(t) for t in np.linspace(-0.99, 0.99, 41)] + [0.999, -0.999]

    @pytest.fixture(scope="class")
    def reference(self):
        """psi^(k) at POINTS for k = 0..10, from mpmath at 50 digits."""
        with mpmath.workdps(50):
            psi = lambda t: mpmath.exp(1 / (t * t - 1))
            return [[float(mpmath.diff(psi, mpmath.mpf(t), k)) for t in self.POINTS]
                    for k in range(11)]

    @pytest.mark.parametrize("k", range(11))
    def test_derivatives_match_mpmath(self, reference, k):
        want = np.array(reference[k])
        got = _Bump1D.eval(np.array(self.POINTS), k)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("k", range(11))
    def test_scalar_path_matches_vector_path(self, k):
        vec = _Bump1D.eval(np.array(self.POINTS), k)
        scalar = np.array([_Bump1D.at(t, k) for t in self.POINTS])
        # np.exp and math.exp may differ in the last bit of psi
        assert np.max(np.abs(scalar - vec)) <= 1e-15 * np.max(np.abs(vec))

    def test_zero_outside_the_open_interval(self):
        ts = np.array([-1.5, -1.0, 1.0, 2.0])
        for k in range(4):
            assert not np.any(_Bump1D.eval(ts, k))
            assert all(_Bump1D.at(float(t), k) == 0.0 for t in ts)


class TestMollifiers:
    def test_moments_against_scipy(self):
        th = build_mollifier(3)
        for k in range(4):
            want = 1.0 if k == 0 else 0.0
            got, _ = integrate.quad(lambda x: x ** k * th.at((x,)), -1, 1,
                                    points=th.quad_hints(), limit=300)
            assert got == pytest.approx(want, abs=1e-11)
            assert th.moment((k,)) == pytest.approx(want, abs=1e-11)

    def test_first_nonzero_moment(self):
        # Θ_n must not accidentally kill the (n+1)-st moment, or the
        # embedding would converge faster than its advertised order.
        for n in range(5):
            th = build_mollifier(n)
            assert abs(th.moment((n + 1,))) > 1e-4

    def test_support_in_unit_ball(self):
        th = build_mollifier(4)
        assert th.support_radius <= 1.0
        xs = np.linspace(1.0, 2.0, 11).reshape(-1, 1)
        assert np.max(np.abs(th.evaluate(xs))) == 0.0

    def test_l1_reported_and_minimized(self):
        th = build_mollifier(4)
        thl = build_mollifier(4, minimize_l1=True)
        assert math.isfinite(th.l1_mass) and math.isfinite(thl.l1_mass)
        assert thl.l1_mass <= th.l1_mass + 1e-9

    def test_two_dimensional(self):
        th = build_mollifier(2, d=2)
        assert th.moment((0, 0)) == pytest.approx(1.0, abs=1e-10)
        for a in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
            assert th.moment(a) == pytest.approx(0.0, abs=1e-10)

    def test_order_bound_enforced(self):
        with pytest.raises(ParameterError):
            build_mollifier(9)
        with pytest.raises(ParameterError):
            build_mollifier(5, d=2)


class TestKernels:
    def test_delta_kernel_mass(self):
        th = build_mollifier(2)
        D = rho_delta(th, 0.05)
        pts, wts = D.quad_nodes()
        val = float(np.sum(wts * D.evaluate(pts)))
        assert val == pytest.approx(1.0, abs=1e-11)

    def test_bad_rho(self):
        with pytest.raises(ParameterError):
            rho_delta(build_mollifier(0), 0.0)

    def test_cutoff_plateau(self):
        th = build_mollifier(1)
        cp = cutoff(DOM, 0.1, th)
        deep = cp.evaluate(np.array([[0.0], [1.0], [-1.5]]))
        assert np.max(np.abs(deep - 1)) < 1e-12
        outside = cp.evaluate(np.array([[2.999], [-2.999]]))
        assert np.max(np.abs(outside)) < 1e-12


class TestEmbedding:
    def test_smooth_function_close(self):
        f = LocallyIntegrableKernel(ExprProvider("exp(-x1**2)*cos(x1)", dim=1))
        emb = embed_distribution(f, DOM, 1e-2, 2)
        xs = np.linspace(-2, 2, 21)
        for x in xs:
            got = eval_at(emb, AsymptoticPoint((float(x),))).coefficient(Fraction(0))
            want = math.exp(-x * x) * math.cos(x)
            assert abs(got - want) < 1e-5

    def test_delta_pairing(self):
        tau = reference_bump(1, center=0.1, width=0.7)
        emb = embed_distribution(DeltaAt((0.0,)), DOM, 1e-2, 2)
        got = pair(emb, tau).coefficient(Fraction(0))
        assert abs(got - tau.at((0.0,))) < 1e-4

    def test_delta_derivative_pairing(self):
        tau = reference_bump(1, center=0.1, width=0.7)
        emb = embed_distribution(DerivativeOfDelta(alpha=(1,), point=(0.0,)),
                                 DOM, 1e-2, 2)
        got = pair(emb, tau).coefficient(Fraction(0))
        assert abs(got - (-tau.at((0.0,), (1,)))) < 1e-3

    def test_heaviside_limits(self):
        emb = embed_distribution(Heaviside(), DOM, 1e-2, 1)
        left = eval_at(emb, AsymptoticPoint((-1.0,))).coefficient(Fraction(0))
        right = eval_at(emb, AsymptoticPoint((1.0,))).coefficient(Fraction(0))
        assert abs(left) < 1e-10 and abs(right - 1) < 1e-10

    def test_heaviside_d2_rejected(self):
        with pytest.raises(SpecError):
            embed_distribution(Heaviside(), Domain.box((-1, -1), (1, 1)), 0.1, 1)

    def test_combination_linear(self):
        T = FiniteCombination(((2.0, DeltaAt((0.0,))), (-1.0, DeltaAt((0.5,)))))
        tau = reference_bump(1, width=0.9)
        emb = embed_distribution(T, DOM, 1e-2, 2)
        got = pair(emb, tau).coefficient(Fraction(0))
        want = reference_pairing(T, tau)
        assert abs(got - want) < 1e-3


class TestRates:
    def test_delta_rate_order(self):
        tau = reference_bump(1, center=0.15, width=0.7)
        res = convergence_rate(DeltaAt((0.0,)), tau, DOM,
                               (1e-1, 3e-2, 1e-2), 2)
        assert res.slope == pytest.approx(3.0, abs=0.3)

    def test_grid_validation(self):
        tau = reference_bump(1)
        with pytest.raises(ParameterError):
            convergence_rate(DeltaAt((0.0,)), tau, DOM, (1e-1, 1e-2), 2)
        with pytest.raises(ParameterError):
            convergence_rate(DeltaAt((0.0,)), tau, DOM, (1e-2, 1e-1, 1e-3), 2)

    def test_delta_square_scaling(self):
        # <delta_rho^2, tau> ~ rho^{-1} tau(0) ∫Θ² — the canonical
        # non-distributional product, finite at every fixed rho.
        th = build_mollifier(2)
        c2, _ = integrate.quad(lambda x: th.at((x,)) ** 2, -1, 1,
                               points=th.quad_hints(), limit=300)
        tau = reference_bump(1, width=0.9)
        rho = 1e-2
        emb = embed_distribution(DeltaAt((0.0,)), DOM, rho, 2)
        sq = fn_mul(emb, emb)
        got = pair(sq, tau).coefficient(Fraction(0))
        want = c2 * tau.at((0.0,)) / rho
        assert abs(got / want - 1) < 0.05
