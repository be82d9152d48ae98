import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rhocalc.errors import BackendError, DivisionByZero, RootError
from rhocalc.closure import (LCInterval, LCPolynomial, effective_valuation,
                             inverse, lc_cos, lc_exp, lc_log, lc_sin,
                             nested_interval_point, nth_root, poly_roots,
                             _poly_scale, _rational_nth_root, sqrt)
from rhocalc.series import INF, LCNumber


R = LCNumber.rho(backend="rational")
RF = LCNumber.rho(backend="float")


class TestInverse:
    def test_geometric(self):
        inv = inverse(1 - R, horizon=Fraction(6))
        for k in range(6):
            assert inv.coefficient(Fraction(k)) == 1

    def test_residual_valuation(self):
        rng = random.Random(5)
        for _ in range(100):
            terms = {Fraction(rng.randint(-4, 4)): Fraction(rng.randint(1, 9))
                     for _ in range(rng.randint(1, 4))}
            x = LCNumber(terms, backend="rational")
            h = Fraction(8) - x.valuation()
            res = x * inverse(x, horizon=h) - 1
            assert res.is_zero() or res.valuation() >= 8

    def test_zero_raises(self):
        with pytest.raises(DivisionByZero):
            inverse(LCNumber.zero("rational"))


class TestRoots:
    def test_sqrt_roundtrip_rational(self):
        x = 4 + R
        s = sqrt(x, horizon=Fraction(8))
        assert s.coefficient(Fraction(0)) == 2
        res = s * s - x
        assert res.is_zero() or res.valuation() >= 8

    def test_cube_root_shifted_valuation(self):
        x = 8 * R ** 3 * (1 + R)
        c = nth_root(x, 3, horizon=Fraction(6))
        assert c.valuation() == 1 and c.leading_coefficient() == 2
        res = c ** 3 - x
        assert res.is_zero() or res.valuation() >= 6 + x.valuation()

    def test_rational_backend_needs_perfect_power(self):
        with pytest.raises(RootError):
            sqrt(2 + R)

    def test_float_branches(self):
        x = LCNumber.from_scalar(1.0) + RF
        r0 = nth_root(x, 3, branch=0)
        r1 = nth_root(x, 3, branch=1)
        assert abs(r0.leading_coefficient() - 1) < 1e-12
        assert abs(r1.leading_coefficient() - complex(-0.5, 3 ** 0.5 / 2)) < 1e-12

    def test_negative_lead_rejected_rational(self):
        with pytest.raises(RootError):
            sqrt(-1 + R)

    def test_sqrt_of_rho_is_fractional_exponent(self):
        s = sqrt(R, horizon=Fraction(4))
        assert s.valuation() == Fraction(1, 2)
        assert (s * s - R).is_zero()

    @given(st.integers(1, 10 ** 80), st.integers(1, 10 ** 80), st.integers(2, 7))
    def test_exact_rational_roots(self, k, j, n):
        # exact at magnitudes far beyond float range (up to ~10^560)
        assert _rational_nth_root(Fraction(k, j) ** n, n) == Fraction(k, j)
        # k^n < k^n + 1 < (k+1)^n, so no reduction makes this an n-th power
        assert _rational_nth_root(Fraction(k ** n + 1, j ** n), n) is None

    def test_sqrt_of_huge_and_tiny_leads(self):
        for c in (Fraction(7 ** 2 * 10 ** 400), Fraction(3 ** 2, 10 ** 60)):
            s = sqrt(c * (1 + R), horizon=Fraction(4))
            assert s.leading_coefficient() ** 2 == c


class TestTranscendental:
    def test_exp_log_inverse(self):
        x = R + 2 * R ** 2
        y = lc_log(1 + x, horizon=Fraction(8))
        z = lc_exp(y, horizon=Fraction(8)) - (1 + x)
        assert z.is_zero() or z.valuation() >= 8

    def test_sin_cos_pythagorean(self):
        x = R - R ** 3
        s, c = lc_sin(x, horizon=Fraction(8)), lc_cos(x, horizon=Fraction(8))
        res = s * s + c * c - 1
        assert res.is_zero() or res.valuation() >= 8

    def test_exp_float_finite_standard_part(self):
        import math
        x = LCNumber.from_scalar(1.0) + RF
        e = lc_exp(x)
        assert abs(e.coefficient(Fraction(0)) - math.e) < 1e-12
        assert abs(e.coefficient(Fraction(1)) - math.e) < 1e-12

    def test_exp_rational_nonzero_std_raises(self):
        with pytest.raises(BackendError):
            lc_exp(1 + R)

    def test_log_needs_positive_lead(self):
        with pytest.raises(BackendError):
            lc_log(2 + R)


class TestPolynomial:
    def test_eval_and_derivative(self):
        p = LCPolynomial([R, LCNumber.from_scalar(Fraction(-2), "rational"),
                          LCNumber.from_scalar(Fraction(1), "rational")])
        assert p(LCNumber.from_scalar(Fraction(1), "rational")) == R - 1
        dp = p.derivative()
        assert dp(LCNumber.from_scalar(Fraction(0), "rational")) == \
            LCNumber.from_scalar(Fraction(-2), "rational")

    def test_shift(self):
        one = LCNumber.from_scalar(1.0)
        p = LCPolynomial([one * 0, one * 0, one])       # x^2
        q = p.shift(one)                                # (x+1)^2
        assert abs(q.coeffs[0].coefficient(Fraction(0)) - 1) < 1e-14
        assert abs(q.coeffs[1].coefficient(Fraction(0)) - 2) < 1e-14


def _residual_ok(poly, root, target=8):
    tol = 1e-9 * _poly_scale(poly, root.value)
    val = poly(root.value)
    return val.is_zero() or effective_valuation(val, tol) >= target


class TestPuiseux:
    def test_square_root_branch_pair(self):
        one = LCNumber.from_scalar(1.0)
        p = LCPolynomial([-RF, one * 0, one])           # x^2 - rho
        roots = poly_roots(p)
        vals = sorted(r.value.valuation() for r in roots)
        assert vals == [Fraction(1, 2), Fraction(1, 2)]
        lead = sorted(r.value.leading_coefficient().real for r in roots)
        assert lead[0] == pytest.approx(-1.0) and lead[1] == pytest.approx(1.0)

    def test_separated_double_root(self):
        one = LCNumber.from_scalar(1.0)
        # x^2 - (2 + rho) x + (1 + rho)  =  (x - 1)(x - 1 - rho)
        p = LCPolynomial([one + RF, -(one * 2 + RF), one])
        roots = poly_roots(p)
        assert len(roots) == 2
        assert all(_residual_ok(p, r) for r in roots)
        diffs = roots[0].value - roots[1].value
        assert diffs.valuation() in (Fraction(0), Fraction(1))

    def test_true_triple_root(self):
        one = LCNumber.from_scalar(1.0)
        a = one + RF                                    # (x - 1 - rho)^3
        p = LCPolynomial([-(a ** 3), 3 * (a ** 2), -3 * a, one])
        roots = poly_roots(p)
        assert sum(r.multiplicity for r in roots) == 3
        assert all(_residual_ok(p, r) for r in roots)

    def test_zero_root_stripped(self):
        one = LCNumber.from_scalar(1.0)
        p = LCPolynomial([one * 0, -RF, one])           # x(x - rho)
        roots = poly_roots(p)
        assert any(r.value.is_zero() for r in roots)
        assert any(r.value.valuation() == 1 for r in roots if not r.value.is_zero())

    def test_random_polynomials(self):
        rng = random.Random(17)
        for _ in range(20):
            deg = rng.randint(2, 4)
            coeffs = []
            for _k in range(deg):
                c = LCNumber({Fraction(0): complex(rng.uniform(-2, 2),
                                                   rng.uniform(-2, 2)),
                              Fraction(1): complex(rng.uniform(-1, 1), 0)},
                             backend="float")
                coeffs.append(c)
            coeffs.append(LCNumber.from_scalar(1.0))
            p = LCPolynomial(coeffs)
            roots = poly_roots(p)
            assert sum(r.multiplicity for r in roots) == deg
            assert all(_residual_ok(p, r) for r in roots)


class TestIntervals:
    def test_nested_point(self):
        lo = [LCNumber.from_scalar(Fraction(0), "rational"),
              1 - R, 1 - R ** 2]
        hi = [LCNumber.from_scalar(Fraction(2), "rational"),
              1 + R, 1 + R ** 2]
        pt = nested_interval_point([LCInterval(a, b) for a, b in zip(lo, hi)])
        assert pt.standard_part().value == 1

    def test_bad_nesting_rejected(self):
        from rhocalc.errors import RhoCalcError
        one = LCNumber.from_scalar(Fraction(1), "rational")
        with pytest.raises(RhoCalcError):
            nested_interval_point([LCInterval(one * 0, one),
                                   LCInterval(one * 2, one * 3)])
