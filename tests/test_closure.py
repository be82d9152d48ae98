import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rhocalc.errors import (BackendError, DivisionByZero, NestingError,
                            OrderError, RootError)
from rhocalc.closure import (LCInterval, LCPolynomial, effective_valuation,
                             inverse, lc_cos, lc_exp, lc_log, lc_sin,
                             nested_interval_point, nth_root, poly_roots,
                             _poly_scale, _rational_nth_root, _rel_horizon,
                             _split_unit, sqrt)
from rhocalc.series import INF, Backend, LCNumber, _times_monomial


R = LCNumber.rho(backend="rational")
RF = LCNumber.rho(backend="float")


@pytest.mark.parametrize("call", [
    lambda x: inverse(x, horizon=INF),
    lambda x: nth_root(x, 2, horizon=INF),
    lambda x: lc_exp(x - 1, horizon=INF),
    lambda x: poly_roots(LCPolynomial([-x, LCNumber.zero(), LCNumber.rho(0)]),
                         precision=INF)], ids=["inverse", "nth_root", "lc_exp", "poly_roots"])
def test_infinite_horizon_is_an_order_error(call):
    # an exponent or horizon that is no rational number is refused typed
    with pytest.raises(OrderError):
        call(LCNumber({0: 1.0, 1: 1.0}, backend="float"))


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

    def test_exact_monomial(self):
        x = LCNumber({Fraction(-3, 2): Fraction(4)}, backend="rational")
        assert inverse(x).terms == ((Fraction(3, 2), Fraction(1, 4)),)
        assert inverse(x).horizon == INF
        # a requested horizon keeps the truncated result
        assert inverse(x, horizon=Fraction(4)).horizon == 4

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


# -- the term-by-term closure, kept as a reference ---------------------------

def _ref_unit_power(u, alpha, H):
    """(1 + u)^alpha below exponent H, summing binom(alpha, k) * u^k one
    term at a time: the algorithm inverse and nth_root used before Newton
    doubling, O(H / v(u)) products."""
    rational = u.backend is Backend.RATIONAL
    one = Fraction(1) if rational else 1.0
    out = LCNumber.from_scalar(one, backend=u.backend).truncate(H)
    term = LCNumber.from_scalar(one, backend=u.backend)
    b, k = Fraction(1), 0
    while not u.is_zero() and (k + 1) * u.valuation() < H:
        b = b * (alpha - k) / (k + 1)
        k += 1
        term = (term * u).truncate(H)
        out = out + term * LCNumber.from_scalar(b if rational else complex(b),
                                                backend=u.backend)
    return out.truncate(H)


def _ref_inverse(x, horizon=None):
    v, c, u = _split_unit(x)
    H = _rel_horizon(x, horizon)
    geom = _ref_unit_power(u, Fraction(-1), H)
    out = LCNumber([(q - v, cc * (1 / c)) for q, cc in geom.terms],
                   horizon=H - v, backend=x.backend)
    return out.truncate(x.horizon - 2 * v) if x.horizon != INF else out


def _ref_nth_root(x, n, branch=0, horizon=None):
    v, c, u = _split_unit(x)
    if x.backend is Backend.RATIONAL:
        croot = _rational_nth_root(c, n)
    else:
        croot = abs(c) ** (1.0 / n) * cmath.exp(
            1j * (cmath.phase(c) + 2 * math.pi * (branch % n)) / n)
    H = _rel_horizon(x, horizon)
    body = _ref_unit_power(u, Fraction(1, n), H)
    return LCNumber([(q + v / n, cc * croot) for q, cc in body.terms],
                    horizon=H + v / n, backend=x.backend)


@st.composite
def units(draw, backend, n=1):
    """(x, horizon): a leading term and 1-4 tail terms on the lattice
    1/den, den = 1..12, with the input horizon and the requested horizon
    each absent or 1..32 past the lead.  Horizons stay within 96 lattice
    steps of the lead, so the term-by-term reference stays fast."""
    den = draw(st.integers(1, 12))
    steps = min(32 * den, 96)
    v = Fraction(draw(st.integers(-3 * den, 3 * den)), den)
    ks = draw(st.lists(st.integers(1, steps), min_size=1, max_size=4, unique=True))
    if backend == "rational":
        a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        lead = Fraction(a, b) ** n
        tail = [Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 6)))
                for _ in ks]
    else:
        # tail magnitudes sum below the lead, so coefficients stay bounded
        r = draw(st.floats(1.0, 2.0))
        lead = cmath.rect(r, draw(st.floats(0.0, 2 * math.pi)))
        tail = [cmath.rect(r * draw(st.floats(0.01, 0.2)), draw(st.floats(0.0, 2 * math.pi)))
                for _ in ks]
    hx = draw(st.one_of(st.none(), st.integers(1, steps)))
    hp = draw(st.one_of(st.none(), st.integers(-1, steps)))
    terms = {v: lead, **{v + Fraction(k, den): c for k, c in zip(ks, tail)}}
    x = LCNumber(terms, horizon=INF if hx is None else v + Fraction(hx, den), backend=backend)
    # a requested horizon h asks for relative depth h + v(x)
    return x, None if hp is None else Fraction(hp, den) - v


def _agree(got, want):
    """Float results: same horizon, terms within 1e-12 of the largest."""
    assert got.horizon == want.horizon
    g, w = dict(got.terms), dict(want.terms)
    scale = max([abs(c) for c in w.values()] + [1e-300])
    for q in set(g) | set(w):
        assert abs(g.get(q, 0) - w.get(q, 0)) <= 1e-12 * scale, q


class TestNewtonClosure:
    """Newton-doubling inverse and n-th root against the term-by-term sum."""

    @settings(deadline=None, max_examples=60)
    @given(units("rational"))
    def test_inverse_rational_exact(self, xh):
        x, h = xh
        got, want = inverse(x, horizon=h), _ref_inverse(x, horizon=h)
        assert got.terms == want.terms and got.horizon == want.horizon

    @settings(deadline=None, max_examples=60)
    @given(units("float"))
    def test_inverse_float(self, xh):
        x, h = xh
        _agree(inverse(x, horizon=h), _ref_inverse(x, horizon=h))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_nth_root_rational_exact(self, n, data):
        x, h = data.draw(units("rational", n))
        got, want = nth_root(x, n, horizon=h), _ref_nth_root(x, n, horizon=h)
        assert got.terms == want.terms and got.horizon == want.horizon

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_nth_root_float(self, n, data):
        x, h = data.draw(units("float"))
        branch = data.draw(st.integers(0, n - 1))
        _agree(nth_root(x, n, branch=branch, horizon=h),
               _ref_nth_root(x, n, branch=branch, horizon=h))

    def test_monomial_shift_matches_the_constructor(self):
        # the shifted and scaled terms equal, bit for bit, what the
        # normalising LCNumber() builds from them: a -0.0 part becomes 0.0,
        # and a float product that underflows to zero is dropped
        rng = random.Random(14)
        cases = [(LCNumber({0: -1.0, 1: 2.0, 2: 1e-200}, horizon=3, backend="float"),
                  Fraction(-1, 2), 1j * 1e-200, Fraction(5, 2))]
        for _ in range(100):
            backend = rng.choice(("rational", "float"))
            if backend == "rational":
                coeff = lambda: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            else:
                coeff = lambda: complex(rng.choice((0.0, -0.0, rng.uniform(-2, 2))),
                                        rng.choice((0.0, -0.0, rng.uniform(-2, 2)))) or 1.0
            terms = {Fraction(rng.randint(-20, 20), rng.randint(1, 4)): coeff()
                     for _ in range(rng.randint(0, 6))}
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            cases.append((LCNumber(terms, horizon=Fraction(21), backend=backend), v,
                          coeff(), 21 + v))
        for x, v, c, h in cases:
            got = _times_monomial(x, x.terms, v, c, h)
            want = LCNumber([(q + v, p * c) for q, p in x.terms], horizon=h,
                            backend=x.backend)
            assert repr(got.terms) == repr(want.terms) and got.horizon == want.horizon
            assert got.backend is want.backend

    def test_inverse_product_count(self, monkeypatch):
        # u of valuation 1/8, relative depth 32: 256 lattice steps.  The
        # term-by-term sum made 510 products; doubling takes 8 steps of 2.
        x = LCNumber({Fraction(0): Fraction(1), Fraction(1, 8): Fraction(1),
                      Fraction(3, 8): Fraction(-2)}, backend="rational")
        count = 0
        mul = LCNumber.__mul__

        def counting(self, other):
            nonlocal count
            count += 1
            return mul(self, other)

        monkeypatch.setattr(LCNumber, "__mul__", counting)
        inv = inverse(x, horizon=Fraction(32))
        monkeypatch.undo()
        assert count <= 20
        assert len(inv.terms) == 256 and inv.horizon == 32
        res = x * inv - 1
        assert res.is_zero() or res.valuation() >= 32


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

    # f(a), f'(a), f''(a), ... repeating, as functions of the standard part a
    CYCLES = {lc_exp: lambda a: [cmath.exp(a)],
              lc_sin: lambda a: [cmath.sin(a), cmath.cos(a), -cmath.sin(a), -cmath.cos(a)],
              lc_cos: lambda a: [cmath.cos(a), -cmath.sin(a), -cmath.cos(a), cmath.sin(a)]}
    RATIONAL_TAYLOR = {lc_exp: lambda k: Fraction(1, math.factorial(k)),
                       lc_sin: lambda k: Fraction((-1) ** (k // 2) * (k % 2), math.factorial(k)),
                       lc_cos: lambda k: Fraction((-1) ** (k // 2) * (1 - k % 2),
                                                  math.factorial(k))}

    @pytest.mark.parametrize("fn", [lc_exp, lc_sin, lc_cos])
    @pytest.mark.parametrize("x", [LCNumber({Fraction(1, 2): Fraction(1)}, backend="rational"),
                                   R - R ** 2])
    def test_rational_lift_is_the_taylor_sum(self, fn, x):
        H = Fraction(8)
        want = LCNumber.from_scalar(self.RATIONAL_TAYLOR[fn](0), "rational")
        power = LCNumber.from_scalar(Fraction(1), "rational")
        k = 0
        while (k + 1) * x.valuation() < H:
            k += 1
            power = (power * x).truncate(H)
            want = want + power * self.RATIONAL_TAYLOR[fn](k)
        want = want.truncate(H)
        got = fn(x, horizon=H)
        assert got.terms == want.terms and got.horizon == want.horizon
        assert all(type(c) is Fraction for _, c in got.terms)

    @pytest.mark.parametrize("fn", [lc_exp, lc_sin, lc_cos])
    @pytest.mark.parametrize("a", [0.3, -1.2 + 0.5j])
    def test_float_lift_coefficients(self, fn, a):
        got = fn(LCNumber.from_scalar(a, "float") + RF, horizon=Fraction(8))
        cycle = self.CYCLES[fn](complex(a))
        assert [q for q, _ in got.terms] == [Fraction(k) for k in range(8)]
        for k, (_, c) in enumerate(got.terms):
            want = cycle[k % len(cycle)] / math.factorial(k)
            assert abs(c - want) <= 1e-15 * max(1.0, abs(c)), k

    @pytest.mark.parametrize("fn", [lc_exp, lc_sin, lc_cos])
    def test_float_lift_past_170_factorial(self, fn):
        # rho^(1/20) at the default depth 10 needs Taylor orders up to 199,
        # past the largest factorial a double holds (170!)
        got = fn(LCNumber({Fraction(1, 20): 1.0}, backend="float"))
        assert got.horizon == 10 and max(q for q, _ in got.terms) > Fraction(171, 20)
        for q, c in got.terms:
            want = self.RATIONAL_TAYLOR[fn](int(q * 20))
            if fn is lc_exp:
                # exp scales by the exact 1/k! rounded once
                assert c == complex(want), q
            else:
                assert c.imag == 0 and math.isclose(c.real, float(want), rel_tol=1e-15,
                                                    abs_tol=1e-320), q


class TestPolynomial:
    def test_eval_and_derivative(self):
        p = LCPolynomial([R, LCNumber.from_scalar(Fraction(-2), "rational"),
                          LCNumber.from_scalar(Fraction(1), "rational")])
        assert p(LCNumber.from_scalar(Fraction(1), "rational")) == R - 1
        dp = p.derivative()
        assert dp(LCNumber.from_scalar(Fraction(0), "rational")) == \
            LCNumber.from_scalar(Fraction(-2), "rational")

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_eval_below_cut(self, backend):
        rng = random.Random(3)
        for _ in range(20):
            cs = [LCNumber({Fraction(rng.randint(-4, 6), rng.randint(1, 3)):
                            Fraction(rng.randint(1, 9)) for _ in range(3)}, backend=backend)
                  for _ in range(rng.randint(1, 5))]
            x = LCNumber({Fraction(rng.randint(-3, 3), rng.randint(1, 2)) + k: Fraction(k + 1)
                          for k in range(3)}, backend=backend)
            p, cut = LCPolynomial(cs), Fraction(rng.randint(-6, 12), rng.randint(1, 4))
            got, full = p(x, below=cut), p(x).truncate(cut)
            assert got.horizon == cut
            assert got.terms == full.terms

    def test_shift(self):
        one = LCNumber.from_scalar(1.0)
        p = LCPolynomial([one * 0, one * 0, one])       # x^2
        q = p.shift(one)                                # (x+1)^2
        assert abs(q.coeffs[0].coefficient(Fraction(0)) - 1) < 1e-14
        assert abs(q.coeffs[1].coefficient(Fraction(0)) - 2) < 1e-14

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_shift_is_the_taylor_sum(self, data):
        # exact coefficients: place k of p(a + y) is p^(k)(a)/k!
        p, a = data.draw(_polys()), data.draw(_series())
        got, deriv = p.shift(a), p
        assert got.degree == p.degree
        for k, c in enumerate(got.coeffs):
            want = deriv(a) * Fraction(1, math.factorial(k))
            assert c.terms == want.terms and c.horizon == want.horizon == INF
            deriv = deriv.derivative()

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_shift_of_cut_coefficients_is_sound(self, data):
        # each shifted coefficient agrees with the exact shift below its horizon
        p, a = data.draw(_polys()), data.draw(_series())
        cut = LCPolynomial([c.truncate(c.valuation() + data.draw(st.integers(1, 6)))
                            for c in p.coeffs])
        for got, want in zip(cut.shift(a).coeffs, p.shift(a).coeffs):
            assert got.horizon < INF
            assert got.terms == want.truncate(got.horizon).terms

    def test_unknown_degree_is_refused(self):
        # 0 + O(rho^5) on top fits rho^6 x^2 + rho x + 1 as well as rho x + 1
        with pytest.raises(OrderError):
            LCPolynomial([R ** 0, R, LCNumber({}, horizon=5, backend="rational")])
        assert LCPolynomial([R ** 0, R, R * 0]).degree == 1

    @pytest.mark.parametrize("coeffs", [[R, 3], [3, R]], ids=["scalar-top", "scalar-bottom"])
    def test_non_series_coefficient_is_a_backend_error(self, coeffs):
        with pytest.raises(BackendError):
            LCPolynomial(coeffs)


@st.composite
def _series(draw):
    """An exact rational series with 1-3 terms on the lattice 1/den."""
    den = draw(st.integers(1, 3))
    ks = draw(st.lists(st.integers(-2 * den, 4 * den), min_size=1, max_size=3, unique=True))
    return LCNumber({Fraction(k, den): Fraction(draw(st.integers(-5, 5).filter(bool)),
                                                draw(st.integers(1, 4))) for k in ks},
                    backend="rational")


@st.composite
def _polys(draw):
    """A polynomial of degree 1-4 with exact series coefficients."""
    return LCPolynomial([draw(_series()) for _ in range(draw(st.integers(2, 5)))])


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

    def test_root_horizon_bounded_by_coefficients(self):
        one = LCNumber.from_scalar(1.0)
        c = inverse(one + RF)                           # known below rho^10
        roots = poly_roots(LCPolynomial([-c, one]), precision=16)
        assert len(roots) == 1
        x = roots[0].value
        assert x.horizon <= c.horizon == 10
        for k in range(int(x.horizon)):
            assert abs(x.coefficient(Fraction(k)) - (-1) ** k) < 1e-12

    def test_zero_root_horizon_bounded_by_coefficients(self):
        # a0 = -rho^20 known below rho^12 shows no terms, but x^2 - k*rho^12
        # agrees with it and has the roots +-sqrt(k)*rho^6
        one, zero = LCNumber.from_scalar(1.0), LCNumber.zero()
        roots = poly_roots(LCPolynomial([(-RF ** 20).truncate(12), zero, one]),
                           precision=8)
        assert [r.multiplicity for r in roots] == [2]
        assert roots[0].value.is_zero() and roots[0].value.horizon <= 6

    def test_cluster_below_target_horizon_bounded(self):
        # (x^2 - rho^22)^2: two double roots of valuation 11, past the cut
        # rho^10; a1 known below rho^12 can hold eps*rho^12, which moves
        # three roots to valuation (12 - 0) / (4 - 1) = 4
        one, zero = LCNumber.from_scalar(1.0), LCNumber.zero()
        p = [RF ** 44, zero.truncate(12), -2 * RF ** 22, zero, one]
        roots = poly_roots(LCPolynomial(p), precision=8)
        assert sorted(r.multiplicity for r in roots) == [2, 2]
        for r in roots:
            assert r.value.is_zero() and r.value.horizon <= 4
        # exact coefficients keep the cut
        p[1] = zero
        for r in poly_roots(LCPolynomial(p), precision=8):
            assert r.value.is_zero() and r.value.horizon == 10

    @pytest.mark.parametrize("seed", range(6))
    def test_truncated_coefficients_sound(self, seed):
        # (x - r1)(x - r2)(x - r3) with exact multi-term roots; every root of
        # the polynomial with truncated coefficients must agree with a true
        # root on all the terms it claims to know
        rng = random.Random(seed)
        one = LCNumber.from_scalar(1.0)
        exact = []
        for lead in (-1.5, 0.5, 2.0):
            terms = {Fraction(0): complex(lead + rng.uniform(-0.2, 0.2), 0)}
            for k in range(1, 12):
                terms[Fraction(k, 2)] = complex(rng.uniform(-1, 1), 0)
            exact.append(LCNumber(terms, backend="float"))
        p = [one]
        for r in exact:                                 # multiply by (x - r)
            p = [(p[i - 1] if i else one * 0) - (r * p[i] if i < len(p) else one * 0)
                 for i in range(len(p) + 1)]
        h = Fraction(rng.choice([3, 4, 5]))
        poly = LCPolynomial([c.truncate(h) for c in p])
        roots = poly_roots(poly, precision=12)
        assert len(roots) == 3
        for root in roots:
            x = root.value
            assert x.horizon <= h
            true = min(exact, key=lambda r: abs(r.coefficient(Fraction(0))
                                                - x.coefficient(Fraction(0))))
            for k in range(int(2 * x.horizon)):
                q = Fraction(k, 2)
                assert abs(x.coefficient(q) - true.coefficient(q)) < 1e-9


def _exact(x):
    """A float series as {q: (re, im)} of Fractions; Fraction(float) is exact."""
    return {q: (Fraction(c.real), Fraction(c.imag)) for q, c in x.terms}


def _exact_residual_ok(poly, x, tol, precision):
    """Whether poly(x), computed by Horner in exact Gaussian-rational
    arithmetic, has no coefficient above ``tol`` below ``precision``
    (x and the coefficients have no negative exponents, so the terms from
    ``precision`` on are dropped as they arise)."""
    xs, val = _exact(x), {}
    for c in reversed(poly.coeffs):
        nxt = _exact(c)
        for q1, (a, b) in val.items():
            for q2, (u, w) in xs.items():
                if q1 + q2 < precision:
                    re, im = nxt.get(q1 + q2, (0, 0))
                    nxt[q1 + q2] = (re + a * u - b * w, im + a * w + b * u)
        val = {q: z for q, z in nxt.items() if q < precision}
    big = Fraction(tol) ** 2
    return all(re * re + im * im <= big for re, im in val.values())


MILLI = st.integers(-1000, 1000).map(lambda k: k / 1000)


def _branch_radius(parts):
    """Least |rho| at which the monic polynomial with coefficients a + b*rho
    has a multiple root: the root series' radius of convergence.  Below 1
    their coefficients grow like radius^-k, past what a float residual
    can resolve at rho^24."""
    P = np.polynomial.Polynomial
    c = [P([a, b]) for a, b in parts]
    if len(c) == 2:
        d = c[1] ** 2 - 4 * c[0]
    else:
        r, q, p = c
        d = p * p * q * q - 4 * q ** 3 - 4 * p ** 3 * r - 27 * r * r + 18 * p * q * r
    d = d.trim()
    return min(abs(d.roots())) if d.degree() > 0 else INF


class TestNewtonPrecision:
    # criterion-04 polynomials: monic, each lower coefficient a + b*rho with
    # complex a in [-2, 2]^2 and b in [-1, 1]^2; standard-part roots apart,
    # and root series that converge on the unit disc
    @pytest.mark.parametrize("precision", [16, 24])
    @settings(deadline=None, max_examples=30)
    @given(deg=st.sampled_from((2, 3)), data=st.data())
    def test_roots_reach_the_precision_exactly(self, precision, deg, data):
        parts = [(complex(2 * data.draw(MILLI), 2 * data.draw(MILLI)),
                  complex(data.draw(MILLI), data.draw(MILLI))) for _ in range(deg)]
        zs = np.roots([1] + [a for a, _ in reversed(parts)])
        assume(min(abs(z1 - z2) for i, z1 in enumerate(zs) for z2 in zs[i + 1:]) > 0.05)
        assume(_branch_radius(parts) >= 1)
        p = LCPolynomial([LCNumber({Fraction(0): a, Fraction(1): b}, backend="float")
                          for a, b in parts] + [LCNumber.from_scalar(1.0)])
        roots = poly_roots(p, precision=precision)
        assert sum(r.multiplicity for r in roots) == deg
        for r in roots:
            tol = 1e-9 * _poly_scale(p, r.value)
            assert _exact_residual_ok(p, r.value, tol, precision)


class TestWorkCounts:
    @staticmethod
    def _counting(monkeypatch, owner, name, calls):
        orig = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    @pytest.mark.parametrize("below", [INF, Fraction(5, 2)])
    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_horner_makes_one_product_per_degree(self, monkeypatch, backend, below):
        one = Fraction(1) if backend == "rational" else 1.0
        p = LCPolynomial([LCNumber({0: one * (k + 1), Fraction(1, 2): one}, backend=backend)
                          for k in range(5)])
        x = LCNumber({Fraction(1, 2): one, 1: one * 3}, backend=backend)
        want = p(x, below=below)
        calls = []
        for name in ("__mul__", "__rmul__", "__init__"):
            self._counting(monkeypatch, LCNumber, name, calls)
        got = p(x, below=below)
        monkeypatch.undo()
        assert sorted(calls) == ["__mul__"] * p.degree
        assert got.terms == want.terms and got.horizon == want.horizon

    def test_horner_of_a_constant_has_no_negative_zero(self):
        # p(x) = a_0 is returned as a_0, which is 0*x + a_0 bit for bit
        p = LCPolynomial([LCNumber({0: -1j}, backend="float")])
        got = p(LCNumber({1: 2.0}, backend="float")).terms
        assert got == ((0, -1j),) and repr(got[0][1]) == "-1j"

    def test_poly_roots_builds_one_derivative(self, monkeypatch):
        # a generic quartic: four simple roots on one Newton-polygon segment
        rng = random.Random(5)
        p = LCPolynomial([LCNumber({0: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                                    1: complex(rng.uniform(-1, 1), 0)}, backend="float")
                          for _ in range(4)] + [LCNumber.from_scalar(1.0)])
        calls = []
        self._counting(monkeypatch, LCPolynomial, "derivative", calls)
        roots = poly_roots(p)
        monkeypatch.undo()
        assert [r.multiplicity for r in roots] == [1] * 4
        assert all(_residual_ok(p, r) for r in roots)
        assert calls == ["derivative"]


class TestIntervals:
    def test_nested_point(self):
        lo = [LCNumber.from_scalar(Fraction(0), "rational"),
              1 - R, 1 - R ** 2]
        hi = [LCNumber.from_scalar(Fraction(2), "rational"),
              1 + R, 1 + R ** 2]
        pt = nested_interval_point([LCInterval(a, b) for a, b in zip(lo, hi)])
        assert pt.standard_part().value == 1

    def test_bad_nesting_rejected(self):
        one = LCNumber.from_scalar(Fraction(1), "rational")
        with pytest.raises(NestingError):
            nested_interval_point([LCInterval(one * 0, one),
                                   LCInterval(one * 2, one * 3)])
        # callers that catch OrderError still catch it
        assert issubclass(NestingError, OrderError)
