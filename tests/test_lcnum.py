import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rhocalc.errors import BackendError, DimensionError, OrderError
from rhocalc.series import (DUST_REL, INF, ExtendedScalar, Kind, LCNumber,
                            LCVector, format_lc)


def rnum(rng, backend="rational", max_terms=4, horizon=INF):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        q = Fraction(rng.randint(-8, 16), rng.choice((1, 2, 3, 4)))
        if backend == "rational":
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        else:
            c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if c:
            terms[q] = c
    return LCNumber(terms, horizon=horizon, backend=backend)


class TestConstruction:
    def test_scalar_and_rho(self):
        x = LCNumber.from_scalar(Fraction(3, 2), backend="rational")
        assert x.standard_part().value == Fraction(3, 2)
        r = LCNumber.rho(backend="rational")
        assert r.valuation() == 1 and r.leading_coefficient() == 1

    def test_zero_removed(self):
        x = LCNumber({Fraction(1): Fraction(0), Fraction(2): Fraction(1)},
                     backend="rational")
        assert x.support() == (Fraction(2),)

    def test_coefficient_beyond_horizon_raises(self):
        x = LCNumber({Fraction(0): Fraction(1)}, horizon=Fraction(3),
                     backend="rational")
        assert x.coefficient(Fraction(2)) == 0
        with pytest.raises(OrderError):
            x.coefficient(Fraction(3))

    def test_backend_coeff_check(self):
        with pytest.raises(BackendError):
            LCNumber({Fraction(0): 1.5}, backend="rational")


class TestArithmetic:
    def test_horizon_add_is_min(self):
        a = LCNumber({Fraction(0): Fraction(1)}, horizon=Fraction(5), backend="rational")
        b = LCNumber({Fraction(0): Fraction(1)}, horizon=Fraction(3), backend="rational")
        assert (a + b).horizon == Fraction(3)

    def test_horizon_mul_rule(self):
        # h = min(h1 + v2, h2 + v1)
        a = LCNumber({Fraction(-1): Fraction(1)}, horizon=Fraction(5), backend="rational")
        b = LCNumber({Fraction(2): Fraction(1)}, horizon=Fraction(4), backend="rational")
        assert (a * b).horizon == min(Fraction(5) + 2, Fraction(4) - 1)

    def test_horizon_mul_of_observed_zeros(self):
        # x known below rho^-5 shows no terms; its square can still hold
        # rho^-10, so it is known only below rho^-10
        x = LCNumber({Fraction(-5): Fraction(1), Fraction(0): Fraction(1)},
                     backend="rational")
        z = x.truncate(Fraction(-5))
        assert z.is_zero() and (z * z).horizon == -10
        assert (z * x).horizon == -10
        # a product with an exact zero is exactly zero
        assert (z * LCNumber.zero("rational")).horizon == INF

    def test_valuation_rules_fuzz(self):
        rng = random.Random(7)
        for _ in range(400):
            x, y = rnum(rng), rnum(rng)
            if not x.is_zero() and not y.is_zero():
                assert (x * y).valuation() == x.valuation() + y.valuation()
                s = x + y
                if not s.is_zero():
                    assert s.valuation() >= min(x.valuation(), y.valuation())
                if x.valuation() != y.valuation():
                    assert s.valuation() == min(x.valuation(), y.valuation())

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(9)
        for _ in range(50):
            x = rnum(rng, max_terms=3)
            p = LCNumber.from_scalar(Fraction(1), backend="rational")
            for k in range(5):
                assert x ** k == p
                p = p * x

    def test_division_roundtrip(self):
        x = LCNumber({Fraction(0): Fraction(2), Fraction(1): Fraction(1)},
                     backend="rational")
        y = x / x
        assert y.standard_part().value == 1
        assert (y - 1).is_zero() or (y - 1).valuation() >= y.horizon

    def test_float_dust_preserves_geometric_tail(self):
        # 1/(1 - rho) keeps its full geometric tail even after scaling games
        x = LCNumber({Fraction(0): 1.0, Fraction(1): -1.0}, backend="float")
        inv = 1 / x
        for k in range(8):
            assert inv.coefficient(Fraction(k)) == pytest.approx(1.0, rel=1e-12)


class TestOrderAndKind:
    def test_sign_and_trichotomy(self):
        r = LCNumber.rho(backend="rational")
        assert r > 0 and (-r) < 0 and r < Fraction(1, 10 ** 12)
        assert 1 / r > 10 ** 12

    def test_ordering_float_raises(self):
        x = LCNumber.from_scalar(1.0)
        with pytest.raises(BackendError):
            _ = x < x

    def test_kinds(self):
        r = LCNumber.rho(backend="rational")
        assert r.kind() is Kind.INFINITESIMAL
        assert (1 + r).kind() is Kind.FINITE
        assert (1 / r).kind() is Kind.INFINITE
        assert LCNumber.zero("rational").kind() is Kind.ZERO

    def test_standard_part(self):
        r = LCNumber.rho(backend="rational")
        assert (3 + r).standard_part().value == 3
        assert (1 / r).standard_part() == ExtendedScalar.pos_inf()
        assert (-1 / r).standard_part() == ExtendedScalar.neg_inf()
        x = LCNumber({Fraction(-1): 1j}, backend="float")
        assert x.standard_part() == ExtendedScalar.complex_inf()

    def test_monad_galaxy(self):
        r = LCNumber.rho(backend="rational")
        assert (1 + r).same_monad(1 + r * r)
        assert not (1 + r).same_monad(2 + r)
        assert (1 / r).same_galaxy(1 / r + 5)
        assert not (1 / r).same_galaxy(1 / (r * r))

    def test_vnorm(self):
        r = LCNumber.rho(backend="rational")
        assert r.vnorm() < 1 < (1 / r).vnorm()
        assert LCNumber.zero("rational").vnorm() == 0.0


class TestFormatting:
    def test_format(self):
        x = LCNumber({Fraction(-2): Fraction(3), Fraction(0): Fraction(1),
                      Fraction(1, 2): Fraction(5)}, backend="rational")
        assert format_lc(x) == "3*r^-2 + 1 + 5*r^(1/2)"


class TestVector:
    def test_sup_valuation(self):
        r = LCNumber.rho(backend="rational")
        v = LCVector([r, r * r, LCNumber.zero("rational")])
        assert v.valuation() == 1
        assert (v + v)[0] == 2 * r
        assert v.scale(r)[1] == r ** 3

    def test_dimension_mismatch_is_typed(self):
        r = LCNumber.rho(backend="rational")
        a, b = LCVector([r]), LCVector([r, r])
        for op in (a.__add__, a.__sub__):
            with pytest.raises(DimensionError):
                op(b)
        # callers that catch OrderError still catch it
        assert issubclass(DimensionError, OrderError)


class TestInfinity:
    def test_huge_exponents_are_real(self):
        x = LCNumber.rho(2 * 10 ** 9, backend="rational")
        assert not x.is_zero() and x.valuation() == 2 * 10 ** 9
        assert (x * x).valuation() == 4 * 10 ** 9
        assert INF > Fraction(10 ** 100)

    def test_unhashable(self):
        # 1 + rho^(1/2) and 1 known below rho^(1/4) agree on their joint
        # window, 1 and 1 + rho^(1/2) exact do not: == is not transitive
        a = LCNumber({0: Fraction(1), Fraction(1, 2): Fraction(1)}, backend="rational")
        b = LCNumber({0: Fraction(1)}, horizon=Fraction(1, 4), backend="rational")
        assert a == b
        with pytest.raises(TypeError):
            hash(a)
        with pytest.raises(TypeError):
            {a, b}


# -- the kernel against the Fraction-keyed accumulation it replaced ---------

def ref_add(x, y):
    h = min(x.horizon, y.horizon)
    acc, mag = {}, {}
    for q, c in x.terms + y.terms:
        if q < h:
            acc[q] = acc.get(q, 0 if x.backend.value == "rational" else 0j) + c
            mag[q] = max(mag.get(q, 0.0), abs(c))
    return _ref_clean(x, acc, mag), h


def ref_mul(x, y):
    # a factor with no known terms leads at its horizon at the earliest
    v1 = x.valuation() if x.terms else x.horizon
    v2 = y.valuation() if y.terms else y.horizon
    h = INF
    if x.horizon != INF:
        h = min(h, x.horizon + v2)
    if y.horizon != INF:
        h = min(h, y.horizon + v1)
    acc, mag = {}, {}
    for q1, c1 in x.terms:
        for q2, c2 in y.terms:
            q = q1 + q2
            if q < h:
                p = c1 * c2
                acc[q] = acc.get(q, 0) + p
                mag[q] = max(mag.get(q, 0.0), abs(p))
    return _ref_clean(x, acc, mag), h


def _ref_clean(x, acc, mag):
    if x.backend.value == "rational":
        kept = [(q, c) for q, c in acc.items() if c != 0]
    else:
        kept = [(q, c) for q, c in acc.items() if abs(c) > DUST_REL * mag[q]]
    return tuple(sorted(kept, key=lambda t: t[0]))


# denominators 1..12; numerators near 0 or beyond 10^12, so that large
# exponents still meet in sums and products
EXPS = st.builds(lambda n, big, d: Fraction(n + big, d),
                 st.integers(-30, 30), st.sampled_from((0, 10 ** 13, -10 ** 13)),
                 st.integers(1, 12))
RAT_COEFFS = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
# few distinct magnitudes, so sums cancel exactly and leave float dust
FLOAT_COEFFS = st.builds(complex, st.sampled_from((1.0, -1.0, 0.1, -0.3, 1e-14, 2.5)),
                         st.sampled_from((0.0, 0.2, -0.7, 1e-15)))
HORIZONS = st.one_of(st.just(INF), EXPS)


@st.composite
def lcnums(draw, backend):
    coeffs = RAT_COEFFS if backend == "rational" else FLOAT_COEFFS
    terms = draw(st.dictionaries(EXPS, coeffs, max_size=6))
    # a horizon just above a term puts that term right below the bound
    above = st.builds(lambda q, m: q + Fraction(1, m),
                      st.sampled_from(sorted(terms) or [Fraction(0)]),
                      st.sampled_from((2, 7, 10 ** 6)))
    h = draw(st.one_of(st.just(INF), EXPS, above))
    return LCNumber(terms, horizon=h, backend=backend)


def same(got, want):
    return got.terms == want[0] and got.horizon == want[1]


class TestKernel:
    @settings(deadline=None)
    @given(st.data(), st.sampled_from(("rational", "float")))
    def test_matches_fraction_reference(self, data, backend):
        x, y = data.draw(lcnums(backend)), data.draw(lcnums(backend))
        assert same(x + y, ref_add(x, y))
        assert same(x * y, ref_mul(x, y))
        assert same(x - y, ref_add(x, -y))

    @settings(deadline=None)
    @given(lcnums("rational"), lcnums("rational"), lcnums("rational"))
    def test_ring_laws(self, x, y, z):
        for a, b in ((x + y, y + x), (x * y, y * x)):
            assert a.terms == b.terms and a.horizon == b.horizon
        assert x * (y + z) == x * y + x * z

    @settings(deadline=None)
    @given(st.data(), st.sampled_from(("rational", "float")))
    def test_valuation_is_additive(self, data, backend):
        x, y = data.draw(lcnums(backend)), data.draw(lcnums(backend))
        if not x.is_zero() and not y.is_zero():
            v = x.valuation() + y.valuation()
            assert (x * y).valuation() == (v if v < (x * y).horizon else INF)

    @settings(deadline=None)
    @given(lcnums("rational"), lcnums("rational"), HORIZONS, HORIZONS)
    def test_horizon_soundness(self, x, y, h1, h2):
        # terms a truncated computation reports are those of the exact one
        X, Y = LCNumber(x.terms, backend="rational"), LCNumber(y.terms, backend="rational")
        a, b = X.truncate(h1), Y.truncate(h2)
        for got, exact in ((a + b, X + Y), (a * b, X * Y)):
            assert got.terms == exact.truncate(got.horizon).terms
