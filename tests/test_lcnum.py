import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rhocalc import parser
from rhocalc.errors import BackendError, DimensionError, OrderError
from rhocalc.series import (DUST_REL, INF, ExtendedScalar, Kind, LCNumber,
                            LCVector, _product_horizon, _times_monomial, format_lc,
                            lc_sum)


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


class TestFloatOverflow:
    def test_sum_product_and_scaling_refuse_overflow(self):
        x = LCNumber({0: 1e200, 1: 1.0}, backend="float")
        y = LCNumber({0: 1e308, 1: 1.0}, backend="float")
        with pytest.raises(BackendError):
            x * x
        with pytest.raises(BackendError):
            y + y
        with pytest.raises(BackendError):
            _times_monomial(x, x.terms, 1, 1e200, INF)

    @pytest.mark.parametrize("c", [float("inf"), complex(0, float("nan")), 10 ** 400],
                             ids=["inf", "nan", "10^400"])
    def test_constructor_refuses_non_finite_input(self, c):
        with pytest.raises(BackendError):
            LCNumber({0: c}, backend="float")

    @pytest.mark.parametrize("c", [-1j, complex(-0.0, 2.0)])
    def test_constructor_keeps_no_negative_zero_part(self, c):
        for x in (LCNumber({0: c}, backend="float"), LCNumber.from_scalar(c)):
            assert math.copysign(1.0, x.terms[0][1].real) == 1.0


# coefficients 1e-200 .. 1e200: pair products underflow, overflow, or land
# anywhere in between
WIDE_COEFFS = st.builds(lambda s, m, e: s * m * 10.0 ** e, st.sampled_from((1, -1)),
                        st.sampled_from((1.0, 2.5, 7.0)), st.integers(-200, 200))
SMALL_EXPS = st.builds(Fraction, st.integers(-3, 6), st.sampled_from((1, 2)))


class TestFloatUnderflow:
    def test_product_that_underflows_cuts_the_horizon(self):
        x = LCNumber({1: 1e-200}, backend="float")
        for sq in (x * x, x ** 2):
            assert sq.terms == () and sq.horizon <= 2
        y = LCNumber({0: 1e-200, 2: 1.0}, backend="float")
        assert (y * y).horizon <= 0

    def test_overflow_past_an_underflow_cut_is_refused(self):
        # the rho^0 coefficient underflows, the rho^2 one is 1e400
        x = LCNumber({0: 1e-200, 1: 1e200}, backend="float")
        with pytest.raises(BackendError):
            x * x
        with pytest.raises(BackendError):
            x ** 2

    @settings(deadline=None, max_examples=300)
    @given(st.dictionaries(SMALL_EXPS, WIDE_COEFFS, min_size=1, max_size=5),
           st.dictionaries(SMALL_EXPS, WIDE_COEFFS, min_size=1, max_size=5))
    def test_product_horizon_is_sound_at_every_magnitude(self, xt, yt):
        x, y = LCNumber(xt, backend="float"), LCNumber(yt, backend="float")
        exact, mag, pairs = {}, {}, {}
        for q1, c1 in xt.items():
            for q2, c2 in yt.items():
                q, p = q1 + q2, Fraction(c1) * Fraction(c2)
                exact[q] = exact.get(q, 0) + p
                mag[q] = max(mag.get(q, 0), abs(p))
                pairs[q] = pairs.get(q, 0) + 1
        try:
            got = x * y
        except BackendError:
            # refused as an overflow: a pair product, or a sum of them, is
            # out of the double range
            assert max(mag.values()) * max(pairs.values()) * 2 > sys.float_info.max
            return
        # and every pair product that overflows is refused, at any exponent
        assert max(mag.values()) <= 2 * Fraction(sys.float_info.max)
        # v(xy) = v(x) + v(y) below the horizon: the lead is one nonzero pair
        v = min(xt) + min(yt)
        assert v >= got.horizon or got.valuation() == v
        # every coefficient below the horizon is the exact one up to roundoff
        # of what was summed there (and to the subnormal spacing)
        g = dict(got.terms)
        for q, e in exact.items():
            if q < got.horizon:
                err = abs(Fraction(g.get(q, 0j).real) - e)
                assert err <= Fraction(1e-12) * mag[q] + pairs[q] * Fraction(2.0 ** -1074)


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
# small coefficients, so that sums cancel exactly, and numerators near
# +-10^30 over large coprime denominators, so that the integer numerators
# of a product run far past machine words
RAT_COEFFS = st.one_of(
    st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)),
    st.builds(lambda s, n, d: Fraction(s * 10 ** 30 + n, d), st.sampled_from((1, -1)),
              st.integers(-1000, 1000), st.sampled_from((2, 3, 101, 7919, 104729, 611953, 999983))))
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


@st.composite
def close_pairs(draw, backend):
    """Two numbers that share a run of leading terms and then differ, with
    horizons anywhere, including just above the first differing term."""
    coeffs = RAT_COEFFS if backend == "rational" else FLOAT_COEFFS
    common = draw(st.dictionaries(EXPS, coeffs, max_size=5))
    xt, yt = dict(common), dict(common)
    for t in (xt, yt):
        t.update(draw(st.dictionaries(EXPS, coeffs, max_size=2)))
    if common:
        # a nudged shared coefficient: on the float backend 1e-15 is dust
        # next to a unit coefficient, not next to 1e-14
        q = draw(st.sampled_from(sorted(common)))
        nudge = (Fraction(1, 10 ** 6) if backend == "rational"
                 else draw(st.sampled_from((1e-15, 1e-14j, 1e-3))))
        yt[q] = xt[q] + nudge
    diff = sorted(q for q in set(xt) | set(yt) if xt.get(q) != yt.get(q)) or [Fraction(0)]
    above = st.builds(lambda q, m: q + Fraction(1, m), st.sampled_from(diff),
                      st.sampled_from((2, 10 ** 6)))
    hs = st.one_of(st.just(INF), EXPS, above)
    return (LCNumber(xt, horizon=draw(hs), backend=backend),
            LCNumber(yt, horizon=draw(hs), backend=backend))


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
    @given(st.data(), st.sampled_from(("rational", "float")))
    def test_fused_sub(self, data, backend):
        # the fused difference is the sum with the negation, float
        # coefficients included
        x, y = data.draw(lcnums(backend)), data.draw(lcnums(backend))
        for got, want in ((x - y, x + (-y)), (3 - y, (-y) + 3)):
            assert got.terms == want.terms and got.horizon == want.horizon

    @settings(deadline=None)
    @given(st.data(), st.sampled_from(("rational", "float")))
    def test_order_matches_difference(self, data, backend):
        x, y = data.draw(close_pairs(backend))
        d = ref_add(x, -y)[0]      # the difference the order used to build
        lead = d[0] if d else None
        assert (x == y) is (lead is None)
        assert x.same_monad(y) is (lead is None or lead[0] > 0)
        assert x.same_galaxy(y) is (lead is None or lead[0] >= 0)
        if backend == "rational":
            neg, pos = lead is not None and lead[1] < 0, lead is not None and lead[1] > 0
            assert (x < y, x <= y, x > y, x >= y) == (neg, not pos, pos, not neg)

    @settings(deadline=None)
    @given(st.data(), st.sampled_from(("rational", "float")), st.integers(1, 5))
    def test_nary_sum_matches_fold(self, data, backend, n):
        xs = [data.draw(lcnums(backend)) for _ in range(n)]
        signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        got = lc_sum(zip(signs, xs))
        fold = xs[0] if signs[0] > 0 else -xs[0]
        for s, x in zip(signs[1:], xs[1:]):
            fold = fold + x if s > 0 else fold - x
        assert got.horizon == fold.horizon
        if backend == "rational":
            assert got.terms == fold.terms
            return
        # the fold sweeps dust after every step, the sum once: they agree to
        # a small multiple of DUST_REL times what was summed at an exponent
        g, f, scale = dict(got.terms), dict(fold.terms), {}
        for x in xs:
            for q, c in x.terms:
                scale[q] = scale.get(q, 0.0) + abs(c)
        for q in set(g) | set(f):
            assert abs(g.get(q, 0) - f.get(q, 0)) <= 1e-12 * scale[q]

    @settings(deadline=None)
    @given(st.data(), st.sampled_from(("rational", "float")))
    def test_product_horizon_is_the_rule(self, data, backend):
        # min(h1 + v2, h2 + v1), a factor with no terms leading at its
        # horizon; INF for two exact factors
        x, y = data.draw(lcnums(backend)), data.draw(lcnums(backend))
        x, y = data.draw(st.sampled_from((x, LCNumber((), x.horizon, backend)))), \
            data.draw(st.sampled_from((y, LCNumber((), y.horizon, backend))))
        v1 = x.terms[0][0] if x.terms else x.horizon
        v2 = y.terms[0][0] if y.terms else y.horizon
        assert _product_horizon(x, y) == min(x.horizon + v2, y.horizon + v1)

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_truncate_at_or_past_the_horizon_is_the_number(self, backend):
        x = LCNumber({0: 1, Fraction(1, 2): 2, Fraction(5, 2): 3}, horizon=3, backend=backend)
        for h in (3, Fraction(7, 2), 10 ** 30, INF):
            assert x.truncate(h) is x
        e = LCNumber({0: 1}, backend=backend)
        assert e.truncate(INF) is e
        cut = x.truncate(Fraction(5, 2))
        assert cut.terms == x.terms[:2] and cut.horizon == Fraction(5, 2)
        with pytest.raises(OrderError):
            x.truncate("a")
        with pytest.raises(OrderError):
            e.truncate("a")

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


# -- work counts --------------------------------------------------------------

class _CountingTerms(tuple):
    """A term tuple that counts the terms read from it."""
    reads = 0

    def __getitem__(self, i):
        _CountingTerms.reads += 1
        return tuple.__getitem__(self, i)

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


def _count_calls(monkeypatch, names):
    calls = []
    for name in names:
        orig = getattr(LCNumber, name)

        def counting(self, other, orig=orig, name=name):
            calls.append(name)
            return orig(self, other)
        monkeypatch.setattr(LCNumber, name, counting)
    return calls


class TestWorkCounts:
    def test_parser_sums_in_one_pass(self, monkeypatch):
        rng = random.Random(3)
        terms = {Fraction(k, 7): Fraction(rng.randint(-9, 9) or 1, 5)
                 for k in rng.sample(range(-14, 200), 128)}
        text = " + ".join(f"({c})*eps^({q})" for q, c in terms.items())
        text += " - (1/2)*eps^(100)"
        want = LCNumber(terms, backend="rational") - LCNumber.rho(100, "rational") * Fraction(1, 2)
        calls = _count_calls(monkeypatch, ("__add__", "__radd__", "__sub__", "__rsub__"))
        got = parser.evaluate(parser.parse(text))
        assert calls == []
        monkeypatch.undo()
        assert got.terms == want.terms and got.horizon == INF

    def test_comparison_reads_leading_terms_only(self, monkeypatch):
        rng = random.Random(4)
        a = LCNumber({Fraction(k, 3): Fraction(rng.randint(1, 9), 2) for k in range(128)},
                     backend="rational")
        y = LCNumber({Fraction(k, 7): Fraction(rng.randint(1, 9), 5) for k in range(-1, 6000)},
                     backend="rational")
        y.terms, a.terms = _CountingTerms(y.terms), _CountingTerms(a.terms)
        calls = _count_calls(monkeypatch, ("__add__", "__radd__", "__sub__", "__rsub__"))
        # y - a leads with y's positive term at rho^(-1/7): each answer reads
        # a few terms
        for op, want in ((a.__lt__, True), (y.__lt__, False), (y.__ge__, True),
                         (y.__eq__, False), (y.same_galaxy, False), (a.same_monad, False)):
            _CountingTerms.reads = 0
            assert op(a if op.__self__ is y else y) is want
            assert _CountingTerms.reads <= 4
        assert calls == []
