"""Acceptance suite: one criterion per test, one PASS/FAIL line per
criterion (written straight to the terminal, bypassing capture)."""

import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy import integrate

from rhocalc.closure import (LCPolynomial, effective_valuation, inverse,
                             nth_root, poly_roots, sqrt, _poly_scale)
from rhocalc.cli import main as cli_main
from rhocalc.filters import (ClosedForm, EventuallyConstant, Periodic,
                             ae_equal, canonical_nu, exceeds, perturb)
from rhocalc.funcs import (AsymptoticFunction, AsymptoticPoint, CompactBox,
                           ConstProvider, Domain, ExprProvider,
                           NegligibilityMode, OpenBox, eval_at, fn_mul,
                           fn_sub, glue, gradient_constancy, is_moderate,
                           is_negligible, pair, restrict)
from rhocalc.growth import (CHAIN, GrowthOrder, RingFamily, chain_position,
                            in_ideal, in_ring)
from rhocalc.mollify import (DeltaAt, LocallyIntegrableKernel,
                             build_mollifier, convergence_rate,
                             embed_distribution, reference_bump)
from rhocalc.parser import deserialize, serialize
from rhocalc.series import INF, LCNumber
from rhocalc.errors import GlueError


import pytest


@pytest.fixture
def report(capsys):
    """Emit one criterion PASS/FAIL line straight to the terminal
    (pytest's capture would otherwise swallow it on success)."""
    def emit(num: int, name: str, ok: bool, extra: str = ""):
        tail = f"  [{extra}]" if extra else ""
        line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return emit


def _rand_lc(rng, horizon=INF, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        q = Fraction(rng.randint(-4, 8), rng.choice((1, 2)))
        c = Fraction(rng.randint(-5, 5))
        if c:
            terms[q] = c
    return LCNumber(terms, horizon=horizon, backend="rational")


def test_criterion_01_field_laws(report):
    """10^4 random rational-backend numbers at horizon 8: ring laws and
    x * inverse(x) = 1 + O(rho^8), in under 30 s."""
    t0 = time.time()
    rng = random.Random(101)
    nums = [_rand_lc(rng) for _ in range(10_000)]
    ok = True
    for i in range(0, len(nums) - 2, 3):
        x, y, z = nums[i], nums[i + 1], nums[i + 2]
        ok &= (x + y) + z == x + (y + z)
        ok &= x + y == y + x
        ok &= x * y == y * x
        ok &= (x * y) * z == x * (y * z)
        ok &= x * (y + z) == x * y + x * z
    for x in nums[:2000]:
        if x.is_zero():
            continue
        res = x * inverse(x, horizon=Fraction(8) - x.valuation()) - 1
        ok &= res.is_zero() or res.valuation() >= 8
    dt = time.time() - t0
    ok &= dt < 30.0
    report(1, "field laws + inverses", ok, f"{dt:.1f}s")


def test_criterion_02_order_valuation(report):
    """Trichotomy on 10^4 random pairs; v(xy) = v(x)+v(y); v(x+y) >= min
    with equality when the valuations differ."""
    rng = random.Random(202)
    ok = True
    for _ in range(10_000):
        x, y = _rand_lc(rng), _rand_lc(rng)
        ok &= (x < y) + (x == y) + (x > y) == 1
        if not x.is_zero() and not y.is_zero():
            ok &= (x * y).valuation() == x.valuation() + y.valuation()
            s = x + y
            if not s.is_zero():
                ok &= s.valuation() >= min(x.valuation(), y.valuation())
            if x.valuation() != y.valuation():
                ok &= s.valuation() == min(x.valuation(), y.valuation())
    report(2, "order and valuation", ok)


def test_criterion_03_standard_part(report):
    """st is a field homomorphism on finite numbers: exact on the rational
    backend over 10^3 random pairs."""
    rng = random.Random(303)
    ok = True
    count = 0
    while count < 1000:
        x, y = _rand_lc(rng), _rand_lc(rng)
        if x.valuation() < 0 or y.valuation() < 0:
            continue
        count += 1
        sx, sy = x.standard_part().value, y.standard_part().value
        ok &= (x + y).standard_part().value == sx + sy
        ok &= (x - y).standard_part().value == sx - sy
        ok &= (x * y).standard_part().value == sx * sy
        if sy != 0:
            ok &= (x / y).standard_part().value == sx / sy
    report(3, "standard-part homomorphism", ok)


def _rand_coeff(rng):
    return LCNumber({Fraction(0): complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                     Fraction(1): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))},
                    backend="float")


def test_criterion_04_roots_and_closure(report):
    """200 random monic quadratics + 50 cubics: residual valuation >= 8 and
    factor-back termwise error < 1e-8; sqrt/cbrt round-trips hold to the
    requested horizon, in under 10 s."""
    t0 = time.time()
    rng = random.Random(404)
    ok = True
    one = LCNumber.from_scalar(1.0)
    for deg, trials in ((2, 200), (3, 50)):
        for _ in range(trials):
            p = LCPolynomial([_rand_coeff(rng) for _ in range(deg)] + [one])
            roots = poly_roots(p, precision=Fraction(8))
            flat = [r.value for r in roots for _ in range(r.multiplicity)]
            if len(flat) != deg:
                ok = False
                continue
            for r in flat:
                val = p(r)
                tol = 1e-9 * _poly_scale(p, r)
                ok &= val.is_zero() or effective_valuation(val, tol) >= 8
            # factor back: prod (x - r) must reproduce the coefficients
            prod = [one]
            for r in flat:
                nxt = [one * 0] * (len(prod) + 1)
                for k, c in enumerate(prod):
                    nxt[k + 1] = nxt[k + 1] + c
                    nxt[k] = nxt[k] - c * r
                prod = nxt
            scale = max(max((abs(cc) for _, cc in c.terms), default=0.0)
                        for c in p.coeffs)
            for got, want in zip(prod, p.coeffs):
                diff = got - want
                worst = max((abs(cc) for q, cc in diff.terms
                             if q < Fraction(8)), default=0.0)
                ok &= worst < 1e-8 * max(scale, 1.0)
    for _ in range(50):
        x = _rand_coeff(rng)
        s = sqrt(x, horizon=Fraction(8))
        res = s * s - x
        ok &= res.is_zero() or effective_valuation(res, 1e-10) >= res.horizon
        c = nth_root(x, 3, horizon=Fraction(8))
        res = c ** 3 - x
        ok &= res.is_zero() or effective_valuation(res, 1e-10) >= res.horizon
    dt = time.time() - t0
    ok &= dt < 10.0
    report(4, "algebraic closure (roots)", ok, f"{dt:.1f}s")


def test_criterion_05_convex_ring_chain(report):
    """Named example magnitudes land in exactly the advertised rings, and
    membership is monotone along the chain over 10^3 fuzzed orders."""
    ok = True
    ln_rho = GrowthOrder.log_tower(1, 1)             # |ln rho| = log(1/rho)
    ok &= chain_position(ln_rho) is RingFamily.F_RHO
    ok &= not in_ideal(ln_rho, RingFamily.F_RHO)
    for q in (Fraction(-1), Fraction(-3, 2), Fraction(2)):
        g = GrowthOrder.rho_power(q)                 # rho^x
        ok &= in_ring(g, RingFamily.M_RHO) and not in_ideal(g, RingFamily.M_RHO)
    e = GrowthOrder.exp_tower(1, 1)                  # e^{1/rho}
    ok &= chain_position(e) is RingFamily.E_RHO
    ok &= not in_ring(e, RingFamily.M_RHO)
    for k in (2, 3, 4):
        g = GrowthOrder.log_tower(k, 1)              # log_k(1/rho)
        ok &= chain_position(g) is RingFamily.L_RHO
    rng = random.Random(505)
    for _ in range(1000):
        g = GrowthOrder.rho_power(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        if rng.random() < 0.5:
            g = g * GrowthOrder.log_tower(rng.randint(1, 3), rng.randint(-3, 3))
        if rng.random() < 0.3:
            g = g * GrowthOrder.exp_tower(rng.randint(1, 2), rng.randint(-2, 2))
        flags = [in_ring(g, r) for r in CHAIN]
        ok &= flags == sorted(flags)
        ideals = [in_ideal(g, r) for r in CHAIN]
        ok &= ideals == sorted(ideals, reverse=True)
        ok &= all(in_ring(g, r) for r in CHAIN if in_ideal(g, r))
    report(5, "convex-ring chain", ok)


def test_criterion_06_mollifier_moments(report):
    """build_mollifier(n, 1) for n = 0..6: unit mass and vanishing moments
    to 1e-10, in under 5 s (scipy quadrature as the oracle)."""
    t0 = time.time()
    ok = True
    for n in range(7):
        th = build_mollifier(n)
        mass, _ = integrate.quad(lambda x: th.at((x,)), -1, 1,
                                 points=th.quad_hints(), limit=400)
        ok &= abs(mass - 1.0) < 1e-10
        for k in range(1, n + 1):
            mk, _ = integrate.quad(lambda x: x ** k * th.at((x,)), -1, 1,
                                   points=th.quad_hints(), limit=400)
            ok &= abs(mk) < 1e-10
    dt = time.time() - t0
    ok &= dt < 5.0
    report(6, "mollifier moments", ok, f"{dt:.2f}s")


def test_criterion_07_embedding_rate(report):
    """Sup-grid embedding error of f(x)=exp(-x^2)cos(x) on (-3,3) fits
    slope n+1 +- 0.3 for n in {1,2,3}; delta-pairing slope likewise for
    n = 2.  Under 60 s."""
    t0 = time.time()
    dom = Domain.interval(-3.0, 3.0)
    rhos = (1e-1, 3e-2, 1e-2)
    xs = np.linspace(-2.0, 2.0, 161).reshape(-1, 1)
    want = np.exp(-xs[:, 0] ** 2) * np.cos(xs[:, 0])
    spec = LocallyIntegrableKernel(ExprProvider("exp(-x1**2)*cos(x1)", dim=1))
    ok = True
    slopes = []
    for n in (1, 2, 3):
        errs = []
        for rho in rhos:
            emb = embed_distribution(spec, dom, rho, n)
            got = emb.terms[0][1].evaluate(xs).real
            errs.append(float(np.max(np.abs(got - want))))
        slope = float(np.polyfit(np.log(rhos), np.log(errs), 1)[0])
        slopes.append(slope)
        ok &= abs(slope - (n + 1)) <= 0.3
    tau = reference_bump(1, center=0.15, width=0.7)
    res = convergence_rate(DeltaAt((0.0,)), tau, dom, rhos, 2)
    ok &= res.slope is not None and abs(res.slope - 3.0) <= 0.3
    dt = time.time() - t0
    ok &= dt < 60.0
    report(7, "embedding convergence rates", ok,
            f"slopes {slopes[0]:.2f}/{slopes[1]:.2f}/{slopes[2]:.2f}, "
            f"delta {res.slope:.2f}, {dt:.1f}s")


def test_criterion_08_delta_square(report):
    """<embed(delta)^2, tau> * rho / (tau(0) * int Theta^2) in [0.9, 1.1]
    at rho = 1e-2 and 1e-3."""
    dom = Domain.interval(-3.0, 3.0)
    th = build_mollifier(2)
    c2, _ = integrate.quad(lambda x: th.at((x,)) ** 2, -1, 1,
                           points=th.quad_hints(), limit=400)
    tau = reference_bump(1, width=0.9)
    ok = True
    ratios = []
    for rho in (1e-2, 1e-3):
        emb = embed_distribution(DeltaAt((0.0,)), dom, rho, 2)
        got = pair(fn_mul(emb, emb), tau).coefficient(Fraction(0))
        ratio = float((got * rho / (tau.at((0.0,)) * c2)).real)
        ratios.append(ratio)
        ok &= 0.9 <= ratio <= 1.1
    report(8, "delta-squared scaling", ok,
            f"ratios {ratios[0]:.4f}, {ratios[1]:.4f}")


def test_criterion_09_negligibility_modes(report):
    """100 generated asymptotic functions (half negligible by
    construction): the all-derivatives and order-zero-given-moderate tests
    agree on every one."""
    rng = random.Random(909)
    dom = Domain.interval(-3.0, 3.0)
    K = CompactBox((-2.0,), (2.0,))
    exprs = ("sin(x1)", "cos(2*x1)", "x1**2 - 1", "exp(-x1**2)", "x1**3")
    ok = True
    for i in range(100):
        e = rng.choice(exprs)
        q = Fraction(rng.randint(-2, 3))
        f = AsymptoticFunction([(q, ExprProvider(e, dim=1))], dom)
        if i % 2 == 0:
            f = fn_sub(f, f)        # identically zero coefficients
        rep = is_moderate(f, K)
        a = is_negligible(f, K, NegligibilityMode.ALL_DERIVATIVES)
        b = is_negligible(f, K, NegligibilityMode.ORDER_ZERO_GIVEN_MODERATE,
                          moderate_report=rep)
        ok &= a == b == (i % 2 == 0)
    report(9, "negligibility-mode agreement", ok)


def test_criterion_10_sheaf(report):
    """Restriction identities exact; compatible two-box gluing within
    1e-10 of the locals; incompatible locals rejected with a witness."""
    ok = True
    dom = Domain.interval(-3.0, 3.0)
    f = AsymptoticFunction.embed("sin(x1)", dom)
    sub1, sub2 = Domain.interval(-2.0, 2.0), Domain.interval(-1.0, 1.0)
    ok &= restrict(f, dom).terms == f.terms                        # (i)
    ok &= restrict(restrict(f, sub1), sub2).terms == \
        restrict(f, sub2).terms                                    # (ii)
    cover = (OpenBox((0.0,), (2.0,)), OpenBox((1.0,), (3.0,)))
    locs = [AsymptoticFunction.embed("sin(x1)", Domain((b,))) for b in cover]
    g = glue(cover, locs)
    for x in np.linspace(0.05, 2.95, 30):
        got = eval_at(g, AsymptoticPoint((float(x),))).coefficient(Fraction(0))
        ok &= abs(got - math.sin(x)) < 1e-10
    bad = [AsymptoticFunction.embed("sin(x1)", Domain((cover[0],))),
           AsymptoticFunction.embed("sin(x1) + 0.05", Domain((cover[1],)))]
    try:
        glue(cover, bad)
        ok = False
    except GlueError as exc:
        ok &= exc.witness is not None and 1.0 < exc.witness[0] < 2.0
    report(10, "sheaf restriction/gluing", ok)


def test_criterion_11_gradient_constancy(report):
    """50 constant-coefficient functions report Constant with the eval_at
    value; 50 with one live coefficient report NonConstant with a witness
    at which that coefficient's derivative is genuinely nonzero."""
    rng = random.Random(1111)
    dom = Domain.interval(-3.0, 3.0)
    ok = True
    for _ in range(50):
        terms = [(Fraction(rng.randint(-3, 5)),
                  ConstProvider(complex(rng.uniform(-5, 5)), dim=1))
                 for _ in range(rng.randint(1, 3))]
        f = AsymptoticFunction(terms, dom)
        res = gradient_constancy(f)
        ok &= res.is_constant
        if res.is_constant:
            base = f.domain.boxes[0].center()
            ok &= res.constant == eval_at(f, AsymptoticPoint(base),
                                          horizon=Fraction(9))
    live = ("x1", "sin(x1)", "x1**2", "exp(x1)")
    for _ in range(50):
        q0 = Fraction(rng.randint(-3, 5))
        prov = ExprProvider(rng.choice(live), dim=1)
        f = AsymptoticFunction(
            [(q0, prov), (q0 + 1, ConstProvider(1.0, dim=1))], dom)
        res = gradient_constancy(f)
        ok &= not res.is_constant and res.witness is not None
        if res.witness is not None:
            pt, axis, q = res.witness
            ok &= q == q0 and abs(prov.at(pt, (1,))) > 1e-9
    report(11, "gradient constancy", ok)


def test_criterion_12_filter_sandbox(report):
    """canonical_nu exceeds every tested epsilon; decided ae_equal answers
    survive 10^3 random finite-prefix perturbations."""
    ok = True
    nu = canonical_nu()
    for eps in (1, 10 ** 3, 10 ** 9):
        ok &= exceeds(nu, eps).value is True
    rng = random.Random(1212)
    pool = [EventuallyConstant(0), EventuallyConstant(1, prefix=(0, 0)),
            Periodic((0, 1)), Periodic((1,)), nu,
            ClosedForm(lambda i: 7, description="seven",
                       densities={7: "cofinite"})]
    for _ in range(1000):
        a, b = rng.choice(pool), rng.choice(pool)
        before = ae_equal(a, b)
        ch = {rng.randrange(0, 40): rng.randrange(0, 9)
              for _ in range(rng.randint(1, 4))}
        after = ae_equal(perturb(a, ch), perturb(b, ch))
        if before.decided:
            ok &= after.value == before.value
    report(12, "filter sandbox", ok)


def test_criterion_13_cli(report, capsys):
    """The canonical CLI evaluation prints 1/2; serialization round-trips
    exactly on 10^3 random rational series."""
    code = cli_main(["eval", "st((sqrt(1+eps)-1)/eps)"])
    out = capsys.readouterr().out.strip()
    ok = code == 0 and out == "1/2"
    rng = random.Random(1313)
    for _ in range(1000):
        x = _rand_lc(rng, max_terms=5)
        ok &= deserialize(serialize(x)) == x
    report(13, "CLI and round-trip", ok)
