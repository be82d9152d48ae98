"""Asymptotic generalized functions in canonical series form.

An :class:`AsymptoticFunction` is a finite sum  Σ a_q(x)·rho^q  of smooth
coefficient functions weighted by rational powers of the scale parameter,
over a domain given as a finite union of open boxes.  The module supplies
the differential-ring operations, pointwise values on monads (Taylor
expansion in infinitesimal offsets), moderateness/negligibility tests by
grid sups with refinement-based growth detection, the pairing against
test functions, weak equality, sheaf operations (restrict / support /
glue with a constructed smooth partition of unity), and the
gradient-characterization of constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (ConnectivityError, DerivativeOrderError, DomainError,
                     GlueError, ModeError, ProviderError)
from .series import INF, LCNumber, LCVector, _as_exp, _product_horizon

NEGLIGIBLE_RTOL = 1e-10   # grid-sup below this fraction of the function's
                          # scale on K counts as the zero coefficient
GROWTH_RATIO = 8.0        # grid-sup inflation under one refinement step
                          # that flags an unbounded coefficient


# ---------------------------------------------------------------------------
# Geometry: open boxes and their finite unions
# ---------------------------------------------------------------------------

def _as_points(points) -> np.ndarray:
    """``points`` as an (N, d) float array; a flat array is N points in
    dimension 1."""
    pts = np.asarray(points, dtype=float)
    return pts[:, None] if pts.ndim == 1 else pts


def _mesh(axes) -> np.ndarray:
    """The tensor grid of the 1-D ``axes`` as (N, d) points, the last axis
    running fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass(frozen=True)
class OpenBox:
    lo: Tuple[float, ...]
    hi: Tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not self.lo:
            raise DomainError("box endpoints must share a positive dimension")
        if any(a >= b for a, b in zip(self.lo, self.hi)):
            raise DomainError("box must have positive extent in every axis")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, p: Sequence[float]) -> bool:
        return all(a < x < b for a, x, b in zip(self.lo, p, self.hi))

    def overlaps(self, other: "OpenBox") -> bool:
        return all(max(a1, a2) < min(b1, b2) for a1, b1, a2, b2
                   in zip(self.lo, self.hi, other.lo, other.hi))

    def intersect(self, other: "OpenBox") -> Optional["OpenBox"]:
        lo = tuple(max(a1, a2) for a1, a2 in zip(self.lo, other.lo))
        hi = tuple(min(b1, b2) for b1, b2 in zip(self.hi, other.hi))
        return OpenBox(lo, hi) if all(a < b for a, b in zip(lo, hi)) else None

    def inside(self, other: "OpenBox") -> bool:
        return all(a2 <= a1 and b1 <= b2 for a1, b1, a2, b2
                   in zip(self.lo, self.hi, other.lo, other.hi))

    def grid(self, per_axis: int) -> np.ndarray:
        """Interior sample grid, shape (per_axis^d, d)."""
        return _mesh([np.linspace(a, b, per_axis + 2)[1:-1]
                      for a, b in zip(self.lo, self.hi)])

    def center(self) -> Tuple[float, ...]:
        return tuple((a + b) / 2 for a, b in zip(self.lo, self.hi))


@dataclass(frozen=True)
class Domain:
    """Finite union of open boxes of one dimension."""

    boxes: Tuple[OpenBox, ...]

    def __init__(self, boxes: Iterable[OpenBox]):
        bs = tuple(boxes)
        if not bs:
            raise DomainError("empty domain")
        d = bs[0].dim
        if any(b.dim != d for b in bs):
            raise DomainError("mixed dimensions in one domain")
        object.__setattr__(self, "boxes", bs)

    @staticmethod
    def interval(a: float, b: float) -> "Domain":
        return Domain([OpenBox((a,), (b,))])

    @staticmethod
    def box(lo, hi) -> "Domain":
        return Domain([OpenBox(tuple(lo), tuple(hi))])

    @property
    def dim(self) -> int:
        return self.boxes[0].dim

    def contains(self, p: Sequence[float]) -> bool:
        return any(b.contains(p) for b in self.boxes)

    def covers(self, other: "Domain") -> bool:
        # sufficient check: every box of ``other`` sits inside one box here
        return all(any(ob.inside(b) for b in self.boxes) for ob in other.boxes)

    def intersect(self, other: "Domain") -> "Domain":
        out = [r for a in self.boxes for b in other.boxes
               if (r := a.intersect(b)) is not None]
        if not out:
            raise DomainError("empty domain intersection")
        return Domain(out)

    def is_connected(self) -> bool:
        n = len(self.boxes)
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for j in range(n):
                if j not in seen and self.boxes[i].overlaps(self.boxes[j]):
                    seen.add(j)
                    frontier.append(j)
        return len(seen) == n

    def sample(self, per_axis: int) -> np.ndarray:
        return np.concatenate([b.grid(per_axis) for b in self.boxes], axis=0)


@dataclass(frozen=True)
class CompactBox:
    """Closed sampling box K with its grid resolution, for K ⊂⊂ Ω tests."""

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]
    resolution: int = 24

    @property
    def dim(self) -> int:
        return len(self.lo)

    def inside(self, dom: Domain) -> bool:
        return any(all(a2 <= a1 and b1 <= b2 for a1, b1, a2, b2
                       in zip(self.lo, self.hi, b.lo, b.hi))
                   for b in dom.boxes)

    def grid(self, per_axis: Optional[int] = None) -> np.ndarray:
        n = per_axis or self.resolution
        return _mesh([np.linspace(a, b, n) for a, b in zip(self.lo, self.hi)])


# ---------------------------------------------------------------------------
# Smooth coefficient providers
# ---------------------------------------------------------------------------

def _alpha_tuple(alpha, dim: int) -> Tuple[int, ...]:
    """The multi-index ``alpha`` as a d-tuple; None is order zero."""
    if alpha is None:
        return (0,) * dim
    if isinstance(alpha, int):
        if dim != 1:
            raise DerivativeOrderError("integer multi-index only in dimension 1")
        alpha = (alpha,)
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != dim or any(a < 0 for a in alpha):
        raise DerivativeOrderError(f"bad multi-index {alpha} for dimension {dim}")
    return alpha


class SmoothProvider:
    """C^infinity coefficient function: vectorized evaluation of any
    partial derivative."""

    dim: int = 1

    def evaluate(self, points: np.ndarray, alpha=None) -> np.ndarray:
        """points: (N, d) array; returns (N,) array of ∂^alpha values."""
        raise NotImplementedError

    def derivative(self, alpha) -> "SmoothProvider":
        return DerivedProvider(self, _alpha_tuple(alpha, self.dim))

    def at(self, point: Sequence[float], alpha=None):
        return complex(self.evaluate(np.asarray([point], dtype=float), alpha)[0])


class ExprProvider(SmoothProvider):
    """Sympy-expression coefficient with cached lambdified derivatives.
    With ``dim`` given and every free symbol among x1..xd, xi is axis i;
    other free symbols take the axes in sorted order.  sympy is imported
    here, when the first one is built, not with the module."""

    def __init__(self, expr, symbols=None, dim: Optional[int] = None):
        import sympy as sp
        expr = sp.sympify(expr)
        if symbols is None:
            free = {s.name: s for s in expr.free_symbols}
            axes = [f"x{i+1}" for i in range(dim or 0)]
            if axes and free.keys() <= set(axes):
                symbols = [free.get(a, sp.Symbol(a)) for a in axes]
            else:
                symbols = [free[n] for n in sorted(free)] or [sp.Symbol("x")]
        self.symbols = list(symbols)
        self.expr = expr
        self.dim = max(len(self.symbols), dim or 1)
        if len(self.symbols) < self.dim:
            self.symbols += [sp.Symbol(f"_pad{i}") for i in range(self.dim - len(self.symbols))]
        self._fns: Dict[Tuple[int, ...], Callable] = {}

    def _diff(self, alpha: Tuple[int, ...]):
        """The sympy expression of ∂^alpha."""
        import sympy as sp
        e = self.expr
        for s, k in zip(self.symbols, alpha):
            if k:
                e = sp.diff(e, s, k)
        return e

    def _fn(self, alpha: Tuple[int, ...]):
        if alpha not in self._fns:
            import sympy as sp
            self._fns[alpha] = sp.lambdify(self.symbols, self._diff(alpha), modules=["numpy"])
        return self._fns[alpha]

    def evaluate(self, points: np.ndarray, alpha=None) -> np.ndarray:
        a = _alpha_tuple(alpha, self.dim)
        pts = _as_points(points)
        with np.errstate(all="ignore"):
            out = self._fn(a)(*[pts[:, i] for i in range(self.dim)])
        return np.broadcast_to(np.asarray(out), (pts.shape[0],)).astype(complex)

    def derivative(self, alpha) -> "ExprProvider":
        return ExprProvider(self._diff(_alpha_tuple(alpha, self.dim)),
                            symbols=self.symbols, dim=self.dim)


class ConstProvider(ExprProvider):
    def __init__(self, value, dim: int = 1):
        super().__init__(value, dim=dim)


class SumProvider(SmoothProvider):
    def __init__(self, parts: Sequence[SmoothProvider], weights=None):
        self.parts = list(parts)
        self.weights = list(weights) if weights is not None else [1.0] * len(self.parts)
        self.dim = self.parts[0].dim

    def evaluate(self, points, alpha=None):
        a = _alpha_tuple(alpha, self.dim)
        out = None
        for w, p in zip(self.weights, self.parts):
            v = w * p.evaluate(points, a)
            out = v if out is None else out + v
        return out

    def derivative(self, alpha):
        a = _alpha_tuple(alpha, self.dim)
        return SumProvider([p.derivative(a) for p in self.parts], self.weights)


class ProductProvider(SmoothProvider):
    """Product of two providers; derivatives via the Leibniz rule."""

    def __init__(self, f: SmoothProvider, g: SmoothProvider):
        if f.dim != g.dim:
            raise ProviderError("product of providers of different dimension")
        self.f, self.g = f, g
        self.dim = f.dim

    def evaluate(self, points, alpha=None):
        a = _alpha_tuple(alpha, self.dim)
        out = None
        ranges = [range(k + 1) for k in a]
        for beta in itertools.product(*ranges):
            c = 1.0
            for k, b in zip(a, beta):
                c *= math.comb(k, b)
            v = c * self.f.evaluate(points, beta) * \
                self.g.evaluate(points, tuple(k - b for k, b in zip(a, beta)))
            out = v if out is None else out + v
        return out


class DerivedProvider(SmoothProvider):
    """A provider pre-composed with a fixed partial derivative."""

    def __init__(self, base: SmoothProvider, alpha: Tuple[int, ...]):
        self.base = base
        self.alpha = alpha
        self.dim = base.dim

    def evaluate(self, points, alpha=None):
        a = _alpha_tuple(alpha, self.dim)
        return self.base.evaluate(points, tuple(x + y for x, y in zip(a, self.alpha)))

    def derivative(self, alpha):
        a = _alpha_tuple(alpha, self.dim)
        return DerivedProvider(self.base, tuple(x + y for x, y in zip(a, self.alpha)))


class CallableProvider(SmoothProvider):
    """Numeric provider: ``fn(points, alpha)`` gives ∂^alpha on an (N, d)
    array of points; ``quad_hints`` are breakpoints for ``pair``."""

    def __init__(self, fn: Callable, dim: int = 1, quad_hints: Sequence[float] = ()):
        self.fn = fn
        self.dim = dim
        self.quad_hints = list(quad_hints)

    def evaluate(self, points, alpha=None):
        pts = _as_points(points)
        out = self.fn(pts, _alpha_tuple(alpha, self.dim))
        return np.asarray(out, dtype=complex).reshape(pts.shape[0])


# ---------------------------------------------------------------------------
# Asymptotic points (monads)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticPoint:
    base: Tuple[float, ...]
    offset: Optional[LCVector] = None  # None = standard point, zero offset

    def __post_init__(self):
        if self.offset is not None:
            if len(self.offset) != len(self.base):
                raise DomainError("offset dimension mismatch")
            for c in self.offset.entries:
                if not c.is_infinitesimal():
                    raise DomainError("monad offsets must be infinitesimal")

    @property
    def dim(self) -> int:
        return len(self.base)


# ---------------------------------------------------------------------------
# The algebra
# ---------------------------------------------------------------------------

class AsymptoticFunction:
    """Canonical form Σ a_q(x) rho^q with strictly increasing exponents."""

    __slots__ = ("terms", "horizon", "domain")

    def __init__(self, terms: Iterable[Tuple[object, SmoothProvider]],
                 domain: Domain, horizon=INF):
        horizon = _as_exp(horizon) if horizon != INF else INF
        acc: Dict[Fraction, List[SmoothProvider]] = {}
        for q, prov in terms:
            q = _as_exp(q)
            if q >= horizon:
                continue
            acc.setdefault(q, []).append(prov)
        out = []
        for q in sorted(acc):
            provs = acc[q]
            prov = provs[0] if len(provs) == 1 else SumProvider(provs)
            if prov.dim != domain.dim:
                raise DomainError("coefficient dimension does not match the domain")
            out.append((q, prov))
        self.terms = tuple(out)
        self.horizon = horizon
        self.domain = domain

    # -- constructors --------------------------------------------------
    @staticmethod
    def embed(expr, domain: Domain) -> "AsymptoticFunction":
        """Embedding of a smooth standard function as a single rho^0 term."""
        prov = expr if isinstance(expr, SmoothProvider) else \
            ExprProvider(expr, dim=domain.dim)
        return AsymptoticFunction([(Fraction(0), prov)], domain)

    @staticmethod
    def zero(domain: Domain, horizon=INF) -> "AsymptoticFunction":
        return AsymptoticFunction([], domain, horizon)

    def valuation(self) -> Fraction:
        return self.terms[0][0] if self.terms else INF


def fn_add(f: AsymptoticFunction, g: AsymptoticFunction) -> AsymptoticFunction:
    dom = f.domain if f.domain is g.domain else f.domain.intersect(g.domain)
    h = min(f.horizon, g.horizon)
    return AsymptoticFunction(list(f.terms) + list(g.terms), dom, h)


def fn_scale(f: AsymptoticFunction, c) -> AsymptoticFunction:
    return AsymptoticFunction(
        [(q, SumProvider([p], [complex(c)])) for q, p in f.terms],
        f.domain, f.horizon)


def fn_neg(f: AsymptoticFunction) -> AsymptoticFunction:
    return fn_scale(f, -1)


def fn_sub(f: AsymptoticFunction, g: AsymptoticFunction) -> AsymptoticFunction:
    return fn_add(f, fn_neg(g))


def fn_mul(f: AsymptoticFunction, g: AsymptoticFunction) -> AsymptoticFunction:
    dom = f.domain if f.domain is g.domain else f.domain.intersect(g.domain)
    terms = [(q1 + q2, ProductProvider(p1, p2))
             for q1, p1 in f.terms for q2, p2 in g.terms]
    return AsymptoticFunction(terms, dom, _product_horizon(f, g))


def fn_derive(f: AsymptoticFunction, alpha) -> AsymptoticFunction:
    a = _alpha_tuple(alpha, f.domain.dim)
    return AsymptoticFunction([(q, p.derivative(a)) for q, p in f.terms],
                              f.domain, f.horizon)


def _multi_indices(dim: int, max_total: int):
    for total in range(max_total + 1):
        for beta in itertools.product(range(total + 1), repeat=dim):
            if sum(beta) == total:
                yield beta


def eval_at(f: AsymptoticFunction, p: AsymptoticPoint,
            horizon=None) -> LCNumber:
    """Pointwise value on the monad of the base point: Taylor expansion of
    each coefficient in the infinitesimal offset, assembled as an LCNumber."""
    if p.dim != f.domain.dim:
        raise DomainError("point dimension mismatch")
    if not f.domain.contains(p.base):
        raise DomainError(f"base point {p.base} outside the domain")
    h = f.horizon
    if horizon is not None:
        h = min(h, _as_exp(horizon))
    if h == INF:
        from .closure import DEFAULT_DEPTH
        h = DEFAULT_DEPTH
    out = LCNumber.zero()
    dx = p.offset
    w = min((c.valuation() for c in dx.entries), default=INF) if dx is not None else INF
    for q, prov in f.terms:
        if q >= h:
            continue
        if dx is None or w == INF:
            out = out + LCNumber({q: prov.at(p.base)})
            continue
        depth = int(math.floor(float((h - q) / w)))
        for beta in _multi_indices(f.domain.dim, depth):
            c = prov.at(p.base, beta)
            if c == 0:
                continue
            mono = LCNumber({q: c / math.prod(math.factorial(b) for b in beta)})
            for dxi, b in zip(dx.entries, beta):
                for _ in range(b):
                    mono = mono * dxi
            out = out + mono
    return out.truncate(h)


# ---------------------------------------------------------------------------
# Moderateness and negligibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModerateReport:
    moderate: bool
    witness_n: Optional[int]


def _grid_sup(prov: SmoothProvider, K: CompactBox, alpha) -> Tuple[float, float]:
    """(sup on base grid, sup on refined grid) with non-finite detection."""
    coarse = np.abs(prov.evaluate(K.grid(), alpha))
    fine = np.abs(prov.evaluate(K.grid(2 * K.resolution - 1), alpha))
    if not (np.all(np.isfinite(coarse)) and np.all(np.isfinite(fine))):
        raise ProviderError("coefficient evaluation is not finite on K")
    return float(np.max(coarse)), float(np.max(fine))


def is_moderate(f: AsymptoticFunction, K: CompactBox,
                max_alpha: int = 2) -> ModerateReport:
    """Grid-sup moderateness: every coefficient bounded on K (with one
    refinement step as the growth detector), witness n = least n with the
    dominant magnitude ≤ rho^{-n}.  A returned report always reads
    ``moderate=True``: a coefficient whose sup grows without bound on K
    raises ``ProviderError`` instead."""
    if not K.inside(f.domain):
        raise DomainError("K is not compactly contained in the domain")
    nonzero = []
    for q, prov in f.terms:
        for alpha in _multi_indices(f.domain.dim, max_alpha):
            s0, s1 = _grid_sup(prov, K, alpha)
            if s1 > GROWTH_RATIO * max(s0, 1e-300) and s1 > 1e6:
                raise ProviderError(
                    f"coefficient sup at alpha={alpha} grows without bound on K")
            if sum(alpha) == 0 and s1 > 0:
                nonzero.append(q)
    n = max(0, int(math.ceil(-min(nonzero)))) if nonzero else 0
    return ModerateReport(True, n)


class NegligibilityMode(Enum):
    ALL_DERIVATIVES = "AllDerivatives"
    ORDER_ZERO_GIVEN_MODERATE = "OrderZeroGivenModerate"


def is_negligible(f: AsymptoticFunction, K: CompactBox,
                  mode: NegligibilityMode = NegligibilityMode.ALL_DERIVATIVES,
                  max_alpha: int = 2,
                  moderate_report: Optional[ModerateReport] = None) -> bool:
    """Negligible iff every coefficient's grid sup on K sits below the
    noise floor (a finite rho-series is negligible precisely when all its
    coefficients vanish on K)."""
    if not K.inside(f.domain):
        raise DomainError("K is not compactly contained in the domain")
    if mode is NegligibilityMode.ORDER_ZERO_GIVEN_MODERATE:
        if moderate_report is None or not moderate_report.moderate:
            raise ModeError("OrderZeroGivenModerate requires a prior moderateness pass")
        alphas = [(0,) * f.domain.dim]
    else:
        alphas = list(_multi_indices(f.domain.dim, max_alpha))
    scale = 0.0
    sups = {}
    for q, prov in f.terms:
        for alpha in alphas:
            _, s = _grid_sup(prov, K, alpha)
            sups[(q, alpha)] = s
            scale = max(scale, s)
    if scale == 0.0:
        return True
    floor = NEGLIGIBLE_RTOL * max(scale, 1.0)
    return all(s <= floor for s in sups.values())


# ---------------------------------------------------------------------------
# Pairing and weak equality
# ---------------------------------------------------------------------------

def _quad_nodes(lo, hi, panels: int):
    """Composite 24-point Gauss-Legendre nodes/weights on a box: ``panels``
    equal panels per axis, tensorized.  The fixed grid for integrands whose
    pieces it covers exactly (bump moments, kernel convolutions)."""
    x, w = np.polynomial.legendre.leggauss(24)
    nodes_1d, weights_1d = [], []
    for a, b in zip(lo, hi):
        edges = np.linspace(a, b, panels + 1)
        e0, e1 = edges[:-1, None], edges[1:, None]
        mid, half = (e0 + e1) / 2, (e1 - e0) / 2
        nodes_1d.append((mid + half * x).ravel())
        weights_1d.append((half * w).ravel())
    return _mesh(nodes_1d), np.prod(_mesh(weights_1d), axis=1)


def _box_edges(lo, hi, hints) -> List[List[float]]:
    """Per-axis cuts of the box [lo, hi] for ``_integrate``: each axis runs
    from its low end through the hints strictly inside to its high end."""
    return [[a] + sorted({h for h in hints if a < h < b}) + [b] for a, b in zip(lo, hi)]


def _gather_hints(prov, acc: set):
    for h in getattr(prov, "quad_hints", []) or []:
        acc.add(float(h))
    for child in (getattr(prov, "parts", None) or []):
        _gather_hints(child, acc)
    for name in ("f", "g", "base"):
        c = getattr(prov, name, None)
        if isinstance(c, SmoothProvider):
            _gather_hints(c, acc)


# Gauss-Kronrod G7/K15 rule on [-1, 1] (QUADPACK qk15): Kronrod nodes in
# ascending order; the Gauss nodes are every other one of them.
_GK_XK = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                   0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                   0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                   0.207784955007898467600689403773245, 0.0])
_GK_WK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                   0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                   0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                   0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_GK_WG = np.array([0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                   0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
_GK_X = np.concatenate([-_GK_XK, _GK_XK[-2::-1]])
_K15_W = np.concatenate([_GK_WK, _GK_WK[-2::-1]])
_G7_W = np.concatenate([_GK_WG, _GK_WG[-2::-1]])
_MAX_BOXES = 1000      # boxes one integral may split into
_ROUNDOFF = 50 * np.finfo(float).eps


def _gk_tensor(d: int):
    """Tensor G7/K15 rule on [-1, 1]^d: the Kronrod nodes (15^d, d), their
    weights, the indices of the Gauss nodes among them and the Gauss
    weights.  For d = 1 these are the 1-D rule itself."""
    idx = np.array(list(itertools.product(range(15), repeat=d)))
    gauss = np.flatnonzero(np.all(idx % 2 == 1, axis=1))
    return (_GK_X[idx], np.prod(_K15_W[idx], axis=1), gauss,
            np.prod(_G7_W[idx[gauss] // 2], axis=1))


def _integrate(fn, edges, epsabs: float, epsrel: float):
    """∫ fn over the box whose axis i runs from edges[i][0] to edges[i][-1],
    by adaptive tensor G7/K15 on the boxes cut out by the edges of every
    axis.  ``fn`` maps an (n, d) array of points to n values.  Each round
    evaluates it once, on the 15^d nodes of every active box together; a
    box is accepted when |K15 - G7| is below its volume-share of
    max(epsabs, epsrel·|I|), or at the roundoff floor 50·eps·∫|fn| of the
    box, and every other box is bisected across its widest side.  The
    integral is also done once the error estimates of the active boxes
    sum to at most the tolerance: evaluation noise above the floor (a
    bump derivative near its support edge, scaled by 1/rho^2) never
    meets a volume-share on small boxes, but adds little in total.
    Returns (value, abserr); abserr may exceed the tolerance by the
    roundoff of the accepted boxes."""
    d = len(edges)
    nodes, wk, gauss, wg = _gk_tensor(d)
    cells = list(itertools.product(*(zip(e[:-1], e[1:]) for e in edges)))
    lo = np.array([[a for a, _ in c] for c in cells], dtype=float)
    hi = np.array([[b for _, b in c] for c in cells], dtype=float)
    total = math.prod(float(e[-1]) - float(e[0]) for e in edges)
    value, abserr = 0.0, 0.0
    boxes = len(lo)
    while True:
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        jac = np.prod(half, axis=1)
        pts = mid[:, None, :] + half[:, None, :] * nodes
        f = fn(pts.reshape(-1, d)).reshape(len(mid), len(wk))
        if not np.all(np.isfinite(f)):
            raise ProviderError("integrand is not finite on the quadrature nodes")
        k15 = jac * (f @ wk)
        err = np.abs(k15 - jac * (f[:, gauss] @ wg))
        tol = max(epsabs, epsrel * abs(value + k15.sum()))
        if err.sum() <= tol:
            return value + k15.sum(), abserr + err.sum()
        ok = (err <= tol * np.prod(hi - lo, axis=1) / total) | (err <= _ROUNDOFF * jac * (np.abs(f) @ wk))
        value += k15[ok].sum()
        abserr += err[ok].sum()
        if ok.all():
            return value, abserr
        lo, hi, mid = lo[~ok], hi[~ok], mid[~ok]
        boxes += len(lo)
        if boxes > _MAX_BOXES:
            raise ProviderError(f"quadrature did not converge within {_MAX_BOXES} boxes")
        rows, axis = np.arange(len(lo)), np.argmax(hi - lo, axis=1)
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[rows, axis] = right_lo[rows, axis] = mid[rows, axis]
        lo, hi = np.concatenate([lo, right_lo]), np.concatenate([left_hi, hi])


def pair(f: AsymptoticFunction, tau, quad_tol: float = 1e-12) -> LCNumber:
    """⟨f, τ⟩ = Σ_q (∫ a_q τ) rho^q.  Each coefficient is integrated over
    the support box of τ as one complex integrand by batched adaptive
    tensor Gauss-Kronrod G7/K15 (absolute tolerance ``quad_tol``, relative
    1e-10), starting from boxes cut at the breakpoint hints of τ and the
    providers on every axis, so kernel-scale spikes are resolved; a
    coefficient the box budget cannot resolve raises ``ProviderError``."""
    lo, hi = tau.support_box()
    supp = OpenBox(tuple(x - 1e-12 for x in lo), tuple(x + 1e-12 for x in hi))
    if not any(supp.inside(bb) for bb in f.domain.boxes):
        raise DomainError("test-function support leaks outside the domain")
    terms = {}
    for q, prov in f.terms:
        hs = set(tau.quad_hints())
        _gather_hints(prov, hs)
        edges = _box_edges(lo, hi, hs)

        def fn(pts, prov=prov):
            return prov.evaluate(pts) * tau.evaluate(pts)

        val, _ = _integrate(fn, edges, quad_tol, 1e-10)
        terms[q] = terms.get(q, 0) + complex(val)
    return LCNumber(terms, horizon=f.horizon)


@dataclass(frozen=True)
class WeakEqualityReport:
    equal: bool
    failing_index: Optional[int] = None


def weak_equal(f: AsymptoticFunction, g: AsymptoticFunction,
               tests: Sequence, probe: int = 6,
               quad_tol: float = 1e-9) -> WeakEqualityReport:
    d = fn_sub(f, g)
    for i, tau in enumerate(tests):
        pd = pair(d, tau)
        for q, c in pd.terms:
            if q <= probe and abs(c) > quad_tol:
                return WeakEqualityReport(False, failing_index=i)
    return WeakEqualityReport(True)


# ---------------------------------------------------------------------------
# Sheaf operations
# ---------------------------------------------------------------------------

def restrict(f: AsymptoticFunction, sub: Domain) -> AsymptoticFunction:
    if not f.domain.covers(sub):
        raise DomainError("restriction target is not a subset of the domain")
    return AsymptoticFunction(f.terms, sub, f.horizon)


def support(f: AsymptoticFunction, resolution: int = 64,
            tol: float = NEGLIGIBLE_RTOL) -> List[Tuple[Tuple[float, ...], Tuple[float, ...]]]:
    """Closed grid cells on which some coefficient is non-negligible."""
    cells = []
    for b in f.domain.boxes:
        axes = [np.linspace(a, bb, resolution + 1) for a, bb in zip(b.lo, b.hi)]
        pts = _mesh([0.5 * (ax[:-1] + ax[1:]) for ax in axes])
        mag = np.zeros(pts.shape[0])
        for _, prov in f.terms:
            mag = np.maximum(mag, np.abs(prov.evaluate(pts)))
        scale = max(float(np.max(mag)), 1e-300)
        hot = mag > tol * max(scale, 1.0)
        widths = [(ax[1] - ax[0]) for ax in axes]
        for idx in np.nonzero(hot)[0]:
            c = pts[idx]
            cells.append((tuple(c[i] - widths[i] / 2 for i in range(len(widths))),
                          tuple(c[i] + widths[i] / 2 for i in range(len(widths)))))
    return cells


def _bump_expr(box: OpenBox, symbols):
    """C^infinity bump positive exactly on the open box, zero outside, as
    a sympy expression."""
    import sympy as sp
    e = sp.Integer(1)
    for s, a, b in zip(symbols, box.lo, box.hi):
        t = (2 * (s - sp.Float(a)) - sp.Float(b - a)) / sp.Float(b - a)  # in (-1,1) on box
        e = e * sp.Piecewise((sp.exp(1 / (t ** 2 - 1)), sp.Abs(t) < 1), (0, True))
    return e


def partition_of_unity(cover: Sequence[OpenBox]) -> List[ExprProvider]:
    """Smooth φ_n ≥ 0 with supp φ_n ⊆ cover[n] and Σ φ_n = 1 on the union."""
    import sympy as sp
    dim = cover[0].dim
    symbols = [sp.Symbol(f"x{i+1}") for i in range(dim)]
    bumps = [_bump_expr(b, symbols) for b in cover]
    total = sp.Add(*bumps)
    return [ExprProvider(b / total, symbols=symbols, dim=dim) for b in bumps]


def glue(cover: Sequence[OpenBox], locals_: Sequence[AsymptoticFunction],
         tol: float = 1e-9, check_resolution: int = 12) -> AsymptoticFunction:
    """Σ_n φ_n · f_n over a smooth partition of unity subordinate to the
    cover; overlapping locals must agree coefficientwise below ``tol``."""
    if len(cover) != len(locals_):
        raise GlueError("cover and locals length mismatch", witness=None)
    if len(cover) == 1:
        return locals_[0]
    # compatibility on overlaps
    for i in range(len(cover)):
        for j in range(i + 1, len(cover)):
            ov = cover[i].intersect(cover[j])
            if ov is None:
                continue
            pts = ov.grid(check_resolution)
            fi, fj = locals_[i], locals_[j]
            qs = sorted({q for q, _ in fi.terms} | {q for q, _ in fj.terms})
            for q in qs:
                pi = dict(fi.terms).get(q)
                pj = dict(fj.terms).get(q)
                vi = pi.evaluate(pts) if pi else np.zeros(pts.shape[0], dtype=complex)
                vj = pj.evaluate(pts) if pj else np.zeros(pts.shape[0], dtype=complex)
                diff = np.abs(vi - vj)
                scale = max(float(np.max(np.abs(vi))), float(np.max(np.abs(vj))), 1.0)
                k = int(np.argmax(diff))
                if diff[k] > tol * scale:
                    raise GlueError(
                        f"locals {i} and {j} disagree on their overlap at rho-order {q}",
                        witness=tuple(float(x) for x in pts[k]))
    phis = partition_of_unity(cover)
    terms = []
    horizon = min(f.horizon for f in locals_)
    for phi, f in zip(phis, locals_):
        for q, prov in f.terms:
            terms.append((q, ProductProvider(phi, prov)))
    return AsymptoticFunction(terms, Domain(cover), horizon)


# ---------------------------------------------------------------------------
# Fundamental theorem: gradient characterization of constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstancyResult:
    constant: Optional[LCNumber]
    witness: Optional[Tuple[Tuple[float, ...], int, Fraction]] = None

    @property
    def is_constant(self) -> bool:
        return self.constant is not None


def gradient_constancy(f: AsymptoticFunction, probe: int = 8,
                       resolution: int = 16,
                       tol: float = 1e-9) -> ConstancyResult:
    """∇f = 0 (grid test on every coefficient, every axis) iff f is the
    constant assembled from coefficient values at a base point."""
    if not f.domain.is_connected():
        raise ConnectivityError("domain is not arcwise connected")
    dim = f.domain.dim
    base = f.domain.boxes[0].center()
    for q, prov in f.terms:
        if q > probe:
            continue
        vals0 = prov.evaluate(f.domain.sample(resolution))
        scale = max(float(np.max(np.abs(vals0))), 1.0)
        for axis in range(dim):
            alpha = tuple(1 if i == axis else 0 for i in range(dim))
            for b in f.domain.boxes:
                pts = b.grid(resolution)
                g = np.abs(prov.evaluate(pts, alpha))
                k = int(np.argmax(g))
                if g[k] > tol * scale:
                    return ConstancyResult(None, (tuple(float(x) for x in pts[k]), axis, q))
        # constant per box and connected: values must agree across boxes
        ref = prov.at(base)
        for b in f.domain.boxes:
            v = prov.at(b.center())
            if abs(v - ref) > tol * scale:
                return ConstancyResult(None, (b.center(), -1, q))
    c = LCNumber({q: prov.at(base) for q, prov in f.terms if q <= probe},
                 horizon=f.horizon)
    return ConstancyResult(c)
