"""Constructive mollifier pipeline.

``build_mollifier(n, d)`` produces a compactly supported C^infinity test
function with unit mass and vanishing moments through order n, realized
as a linear combination of translated narrow bumps with pairwise
disjoint supports inside the unit ball.  The translated (asymmetric)
basis keeps the (n+1)-st moment away from zero, which is what gives the
embedding its clean rho^{n+1} convergence rate.  On top of it sit the
rho-delta kernel, smooth cut-off functions, the embedding of a catalog
of Schwartz distributions into the asymptotic-function algebra, and the
log-log rate estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, MomentSystemError, ParameterError, SpecError
from .funcs import (AsymptoticFunction, CallableProvider, Domain, SmoothProvider,
                    SumProvider, _alpha_tuple, _as_points, _integrate,
                    _multi_indices, _quad_nodes, pair)

MOLLIFIER_BOUND_1D = 8   # largest supported moment order in dimension 1
MOLLIFIER_BOUND_2D = 4   # and in dimension 2
_SING_COND = 1e12


# ---------------------------------------------------------------------------
# The base bump psi(t) = exp(1/(t^2-1)) on (-1, 1)
# ---------------------------------------------------------------------------

class _Bump1D:
    """The standard bump and its derivatives on (-1, 1), zero outside.

    With g = (1 - t^2)^2, psi' = -2t*psi/g, so g*psi' = -2t*psi.  Its k-th
    derivative by the Leibniz rule gives the pointwise recurrence

        psi^(k+1) = -[2t*psi^(k) + 2k*psi^(k-1)
                      + sum_{j=1..min(k,4)} C(k,j)*g^(j)*psi^(k+1-j)] / g

    where g^(1) = -4t(1 - t^2), g^(2) = 12t^2 - 4, g^(3) = 24t and
    g^(4) = 24.  It runs the same on a float and on an array."""

    # g^(j)(t) for j = 0..4, from t and s = 1 - t^2
    _G = (lambda t, s: s * s, lambda t, s: -4 * t * s, lambda t, s: 12 * t * t - 4,
          lambda t, s: 24 * t, lambda t, s: 24)

    @staticmethod
    def _orders(t, order: int, exp) -> list:
        """[psi, psi', ..., psi^(order)] at t inside (-1, 1), with ``exp``
        the exponential of t's kind (``math.exp`` or ``np.exp``)."""
        s = (1 - t) * (1 + t)
        out = [exp(-1 / s)]
        g = []      # g^(j) is first needed at step k = j
        for k in range(order):
            if k <= 4:
                g.append(_Bump1D._G[k](t, s))
            acc = 2 * t * out[k]
            if k:
                acc = acc + 2 * k * out[k - 1]
            for j in range(1, min(k, 4) + 1):
                acc = acc + math.comb(k, j) * g[j] * out[k + 1 - j]
            out.append(-acc / g[0])
        return out

    @classmethod
    def eval(cls, t: np.ndarray, order: int = 0) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0 - 1e-12
        if np.any(inside):
            with np.errstate(all="ignore"):
                out[inside] = cls._orders(t[inside], order, np.exp)[order]
        return out

    @classmethod
    def at(cls, t: float, order: int = 0) -> float:
        """``eval`` on one Python float."""
        if not abs(t) < 1.0 - 1e-12:
            return 0.0
        return float(cls._orders(t, order, math.exp)[order])


def _bump_nd(points: np.ndarray, center: Sequence[float], width: float,
             alpha: Tuple[int, ...]) -> np.ndarray:
    """∂^alpha of the product bump Π_i psi((x_i - c_i)/w), vectorized."""
    pts = _as_points(points)
    out = np.ones(pts.shape[0])
    for i, (c, k) in enumerate(zip(center, alpha)):
        out = out * _Bump1D.eval((pts[:, i] - c) / width, k) / width ** k
    return out


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Finite combination of translated/scaled C^infinity bumps."""

    dim: int
    pieces: Tuple[Tuple[float, Tuple[float, ...], float], ...]  # (coeff, center, width)
    support_radius: float
    l1_mass: float = float("nan")   # achieved ∫|Θ|, reported not asserted
    moment_order: int = 0

    def evaluate(self, points: np.ndarray, alpha=None) -> np.ndarray:
        a = _alpha_tuple(alpha, self.dim)
        pts = _as_points(points)
        out = np.zeros(pts.shape[0])
        for coeff, center, width in self.pieces:
            out = out + coeff * _bump_nd(pts, center, width, a)
        return out

    def at(self, point, alpha=None) -> float:
        a = _alpha_tuple(alpha, self.dim)
        p = [float(point)] if np.ndim(point) == 0 else [float(x) for x in point]
        total = 0.0
        for coeff, center, width in self.pieces:
            if all(abs(x - c) < width for x, c in zip(p, center)):
                val = coeff
                for x, c, k in zip(p, center, a):
                    val *= _Bump1D.at((x - c) / width, k) / width ** k
                total += val
        return float(total)

    def support_box(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        r = self.support_radius
        return tuple(-r for _ in range(self.dim)), tuple(r for _ in range(self.dim))

    def quad_hints(self) -> List[float]:
        hs = set()
        for _, center, w in self.pieces:
            for c in center:
                hs.update((c - w, c, c + w))
        return sorted(hs)

    def provider(self) -> SmoothProvider:
        return CallableProvider(lambda pts, a: self.evaluate(pts, a), self.dim,
                                self.quad_hints())

    def moment(self, alpha) -> float:
        """∫ x^alpha Θ(x) dx by high-order Gauss per piece."""
        a = _alpha_tuple(alpha, self.dim)
        total = 0.0
        for coeff, center, width in self.pieces:
            total += coeff * _piece_moments(center, width, [a])[0]
        return total

    def shifted(self, offset: Sequence[float], scale: float = 1.0) -> "TestFunction":
        """Θ((x - offset)/1) translated copy (used for off-center tests)."""
        off = tuple(float(o) for o in offset)
        pieces = tuple((c, tuple(ci + oi for ci, oi in zip(center, off)), w)
                       for c, center, w in self.pieces)
        r = self.support_radius + max(abs(o) for o in off)
        return TestFunction(self.dim, pieces, r, self.l1_mass, self.moment_order)


def _piece_moments(center, width: float, alphas) -> List[float]:
    """∫ x^alpha ψ((x - center)/width) dx for each alpha, from one
    evaluation of the bump on its Gauss nodes."""
    lo = tuple(c - width for c in center)
    hi = tuple(c + width for c in center)
    pts, wts = _quad_nodes(lo, hi, panels=6, order=24)
    bump = _bump_nd(pts, center, width, (0,) * len(center))
    out = []
    for a in alphas:
        mono = np.ones(pts.shape[0])
        for i, k in enumerate(a):
            mono = mono * pts[:, i] ** k
        out.append(float(np.sum(wts * mono * bump)))
    return out


def _basis_layout(n: int, d: int) -> List[Tuple[Tuple[float, ...], float]]:
    """Disjoint-support bump centers/widths inside the unit ball."""
    if d == 1:
        m = n + 1
        width = min(0.1, 0.7 / max(1, m))
        # deliberately not symmetric about 0: a symmetric layout forces an
        # even solution, whose vanishing (n+1)-st moment would silently
        # upgrade the embedding rate and hide moment-order effects
        centers = np.linspace(-0.83, 0.64, m) if m > 1 else np.array([-0.2])
        return [((float(c),), width) for c in centers]
    if d == 2:
        k = math.ceil(math.sqrt((n + 1) * (n + 2) // 2)) + 1
        width = min(0.1, 0.5 / k)
        ax = np.linspace(-0.55, 0.55, k)
        out = []
        for cx in ax:
            for cy in ax:
                if math.hypot(cx, cy) + width * math.sqrt(2) < 1.0:
                    out.append(((float(cx), float(cy)), width))
        return out
    raise ParameterError(f"mollifier construction supports d in {{1, 2}}, got {d}")


def build_mollifier(n: int, d: int = 1, minimize_l1: bool = False) -> TestFunction:
    """Θ ∈ B_n: ∫Θ = 1, ∫x^alpha Θ = 0 for 1 ≤ |alpha| ≤ n, supp Θ inside
    the unit ball.  Solves the finite moment system over a translated bump
    basis; with ``minimize_l1`` the coefficient L¹ mass (exact, thanks to
    disjoint supports) is minimized by linear programming instead."""
    if n < 0:
        raise ParameterError("moment order must be nonnegative")
    bound = MOLLIFIER_BOUND_1D if d == 1 else MOLLIFIER_BOUND_2D
    if n > bound:
        raise ParameterError(f"moment order {n} exceeds the documented bound {bound} for d={d}")
    layout = _basis_layout(n, d)
    alphas = list(_multi_indices(d, n))
    if len(layout) < len(alphas):
        raise MomentSystemError("basis smaller than the constraint set")
    # moment matrix M[k][j] = ∫ x^alpha_k psi_j; alphas[0] = 0, so its
    # first row holds the masses ∫psi_j > 0
    M = np.array([_piece_moments(c, w, alphas) for c, w in layout]).T
    rhs = np.array([1.0] + [0.0] * (len(alphas) - 1))
    masses = M[0]
    if minimize_l1:
        from scipy import optimize as sp_optimize
        # minimize Σ |a_j| ∫psi_j  s.t.  M a = rhs  (split a = p - m, p,m ≥ 0)
        c = np.concatenate([masses, masses])
        A = np.hstack([M, -M])
        res = sp_optimize.linprog(c, A_eq=A, b_eq=rhs, bounds=(0, None),
                                  method="highs")
        if not res.success:
            raise MomentSystemError(f"L1 moment program infeasible: {res.message}")
        coeffs = res.x[:len(layout)] - res.x[len(layout):]
    else:
        if M.shape[0] == M.shape[1]:
            if np.linalg.cond(M) > _SING_COND:
                raise MomentSystemError("moment system numerically singular")
            coeffs = np.linalg.solve(M, rhs)
        else:
            coeffs, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        resid = M @ coeffs - rhs
        if np.max(np.abs(resid)) > 1e-9:
            raise MomentSystemError("moment system solve did not converge")
    l1 = float(np.sum(np.abs(coeffs) * masses))
    pieces = tuple((float(a), c, w) for a, (c, w) in zip(coeffs, layout))
    radius = max(max(abs(ci) for ci in c) + w for c, w in layout)
    return TestFunction(d, pieces, radius, l1, n)


def reference_bump(d: int = 1, center=0.0, width: float = 0.8) -> TestFunction:
    """A normalized single bump (a convenient τ for pairings)."""
    c = (float(center),) * d if np.ndim(center) == 0 else tuple(center)
    raw = TestFunction(d, ((1.0, c, width),), max(abs(x) for x in c) + width)
    mass = raw.moment((0,) * d)
    return TestFunction(d, ((1.0 / mass, c, width),),
                        max(abs(x) for x in c) + width, 1.0 / abs(mass) * abs(mass))


# ---------------------------------------------------------------------------
# rho-delta kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaKernel:
    """D(x) = rho^{-d} Θ(x/rho); support radius rho * (radius of Θ)."""

    theta: TestFunction
    rho: float

    @property
    def dim(self) -> int:
        return self.theta.dim

    @property
    def moment_order(self) -> int:
        return self.theta.moment_order

    @property
    def support_radius(self) -> float:
        return self.rho * self.theta.support_radius

    def evaluate(self, points: np.ndarray, alpha=None, center=None) -> np.ndarray:
        a = _alpha_tuple(alpha, self.dim)
        pts = _as_points(points)
        if center is not None:
            pts = pts - np.asarray(center, dtype=float)
        scale = self.rho ** (-(self.dim + sum(a)))
        return scale * self.theta.evaluate(pts / self.rho, a)

    def provider(self, center=None) -> SmoothProvider:
        c = np.zeros(self.dim) if center is None else np.asarray(center, dtype=float)
        r = self.support_radius
        return CallableProvider(lambda pts, a: self.evaluate(pts, a, center=c), self.dim,
                                sorted({float(ci + s * r) for ci in c for s in (-1, 0, 1)}))

    def quad_nodes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Gauss nodes/weights exactly covering the kernel's bump pieces
        (the pieces have disjoint supports, so per-piece panels integrate
        the kernel to near machine precision)."""
        ns, ws = [], []
        for _, center, width in self.theta.pieces:
            lo = tuple(self.rho * (c - width) for c in center)
            hi = tuple(self.rho * (c + width) for c in center)
            n, w = _quad_nodes(lo, hi, panels=10, order=24)
            ns.append(n)
            ws.append(w)
        return np.concatenate(ns, axis=0), np.concatenate(ws, axis=0)


def rho_delta(theta: TestFunction, rho: float) -> DeltaKernel:
    if not rho > 0:
        raise ParameterError("rho must be positive")
    return DeltaKernel(theta, float(rho))


# ---------------------------------------------------------------------------
# Cut-off functions
# ---------------------------------------------------------------------------

def _depth_inside(pts: np.ndarray, dom: Domain) -> np.ndarray:
    """max over boxes of the per-axis depth (negative outside every box)."""
    pts = _as_points(pts)
    best = np.full(pts.shape[0], -np.inf)
    for b in dom.boxes:
        lo = np.asarray(b.lo)
        hi = np.asarray(b.hi)
        depth = np.min(np.minimum(pts - lo, hi - pts), axis=1)
        best = np.maximum(best, depth)
    return best


class CutoffProvider(SmoothProvider):
    """Π_Ω = χ_{Ω_rho} ⋆ D with Ω_rho = {x : depth(x) ≥ 2rho, ||x|| < 1/rho}.

    Fast paths: identically 1 where the kernel ball sits inside Ω_rho,
    identically 0 where it misses Ω_rho; quadrature only on the rim."""

    def __init__(self, dom: Domain, kernel: DeltaKernel):
        self.dom = dom
        self.kernel = kernel
        self.dim = dom.dim
        self._nodes, self._weights = kernel.quad_nodes()

    def _chi(self, pts: np.ndarray) -> np.ndarray:
        rho = self.kernel.rho
        depth = _depth_inside(pts, self.dom)
        norm = np.max(np.abs(pts), axis=1)
        return ((depth >= 2 * rho) & (norm < 1.0 / rho)).astype(float)

    def evaluate(self, points, alpha=None):
        a = _alpha_tuple(alpha, self.dim)
        pts = _as_points(points)
        rho, r = self.kernel.rho, self.kernel.support_radius
        depth = _depth_inside(pts, self.dom)
        out = np.zeros(pts.shape[0], dtype=complex)
        ones = depth >= 2 * rho + r     # flat region: all derivatives vanish
        if sum(a) == 0:
            out[ones] = 1.0
        zeros = depth <= 2 * rho - r
        rim = ~(ones | zeros)
        if np.any(rim):
            rim_pts = pts[rim]
            kv = self.kernel.evaluate(self._nodes, a)
            acc = np.zeros(rim_pts.shape[0])
            for node, w, k in zip(self._nodes, self._weights, kv):
                if k == 0:
                    continue
                acc = acc + w * float(np.real(k)) * self._chi(rim_pts - node)
            out[rim] = acc
        return out


def cutoff(dom: Domain, rho: float, theta: TestFunction) -> CutoffProvider:
    return CutoffProvider(dom, rho_delta(theta, rho))


# ---------------------------------------------------------------------------
# Distribution catalog and embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaAt:
    point: Tuple[float, ...] = (0.0,)


@dataclass(frozen=True)
class DerivativeOfDelta:
    alpha: Tuple[int, ...] = (1,)
    point: Tuple[float, ...] = (0.0,)


@dataclass(frozen=True)
class Heaviside:
    axis: int = 0


@dataclass(frozen=True)
class LocallyIntegrableKernel:
    provider: SmoothProvider


@dataclass(frozen=True)
class FiniteCombination:
    parts: Tuple[Tuple[complex, object], ...]


DistributionSpec = Union[DeltaAt, DerivativeOfDelta, Heaviside,
                         LocallyIntegrableKernel, FiniteCombination]


class EmbeddedFunction(AsymptoticFunction):
    """Embedding result with its (rho, n) provenance tag."""

    __slots__ = ("rho", "moment_order", "spec")

    def __init__(self, terms, domain, rho, moment_order, spec):
        super().__init__(terms, domain)
        self.rho = rho
        self.moment_order = moment_order
        self.spec = spec


_GL32_X, _GL32_W = np.polynomial.legendre.leggauss(32)


class _HeavisideConv(SmoothProvider):
    """(H·Π ⋆ D)(x): cumulative kernel Ψ(x/rho), derivatives are shifted
    kernel derivatives; 1-D only.  The cut-off is omitted because the
    convolution is evaluated deep inside Ω (it differs only on the rim)."""

    def __init__(self, kernel: DeltaKernel):
        self.kernel = kernel
        self.dim = 1
        self.quad_hints = [-kernel.support_radius, 0.0, kernel.support_radius]
        self._mass = kernel.theta.moment(0)

    def evaluate(self, points, alpha=None):
        a = _alpha_tuple(alpha, self.dim)
        pts = np.asarray(points, dtype=float).reshape(-1)
        if a[0] == 0:
            r = self.kernel.theta.support_radius
            t = pts / self.kernel.rho
            out = np.where(t >= r, self._mass, 0.0)
            mid = (t > -r) & (t < r)
            tm = t[mid]
            val = np.zeros(len(tm))
            for coeff, (c,), w in self.kernel.theta.pieces:
                # 32-point Gauss on [c - w, min(c + w, t)], empty where t < c - w
                a0 = c - w
                b0 = np.clip(tm, a0, c + w)
                m, h = (a0 + b0) / 2, (b0 - a0) / 2
                nodes = (m[:, None] + h[:, None] * _GL32_X - c) / w
                val += coeff * h * (_Bump1D.eval(nodes) @ _GL32_W)
            out[mid] = val
            return out.astype(complex)
        # d/dx (H ⋆ D) = D, and further derivatives follow suit
        return self.kernel.evaluate(pts.reshape(-1, 1), (a[0] - 1,))


class _ConvolutionProvider(SmoothProvider):
    """((g·Π) ⋆ D)(x) by Gauss quadrature over the kernel support;
    ∂^alpha routes to the kernel: ∂^alpha (h ⋆ D) = h ⋆ ∂^alpha D."""

    def __init__(self, g: SmoothProvider, cut: CutoffProvider, kernel: DeltaKernel):
        self.g, self.cut, self.kernel = g, cut, kernel
        self.dim = kernel.dim
        self._nodes, self._weights = kernel.quad_nodes()

    def evaluate(self, points, alpha=None):
        a = _alpha_tuple(alpha, self.dim)
        pts = _as_points(points)
        kv = self.kernel.evaluate(self._nodes, a)
        shifted = pts[:, None, :] - self._nodes[None, :, :]     # (N, M, d)
        flat = shifted.reshape(-1, self.dim)
        gv = self.g.evaluate(flat) * self.cut.evaluate(flat)
        gv = gv.reshape(pts.shape[0], -1)
        return gv @ (self._weights * kv)


def embed_distribution(T: DistributionSpec, dom: Domain, rho: float,
                       n: int) -> EmbeddedFunction:
    """Σ_Ω(T) at numeric rho: single rho^0 term with coefficient
    (T·Π_Ω) ⋆ D, where D is the rho-delta kernel of moment order n."""
    theta = build_mollifier(n, dom.dim)
    kernel = rho_delta(theta, rho)
    cut = CutoffProvider(dom, kernel)
    prov = _embed_provider(T, dom, kernel, cut)
    return EmbeddedFunction([(Fraction(0), prov)], dom, rho, n, T)


def _embed_provider(T, dom: Domain, kernel: DeltaKernel,
                    cut: CutoffProvider) -> SmoothProvider:
    if isinstance(T, DeltaAt):
        pt = tuple(float(x) for x in T.point)
        if not dom.contains(pt):
            raise DomainError("delta location outside the domain")
        scale = float(np.real(cut.evaluate(np.asarray([pt]))[0]))
        base = kernel.provider(center=pt)
        return SumProvider([base], [scale]) if scale != 1.0 else base
    if isinstance(T, DerivativeOfDelta):
        pt = tuple(float(x) for x in T.point)
        if not dom.contains(pt):
            raise DomainError("delta location outside the domain")
        a = _alpha_tuple(T.alpha, dom.dim)
        return kernel.provider(center=pt).derivative(a)
    if isinstance(T, Heaviside):
        if dom.dim != 1 or T.axis != 0:
            raise SpecError("Heaviside embedding is implemented in dimension 1")
        return _HeavisideConv(kernel)
    if isinstance(T, LocallyIntegrableKernel):
        return _ConvolutionProvider(T.provider, cut, kernel)
    if isinstance(T, FiniteCombination):
        provs = [_embed_provider(spec, dom, kernel, cut) for _, spec in T.parts]
        return SumProvider(provs, [complex(c) for c, _ in T.parts])
    raise SpecError(f"unsupported distribution spec {type(T).__name__}")


_QUAD_DEFAULT_TOL = 1.49e-8   # QUADPACK's customary epsabs = epsrel


def reference_pairing(T: DistributionSpec, tau: TestFunction) -> complex:
    """⟨T, τ⟩ computed directly from the definition of T."""
    if isinstance(T, DeltaAt):
        return tau.at(T.point)
    if isinstance(T, DerivativeOfDelta):
        a = _alpha_tuple(T.alpha, tau.dim)
        return (-1) ** sum(a) * tau.at(T.point, a)
    if isinstance(T, Heaviside):
        hi = tau.support_radius
        edges = [0.0] + [h for h in tau.quad_hints() if 0 < h < hi] + [hi]
        val, _ = _integrate(tau.evaluate, [edges], _QUAD_DEFAULT_TOL, _QUAD_DEFAULT_TOL)
        return float(val)
    if isinstance(T, LocallyIntegrableKernel):
        lo, hi = tau.support_box()
        pts, wts = _quad_nodes(lo, hi, panels=12, order=20)
        return complex(np.sum(wts * tau.evaluate(pts) * T.provider.evaluate(pts)))
    if isinstance(T, FiniteCombination):
        return sum(complex(c) * reference_pairing(spec, tau) for c, spec in T.parts)
    raise SpecError(f"unsupported distribution spec {type(T).__name__}")


@dataclass(frozen=True)
class RateResult:
    slope: Optional[float]
    exact: bool
    samples: Tuple[Tuple[float, float], ...]  # (rho, |error|)


QUAD_FLOOR = 1e-12


def convergence_rate(T: DistributionSpec, tau: TestFunction, dom: Domain,
                     rho_grid: Sequence[float], n: int) -> RateResult:
    """Least-squares slope of log|⟨Σ_Ω(T; rho, n) − T, τ⟩| against log rho."""
    grid = [float(r) for r in rho_grid]
    if len(grid) < 3 or any(a <= b for a, b in zip(grid, grid[1:])):
        raise ParameterError("rho grid must be decreasing with at least 3 points")
    ref = reference_pairing(T, tau)
    samples = []
    for rho in grid:
        emb = embed_distribution(T, dom, rho, n)
        err = abs(complex(pair(emb, tau).coefficient(0)) - ref)
        samples.append((rho, err))
    if all(e < QUAD_FLOOR for _, e in samples):
        return RateResult(None, True, tuple(samples))
    xs = np.log([r for r, _ in samples])
    ys = np.log([max(e, 1e-300) for _, e in samples])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return RateResult(slope, False, tuple(samples))
