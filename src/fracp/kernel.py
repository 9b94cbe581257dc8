"""Everything involving the kernel |x - y|**(-1 - s*p).

Contents: the nonlinear difference [a - b]**(p-1), the power-barrier scalar
Phi(alpha, s, p) with its bracketing constants, principal-value evaluation of
the operator on grid functions, assembly of the discrete energy/operator,
Gagliardo-type energies, tail norms, and the planar half-space angular
constant.

Conventions fixed here and recorded in every report:
  * the pointwise operator carries a factor 2 in front of the principal
    value, and eval_fplap_pv returns that convention;
  * apply() is the exact gradient of (1/p) * energy(), where energy() is the
    discrete Gagliardo seminorm to the p-th power (interior double sum plus
    twice the mass-weighted confinement term).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .core import Grid, GridFunction, Zero
from .errors import (
    AlphaOutOfRange,
    ExtensionUnsupported,
    FracpError,
    NegativeBase,
    OutOfRange,
    PointTooCloseToBoundary,
    QuadratureFail,
    ShapeMismatch,
    SingularMatrix,
)

__all__ = [
    "updiff",
    "smoothed_updiff",
    "pair_power",
    "PowerKernelOracle",
    "bracket_constants",
    "phi_constant",
    "DiscreteOperator",
    "assemble_operator",
    "eval_fplap_pv",
    "gagliardo_energy",
    "tail_norm",
    "halfspace_constant",
]


def updiff(aval, bval, p):
    """[a - b]**(p-1) = |a - b|**(p-2) (a - b), continuous with value 0 at a = b."""
    d = np.asarray(aval, dtype=float) - np.asarray(bval, dtype=float)
    out = np.sign(d) * np.abs(d) ** (p - 1.0)
    return out if out.ndim else float(out)


def smoothed_updiff(t, p, mu):
    """(t**2 + mu**2)**((p-2)/2) * t; reduces to updiff(t, 0, p) at mu = 0."""
    t = np.asarray(t, dtype=float)
    if mu == 0.0:
        out = np.sign(t) * np.abs(t) ** (p - 1.0)
    else:
        out = (t * t + mu * mu) ** (0.5 * (p - 2.0)) * t
    return out if out.ndim else float(out)


def pair_power(t, p, mu):
    """Primitive of p * smoothed_updiff: (t^2+mu^2)^(p/2) - mu^p; |t|^p at mu=0."""
    t = np.asarray(t, dtype=float)
    if mu == 0.0:
        out = np.abs(t) ** p
    else:
        out = (t * t + mu * mu) ** (0.5 * p) - mu**p
    return out if out.ndim else float(out)


def _updiff_curvature(t, p, mu):
    # derivative of smoothed_updiff in t: (t^2+mu^2)^((p-4)/2) ((p-1) t^2 + mu^2)
    t = np.asarray(t, dtype=float)
    if mu == 0.0:
        return (p - 1.0) * np.abs(t) ** (p - 2.0) if p != 2.0 else np.ones_like(t)
    return (t * t + mu * mu) ** (0.5 * (p - 4.0)) * ((p - 1.0) * t * t + mu * mu)


# ---------------------------------------------------------------------------
# power-barrier oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerKernelOracle:
    """Scalar Phi such that the operator maps the shifted power barrier
    ((x + lambda**(1/alpha))_+)**alpha to exactly 2*Phi*(x + lambda**(1/alpha))**(-beta)
    on the positive half line, with beta = s*p - alpha*(p-1).

    Phi = 1/(s*p) + int_0^1 (1-y**alpha)**(p-1) (1-y**(beta-1)) (1-y)**(-1-s*p) dy,
    and c1 <= Phi <= c2 with the explicit bracketing constants.
    """

    alpha: float
    s: float
    p: float
    beta: float
    phi: float
    c1: float
    c2: float


def _check_alpha(alpha: float, s: float) -> None:
    if not (0.0 < alpha < s):
        raise AlphaOutOfRange(f"alpha must lie in (0, s) = (0, {s}), got {alpha}")


def bracket_constants(alpha: float, s: float, p: float):
    """Bracketing constants (c1, c2) for Phi(alpha, s, p).

    beta < 1:  c1 = (1/p) (st - s)/(st s) with st = (s + beta)/2, c2 = 1/(sp).
    beta >= 1: c1 = 1/(sp), c2 = 1/(sp) + max(1, beta-1)/(p (1-s)).
    The midpoint st is the canonical choice in the admissible band (s, beta).
    """
    _check_alpha(alpha, s)
    sp = s * p
    beta = sp - alpha * (p - 1.0)
    if beta < 1.0:
        st = 0.5 * (s + beta)
        c1 = (st - s) / (st * s) / p
        c2 = 1.0 / sp
    else:
        c1 = 1.0 / sp
        c2 = 1.0 / sp + max(1.0, beta - 1.0) / (p * (1.0 - s))
    return c1, c2


def phi_constant(alpha: float, s: float, p: float, tol: float = 1e-8) -> PowerKernelOracle:
    """Compute Phi(alpha, s, p) by adaptive quadrature to absolute error <= tol.

    The integrand has an integrable endpoint singularity (1-y)**(p-1-s*p) at
    y = 1 and, for beta < 1, a second one y**(beta-1) at y = 0; the integral
    is split at 1/2 so each half carries one endpoint.
    """
    _check_alpha(alpha, s)
    if tol <= 0.0:
        raise OutOfRange(f"tol must be positive, got {tol}")
    sp = s * p
    beta = sp - alpha * (p - 1.0)
    if beta <= 0.0:
        raise AlphaOutOfRange(f"derived beta = {beta} must be positive")
    c1, c2 = bracket_constants(alpha, s, p)

    if abs(beta - 1.0) < 1e-14:
        # the (1 - y**(beta-1)) factor vanishes identically
        phi = 1.0 / sp
        return PowerKernelOracle(alpha, s, p, beta, phi, c1, c2)

    def integrand(y):
        return (1.0 - y**alpha) ** (p - 1.0) * (1.0 - y ** (beta - 1.0)) * (1.0 - y) ** (
            -1.0 - sp
        )

    i1, e1 = quad(integrand, 0.0, 0.5, epsabs=0.25 * tol, epsrel=1e-11, limit=400)
    i2, e2 = quad(integrand, 0.5, 1.0, epsabs=0.25 * tol, epsrel=1e-11, limit=400)
    if e1 + e2 > tol:
        raise QuadratureFail(
            f"phi integral error estimate {e1 + e2:.3e} exceeds tol {tol:.3e}"
        )
    phi = 1.0 / sp + i1 + i2
    if not (c1 - 1e-7 <= phi <= c2 + 1e-7):
        raise QuadratureFail(
            f"phi = {phi} escaped its bracket [{c1}, {c2}]; quadrature unreliable"
        )
    return PowerKernelOracle(alpha, s, p, beta, phi, c1, c2)


# ---------------------------------------------------------------------------
# discrete operator assembly
# ---------------------------------------------------------------------------

_EXP_SNAP = 5e-7


def _nudged_sp(sp: float) -> float:
    # keep antiderivative exponents away from exact zeros (sp in {1, 2, 3});
    # the induced relative weight error is O(5e-7 * log-scale), far below
    # discretization error
    for k in (1.0, 2.0, 3.0):
        if abs(sp - k) < _EXP_SNAP:
            return k + _EXP_SNAP
    return sp


def _pd(t1, t0, r):
    # (t1**r - t0**r) / r, the stable paired primitive difference
    return (t1**r - t0**r) / r


def _cell_pair_J(X0, X1, Y0, Y1, sp):
    """Exact integrals of u^a v^b (y-x)^(-1-sp) over [X0,X1] x [Y0,Y1], Y0 >= X1.

    u = (x-X0)/hX, v = (y-Y0)/hY; returns (J00, J01, J10, J11).
    """
    A = sp
    hX = X1 - X0
    hY = Y1 - Y0

    def T(c, shift):
        # int_{X0}^{X1} (c-x)^(shift-1-A) dx for shift in {1,2,3} handled by caller
        return -_pd(c - X1, c - X0, shift - A)

    # primitive families evaluated at the two y-cell endpoints
    T1_Y0, T1_Y1 = T(Y0, 1.0), T(Y1, 1.0)
    T2_Y0, T2_Y1 = T(Y0, 2.0), T(Y1, 2.0)
    T3_Y0, T3_Y1 = T(Y0, 3.0), T(Y1, 3.0)

    U2_Y0 = (Y0 - X0) * T1_Y0 - T2_Y0
    U2_Y1 = (Y1 - X0) * T1_Y1 - T2_Y1
    U3_Y0 = (Y0 - X0) * T2_Y0 - T3_Y0
    U3_Y1 = (Y1 - X0) * T2_Y1 - T3_Y1

    J00 = (T1_Y0 - T1_Y1) / A
    J10 = (U2_Y0 - U2_Y1) / (A * hX)
    J01 = (T2_Y1 - T2_Y0) / (hY * A * (1.0 - A)) - T1_Y1 / A
    J11 = (U3_Y1 - U3_Y0) / (hX * hY * A * (1.0 - A)) - U2_Y1 / (hX * A)
    return J00, J01, J10, J11


def _corner_rect(hA, hB, rho):
    """Integral of (y-x)^rho over the corner-touching rectangle [.,t]x[t,.]."""
    r2 = rho + 2.0
    return ((hA + hB) ** r2 - hA**r2 - hB**r2) / ((rho + 1.0) * r2)


_GQ_NODES, _GQ_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _cell_pair_J_gauss(X0, X1, Y0, Y1, sp):
    """Tensor Gauss-Legendre version of _cell_pair_J for well-separated cells."""
    hX, hY = X1 - X0, Y1 - Y0
    xm, xr = 0.5 * (X0 + X1), 0.5 * hX
    ym, yr = 0.5 * (Y0 + Y1), 0.5 * hY
    xp = xm[:, None] + xr[:, None] * _GQ_NODES[None, :]
    yp = ym[:, None] + yr[:, None] * _GQ_NODES[None, :]
    K = (yp[:, None, :] - xp[:, :, None]) ** (-1.0 - sp)
    wx = _GQ_WEIGHTS[None, :] * xr[:, None]
    wy = _GQ_WEIGHTS[None, :] * yr[:, None]
    ux = (xp - X0[:, None]) / hX[:, None]
    vy = (yp - Y0[:, None]) / hY[:, None]
    J00 = np.einsum("bi,bj,bij->b", wx, wy, K)
    J01 = np.einsum("bi,bj,bij->b", wx, wy * vy, K)
    J10 = np.einsum("bi,bj,bij->b", wx * ux, wy, K)
    J11 = np.einsum("bi,bj,bij->b", wx * ux, wy * vy, K)
    return J00, J01, J10, J11


@dataclass
class DiscreteOperator:
    """Pair weights w, confinement densities b and dual-cell masses m.

    energy(v) = sum_{i != j} w_ij |v_i - v_j|^p + 2 sum_i m_i b_i |v_i|^p is
    the discrete Gagliardo seminorm of the zero-extended interpolant raised
    to the p-th power; apply(v) is the exact gradient of energy(v)/p and
    hessian(v, out) its Jacobian.
    """

    grid: Grid
    s: float
    p: float
    mu: float
    w: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def _linear(self) -> bool:
        return self.p == 2.0 and self.mu == 0.0

    @functools.cached_property
    def _diag(self) -> np.ndarray:
        # at p = 2 the operator is the matrix 2 (diag(_diag) - w)
        return self.w.sum(axis=1) + self.m * self.b

    def _check(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ShapeMismatch(f"vector shape {v.shape}, operator size {self.n}")
        return v

    def _apply_linear(self, v) -> np.ndarray:
        return 2.0 * (self._diag * v - self.w @ v)

    def apply(self, v) -> np.ndarray:
        v = self._check(v)
        if self._linear:
            return self._apply_linear(v)
        d = v[:, None] - v[None, :]
        su = smoothed_updiff(d, self.p, self.mu)
        return 2.0 * (self.w * su).sum(axis=1) + 2.0 * self.m * self.b * smoothed_updiff(
            v, self.p, self.mu
        )

    def energy(self, v) -> float:
        v = self._check(v)
        if self._linear:
            return float(v @ self._apply_linear(v))
        d = v[:, None] - v[None, :]
        inter = float((self.w * pair_power(d, self.p, self.mu)).sum())
        conf = float(2.0 * (self.m * self.b * pair_power(v, self.p, self.mu)).sum())
        return inter + conf

    def hessian(self, v, out: np.ndarray) -> np.ndarray:
        """Dense Hessian of energy/p at v, written into the n x n array out.

        2 (diag(L 1) - L) + diag(2 m b psi'(v)) with L_ij = w_ij psi'(v_i - v_j),
        psi' the slope of smoothed_updiff; symmetric positive semidefinite,
        and definite when psi'(v_i) > 0 at every node.
        """
        v = self._check(v)
        n = self.n
        if self._linear:
            np.multiply(self.w, -2.0, out=out)
            out.flat[:: n + 1] += 2.0 * self._diag
            return out
        curv = _updiff_curvature(v[:, None] - v[None, :], self.p, self.mu)
        np.multiply(self.w, curv, out=out)
        diag = out.sum(axis=1) + self.m * self.b * _updiff_curvature(v, self.p, self.mu)
        out *= -2.0
        out.flat[:: n + 1] += 2.0 * diag
        return out

    def energy_over_p(self, v) -> float:
        return self.energy(v) / self.p


def assemble_operator(grid: Grid, s: float, p: float, mu: float = 0.0) -> DiscreteOperator:
    """Assemble pair weights by exact kernel integration against the hat basis.

    Cell pairs at index distance >= 2 use closed-form integrals of the kernel
    times the piecewise-linear hat weights.  The singular band (same-cell and
    corner-touching cell pairs) is treated symmetrically through the local
    secant slope, which is exact on same-cell pairs and keeps every pair
    weight nonnegative, so the scheme is monotone.  Boundary cells carry the
    constant extension of the adjacent nodal value.
    """
    if not (0.0 < s < 1.0) or p <= 1.0:
        raise OutOfRange(f"need 0 < s < 1 and p > 1, got s={s}, p={p}")
    if mu < 0.0:
        raise OutOfRange(f"mu must be nonnegative, got {mu}")
    if p >= 2.0 and mu != 0.0:
        raise OutOfRange("smoothing mu must be 0 for p >= 2")
    sp = s * p
    if sp >= p:
        raise OutOfRange("s*p must stay below p")
    n = grid.n
    t = grid.edges
    spn = _nudged_sp(sp)

    M = np.zeros((n, n))

    # cell pairs at index distance >= 2: closed forms where the gap is
    # comparable to the cell sizes (second differences stay well
    # conditioned there), tensor Gauss-Legendre beyond (positive weights,
    # spectrally accurate once the singularity sits several widths away)
    for gap in range(2, n + 1):
        k = np.arange(0, n + 1 - gap)
        X0, X1 = t[k], t[k + 1]
        Y0, Y1 = t[k + gap], t[k + gap + 1]
        hX, hY = X1 - X0, Y1 - Y0
        near = (Y0 - X1) <= 8.0 * np.maximum(hX, hY)
        far = ~near
        J = [np.empty_like(X0) for _ in range(4)]
        if near.any():
            # extended precision: the closed forms are second differences and
            # lose ~ (span/width)^2 digits on strongly graded meshes
            ld = np.longdouble
            parts = _cell_pair_J(
                X0[near].astype(ld), X1[near].astype(ld),
                Y0[near].astype(ld), Y1[near].astype(ld), ld(spn),
            )
            for arr, part in zip(J, parts):
                arr[near] = part.astype(float)
        if far.any():
            parts = _cell_pair_J_gauss(X0[far], X1[far], Y0[far], Y1[far], sp)
            for arr, part in zip(J, parts):
                arr[far] = part
        J00, J01, J10, J11 = J
        # dof indices with boundary cells collapsed onto their single node
        xL = np.maximum(k, 1) - 1
        xR = np.minimum(k + 1, n) - 1
        yL = np.maximum(k + gap, 1) - 1
        yR = np.minimum(k + gap + 1, n) - 1
        np.add.at(M, (xL, yL), J00 - J10 - J01 + J11)
        np.add.at(M, (xL, yR), J01 - J11)
        np.add.at(M, (xR, yL), J10 - J11)
        np.add.at(M, (xR, yR), J11)

    rho = p - 1.0 - sp
    # same-cell band: exact for the interpolant, slope (v_{k+1}-v_k)/h_k
    k = np.arange(1, n)  # interior cells [t_k, t_{k+1}]
    h = t[k + 1] - t[k]
    diag_w = h ** (1.0 - sp) / ((p - sp) * (p + 1.0 - sp))
    np.add.at(M, (k - 1, k), diag_w)

    # corner-touching band around each node, secant slope across both cells
    k = np.arange(1, n + 1)
    hA = t[k] - t[k - 1]
    hB = t[k + 1] - t[k]
    H = hA + hB
    rect = _corner_rect(hA, hB, rho)
    i1 = np.maximum(k - 1, 1) - 1
    i2 = np.minimum(k + 1, n) - 1
    np.add.at(M, (i1, i2), rect / H**p)

    w = M + M.T
    wmin = float(w.min())
    if wmin < 0.0:
        if wmin < -1e-9 * float(w.max()):
            raise FracpError(
                f"assembly instability: negative pair weight {wmin:.3e} detected"
            )
        np.clip(w, 0.0, None, out=w)

    x = grid.nodes
    b = ((x - grid.a) ** (-sp) + (grid.b - x) ** (-sp)) / sp
    m = grid.masses
    return DiscreteOperator(grid=grid, s=s, p=p, mu=float(mu), w=w, b=b, m=m)


# ---------------------------------------------------------------------------
# principal-value evaluation
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _gauss_segments(f, lo_hi: np.ndarray) -> float:
    """Fixed-order Gauss-Legendre over a batch of segments [(lo, hi), ...]."""
    if len(lo_hi) == 0:
        return 0.0
    lo = lo_hi[:, 0]
    half = 0.5 * (lo_hi[:, 1] - lo)
    mid = lo + half
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = f(pts.ravel()).reshape(pts.shape)
    return float(((vals * _GL_WEIGHTS[None, :]).sum(axis=1) * half).sum())


def _split_segments(breaks: np.ndarray, lo: float, hi: float) -> np.ndarray:
    pts = breaks[(breaks > lo) & (breaks < hi)]
    edges = np.concatenate(([lo], np.unique(pts), [hi]))
    return np.column_stack((edges[:-1], edges[1:]))


def eval_fplap_pv(u: GridFunction, x: float, s: float, p: float, cut: float | None = None):
    """Principal value of the operator at an interior point x.

    Returns 2 * lim int_{|z-x|>eps} [u(x)-u(z)]^{p-1} |x-z|^{-1-s p} dz, with
    the symmetric core of radius `cut` excluded, the rest of the line handled
    by dense panel quadrature plus adaptive exterior tails, and the core
    contribution recovered by Richardson extrapolation over the two radii
    (cut, cut/2); the exclusion error scales like cut**(p(1-s)) for smooth
    profiles.
    """
    grid = u.grid
    a, b = grid.a, grid.b
    if not a < x < b:
        raise PointTooCloseToBoundary(f"x = {x} is not strictly interior to ({a}, {b})")
    h_loc = grid.local_width(x)
    r0 = 2.0 * h_loc if cut is None else float(cut)
    if r0 < h_loc * (1.0 - 1e-12):
        raise OutOfRange(f"cut = {r0} is below the local cell width {h_loc}")
    if min(x - a, b - x) < 2.0 * r0:
        raise PointTooCloseToBoundary(
            f"dist(x, boundary) = {min(x - a, b - x)} < 2*cut = {2 * r0}"
        )
    if not (hasattr(u.exterior, "value") and hasattr(u.exterior, "kinks")):
        raise ExtensionUnsupported(
            f"no computable exterior integral for descriptor {u.exterior!r}"
        )
    sp = s * p
    ux = float(u(x))

    def pair(tvals):
        tv = np.asarray(tvals, dtype=float)
        q = updiff(ux, u(x + tv), p) + updiff(ux, u(x - tv), p)
        return q * tv ** (-1.0 - sp)

    kinks = list(u.exterior.kinks(a, b))
    ref_pts = np.concatenate((grid.edges, np.asarray(kinks, dtype=float)))
    radii = np.unique(np.abs(ref_pts - x))
    t_far = max(x - a, b - x)
    kink_radii = np.abs(np.asarray(kinks, dtype=float) - x) if kinks else np.array([])
    t_max = max(t_far, float(kink_radii.max()) if len(kink_radii) else t_far)

    base = _gauss_segments(pair, _split_segments(radii, r0, t_max))
    annulus = _gauss_segments(pair, _split_segments(radii, 0.5 * r0, r0))

    tail, _ = quad(lambda tt: pair(tt), t_max, np.inf, limit=200)
    base += tail

    kappa = p * (1.0 - s)
    fac = 2.0**kappa / (2.0**kappa - 1.0)
    return 2.0 * (base + annulus * fac)


# ---------------------------------------------------------------------------
# energies and norms
# ---------------------------------------------------------------------------

_OP_CACHE: dict = {}


def _cached_operator(grid: Grid, s: float, p: float) -> DiscreteOperator:
    key = (grid.a, grid.b, grid.q, grid.n, s, p)
    op = _OP_CACHE.get(key)
    if op is None:
        op = assemble_operator(grid, s, p, mu=0.0)
        if len(_OP_CACHE) > 12:
            _OP_CACHE.pop(next(iter(_OP_CACHE)))
        _OP_CACHE[key] = op
    return op


def gagliardo_energy(u: GridFunction, theta: float, s: float, p: float) -> float:
    """Discrete [u**theta]_{s,p}^p for the zero-extended grid function.

    Interior double sum plus twice the mass-weighted confinement term.  The
    divergence decision under mesh refinement belongs to the scan driver;
    this returns the single-grid value.
    """
    if theta < 1.0:
        raise OutOfRange(f"theta must be >= 1, got {theta}")
    if not isinstance(u.exterior, Zero):
        raise ExtensionUnsupported(
            "gagliardo_energy is defined for the zero exterior extension"
        )
    vals = u.values
    if theta != 1.0 and np.any(vals < 0.0):
        raise NegativeBase("theta != 1 requires nonnegative nodal values")
    v = vals if theta == 1.0 else vals**theta
    op = _cached_operator(u.grid, s, p)
    return op.energy(v)


def tail_norm(u: GridFunction, s: float, p: float) -> float:
    """Membership integral int_R |u|^{p-1} (1 + |x|)^{-1-s p} dx."""
    sp = s * p
    grid = u.grid
    a, b = grid.a, grid.b

    def dens(z):
        return np.abs(u(z)) ** (p - 1.0) * (1.0 + np.abs(z)) ** (-1.0 - sp)

    inner = _gauss_segments(dens, np.column_stack((grid.edges[:-1], grid.edges[1:])))

    ext = u.exterior
    if not (hasattr(ext, "value") and hasattr(ext, "kinks")):
        raise ExtensionUnsupported(f"no computable tail for {ext!r}")
    kinks = sorted(ext.kinks(a, b))
    left_breaks = [k for k in kinks if k < a]
    right_breaks = [k for k in kinks if k > b]

    total = inner
    pieces = []
    lo = -math.inf
    for k in left_breaks + [a]:
        pieces.append((lo, k))
        lo = k
    lo = b
    for k in right_breaks + [math.inf]:
        pieces.append((lo, k))
        lo = k
    for lo, hi in pieces:
        if lo == hi:
            continue
        val, _ = quad(lambda z: float(dens(np.asarray(z))), lo, hi, limit=200)
        total += val
    return float(total)


def halfspace_constant(A, s: float, p: float, rel_tol: float = 1e-9) -> float:
    """Planar angular constant (1/2) int_{S^1} |e2 . v|^{s p} |A v|^{-2-s p} dv.

    Periodic trapezoidal quadrature in the angle with doubling until the
    value stabilizes.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (2, 2):
        raise ShapeMismatch(f"expected a 2x2 matrix, got shape {A.shape}")
    scale = np.abs(A).max()
    if scale == 0.0 or abs(np.linalg.det(A)) < 1e-14 * scale * scale:
        raise SingularMatrix("matrix must be invertible")
    sp = s * p

    def value(nang: int) -> float:
        th = np.arange(nang) * (2.0 * math.pi / nang)
        v = np.stack((np.cos(th), np.sin(th)))
        av = A @ v
        norms = np.sqrt((av * av).sum(axis=0))
        integ = np.abs(v[1]) ** sp * norms ** (-2.0 - sp)
        return 0.5 * integ.sum() * (2.0 * math.pi / nang)

    prev = value(512)
    for nang in (1024, 2048, 4096, 8192, 16384, 32768, 65536):
        cur = value(nang)
        if abs(cur - prev) <= rel_tol * abs(cur) + 1e-14:
            return cur
        prev = cur
    return prev
