"""Everything involving the kernel |x - y|**(-1 - s*p).

Contents: the nonlinear difference [a - b]**(p-1), the power-barrier scalar
Phi(alpha, s, p) with its bracketing constants, principal-value evaluation of
the operator on grid functions, assembly of the discrete energy/operator and
Gagliardo-type energies.

Conventions fixed here and recorded in every report:
  * the pointwise operator carries a factor 2 in front of the principal
    value, and eval_fplap_pv returns that convention;
  * apply() is the exact gradient of (1/p) * energy(), where energy() is the
    discrete Gagliardo seminorm to the p-th power (interior double sum plus
    twice the mass-weighted confinement term);
  * the pair matrix w is bitwise symmetric, and at p = 2 the operator reads
    one triangle of it (BLAS dsymv).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.linalg.blas import dsymv

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
)

__all__ = [
    "updiff",
    "PowerKernelOracle",
    "bracket_constants",
    "phi_constant",
    "DiscreteOperator",
    "assemble_operator",
    "eval_fplap_pv",
    "gagliardo_energy",
]


def updiff(aval, bval, p):
    """[a - b]**(p-1) = |a - b|**(p-2) (a - b), continuous with value 0 at a = b."""
    out = _updiff_inplace(np.asarray(np.subtract(aval, bval, dtype=float)), p, 0.0)
    return out if out.ndim else float(out)


# The three pair functions below overwrite their float array t and allocate at
# most two temporaries of its size, so the operator's n x n passes stay cheap.


def _updiff_inplace(t, p, mu):
    # (t**2 + mu**2)**((p-2)/2) * t, written into t; updiff(t, 0, p) at mu = 0
    if mu == 0.0:
        a = np.abs(t)
        a **= p - 1.0
        return np.copysign(a, t, out=t)
    a = t * t
    a += mu * mu
    a **= 0.5 * (p - 2.0)
    t *= a
    return t


def _pair_power_inplace(t, p, mu):
    # primitive of p * _updiff_inplace, written into t:
    # (t^2+mu^2)^(p/2) - mu^p, |t|^p at mu = 0
    if mu == 0.0:
        np.abs(t, out=t)
        t **= p
        return t
    np.multiply(t, t, out=t)
    t += mu * mu
    t **= 0.5 * p
    t -= mu**p
    return t


def _curvature_inplace(t, p, mu):
    # derivative of _updiff_inplace in t, written into t:
    # (t^2+mu^2)^((p-4)/2) ((p-1) t^2 + mu^2), (p-1) |t|^(p-2) at mu = 0
    if mu == 0.0:
        np.abs(t, out=t)
        t **= p - 2.0
        t *= p - 1.0
        return t
    a = t * t
    a += mu * mu
    a **= 0.5 * (p - 4.0)
    t *= t * (p - 1.0)
    t += mu * mu
    t *= a
    return t


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


def check_alpha(alpha: float, s: float) -> None:
    """Barrier exponents lie in (0, s)."""
    if not (0.0 < alpha < s):
        raise AlphaOutOfRange(f"alpha must lie in (0, s) = (0, {s}), got {alpha}")


def power_beta(alpha: float, s: float, p: float) -> float:
    """beta = s*p - alpha*(p-1), the decay exponent of the operator applied to
    the power barrier of exponent alpha."""
    return s * p - alpha * (p - 1.0)


def bracket_constants(alpha: float, s: float, p: float):
    """Bracketing constants (c1, c2) for Phi(alpha, s, p).

    beta < 1:  c1 = (1/p) (st - s)/(st s) with st = (s + beta)/2, c2 = 1/(sp).
    beta >= 1: c1 = 1/(sp), c2 = 1/(sp) + max(1, beta-1)/(p (1-s)).
    The midpoint st is the canonical choice in the admissible band (s, beta).
    """
    check_alpha(alpha, s)
    sp = s * p
    beta = power_beta(alpha, s, p)
    if beta < 1.0:
        st = 0.5 * (s + beta)
        c1 = (st - s) / (st * s) / p
        c2 = 1.0 / sp
    else:
        c1 = 1.0 / sp
        c2 = 1.0 / sp + max(1.0, beta - 1.0) / (p * (1.0 - s))
    return c1, c2


#: absolute error bound of the Phi quadrature
_PHI_TOL = 1e-8


def phi_constant(alpha: float, s: float, p: float) -> PowerKernelOracle:
    """Compute Phi(alpha, s, p) by adaptive quadrature to absolute error
    <= _PHI_TOL.

    The integrand has an integrable endpoint singularity (1-y)**(p-1-s*p) at
    y = 1 and, for beta < 1, a second one y**(beta-1) at y = 0; the integral
    is split at 1/2 so each half carries one endpoint.
    """
    check_alpha(alpha, s)
    sp = s * p
    beta = power_beta(alpha, s, p)
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

    i1, e1 = quad(integrand, 0.0, 0.5, epsabs=0.25 * _PHI_TOL, epsrel=1e-11, limit=400)
    i2, e2 = quad(integrand, 0.5, 1.0, epsabs=0.25 * _PHI_TOL, epsrel=1e-11, limit=400)
    if e1 + e2 > _PHI_TOL:
        raise QuadratureFail(
            f"phi integral error estimate {e1 + e2:.3e} exceeds {_PHI_TOL:.3e}"
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


def _hat_rule(q):
    """q-point Gauss nodes u on [0, 1] and the (4, q*q) tensor weights of the
    hat products (1-u)(1-v), (1-u) v, u (1-v), u v; every weight is positive."""
    xi, om = np.polynomial.legendre.leggauss(q)
    u = 0.5 * (1.0 + xi)
    hats = 0.5 * om[:, None] * np.column_stack((1.0 - u, u))
    return u, (hats.T[:, None, :, None] * hats.T[None, :, None, :]).reshape(4, q * q)


# Far-field Gauss orders by separation ratio r = (Y0 - X1) / max(hX, hY) > 8:
# 6 points up to r = 32, 4 up to 256, 3 beyond.  Against a 20-point tensor
# rule each hat contribution is then within 1e-11 relative for 0.3 <= sp <= 7
# and cell aspect ratios 1e-2..1e2; the worst case, 4 points at r = 32 and
# sp = 7, is 7.5e-12.  One point fewer per tier misses 1e-11 at sp = 7, and
# the errors grow with sp (4 points at r = 32: 1.4e-11 at sp = 8), so
# assemble_operator refuses sp above _FAR_SP_MAX.
_FAR_R_MAX = np.array([32.0, 256.0])
_FAR_RULES = tuple(_hat_rule(q) for q in (6, 4, 3))
_FAR_SP_MAX = 7.0


def _far_hat_weights(X0, X1, Y0, Y1, sp):
    """Hat-weighted kernel integrals of disjoint cell pairs, Y0 > X1.

    Column b holds the integrals of (1-u)(1-v), (1-u) v, u (1-v) and u v
    times (y-x)^(-1-sp) over [X0,X1] x [Y0,Y1], u = (x-X0)/hX, v = (y-Y0)/hY,
    by tensor Gauss-Legendre of an order set by the separation ratio.  Each
    entry is a sum of positive terms, accurate (see _FAR_R_MAX) once the
    cells are more than 8 widths apart; nearer pairs need the closed forms.
    """
    hX, hY = X1 - X0, Y1 - Y0
    g = Y0 - X1
    tier = _FAR_R_MAX.searchsorted(g / np.maximum(hX, hY))
    out = np.empty((4, len(g)))
    for i, (u, W) in enumerate(_FAR_RULES):
        sel = tier == i
        if sel.all():
            sel = slice(None)  # the usual case: no copies
        elif not sel.any():
            continue
        gs, hx, hy = g[sel], hX[sel], hY[sel]
        # y - x = (Y0 - X1) + hX (1 - u_i) + hY v_j, a sum of nonnegative
        # terms; the pair index runs last so every ufunc loop is long
        d = np.multiply.outer(1.0 - u, hx)
        d += gs
        d = d[:, None, :] + np.multiply.outer(u, hy)
        d **= -1.0 - sp
        out[:, sel] = (W @ d.reshape(-1, len(gs))) * (hx * hy)
    return out


@dataclass
class DiscreteOperator:
    """Pair weights w, confinement densities b and dual-cell masses m.

    energy(v) = sum_{i != j} w_ij |v_i - v_j|^p + 2 sum_i m_i b_i |v_i|^p is
    the discrete Gagliardo seminorm of the zero-extended interpolant raised
    to the p-th power; apply(v) is the exact gradient of energy(v)/p and
    hessian(v, out) its Jacobian.  mu smooths the pair differences,
    psi(t) = (t^2 + mu^2)^((p-2)/2) t in place of [t]^(p-1); assembly leaves
    it 0 and the solver sets it for p < 2.
    w is bitwise symmetric; at p = 2, apply and energy read one triangle of
    it (w.T is the F-ordered view BLAS dsymv takes, lower=0 reads the lower
    triangle of w).
    """

    grid: Grid
    s: float
    p: float
    w: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)
    mu: float = 0.0

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def _linear(self) -> bool:
        return self.p == 2.0 and self.mu == 0.0

    @functools.cached_property
    def _diag(self) -> np.ndarray:
        # at p = 2 the operator is the matrix 2 (diag(_diag) - w); the row
        # sums of w read the same triangle as _apply_linear
        return dsymv(1.0, self.w.T, np.ones(self.n)) + self.m * self.b

    def _check(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ShapeMismatch(f"vector shape {v.shape}, operator size {self.n}")
        return v

    def _apply_linear(self, v) -> np.ndarray:
        # 2 (diag(_diag) v - w v) in one symmetric product
        return dsymv(-2.0, self.w.T, v, beta=2.0, y=self._diag * v, overwrite_y=1)

    def apply(self, v) -> np.ndarray:
        v = self._check(v)
        if self._linear:
            return self._apply_linear(v)
        su = _updiff_inplace(np.subtract.outer(v, v), self.p, self.mu)
        su *= self.w
        conf = _updiff_inplace(v.copy(), self.p, self.mu)
        return 2.0 * su.sum(axis=1) + 2.0 * self.m * self.b * conf

    def energy(self, v) -> float:
        v = self._check(v)
        if self._linear:
            return float(v @ self._apply_linear(v))
        pp = _pair_power_inplace(np.subtract.outer(v, v), self.p, self.mu)
        pp *= self.w
        inter = float(pp.sum())
        conf = _pair_power_inplace(v.copy(), self.p, self.mu)
        conf = float(2.0 * (self.m * self.b * conf).sum())
        return inter + conf

    def hessian(self, v, out: np.ndarray) -> np.ndarray:
        """Dense Hessian of energy/p at v, written into the n x n array out.

        2 (diag(L 1) - L) + diag(2 m b psi'(v)) with L_ij = w_ij psi'(v_i - v_j),
        psi' the slope of psi; symmetric positive semidefinite,
        and definite when psi'(v_i) > 0 at every node.  At p = 2 out may be
        float32: the Hessian is then written straight into it, rounded to
        single precision, for a factor that only preconditions.
        """
        v = self._check(v)
        n = self.n
        if self._linear:
            np.multiply(self.w, -2.0, out=out)
            out.flat[:: n + 1] += 2.0 * self._diag
            return out
        np.subtract.outer(v, v, out=out)
        _curvature_inplace(out, self.p, self.mu)
        out *= self.w
        diag = out.sum(axis=1) + self.m * self.b * _curvature_inplace(v.copy(), self.p, self.mu)
        out *= -2.0
        out.flat[:: n + 1] += 2.0 * diag
        return out

    def energy_over_p(self, v) -> float:
        return self.energy(v) / self.p


def assemble_operator(grid: Grid, s: float, p: float) -> DiscreteOperator:
    """Assemble pair weights by kernel integration against the hat basis.

    Cell pairs at index distance >= 2 integrate the kernel times products of
    the piecewise-linear hat weights: in closed form (long double) when the
    pair is within 8 cell widths, and beyond that by tensor Gauss-Legendre
    whose order (6, 4, 3 points) falls as the separation ratio grows; those
    orders are verified for s*p <= 7, and larger s*p raises OutOfRange.  Every
    far contribution is a sum of positive terms, so those weights are
    nonnegative by construction.  The singular band (same-cell and
    corner-touching cell pairs) is treated symmetrically through the local
    secant slope, which is exact on same-cell pairs and keeps every pair
    weight nonnegative, so the scheme is monotone.  Boundary cells carry the
    constant extension of the adjacent nodal value.
    """
    if not (0.0 < s < 1.0) or p <= 1.0:
        raise OutOfRange(f"need 0 < s < 1 and p > 1, got s={s}, p={p}")
    sp = s * p
    if sp > _FAR_SP_MAX:
        raise OutOfRange(
            f"s*p = {sp} exceeds {_FAR_SP_MAX}, the largest value the far-field "
            "Gauss orders are verified for"
        )
    n = grid.n
    t = grid.edges
    spn = _nudged_sp(sp)

    # Weights accumulate over the extended nodes t_0..t_{n+1} in diagonal
    # storage, F[d, i] for the node pair (i, i + d), so that every band below
    # is a contiguous slice; the boundary nodes t_0 and t_{n+1} are folded
    # onto their neighbours at the end (boundary cells carry the constant
    # extension of the adjacent nodal value).
    N = n + 2
    F = np.zeros((N + 1, N))

    # cell pairs at index distance >= 2: positive-weight Gauss
    # (_far_hat_weights), replaced by closed forms where the gap is at most 8
    # cell widths (the second differences stay well conditioned there)
    for gap in range(2, n + 1):
        L = n + 1 - gap  # x cells k = 0..L-1 against y cells k + gap
        X0, X1 = t[:L], t[1 : L + 1]
        Y0, Y1 = t[gap : gap + L], t[gap + 1 :]
        C = _far_hat_weights(X0, X1, Y0, Y1, sp)
        near = (Y0 - X1) <= 8.0 * np.maximum(X1 - X0, Y1 - Y0)
        if near.any():
            # extended precision: the closed forms are second differences and
            # lose ~ (span/width)^2 digits on strongly graded meshes
            ld = np.longdouble
            parts = _cell_pair_J(
                X0[near].astype(ld), X1[near].astype(ld),
                Y0[near].astype(ld), Y1[near].astype(ld), ld(spn),
            )
            J00, J01, J10, J11 = (part.astype(float) for part in parts)
            C[:, near] = (J00 - J10 - J01 + J11, J01 - J11, J10 - J11, J11)
        # hats at t_k, t_{k+1} against hats at t_{k+gap}, t_{k+gap+1}
        F[gap, :L] += C[0]
        F[gap + 1, :L] += C[1]
        F[gap - 1, 1 : L + 1] += C[2]
        F[gap, 1 : L + 1] += C[3]

    rho = p - 1.0 - sp
    # same-cell band: exact for the interpolant, slope (v_{k+1}-v_k)/h_k
    h = t[2 : n + 1] - t[1:n]  # interior cells [t_k, t_{k+1}], k = 1..n-1
    F[1, 1:n] += h ** (1.0 - sp) / ((p - sp) * (p + 1.0 - sp))

    # corner-touching band around each node t_k, secant slope across both cells
    hA = t[1 : n + 1] - t[:n]
    hB = t[2:] - t[1 : n + 1]
    F[2, :n] += _corner_rect(hA, hB, rho) / (hA + hB) ** p

    # E[i, d] = F[d, i]; E's rows laid end to end read as the upper triangle
    # of the N x N pair matrix (row i starts at its diagonal) followed by
    # zeros, since every stored pair has i + d <= N - 1
    E = np.ascontiguousarray(F.T)
    del F  # at most two N x N arrays alive at once
    U = E.reshape(-1)[: N * N].reshape(N, N)
    inner = U[1:-1, 1:-1]
    w = inner + inner.T
    # pairs with t_0 or t_{n+1} move onto the first or the last node
    for fold, node in ((U[0, 1:-1], 0), (U[1:-1, -1], n - 1)):
        w[node, :] += fold
        w[:, node] += fold
    w[0, -1] += U[0, -1]
    w[-1, 0] += U[0, -1]

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
    return DiscreteOperator(grid=grid, s=s, p=p, w=w, b=b, m=m)


# ---------------------------------------------------------------------------
# principal-value evaluation
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _tail_rule(panels: int):
    # the 10-point rule on each geometric panel [2**-(k+1), 2**-k] of (0, 1],
    # as log(tau) and weights
    lo = 2.0 ** -np.arange(1, panels + 1)[:, None]
    tau = lo * (1.5 + 0.5 * _GL_NODES[None, :])
    return np.log(tau).ravel(), (0.5 * lo * _GL_WEIGHTS[None, :]).ravel()


#: quadrature of the mapped exterior tail of eval_fplap_pv: 200 geometric
#: panels leave out tau < 2**-200, whose share of the tail is below
#: 2**(-200/p) for the PowerTail integrand of a barrier (alpha < s)
_TAIL_LOG_TAU, _TAIL_WEIGHTS = _tail_rule(200)
#: log of the largest radius the tail evaluates u at.  The panels reach
#: t = t_max 2**(200/sp), which overflows below sp = 0.2; the cap changes
#: only tau < (t_max / e**690)**sp, whose share of the tail is below
#: (t_max / e**690)**s: 1e-15 at s = 0.05 and t_max = 1, less above
_TAIL_LOG_T_CAP = 690.0


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


def eval_fplap_pv(u: GridFunction, x: float, s: float, p: float):
    """Principal value of the operator at an interior point x.

    Returns 2 * lim int_{|z-x|>eps} [u(x)-u(z)]^{p-1} |x-z|^{-1-s p} dz, with
    the symmetric core of radius cut = 2 h (h the local cell width at x)
    excluded, the rest of the line handled by dense panel quadrature, and
    the core contribution recovered by Richardson extrapolation over the two
    radii (cut, cut/2); the exclusion error scales like cut**(p(1-s)) for
    smooth profiles.  The exterior tail beyond the last grid edge and kink is
    mapped onto (0, 1] and integrated in one vectorized pass of fixed
    Gauss-Legendre panels, geometric toward the end that carries t = inf.
    """
    grid = u.grid
    a, b = grid.a, grid.b
    if not a < x < b:
        raise PointTooCloseToBoundary(f"x = {x} is not strictly interior to ({a}, {b})")
    r0 = 2.0 * grid.local_width(x)
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

    def diffs(tv):
        return updiff(ux, u(x + tv), p) + updiff(ux, u(x - tv), p)

    def pair(tv):
        return diffs(tv) * tv ** (-1.0 - sp)

    kinks = list(u.exterior.kinks(a, b))
    ref_pts = np.concatenate((grid.edges, np.asarray(kinks, dtype=float)))
    radii = np.unique(np.abs(ref_pts - x))
    t_far = max(x - a, b - x)
    kink_radii = np.abs(np.asarray(kinks, dtype=float) - x) if kinks else np.array([])
    t_max = max(t_far, float(kink_radii.max()) if len(kink_radii) else t_far)

    base = _gauss_segments(pair, _split_segments(radii, r0, t_max))
    annulus = _gauss_segments(pair, _split_segments(radii, 0.5 * r0, r0))

    # beyond t_max, t = t_max tau**(-1/sp) turns the tail into
    # t_max**-sp / sp * int_0^1 diffs(t) dtau; diffs is constant there for
    # the exteriors that are constant far out and grows like the integrable
    # tau**(-alpha (p-1) / sp) for PowerTail, hence panels geometric toward 0
    t = np.exp(np.minimum(np.log(t_max) - _TAIL_LOG_TAU / sp, _TAIL_LOG_T_CAP))
    base += t_max**-sp / sp * float(diffs(t) @ _TAIL_WEIGHTS)

    kappa = p * (1.0 - s)
    fac = 2.0**kappa / (2.0**kappa - 1.0)
    return 2.0 * (base + annulus * fac)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def gagliardo_energy(u: GridFunction, theta: float, op: DiscreteOperator) -> float:
    """Discrete [u**theta]_{s,p}^p for the zero-extended grid function.

    op is the operator assembled on u's grid for the (s, p) of the seminorm.
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
    return op.energy(v)
