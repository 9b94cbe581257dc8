"""Everything involving the kernel |x - y|**(-1 - s*p).

Contents: the nonlinear difference [a - b]**(p-1), the power-barrier scalar
Phi(alpha, s, p) with its bracketing constants, principal-value evaluation of
the operator on grid functions, assembly of the discrete energy/operator and
Gagliardo-type energies.  Assembly integrates the separated cell pairs in a
band of gaps next to the diagonal by one positive tensor Gauss rule whose
order is set by the pair's separation ratio, in blocks of consecutive gaps
of a fixed budget of kernel evaluations, and writes the far field beyond
the band as low-rank blocks of Chebyshev-interpolated kernel, on every
mesh; the blocks add into one store of the band's diagonals, each copied
once into the fold store through two strided views (_half_diagonal).
Every Gauss-Legendre rule here reads one cached leggauss, and the panel
rules of Phi, of the PV and of its tail all come from gauss_panels.

Conventions fixed here and recorded in every report:
  * the pointwise operator carries a factor 2 in front of the principal
    value, and eval_fplap_pv returns that convention;
  * apply() is the exact gradient of (1/p) * energy(), the discrete
    Gagliardo seminorm to the p-th power (interior double sum plus twice
    the mass-weighted confinement term), so energy(v) = v . apply(v) at mu = 0;
  * the pair matrix w is bitwise symmetric and nonnegative by construction,
    and at p = 2 the operator reads one triangle of it (BLAS dsymv);
  * every Grid is mirror-symmetric, so w is persymmetric, w[i, j] =
    w[n-1-i, n-1-j]: assembly integrates the left half of the mesh and keeps
    half of each diagonal of w in one h x h array and builds w, exactly
    persymmetric, only on request; b and m are mirror images to the last bit;
  * on mirror-symmetric vectors v = P v_L, with v_L the values at the
    h = ceil(n/2) left-half nodes and P stacking I over the reversal, the
    energy, apply and hessian of DiscreteOperator.folded are energy(P v_L),
    P^T apply(P v_L) and P^T hessian(P v_L) P: the same formulas on h nodes,
    whose h x h pair weights come from that array and its transpose.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import dsymv

from .core import Grid, GridFunction, Zero, check_sp, mirror_left_half
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
    out = np.asarray(np.subtract(aval, bval, dtype=float))
    _psi_inplace(out, p, 0.0)
    return out if out.ndim else float(out)


# The two pair functions below overwrite their float array t and work in at
# most two more of its size, passed in (a solve keeps them) or allocated.


def _psi_inplace(t, p, mu, r=None):
    # psi(t) = (t^2+mu^2)^((p-2)/2) t, written into t; returns the power
    # (t^2+mu^2)^((p-2)/2), in r, or None at mu = 0, where psi(t) = [t]^(p-1)
    if mu == 0.0:
        a = np.abs(t, out=r)
        a **= p - 1.0
        np.copysign(a, t, out=t)
        return None
    r = np.multiply(t, t, out=r)
    r += mu * mu
    r **= 0.5 * (p - 2.0)
    t *= r
    return r


def _curvature_inplace(t, p, mu, a=None, b=None):
    # derivative of psi in t, written into t, working in a and b:
    # (t^2+mu^2)^((p-4)/2) ((p-1) t^2 + mu^2), (p-1) |t|^(p-2) at mu = 0
    if mu == 0.0:
        np.abs(t, out=t)
        t **= p - 2.0
        t *= p - 1.0
        return t
    a = np.multiply(t, t, out=a)
    a += mu * mu
    a **= 0.5 * (p - 4.0)
    t *= np.multiply(t, p - 1.0, out=b)
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
    check_sp(s, p)
    check_alpha(alpha, s)
    sp = s * p
    beta = power_beta(alpha, s, p)
    if beta < 1.0:
        st = 0.5 * (s + beta)
        c1 = (st - s) / st / s / p
        c2 = 1.0 / sp
    else:
        c1 = 1.0 / sp
        c2 = 1.0 / sp + max(1.0, beta - 1.0) / (p * (1.0 - s))
    return c1, c2


#: orders of the two fixed rules behind Phi and the window seminorm of the
#: barrier check: the result is the higher one, and the lower one is its
#: error check.  Against mpmath, Phi is within 2.1e-14 relative at 12 points
#: and 1.4e-14 at 16 on s in {0.05, 0.3, 0.5, 0.7, 0.95},
#: p in {1.1, 1.5, 2, 3, 5} and alpha / s in {0.05, 0.1, ..., 0.95}.
QUAD_ORDERS = (12, 16)
#: largest difference of the two rules for Phi
_PHI_TOL = 1e-8


@functools.lru_cache(maxsize=32)
def jacobi_rule(n: int, b: float):
    """n-point Gauss rule for int_0^1 x**b f(x) dx, b > -1: nodes and weights.

    Golub & Welsch (1969): the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the polynomials orthogonal for (1 + t)**b
    on [-1, 1], mapped by x = (1 + t)/2, and the weights are
    mu_0 = int_0^1 x**b dx = 1/(b + 1) times the squared first components of
    its unit eigenvectors.  The rule is exact for polynomials of degree
    2n - 1, so x**b f with f analytic near [0, 1] converges geometrically
    in n.  Memoized: phi_constant and the window seminorm of the same (s, p)
    share one b; the arrays are read-only.
    """
    k = np.arange(1.0, n)
    t = 2.0 * k + b
    diag = np.empty(n)
    diag[0] = b / (b + 2.0)
    diag[1:] = b * b / (t * (t + 2.0))
    off = 2.0 * k * (k + b) / (t * np.sqrt(t * t - 1.0))
    nodes, vecs = eigh_tridiagonal(diag, off)
    x = 0.5 * (1.0 + nodes)
    w = vecs[0] ** 2 / (b + 1.0)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=None)
def _legendre(n: int):
    # n-point Gauss-Legendre nodes and weights on [-1, 1], read-only
    xi, om = np.polynomial.legendre.leggauss(n)
    xi.flags.writeable = om.flags.writeable = False
    return xi, om


def gauss_panels(edges, n: int):
    """The n-point Gauss-Legendre rule on each panel [edges[k], edges[k+1]],
    as flat nodes and weights, panel by panel."""
    xi, om = _legendre(n)
    lo = edges[:-1, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (lo + half * (1.0 + xi)).ravel(), (half * om).ravel()


def doubling_panels(start: float, end: float, n: int):
    """gauss_panels on [start, 2 start], [2 start, 4 start], ... up to end,
    the last one cut at end.  A function analytic in Re z > 0 sees its
    nearest singularity, z = 0 or beyond, at the same relative distance from
    every panel, so the rule's error falls like (3 + 8**0.5)**(-2n) on each."""
    edges = start * 2.0 ** np.arange(math.ceil(math.log2(end / start)))
    return gauss_panels(np.append(edges, end), n)


def rule_sums(f, rules) -> list:
    """sum(w * f(x)) for each rule (x, w) of rules, with the vectorized f
    evaluated once on all their nodes."""
    vals = f(np.concatenate([x for x, _ in rules]))
    sums, i = [], 0
    for x, w in rules:
        sums.append(float(w @ vals[i : i + len(x)]))
        i += len(x)
    return sums


def _phi_integrals(alpha: float, s: float, p: float, beta: float) -> list:
    """int_0^1 (1-y**alpha)**(p-1) (1-y**(beta-1)) (1-y)**(-1-sp) dy by the
    rules of each QUAD_ORDERS n: Gauss-Jacobi on [1/2, 1] and Gauss-Legendre
    panels in z = -log y, doubling from log 2, on (0, 1/2]."""
    sp = s * p

    def near_one(u):
        # y = 1 - u on [1/2, 1]: the integrand is u**(p-1-sp) A**(p-1) B with
        # A = (1 - y**alpha)/u and B = (1 - y**(beta-1))/u analytic up to y = 0
        lu = np.log1p(-u)
        return (-np.expm1(alpha * lu) / u) ** (p - 1.0) * (-np.expm1((beta - 1.0) * lu) / u)

    # y = e**-z on (0, 1/2]: the integrand times dy/dz is
    # (1 - e**(-alpha z))**(p-1) (e**-z - e**(-beta z)) (1 - e**-z)**(-1-sp),
    # analytic for Re z > 0.  It decays like e**(-b z), b = min(beta, 1), and
    # the panels stop where e**(-b z)/b < 1e-18, which bounds what they leave out
    b = min(beta, 1.0)
    d = beta - 1.0

    def near_zero(z):
        # e**-z - e**(-beta z) without overflow or cancellation
        diff = math.copysign(1.0, d) * np.exp(-b * z) * -np.expm1(-abs(d) * z)
        return (-np.expm1(-alpha * z)) ** (p - 1.0) * diff * (-np.expm1(-z)) ** (-1.0 - sp)

    jacobi = [jacobi_rule(n, p - 1.0 - sp) for n in QUAD_ORDERS]
    upper = rule_sums(near_one, [(0.5 * x, 0.5 ** (p - sp) * w) for x, w in jacobi])
    z_end = (41.5 - math.log(b)) / b
    lower = rule_sums(near_zero, [doubling_panels(math.log(2.0), z_end, n) for n in QUAD_ORDERS])
    return [sum(parts) for parts in zip(upper, lower)]


def phi_constant(alpha: float, s: float, p: float) -> PowerKernelOracle:
    """Compute Phi(alpha, s, p) by two fixed quadrature rules.

    The integrand has an integrable endpoint singularity (1-y)**(p-1-s*p) at
    y = 1 and, for beta < 1, a second one y**(beta-1) at y = 0, with the
    slowly varying y**alpha beside it.  The integral is split at 1/2: on
    [1/2, 1] a Gauss-Jacobi rule carries the weight (1-y)**(p-1-s*p), and on
    (0, 1/2] Gauss-Legendre panels in z = -log y double in length toward
    y = 0, so the slow tail of a small beta costs few panels: 11 at
    beta = 0.05, 13 at 0.01.
    Raises QuadratureFail when the rules of the two QUAD_ORDERS differ by
    more than _PHI_TOL, or when Phi escapes its bracket [c1, c2].
    """
    c1, c2 = bracket_constants(alpha, s, p)  # checks s, p and alpha
    sp = s * p
    beta = power_beta(alpha, s, p)
    if beta <= 0.0:
        raise AlphaOutOfRange(f"derived beta = {beta} must be positive")

    if abs(beta - 1.0) < 1e-14:
        # the (1 - y**(beta-1)) factor vanishes identically
        phi = 1.0 / sp
        return PowerKernelOracle(alpha, s, p, beta, phi, c1, c2)

    lo, hi = _phi_integrals(alpha, s, p, beta)
    if not abs(hi - lo) <= _PHI_TOL:
        raise QuadratureFail(
            f"phi rules of orders {QUAD_ORDERS} differ by {abs(hi - lo):.3e}, "
            f"more than {_PHI_TOL:.3e}"
        )
    phi = 1.0 / sp + hi
    if not (c1 - 1e-7 <= phi <= c2 + 1e-7):
        raise QuadratureFail(
            f"phi = {phi} escaped its bracket [{c1}, {c2}]; quadrature unreliable"
        )
    return PowerKernelOracle(alpha, s, p, beta, phi, c1, c2)


# ---------------------------------------------------------------------------
# discrete operator assembly
# ---------------------------------------------------------------------------


def _corner_rect(hA, hB, rho):
    """Integral of (y-x)^rho over the corner-touching rectangle [.,t]x[t,.]."""
    r2 = rho + 2.0
    # symmetric in hA and hB to the last bit, like the mirrored mesh
    return ((hA + hB) ** r2 - (hA**r2 + hB**r2)) / ((rho + 1.0) * r2)


def _hat_rule(q):
    """q-point Gauss nodes u on [0, 1] and the (4, q*q) tensor weights of the
    hat products (1-u)(1-v), (1-u) v, u (1-v), u v; every weight is positive."""
    xi, om = _legendre(q)
    u = 0.5 * (1.0 + xi)
    hats = 0.5 * om[:, None] * np.column_stack((1.0 - u, u))
    return u, (hats.T[:, None, :, None] * hats.T[None, :, None, :]).reshape(4, q * q)


# Gauss orders by separation ratio r = (Y0 - X1) / max(hX, hY), the gap in
# widths of the larger cell: 25 points up to r = 1/2, 16 up to 1, 12 up to 2,
# 9 up to 4, 7 up to 8, 6 up to 32, 4 up to 256, 3 beyond.  The kernel is
# analytic on the pair and singular at y - x = 0, r widths beyond its corner
# (X1, Y0), so the tensor rule's error falls geometrically in the order at a
# rate set by r, and each tier is worst at its smallest r.  Each order is the
# smallest that keeps every hat integral within 1e-11 relative there for
# 0.01 <= sp <= 7 and cell aspect ratios 1e-5..1e5, against composite Gauss
# (41 panels geometric toward the corner, 20 points each); the worst cases,
# at sp = 7, are 6.9e-12 (25 points, r = 0.2), 8.8e-12 (16, r = 1/2) and
# 7.5e-12 (4, r = 32), and one point fewer in any tier misses 1e-11.  The
# errors grow with sp (4 points at r = 32: 1.4e-11 at sp = 8), so
# assemble_operator refuses sp above _HAT_SP_MAX, and nearer pairs than
# _HAT_R_MIN are refused; build_grid meshes of grading <= 4 stay above it
# (their smallest r is 0.2308, cell 0 against cell 2).
_HAT_R_MIN = 0.2
_HAT_R_MAX = np.array([0.5, 1.0, 2.0, 4.0, 8.0, 32.0, 256.0])
_HAT_RULES = tuple(_hat_rule(q) for q in (25, 16, 12, 9, 7, 6, 4, 3))
_HAT_SP_MAX = 7.0
#: kernel evaluations per step of _hat_weights, 0.5 MB of them; an assembly
#: block takes whole gaps, at least one, of at most 2 * _EVAL_BUDGET // 9
#: cell pairs counted as _block_weights lays them out, two steps of the
#: cheapest rule (3 points, 9 evaluations).  So assembly's temporaries stay
#: a few MB above F (tracemalloc, gradings 1 to 4): 2.5-3.6 MB at n = 512
#: and 4.0-4.8 MB at n = 2048.  Of the steps tried, 2^15 to 2^17
#: evaluations, 2^17 assembled n = 2048 within 4% but n = 256 1.5 times
#: slower (its one block then holds many pairs past H_g), and 2^15 n = 2048
#: 13-18% slower.
_EVAL_BUDGET = 2**16


def _hat_weights(g, hX, hY, sp):
    """Hat-weighted kernel integrals of disjoint cell pairs [X0,X1] x [Y0,Y1]
    with gap g = Y0 - X1 > 0 and widths hX = X1 - X0, hY = Y1 - Y0, arrays
    of one shape.

    out[:, b] holds the integrals of (1-u)(1-v), (1-u) v, u (1-v) and u v
    times (y-x)^(-1-sp) over the pair at index b of g, u = (x-X0)/hX,
    v = (y-Y0)/hY, by one tensor Gauss-Legendre rule whose order is set by
    the separation ratio r (see _HAT_R_MAX).  Each entry is a sum of
    positive terms.  Raises OutOfRange for a pair with r < _HAT_R_MIN,
    nearer than the orders are verified for.  The pairs of one order are
    evaluated _EVAL_BUDGET kernels at a time.
    """
    r = np.maximum(hX, hY)
    np.divide(g, r, out=r)
    r_min = float(r.min())
    if r_min < _HAT_R_MIN:
        raise OutOfRange(
            f"cell pair separation ratio {r_min:.3g} is below {_HAT_R_MIN}, the "
            "smallest the Gauss orders are verified for"
        )
    # the index into _HAT_RULES: the number of bounds strictly below r
    tier = _HAT_R_MAX.searchsorted(r)
    out = np.empty((4,) + r.shape)
    for i in np.flatnonzero(np.bincount(tier.ravel(), minlength=len(_HAT_RULES))):
        u, W = _HAT_RULES[i]
        q = len(u)
        step = max(_EVAL_BUDGET // (q * q), 1)
        mine = tier == i
        gs, hx, hy = g[mine], hX[mine], hY[mine]
        part = np.empty((4, len(gs)))
        for lo in range(0, len(gs), step):
            hi = lo + step
            # y - x = (Y0 - X1) + hX (1 - u_i) + hY v_j, a sum of nonnegative
            # terms; the pair index runs last so every ufunc loop is long
            a = np.multiply.outer(1.0 - u, hx[lo:hi])
            a += gs[lo:hi]
            d = np.add(a[:, None, :], np.multiply.outer(u, hy[lo:hi]))
            d **= -1.0 - sp
            np.matmul(W, d.reshape(q * q, -1), out=part[:, lo:hi])
        part *= hx * hy
        for row, val in zip(out, part):  # by rows: faster than integer indices
            row[mine] = val
    return out


def _block_weights(tp, wdp, n: int, g0: int, g1: int, sp: float):
    """Hat integrals C[:, g - g0, k] of x cell k against y cell k + g for the
    gaps g0 <= g < g1 and k <= H = (n + 2 - g0) // 2, from the edges tp and
    widths wdp of the extended cells padded past the last, for
    assemble_operator's diagonal store.  Pairs k < H_g are integrated; the
    rest come out 0, except C0 of pair H_g, the mirror image of pair
    H_g - 1, x -> a + b - x, which takes its C3."""
    nb, hmax = g1 - g0, (n + 2 - g0) // 2
    shape = (nb, hmax + 1)
    gap = np.subtract(_strided(tp, g0, (1, 1), shape), tp[1 : hmax + 2])
    beyond = np.arange(g0, g0 + 2 * hmax + nb) > n  # k >= H_g at 2 k + g
    np.copyto(gap, np.inf, where=_strided(beyond, 0, (1, 2), shape))
    C = _hat_weights(gap, np.broadcast_to(wdp[: hmax + 1], shape),
                     _strided(wdp, g0, (1, 1), shape), sp)
    rows, last = np.arange(nb), (n + 2 - np.arange(g0, g1)) // 2  # H_g
    C[0, rows, last] = C[3, rows, last - 1]
    return C


def _strided(a, start: int, steps, shape):
    """The view v[i, j] = a.flat[start + i steps[0] + j steps[1]] of the
    C-contiguous array a; the constructor refuses one reaching outside a."""
    return np.ndarray(shape, a.dtype, a, start * a.itemsize, [k * a.itemsize for k in steps])


def _half_diagonal(F, n: int, d: int):
    """The two views of the fold store F (h x h, h = ceil(n/2)) that hold the
    persymmetric half of diagonal d of the n-node pair weights, w[i, i + d]
    for i <= (n - 1 - d) / 2: the entries with i + d < h on diagonal d of F,
    the rest, w[i, n-1-j] with j = n-1-d-i >= i, at F[j, i] on the
    anti-diagonal row + col = n-1-d."""
    h, flat = len(F), F.reshape(-1)
    top, count = max(h - d, 0), (n + 1 - d) // 2
    start = (n - 1 - d - top) * h + top  # F[n-1-d-top, top]
    return flat[d :: h + 1][:top], flat[start :: -max(h - 1, 1)][: count - top]


# Far field.  The node indices 0..h-1 of the fold store's rows and columns
# are bisected into clusters of at most _FAR_LEAF nodes (_cluster_tree).  A
# pair of clusters is admissible when the gap between their hat supports, in
# the upper triangle of F or across the mirror in its fold block, is at
# least _FAR_ETA times the larger support (_far_blocks).  There the kernel
# is analytic in a Bernstein ellipse of parameter 5 + 24^(1/2) = 9.9 around
# each support, and its tensor interpolant at _FAR_ORDER Chebyshev points
# of the two supports gives the block's weights as U_I K_IJ U_J^T
# (_moments, _far_field).  Against a 16-point tensor Gauss rule on every
# cell pair, sampled far weights at n = 512 and 1024, gradings 1, 2 and 4,
# sp in {0.3, 1, 1.5, 7} are within 1.6e-13 relative, columns next to b and
# the pair (0, n-1) included; 20 points give the same, 16 points 1.3e-10.
# Every pair outside the admissible blocks lies in a band of gaps next to
# the diagonal, which the Gauss pipeline integrates as before.
_FAR_LEAF = 16
_FAR_ETA = 2.0
_FAR_ORDER = 24
#: Chebyshev points cos(pi (a + 1/2) / m) on [-1, 1] and the coefficients
#: C[k, a] = (2 - [k = 0]) T_k(c_a) / m of their Lagrange polynomials,
#: L_a = sum_k C[k, a] T_k
_CHEB = np.cos(np.pi * (np.arange(_FAR_ORDER) + 0.5) / _FAR_ORDER)
_CHEB_COEF = np.cos(np.outer(np.arange(_FAR_ORDER), np.arccos(_CHEB))) * (2.0 / _FAR_ORDER)
_CHEB_COEF[0] *= 0.5


def _chebyshev(z, V=None):
    """T_k(z) for k < _FAR_ORDER, stacked first; with a matrix V, each
    T_k(z) @ V in its place."""
    out = np.empty((_FAR_ORDER,) + (z.shape if V is None else z.shape[:-1] + V.shape[1:]))
    prev, t = z, np.ones_like(z)  # T_{-1} = T_1 = z continues the recurrence
    for k in range(_FAR_ORDER):
        if V is None:
            out[k] = t
        else:
            np.matmul(t, V, out=out[k])
        prev, t = t, 2.0 * z * t - prev
    return out


def _cluster_tree(h: int):
    """The bisection of node indices 0..h-1: lists lo, hi and kids of the
    clusters [lo, hi), parents first, kids the two halves of a cluster of
    more than _FAR_LEAF nodes and () for a leaf."""
    lo, hi, kids = [0], [h], []
    while len(kids) < len(lo):
        a, b = lo[len(kids)], hi[len(kids)]
        if b - a > _FAR_LEAF:
            kids.append((len(lo), len(lo) + 1))
            lo += [a, (a + b) // 2]
            hi += [(a + b) // 2, b]
        else:
            kids.append(())
    return lo, hi, kids


def _far_blocks(x, to_mid, n: int, tree):
    """The admissible blocks of the fold store, as (row cluster, column
    cluster, gap, fold), fold blocks first, and the band: the largest gap
    j - i of a pair w[i, j] in none of them.

    x holds the edges t_0..t_{h+1} of the mirror-exact left half and to_mid
    their distances (a + b)/2 - x to the middle; cluster [lo, hi) has the
    support [x[lo], x[hi + 1]].  An upper block holds the pairs
    F[i, j] = w[i, j] of i in its row cluster and j in its column cluster,
    right of it, with gap x[lo_J] - x[hi_I + 1].  A fold block holds
    F[r, c] = w[c, n-1-r], c <= r, of c in its column cluster I and r in
    its row cluster J, not left of I: y runs over the mirror image of r's
    support, and the gap is to_mid[hi_I + 1] + to_mid[hi_J + 1]."""
    lo, hi, kids = tree
    x, to_mid = x.tolist(), to_mid.tolist()
    size = [x[b + 1] - x[a] for a, b in zip(lo, hi)]
    far, band = [], 0

    def visit(i, j, fold):  # cluster i not right of cluster j
        nonlocal band
        if fold:
            gap = to_mid[hi[i] + 1] + to_mid[hi[j] + 1]
        else:
            gap = x[lo[j]] - x[hi[i] + 1]
        if gap >= _FAR_ETA * max(size[i], size[j]):
            far.append((j, i, gap, True) if fold else (i, j, gap, False))
        elif not kids[i] and not kids[j]:
            band = max(band, n - 1 - lo[i] - lo[j] if fold else hi[j] - 1 - lo[i])
        elif i == j:
            a, b = kids[i]
            for pair in ((a, a), (a, b), (b, b)):
                visit(*pair, fold)
        else:
            for a in kids[i] or (i,):
                for b in kids[j] or (j,):
                    visit(a, b, fold)

    visit(0, 0, True)
    visit(0, 0, False)
    return far, band


def _far_partition(grid: Grid, wd):
    """(x, tree, far, band): the edges t_0..t_{h+1} of the mirror-exact left
    half, t_{h+1} the mirror image of t_h or t_{h-1}, from the cell widths
    wd; the cluster tree; its admissible blocks; and the band of gaps j - i
    that the Gauss pipeline integrates.  Every mesh is partitioned; one
    with no admissible block has far = [] and the band n - 1, as has every
    mesh of h <= _FAR_LEAF nodes, a single leaf: adjacent leaves are never
    admissible."""
    n, h, t = grid.n, (grid.n + 1) // 2, grid.edges
    x = np.append(t[: h + 1], t[h] + wd[h])
    tree = _cluster_tree(h)
    far, band = _far_blocks(x, 0.5 * (grid.a + grid.b) - x, n, tree)
    return x, tree, far, band


def _moments(x, wd, tree):
    """U[c][i, a]: the integral of node lo_c + i's basis function against
    the Lagrange polynomial L_a of the Chebyshev points of cluster c's
    support, for every cluster c but the root.

    A node's basis is its hat, constant 1 on the boundary cell [t_0, t_1]
    for node 0, where the pairs of t_0 are folded onto it.  On a leaf the
    integrals take a Gauss rule on each cell that is exact for the degree
    _FAR_ORDER of hat times polynomial; a parent's are its kids' times
    L_b at the kids' Chebyshev points, which interpolate L_b exactly."""
    lo, hi, kids = tree
    m = _FAR_ORDER
    size = np.array([x[b + 1] - x[a] for a, b in zip(lo, hi)])
    leaves = np.array(sorted((lo[c], hi[c]) for c in range(len(lo)) if not kids[c]))
    count = leaves[:, 1] - leaves[:, 0]
    # cell k of leaf j, [x_k, x_{k+1}], is entry k + j: a leaf takes its
    # cells lo..hi, its last one shared with the next leaf
    leaf = np.repeat(np.arange(len(leaves)), count + 1)
    k = np.arange(len(leaf)) - leaf
    first = leaves[leaf, 0]
    xi, om = _legendre(m // 2 + 1)
    u = 0.5 * (1.0 + xi)
    z = (x[k] - x[first])[:, None] + np.multiply.outer(wd[k], u)
    z *= (2.0 / (x[leaves[leaf, 1] + 1] - x[first]))[:, None]
    z -= 1.0
    # the rising and falling hat parts u and 1 - u on each cell, by T_k(z)
    # times the Gauss weights of the cell's unit rule, then times its width
    M = _chebyshev(z, np.column_stack((u, 1.0 - u)) * (0.5 * om)[:, None])
    M *= wd[k][:, None]
    rise, fall = (np.tensordot(M[..., j], _CHEB_COEF, (0, 0)) for j in (0, 1))
    # node i of leaf j rises on cell i and falls on cell i + 1
    e = np.arange(x.size - 2) + np.repeat(np.arange(len(leaves)), count)
    U_leaves = rise[e] + fall[e + 1]
    U_leaves[0] += fall[0]
    # each kid's Chebyshev points in its parent's unit coordinates, and the
    # parent's Lagrange polynomials there, S[kid][a, b] = L_b(point a)
    parent, kid = np.array([(c, kid) for c in range(len(lo)) for kid in kids[c]]).T
    start = x[np.array(lo)]
    z = (2.0 * (start[kid] - start[parent])[:, None]
         + np.multiply.outer(size[kid], 1.0 + _CHEB)) / size[parent, None] - 1.0
    S = dict(zip(kid.tolist(), np.tensordot(_chebyshev(z), _CHEB_COEF, (0, 0))))
    U = [None] * len(lo)
    for c in reversed(range(1, len(lo))):  # the root, across the middle, is never admissible
        if not kids[c]:
            U[c] = U_leaves[lo[c] : hi[c]]
            continue
        U[c] = np.empty((hi[c] - lo[c], m))
        for kid in kids[c]:
            np.matmul(U[kid], S[kid], out=U[c][lo[kid] - lo[c] : hi[kid] - lo[c]])
    return U, size


def _far_field(F, far, tree, U, size, sp: float) -> None:
    """Write the admissible blocks (_far_blocks) into F: rows lo_I..hi_I - 1
    and columns lo_J..hi_J - 1 of F take U_I K U_J^T, K[a, b] the kernel
    at distance gap + the distances of Chebyshev point a of I's support to
    its right end and of point b of J's to its left end, or to its right
    end across the mirror in a fold block.  Fold blocks go first: those
    on F's diagonal write their whole square, and the upper blocks and
    the band overwrite its upper triangle."""
    lo, hi, _ = tree
    m = _FAR_ORDER
    right, left = 0.5 * (1.0 - _CHEB), 0.5 * (1.0 + _CHEB)
    step = max(_EVAL_BUDGET // (m * m), 1)
    for s0 in range(0, len(far), step):
        blocks = far[s0 : s0 + step]
        I, J, gap, fold = (np.array(v) for v in zip(*blocks))
        d = np.multiply.outer(size[I], right)
        d += gap[:, None]
        to_J = np.where(fold[:, None], right, left)
        to_J *= size[J][:, None]
        K = np.add(d[:, :, None], to_J[:, None, :])
        K **= -1.0 - sp
        for (i, j, _, _), k in zip(blocks, K):
            np.matmul(U[i] @ k, U[j].T, out=F[lo[i] : hi[i], lo[j] : hi[j]])


@dataclass
class DiscreteOperator:
    """Pair weights w, confinement densities b and dual-cell masses m.

    energy(v) = sum_{i != j} w_ij |v_i - v_j|^p + 2 sum_i m_i b_i |v_i|^p is
    the discrete Gagliardo seminorm of the zero-extended interpolant raised
    to the p-th power; apply(v) is the exact gradient of energy(v)/p and
    hessian(v, out) its Jacobian.  mu smooths the pair differences,
    psi(t) = (t^2 + mu^2)^((p-2)/2) t in place of [t]^(p-1) and its
    primitive (t^2 + mu^2)^(p/2) - mu^p in place of |t|^p; assembly leaves
    it 0 and the solver sets it for p < 2.  energy_and_apply gives energy
    and apply from one pair sweep.
    pairs is the dense w, as folded leaves it, or, as assemble_operator
    leaves it, the h x h fold store F, h = ceil(n/2): its strict upper
    triangle holds w[:h, :h] and its lower one, diagonal included, the fold
    block B[i, j] = w[i, n-1-j], both symmetric; folded reads F, and w is
    built from it on first access.  w is bitwise symmetric; at p = 2, apply
    and energy read one triangle of it (w.T is the Fortran-ordered view
    dsymv takes, lower=0 reads the lower triangle of w).  n is the number of
    nodes the operator acts on: grid.n, or h = ceil(grid.n / 2) for the
    folded operator (see folded).
    """

    grid: Grid
    p: float
    pairs: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)
    mu: float = 0.0

    @property
    def n(self) -> int:
        return len(self.m)

    @property
    def _linear(self) -> bool:
        return self.p == 2.0 and self.mu == 0.0

    @functools.cached_property
    def w(self) -> np.ndarray:
        """The n x n pair weights; built from the fold store F on first
        access, exactly symmetric and persymmetric, w[i, j] = w[n-1-i, n-1-j]."""
        F, n = self.pairs, self.n
        h, k = len(F), n // 2
        if h == n:
            return F
        A, B = np.triu(F, 1), np.tril(F)
        B += np.tril(F, -1).T  # the fold block, B[i, j] = w[i, n-1-j]
        if n % 2:  # its middle row is column k of w[:h, :h]: w[k, n-1-j] = w[j, k]
            B[k] = B[:, k] = F[:, k]
        w = np.empty((n, n))
        w[:h, :h] = A + A.T
        w[:h, k:] = B[:, ::-1]
        w[h:] = w[k - 1 :: -1, ::-1]  # w[n-1-i, n-1-j] = w[i, j]
        return w

    @functools.cached_property
    def _diag(self) -> np.ndarray:
        # row sums of w plus m b: at p = 2 the operator is 2 (diag(_diag) - w),
        # and the row sums read the same triangle as _apply_linear
        return dsymv(1.0, self.w.T, np.ones(self.n)) + self.m * self.b

    @functools.cached_property
    def folded(self) -> "DiscreteOperator":
        """The operator on mirror-symmetric vectors, in their h = ceil(n/2)
        left-half values, built once from the fold store.

        For v = P v_L, with P stacking I over the reversal, row i < h of
        every pair sum reads v_j = v_{n-1-j}, so column j >= h folds onto
        column n-1-j.  With c_i = 2 for a mirrored node and 1 for the middle
        node of an odd n, the folded masses are c m[:h] and the pair weights
        S[i, j] = 2 (w[i, j] + w[i, n-1-j]), without the second term in the
        middle row and column.  Then energy(v_L) = energy(P v_L),
        apply(v_L) = P^T apply(P v_L) = c * apply(P v_L)[:h] and
        hessian(v_L) = P^T H P: the full Newton direction and decrement from
        h x h pair passes.  The fold store F holds w[i, j] above its diagonal
        and w[i, n-1-j] on and below it, and nothing in the middle row of an
        odd n, so S = 2 (F + F^T) off the diagonal.  The pair (i, n-1-i)
        lands on the diagonal of S, where its difference is 0.  At p = 2,
        folded._diag caches the diagonal of 2 (diag(_diag) - S).  Raises
        ShapeMismatch on an operator whose pairs is already a dense w.
        """
        n, F = self.n, self.pairs
        h = (n + 1) // 2
        if len(F) != h:
            raise ShapeMismatch(f"folded reads the {h} x {h} fold store of an assembled "
                                f"operator, not pairs of shape {F.shape}")
        S = F + F.T
        S *= 2.0
        S.flat[:: h + 1] *= 0.5  # F + F.T counts the diagonal twice
        c = np.full(h, 2.0)
        if n % 2:
            c[-1] = 1.0
        return DiscreteOperator(grid=self.grid, p=self.p, pairs=S, b=self.b[:h],
                                m=c * self.m[:h], mu=self.mu)

    def _check(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ShapeMismatch(f"vector shape {v.shape}, operator size {self.n}")
        return v

    def _check_grid(self, grid: Grid) -> None:
        g = self.grid
        if (grid.a, grid.b) != (g.a, g.b) or not np.array_equal(grid.nodes, g.nodes):
            raise ShapeMismatch(f"operator assembled on the mesh of n = {g.n}, grading "
                                f"{g.q:g}, not on this one of n = {grid.n}, grading {grid.q:g}")

    def _apply_linear(self, v) -> np.ndarray:
        # 2 (diag(_diag) v - w v) in one symmetric product
        return dsymv(-2.0, self.w.T, v, beta=2.0, y=self._diag * v, overwrite_y=1)

    def energy_and_apply(self, v, scratch=(None, None)):
        """(energy(v), apply(v)) from one sweep of the pairs, with one power
        r = (t^2 + mu^2)^((p-2)/2) of each difference t, psi(t) = r t.  With
        g = apply(v), v . g = sum w t psi(t) + 2 sum m b v psi(v) is the
        energy at mu = 0 (Euler's identity).  At mu > 0 each primitive term
        r (t^2 + mu^2) - mu^p is t psi(t) + mu^2 r - mu^p, so the energy is
        v . g + mu^2 (sum w r + 2 sum m b r) - mu^p (sum w + 2 sum m b).
        It works in the two n x n arrays of scratch, as hessian does."""
        v = self._check(v)
        if self._linear:
            g = self._apply_linear(v)
            return float(v @ g), g
        mb2 = 2.0 * self.m * self.b
        pairs, conf = np.subtract.outer(v, v, out=scratch[0]), v.copy()
        r = _psi_inplace(pairs, self.p, self.mu, scratch[1])
        rc = _psi_inplace(conf, self.p, self.mu)
        # _diag + m b sums to sum w + 2 sum m b
        flat = 0.0 if r is None else (self.mu**2 * (np.vdot(self.w, r) + mb2 @ rc)
                                      - self.mu**self.p * (self._diag + self.m * self.b).sum())
        pairs *= self.w
        g = 2.0 * pairs.sum(axis=1) + mb2 * conf
        return float(v @ g) + flat, g

    def apply(self, v) -> np.ndarray:
        return self.energy_and_apply(v)[1]

    def energy(self, v) -> float:
        return self.energy_and_apply(v)[0]

    def hessian(self, v, out: np.ndarray, scratch=(None, None)) -> np.ndarray:
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
        _curvature_inplace(out, self.p, self.mu, *scratch)
        out *= self.w
        diag = out.sum(axis=1) + self.m * self.b * _curvature_inplace(v.copy(), self.p, self.mu)
        out *= -2.0
        out.flat[:: n + 1] += 2.0 * diag
        return out


def assemble_operator(grid: Grid, s: float, p: float) -> DiscreteOperator:
    """Assemble pair weights by kernel integration against the hat basis.

    Cell pairs at index distance >= 2 near the diagonal integrate the kernel
    times products of the piecewise-linear hat weights by one tensor
    Gauss-Legendre rule whose order, 25 points down to 3, is set by the
    separation ratio r (gap over the larger width, _hat_weights); those
    orders are verified for r >= 0.2, which every build_grid mesh of
    grading <= 4 keeps, and for s*p <= 7, and larger s*p raises OutOfRange.
    Every such contribution is a sum of positive terms.  The singular band
    (same-cell and corner-touching cell pairs) is treated symmetrically
    through the local secant slope, which is exact on same-cell pairs and
    positive, so every weight of the band is nonnegative by construction;
    the far weights below are positive to their accuracy, and a negative
    weight beyond rounding raises FracpError.  Boundary cells carry the
    constant extension of the adjacent nodal value.

    The mesh is mirror-symmetric (a Grid invariant), so only the left half of
    each diagonal of cell pairs is integrated, and the right half is its
    reflection; cell widths, b and m take their right half from the left
    half, whose small cells near a are free of the rounding that edges near
    b carry.  w is persymmetric, w[i, j] = w[n-1-i, n-1-j], so the operator
    keeps half of each of its diagonals, about n^2/4 numbers, in the two
    triangles of the h x h fold store F (DiscreteOperator).

    Pairs w[i, j] whose clusters of nodes lie far apart (_far_blocks: gap
    at least _FAR_ETA times the larger hat support) are not integrated cell
    pair by cell pair: their block of F is U_I K U_J^T, the kernel
    interpolated at _FAR_ORDER Chebyshev points of each cluster's support
    against the moments of the hat basis (_moments, _far_field), within
    1.6e-13 of a 16-point Gauss rule on every cell pair (measured up to
    n = 1024, gradings 1 to 4, sp <= 7).  They leave a band of gaps j - i
    next to the diagonal, 63 to 159 at gradings 1 to 4 for n = 1024 to
    8192, and only its pairs take the Gauss rules above, so their weights
    are the pipeline's to the last bit.  Every mesh takes this one path;
    on one with no admissible block (h <= _FAR_LEAF among them) the band
    is every gap.

    The band's cell pairs go through _hat_weights in blocks of consecutive
    gaps, one call per block of at most 2 * _EVAL_BUDGET // 9 pairs, so the
    temporaries stay a few MB at every n.  Each block adds its integrals
    into one store of the band's diagonals as four shifted slices, in each
    entry's order of gaps; then the singular bands go in, the pairs of t_0
    fold onto node 0, and each diagonal is copied once into its two strided
    views of F (_half_diagonal), over the far field's values there.
    """
    check_sp(s, p)
    sp = s * p
    if sp > _HAT_SP_MAX:
        raise OutOfRange(
            f"s*p = {sp} exceeds {_HAT_SP_MAX}, the largest value the Gauss "
            "orders of the cell pairs are verified for"
        )
    n, h = grid.n, (grid.n + 1) // 2
    t = grid.edges
    # cell widths t_{k+1} - t_k, k = 0..n, the right half taken from the left
    # (the Grid invariant): edges near b carry b's rounding, their mirror
    # images near a do not
    wd = mirror_left_half(np.diff(t))

    F = np.zeros((h, h))
    x, tree, far, band = _far_partition(grid, wd)
    if far:
        _far_field(F, far, tree, *_moments(x, wd, tree), sp)
        if n % 2:  # the middle row of an odd n holds nothing
            F[-1] = 0.0

    # The band accumulates in one diagonal store over the extended nodes
    # t_0..t_{n+1}, D[d, k] the pair (t_k, t_{k+d}), gap by gap: x cell k
    # against y cell k + g adds its hat integrals C0..C3 to D[g, k],
    # D[g + 1, k], D[g - 1, k + 1] and D[g, k + 1], in the order C1, C0, C3,
    # C2 of each entry's gaps, so the blocks change no sum.  Gaps up to
    # band + 2 complete diagonal band + 1, whose position 0 w[0, band] takes.
    last = min(band + 2, n)
    D = np.zeros((last + 2, n // 2 + 2))
    # edges t_0..t_n and widths, padded past the last cell for the strided
    # views of _block_weights, whose pairs there are integrated as gap inf
    tp, wdp = (np.concatenate((a[: n + 1], np.zeros(n))) for a in (t, wd))
    g0 = 2
    while g0 <= last:  # nb gaps of H_g0 + 1 pairs each (_block_weights)
        g1 = min(g0 + max(2 * _EVAL_BUDGET // 9 // ((n + 4 - g0) // 2), 1), last + 1)
        C = _block_weights(tp, wdp, n, g0, g1, sp)
        cols = C.shape[2]  # positions 0..H
        D[g0 + 1 : g1 + 1, :cols] += C[1]
        D[g0:g1, :cols] += C[0]
        D[g0:g1, 1 : cols + 1] += C[3]
        D[g0 - 1 : g1 - 1, 1 : cols + 1] += C[2]
        g0 = g1

    # the singular bands, last in each sum.  Same-cell: exact for the
    # interpolant, slope (v_{k+1}-v_k)/h_k, on the interior cells
    # [t_k, t_{k+1}], k = 1..n-1, the pair (t_k, t_{k+1}) at D[1, k]
    same = wd[1:n] ** (1.0 - sp) / ((p - sp) * (p + 1.0 - sp))
    # corner-touching around each node t_k, secant slope across both cells:
    # the pair (t_{k-1}, t_{k+1}) at D[2, k - 1], k = 1..n
    hA, hB = wd[:n], wd[1:]
    corner = _corner_rect(hA, hB, p - 1.0 - sp) / (hA + hB) ** p
    for row, values in ((D[1, 1:], same), (D[2], corner)):
        row[: len(values)] += values[: len(row)]
    # pairs with t_0 move onto the first node, (t_0, t_{d+1}) onto
    # w[0, d] = D[d, 1]; pairs with t_{n+1} onto the last, their mirror
    # images, so only w[0, n-1] takes more: (t_1, t_{n+1}), the image of
    # (t_0, t_n), and (t_0, t_{n+1})
    D[1 : band + 1, 1] += D[2 : band + 2, 0]
    if band == n - 1:
        D[n - 1, 1] = D[n - 1, 1] + D[n, 0] + D[n + 1, 0]
    # diagonal d holds w[i, i + d] at D[d, i + 1]; it goes once into its two
    # views of F, over the far field's values there
    for d in range(1, band + 1):
        up, down = _half_diagonal(F, n, d)
        k = len(up) + 1
        up[:], down[:] = D[d, 1:k], D[d, k : k + len(down)]

    wmin = float(F.min())
    if wmin < 0.0:
        if wmin < -1e-9 * float(F.max()):
            raise FracpError(
                f"assembly instability: negative pair weight {wmin:.3e} detected"
            )
        np.clip(F, 0.0, None, out=F)

    x = grid.nodes
    b = mirror_left_half(((x - grid.a) ** (-sp) + (grid.b - x) ** (-sp)) / sp)
    m = grid.masses
    return DiscreteOperator(grid=grid, p=p, pairs=F, b=b, m=m)


# ---------------------------------------------------------------------------
# principal-value evaluation
# ---------------------------------------------------------------------------

#: Gauss-Legendre points per panel of eval_fplap_pv
_PV_ORDER = 10
#: quadrature of the mapped exterior tail of eval_fplap_pv: 200 doubling
#: panels leave out tau < 2**-200, whose share of the tail is below
#: 2**(-200/p) for the PowerTail integrand of a barrier (alpha < s)
_TAIL_TAU, _TAIL_WEIGHTS = doubling_panels(2.0**-200, 1.0, _PV_ORDER)
_TAIL_LOG_TAU = np.log(_TAIL_TAU)
#: log of the largest radius the tail evaluates u at.  The panels reach
#: t = t_max 2**(200/sp), which overflows below sp = 0.2; the cap changes
#: only tau < (t_max / e**690)**sp, whose share of the tail is below
#: (t_max / e**690)**s: 1e-15 at s = 0.05 and t_max = 1, less above
_TAIL_LOG_T_CAP = 690.0


def eval_fplap_pv(u: GridFunction, x: float, s: float, p: float):
    """Principal value of the operator at an interior point x.

    Returns 2 * lim int_{|z-x|>eps} [u(x)-u(z)]^{p-1} |x-z|^{-1-s p} dz, with
    the symmetric core of radius cut = 2 h (h the local cell width at x)
    excluded and its contribution recovered by Richardson extrapolation over
    the two radii (cut, cut/2); the exclusion error scales like
    cut**(p(1-s)) for smooth profiles.  The radii from cut/2 to t_max, the
    farthest grid edge or kink, take one pass of Gauss-Legendre panels
    (gauss_panels, _PV_ORDER points each) broken at cut and at every edge
    and kink radius, where the annulus below cut carries the Richardson
    factor.  The exterior tail beyond t_max is mapped onto (0, 1] and
    integrated by doubling panels geometric toward the end that carries
    t = inf.
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

    kinks = np.asarray(u.exterior.kinks(a, b), dtype=float)
    radii = np.abs(np.concatenate((grid.edges, kinks)) - x)
    t_max = max(x - a, b - x, *np.abs(kinks - x))

    breaks = radii[(radii > 0.5 * r0) & (radii < t_max)]
    edges = np.unique(np.concatenate(([0.5 * r0, r0, t_max], breaks)))
    t, w = gauss_panels(edges, _PV_ORDER)
    kappa = p * (1.0 - s)
    w[: _PV_ORDER * edges.searchsorted(r0)] *= 2.0**kappa / (2.0**kappa - 1.0)
    near = float((diffs(t) * t ** (-1.0 - sp)) @ w)

    # beyond t_max, t = t_max tau**(-1/sp) turns the tail into
    # t_max**-sp / sp * int_0^1 diffs(t) dtau; diffs is constant there for
    # the exteriors that are constant far out and grows like the integrable
    # tau**(-alpha (p-1) / sp) for PowerTail, hence panels geometric toward 0
    t = np.exp(np.minimum(np.log(t_max) - _TAIL_LOG_TAU / sp, _TAIL_LOG_T_CAP))
    tail = t_max**-sp / sp * float(diffs(t) @ _TAIL_WEIGHTS)
    return 2.0 * (near + tail)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def gagliardo_energy(u: GridFunction, theta: float, op: DiscreteOperator) -> float:
    """Discrete [u**theta]_{s,p}^p for the zero-extended grid function.

    op is the operator assembled on u's grid for the (s, p) of the seminorm;
    a u on other nodes raises ShapeMismatch.  Interior double sum plus twice
    the mass-weighted confinement term, taken on the left half by op.folded:
    u must be mirror-symmetric exactly, as every solution fracp computes is,
    or OutOfRange is raised.  The
    divergence decision under mesh refinement belongs to the scan driver;
    this returns the single-grid value.
    """
    if theta < 1.0:
        raise OutOfRange(f"theta must be >= 1, got {theta}")
    if not isinstance(u.exterior, Zero):
        raise ExtensionUnsupported(
            "gagliardo_energy is defined for the zero exterior extension"
        )
    op._check_grid(u.grid)
    vals = op._check(u.values)
    if not np.array_equal(vals, vals[::-1]):
        raise OutOfRange("gagliardo_energy needs mirror-symmetric values, u[i] = u[n-1-i]")
    if theta != 1.0 and np.any(vals < 0.0):
        raise NegativeBase("theta != 1 requires nonnegative nodal values")
    v = vals[: op.folded.n]
    return op.folded.energy(v if theta == 1.0 else v**theta)
