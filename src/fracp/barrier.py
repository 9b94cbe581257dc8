"""Barrier profiles, the singular weight, and the numerical verification of
the power-barrier and boundary-barrier estimates on the interval domain.

weight_values computes the weight K = d**(-delta), or with eps given its
regularization of the approximated problems, taking delta from the
ProblemParams.  With eps given it is the one check of the existence range
delta < sp on the solve path: every regularized solve calls it first."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CollarTail,
    Grid,
    GridFunction,
    PowerTail,
    ProblemParams,
    barrier_shift,
    build_grid,
    check_eta,
)
from .errors import MembershipViolation, RegimeError, SpecInvalid, WindowTooThin
from .kernel import (
    QUAD_ORDERS,
    check_alpha,
    eval_fplap_pv,
    doubling_panels,
    jacobi_rule,
    phi_constant,
    power_beta,
    rule_sums,
)

__all__ = [
    "BarrierSpec",
    "barrier_profile",
    "VerificationRecord",
    "verify_power_estimate",
    "verify_boundary_barrier",
]


@dataclass(frozen=True)
class BarrierSpec:
    """Power barrier data: exponent alpha in (0, s) and shift lambda >= 0."""

    alpha: float
    lam: float
    s: float
    p: float

    def __post_init__(self):
        check_alpha(self.alpha, self.s)
        if self.lam < 0.0:
            raise SpecInvalid(f"lambda must be nonnegative, got {self.lam}")
        if self.beta <= 0.0:
            raise SpecInvalid(f"beta = {self.beta} must be positive")

    @property
    def beta(self) -> float:
        return power_beta(self.alpha, self.s, self.p)

    @property
    def shift(self) -> float:
        return barrier_shift(self.alpha, self.lam)


def barrier_profile(spec: BarrierSpec, grid: Grid, kind: str) -> GridFunction:
    """Barrier profiles as grid functions with closed-form exterior tails.

    U     : ((x - a + lambda**(1/alpha))_+)**alpha, half-line chart anchored
            at the left endpoint, growing across the right endpoint.
    Sub   : (d_e + lambda**(1/alpha))_+**alpha - lambda, equal to -lambda far
            outside.
    Super : (d_e + lambda**(1/alpha))_+**alpha, equal to 0 far outside.
    """
    sh = spec.shift
    if kind == "U":
        vals = (grid.nodes - grid.a + sh) ** spec.alpha
        ext = PowerTail(alpha=spec.alpha, lam=spec.lam)
    elif kind in ("Sub", "Super"):
        d = grid.distance()
        offset = -spec.lam if kind == "Sub" else 0.0
        vals = (d + sh) ** spec.alpha + offset
        ext = CollarTail(alpha=spec.alpha, lam=spec.lam, offset=offset)
    else:
        raise SpecInvalid(f"unknown barrier kind {kind!r}; expected U, Sub or Super")
    return GridFunction(grid, vals, ext)


# ---------------------------------------------------------------------------
# singular weights
# ---------------------------------------------------------------------------


def weight_values(params: ProblemParams, d, eps: float | None = None) -> np.ndarray:
    """The singular weight at distances d: K = d**(-delta) exactly, or with
    eps given the regularization (d + eps**((gamma+p-1)/(sp-delta)))**(-delta)
    of the approximated problems.  delta = 0 degenerates to 1."""
    delta, sp = params.delta, params.sp
    d = np.asarray(d, dtype=float)
    sigma = 0.0
    if eps is not None:
        if delta >= sp:
            raise RegimeError(f"existence range requires delta < s*p, got {delta} >= {sp}")
        sigma = eps ** ((params.gamma + params.p - 1.0) / (sp - delta))
    if delta == 0.0:
        return np.ones_like(d)
    return (d + sigma) ** (-delta)


# ---------------------------------------------------------------------------
# verification records
# ---------------------------------------------------------------------------


@dataclass
class VerificationRecord:
    """Named check with a pass flag and the measured quantities behind it."""

    name: str
    passed: bool
    details: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "details": self.details}


def _exprel(x: np.ndarray) -> np.ndarray:
    """(e**x - 1)/x elementwise, 1 at x = 0, accurate as x -> 0."""
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)


def _window_seminorm(alpha: float, s: float, p: float, lam: float):
    """log E, E the Gagliardo energy of the shifted power profile over
    (0, 1) squared, and the relative difference of E between the rules of
    the two QUAD_ORDERS, the higher of which gives E.

    In the shifted variable x on [w0, w1] = [shift, 1 + shift], with t the
    ratio of the smaller point to the larger,
      E = 2 int_{w0}^{w1} x**(k-1) int_{w0/x}^1 (1-t**alpha)**p (1-t)**(-1-sp) dt dx
    and k = alpha p - s p + 1.  Swapping the order does the x integral in
    closed form, (w1**k - (w0/t)**k) / k, so no quadrature meets the
    x**(k-1) spike a tiny shift leaves at w0.  The t integral runs in
    z = -log t over [0, top], top = log(w1/w0): 1 - t**alpha =
    alpha z exprel(-alpha z) keeps its digits as t -> 1, and the integrable
    z**(p-1-sp) singularity at z = 0 is the weight of the Gauss-Jacobi rule
    on [0, min(1, top)].  Beyond 1, Gauss-Legendre panels double in length
    up to min(top, Z), Z the first of 64, 128, ... with (2Z)**p e**-Z below
    1e-18.  The integrand is analytic in Re z > 0, and its powers of z
    cancel: it is (1 - e**(-alpha z))**p (1 - e**-z)**(-1-sp) e**-z times
    a factor that falls in z, so beyond Z it holds less than about
    (2Z)**p e**-Z of what [1/2, 1] holds.  For k < 0 the factor
    e^(-k top) comes out of the integrand,
      (top - z) exprel(-k (top - z)) = e^(-k top) e^(k z) (top - z) exprel(k (top - z)),
    so that nothing overflows where E itself exceeds the float range
    (E ~ e^1480 at alpha = 1e-3, s = 0.75, p = 2, lam = 0.05).  Finite for
    alpha in (0, s) when lam > 0 and for alpha in (s - 1/p, s) (k > 0) when
    lam = 0.
    """
    sh = barrier_shift(alpha, lam)
    w1 = 1.0 + sh
    sp = s * p
    k = alpha * p - sp + 1.0
    # log(w1/w0) from logs, so that a shift below the float range still counts
    top = math.log(w1) - math.log(lam) / alpha if lam > 0.0 else math.inf
    sing = p - 1.0 - sp

    def smooth(z):
        # the t integrand with dt = e^-z dz, over z**sing, times
        # (w1**k - (w0/t)**k) / (k w1**k): 1/k at w0 = 0, finite at k = 0
        f = alpha**p * _exprel(-alpha * z) ** p * _exprel(-z) ** (-1.0 - sp) * np.exp(-z)
        if top == math.inf:
            return f / k
        if k < 0.0:
            return f * np.exp(k * z) * (top - z) * _exprel(k * (top - z))
        return f * (top - z) * _exprel(-k * (top - z))

    cut = min(1.0, top)
    end = 64.0
    while p * math.log(2.0 * end) - end > math.log(1e-18):
        end *= 2.0
    end = min(top, end)

    def rule(n):
        # int_0^end z**sing g(z) dz for smooth g: Gauss-Jacobi on [0, cut],
        # doubling panels beyond
        x, w = jacobi_rule(n, sing)
        z, wz = cut * x, cut ** (sing + 1.0) * w
        if end > cut:
            zp, wp = doubling_panels(cut, end, n)
            z, wz = np.concatenate((z, zp)), np.concatenate((wz, zp**sing * wp))
        return z, wz

    lo, val = rule_sums(smooth, [rule(n) for n in QUAD_ORDERS])
    if not val > 0.0:
        return math.nan, math.nan
    scale = math.log(2.0) + k * math.log(w1) - (k * top if k < 0.0 else 0.0)
    return scale + math.log(val), abs(val - lo) / val


#: half-line chart points where the scaled principal value is compared to 2*Phi
_POWER_SAMPLES = np.linspace(0.15, 0.85, 10)
#: largest relative deviation of that ratio from 1
_RATIO_TOL = 0.01
#: grading of the half-line chart mesh
_POWER_GRADING = 2.0


def verify_power_estimate(
    alpha: float,
    s: float,
    p: float,
    lam: float,
    n: int = 2048,
) -> VerificationRecord:
    """Three-part check of the power-barrier estimate on the half-line chart.

    (i) the constant chain c1 <= Phi <= c2, (ii) x-independence of the
    principal value scaled by (x + lambda**(1/alpha))**beta against 2*Phi,
    (iii) finiteness of the windowed Gagliardo energy, judged on its log.
    """
    check_alpha(alpha, s)
    if lam == 0.0 and alpha <= s - 1.0 / p:
        raise MembershipViolation(
            f"lambda = 0 requires alpha > s - 1/p = {s - 1.0 / p}, got {alpha}"
        )
    oracle = phi_constant(alpha, s, p)
    chain_ok = oracle.c1 - 1e-10 <= oracle.phi <= oracle.c2 + 1e-10

    grid = build_grid(0.0, 1.0, n, _POWER_GRADING)
    spec = BarrierSpec(alpha=alpha, lam=lam, s=s, p=p)
    u = barrier_profile(spec, grid, "U")
    sh = spec.shift
    ratios = []
    for x in _POWER_SAMPLES:
        pv = eval_fplap_pv(u, float(x), s, p)
        ratios.append(pv * (x + sh) ** spec.beta / (2.0 * oracle.phi))
    ratios = np.asarray(ratios)
    max_dev = float(np.abs(ratios - 1.0).max())
    ratio_ok = max_dev <= _RATIO_TOL

    sem_log, sem_err = _window_seminorm(alpha, s, p, lam)
    sem_ok = math.isfinite(sem_log)

    return VerificationRecord(
        name="power_estimate",
        passed=bool(chain_ok and ratio_ok and sem_ok),
        details={
            "alpha": alpha,
            "s": s,
            "p": p,
            "lambda": lam,
            "beta": spec.beta,
            "phi": oracle.phi,
            "c1": oracle.c1,
            "c2": oracle.c2,
            "chain_ok": bool(chain_ok),
            "ratios": ratios,
            "max_ratio_deviation": max_dev,
            "ratio_tol": _RATIO_TOL,
            "window_seminorm_log10": sem_log / math.log(10.0),
            "window_seminorm_rel_err": sem_err,
        },
    )


#: PV probes per strip, spread evenly over the eligible nodes
_MAX_PROBES = 24


def _probe_indices(grid: Grid, eta: float) -> np.ndarray:
    """Indices of the strip nodes PV is probed at: distance d to the
    boundary below eta and above 5 local cell widths, at most _MAX_PROBES
    of them spread evenly."""
    d = grid.distance()
    idx = np.flatnonzero((d > 5.0 * grid.local_width(grid.nodes)) & (d < eta))
    if len(idx) > _MAX_PROBES:
        idx = idx[np.unique(np.linspace(0, len(idx) - 1, _MAX_PROBES).round().astype(int))]
    return idx


def _barrier_constants(spec: BarrierSpec, grid: Grid, probes, s, p):
    """(c5_hat, c6_hat) on grid: the min and the max over the probes of
    PV(Super) (d + lambda**(1/alpha))**beta.  Sub = Super - lambda on the
    whole line, so PV(Sub) = PV(Super) and one sweep gives both."""
    sup = barrier_profile(spec, grid, "Super")
    pv = np.array([eval_fplap_pv(sup, float(x), s, p) for x in probes])
    ratio = pv * (grid.distance(probes) + spec.shift) ** spec.beta
    return float(ratio.min()), float(ratio.max())


def verify_boundary_barrier(
    params: ProblemParams,
    spec: BarrierSpec,
    grid: Grid,
    eta: float,
) -> VerificationRecord:
    """Empirical boundary-barrier constants in the strip {d < eta}.

    c5_hat and c6_hat are the min and the max over the probes of
    PV(Super) * (d + lambda**(1/alpha))**beta, which PV(Sub) equals (Sub is
    Super - lambda on the whole line); the check passes when c5_hat stays
    positive and c6_hat stays finite on the grid and on one dyadic
    refinement.
    """
    check_eta(grid, eta)
    d = grid.distance()
    n_in_strip = int((d < eta).sum())
    if n_in_strip < 16:
        raise WindowTooThin(
            f"boundary strip eta={eta} holds {n_in_strip} nodes, need >= 16"
        )
    probes = grid.nodes[_probe_indices(grid, eta)]
    if len(probes) == 0:
        raise WindowTooThin("no PV-eligible nodes inside the boundary strip")
    s, p = params.s, params.p

    c5, c6 = _barrier_constants(spec, grid, probes, s, p)
    fine = build_grid(grid.a, grid.b, 2 * grid.n, grid.q)
    c5f, c6f = _barrier_constants(spec, fine, probes, s, p)

    passed = c5 > 0.0 and c5f > 0.0 and math.isfinite(c6) and math.isfinite(c6f)
    return VerificationRecord(
        name="boundary_barrier",
        passed=bool(passed),
        details={
            "alpha": spec.alpha,
            "lambda": spec.lam,
            "eta": eta,
            "beta": spec.beta,
            "n_probes": int(len(probes)),
            "c5_hat": c5,
            "c6_hat": c6,
            "c5_hat_refined": c5f,
            "c6_hat_refined": c6f,
        },
    )
