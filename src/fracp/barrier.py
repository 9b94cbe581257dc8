"""Barrier profiles, singular weights, and the numerical verification of the power-barrier and boundary-barrier estimates
on the interval domain."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import exprel

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
from .errors import (
    CollarTooThin,
    MembershipViolation,
    RegimeError,
    SpecInvalid,
    WindowTooThin,
)
from .kernel import check_alpha, eval_fplap_pv, phi_constant, power_beta

__all__ = [
    "BarrierSpec",
    "WeightSpec",
    "barrier_profile",
    "VerificationRecord",
    "verify_power_estimate",
    "verify_boundary_barrier",
]


@dataclass(frozen=True)
class BarrierSpec:
    """Power barrier data: exponent alpha in (0, s), shift lambda >= 0 and
    exterior collar width rho > lambda**(1/alpha)."""

    alpha: float
    lam: float
    rho: float
    s: float
    p: float

    def __post_init__(self):
        check_alpha(self.alpha, self.s)
        if self.lam < 0.0:
            raise SpecInvalid(f"lambda must be nonnegative, got {self.lam}")
        if self.beta <= 0.0:
            raise SpecInvalid(f"beta = {self.beta} must be positive")
        if self.rho <= self.shift:
            raise CollarTooThin(
                f"rho = {self.rho} must exceed lambda**(1/alpha) = {self.shift}"
            )

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
        ext = CollarTail(alpha=spec.alpha, lam=spec.lam, rho=spec.rho, offset=offset)
    else:
        raise SpecInvalid(f"unknown barrier kind {kind!r}; expected U, Sub or Super")
    return GridFunction(grid, vals, ext)


# ---------------------------------------------------------------------------
# singular weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightSpec:
    """Weight variant: 'exact' K = d**(-delta) or 'eps' the regularization
    (d + eps**((gamma+p-1)/(sp-delta)))**(-delta)."""

    kind: str
    delta: float
    eps: float | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "eps"):
            raise SpecInvalid(f"unknown weight kind {self.kind!r}")
        if self.delta < 0.0:
            raise SpecInvalid(f"delta must be nonnegative, got {self.delta}")
        if self.kind == "eps" and (self.eps is None or self.eps <= 0.0):
            raise SpecInvalid("eps variant needs eps > 0")


def weight_shift(params: ProblemParams, spec: WeightSpec) -> float:
    """Regularization length added to d by the chosen variant."""
    delta, sp = spec.delta, params.sp
    if spec.kind == "exact":
        return 0.0
    if delta >= sp:
        raise RegimeError(
            f"regularized weights need delta < s*p, got delta={delta}, sp={sp}"
        )
    expo = (params.gamma + params.p - 1.0) / (sp - delta)
    return float(spec.eps**expo)


def weight_values(params: ProblemParams, spec: WeightSpec, d) -> np.ndarray:
    """Canonical weight evaluated at distances d (delta = 0 degenerates to 1)."""
    sigma = weight_shift(params, spec)
    d = np.asarray(d, dtype=float)
    if spec.delta == 0.0:
        return np.ones_like(d)
    return (d + sigma) ** (-spec.delta)


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


def _window_seminorm(alpha: float, s: float, p: float, lam: float):
    """log E, E the Gagliardo energy of the shifted power profile over
    (0, 1) squared, and the relative error estimate of E.

    In the shifted variable x on [w0, w1] = [shift, 1 + shift], with t the
    ratio of the smaller point to the larger,
      E = 2 int_{w0}^{w1} x**(k-1) int_{w0/x}^1 (1-t**alpha)**p (1-t)**(-1-sp) dt dx
    and k = alpha p - s p + 1.  Swapping the order does the x integral in
    closed form, (w1**k - (w0/t)**k) / k, so no quadrature meets the
    x**(k-1) spike a tiny shift leaves at w0.  The t integral runs in
    z = -log t over [0, log(w1/w0)]: 1 - t**alpha = alpha z exprel(-alpha z)
    keeps its digits as t -> 1, and the integrable z**(p-1-sp) singularity
    at z = 0 is the algebraic weight of the first panel.  For k < 0 the
    factor e^(-k top) comes out of the integrand,
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
        f = alpha**p * exprel(-alpha * z) ** p * exprel(-z) ** (-1.0 - sp) * math.exp(-z)
        if top == math.inf:
            return f / k
        if k < 0.0:
            return f * math.exp(k * z) * (top - z) * exprel(k * (top - z))
        return f * (top - z) * exprel(-k * (top - z))

    cut = min(1.0, top)
    val, err = quad(smooth, 0.0, cut, weight="alg", wvar=(sing, 0.0), epsrel=1e-10, limit=200)
    if top > cut:
        # panels doubling in z: the integrand decays like e^-z while a small
        # shift makes top = log(w1/w0) large
        doubling = 2.0 ** np.arange(1.0, math.log2(top)) if top < math.inf else None
        far, far_err = quad(
            lambda z: z**sing * smooth(z), cut, top, points=doubling, epsrel=1e-10, limit=200
        )
        val, err = val + far, err + far_err
    if not val > 0.0:
        return math.nan, math.nan
    scale = math.log(2.0) + k * math.log(w1) - (k * top if k < 0.0 else 0.0)
    return scale + math.log(val), err / val


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
    rho = 1.0 + 2.0 * barrier_shift(alpha, lam)
    spec = BarrierSpec(alpha=alpha, lam=lam, rho=rho, s=s, p=p)
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
            "pv_includes_factor_2": True,
        },
    )


#: PV probes per strip, spread evenly over the eligible nodes
_MAX_PROBES = 24


def _pv_probe_nodes(grid: Grid, eta: float) -> np.ndarray:
    """Nodes inside the boundary strip that the PV evaluator can handle."""
    return grid.nodes[grid.probe_indices(5.0, _MAX_PROBES, below=eta)]


def _barrier_constants(spec: BarrierSpec, grid: Grid, probes, s, p):
    sub = barrier_profile(spec, grid, "Sub")
    sup = barrier_profile(spec, grid, "Super")
    sh = spec.shift
    d = np.minimum(np.asarray(probes) - grid.a, grid.b - np.asarray(probes))
    scale = (d + sh) ** spec.beta
    pv_sup = np.array([eval_fplap_pv(sup, float(x), s, p) for x in probes])
    pv_sub = np.array([eval_fplap_pv(sub, float(x), s, p) for x in probes])
    c5 = float((pv_sup * scale).min())
    c6 = float((pv_sub * scale).max())
    return c5, c6


def verify_boundary_barrier(
    params: ProblemParams,
    spec: BarrierSpec,
    grid: Grid,
    eta: float,
) -> VerificationRecord:
    """Empirical boundary-barrier constants in the strip {d < eta}.

    c5_hat = min over probes of PV(Super) * (d + lambda**(1/alpha))**beta and
    c6_hat = max of PV(Sub) * (same); the check passes when c5_hat stays
    positive and c6_hat stays finite on the grid and on one dyadic
    refinement.
    """
    if spec.rho <= spec.shift:
        raise CollarTooThin(
            f"rho = {spec.rho} must exceed lambda**(1/alpha) = {spec.shift}"
        )
    check_eta(grid, eta)
    d = grid.distance()
    n_in_strip = int((d < eta).sum())
    if n_in_strip < 16:
        raise WindowTooThin(
            f"boundary strip eta={eta} holds {n_in_strip} nodes, need >= 16"
        )
    probes = _pv_probe_nodes(grid, eta)
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
            "rho": spec.rho,
            "eta": eta,
            "beta": spec.beta,
            "n_probes": int(len(probes)),
            "c5_hat": c5,
            "c6_hat": c6,
            "c5_hat_refined": c5f,
            "c6_hat_refined": c6f,
            "pv_includes_factor_2": True,
        },
    )
