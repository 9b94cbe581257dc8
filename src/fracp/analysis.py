"""Theorem-level verdicts from computed solutions: boundary exponents,
Sobolev thresholds, Hardy quotients, comparison checks, nonexistence trends
and the elementary inequalities as property checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Grid, GridFunction, ProblemParams, build_grid, classify_regime, default_grading
from .errors import (
    NonPositiveValues,
    OutOfRange,
    RegimeError,
    ShapeMismatch,
    WindowTooThin,
)
from .barrier import WeightSpec, weight_values
from .kernel import DiscreteOperator, assemble_operator, gagliardo_energy
from .solver import SingularEnergy, continuation, solve_approximated

__all__ = [
    "ExponentFit",
    "fit_boundary_exponent",
    "ScanTable",
    "sobolev_scan",
    "suggested_theta_list",
    "hardy_quotient",
    "ComparisonReport",
    "comparison_check",
    "barrier_scales",
    "NonexistenceTable",
    "nonexistence_scan",
    "InequalityReport",
    "inequality_props",
]

#: log-log slope above which a refinement sequence counts as divergent
DIVERGENCE_SLOPE = 0.1


@dataclass
class ExponentFit:
    """Log-log regression of u against d on each boundary side."""

    slope_left: float
    slope_right: float
    residual_left: float
    residual_right: float
    window: tuple
    reference: float | None = None

    @property
    def deviation(self) -> float | None:
        if self.reference is None:
            return None
        return max(abs(self.slope_left - self.reference), abs(self.slope_right - self.reference))

    def rows(self):
        lo, hi = self.window
        ref = self.reference
        out = []
        for side, slope, res in (
            ("left", self.slope_left, self.residual_left),
            ("right", self.slope_right, self.residual_right),
        ):
            dev = None if ref is None else slope - ref
            out.append(
                {
                    "side": side,
                    "d_lo": lo,
                    "d_hi": hi,
                    "slope": slope,
                    "reference": ref,
                    "deviation": dev,
                    "residual": res,
                }
            )
        return out


def default_fit_window(grid: Grid) -> tuple:
    """[8 h_min, 0.1 |Omega|]: below is discretization noise, above is
    interior behaviour."""
    return (8.0 * grid.h_min, 0.1 * (grid.b - grid.a))


def _side_fit(dvals, uvals):
    if np.any(uvals <= 0.0):
        raise NonPositiveValues("boundary fit needs u > 0 on the window")
    lx, ly = np.log(dvals), np.log(uvals)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), resid


def fit_boundary_exponent(
    u: GridFunction,
    window: tuple | None = None,
    params: ProblemParams | None = None,
) -> ExponentFit:
    """Least-squares slope of log u against log d per boundary side.

    The window must contain at least 8 nodes per side and stay within
    (5 h_min, 0.2 |Omega|).
    """
    grid = u.grid
    if window is None:
        window = default_fit_window(grid)
    lo, hi = float(window[0]), float(window[1])
    width = grid.b - grid.a
    if not (lo < hi and lo >= 5.0 * grid.h_min * (1.0 - 1e-12) and hi <= 0.2 * width * (1.0 + 1e-12)):
        raise WindowTooThin(
            f"window {window} must sit inside (5 h_min, 0.2 |Omega|) = "
            f"({5.0 * grid.h_min}, {0.2 * width})"
        )
    d_left = grid.nodes - grid.a
    d_right = grid.b - grid.nodes
    mask_l = (d_left >= lo) & (d_left <= hi)
    mask_r = (d_right >= lo) & (d_right <= hi)
    if mask_l.sum() < 8 or mask_r.sum() < 8:
        raise WindowTooThin(
            f"window {window} holds {int(mask_l.sum())}/{int(mask_r.sum())} nodes; need >= 8 per side"
        )
    sl, rl = _side_fit(d_left[mask_l], u.values[mask_l])
    sr, rr = _side_fit(d_right[mask_r], u.values[mask_r])
    ref = None
    if params is not None:
        report = classify_regime(params)
        ref = report.reference_exponent(params.s)
    return ExponentFit(sl, sr, rl, rr, (lo, hi), ref)


# ---------------------------------------------------------------------------
# Sobolev scans
# ---------------------------------------------------------------------------


@dataclass
class ScanTable:
    """Energies of u_min**theta across meshes with the divergence verdicts;
    increments maps each n to its continuation's last increment."""

    rows: list
    slopes: dict
    classes: dict
    lambda_cap: float
    consistent: dict
    increments: dict

    def classification_monotone(self) -> bool:
        thetas = sorted(self.classes)
        divergent = [self.classes[t] == "Divergent" for t in thetas]
        # once bounded, never divergent again at larger theta
        seen_bounded = False
        for flag in divergent:
            if seen_bounded and flag:
                return False
            if not flag:
                seen_bounded = True
        return True


def suggested_theta_list(params: ProblemParams) -> list:
    """theta grid hint for membership scans.

    Below the threshold (Lambda < 1) the solution itself is in the energy
    space and theta = 1 suffices; above it, add a power safely beyond
    max(1, (p + gamma - 1)/p, Lambda) so both verdicts appear.
    """
    report = classify_regime(params)
    lam = report.lambda_cap
    if not math.isfinite(lam) or lam < 1.0:
        return [1.0]
    theta0 = max(1.0, (params.p + params.gamma - 1.0) / params.p, lam)
    return [1.0, float(math.ceil(2.0 * theta0) / 2.0 + 0.5)]


def sobolev_scan(
    params: ProblemParams,
    theta_list,
    n_list,
    eps0: float = 0.5,
    halvings: int = 12,
    tol: float = 1e-4,
    grading: float | None = None,
) -> ScanTable:
    """Classify u_min**theta as Bounded or Divergent from energy growth.

    Divergent iff the log-energy versus log-n slope exceeds 0.1; the verdict
    is compared against the threshold rule theta > Lambda.
    """
    theta_list = [float(t) for t in theta_list]
    for t in theta_list:
        if t < 1.0:
            raise OutOfRange(f"theta must be >= 1, got {t}")
    n_list = [int(n) for n in n_list]
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise OutOfRange("n_list must be increasing with at least 3 entries")
    report = classify_regime(params)
    q = default_grading(params) if grading is None else float(grading)
    rows = []
    energies = {t: [] for t in theta_list}
    increments = {}
    for n in n_list:
        grid = build_grid(params.a, params.b, n, q)
        op = assemble_operator(grid, params.s, params.p)
        _, u_min, incs = continuation(
            params, grid, eps0=eps0, halvings=halvings, tol=tol, op=op
        )
        increments[n] = incs[-1]
        for t in theta_list:
            e = gagliardo_energy(u_min, t, op)
            energies[t].append(e)
            rows.append({"theta": t, "n": n, "energy": e})
    slopes = {}
    classes = {}
    consistent = {}
    for t in theta_list:
        ln = np.log(np.asarray(n_list, dtype=float))
        le = np.log(np.maximum(np.asarray(energies[t]), 1e-300))
        slope = float(np.polyfit(ln, le, 1)[0])
        slopes[t] = slope
        classes[t] = "Divergent" if slope > DIVERGENCE_SLOPE else "Bounded"
        expect_bounded = t > report.lambda_cap
        consistent[t] = (classes[t] == "Bounded") == expect_bounded
    return ScanTable(rows, slopes, classes, report.lambda_cap, consistent, increments)


def hardy_quotient(u: GridFunction, theta: float, s: float, p: float) -> float:
    """Discrete int_Omega (u**theta / d**s)**p dx on the function's grid.

    Divergence under refinement is judged by the scan drivers that resample
    on finer grids; a single grid always yields a finite quadrature value.
    """
    grid = u.grid
    d = grid.distance()
    m = grid.masses
    vals = np.abs(u.values) ** theta
    return float((m * (vals / d**s) ** p).sum())


# ---------------------------------------------------------------------------
# comparison and nonexistence
# ---------------------------------------------------------------------------


@dataclass
class ComparisonReport:
    max_sub_violation: float
    max_super_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_sub_violation <= self.tol and self.max_super_violation <= self.tol


def _nodal(v) -> np.ndarray:
    if isinstance(v, GridFunction):
        return v.values
    return np.asarray(v, dtype=float)


def comparison_check(u_sub, u, u_super, tol: float = 1e-3) -> ComparisonReport:
    """Max positive parts of (u_sub - u) and (u - u_super) over the nodes."""
    a, b, c = _nodal(u_sub), _nodal(u), _nodal(u_super)
    if not (a.shape == b.shape == c.shape):
        raise ShapeMismatch(f"shapes {a.shape}, {b.shape}, {c.shape} differ")
    sub_viol = float(np.maximum(a - b, 0.0).max())
    super_viol = float(np.maximum(b - c, 0.0).max())
    return ComparisonReport(sub_viol, super_viol, tol)


def barrier_scales(u: GridFunction, params: ProblemParams, alpha: float, eta: float,
                   c5: float, c6: float):
    """Scales (c_sub, c_super) for comparing u with the Sub and Super barriers
    of power alpha in the strip {d < eta}.

    c5 and c6 are the boundary-barrier constants c5_hat and c6_hat of
    verify_boundary_barrier; kappa = min u / d**s and the sup of u on
    {d >= eta/2} match the barriers to u where the strip ends.
    """
    s, p, gamma = params.s, params.p, params.gamma
    d = u.grid.distance()
    v = u.values
    kappa = float((v / d**s).min())
    kappa_eta2 = float(v[d >= eta / 2.0].max())
    c_sub = min(
        (eta / 2.0) ** (s - alpha) * kappa,
        (1.0 / (2.0**gamma * c6)) ** (1.0 / (gamma + p - 1.0)) if c6 > 0 else 1.0,
        1.0,
    )
    c_super = max(
        (2.0 / eta) ** alpha * kappa_eta2,
        (1.0 / c5) ** (1.0 / (p - 1.0)),
        (1.0 / c5) ** (1.0 / (gamma + p - 1.0)),
    )
    return c_sub, c_super


@dataclass
class NonexistenceTable:
    """Trend data as delta increases toward s*p: fitted boundary exponents
    shrink toward 0 and the Hardy quotient grows."""

    rows: list

    @property
    def exponents(self):
        return [r["fitted_exponent"] for r in self.rows]

    @property
    def quotients(self):
        return [r["hardy_quotient"] for r in self.rows]

    def exponents_decreasing(self) -> bool:
        e = self.exponents
        return all(b < a for a, b in zip(e, e[1:]))


def nonexistence_scan(
    params_base: ProblemParams,
    delta_list,
    grid: Grid,
    eps0: float = 0.5,
    halvings: int = 12,
    tol: float = 1e-4,
    op: DiscreteOperator | None = None,
) -> NonexistenceTable:
    """Solve along delta increasing toward s*p and record the blow-up trend.

    op, when given, is the operator assembled for (grid, s, p); otherwise it
    is assembled here.  It does not depend on delta, so every delta shares it.
    """
    sp = params_base.sp
    for dl in delta_list:
        if dl >= sp:
            raise RegimeError(f"delta = {dl} is outside the solvable range [0, {sp})")
    if op is None:
        op = assemble_operator(grid, params_base.s, params_base.p)
    rows = []
    for dl in delta_list:
        pars = params_base.with_delta(float(dl))
        results, u_min, incs = continuation(
            pars, grid, eps0=eps0, halvings=halvings, tol=tol, op=op
        )
        fit = fit_boundary_exponent(u_min, params=pars)
        hq = hardy_quotient(u_min, 1.0, pars.s, pars.p)
        rows.append(
            {
                "delta": float(dl),
                "alpha_star": classify_regime(pars).alpha_star,
                "fitted_exponent": 0.5 * (fit.slope_left + fit.slope_right),
                "hardy_quotient": hq,
                "last_increment": incs[-1],
                "newton_steps": sum(r.iterations for r in results),
                "factorizations": sum(r.factorizations for r in results),
                "cg_steps": sum(r.cg_steps for r in results),
            }
        )
    return NonexistenceTable(rows)


# ---------------------------------------------------------------------------
# elementary inequalities as property checks
# ---------------------------------------------------------------------------


@dataclass
class InequalityReport:
    samples: int
    power_gap_failures: int
    composition_failures: int
    identity_gap: float
    details: dict

    @property
    def passed(self) -> bool:
        return self.power_gap_failures == 0 and self.composition_failures == 0


def _power_gap_holds(x: float, y: float, q: float, eps: float) -> bool:
    # |x^q - y^q| >= eps^(q-1) |x - y| on {x >= eps, y >= 0} u {y >= eps, x >= 0}
    lhs = abs(x**q - y**q)
    rhs = eps ** (q - 1.0) * abs(x - y)
    return lhs >= rhs - 1e-12 * max(1.0, lhs, rhs)


#: problem, regularization and power Phi(t) = t**theta of the composition check
_PROPS_PARAMS = ProblemParams(0.5, 2.0, 1.0, 0.5)
_PROPS_EPS = 0.25
_PROPS_THETA = 2.0
#: slack of the composition check, relative to the larger side
_PROPS_SLACK = 1e-8


def inequality_props(
    seed: int,
    samples: int,
    n: int = 96,
    n_test_vectors: int = 100,
) -> InequalityReport:
    """Randomized checks of the two elementary inequalities.

    (i)  power gap: |x^q - y^q| >= eps^(q-1) |x - y| whenever one argument is
         at least eps and the other is nonnegative;
    (ii) convex composition: for the computed regularized solution u with
         bounded right-hand side g and Phi(t) = t**theta, testing the
         operator image of Phi(u) against nonnegative vectors stays below
         sum m_i g_i |Phi'(u_i)|^{p-2} Phi'(u_i) phi_i up to tolerance.
    """
    if samples < 1000:
        raise OutOfRange(f"need at least 1000 samples, got {samples}")
    rng = np.random.default_rng(seed)
    gap_failures = 0
    for _ in range(samples):
        q = 1.0 + rng.uniform(0.01, 5.0)
        e = rng.uniform(0.05, 3.0)
        lo = rng.uniform(0.0, 4.0)
        hi = e + rng.uniform(0.0, 4.0)
        x, y = (hi, lo) if rng.random() < 0.5 else (lo, hi)
        if not _power_gap_holds(x, y, q, e):
            gap_failures += 1

    params, eps, theta = _PROPS_PARAMS, _PROPS_EPS, _PROPS_THETA
    grid = build_grid(params.a, params.b, n, default_grading(params))
    op = assemble_operator(grid, params.s, params.p)
    res = solve_approximated(params, grid, eps, tol=1e-11, op=op)
    u = res.u.values
    weights = weight_values(params, WeightSpec("eps", params.delta, eps=eps), grid.distance())
    reaction = SingularEnergy(gamma=params.gamma, eps=eps, kvals=weights, masses=op.m)
    g = weights * reaction.h_eps(u)

    def pairing(w_vals, phi):
        return float(phi @ op.apply(w_vals))

    def rhs_pairing(phi_prime_pow, phi):
        return float((op.m * g * phi_prime_pow * phi).sum())

    p = params.p
    comp_failures = 0
    worst = 0.0
    for _ in range(n_test_vectors):
        phi = rng.uniform(0.0, 1.0, size=op.n)
        lhs = pairing(u**theta, phi)
        phip = theta * u ** (theta - 1.0)
        rhs = rhs_pairing(np.abs(phip) ** (p - 2.0) * phip, phi)
        slack = _PROPS_SLACK * max(1.0, abs(rhs), abs(lhs))
        if lhs > rhs + slack:
            comp_failures += 1
            worst = max(worst, lhs - rhs)

    # identity case Phi(t) = t: equality up to solver tolerance
    phi = rng.uniform(0.0, 1.0, size=op.n)
    lhs_id = pairing(u, phi)
    rhs_id = rhs_pairing(np.ones(op.n), phi)
    identity_gap = abs(lhs_id - rhs_id) / max(1.0, abs(rhs_id))

    return InequalityReport(
        samples=samples,
        power_gap_failures=gap_failures,
        composition_failures=comp_failures,
        identity_gap=identity_gap,
        details={
            "theta": theta,
            "eps": eps,
            "n": n,
            "solver_residual": res.residual,
            "worst_composition_gap": worst,
        },
    )
