"""Theorem-level verdicts from computed solutions: boundary exponents,
Sobolev thresholds, Hardy quotients, comparison checks, nonexistence trends
and the elementary inequalities as property checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GridFunction, ProblemParams, build_grid, classify_regime, default_grading
from .errors import (
    NonPositiveValues,
    OutOfRange,
    RegimeError,
    ShapeMismatch,
    WindowTooThin,
)
from .barrier import weight_values
from .kernel import DiscreteOperator, assemble_operator, gagliardo_energy
from .solver import SingularEnergy, continuation, solve_approximated

__all__ = [
    "ExponentFit",
    "fit_boundary_exponent",
    "ScanTable",
    "sobolev_scan",
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
    """Log-log regression of u against the distance d = x - a to the left
    endpoint; every solution is mirror-symmetric, so the right side repeats
    it.  reference is the exponent the regime predicts."""

    slope: float
    residual: float
    window: tuple
    reference: float


def fit_boundary_exponent(u: GridFunction, params: ProblemParams) -> ExponentFit:
    """Least-squares slope of log u against log d at the left endpoint.

    The fit window is [8 h_min, 0.1 |Omega|]: below is discretization noise,
    above is interior behaviour.  It must hold at least 8 nodes.
    """
    grid = u.grid
    lo, hi = 8.0 * grid.h_min, 0.1 * (grid.b - grid.a)
    d = grid.nodes - grid.a
    mask = (d >= lo) & (d <= hi)
    if mask.sum() < 8:
        raise WindowTooThin(f"window {(lo, hi)} holds {int(mask.sum())} nodes; need >= 8")
    dvals, uvals = d[mask], u.values[mask]
    if np.any(uvals <= 0.0):
        raise NonPositiveValues("boundary fit needs u > 0 on the window")
    lx, ly = np.log(dvals), np.log(uvals)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    ref = classify_regime(params).reference_exponent(params.s)
    return ExponentFit(float(slope), resid, (lo, hi), ref)


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


def sobolev_scan(params: ProblemParams, theta_list, rungs) -> ScanTable:
    """Classify u_min**theta as Bounded or Divergent from energy growth.

    rungs holds one (op, (results, u_min, increments)) pair per mesh, in
    increasing n: the operator of (op.grid, s, p) and the continuation of
    params on op.grid.  Divergent iff the log-energy versus log-n slope
    exceeds 0.1; the verdict is compared against the threshold rule
    theta > Lambda.
    """
    theta_list = [float(t) for t in theta_list]
    for t in theta_list:
        if t < 1.0:
            raise OutOfRange(f"theta must be >= 1, got {t}")
    n_list = [op.n for op, _ in rungs]
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise OutOfRange("n_list must be increasing with at least 3 entries")
    report = classify_regime(params)
    rows = []
    energies = {t: [] for t in theta_list}
    increments = {}
    for op, (_, u_min, incs) in rungs:
        increments[op.n] = incs[-1]
        for t in theta_list:
            e = gagliardo_energy(u_min, t, op)
            energies[t].append(e)
            rows.append({"theta": t, "n": op.n, "energy": e})
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


def hardy_quotient(u: GridFunction, s: float, p: float) -> float:
    """Discrete int_Omega (|u| / d**s)**p dx on the function's grid.

    A single grid always yields a finite value; nonexistence_scan reads its
    growth as delta approaches s p on one mesh.
    """
    grid = u.grid
    d = grid.distance()
    m = grid.masses
    return float((m * (np.abs(u.values) / d**s) ** p).sum())


# ---------------------------------------------------------------------------
# comparison and nonexistence
# ---------------------------------------------------------------------------


#: largest violation of either comparison that still passes
COMPARISON_TOL = 1e-3


@dataclass
class ComparisonReport:
    max_sub_violation: float
    max_super_violation: float

    @property
    def passed(self) -> bool:
        return (self.max_sub_violation <= COMPARISON_TOL
                and self.max_super_violation <= COMPARISON_TOL)


def comparison_check(u_sub, u, u_super) -> ComparisonReport:
    """Max positive parts of (u_sub - u) and (u - u_super) over the nodes."""
    a, b, c = (np.asarray(v, dtype=float) for v in (u_sub, u, u_super))
    if not (a.shape == b.shape == c.shape):
        raise ShapeMismatch(f"shapes {a.shape}, {b.shape}, {c.shape} differ")
    sub_viol = float(np.maximum(a - b, 0.0).max())
    super_viol = float(np.maximum(b - c, 0.0).max())
    return ComparisonReport(sub_viol, super_viol)


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


def check_delta_list(params: ProblemParams, delta_list) -> None:
    """RegimeError unless every delta of delta_list lies in the existence
    range [0, s p) of params; load_config reports it as a config error."""
    for dl in delta_list:
        if dl >= params.sp:
            raise RegimeError(f"delta = {dl} is outside the solvable range [0, {params.sp})")


def nonexistence_scan(
    params_base: ProblemParams,
    delta_list,
    op: DiscreteOperator,
    halvings: int = 12,
    tol: float = 1e-4,
) -> NonexistenceTable:
    """Solve on op.grid along delta increasing toward s*p and record the
    blow-up trend.

    op is the operator of (op.grid, s, p); it does not depend on delta, so
    every delta shares it.
    """
    check_delta_list(params_base, delta_list)
    rows = []
    for dl in delta_list:
        pars = params_base.with_delta(float(dl))
        results, u_min, incs = continuation(pars, op.grid, halvings=halvings, tol=tol, op=op)
        fit = fit_boundary_exponent(u_min, pars)
        hq = hardy_quotient(u_min, pars.s, pars.p)
        rows.append(
            {
                "delta": float(dl),
                "alpha_star": classify_regime(pars).alpha_star,
                "fitted_exponent": fit.slope,
                "hardy_quotient": hq,
                "last_increment": incs[-1],
                "newton_steps": sum(r.iterations for r in results),
                "factorizations": sum(r.factorizations for r in results),
                "cg_steps": sum(r.cg_steps for r in results),
                "evaluations": sum(r.evaluations for r in results),
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
    res = solve_approximated(params, eps, tol=1e-11, op=op)
    u = res.u.values
    weights = weight_values(params, grid.distance(), eps)
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
