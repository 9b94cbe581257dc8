"""Convex energy minimization for the regularized problems and the
epsilon-continuation toward the minimal solution.

The discrete objective for the regularized problem is
    (1/p) * energy(v) - sum_i m_i K_i H_eps(v_i),
strictly convex because the energy is strictly convex and H_eps is concave.
Minimization uses damped Newton steps: the dense Hessian (the operator's
weighted graph Laplacian plus the reaction curvature) is factored in place by
Cholesky, and Armijo backtracking makes the objective decrease at every
accepted step.  A solve returns only once the gradient sup-norm meets its
target.  For p < 2 the solver smooths the pair differences with mu = MU_FLOOR
(see smoothed_updiff) so that the Hessian exists; the operator a caller
passes in carries no smoothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .core import Grid, GridFunction, ProblemParams, Zero
from .errors import (
    NoConvergence,
    NonPositiveValues,
    OutOfRange,
    PointTooCloseToBoundary,
    RegimeError,
    ShapeMismatch,
)
from .barrier import WeightSpec, weight_values
from .kernel import DiscreteOperator, assemble_operator, eval_fplap_pv

__all__ = [
    "SingularEnergy",
    "SolveResult",
    "solve_fixed_rhs",
    "solve_approximated",
    "continuation",
    "residual_check",
]

#: smoothing of the pair differences for p < 2
MU_FLOOR = 1e-8


@dataclass(frozen=True)
class SingularEnergy:
    """Reaction data for the eps-regularized problem.

    g_eps is the capped singular nonlinearity min(t**-gamma, 1/eps), G_eps its
    primitive normalized by G_eps(1) = 0; h_eps(t) = (max(t,0) + eps)**-gamma
    is the regularized reaction actually driving the approximated problem and
    H_eps its primitive with H_eps(0) = 0.
    """

    params: ProblemParams
    eps: float
    kvals: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.eps <= 0.0:
            raise OutOfRange(f"eps must be positive, got {self.eps}")

    @property
    def gamma(self) -> float:
        return self.params.gamma

    def g_eps(self, t):
        t = np.asarray(t, dtype=float)
        cap = 1.0 / self.eps
        with np.errstate(divide="ignore", over="ignore"):
            pw = np.where(t > 0.0, t, 1.0) ** (-self.gamma)
        out = np.where(t > 0.0, np.minimum(pw, cap), cap)
        return out if out.ndim else float(out)

    def G_eps(self, t):
        """Primitive of g_eps with G_eps(1) = 0 (eps < 1 assumed for the cap)."""
        t = np.asarray(t, dtype=float)
        gamma = self.gamma
        cap = 1.0 / self.eps
        tstar = self.eps ** (1.0 / gamma) if gamma > 0.0 else 0.0

        def powprim(x):
            # primitive of x**-gamma vanishing at 1
            if gamma == 1.0:
                return np.log(x)
            return (x ** (1.0 - gamma) - 1.0) / (1.0 - gamma)

        if gamma == 0.0:
            out = np.minimum(1.0, cap) * (t - 1.0)
            return out if out.ndim else float(out)
        safe = np.maximum(t, tstar)
        out = np.where(t >= tstar, powprim(safe), powprim(tstar) + cap * (t - tstar))
        return out if out.ndim else float(out)

    def h_eps(self, t):
        t = np.asarray(t, dtype=float)
        out = (np.maximum(t, 0.0) + self.eps) ** (-self.gamma)
        return out if out.ndim else float(out)

    def H_eps(self, t):
        """Primitive of h_eps with H_eps(0) = 0; finite at 0, concave."""
        t = np.asarray(t, dtype=float)
        gamma = self.gamma
        eps = self.eps
        if gamma == 0.0:
            out = t.copy()
        else:
            pos = np.maximum(t, 0.0)
            if gamma == 1.0:
                ppart = np.log((pos + eps) / eps)
            else:
                ppart = ((pos + eps) ** (1.0 - gamma) - eps ** (1.0 - gamma)) / (1.0 - gamma)
            out = np.where(t >= 0.0, ppart, t * eps ** (-gamma))
        return out if out.ndim else float(out)

    def value(self, v) -> float:
        return float((self.masses * self.kvals * self.H_eps(v)).sum())

    def grad(self, v) -> np.ndarray:
        return self.masses * self.kvals * self.h_eps(v)

    def curvature(self, v) -> np.ndarray:
        """Diagonal Hessian of -sum m K H_eps(v): nonnegative by concavity."""
        v = np.asarray(v, dtype=float)
        if self.gamma == 0.0:
            return np.zeros_like(v)
        pos = np.maximum(v, 0.0)
        curv = self.gamma * (pos + self.eps) ** (-self.gamma - 1.0)
        return self.masses * self.kvals * np.where(v >= 0.0, curv, 0.0)


@dataclass
class SolveResult:
    """Minimizer with convergence diagnostics.

    residual is the normalized gradient sup-norm at the solution, i.e.
    max_i |grad_i| / max_i (m_i * rhs_i); positivity_margin = min(u)."""

    u: GridFunction
    iterations: int
    residual: float
    energy: float
    positivity_margin: float
    positivity_ok: bool = True


#: Armijo sufficient-decrease constant
_ARMIJO = 1e-4
#: predicted decrease, relative to the objective, below which energy
#: differences are rounding noise and the full step is judged by the gradient
_FLOOR = 1e-10
#: step halvings before the line search gives up
_HALVINGS = 60
#: Levenberg shifts tried, each ten times the last, before a step gives up
_SHIFTS = 24


def _newton_direction(hess, v, g, H):
    """Solve H(v) d = -g with H factored in place in the buffer H.

    Where the Hessian is not numerically positive definite (at p > 2 it
    vanishes at v = 0) the diagonal is shifted, Levenberg style, until the
    factorization succeeds; a failed factorization has overwritten the
    buffer, so every attempt rebuilds it.
    """
    shift = 0.0
    for _ in range(_SHIFTS):
        hess(v, H)
        if shift:
            H.flat[:: len(v) + 1] += shift
        else:
            dmax = float(H.diagonal().max())
        try:
            # H is symmetric and C-ordered, so H.T is its F-ordered view and
            # LAPACK factors it without a copy
            factor = cho_factor(H.T, overwrite_a=True, check_finite=False)
        except LinAlgError:
            if shift:
                shift *= 10.0
            else:
                shift = 1e-8 * dmax if dmax > 0.0 else float(np.abs(g).max())
            continue
        return cho_solve(factor, -g, check_finite=False)
    raise NoConvergence(f"Hessian not positive definite after a shift of {shift:.3e}")


def _newton(value, grad, hess, v0, gtol, max_iter):
    """Damped Newton minimization of a smooth convex objective.

    hess(v, out) writes the Hessian at v into the n x n buffer out, which is
    allocated once and refilled at every step.  Steps are Armijo-backtracked;
    when the predicted decrease drops below what the objective resolves and
    the full step fails Armijo, it is accepted if it lowers |g|.  Returns
    (v, iterations, |g|, value) once |g| <= gtol.
    """
    v = np.array(v0, dtype=float)
    g = grad(v)
    fv = value(v)
    gnorm = float(np.abs(g).max())
    if gnorm <= gtol:
        return v, 0, gnorm, fv
    H = np.empty((len(v), len(v)))
    for it in range(1, max_iter + 1):
        d = _newton_direction(hess, v, g, H)
        slope = float(g @ d)
        floor = -slope <= _FLOOR * abs(fv)
        step = 1.0
        for _ in range(_HALVINGS):
            v_new = v + step * d
            f_new = value(v_new)
            if f_new <= fv + _ARMIJO * step * slope:
                g_new = grad(v_new)
                break
            if floor and step == 1.0:
                g_new = grad(v_new)
                if float(np.abs(g_new).max()) < gnorm:
                    break
            step *= 0.5
        else:
            raise NoConvergence(
                f"line search stalled at |g| = {gnorm:.3e} (target {gtol:.3e})"
            )
        v, g, fv = v_new, g_new, f_new
        gnorm = float(np.abs(g).max())
        if gnorm <= gtol:
            return v, it, gnorm, fv
    raise NoConvergence(f"no convergence after {max_iter} iterations (|g| = {gnorm:.3e})")


def _smoothed(op: DiscreteOperator) -> DiscreteOperator:
    # psi' of the unsmoothed difference is infinite at 0 for p < 2
    return dataclasses.replace(op, mu=MU_FLOOR) if op.p < 2.0 else op


def _solve_objective(
    op: DiscreteOperator, rhs_value, rhs_grad, v0, tol, max_iter, scale, rhs_curv=None
):
    def value(v):
        return op.energy_over_p(v) - rhs_value(v)

    def grad(v):
        return op.apply(v) - rhs_grad(v)

    def hess(v, out):
        op.hessian(v, out)
        if rhs_curv is not None:
            out.flat[:: op.n + 1] += rhs_curv(v)
        return out

    gtol = tol * max(scale, 1e-300)
    v, iters, gnorm, fv = _newton(value, grad, hess, v0, gtol, max_iter)
    return v, iters, gnorm / max(scale, 1e-300), fv


def solve_fixed_rhs(
    op: DiscreteOperator,
    f,
    tol: float = 1e-10,
    max_iter: int = 40000,
    v0=None,
) -> SolveResult:
    """Minimize (1/p) energy(v) - <f, v>_m for nodal data f >= 0."""
    f = np.asarray(f, dtype=float)
    if f.shape != (op.n,):
        raise ShapeMismatch(f"rhs shape {f.shape}, operator size {op.n}")
    if np.any(f < 0.0):
        raise OutOfRange("fixed right-hand side must be nonnegative")
    if not np.any(f > 0.0):
        u = GridFunction(op.grid, np.zeros(op.n), Zero())
        return SolveResult(u, 0, 0.0, 0.0, 0.0)
    op = _smoothed(op)
    mf = op.m * f
    scale = float(np.abs(mf).max())
    v0 = np.zeros(op.n) if v0 is None else np.asarray(v0, dtype=float)
    v, iters, res, fv = _solve_objective(
        op, lambda v: float(mf @ v), lambda v: mf, v0, tol, max_iter, scale
    )
    margin = float(v.min())
    ok = margin >= -1e-12
    u = GridFunction(op.grid, v, Zero())
    return SolveResult(u, iters, res, fv, margin, ok)


def solve_approximated(
    params: ProblemParams,
    grid: Grid,
    eps: float,
    tol: float = 1e-10,
    max_iter: int = 40000,
    op: DiscreteOperator | None = None,
    v0=None,
) -> SolveResult:
    """Solve the eps-regularized problem by convex minimization.

    The minimizer satisfies apply(u) = m * K_eps * h_eps(u) up to the
    requested tolerance and is strictly positive at interior nodes.
    For p < 2 it is one Newton solve with the pair differences smoothed at
    mu = MU_FLOOR.  op, when given, is the operator assembled for (grid, s, p).
    """
    if params.delta >= params.sp:
        raise RegimeError(
            f"existence range requires delta < s*p, got {params.delta} >= {params.sp}"
        )
    if op is None:
        op = assemble_operator(grid, params.s, params.p)
    op = _smoothed(op)
    weights = weight_values(params, WeightSpec("eps", params.delta, eps=eps), grid.distance())
    reaction = SingularEnergy(params=params, eps=eps, kvals=weights, masses=op.m)
    scale = float((op.m * weights * reaction.h_eps(np.zeros(op.n))).max())
    v0 = np.zeros(op.n) if v0 is None else np.asarray(v0, dtype=float)
    v, iters, res, fv = _solve_objective(
        op,
        reaction.value,
        reaction.grad,
        v0,
        tol,
        max_iter,
        scale,
        rhs_curv=reaction.curvature,
    )
    margin = float(v.min())
    ok = margin >= -1e-12
    u = GridFunction(grid, v, Zero())
    return SolveResult(u, iters, res, fv, margin, ok)


def continuation(
    params: ProblemParams,
    grid: Grid,
    eps0: float = 0.5,
    halvings: int = 12,
    tol: float = 1e-4,
    solver_tol: float = 1e-10,
    op: DiscreteOperator | None = None,
):
    """Warm-started solves for eps_k = eps0 * 2**-k.

    Stops early once the sup-norm increment between consecutive minimizers
    falls below tol; the last iterate approximates the minimal solution and
    the recorded increment is its honest error proxy.  op, when given, is
    the operator assembled for (grid, s, p); otherwise it is assembled here.

    Returns (results, u_min, increments).
    """
    if halvings < 2:
        raise OutOfRange(f"need at least 2 halvings, got {halvings}")
    if op is None:
        op = assemble_operator(grid, params.s, params.p)
    results = []
    increments = []
    v_prev = None
    for k in range(halvings + 1):
        eps = eps0 * 2.0**-k
        res = solve_approximated(params, grid, eps, tol=solver_tol, op=op, v0=v_prev)
        results.append(res)
        if v_prev is not None:
            inc = float(np.abs(res.u.values - v_prev).max())
            increments.append(inc)
            if inc <= tol and k >= 2:
                v_prev = res.u.values
                break
        v_prev = res.u.values
    return results, results[-1].u, increments


@dataclass
class ResidualReport:
    probes: np.ndarray
    relative: np.ndarray
    max_relative: float
    mean_relative: float


def residual_check(
    u: GridFunction,
    params: ProblemParams,
    weight: WeightSpec | None = None,
    min_distance_cells: float = 4.0,
    min_distance: float = 0.0,
    max_probes: int = 200,
) -> ResidualReport:
    """Strong-form spot check: PV value of u against K(x)/u(x)**gamma.

    Probes are interior nodes with d > min_distance_cells * local cell width
    (and d > min_distance when given).  gamma > 0 requires u > 0 on probes.
    """
    grid = u.grid
    weight = weight or WeightSpec("exact", params.delta)
    d = grid.distance()
    eligible = []
    for i, x in enumerate(grid.nodes):
        hloc = grid.local_width(float(x))
        if d[i] > max(min_distance_cells * hloc, 4.0 * hloc, min_distance) and d[i] > 0:
            eligible.append(i)
    if not eligible:
        raise PointTooCloseToBoundary("no probe nodes far enough from the boundary")
    if len(eligible) > max_probes:
        sel = np.linspace(0, len(eligible) - 1, max_probes).round().astype(int)
        eligible = [eligible[j] for j in np.unique(sel)]
    idx = np.asarray(eligible, dtype=int)
    uvals = u.values[idx]
    if params.gamma > 0.0 and np.any(uvals <= 0.0):
        raise NonPositiveValues("gamma > 0 requires u > 0 at the probe nodes")
    kvals = weight_values(params, weight, d[idx])
    rhs = kvals if params.gamma == 0.0 else kvals / uvals**params.gamma
    rel = np.empty(len(idx))
    for j, i in enumerate(idx):
        pv = eval_fplap_pv(u, float(grid.nodes[i]), params.s, params.p)
        rel[j] = abs(pv - rhs[j]) / abs(rhs[j])
    return ResidualReport(
        probes=grid.nodes[idx],
        relative=rel,
        max_relative=float(rel.max()),
        mean_relative=float(rel.mean()),
    )
