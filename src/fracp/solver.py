"""Convex energy minimization for the regularized problems and the
epsilon-continuation toward the minimal solution.

The discrete objective for the regularized problem is
    (1/p) * energy(v) - sum_i m_i K_i H_eps(v_i),
strictly convex because the energy is strictly convex and H_eps is concave.
Minimization uses damped Newton steps: the dense Hessian (the operator's
weighted graph Laplacian plus the reaction curvature) is factored in place by
Cholesky, and Armijo backtracking makes the objective decrease at every
accepted step, except where the predicted decrease is below the rounding of
the objective.  A solve stops on the Newton decrement (Boyd & Vandenberghe,
Convex Optimization, 9.5): after each step lambda^2 = g^T H^-1 g is taken
with the Cholesky factor the solve holds, and the solve returns once
lambda^2 <= tol^2 |f|.  So tol bounds the relative error in the energy norm,
whatever the scale of the data.  Every solve, of every eps stage and of the
fixed right-hand side (the gamma = 0 member of the family, where h_eps is 1),
runs this one path.  For p < 2 the solver smooths the pair differences with
mu = MU_FLOOR (see DiscreteOperator) so that the Hessian exists; the operator
a caller passes in carries no smoothing.

At p = 2 the Hessian is the fixed operator plus the diagonal reaction
curvature, so a Cholesky factor stays a good preconditioner after v and eps
move.  There the Newton system is first solved by conjugate gradients
preconditioned with the last factor kept (inexact Newton with a stale-factor
preconditioner, run to a sup-norm residual of _CG_RTOL |g| so that the
minimizers do not move); the Hessian is rebuilt and refactored only when CG
needs more than _CG_MAX steps.  A continuation keeps one factor across all its
eps stages, and the solve that gives the decrement is the first CG iterate of
the next step.  Each solve with the factor, a CG preconditioner step or a Newton
direction after refactoring, is two level-2 BLAS triangular solves (dtrsv) on
the factor where LAPACK left it, with no copy.  At p != 2 a Hessian product
needs a power of every pair difference, as building the Hessian does, so
there every step factors.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor
from scipy.linalg.blas import dtrsv

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

    h_eps(t) = (max(t,0) + eps)**-gamma is the regularized reaction driving
    the approximated problem and H_eps its primitive with H_eps(0) = 0.  At
    gamma = 0, h_eps is 1 for every eps and the reaction is the fixed
    right-hand side kvals.
    """

    gamma: float
    eps: float
    kvals: np.ndarray = field(repr=False)
    masses: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.eps <= 0.0:
            raise OutOfRange(f"eps must be positive, got {self.eps}")

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

    residual is lambda / sqrt|f| at the solution: the Newton decrement
    lambda = sqrt(g^T H^-1 g), taken with the solve's last Cholesky factor,
    relative to the objective value f, at most the solve's tol;
    positivity_margin = min(u)."""

    u: GridFunction
    iterations: int
    residual: float
    energy: float
    positivity_margin: float
    positivity_ok: bool = True
    #: Cholesky factorizations and preconditioned CG steps the solve made
    factorizations: int = 0
    cg_steps: int = 0


#: Armijo sufficient-decrease constant
_ARMIJO = 1e-4
#: predicted decrease, relative to the objective, below which energy
#: differences are rounding noise and the full step is taken without Armijo
_FLOOR = 1e-10
#: step halvings before the line search gives up
_HALVINGS = 60
#: Levenberg shifts tried, each ten times the last, before a step gives up
_SHIFTS = 24
#: Newton steps before a solve gives up; the most any eps stage measured took
#: is 16 (p = 1.5, n = 1024)
_MAX_ITER = 50
#: CG stops once the residual sup-norm is at most _CG_RTOL |g|
_CG_RTOL = 1e-12
#: CG steps before the kept factor counts as stale and the Hessian is refactored
_CG_MAX = 8


class _Factor:
    """The n x n Hessian buffer of a solve and the Cholesky factor kept in it.

    One object serves every Newton step of a solve, or of every stage of a
    continuation, so the buffer is allocated once.  cho is the upper Cholesky
    factor U, H = U^T U, of the last Hessian factored (None when the buffer
    holds none): the F-ordered transpose of the buffer, whose upper triangle
    LAPACK has overwritten, so each solve with it is two BLAS triangular
    solves that read it in place.  factorizations and cg_steps count the work
    done through this object.
    """

    def __init__(self, n: int):
        self.buffer = np.empty((n, n))
        self.cho = None
        self.factorizations = 0
        self.cg_steps = 0

    def refactor(self, hess, v, g):
        """Factor the Hessian at v in the buffer and keep the factor.

        Where the Hessian is not numerically positive definite (at p > 2 it
        vanishes at v = 0) the diagonal is shifted, Levenberg style, until the
        factorization succeeds; a failed factorization has overwritten the
        buffer, so every attempt rebuilds it.
        """
        # the buffer is about to be overwritten
        self.cho = None
        H = self.buffer
        shift = 0.0
        for _ in range(_SHIFTS):
            hess(v, H)
            if shift:
                H.flat[:: len(v) + 1] += shift
            else:
                dmax = float(H.diagonal().max())
            try:
                # H is symmetric and C-ordered, so H.T is its F-ordered view
                # and LAPACK factors it without a copy
                self.cho, _ = cho_factor(H.T, overwrite_a=True, check_finite=False)
            except LinAlgError:
                if shift:
                    shift *= 10.0
                else:
                    shift = 1e-8 * dmax if dmax > 0.0 else float(np.abs(g).max())
                continue
            self.factorizations += 1
            return
        raise NoConvergence(f"Hessian not positive definite after a shift of {shift:.3e}")

    def _solve(self, b):
        """x with U^T U x = b for the kept factor: U^T y = b, then U x = y."""
        y = dtrsv(self.cho, b, trans=1)
        return dtrsv(self.cho, y, trans=0, overwrite_x=1)

    def pcg(self, hvp, b, x):
        """Solve H x = b by CG preconditioned with the kept factor, where
        hvp(x) = H x, from x, the kept factor's solve of b (computed when
        None).  Returns x once the sup-norm residual is at most _CG_RTOL |b|,
        or None after _CG_MAX steps or without a factor."""
        if self.cho is None:
            return None
        tol = _CG_RTOL * float(np.abs(b).max())
        if x is None:
            x = self._solve(b)
        r = b - hvp(x)
        d = rz = None
        for _ in range(_CG_MAX):
            if float(np.abs(r).max()) <= tol:
                return x
            z = self._solve(r)
            rz, rz_old = r @ z, rz
            d = z if d is None else z + (rz / rz_old) * d
            Hd = hvp(d)
            alpha = rz / (d @ Hd)
            x = x + alpha * d
            r = r - alpha * Hd
            self.cg_steps += 1
            if float(np.abs(r).max()) <= tol:
                # the updated residual drifts from the true one: confirm
                r = b - hvp(x)
        return x if float(np.abs(r).max()) <= tol else None

    def direction(self, hess, v, g, hvp, x):
        """Newton direction d with H(v) d = -g.

        hvp, when not None, is x -> H(v) x, and CG with the kept factor is
        tried first, from x, the kept factor's solve of -g when not None; the
        Hessian is refactored when CG gives up or hvp is None.
        """
        if hvp is not None:
            d = self.pcg(hvp, -g, x)
            if d is not None:
                return d
        self.refactor(hess, v, g)
        return self._solve(-g)


def _newton(op, reaction, v0, tol, factor):
    """Damped Newton minimization of (1/p) op.energy(v) - reaction.value(v).

    The Hessian, op's plus the diagonal reaction curvature, is written into
    the n x n buffer of factor (a _Factor).  At p = 2 (op._linear) each
    Newton system is first solved by CG preconditioned with the kept factor.
    Steps are Armijo-backtracked, except that a step whose predicted
    decrease is below _FLOOR |f| is taken in full: Armijo cannot resolve a
    decrease below the rounding of f.  After each step the squared Newton
    decrement lambda^2 = g^T H^-1 g is taken with the kept factor, and the
    solve returns (v, steps, lambda / sqrt|f|, f) once lambda^2 <= tol^2 |f|.
    """

    def value(v):
        return op.energy_over_p(v) - reaction.value(v)

    def grad(v):
        return op.apply(v) - reaction.grad(v)

    def hess(v, out):
        op.hessian(v, out)
        out.flat[:: op.n + 1] += reaction.curvature(v)
        return out

    def hvp(v):
        # at p = 2 the Hessian is the operator plus the reaction curvature
        curv = reaction.curvature(v)
        return lambda x: op.apply(x) + curv * x

    v = np.array(v0, dtype=float)
    g = grad(v)
    fv = value(v)
    # the kept factor's solve of H x = -g at v, reused as the first CG iterate
    x = None
    for it in range(1, _MAX_ITER + 1):
        d = factor.direction(hess, v, g, hvp(v) if op._linear else None, x)
        slope = float(g @ d)
        floor = -slope <= _FLOOR * abs(fv)
        step = 1.0
        for _ in range(_HALVINGS):
            v_new = v + step * d
            f_new = value(v_new)
            if floor or f_new <= fv + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            raise NoConvergence(
                f"line search stalled at lambda^2 = {-slope:.3e} (|f| = {abs(fv):.3e})"
            )
        v, fv = v_new, f_new
        g = grad(v)
        x = factor._solve(-g)
        lam2 = -float(g @ x)
        if lam2 <= tol * tol * abs(fv):
            return v, it, math.sqrt(lam2 / abs(fv)) if lam2 > 0.0 else 0.0, fv
    raise NoConvergence(f"no convergence after {_MAX_ITER} Newton steps (lambda^2 = {lam2:.3e})")


def _minimize(op: DiscreteOperator, reaction: SingularEnergy, v0, tol, factor) -> SolveResult:
    """Newton solve of the reaction's problem on op from v0 (zeros when None).

    For p < 2 the pair differences are smoothed at mu = MU_FLOOR, since psi'
    of the unsmoothed difference is infinite at 0.  factor, when given, is
    the Hessian buffer and kept Cholesky factor of the continuation this
    solve is a stage of; otherwise the solve makes its own.
    """
    if op.p < 2.0:
        op = dataclasses.replace(op, mu=MU_FLOOR)
    if factor is None:
        factor = _Factor(op.n)
    nfac, ncg = factor.factorizations, factor.cg_steps
    v, iters, res, fv = _newton(op, reaction, np.zeros(op.n) if v0 is None else v0, tol, factor)
    nfac, ncg = factor.factorizations - nfac, factor.cg_steps - ncg
    margin = float(v.min())
    u = GridFunction(op.grid, v, Zero())
    return SolveResult(u, iters, res, fv, margin, margin >= -1e-12, nfac, ncg)


def solve_fixed_rhs(op: DiscreteOperator, f, tol: float = 1e-10) -> SolveResult:
    """Minimize (1/p) energy(v) - <f, v>_m for nodal data f >= 0: the
    gamma = 0 member of the regularized family."""
    f = np.asarray(f, dtype=float)
    if f.shape != (op.n,):
        raise ShapeMismatch(f"rhs shape {f.shape}, operator size {op.n}")
    if np.any(f < 0.0):
        raise OutOfRange("fixed right-hand side must be nonnegative")
    if not np.any(f > 0.0):
        u = GridFunction(op.grid, np.zeros(op.n), Zero())
        return SolveResult(u, 0, 0.0, 0.0, 0.0)
    reaction = SingularEnergy(gamma=0.0, eps=1.0, kvals=f, masses=op.m)
    return _minimize(op, reaction, None, tol, None)


def solve_approximated(
    params: ProblemParams,
    grid: Grid,
    eps: float,
    tol: float = 1e-10,
    op: DiscreteOperator | None = None,
    v0=None,
    factor: _Factor | None = None,
) -> SolveResult:
    """Solve the eps-regularized problem by convex minimization.

    The minimizer satisfies apply(u) = m * K_eps * h_eps(u) up to the
    requested tolerance and is strictly positive at interior nodes.
    op, when given, is the operator assembled for (grid, s, p).  factor,
    when given, is the Hessian buffer and kept Cholesky factor of the
    continuation this solve is a stage of.
    """
    if params.delta >= params.sp:
        raise RegimeError(
            f"existence range requires delta < s*p, got {params.delta} >= {params.sp}"
        )
    if op is None:
        op = assemble_operator(grid, params.s, params.p)
    weights = weight_values(params, WeightSpec("eps", params.delta, eps=eps), grid.distance())
    reaction = SingularEnergy(gamma=params.gamma, eps=eps, kvals=weights, masses=op.m)
    return _minimize(op, reaction, v0, tol, factor)


def continuation(
    params: ProblemParams,
    grid: Grid,
    eps0: float = 0.5,
    halvings: int = 12,
    tol: float = 1e-4,
    op: DiscreteOperator | None = None,
):
    """Warm-started solves for eps_k = eps0 * 2**-k.

    Stops early once the sup-norm increment between consecutive minimizers
    falls below tol; the last iterate approximates the minimal solution and
    the recorded increment is its honest error proxy.  op, when given, is
    the operator assembled for (grid, s, p); otherwise it is assembled here.
    Every stage solves at solve_approximated's default tol and shares one
    Hessian buffer, and at p = 2 one kept factor.

    Returns (results, u_min, increments).
    """
    if halvings < 2:
        raise OutOfRange(f"need at least 2 halvings, got {halvings}")
    if op is None:
        op = assemble_operator(grid, params.s, params.p)
    factor = _Factor(op.n)
    results = []
    increments = []
    v_prev = None
    for k in range(halvings + 1):
        eps = eps0 * 2.0**-k
        res = solve_approximated(params, grid, eps, op=op, v0=v_prev, factor=factor)
        results.append(res)
        if v_prev is not None:
            inc = float(np.abs(res.u.values - v_prev).max())
            increments.append(inc)
            if inc <= tol and k >= 2:
                v_prev = res.u.values
                break
        v_prev = res.u.values
    return results, results[-1].u, increments


#: most probe nodes residual_check evaluates
_MAX_PROBES = 200


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
    min_distance: float = 0.0,
) -> ResidualReport:
    """Strong-form spot check: PV value of u against K(x)/u(x)**gamma.

    Probes are interior nodes with d > 4 local cell widths (and d >
    min_distance when given), at most _MAX_PROBES of them spread evenly.
    gamma > 0 requires u > 0 on probes.
    """
    grid = u.grid
    weight = weight or WeightSpec("exact", params.delta)
    d = grid.distance()
    idx = grid.probe_indices(4.0, _MAX_PROBES, above=min_distance)
    if not len(idx):
        raise PointTooCloseToBoundary("no probe nodes far enough from the boundary")
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
