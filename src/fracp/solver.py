"""Convex energy minimization for the regularized problems and the
epsilon-continuation toward the minimal solution.

A regularized solve exists only for delta < sp.  The one check of that
range is weight_values (barrier), which every regularized solve calls
before it assembles anything.

The discrete objective for the regularized problem is
    (1/p) * energy(v) - sum_i m_i K_i H_eps(v_i),
strictly convex because the energy is strictly convex and H_eps is concave.
Every grid is mirror-symmetric and every right-hand side solved is a
mirror image of itself, so each minimizer is mirror-symmetric, v = P v_L with
v_L the values at the h = ceil(n/2) left-half nodes and P stacking I over the
reversal.  Every solve therefore runs on v_L alone: the objective is
(1/p) folded.energy(v_L) - sum_i c_i m_i K_i H_eps(v_i) over i < h, with
c_i = 2 for a mirrored node and 1 for the middle node of an odd n (see
DiscreteOperator.folded), whose gradient and Hessian are the full ones
reduced by P.  The reduced system gives the full Newton direction and the
full decrement, from h x h pair passes, an h x h Hessian buffer and an h^3/3
Cholesky; the returned u is P v_L (Bossavit, Comput. Methods Appl. Mech.
Engrg. 56, 1986, on symmetry reduction).  There is no full-space path.

Minimization uses damped Newton steps: the dense Hessian (the operator's
weighted graph Laplacian plus the reaction curvature) is factored in place
by Cholesky, and Armijo backtracking makes the objective decrease at every
accepted step, except where the predicted decrease is below the rounding of
the objective.  Each line-search trial takes the objective and its gradient
from one pair sweep (DiscreteOperator.energy_and_apply), and the accepted
trial's gradient is the next step's.  A solve stops on the Newton decrement
(Boyd & Vandenberghe, Convex Optimization, 9.5): after each step lambda^2 =
g^T H^-1 g is taken with the Cholesky factor the solve holds, and the solve
returns once lambda^2 <= tol^2 |f|.  So tol bounds the relative error in the
energy norm, whatever the scale of the data.  Every solve, of every eps
stage and of the fixed right-hand side (the gamma = 0 member of the family,
where h_eps is 1), runs this one path.  For p < 2 the solver smooths the
pair differences with mu = MU_FLOOR (see DiscreteOperator) so that the
Hessian exists; the operator a caller passes in carries no smoothing.

At p = 2 the Hessian is the fixed operator plus the diagonal reaction
curvature, so a Cholesky factor stays a good preconditioner after v and eps
move.  There the Newton system is solved by conjugate gradients against the
float64 operator, preconditioned with the last factor kept (inexact Newton
with a stale-factor preconditioner, run to a sup-norm residual of
_CG_RTOL |g| so that the minimizers do not move, or _STAGE_CG_RTOL |g| in an
intermediate stage); the Hessian is rebuilt and refactored only when CG
needs more than _CG_MAX steps, and CG then runs again with the fresh factor.
Since that factor only preconditions, it is kept in single precision, in a
float32 Hessian buffer (Carson & Higham, SIAM J. Sci. Comput. 40, 2018, use
a low-precision factor the same way).  A continuation
keeps one factor across all its eps stages, and the solve that gives the
decrement is the first CG iterate of the next step.  Each solve with the
factor is two level-2 BLAS triangular solves (?trsv of the factor's dtype)
on the factor where LAPACK left it, with no copy.  At p != 2 a Hessian
product needs a power of every pair difference, as building the Hessian
does, so there every step factors, in float64, and the factor's solve is
the Newton direction.

On a fixed mesh the eps-path is close to linear in eps, so with eps halved
at each stage a continuation starts stage k + 1 from the secant prediction
v_k + (v_k - v_{k-1}) / 2 (Allgower & Georg, Numerical Continuation
Methods, ch. 2); each stage is a strictly convex solve, so only its start
point moves, not its minimizer.  Only the last stage is the answer, so the
stages between serve as warm starts and increments and are solved only as
accurately as those need (inexact Newton, see continuation); the last one is
always solved to the full tol.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor
from scipy.linalg.blas import get_blas_funcs

from .core import Grid, GridFunction, ProblemParams, Zero
from .errors import NoConvergence, OutOfRange, ShapeMismatch
from .barrier import weight_values
from .kernel import DiscreteOperator, assemble_operator

__all__ = [
    "SingularEnergy",
    "SolveResult",
    "solve_fixed_rhs",
    "solve_approximated",
    "continuation",
]

#: smoothing of the pair differences for p < 2
MU_FLOOR = 1e-8
#: regularization eps of the first stage of a continuation
EPS0 = 0.5


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
        try:  # h_eps(0), the reaction's largest value
            math.pow(self.eps, -self.gamma)
        except OverflowError:
            raise OutOfRange(f"eps**-gamma overflows at eps = {self.eps:.4g}, "
                             f"gamma = {self.gamma}") from None

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

    u holds all n nodal values, the mirror image P v_L of the left-half
    values the solve found.  residual is lambda / sqrt|f| at the solution:
    the Newton decrement lambda = sqrt(g^T H^-1 g), relative to the
    objective value f.  It is at most the solve's tol for a full-accuracy
    solve (newton_tol None); an intermediate stage of a continuation stops
    on its Newton step instead, and its residual may be far larger.  lambda
    is taken with the solve's last Cholesky factor of the folded Hessian,
    whose decrement and
    objective are those of the full n-node system.  At p != 2 that factor is
    of the Hessian at the previous iterate; at p = 2 it is the kept factor,
    which may be stale and is single precision, so there lambda is
    approximate.  positivity_margin = min(u).  eps is the regularization
    of the reaction solved: 1.0 for a fixed right-hand side, whose reaction
    does not depend on it."""

    u: GridFunction
    eps: float
    iterations: int
    residual: float
    positivity_margin: float
    positivity_ok: bool = True
    #: Cholesky factorizations, preconditioned CG steps and evaluations of
    #: the objective with its gradient (one pair sweep each) the solve made
    factorizations: int = 0
    cg_steps: int = 0
    evaluations: int = 0
    #: wall-clock seconds of the solve
    seconds: float = 0.0
    #: the Newton-step sup-norm at which an intermediate stage of a
    #: continuation stopped (_STAGE_STEP_RTOL of the previous increment), or
    #: None for a solve run to full accuracy
    newton_tol: float | None = None


#: the relative Newton decrement of a full-accuracy solve
_TOL = 1e-10
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
#: an intermediate eps stage of a continuation stops once the sup-norm of its
#: Newton step is at most _STAGE_STEP_RTOL of the previous increment
#: |v_{k-1} - v_{k-2}|, and its CG once the residual is at most
#: _STAGE_CG_RTOL |g|
_STAGE_STEP_RTOL = 1e-4
_STAGE_CG_RTOL = 1e-5
#: CG steps before the kept factor counts as stale and the Hessian is refactored
_CG_MAX = 8


class _Factor:
    """The h x h Hessian buffer of a solve and the Cholesky factor kept in it.

    h = ceil(n/2): the buffer holds the folded Hessian of the left-half
    unknowns (DiscreteOperator.folded), a quarter of the n x n one, and the
    factorization costs an eighth.

    One object serves every Newton step of a solve, or of every stage of a
    continuation, so the buffer is allocated once, and so is scratch, where
    the pair passes work at p != 2.  cho is the upper Cholesky factor U,
    H = U^T U, of the last Hessian factored (None when the buffer holds
    none): the F-ordered transpose of the buffer, whose upper triangle
    LAPACK has overwritten, so each solve with it is two BLAS triangular
    solves that read it in place.  factorizations and cg_steps count the work
    done through this object.  step_tol is the stop of the stage it serves:
    None for a full-accuracy solve, or the Newton-step sup-norm at which an
    intermediate stage of a continuation stops, whose CG then runs to
    _STAGE_CG_RTOL in place of _CG_RTOL.

    The dtype of the buffer, and so of the factor, follows the factor's role
    (for_operator).  At p = 2 the factor only preconditions CG, and CG
    against the float64 operator decides the answer, so float32 is safe
    there and halves the buffer and the triangular solves.  At p != 2 the
    factor's solve is the Newton direction itself, so it is float64.
    """

    def __init__(self, n: int, dtype):
        self.buffer = np.empty((n, n), dtype=dtype)
        self.scratch = (None, None) if dtype == np.float32 else np.empty((2, n, n))
        self.cho = None
        self.factorizations = 0
        self.cg_steps = 0
        self.step_tol = None

    @classmethod
    def for_operator(cls, op: DiscreteOperator) -> "_Factor":
        """The factor of the solves on op, a folded operator: float32 at
        p = 2 (op._linear), where it preconditions CG, and float64 where it
        is the exact Newton solve."""
        return cls(op.n, np.float32 if op._linear else np.float64)

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
        """x with U^T U x = b for the kept factor: U^T y = b, then U x = y,
        in the factor's precision; b and x are float64."""
        trsv = get_blas_funcs("trsv", (self.cho,))
        y = trsv(self.cho, b.astype(self.cho.dtype), trans=1, overwrite_x=1)
        return trsv(self.cho, y, trans=0, overwrite_x=1).astype(np.float64, copy=False)

    def pcg(self, hvp, b, x):
        """Solve H x = b by CG preconditioned with the kept factor, where
        hvp(x) = H x, from x, the kept factor's solve of b (computed when
        None).  Returns x once the sup-norm residual is at most _CG_RTOL |b|
        (_STAGE_CG_RTOL |b| in an intermediate stage), or None after _CG_MAX
        steps or without a factor."""
        if self.cho is None:
            return None
        rtol = _CG_RTOL if self.step_tol is None else _STAGE_CG_RTOL
        tol = rtol * float(np.abs(b).max())
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
        tried first, from x, the kept factor's solve of -g when not None.
        The Hessian is refactored when CG gives up or hvp is None; with hvp,
        CG runs again with the fresh factor, and the factor's own solve is
        the direction only if that CG gives up too.
        """
        if hvp is not None:
            d = self.pcg(hvp, -g, x)
            if d is not None:
                return d
        self.refactor(hess, v, g)
        d = None if hvp is None else self.pcg(hvp, -g, None)
        return self._solve(-g) if d is None else d


def _newton(op, reaction, v0, tol, factor):
    """Damped Newton minimization of (1/p) op.energy(v) - reaction.value(v).

    op and reaction are folded onto the left half (_minimize).  The Hessian,
    op's plus the diagonal reaction curvature, is written into the op.n x op.n
    buffer of factor (a _Factor).  At p = 2 (op._linear) each
    Newton system is first solved by CG preconditioned with the kept factor.
    Steps are Armijo-backtracked, except that a step whose predicted
    decrease is below _FLOOR |f| is taken in full: Armijo cannot resolve a
    decrease below the rounding of f.  After each step the Newton step
    x = H^-1 (-g) at the new iterate is solved with the kept factor, with it
    the squared Newton decrement lambda^2 = -g^T x, and the solve returns
    (v, steps, lambda / sqrt|f|, evaluations of objective) once lambda^2 <=
    tol^2 |f|, or, in an intermediate stage of a continuation, once x has a
    sup-norm of at most factor.step_tol.  A gradient or Hessian diagonal
    beyond the range of the factor's dtype (float32 at p = 2), which its
    solves would round to inf, raises OutOfRange before it reaches them.
    """
    limit = float(np.finfo(factor.buffer.dtype).max)

    def in_range(a, what):
        if not float(np.abs(a).max()) <= limit:
            raise OutOfRange(f"the Newton {what} at eps = {reaction.eps:.4g}, gamma = "
                             f"{reaction.gamma} leaves the {factor.buffer.dtype} range")
        return a

    def objective(v):
        energy, g = op.energy_and_apply(v, factor.scratch)
        return energy / op.p - reaction.value(v), g - reaction.grad(v)

    def hess(v, out):
        op.hessian(v, out, factor.scratch)
        curv = reaction.curvature(v)
        in_range(out.diagonal() + curv, "Hessian")
        out.flat[:: op.n + 1] += curv

    def hvp(v):
        # at p = 2 the Hessian is the operator plus the reaction curvature
        curv = reaction.curvature(v)
        return lambda x: op.apply(x) + curv * x

    v = np.array(v0, dtype=float)
    fv, g = objective(v)
    in_range(g, "gradient")
    evaluations = 1
    # the kept factor's solve of H x = -g at v, reused as the first CG iterate
    x = None
    for it in range(1, _MAX_ITER + 1):
        d = factor.direction(hess, v, g, hvp(v) if op._linear else None, x)
        slope = float(g @ d)
        floor = -slope <= _FLOOR * abs(fv)
        step = 1.0
        for _ in range(_HALVINGS):
            v_new = v + step * d
            f_new, g_new = objective(v_new)
            evaluations += 1
            if floor or f_new <= fv + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            raise NoConvergence(
                f"line search stalled at lambda^2 = {-slope:.3e} (|f| = {abs(fv):.3e})"
            )
        v, fv, g = v_new, f_new, in_range(g_new, "gradient")
        x = factor._solve(-g)
        lam2 = -float(g @ x)
        if lam2 <= tol * tol * abs(fv) or (
            factor.step_tol is not None and float(np.abs(x).max()) <= factor.step_tol
        ):
            return v, it, math.sqrt(lam2 / abs(fv)) if lam2 > 0.0 else 0.0, evaluations
    raise NoConvergence(f"no convergence after {_MAX_ITER} Newton steps (lambda^2 = {lam2:.3e})")


def _minimize(op: DiscreteOperator, gamma, eps, kvals, v0, tol, factor) -> SolveResult:
    """Newton solve of the reaction (gamma, eps, kvals at op's nodes) on op
    from v0 (zeros when None), run on the left half (op.folded).

    kvals and v0 enter through their left-half values.  For p < 2 the pair
    differences are smoothed at mu = MU_FLOOR, since psi' of the unsmoothed
    difference is infinite at 0.  factor, when given, is the Hessian buffer
    and kept Cholesky factor of the continuation this solve is a stage of;
    otherwise the solve makes its own.
    """
    t0 = time.perf_counter()
    half = op.folded
    if op.p < 2.0:
        half = dataclasses.replace(half, mu=MU_FLOOR)
    h = half.n
    reaction = SingularEnergy(gamma=gamma, eps=eps, kvals=kvals[:h], masses=half.m)
    if factor is None:
        factor = _Factor.for_operator(half)
    nfac, ncg = factor.factorizations, factor.cg_steps
    v0 = np.zeros(h) if v0 is None else op._check(v0)[:h]
    v, iters, res, nev = _newton(half, reaction, v0, tol, factor)
    nfac, ncg = factor.factorizations - nfac, factor.cg_steps - ncg
    margin = float(v.min())
    u = GridFunction(op.grid, np.concatenate((v, v[: op.n // 2][::-1])), Zero())
    seconds = time.perf_counter() - t0
    return SolveResult(u, eps, iters, res, margin, margin >= -1e-12, nfac, ncg, nev, seconds,
                       factor.step_tol)


def solve_fixed_rhs(op: DiscreteOperator, f, tol: float = _TOL) -> SolveResult:
    """Minimize (1/p) energy(v) - <f, v>_m for nodal data f >= 0: the
    gamma = 0 member of the regularized family.

    f must be mirror-symmetric, f[i] = f[n-1-i] exactly (a constant or a
    function of grid.distance() is), since the solve runs on the left half;
    other f raise OutOfRange."""
    f = np.asarray(f, dtype=float)
    if f.shape != (op.n,):
        raise ShapeMismatch(f"rhs shape {f.shape}, operator size {op.n}")
    if np.any(f < 0.0):
        raise OutOfRange("fixed right-hand side must be nonnegative")
    if not np.array_equal(f, f[::-1]):
        raise OutOfRange("fixed right-hand side must be mirror-symmetric, f[i] = f[n-1-i]")
    if not np.any(f > 0.0):
        u = GridFunction(op.grid, np.zeros(op.n), Zero())
        return SolveResult(u, 1.0, 0, 0.0, 0.0)
    return _minimize(op, 0.0, 1.0, f, None, tol, None)


def solve_approximated(
    params: ProblemParams,
    eps: float,
    op: DiscreteOperator,
    tol: float = _TOL,
    v0=None,
    factor: _Factor | None = None,
) -> SolveResult:
    """Solve the eps-regularized problem by convex minimization.

    The minimizer satisfies apply(u) = m * K_eps * h_eps(u) up to the
    requested tolerance and is strictly positive at interior nodes.
    delta >= sp raises RegimeError from weight_values.  op is the operator
    assembled for (op.grid, s, p), and the solve runs on op.grid.  v0, when
    given, is a start point at the n nodes, of which the solve reads the
    left half.  factor, when given, is the h x h Hessian buffer and kept
    Cholesky factor of the continuation this solve is a stage of.
    """
    weights = weight_values(params, op.grid.distance(), eps)
    return _minimize(op, params.gamma, eps, weights, v0, tol, factor)


def _finish(params: ProblemParams, op: DiscreteOperator, stage: SolveResult, factor: _Factor):
    """The intermediate stage `stage` solved on to full accuracy from its own
    iterate, with the counts and seconds of both solves added up."""
    factor.step_tol = None
    weights = weight_values(params, op.grid.distance(), stage.eps)
    res = _minimize(op, params.gamma, stage.eps, weights, stage.u.values, _TOL, factor)
    return dataclasses.replace(
        res,
        iterations=stage.iterations + res.iterations,
        factorizations=stage.factorizations + res.factorizations,
        cg_steps=stage.cg_steps + res.cg_steps,
        evaluations=stage.evaluations + res.evaluations,
        seconds=stage.seconds + res.seconds,
    )


def continuation(
    params: ProblemParams,
    grid: Grid,
    eps0: float = EPS0,
    halvings: int = 12,
    tol: float = 1e-4,
    op: DiscreteOperator | None = None,
):
    """Warm-started solves for eps_k = eps0 * 2**-k; each result records
    its stage's eps.

    Stage 0 starts from zeros, stage 1 from v_0 and stage k >= 2 from the
    secant prediction v_{k-1} + (v_{k-1} - v_{k-2}) / 2 along the eps-path.
    Stops early once the sup-norm increment between consecutive minimizers
    falls below tol (at k >= 2); the last iterate approximates the minimal
    solution and the recorded increment is its honest error proxy.  op, when
    given, is the operator assembled for (grid, s, p), and one assembled on
    other nodes raises ShapeMismatch; otherwise it is assembled here.  Every
    stage solves on the left half and shares one h x h Hessian buffer, and
    at p = 2 one kept factor.

    Only the last stage is the answer; the others are warm starts and
    increments.  So a stage k in 2 .. halvings - 1 is solved inexactly
    (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982): it stops
    once its Newton step is at most _STAGE_STEP_RTOL of the previous
    increment, which it records as its newton_tol, with CG at _STAGE_CG_RTOL.
    Stages 0 and 1, which have no increment before them, the last allowed
    one, k = halvings, and the stage that the secant predicts to meet tol
    (its increment half the previous one) solve at solve_approximated's
    default tol.  An inexact stage whose increment meets tol after all is
    solved on to that tol from its own iterate before its increment is
    recorded.  So the returned u_min is always a full-accuracy minimizer,
    whether or not the continuation met tol.

    Returns (results, u_min, increments).
    """
    if halvings < 2:
        raise OutOfRange(f"need at least 2 halvings, got {halvings}")
    if op is None:
        op = assemble_operator(grid, params.s, params.p)
    op._check_grid(grid)
    factor = _Factor.for_operator(op.folded)
    results = []
    increments = []
    v0 = None
    for k in range(halvings + 1):
        eps = eps0 * 2.0**-k
        loose = 2 <= k < halvings and 0.5 * increments[-1] > tol
        factor.step_tol = _STAGE_STEP_RTOL * increments[-1] if loose else None
        res = solve_approximated(params, eps, op=op, v0=v0, factor=factor)
        if k == 0:
            results.append(res)
            v0 = res.u.values
            continue
        v_prev = results[-1].u.values
        inc = float(np.abs(res.u.values - v_prev).max())
        if res.newton_tol is not None and inc <= tol:
            res = _finish(params, op, res, factor)
            inc = float(np.abs(res.u.values - v_prev).max())
        results.append(res)
        increments.append(inc)
        if inc <= tol and k >= 2:
            break
        v = res.u.values
        v0 = v + 0.5 * (v - v_prev)
    return results, results[-1].u, increments
