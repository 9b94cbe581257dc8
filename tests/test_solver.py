import dataclasses

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from fracp import (
    GridFunction,
    WeightSpec,
    assemble_operator,
    build_grid,
    continuation,
    default_grading,
    make_params,
    solve_approximated,
    solve_fixed_rhs,
)
from fracp import solver
from fracp.barrier import weight_values
from fracp.errors import (
    NoConvergence,
    NonPositiveValues,
    OutOfRange,
    RegimeError,
    ShapeMismatch,
)
from fracp.solver import SingularEnergy, residual_check


class TestSolveFixedRhs:
    def test_zero_rhs_gives_zero(self):
        op = assemble_operator(build_grid(0, 1, 32, 1), 0.5, 2.0)
        res = solve_fixed_rhs(op, np.zeros(32))
        assert np.all(res.u.values == 0.0)
        assert res.iterations == 0

    def test_homogeneity_p3(self):
        op = assemble_operator(build_grid(0, 1, 24, 1), 0.5, 3.0)
        f = np.ones(24)
        u1 = solve_fixed_rhs(op, f, tol=1e-11).u.values
        u2 = solve_fixed_rhs(op, 2.0 ** (3 - 1) * f, tol=1e-11).u.values
        assert np.abs(u2 - 2 * u1).max() <= 1e-6

    def test_positivity(self, torsion_64):
        _, _, res = torsion_64
        assert res.positivity_margin >= -1e-12
        assert res.positivity_ok

    def test_negative_rhs_rejected(self):
        op = assemble_operator(build_grid(0, 1, 16, 1), 0.5, 2.0)
        with pytest.raises(OutOfRange):
            solve_fixed_rhs(op, -np.ones(16))

    def test_shape_mismatch(self):
        op = assemble_operator(build_grid(0, 1, 16, 1), 0.5, 2.0)
        with pytest.raises(ShapeMismatch):
            solve_fixed_rhs(op, np.ones(15))

    def test_p_below_two_on_plain_operator(self):
        # the solver smooths p < 2 itself; the assembled operator has mu = 0
        op = assemble_operator(build_grid(0, 1, 16, 1), 0.6, 1.5)
        assert op.mu == 0.0
        res = solve_fixed_rhs(op, np.ones(16))
        assert res.residual <= 1e-10
        assert res.positivity_ok

    def test_torsion_s075_uniform_512_converges(self):
        # a linear SPD system the earlier gradient descent gave up on at the
        # default tolerance
        s = 0.75
        grid = build_grid(0, 1, 512, 1.0)
        op = assemble_operator(grid, s, 2.0)
        res = solve_fixed_rhs(op, np.ones(512))
        assert res.residual <= 1e-10
        x = grid.nodes
        inner = np.minimum(x, 1 - x) > 0.1
        exact = np.sin(np.pi * s) / (2 * np.pi) * (x * (1 - x)) ** s
        assert np.abs(res.u.values[inner] / exact[inner] - 1).max() <= 0.05

    def test_torsion_mirror_symmetric(self):
        # the mesh and the operator are mirror-symmetric, so is the solution,
        # node by node down to the smallest cells of the grading 4 mesh
        op = assemble_operator(build_grid(0, 1, 256, 4.0), 0.5, 2.0)
        u = solve_fixed_rhs(op, np.ones(256)).u.values
        assert np.all(np.abs(u - u[::-1]) <= 1e-12 * u)

    def test_energy_decreases_along_newton_steps(self):
        # the solver builds the Hessian at every accepted iterate (twice at
        # v = 0, where p = 3 needs a Levenberg shift): the objective at those
        # points, and at the returned minimizer, must fall strictly
        op = assemble_operator(build_grid(0, 1, 48, 1.5), 0.5, 3.0)
        reaction = SingularEnergy(gamma=0.0, eps=1.0, kvals=np.ones(48), masses=op.m)

        def value(v):
            return op.energy_over_p(v) - float(op.m @ v)

        iterates = []
        hessian = op.hessian

        def recording_hessian(v, out):
            if not iterates or np.any(iterates[-1] != v):
                iterates.append(v.copy())
            return hessian(v, out)

        op.hessian = recording_hessian
        v, iters, res = solver._newton(
            op, reaction, np.zeros(48), tol=1e-10, factor=solver._Factor.for_operator(op)
        )
        assert res <= 1e-10
        assert len(iterates) == iters >= 5
        values = [value(u) for u in iterates + [v]]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestSingularEnergy:
    def make(self, gamma, eps=0.25):
        grid = build_grid(0, 1, 32, 1)
        k = np.ones(32)
        return SingularEnergy(gamma=gamma, eps=eps, kvals=k, masses=grid.masses)

    def test_H_primitive_and_bounds(self):
        for gamma in (0.0, 0.5, 1.0, 2.0):
            se = self.make(gamma, eps=0.25)
            assert se.H_eps(0.0) == 0.0
            cap = 0.25**-gamma
            for t in (-1.0, -0.2, 0.1, 0.8, 3.0):
                h = 1e-6
                fd = (se.H_eps(t + h) - se.H_eps(t - h)) / (2 * h)
                assert fd == pytest.approx(se.h_eps(t), rel=1e-5)
                assert se.h_eps(t) <= cap + 1e-12
            # nonincreasing
            ts = np.linspace(-1, 3, 101)
            assert np.all(np.diff(se.h_eps(ts)) <= 1e-15)


class TestSolveApproximated:
    def test_gamma_delta_zero_reduces_to_fixed_rhs(self):
        # the fixed right-hand side is the gamma = 0 reaction, where h_eps = 1
        # for every eps: both entry points give the same minimizer bit for bit
        grid = build_grid(0, 1, 48, 1)
        for p in (1.5, 2.0, 3.0):
            pars = make_params(0.5, p, 0.0, 0.0)
            op = assemble_operator(grid, 0.5, p)
            ra = solve_approximated(pars, grid, eps=0.3, tol=1e-11, op=op)
            rb = solve_fixed_rhs(op, np.ones(48), tol=1e-11)
            assert np.array_equal(ra.u.values, rb.u.values), p
            assert ra.iterations == rb.iterations, p

    def test_eps_monotonicity(self, singular_preset):
        grid = build_grid(0, 1, 96, 2.0)
        op = assemble_operator(grid, 0.5, 2.0)
        prev = None
        for k in range(1, 6):
            res = solve_approximated(singular_preset, grid, 2.0**-k, tol=1e-10, op=op)
            if prev is not None:
                assert np.min(res.u.values - prev) >= -1e-6
            prev = res.u.values

    def test_interior_lower_bound(self, singular_preset):
        grid = build_grid(0, 1, 96, 2.0)
        op = assemble_operator(grid, 0.5, 2.0)
        interior = np.abs(grid.nodes - 0.5) < 0.25
        lows = []
        for k in range(1, 7):
            res = solve_approximated(singular_preset, grid, 2.0**-k, tol=1e-10, op=op)
            lows.append(res.u.values[interior].min())
        sigma = lows[0]
        assert sigma > 0
        assert all(v >= sigma - 1e-9 for v in lows)

    def test_positivity_at_interior_nodes(self, singular_preset):
        grid = build_grid(0, 1, 64, 2.0)
        res = solve_approximated(singular_preset, grid, 0.25, tol=1e-10)
        assert res.positivity_margin > 0

    def test_regime_error(self):
        pars = make_params(0.5, 2.0, 1.0, 1.5)
        grid = build_grid(0, 1, 32, 1)
        with pytest.raises(RegimeError):
            solve_approximated(pars, grid, 0.25)

    def test_uniqueness_two_initializations(self, singular_preset):
        grid = build_grid(0, 1, 64, 2.0)
        op = assemble_operator(grid, 0.5, 2.0)
        tol = 1e-11
        ra = solve_approximated(singular_preset, grid, 0.25, tol=tol, op=op)
        rng = np.random.default_rng(5)
        rb = solve_approximated(
            singular_preset, grid, 0.25, tol=tol, op=op, v0=rng.uniform(0, 1, 64)
        )
        assert np.abs(ra.u.values - rb.u.values).max() <= 10 * 1e-8

    def test_p_below_two_with_smoothing(self):
        pars = make_params(0.6, 1.5, 0.5, 0.2)
        grid = build_grid(0, 1, 48, 1.5)
        res = solve_approximated(pars, grid, 0.25, tol=1e-8)
        assert res.positivity_margin > 0

    def test_weight_comparison(self):
        # pointwise-larger right-hand side produces a pointwise-larger solution
        grid = build_grid(0, 1, 64, 2.0)
        op = assemble_operator(grid, 0.5, 2.0)
        d = grid.distance()
        f1 = d**-0.2
        f2 = d**-0.4  # >= f1 since d <= 1/2 everywhere on (0,1) nodes
        u1 = solve_fixed_rhs(op, f1, tol=1e-11).u.values
        u2 = solve_fixed_rhs(op, f2, tol=1e-11).u.values
        assert np.max(u1 - u2) <= 10 * 1e-9


class TestContinuation:
    def test_halvings_validation(self, singular_preset):
        grid = build_grid(0, 1, 32, 1)
        with pytest.raises(OutOfRange):
            continuation(singular_preset, grid, halvings=1)

    def test_increments_nonnegative_and_decaying(self, singular_preset):
        grid = build_grid(0, 1, 96, 2.0)
        results, u_min, incs = continuation(
            singular_preset, grid, eps0=0.5, halvings=9, tol=1e-9
        )
        # monotone increase up to solver tolerance
        for a, b in zip(results, results[1:]):
            assert np.min(b.u.values - a.u.values) >= -1e-8
        # geometric-flavoured decay of the Cauchy increments
        assert incs[-1] < incs[1] / 4

    def test_p15_converges(self):
        pars = make_params(0.5, 1.5, 1.0, 0.5)
        grid = build_grid(0, 1, 128, default_grading(pars))
        results, _, incs = continuation(pars, grid, eps0=0.5, halvings=12, tol=1e-4)
        assert all(r.u.values.min() > 0.0 for r in results)
        for a, b in zip(results, results[1:]):
            assert np.min(b.u.values - a.u.values) > 0.0
        assert incs[-1] <= 1e-4
        # one Newton solve per eps, all at the smoothing mu = MU_FLOOR
        assert sum(r.iterations for r in results) <= 150

    @pytest.mark.parametrize("delta", [0.0, 0.2])
    def test_s08_p12_converges(self, delta):
        # a gradient sup-norm target stalled here for 40 000 steps with the
        # iterate already at the minimizer to rounding
        pars = make_params(0.8, 1.2, 1.0, delta)
        grid = build_grid(0, 1, 96, default_grading(pars))
        results, _, _ = continuation(pars, grid, eps0=0.5, halvings=10)
        assert all(r.residual <= 1e-10 for r in results)

    def test_last_iterate_is_the_minimizer(self):
        # a gradient sup-norm target left one Newton step of 4.2e-6 max u
        pars = make_params(0.5, 1.2, 2.0, 0.2)
        grid = build_grid(0, 1, 96, default_grading(pars))
        op = assemble_operator(grid, 0.5, 1.2)
        results, u_min, _ = continuation(pars, grid, eps0=0.5, halvings=10, op=op)
        eps = 0.5 * 2.0 ** -(len(results) - 1)
        kvals = weight_values(pars, WeightSpec("eps", 0.2, eps=eps), grid.distance())
        reaction = SingularEnergy(gamma=pars.gamma, eps=eps, kvals=kvals, masses=op.m)
        smoothed = dataclasses.replace(op, mu=solver.MU_FLOOR)
        v = u_min.values
        H = smoothed.hessian(v, np.empty((op.n, op.n)))
        H.flat[:: op.n + 1] += reaction.curvature(v)
        step = np.linalg.solve(H, reaction.grad(v) - smoothed.apply(v))
        assert np.abs(step).max() <= 1e-10 * v.max()

    def test_early_stop(self, singular_preset):
        grid = build_grid(0, 1, 64, 2.0)
        results, _, incs = continuation(
            singular_preset, grid, eps0=0.5, halvings=30, tol=1e-3
        )
        assert len(results) < 31
        assert incs[-1] <= 1e-3


def _reference_newton(op, reaction, v, tol):
    """The solver's damped Newton iteration with every system solved by
    np.linalg.solve on the explicitly built Hessian.  It stops once a step
    has been taken and the squared Newton decrement -g.d at the iterate is
    at most tol**2 |f|."""

    def value(v):
        return op.energy_over_p(v) - reaction.value(v)

    def grad(v):
        return op.apply(v) - reaction.grad(v)

    H = np.empty((op.n, op.n))
    g, fv = grad(v), value(v)
    for it in range(100):
        op.hessian(v, H)
        H.flat[:: op.n + 1] += reaction.curvature(v)
        d = np.linalg.solve(H, -g)
        slope = g @ d
        if it and -slope <= tol**2 * abs(fv):
            return v
        floor = -slope <= 1e-10 * abs(fv)
        step = 1.0
        for _ in range(60):
            v_new = v + step * d
            f_new = value(v_new)
            if floor or f_new <= fv + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            raise AssertionError("reference line search stalled")
        v, g, fv = v_new, grad(v_new), f_new
    raise AssertionError("reference Newton did not converge")


def _stage_reaction(params, grid, op, k):
    """The reaction of stage k of a continuation from eps0 = 1/2."""
    eps = 0.5 * 2.0**-k
    kvals = weight_values(params, WeightSpec("eps", params.delta, eps=eps), grid.distance())
    return SingularEnergy(gamma=params.gamma, eps=eps, kvals=kvals, masses=op.m)


def _reference_minimizers(params, grid, op, stages):
    """Minimizers of the first `stages` eps stages of a continuation from
    eps0 = 1/2, each found by _reference_newton from the start point the
    continuation uses: zeros, then the last minimizer, then the secant
    prediction v_k + (v_k - v_{k-1}) / 2."""
    out = []
    v0 = np.zeros(op.n)
    for k in range(stages):
        v = _reference_newton(op, _stage_reaction(params, grid, op, k), v0, 1e-10)
        v0 = v if k == 0 else v + 0.5 * (v - out[-1])
        out.append(v)
    return out


class TestKeptFactor:
    """p = 2 continuations keep one Cholesky factor and solve the Newton
    systems by CG preconditioned with it."""

    @pytest.fixture(scope="class")
    def case2_256(self, singular_preset):
        """The case-2 continuation at n = 256 and its reference minimizers."""
        grid = build_grid(0, 1, 256, default_grading(singular_preset))
        op = assemble_operator(grid, 0.5, 2.0)
        results, _, _ = continuation(singular_preset, grid, eps0=0.5, halvings=20, tol=1e-4, op=op)
        reference = _reference_minimizers(singular_preset, grid, op, len(results))
        return singular_preset, grid, op, results, reference

    def test_minimizers_match_direct_solves(self, case2_256):
        _, _, _, results, reference = case2_256
        for r, v in zip(results, reference):
            assert np.abs(r.u.values - v).max() <= 1e-12
        assert sum(r.factorizations for r in results) <= 4
        assert sum(r.cg_steps for r in results) > 0

    def test_failed_factorization_discards_kept_factor(self, case2_256, monkeypatch):
        params, grid, op, _, reference = case2_256
        calls = 0

        def failing_once(a, *args, **kwargs):
            nonlocal calls
            calls += 1
            if calls == 2:
                # a failed factorization leaves the buffer overwritten
                a[...] = np.nan
                raise LinAlgError("injected")
            return cho_factor(a, *args, **kwargs)

        cho_factor = solver.cho_factor
        monkeypatch.setattr(solver, "cho_factor", failing_once)
        results, _, _ = continuation(params, grid, eps0=0.5, halvings=20, tol=1e-4, op=op)
        assert calls >= 3
        assert len(results) == len(reference)
        for r, v in zip(results, reference):
            assert np.abs(r.u.values - v).max() <= 1e-12

    def test_failed_refactor_keeps_no_factor(self, case2_256, monkeypatch):
        # a factorization that fails at every shift has overwritten the
        # buffer, so no factor may be left to precondition with
        op = case2_256[2]
        factor = solver._Factor.for_operator(op)
        v = np.ones(op.n)
        g = op.apply(v)
        factor.refactor(op.hessian, v, g)
        assert factor.cho is not None

        def failing(a, *args, **kwargs):
            a[...] = np.nan
            raise LinAlgError("injected")

        monkeypatch.setattr(solver, "cho_factor", failing)
        with pytest.raises(NoConvergence):
            factor.refactor(op.hessian, v, g)
        assert factor.cho is None
        assert factor.factorizations == 1

    def test_triangular_solves_read_only_the_kept_factor(self, case2_256):
        op = case2_256[2]
        v = np.ones(op.n)
        H = op.hessian(v, np.empty((op.n, op.n)))
        b = np.random.default_rng(7).standard_normal(op.n)
        ref = np.linalg.solve(H, b)
        for dtype in (np.float64, np.float32):
            factor = solver._Factor(op.n, dtype)
            factor.refactor(op.hessian, v, op.apply(v))
            # the factor is the buffer itself, in the order BLAS reads
            # without a copy
            assert factor.cho.dtype == dtype
            assert factor.cho.flags.f_contiguous
            assert np.shares_memory(factor.cho, factor.buffer)
            # LAPACK leaves the other triangle unused: a wrong lower or trans
            # flag reads the NaN or solves the wrong system
            factor.cho[np.tril_indices(op.n, -1)] = np.nan
            x = factor._solve(b)
            assert x.dtype == np.float64
            if dtype == np.float64:
                assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
                continue
            # a single-precision factor only preconditions: CG with it meets
            # _CG_RTOL against the float64 operator
            assert np.isfinite(x).all()
            x = factor.pcg(op.apply, b, None)
            assert x is not None and factor.cg_steps > 0
            assert np.abs(b - op.apply(x)).max() <= solver._CG_RTOL * np.abs(b).max()

    def test_p2_factor_is_single_precision(self, case2_256):
        # the p = 2 buffer and factor only precondition CG, the p != 2 one
        # is the exact Newton solve
        op = case2_256[2]
        assert solver._Factor.for_operator(op).buffer.dtype == np.float32
        assert solver._Factor.for_operator(dataclasses.replace(op, p=3.0)).buffer.dtype == np.float64
        assert solver._Factor.for_operator(dataclasses.replace(op, mu=solver.MU_FLOOR)).buffer.dtype == np.float64

    def test_stages_start_from_the_secant_prediction(self, case2_256, monkeypatch):
        params, grid, op, results, _ = case2_256
        starts = []
        solve = solver.solve_approximated

        def recording(*args, v0=None, **kwargs):
            starts.append(None if v0 is None else v0.copy())
            return solve(*args, v0=v0, **kwargs)

        monkeypatch.setattr(solver, "solve_approximated", recording)
        again, _, _ = continuation(params, grid, eps0=0.5, halvings=20, tol=1e-4, op=op)
        assert len(again) == len(starts) == len(results) >= 4
        v = [r.u.values for r in again]
        assert starts[0] is None
        assert np.array_equal(starts[1], v[0])
        for k in range(2, len(v)):
            assert np.array_equal(starts[k], v[k - 1] + 0.5 * (v[k - 1] - v[k - 2])), k

    def test_stages_are_minimizers_on_a_hard_case(self):
        # s = 0.25, gamma = 3, delta near sp: each stage must lie within 1e-9
        # of its minimizer, found by polishing it with float64 dense Newton
        params = make_params(0.25, 2.0, 3.0, 0.45)
        grid = build_grid(0, 1, 256, 4.0)
        op = assemble_operator(grid, params.s, params.p)
        results, _, _ = continuation(params, grid, eps0=0.5, halvings=20, tol=1e-4, op=op)
        for k, r in enumerate(results):
            reaction = _stage_reaction(params, grid, op, k)
            polished = _reference_newton(op, reaction, r.u.values, 1e-13)
            assert np.abs(r.u.values - polished).max() <= 1e-9, k

    def test_p3_factors_every_step(self, monkeypatch):
        params = make_params(0.5, 3.0, 1.0, 0.5)
        grid = build_grid(0, 1, 64, default_grading(params))
        factors = []
        solve = solver.solve_approximated

        def recording(*args, factor=None, **kwargs):
            factors.append(factor)
            return solve(*args, factor=factor, **kwargs)

        monkeypatch.setattr(solver, "solve_approximated", recording)
        results, _, _ = continuation(params, grid, eps0=0.5, halvings=12, tol=1e-4)
        for r in results:
            assert r.factorizations == r.iterations
            assert r.cg_steps == 0
        # the factor is the exact Newton solve there, so it stays float64
        assert all(f is factors[0] for f in factors)
        assert factors[0].buffer.dtype == np.float64


class TestResidualCheck:
    def test_torsion_self_consistency(self, torsion_64):
        grid, op, res = torsion_64
        pars = make_params(0.5, 2.0, 0.0, 0.0)
        rep = residual_check(res.u, pars, WeightSpec("exact", 0.0), min_distance=0.1)
        assert rep.max_relative < 0.05

    def test_refinement_improves(self):
        pars = make_params(0.5, 2.0, 0.0, 0.0)
        maxes = []
        for n in (64, 128):
            grid = build_grid(0, 1, n, 1.0)
            op = assemble_operator(grid, 0.5, 2.0)
            res = solve_fixed_rhs(op, np.ones(n), tol=1e-11)
            rep = residual_check(res.u, pars, min_distance=0.1)
            maxes.append(rep.max_relative)
        assert maxes[1] < maxes[0]

    def test_zero_input_guarded(self, singular_preset):
        grid = build_grid(0, 1, 64, 1.0)
        u = GridFunction(grid, np.zeros(64))
        with pytest.raises(NonPositiveValues):
            residual_check(u, singular_preset)
