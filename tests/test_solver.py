import numpy as np
import pytest

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
from fracp.errors import (
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

    def test_energy_decreases_along_newton_steps(self):
        # the solver builds the Hessian at every accepted iterate (twice at
        # v = 0, where p = 3 needs a Levenberg shift): the objective at those
        # points, and at the returned minimizer, must fall strictly
        op = assemble_operator(build_grid(0, 1, 48, 1.5), 0.5, 3.0)
        mf = op.m * 1.0

        def value(v):
            return op.energy_over_p(v) - float(mf @ v)

        iterates = []

        def hess(v, out):
            if not iterates or np.any(iterates[-1] != v):
                iterates.append(v.copy())
            return op.hessian(v, out)

        from fracp.solver import _newton

        v, iters, gnorm, fv = _newton(
            value, lambda v: op.apply(v) - mf, hess, np.zeros(48),
            gtol=1e-8 * mf.max(), max_iter=200,
        )
        assert gnorm <= 1e-8 * mf.max()
        assert len(iterates) == iters >= 5
        values = [value(u) for u in iterates] + [fv]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestSingularEnergy:
    def make(self, gamma, eps=0.25):
        pars = make_params(0.5, 2.0, gamma, 0.25)
        grid = build_grid(0, 1, 32, 1)
        k = np.ones(32)
        return SingularEnergy(params=pars, eps=eps, kvals=k, masses=grid.masses)

    def test_g_cap(self):
        se = self.make(1.0, eps=0.25)
        assert se.g_eps(2.0) == pytest.approx(0.5)
        assert se.g_eps(0.1) == pytest.approx(4.0)  # capped at 1/eps
        assert se.g_eps(-1.0) == pytest.approx(4.0)

    def test_G_normalization_and_primitive(self):
        for gamma in (0.0, 0.5, 1.0, 2.0):
            se = self.make(gamma, eps=0.25)
            assert se.G_eps(1.0) == pytest.approx(0.0, abs=1e-14)
            for t in (0.01, 0.3, 0.9, 2.5):
                h = 1e-6
                fd = (se.G_eps(t + h) - se.G_eps(t - h)) / (2 * h)
                assert fd == pytest.approx(se.g_eps(t), rel=1e-5)

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
            assert np.all(np.diff(se.g_eps(ts)) <= 1e-15)


class TestSolveApproximated:
    def test_gamma_delta_zero_reduces_to_fixed_rhs(self):
        pars = make_params(0.5, 2.0, 0.0, 0.0)
        grid = build_grid(0, 1, 48, 1)
        op = assemble_operator(grid, 0.5, 2.0)
        ra = solve_approximated(pars, grid, eps=0.3, tol=1e-11, op=op)
        rb = solve_fixed_rhs(op, np.ones(48), tol=1e-11)
        assert np.abs(ra.u.values - rb.u.values).max() <= 1e-9

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

    def test_early_stop(self, singular_preset):
        grid = build_grid(0, 1, 64, 2.0)
        results, _, incs = continuation(
            singular_preset, grid, eps0=0.5, halvings=30, tol=1e-3
        )
        assert len(results) < 31
        assert incs[-1] <= 1e-3


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
