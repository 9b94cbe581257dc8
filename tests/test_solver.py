import dataclasses
import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from fracp import (
    assemble_operator,
    build_grid,
    continuation,
    default_grading,
    gagliardo_energy,
    make_params,
    solve_approximated,
    solve_fixed_rhs,
)
from fracp import solver
from fracp.barrier import weight_values
from fracp.errors import (
    NoConvergence,
    OutOfRange,
    RegimeError,
    ShapeMismatch,
)
from fracp.kernel import DiscreteOperator
from fracp.solver import SingularEnergy


class TestSolveFixedRhs:
    def test_zero_rhs_gives_zero(self):
        op = assemble_operator(build_grid(0, 1, 32, 1), 0.5, 2.0)
        res = solve_fixed_rhs(op, np.zeros(32))
        assert np.all(res.u.values == 0.0)
        assert res.iterations == 0
        assert res.eps == 1.0

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
        # a fixed right-hand side does not depend on eps
        assert res.eps == 1.0

    def test_negative_rhs_rejected(self):
        op = assemble_operator(build_grid(0, 1, 16, 1), 0.5, 2.0)
        with pytest.raises(OutOfRange):
            solve_fixed_rhs(op, -np.ones(16))

    def test_shape_mismatch(self):
        op = assemble_operator(build_grid(0, 1, 16, 1), 0.5, 2.0)
        with pytest.raises(ShapeMismatch):
            solve_fixed_rhs(op, np.ones(15))

    def test_asymmetric_rhs_rejected(self):
        # the solve runs on the left half, so f must be its own mirror image
        grid = build_grid(0, 1, 17, 1)
        op = assemble_operator(grid, 0.5, 2.0)
        with pytest.raises(OutOfRange):
            solve_fixed_rhs(op, grid.nodes)
        f = np.ones(17)
        f[3] = 1.0 + 1e-15
        with pytest.raises(OutOfRange):
            solve_fixed_rhs(op, f)
        assert solve_fixed_rhs(op, grid.distance()).residual <= 1e-10

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
        # the solver builds the folded Hessian at every accepted iterate
        # (twice at v = 0, where p = 3 needs a Levenberg shift): the full
        # objective at the mirror images of those points, and of the
        # returned minimizer, must fall strictly
        op = assemble_operator(build_grid(0, 1, 48, 1.5), 0.5, 3.0)
        half = op.folded
        reaction = SingularEnergy(gamma=0.0, eps=1.0, kvals=np.ones(24), masses=half.m)

        def value(v):
            u = np.concatenate((v, v[::-1]))
            return op.energy(u) / op.p - float(op.m @ u)

        iterates = []
        hessian = half.hessian

        def recording_hessian(v, out, *scratch):
            assert out.shape == (24, 24)
            if not iterates or np.any(iterates[-1] != v):
                iterates.append(v.copy())
            return hessian(v, out, *scratch)

        half.hessian = recording_hessian
        v, iters, res, _ = solver._newton(
            half, reaction, np.zeros(24), tol=1e-10, factor=solver._Factor.for_operator(half)
        )
        assert res <= 1e-10
        assert len(iterates) == iters >= 5
        values = [value(u) for u in iterates + [v]]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestOneSweepPerTrial:
    """Each line-search trial is one call of energy_and_apply, and a p != 2
    solve calls neither apply nor energy: the accepted trial's gradient is
    the next step's."""

    @staticmethod
    def spy(monkeypatch):
        calls = dict.fromkeys(("energy_and_apply", "apply", "energy"), 0)
        for name in calls:
            method = getattr(DiscreteOperator, name)

            def counting(self, v, *scratch, _method=method, _name=name):
                calls[_name] += 1
                return _method(self, v, *scratch)

            monkeypatch.setattr(DiscreteOperator, name, counting)
        return calls

    def check(self, calls, res):
        assert calls["apply"] == calls["energy"] == 0
        assert calls["energy_and_apply"] == res.evaluations
        # the start point and at least one trial per Newton step
        assert res.evaluations >= res.iterations + 1

    def test_p3_fixed_rhs(self, monkeypatch):
        op = assemble_operator(build_grid(0, 1, 48, 1.5), 0.5, 3.0)
        calls = self.spy(monkeypatch)
        res = solve_fixed_rhs(op, np.ones(48))
        assert res.residual <= 1e-10
        self.check(calls, res)

    def test_p15_continuation_stage(self, monkeypatch):
        params = make_params(0.5, 1.5, 1.0, 0.5)
        grid = build_grid(0, 1, 64, default_grading(params))
        op = assemble_operator(grid, 0.5, 1.5)
        v0 = continuation(params, grid, eps0=0.5, halvings=2, op=op)[1].values
        calls = self.spy(monkeypatch)
        res = solve_approximated(params, 0.0625, op=op, v0=v0)
        assert res.iterations >= 2
        self.check(calls, res)


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

    def test_eps_power_out_of_float_range_refused(self):
        # h_eps(0) = eps**-gamma: 2**1020 is a float at gamma = 60, 2**1080 not
        assert self.make(60.0, eps=2.0**-17).h_eps(0.0) == 2.0**1020
        with pytest.raises(OutOfRange, match="overflows at eps = 3.815e-06, gamma = 60.0"):
            self.make(60.0, eps=2.0**-18)


class TestSolveApproximated:
    def test_gamma_delta_zero_reduces_to_fixed_rhs(self):
        # the fixed right-hand side is the gamma = 0 reaction, where h_eps = 1
        # for every eps: both entry points give the same minimizer bit for bit
        grid = build_grid(0, 1, 48, 1)
        for p in (1.5, 2.0, 3.0):
            pars = make_params(0.5, p, 0.0, 0.0)
            op = assemble_operator(grid, 0.5, p)
            ra = solve_approximated(pars, eps=0.3, tol=1e-11, op=op)
            rb = solve_fixed_rhs(op, np.ones(48), tol=1e-11)
            assert np.array_equal(ra.u.values, rb.u.values), p
            assert ra.iterations == rb.iterations, p

    def test_eps_monotonicity(self, singular_preset):
        grid = build_grid(0, 1, 96, 2.0)
        op = assemble_operator(grid, 0.5, 2.0)
        prev = None
        for k in range(1, 6):
            res = solve_approximated(singular_preset, 2.0**-k, tol=1e-10, op=op)
            if prev is not None:
                assert np.min(res.u.values - prev) >= -1e-6
            prev = res.u.values

    def test_interior_lower_bound(self, singular_preset):
        grid = build_grid(0, 1, 96, 2.0)
        op = assemble_operator(grid, 0.5, 2.0)
        interior = np.abs(grid.nodes - 0.5) < 0.25
        lows = []
        for k in range(1, 7):
            res = solve_approximated(singular_preset, 2.0**-k, tol=1e-10, op=op)
            lows.append(res.u.values[interior].min())
        sigma = lows[0]
        assert sigma > 0
        assert all(v >= sigma - 1e-9 for v in lows)

    def test_positivity_at_interior_nodes(self, singular_preset):
        grid = build_grid(0, 1, 64, 2.0)
        op = assemble_operator(grid, 0.5, 2.0)
        res = solve_approximated(singular_preset, 0.25, tol=1e-10, op=op)
        assert res.positivity_margin > 0

    def test_start_point_shape_mismatch(self, singular_preset):
        # the solve reads the left half of v0, which must still be n long
        grid = build_grid(0, 1, 32, 1)
        op = assemble_operator(grid, 0.5, 2.0)
        with pytest.raises(ShapeMismatch):
            solve_approximated(singular_preset, 0.25, op=op, v0=np.ones(20))

    def test_regime_error(self):
        # delta >= sp = 1 fails in weight_values
        grid = build_grid(0, 1, 32, 1)
        op = assemble_operator(grid, 0.5, 2.0)
        for delta in (1.0, 1.5):
            with pytest.raises(RegimeError, match="existence range requires delta < s\\*p"):
                solve_approximated(make_params(0.5, 2.0, 1.0, delta), 0.25, op=op)

    def test_uniqueness_two_initializations(self, singular_preset):
        grid = build_grid(0, 1, 64, 2.0)
        op = assemble_operator(grid, 0.5, 2.0)
        tol = 1e-11
        ra = solve_approximated(singular_preset, 0.25, tol=tol, op=op)
        rng = np.random.default_rng(5)
        rb = solve_approximated(
            singular_preset, 0.25, tol=tol, op=op, v0=rng.uniform(0, 1, 64)
        )
        assert np.abs(ra.u.values - rb.u.values).max() <= 10 * 1e-8

    def test_solves_on_the_operators_mesh(self, singular_preset):
        # the weights K_eps are sampled on op.grid, the mesh of the operator
        grid = build_grid(0, 1, 64, 2.0)
        op = assemble_operator(grid, 0.5, 2.0)
        res = solve_approximated(singular_preset, 0.25, op=op)
        assert res.u.grid is op.grid
        weights = weight_values(singular_preset, grid.distance(), 0.25)
        g = weights * SingularEnergy(singular_preset.gamma, 0.25, weights, op.m).h_eps(res.u.values)
        assert np.abs(op.apply(res.u.values) - op.m * g).max() <= 1e-8 * np.abs(op.m * g).max()

    def test_p_below_two_with_smoothing(self):
        pars = make_params(0.6, 1.5, 0.5, 0.2)
        grid = build_grid(0, 1, 48, 1.5)
        op = assemble_operator(grid, pars.s, pars.p)
        res = solve_approximated(pars, 0.25, tol=1e-8, op=op)
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

    def test_operator_of_other_nodes_refused(self, singular_preset):
        # unchecked, an operator of n = 64 gives 64 values for a 65-node
        # grid, and one of grading 2 solves on its own mesh for a uniform one
        op = assemble_operator(build_grid(0, 1, 64, 2.0), 0.5, 2.0)
        for grid in (build_grid(0, 1, 65, 2.0), build_grid(0, 1, 64, 1.0)):
            with pytest.raises(ShapeMismatch, match="assembled on the mesh of n = 64, grading 2"):
                continuation(singular_preset, grid, halvings=4, op=op)
        _, u, _ = continuation(singular_preset, build_grid(0, 1, 64, 2.0), halvings=4, op=op)
        assert u.grid is op.grid

    def test_reaction_out_of_float_range_raises_out_of_range(self):
        # the stage at eps = 2**-18 is refused before any float overflows
        params = make_params(0.5, 2.0, 60.0, 0.5)
        grid = build_grid(0, 1, 64, default_grading(params))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OutOfRange, match="eps\\*\\*-gamma overflows"):
                continuation(params, grid, halvings=20)

    def test_increments_nonnegative_and_decaying(self, singular_preset):
        grid = build_grid(0, 1, 96, 2.0)
        results, u_min, incs = continuation(
            singular_preset, grid, eps0=0.5, halvings=9, tol=1e-9
        )
        # stage k solved at eps = eps0 * 2**-k
        assert [r.eps for r in results] == [0.5 * 2.0**-k for k in range(len(results))]
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
        assert results[-1].newton_tol is None
        op = dataclasses.replace(assemble_operator(grid, 0.8, 1.2), mu=solver.MU_FLOOR)
        for k, r in enumerate(results):
            if r.newton_tol is None:
                assert r.residual <= 1e-10
            else:
                # an intermediate stage stops on its own newton_tol
                step, _ = _dense_newton_step(op, _stage_reaction(pars, grid, op, k), r.u.values)
                assert np.abs(step).max() <= r.newton_tol, k

    def test_last_iterate_is_the_minimizer(self):
        # a gradient sup-norm target left one Newton step of 4.2e-6 max u
        pars = make_params(0.5, 1.2, 2.0, 0.2)
        grid = build_grid(0, 1, 96, default_grading(pars))
        op = assemble_operator(grid, 0.5, 1.2)
        results, u_min, _ = continuation(pars, grid, eps0=0.5, halvings=10, op=op)
        eps = 0.5 * 2.0 ** -(len(results) - 1)
        kvals = weight_values(pars, grid.distance(), eps)
        reaction = SingularEnergy(gamma=pars.gamma, eps=eps, kvals=kvals, masses=op.m)
        smoothed = dataclasses.replace(op, mu=solver.MU_FLOOR)
        v = u_min.values
        H = smoothed.hessian(v, np.empty((op.n, op.n)))
        H.flat[:: op.n + 1] += reaction.curvature(v)
        step = np.linalg.solve(H, reaction.grad(v) - smoothed.apply(v))
        assert np.abs(step).max() <= 1e-10 * v.max()

    def test_solves_never_build_the_full_weights(self, singular_preset):
        # every solve and the seminorm run on op.folded, built from the half
        # store, so the n x n w is built only when a caller asks for it
        grid = build_grid(0, 1, 64, 2.0)
        op = assemble_operator(grid, 0.5, 2.0)
        _, u_min, _ = continuation(singular_preset, grid, halvings=4, op=op)
        solve_fixed_rhs(op, np.ones(64))
        gagliardo_energy(u_min, 2.0, op)
        assert "w" not in vars(op)

    def test_last_stage_is_full_accuracy_when_halvings_run_out(self):
        # four halvings at p = 1.5 stop far above tol, and the last allowed
        # stage still meets the full decrement of the n-node system
        params = make_params(0.5, 1.5, 1.0, 0.5)
        grid = build_grid(0, 1, 64, default_grading(params))
        op = assemble_operator(grid, 0.5, 1.5)
        results, u_min, incs = continuation(params, grid, eps0=0.5, halvings=4, tol=1e-4, op=op)
        assert len(results) == 5 and incs[-1] > 1e-4
        assert [r.newton_tol is None for r in results] == [True, True, False, False, True]
        smoothed = dataclasses.replace(op, mu=solver.MU_FLOOR)
        reaction = _stage_reaction(params, grid, smoothed, 4)
        u = u_min.values
        step, g = _dense_newton_step(smoothed, reaction, u)
        f = smoothed.energy(u) / smoothed.p - reaction.value(u)
        assert -float(g @ step) <= 1e-20 * abs(f)

    def test_unpredicted_last_stage_is_finished_from_its_own_iterate(self):
        # at p = 3 the second increment is 0.493 of the first, so the secant
        # prediction (half the first) misses that it meets this tol: stage 2
        # runs inexactly and is then solved on to the full decrement
        params = make_params(0.5, 3.0, 1.0, 0.5)
        grid = build_grid(0, 1, 64, default_grading(params))
        op = assemble_operator(grid, 0.5, 3.0)
        results, u_min, incs = continuation(params, grid, eps0=0.5, halvings=12, tol=4.2e-2, op=op)
        assert len(results) == 3
        assert incs[1] <= 4.2e-2 < 0.5 * incs[0]
        last = results[-1]
        assert last.newton_tol is None and last.residual <= 1e-10
        # both solves of the stage are counted, one factorization per step
        assert last.iterations == last.factorizations >= 2
        reaction = _stage_reaction(params, grid, op, 2)
        step, g = _dense_newton_step(op, reaction, u_min.values)
        f = op.energy(u_min.values) / op.p - reaction.value(u_min.values)
        assert -float(g @ step) <= 1e-20 * abs(f)

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
        return op.energy(v) / op.p - reaction.value(v)

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


def _dense_newton_step(op, reaction, v):
    """The Newton step H^-1 (-g) at v of the full n-node system, solved by
    np.linalg.solve on the explicitly built Hessian, and the gradient g."""
    g = op.apply(v) - reaction.grad(v)
    H = op.hessian(v, np.empty((op.n, op.n)))
    H.flat[:: op.n + 1] += reaction.curvature(v)
    return np.linalg.solve(H, -g), g


#: how far an intermediate stage may lie from its minimizer, in units of its
#: newton_tol; the most measured is 0.91 (p = 1.5, n = 256, stage 11)
_STAGE_DIST = 2.0


def _assert_near_minimizer(r, v, bound, k):
    """A full-accuracy stage r lies within bound of its minimizer v, and an
    intermediate one within _STAGE_DIST times its newton_tol."""
    err = float(np.abs(r.u.values - v).max())
    assert err <= (bound if r.newton_tol is None else _STAGE_DIST * r.newton_tol), k


def _stage_reaction(params, grid, op, k):
    """The reaction of stage k of a continuation from eps0 = 1/2."""
    eps = 0.5 * 2.0**-k
    kvals = weight_values(params, grid.distance(), eps)
    return SingularEnergy(gamma=params.gamma, eps=eps, kvals=kvals, masses=op.m)


def _reference_minimizers(params, grid, op, results):
    """Minimizers of the eps stages of a continuation from eps0 = 1/2 that
    returned results, each found by _reference_newton from the start point
    the continuation gave that stage: zeros, then the stage-0 iterate, then
    the secant prediction v_k + (v_k - v_{k-1}) / 2 from its iterates."""
    v = [r.u.values for r in results]
    starts = [np.zeros(op.n), v[0]] + [b + 0.5 * (b - a) for a, b in zip(v, v[1:-1])]
    return [
        _reference_newton(op, _stage_reaction(params, grid, op, k), v0, 1e-10)
        for k, v0 in enumerate(starts)
    ]


def _continuation_and_reference(p, n):
    """A continuation at p on n nodes (s = 1/2, gamma = 1, delta = 1/2,
    default grading) and the reference minimizers of its stages, found by
    dense Newton on the full operator, smoothed at p < 2 as the solver
    smooths it."""
    params = make_params(0.5, p, 1.0, 0.5)
    grid = build_grid(0, 1, n, default_grading(params))
    op = assemble_operator(grid, 0.5, p)
    results, _, _ = continuation(params, grid, eps0=0.5, halvings=20, tol=1e-4, op=op)
    if p < 2.0:
        op = dataclasses.replace(op, mu=solver.MU_FLOOR)
    return results, _reference_minimizers(params, grid, op, results)


class TestKeptFactor:
    """p = 2 continuations keep one Cholesky factor and solve the Newton
    systems by CG preconditioned with it."""

    @pytest.fixture(scope="class")
    def case2_256(self, singular_preset):
        """The case-2 continuation at n = 256 and its reference minimizers."""
        grid = build_grid(0, 1, 256, default_grading(singular_preset))
        op = assemble_operator(grid, 0.5, 2.0)
        results, _, _ = continuation(singular_preset, grid, eps0=0.5, halvings=20, tol=1e-4, op=op)
        reference = _reference_minimizers(singular_preset, grid, op, results)
        return singular_preset, grid, op, results, reference

    def test_minimizers_match_direct_solves(self, case2_256):
        # the folded solves against dense Newton on the full operator: the
        # case-2 continuation, then an odd n at every p and n = 256 at p != 2
        _, _, _, results, reference = case2_256
        for k, (r, v) in enumerate(zip(results, reference)):
            _assert_near_minimizer(r, v, 1e-12, k)
        assert sum(r.factorizations for r in results) <= 4
        assert sum(r.cg_steps for r in results) > 0
        for n, p in ((95, 1.5), (95, 2.0), (95, 3.0), (256, 1.5), (256, 3.0)):
            results, reference = _continuation_and_reference(p, n)
            assert len(results) >= 10
            for k, (r, v) in enumerate(zip(results, reference)):
                _assert_near_minimizer(r, v, 1e-12, (n, p, k))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_returned_u_meets_the_full_decrement(self, p):
        # at the u of every full-accuracy stage, the last among them, the
        # decrement of the full n-node system, from the full gradient and a
        # dense solve with the full Hessian, meets the stopping rule
        # lambda^2 <= tol^2 |f| of the folded solve; at an intermediate
        # stage's u the dense Newton step is at most its newton_tol
        params = make_params(0.5, p, 1.0, 0.5)
        grid = build_grid(0, 1, 95, default_grading(params))
        op = assemble_operator(grid, 0.5, p)
        results, _, _ = continuation(params, grid, eps0=0.5, halvings=20, tol=1e-4, op=op)
        if p < 2.0:
            op = dataclasses.replace(op, mu=solver.MU_FLOOR)
        for k, r in enumerate(results):
            reaction = _stage_reaction(params, grid, op, k)
            u = r.u.values
            assert np.array_equal(u, u[::-1])
            step, g = _dense_newton_step(op, reaction, u)
            if r.newton_tol is not None:
                assert np.abs(step).max() <= r.newton_tol, k
                continue
            lam2 = -float(g @ step)
            f = op.energy(u) / op.p - reaction.value(u)
            assert lam2 <= 1e-20 * abs(f), k
        assert results[-1].newton_tol is None

    def test_stage_tolerances_follow_the_increments(self, case2_256):
        # stages 2 .. k-1 stop at 1e-4 of the increment before them; stages
        # 0 and 1 have none, and the last is solved at full accuracy
        results = case2_256[3]
        v = [r.u.values for r in results]
        assert len(results) >= 5
        assert results[0].newton_tol is None and results[1].newton_tol is None
        assert results[-1].newton_tol is None
        for k in range(2, len(results) - 1):
            assert results[k].newton_tol == 1e-4 * float(np.abs(v[k - 1] - v[k - 2]).max()), k

    def test_stage_work_stays_at_the_measured_totals(self, case2_256):
        # the case-2 continuation took 30 Newton and 179 CG steps with every
        # stage at full accuracy, and takes 22 and 100 with inexact stages
        results = case2_256[3]
        assert sum(r.iterations for r in results) <= 22
        assert sum(r.cg_steps for r in results) <= 100

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
        for k, (r, v) in enumerate(zip(results, _reference_minimizers(params, grid, op, results))):
            _assert_near_minimizer(r, v, 1e-12, k)

    def test_failed_refactor_keeps_no_factor(self, case2_256, monkeypatch):
        # a factorization that fails at every shift has overwritten the
        # buffer, so no factor may be left to precondition with
        half = case2_256[2].folded
        factor = solver._Factor.for_operator(half)
        assert factor.buffer.shape == (128, 128)
        v = np.ones(half.n)
        g = half.apply(v)
        factor.refactor(half.hessian, v, g)
        assert factor.cho is not None

        def failing(a, *args, **kwargs):
            a[...] = np.nan
            raise LinAlgError("injected")

        monkeypatch.setattr(solver, "cho_factor", failing)
        with pytest.raises(NoConvergence):
            factor.refactor(half.hessian, v, g)
        assert factor.cho is None
        assert factor.factorizations == 1

    def test_triangular_solves_read_only_the_kept_factor(self, case2_256):
        half = case2_256[2].folded
        h = half.n
        v = np.ones(h)
        H = half.hessian(v, np.empty((h, h)))
        b = np.random.default_rng(7).standard_normal(h)
        ref = np.linalg.solve(H, b)
        for dtype in (np.float64, np.float32):
            factor = solver._Factor(h, dtype)
            factor.refactor(half.hessian, v, half.apply(v))
            # the factor is the buffer itself, in the order BLAS reads
            # without a copy
            assert factor.cho.dtype == dtype
            assert factor.cho.flags.f_contiguous
            assert np.shares_memory(factor.cho, factor.buffer)
            # LAPACK leaves the other triangle unused: a wrong lower or trans
            # flag reads the NaN or solves the wrong system
            factor.cho[np.tril_indices(h, -1)] = np.nan
            x = factor._solve(b)
            assert x.dtype == np.float64
            if dtype == np.float64:
                assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
                continue
            # a single-precision factor only preconditions: CG with it meets
            # _CG_RTOL against the float64 operator
            assert np.isfinite(x).all()
            x = factor.pcg(half.apply, b, None)
            assert x is not None and factor.cg_steps > 0
            assert np.abs(b - half.apply(x)).max() <= solver._CG_RTOL * np.abs(b).max()

    def test_p2_factor_is_single_precision(self, case2_256):
        # the p = 2 buffer and factor only precondition CG, the p != 2 one
        # is the exact Newton solve
        op = case2_256[2]
        factor = solver._Factor.for_operator(op.folded)
        assert factor.buffer.dtype == np.float32
        assert factor.buffer.shape == (128, 128)
        for other in (dataclasses.replace(op, p=3.0), dataclasses.replace(op, mu=solver.MU_FLOOR)):
            assert solver._Factor.for_operator(other.folded).buffer.dtype == np.float64

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
        # s = 0.25, gamma = 3, delta near sp: each full-accuracy stage must
        # lie within 1e-9 of its minimizer, found by polishing it with
        # float64 dense Newton, and each intermediate one within a multiple
        # of its newton_tol
        params = make_params(0.25, 2.0, 3.0, 0.45)
        grid = build_grid(0, 1, 256, 4.0)
        op = assemble_operator(grid, params.s, params.p)
        results, _, _ = continuation(params, grid, eps0=0.5, halvings=20, tol=1e-4, op=op)
        for k, r in enumerate(results):
            reaction = _stage_reaction(params, grid, op, k)
            polished = _reference_newton(op, reaction, r.u.values, 1e-13)
            _assert_near_minimizer(r, polished, 1e-9, k)
        assert results[-1].newton_tol is None

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
        assert factors[0].buffer.shape == (32, 32)
