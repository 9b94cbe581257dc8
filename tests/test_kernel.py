import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from fracp import (
    Constant,
    GridFunction,
    Zero,
    assemble_operator,
    build_grid,
    eval_fplap_pv,
    gagliardo_energy,
    bracket_constants,
    phi_constant,
    updiff,
)
from fracp.errors import (
    AlphaOutOfRange,
    ExtensionUnsupported,
    NegativeBase,
    OutOfRange,
    PointTooCloseToBoundary,
    ShapeMismatch,
)
from fracp.kernel import _cell_pair_J, _corner_rect


class TestUpdiff:
    def test_examples(self):
        assert updiff(2, 1, 3) == pytest.approx(1.0)
        assert updiff(1, 2, 3) == pytest.approx(-1.0)
        assert updiff(0.3, 0.3, 1.5) == 0.0 and not math.isnan(updiff(0.3, 0.3, 1.5))

    @given(
        a=st.floats(-50, 50),
        b=st.floats(-50, 50),
        p=st.floats(1.05, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_odd_symmetry(self, a, b, p):
        assert updiff(a, b, p) == pytest.approx(-updiff(b, a, p), rel=1e-12, abs=1e-300)

    @given(
        a=st.floats(-10, 10),
        inc=st.floats(1e-6, 10),
        b=st.floats(-10, 10),
        p=st.floats(1.05, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_increasing_in_first_argument(self, a, inc, b, p):
        assert updiff(a + inc, b, p) > updiff(a, b, p)


class TestPaperConstants:
    def test_beta_equal_one(self):
        c1, c2 = bracket_constants(0.1, 0.4, 3.0)  # beta = 1.2 - 0.2 = 1.0
        assert c1 == pytest.approx(1 / 1.2, rel=1e-12)
        assert c2 == pytest.approx(1 / 1.2 + 1 / 1.8, rel=1e-12)

    def test_beta_below_one(self):
        c1, c2 = bracket_constants(0.4, 0.5, 2.0)  # beta = 0.6, st = 0.55
        assert c1 == pytest.approx(0.5 * (0.05 / 0.275), rel=1e-12)
        assert c2 == pytest.approx(1.0, rel=1e-12)

    def test_c1_alpha_independent_when_beta_large(self):
        # any alpha with beta >= 1 gives c1 = 1/(sp)
        for a in (0.05, 0.1, 0.15):
            assert bracket_constants(a, 0.5, 3.0)[0] == pytest.approx(1 / 1.5, rel=1e-14)

    def test_alpha_out_of_range(self):
        with pytest.raises(AlphaOutOfRange):
            bracket_constants(0.6, 0.5, 2.0)


def brute_phi(alpha, s, p, eps):
    """Truncated direct principal value of the power profile at x = 1,
    lambda = 0; independent of the transformed integrand."""
    sp = s * p
    x = 1.0

    def f(z):
        u = max(z, 0.0) ** alpha
        return updiff(1.0, u, p) * abs(x - z) ** (-1.0 - sp)

    total = 0.0
    total += quad(f, -8.0, 0.0, limit=200)[0]
    total += quad(f, -np.inf, -8.0, limit=200)[0]
    total += quad(f, 0.0, x - eps, limit=400, points=[x / 2])[0]
    total += quad(f, x + eps, 8.0, limit=400)[0]
    total += quad(f, 8.0, np.inf, limit=200)[0]
    return x ** (sp - alpha * (p - 1.0)) * total


class TestPhiConstant:
    def test_beta_one_closed_form(self):
        o = phi_constant(0.5, 0.75, 2.0)
        assert o.beta == pytest.approx(1.0)
        assert o.phi == pytest.approx(2 / 3, rel=1e-14)

    def test_bracket_and_brute_force_oracle(self):
        o = phi_constant(0.25, 0.5, 2.0)
        assert 0.2 <= o.phi <= 1.0
        assert (o.c1, o.c2) == (pytest.approx(0.2), pytest.approx(1.0))
        vals = [brute_phi(0.25, 0.5, 2.0, e) for e in (5e-5, 2.5e-5)]
        kappa = 2.0 * 0.5  # p (1 - s)
        extrap = vals[-1] + (vals[-1] - vals[-2]) / (2.0**kappa - 1.0)
        assert o.phi == pytest.approx(extrap, rel=1e-8)
        # this particular case has the closed value pi/4
        assert o.phi == pytest.approx(math.pi / 4, rel=1e-10)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_degenerates_as_alpha_approaches_s(self, p):
        s = 0.5
        assert phi_constant(s - 1e-3, s, p).phi < phi_constant(s / 2, s, p).phi / 10

    def test_chain_sample(self):
        for s in (0.3, 0.7):
            for p in (1.5, 3.0):
                for frac in (0.2, 0.6, 0.95):
                    o = phi_constant(frac * s, s, p)
                    assert o.c1 - 1e-10 <= o.phi <= o.c2 + 1e-10
                    assert o.phi > 0

    def test_alpha_validation(self):
        with pytest.raises(AlphaOutOfRange):
            phi_constant(0.5, 0.5, 2.0)
        with pytest.raises(OutOfRange):
            phi_constant(0.25, 0.5, 2.0, tol=-1.0)


class TestCellPairIntegrals:
    @pytest.mark.parametrize("sp", [0.45, 1.0 + 5e-7, 1.5])
    def test_against_dblquad(self, sp):
        X0, X1, Y0, Y1 = 0.1, 0.23, 0.31, 0.52
        J = _cell_pair_J(
            np.array([X0]), np.array([X1]), np.array([Y0]), np.array([Y1]), sp
        )
        hX, hY = X1 - X0, Y1 - Y0
        for (a, b, val) in [(0, 0, J[0]), (0, 1, J[1]), (1, 0, J[2]), (1, 1, J[3])]:
            ref = dblquad(
                lambda y, x: ((x - X0) / hX) ** a
                * ((y - Y0) / hY) ** b
                * (y - x) ** (-1 - sp),
                X0,
                X1,
                Y0,
                Y1,
            )[0]
            assert val[0] == pytest.approx(ref, rel=2e-6)

    def test_corner_rect(self):
        rho = 0.5
        ref = dblquad(lambda y, x: (y - x) ** rho, 0.0, 0.13, 0.13, 0.34)[0]
        assert _corner_rect(0.13, 0.21, rho) == pytest.approx(ref, rel=1e-8)


class TestAssembleOperator:
    def test_confinement_closed_form(self):
        g = build_grid(0, 1, 3, 1)
        op = assemble_operator(g, 0.5, 2.0)
        assert op.b[1] == pytest.approx(4.0, rel=1e-14)  # (2 + 2) / 1 at x = 1/2

    def test_weights_symmetric_nonnegative(self):
        for q in (1.0, 2.0, 4.0):
            op = assemble_operator(build_grid(0, 1, 96, q), 0.5, 2.0)
            assert np.allclose(op.w, op.w.T)
            assert op.w.min() >= 0.0
            assert np.abs(np.diag(op.w)).max() == 0.0
            assert np.all(op.b > 0) and np.all(op.m > 0)

    def test_apply_zero(self):
        op = assemble_operator(build_grid(0, 1, 16, 1), 0.5, 2.0)
        assert np.abs(op.apply(np.zeros(16))).max() == 0.0

    def test_apply_ones_reduces_to_confinement(self):
        op = assemble_operator(build_grid(0, 1, 16, 1.5), 0.5, 2.0)
        # interior differences vanish; only the mass-weighted confinement
        # term survives (twice, both cross rectangles of the double integral)
        assert np.allclose(op.apply(np.ones(16)), 2.0 * op.m * op.b, rtol=1e-13)

    def test_homogeneity_degree_p_minus_1(self):
        op = assemble_operator(build_grid(0, 1, 16, 1), 0.5, 3.0)
        v = np.sin(np.linspace(0, 3, 16)) + 1.2
        assert np.allclose(op.apply(2 * v), 4 * op.apply(v), rtol=1e-12)

    @pytest.mark.parametrize("s,p,mu", [(0.5, 2.0, 0.0), (0.5, 3.0, 0.0), (0.6, 1.5, 1e-2)])
    def test_gradient_identity(self, s, p, mu):
        g = build_grid(0, 1, 32, 1.5)
        op = dataclasses.replace(assemble_operator(g, s, p), mu=mu)
        rng = np.random.default_rng(1)
        v = rng.uniform(-1, 1, 32)
        grad = op.apply(v)
        h = 1e-6
        fd = np.empty(32)
        for i in range(32):
            vp, vm = v.copy(), v.copy()
            vp[i] += h
            vm[i] -= h
            fd[i] = (op.energy_over_p(vp) - op.energy_over_p(vm)) / (2 * h)
        assert np.abs(fd - grad).max() <= 1e-6 * np.abs(grad).max()

    @pytest.mark.parametrize("s,p,mu", [(0.5, 2.0, 0.0), (0.5, 3.0, 0.0), (0.6, 1.5, 1e-2)])
    def test_hessian_is_jacobian_of_apply(self, s, p, mu):
        n = 32
        op = dataclasses.replace(assemble_operator(build_grid(0, 1, n, 1.5), s, p), mu=mu)
        v = np.random.default_rng(2).uniform(-1, 1, n)
        out = np.full((n, n), np.nan)
        H = op.hessian(v, out)
        assert H is out
        assert np.array_equal(H, H.T)
        h = 1e-6
        fd = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd[:, j] = (op.apply(v + e) - op.apply(v - e)) / (2 * h)
        assert np.abs(fd - H).max() <= 1e-6 * np.abs(H).max()
        assert np.linalg.eigvalsh(H).min() > 0.0

    def test_shape_mismatch(self):
        op = assemble_operator(build_grid(0, 1, 16, 1), 0.5, 2.0)
        with pytest.raises(ShapeMismatch):
            op.apply(np.zeros(17))
        with pytest.raises(ShapeMismatch):
            op.hessian(np.zeros(17), np.empty((16, 16)))

    def test_energy_converges_to_smooth_profile_seminorm(self):
        # independent oracle: nested quadrature of the seminorm of the
        # parabola x (1 - x) with zero extension, s p < 1 so the boundary
        # jumps cost nothing in the limit
        s, p = 0.4, 2.0
        sp = s * p

        def u(x):
            return x * (1 - x)

        inner = dblquad(
            lambda y, x: (u(x) - u(y)) ** 2 * (x - y) ** (-1 - sp),
            0, 1, lambda x: 0.0, lambda x: x, epsabs=1e-10,
        )[0] * 2
        conf = 2 * quad(lambda x: u(x) ** 2 * (x**-sp + (1 - x) ** -sp) / sp, 0, 1)[0]
        target = inner + conf
        errs = []
        for n in (32, 64, 128):
            g = build_grid(0, 1, n, 1.0)
            op = assemble_operator(g, s, p)
            errs.append(abs(op.energy(u(g.nodes)) - target) / target)
        assert errs[-1] < 2e-3
        assert errs[-1] < errs[0]


class TestEvalPV:
    def test_constant_function_maps_to_zero(self):
        g = build_grid(0, 1, 64, 1)
        u = GridFunction(g, np.full(64, 3.7), Constant(3.7))
        assert eval_fplap_pv(u, 0.43, 0.5, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_barrier_calibration(self):
        from fracp import BarrierSpec, barrier_profile

        alpha, s, p, lam = 0.25, 0.5, 2.0, 0.1
        o = phi_constant(alpha, s, p)
        grid = build_grid(0, 1, 1024, 2.0)
        spec = BarrierSpec(alpha=alpha, lam=lam, rho=1.0, s=s, p=p)
        u = barrier_profile(spec, grid, "U")
        for x in (0.3, 0.5, 0.7):
            pv = eval_fplap_pv(u, x, s, p)
            target = 2 * o.phi * (x + spec.shift) ** (-spec.beta)
            assert pv == pytest.approx(target, rel=0.01)

    def test_ratio_constant_in_x(self):
        from fracp import BarrierSpec, barrier_profile

        spec = BarrierSpec(alpha=0.25, lam=0.1, rho=1.0, s=0.5, p=2.0)
        grid = build_grid(0, 1, 1024, 2.0)
        u = barrier_profile(spec, grid, "U")
        ratios = [
            eval_fplap_pv(u, x, 0.5, 2.0) * (x + spec.shift) ** spec.beta
            for x in (0.2, 0.4, 0.6, 0.8)
        ]
        assert max(ratios) / min(ratios) < 1.005

    def test_homogeneity_p3(self):
        g = build_grid(0, 1, 256, 1.5)
        vals = np.sin(np.pi * g.nodes) ** 2
        u1 = GridFunction(g, vals, Zero())
        u2 = GridFunction(g, 2 * vals, Zero())
        a = eval_fplap_pv(u1, 0.37, 0.5, 3.0)
        b = eval_fplap_pv(u2, 0.37, 0.5, 3.0)
        assert b == pytest.approx(4 * a, rel=1e-10)

    def test_too_close_to_boundary(self):
        g = build_grid(0, 1, 64, 1)
        u = GridFunction(g, np.ones(64), Zero())
        with pytest.raises(PointTooCloseToBoundary):
            eval_fplap_pv(u, 0.005, 0.5, 2.0)


class TestGagliardoEnergy:
    @staticmethod
    def energy(vals, theta, s, p, grid):
        op = assemble_operator(grid, s, p)
        return gagliardo_energy(GridFunction(grid, vals, Zero()), theta, op)

    def test_zero(self):
        g = build_grid(0, 1, 32, 1)
        assert self.energy(np.zeros(32), 1.0, 0.5, 2.0, g) == 0.0

    def test_scaling(self):
        g = build_grid(0, 1, 32, 1)
        rng = np.random.default_rng(3)
        v = rng.uniform(0, 1, 32)
        theta, s, p = 1.5, 0.4, 2.0
        e1 = self.energy(v, theta, s, p, g)
        e2 = self.energy(2 * v, theta, s, p, g)
        assert e2 == pytest.approx(2.0 ** (theta * p) * e1, rel=1e-12)

    def test_ones_closed_form(self):
        # continuum value 2 * int b = 2 (2 + 2) / 0.5 = 16 for sp = 0.5
        g = build_grid(0, 1, 4096, 2.0)
        val = self.energy(np.ones(4096), 1.0, 0.25, 2.0, g)
        assert val == pytest.approx(16.0, rel=0.02)

    def test_indicator_divergence_iff_sp_ge_1(self):
        vals = {}
        for s in (0.25, 0.75):
            es = []
            for n in (64, 128, 256, 512):
                g = build_grid(0, 1, n, 1.0)
                es.append(self.energy(np.ones(n), 1.0, s, 2.0, g))
            slope = np.polyfit(np.log([64, 128, 256, 512]), np.log(es), 1)[0]
            vals[s] = slope
        assert vals[0.25] < 0.1  # sp = 0.5: bounded
        assert vals[0.75] > 0.1  # sp = 1.5: divergent

    def test_errors(self):
        g = build_grid(0, 1, 16, 1)
        op = assemble_operator(g, 0.5, 2.0)
        with pytest.raises(NegativeBase):
            gagliardo_energy(GridFunction(g, -np.ones(16), Zero()), 2.0, op)
        with pytest.raises(ExtensionUnsupported):
            gagliardo_energy(GridFunction(g, np.ones(16), Constant(1.0)), 1.0, op)
