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
from fracp.core import PowerTail
from fracp.kernel import (
    _cell_pair_J,
    _corner_rect,
    _far_hat_weights,
    _gauss_segments,
    _nudged_sp,
    _split_segments,
)


def _tensor_hat_integrals(X0, X1, Y0, Y1, sp, q):
    """q x q tensor Gauss integrals of (1-u)(1-v), (1-u) v, u (1-v), u v
    times (y-x)^(-1-sp) over each cell pair, one column per pair."""
    xi, om = np.polynomial.legendre.leggauss(q)
    u, om = 0.5 * (1.0 + xi), 0.5 * om
    hX, hY = X1 - X0, Y1 - Y0
    D = (
        (Y0 - X1)[:, None, None]
        + hX[:, None, None] * (1.0 - u)[None, :, None]
        + hY[:, None, None] * u[None, None, :]
    )
    hats = np.stack((1.0 - u, u))
    C = np.einsum("i,j,ai,bj,nij->abn", om, om, hats, hats, D ** (-1.0 - sp))
    return C.reshape(4, -1) * (hX * hY)


def _reference_weights(grid, s, p):
    """Pair weights with the assembly's near band and a fixed 10-point far rule."""
    n, t, sp = grid.n, grid.edges, s * p
    M = np.zeros((n, n))
    ld = np.longdouble
    for gap in range(2, n + 1):
        k = np.arange(n + 1 - gap)
        X0, X1, Y0, Y1 = t[k], t[k + 1], t[k + gap], t[k + gap + 1]
        near = Y0 - X1 <= 8.0 * np.maximum(X1 - X0, Y1 - Y0)
        C = _tensor_hat_integrals(X0, X1, Y0, Y1, sp, 10)
        J00, J01, J10, J11 = (
            part.astype(float)
            for part in _cell_pair_J(
                X0[near].astype(ld), X1[near].astype(ld),
                Y0[near].astype(ld), Y1[near].astype(ld), ld(_nudged_sp(sp)),
            )
        )
        C[:, near] = (J00 - J10 - J01 + J11, J01 - J11, J10 - J11, J11)
        xL, xR = np.maximum(k, 1) - 1, np.minimum(k + 1, n) - 1
        yL, yR = k + gap - 1, np.minimum(k + gap + 1, n) - 1
        for c, idx in zip(C, [(xL, yL), (xL, yR), (xR, yL), (xR, yR)]):
            np.add.at(M, idx, c)
    k = np.arange(1, n)
    h = t[k + 1] - t[k]
    np.add.at(M, (k - 1, k), h ** (1.0 - sp) / ((p - sp) * (p + 1.0 - sp)))
    k = np.arange(1, n + 1)
    hA, hB = t[k] - t[k - 1], t[k + 1] - t[k]
    np.add.at(
        M,
        (np.maximum(k - 1, 1) - 1, np.minimum(k + 1, n) - 1),
        _corner_rect(hA, hB, p - 1.0 - sp) / (hA + hB) ** p,
    )
    return M + M.T


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha,s,p,name", [(0.15, 1.5, 2.0, "s"), (0.03, 0.3, 0.5, "p")])
    def test_s_and_p_validation(self, alpha, s, p, name):
        # checked before the quadrature, which would warn and fail, and
        # before an inverted bracket
        for f in (phi_constant, bracket_constants):
            with pytest.raises(OutOfRange, match=f"^{name} must"):
                f(alpha, s, p)


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

    @pytest.mark.parametrize("sp", [0.45, 1.0 + 5e-7, 1.5, 2.9, 4.5, 7.0])
    def test_far_field_against_16_point_rule(self, sp):
        # separation ratios on both sides of the order thresholds 32 and 256,
        # and r = 129, where 3 points would miss 1e-11 at sp = 7 (3.1e-11)
        geo = []
        for r in (8.5, 32.0, 33.0, 129.0, 256.0, 257.0, 2000.0):
            for aspect in (0.1, 1.0, 10.0):
                X0, hX, hY = 0.2, 1e-3, 1e-3 * aspect
                Y0 = X0 + hX + r * max(hX, hY)
                geo.append((X0, X0 + hX, Y0, Y0 + hY))
        X0, X1, Y0, Y1 = np.array(geo).T
        C = _far_hat_weights(Y0 - X1, X1 - X0, Y1 - Y0, sp)
        ref = _tensor_hat_integrals(X0, X1, Y0, Y1, sp, 16)
        assert np.all(C > 0.0)
        assert np.abs(C / ref - 1.0).max() <= 1e-11

    def test_corner_rect(self):
        rho = 0.5
        ref = dblquad(lambda y, x: (y - x) ** rho, 0.0, 0.13, 0.13, 0.34)[0]
        assert _corner_rect(0.13, 0.21, rho) == pytest.approx(ref, rel=1e-8)


class TestAssembleOperator:
    def test_confinement_closed_form(self):
        g = build_grid(0, 1, 3, 1)
        op = assemble_operator(g, 0.5, 2.0)
        assert op.b[1] == pytest.approx(4.0, rel=1e-14)  # (2 + 2) / 1 at x = 1/2

    def test_sp_above_verified_range(self):
        # the far-field orders are verified up to sp = 7
        g = build_grid(0, 1, 16, 1)
        assemble_operator(g, 0.7, 10.0)
        with pytest.raises(OutOfRange):
            assemble_operator(g, 0.8, 10.0)

    def test_weights_symmetric_nonnegative(self):
        # bitwise symmetric, since the p = 2 product reads one triangle, and
        # persymmetric like the mesh, w[i, j] = w[n-1-i, n-1-j]; odd and even
        # middles, s p below, at and above 1
        def mirror_defect(a):
            pos = a > 0.0
            return (np.abs(a - np.flip(a))[pos] / a[pos]).max()

        for n in (95, 96):
            for q in (1.0, 2.0, 3.0, 4.0):
                for s in (0.25, 0.5, 0.75):
                    op = assemble_operator(build_grid(0, 1, n, q), s, 2.0)
                    assert np.array_equal(op.w, op.w.T)
                    assert op.w.min() >= 0.0
                    assert np.abs(np.diag(op.w)).max() == 0.0
                    assert np.all(op.b > 0) and np.all(op.m > 0)
                    for a in (op.w, op.b, op.m):
                        assert mirror_defect(a) <= 1e-14

    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_p2_product_reads_one_triangle(self, s):
        n = 64
        op = assemble_operator(build_grid(0, 1, n, 2.0), s, 2.0)
        v = np.random.default_rng(5).uniform(-1, 1, n)
        ref = 2.0 * ((op.w.sum(axis=1) + op.m * op.b) * v - op.w @ v)
        w = op.w.copy()
        w[np.triu_indices(n, 1)] = np.nan  # the triangle dsymv leaves unread
        half = dataclasses.replace(op, w=w)
        got = half.apply(v)
        assert np.all(np.isfinite(got))
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        energy = half.energy(v)
        assert math.isfinite(energy)
        assert energy == pytest.approx(float(v @ ref), rel=1e-14)

    @pytest.mark.parametrize("grading", [1.0, 2.0])
    @pytest.mark.parametrize("s,p", [(0.25, 1.5), (0.25, 3.0), (0.75, 1.5), (0.75, 3.0)])
    def test_weights_match_fixed_order_reference(self, grading, s, p):
        g = build_grid(0, 1, 128, grading)
        w = assemble_operator(g, s, p).w
        ref = _reference_weights(g, s, p)
        assert np.array_equal(w, w.T)
        assert w.min() >= 0.0
        assert np.abs(np.diag(w)).max() == 0.0
        off = ~np.eye(128, dtype=bool)
        assert np.all(ref[off] > 0.0)
        assert np.abs(w[off] / ref[off] - 1.0).max() <= 1e-10

    @pytest.mark.parametrize("s,p,mu", [(0.5, 3.0, 0.0), (0.6, 1.5, 1e-2), (0.5, 3.0, 1e-3)])
    def test_in_place_passes_match_plain_formulas(self, s, p, mu):
        n = 32
        op = dataclasses.replace(assemble_operator(build_grid(0, 1, n, 1.5), s, p), mu=mu)
        v = np.random.default_rng(4).uniform(-1, 1, n)

        def pair_terms(t):
            # updiff, pair power and updiff slope written out, without reuse
            if mu == 0.0:
                return (np.sign(t) * np.abs(t) ** (p - 1.0), np.abs(t) ** p,
                        (p - 1.0) * np.abs(t) ** (p - 2.0))
            q = t * t + mu * mu
            return (q ** (0.5 * (p - 2.0)) * t, q ** (0.5 * p) - mu**p,
                    q ** (0.5 * (p - 4.0)) * ((p - 1.0) * t * t + mu * mu))

        su, pp, curv = pair_terms(v[:, None] - v[None, :])
        su_v, pp_v, curv_v = pair_terms(v)
        mb = op.m * op.b
        apply = 2.0 * (op.w * su).sum(axis=1) + 2.0 * mb * su_v
        energy = float((op.w * pp).sum()) + float(2.0 * (mb * pp_v).sum())
        H = op.w * curv
        diag = H.sum(axis=1) + mb * curv_v
        H *= -2.0
        H.flat[:: n + 1] += 2.0 * diag
        assert np.array_equal(op.apply(v), apply)
        assert op.energy(v) == energy
        assert np.array_equal(op.hessian(v, np.empty((n, n))), H)

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


def _reference_pv(u, x, s, p):
    """eval_fplap_pv with the same panels inside t_max and the exterior tail
    from adaptive quadrature with the algebraic weight of its integrand.

    In tau = (t_max / t)**sp the tail is t_max**-sp / sp * int_0^1 q dtau,
    with q = [u(x) - u(x+t)]^{p-1} + [u(x) - u(x-t)]^{p-1}; q tau**beta is
    bounded, with beta = alpha (p-1) / sp for the PowerTail exterior and 0
    for the exteriors that are constant far out."""
    grid, sp, ux = u.grid, s * p, float(u(x))
    a, b = grid.a, grid.b

    def q(t):
        return updiff(ux, u(x + t), p) + updiff(ux, u(x - t), p)

    def pair(t):
        return q(t) * t ** (-1.0 - sp)

    kinks = np.asarray(u.exterior.kinks(a, b), dtype=float)
    radii = np.unique(np.abs(np.concatenate((grid.edges, kinks)) - x))
    t_max = max(x - a, b - x, *np.abs(kinks - x))
    r0 = 2.0 * grid.local_width(x)
    base = _gauss_segments(pair, _split_segments(radii, r0, t_max))
    annulus = _gauss_segments(pair, _split_segments(radii, 0.5 * r0, r0))
    beta = u.exterior.alpha * (p - 1.0) / sp if isinstance(u.exterior, PowerTail) else 0.0
    # the weighted rule also samples tau = 0, where t is infinite
    tau_min = max((t_max / 1e250) ** sp, 1e-300)

    def smooth(tau):
        tau = max(tau, tau_min)
        return q(t_max * tau ** (-1.0 / sp)) * tau**beta

    tail, _ = quad(
        smooth, 0.0, 1.0, weight="alg", wvar=(-beta, 0.0),
        epsabs=1e-300, epsrel=1e-12, limit=500,
    )
    kappa = p * (1.0 - s)
    fac = 2.0**kappa / (2.0**kappa - 1.0)
    return 2.0 * (base + t_max**-sp / sp * tail + annulus * fac)


class TestEvalPV:
    @pytest.mark.parametrize(
        "s, p, alpha", [(0.5, 2.0, 0.3), (0.5, 3.0, 0.45), (0.75, 1.5, 0.2), (0.08, 1.25, 0.05)]
    )
    @pytest.mark.parametrize("kind", ["Zero", "Sub", "Super", "U"])
    def test_exterior_tail_against_weighted_quadrature(self, s, p, alpha, kind):
        from fracp import BarrierSpec, barrier_profile, solve_fixed_rhs

        grid = build_grid(0, 1, 256, 2.0)
        if kind == "Zero":
            op = assemble_operator(grid, s, p)
            profiles = [solve_fixed_rhs(op, np.ones(grid.n), tol=1e-11).u]
        else:
            profiles = [
                barrier_profile(BarrierSpec(alpha=alpha, lam=lam, rho=1.0, s=s, p=p), grid, kind)
                for lam in (0.0, 0.2)
            ]
        for u in profiles:
            for x in (0.2, 0.8):
                pv = eval_fplap_pv(u, x, s, p)
                # at sp = 0.1 the tail's radii would overflow without a cap
                assert np.isfinite(pv)
                assert pv == pytest.approx(_reference_pv(u, x, s, p), rel=1e-10, abs=0.0)

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
