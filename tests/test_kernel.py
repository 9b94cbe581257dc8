import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from fracp import (
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
    FracpError,
    NegativeBase,
    OutOfRange,
    PointTooCloseToBoundary,
    QuadratureFail,
    ShapeMismatch,
)
from fracp.core import Grid, PowerTail, mirror_left_half
from fracp import kernel
from fracp.kernel import (
    _HAT_R_MAX,
    _corner_rect,
    _hat_weights,
    doubling_panels,
    gauss_panels,
)

from conftest import Constant


def _tensor_hat_integrals(g, hX, hY, sp, q):
    """q x q tensor Gauss integrals of (1-u)(1-v), (1-u) v, u (1-v), u v
    times (y-x)^(-1-sp) over cell pairs of gap g and widths hX, hY, one
    column per pair."""
    xi, om = np.polynomial.legendre.leggauss(q)
    u, om = 0.5 * (1.0 + xi), 0.5 * om
    D = (
        g[:, None, None]
        + hX[:, None, None] * (1.0 - u)[None, :, None]
        + hY[:, None, None] * u[None, None, :]
    )
    hats = np.stack((1.0 - u, u))
    C = np.einsum("i,j,ai,bj,nij->abn", om, om, hats, hats, D ** (-1.0 - sp))
    return C.reshape(4, -1) * (hX * hY)


def _reference_weights(grid, s, p):
    """Pair weights with the assembly's singular band, a 40-point rule for
    cell pairs within 8 widths and a fixed 10-point rule beyond.

    Widths are the mesh's mirrored widths and gaps are sums of them, so the
    small cells near b keep every digit: widths taken from the edges near b
    are off by up to 1.7e-9 relative at n = 128, grading 4."""
    n, sp = grid.n, s * p
    wd = mirror_left_half(np.diff(grid.edges))
    M = np.zeros((n, n))
    g = np.zeros(n)
    for gap in range(2, n + 1):
        k = np.arange(n + 1 - gap)
        g = g[:-1] + wd[gap - 1 : n]  # cells k + 1 .. k + gap - 1
        hX, hY = wd[k], wd[k + gap]
        near = g <= 8.0 * np.maximum(hX, hY)
        C = _tensor_hat_integrals(g, hX, hY, sp, 10)
        C[:, near] = _tensor_hat_integrals(g[near], hX[near], hY[near], sp, 40)
        xL, xR = np.maximum(k, 1) - 1, np.minimum(k + 1, n) - 1
        yL, yR = k + gap - 1, np.minimum(k + gap + 1, n) - 1
        for c, idx in zip(C, [(xL, yL), (xL, yR), (xR, yL), (xR, yR)]):
            np.add.at(M, idx, c)
    k = np.arange(1, n)
    np.add.at(M, (k - 1, k), wd[k] ** (1.0 - sp) / ((p - sp) * (p + 1.0 - sp)))
    k = np.arange(1, n + 1)
    hA, hB = wd[k - 1], wd[k]
    np.add.at(
        M,
        (np.maximum(k - 1, 1) - 1, np.minimum(k + 1, n) - 1),
        _corner_rect(hA, hB, p - 1.0 - sp) / (hA + hB) ** p,
    )
    return M + M.T


def _far_reference(grid, sp, i, j):
    """w[i, j], i < j, by a 16-point tensor rule on each of the four cell
    pairs of the two hats, on mirror-exact geometry: the mesh's mirrored
    widths, and gaps as sums of them.  Node 0 is constant 1 on the boundary
    cell [t_0, t_1] and node n - 1 on [t_n, t_{n+1}]; the pairs' cells must
    lie at least two apart."""
    n = grid.n
    wd = mirror_left_half(np.diff(grid.edges))
    left = np.concatenate(([0.0], np.cumsum(wd)))  # left edge of cell k, from a
    one = np.ones(len(i))
    total = np.zeros(len(i))
    # node k rises (u) on cell k and falls (1 - u) on cell k + 1; the hat
    # parts (1 - u, u) each cell carries, for x and for y
    for dx, kx in ((0, i), (1, i + 1)):
        cx = (one, (i == n - 1) * 1.0) if dx else ((i == 0) * 1.0, one)
        for dy, ky in ((0, j), (1, j + 1)):
            cy = (one, (j == n - 1) * 1.0) if dy else ((j == 0) * 1.0, one)
            C = _tensor_hat_integrals(left[ky] - left[kx + 1], wd[kx], wd[ky], sp, 16)
            total += sum(cx[a] * cy[b] * C[2 * a + b] for a in (0, 1) for b in (0, 1))
    return total


def _far_band(grid):
    """The band of gaps j - i that assembly integrates pair by pair, and the
    fold store's gap n - 1 - r - c or j - i at each entry F[r, c]."""
    n, h = grid.n, (grid.n + 1) // 2
    band = kernel._far_partition(grid, mirror_left_half(np.diff(grid.edges)))[3]
    r, c = np.indices((h, h))
    return band, np.where(c > r, c - r, n - 1 - r - c)


def _stored(F, n, i, j):
    """w[i, j], i < j, read from the fold store F."""
    h = len(F)
    mirror = i + j > n - 1  # then w[i, j] = w[n-1-j, n-1-i]
    i, j = np.where(mirror, n - 1 - j, i), np.where(mirror, n - 1 - i, j)
    return np.where(j < h, F[i, np.minimum(j, h - 1)], F[np.clip(n - 1 - j, 0, h - 1), i])


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


def mpmath_phi(alpha, s, p):
    """Phi(alpha, s, p) to 20 digits by mpmath's tanh-sinh quadrature, with no
    rule of phi_constant: on [1/2, 1], u = 1 - y = v**m with m = 1/(p - sp)
    turns u**(p-1-sp) du into m dv; on [0, 1/2], the y**(beta-1) term is
    integrated in v = y**beta."""
    with mpmath.workdps(20):
        a, s, p = mpmath.mpf(alpha), mpmath.mpf(s), mpmath.mpf(p)
        sp = s * p
        beta = sp - a * (p - 1)
        m = 1 / (p - sp)
        half = mpmath.mpf(1) / 2

        def near_one(v):
            u = v**m
            lu = mpmath.log1p(-u)
            return m * (-mpmath.expm1(a * lu) / u) ** (p - 1) * (-mpmath.expm1((beta - 1) * lu) / u)

        def smooth(y):
            return (1 - y**a) ** (p - 1) * (1 - y) ** (-1 - sp)

        total = (
            1 / sp
            + mpmath.quad(near_one, [0, half ** (1 / m)])
            + mpmath.quad(smooth, [0, half])
            - mpmath.quad(lambda v: smooth(v ** (1 / beta)), [0, half**beta]) / beta
        )
        return float(total)


#: the oracle experiment's default sweep
ORACLE_SWEEP = [(f * s, s, p) for s in (0.3, 0.5, 0.7) for p in (1.5, 2.0, 3.0)
                for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
#: alpha / s over (0, 1) in steps of 0.05
ALPHA_FRACS = [k / 20 for k in range(1, 20)]


def assert_matches_mpmath(cases, rel):
    worst = max((abs(phi_constant(*c).phi / mpmath_phi(*c) - 1.0), c) for c in cases)
    assert worst[0] <= rel, worst


class TestPhiConstant:
    def test_beta_one_closed_form(self):
        o = phi_constant(0.5, 0.75, 2.0)
        assert o.beta == pytest.approx(1.0)
        assert o.phi == pytest.approx(2 / 3, rel=1e-14)

    def test_closed_values(self):
        assert phi_constant(0.25, 0.5, 2.0).phi == pytest.approx(math.pi / 4, rel=1e-13)
        assert phi_constant(0.5, 0.75, 2.0).phi == pytest.approx(2 / 3, rel=1e-13)

    def test_oracle_sweep_against_mpmath(self):
        assert_matches_mpmath(ORACLE_SWEEP, 1e-11)

    @pytest.mark.parametrize("s", [0.05, 0.95])
    @pytest.mark.parametrize("p", [1.1, 5.0])
    def test_alpha_sweep_corners_against_mpmath(self, s, p):
        # s = 0.05: beta down to 0.05, a tail in y**(beta-1) over 300 decades;
        # s = 0.95, p = 1.1: the weight (1-y)**(-0.945); the adaptive
        # quadrature this replaced failed or missed 1e-10 at most of them
        assert_matches_mpmath([(f * s, s, p) for f in ALPHA_FRACS], 1e-11)

    def test_disagreeing_rules_raise(self, monkeypatch):
        # the two rules agree to rounding; a negative bound makes any
        # difference too large
        monkeypatch.setattr(kernel, "_PHI_TOL", -1.0)
        with pytest.raises(QuadratureFail, match="differ by"):
            phi_constant(0.25, 0.5, 2.0)

    @pytest.mark.parametrize("b", [-0.945, -0.5, 0.0, 0.7, 4.0])
    def test_jacobi_rule_moments(self, b):
        # exact for x**b x**m, m <= 2n - 1
        n = kernel.QUAD_ORDERS[0]
        x, w = kernel.jacobi_rule(n, b)
        m = np.arange(2 * n)
        moments = (w[None, :] * x[None, :] ** m[:, None]).sum(axis=1)
        np.testing.assert_allclose(moments * (b + m + 1.0), 1.0, rtol=1e-13)
        assert np.all((0.0 < x) & (x < 1.0)) and np.all(w > 0.0)

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


class TestGaussPanels:
    @pytest.mark.parametrize("n", [3, 10, 16])
    def test_exact_for_degree_2n_minus_1_on_uneven_panels(self, n):
        edges = np.array([-0.3, -0.29, 0.05, 0.6, 0.61, 1.7])
        x, w = gauss_panels(edges, n)
        assert len(x) == len(w) == 5 * n
        rng = np.random.default_rng(n)
        for deg in range(2 * n):
            c = rng.standard_normal()
            exact = c * (edges[-1] ** (deg + 1) - edges[0] ** (deg + 1)) / (deg + 1)
            assert w @ (c * x**deg) == pytest.approx(exact, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("start, end, n", [(math.log(2.0), 40.0, 12), (1.0, 64.0, 16),
                                               (2.0**-200, 1.0, 10), (0.3, 0.45, 12)])
    def test_doubling_panels_bitwise(self, start, end, n):
        # leggauss mapped onto each panel as lo + half (1 + xi) and half om
        xi, om = np.polynomial.legendre.leggauss(n)
        edges = np.append(start * 2.0 ** np.arange(math.ceil(math.log2(end / start))), end)
        half = 0.5 * np.diff(edges)[:, None]
        x, w = doubling_panels(start, end, n)
        assert np.array_equal(x, (edges[:-1, None] + half * (1.0 + xi)).ravel())
        assert np.array_equal(w, (half * om).ravel())


class TestCellPairIntegrals:
    @pytest.mark.parametrize("sp", [0.45, 1.0, 1.5])
    def test_against_dblquad(self, sp):
        # a pair 0.38 widths apart, and cell 0 against cell 32 of the n = 512
        # mesh of grading 4 (widths 1.2e-10 and 1.6e-5, gap 1.2e-4), where
        # closed forms in second differences of the kernel's primitives
        # cancel, their relative error growing like (gap / 1.2e-10)^2
        t = build_grid(0, 1, 512, 4.0).edges
        for X0, X1, Y0, Y1 in [(0.1, 0.23, 0.31, 0.52), (t[0], t[1], t[32], t[33])]:
            g, hX, hY = Y0 - X1, X1 - X0, Y1 - Y0
            C = _hat_weights(np.array([g]), np.array([hX]), np.array([hY]), sp)[:, 0]
            for (a, b), val in zip([(0, 0), (0, 1), (1, 0), (1, 1)], C):
                # in the pair's unit coordinates u = (x - X0)/hX, v = (y - Y0)/hY
                ref = dblquad(
                    lambda v, u: (u if a else 1.0 - u)
                    * (v if b else 1.0 - v)
                    * (g + hX * (1.0 - u) + hY * v) ** (-1.0 - sp),
                    0.0, 1.0, 0.0, 1.0, epsabs=0.0, epsrel=1e-12,
                )[0] * hX * hY
                assert val == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("sp", [0.05, 0.45, 1.0, 1.5, 2.9, 4.5, 7.0])
    def test_far_field_against_16_point_rule(self, sp):
        # Each tier is worst at its smallest separation ratio r, and its
        # order is the smallest that keeps 1e-11 there for sp <= 7 (see
        # _HAT_R_MAX): 25 points from r = 0.2 (0.2308 is the smallest r of a
        # grading-4 mesh), 16 from just above 1/2, 12 above 1, 9 above 2,
        # 7 above 4, 6 above 8, 4 above 32 and 3 above 256.  One point fewer
        # misses 1e-11 at the tier's floor: 3.0e-11, 8.0e-11, 6.6e-11,
        # 1.6e-10, 4.1e-10 and 2.0e-10 for the six tiers up to r = 8, and at
        # r = 129 3 points would give 3.1e-11 at sp = 7.  Every tier bound is
        # checked on both sides, against a 48-point reference below r = 8.5
        # and the 16-point rule from there on.
        edges = np.concatenate((_HAT_R_MAX, np.nextafter(_HAT_R_MAX, np.inf)))
        for ratios, q_ref in [
            (np.concatenate(([0.2, 0.23], edges[edges < 8.5])), 48),
            (np.concatenate(([8.5, 129.0, 2000.0], edges[edges > 8.5])), 16),
        ]:
            r, aspect = np.repeat(ratios, 5), np.tile([1e-5, 0.1, 1.0, 10.0, 1e5], len(ratios))
            hX, hY = np.full(len(r), 1e-3), 1e-3 * aspect
            g = r * np.maximum(hX, hY)
            C = _hat_weights(g, hX, hY, sp)
            ref = _tensor_hat_integrals(g, hX, hY, sp, q_ref)
            assert np.all(C > 0.0)
            assert np.abs(C / ref - 1.0).max() <= 1e-11

    def test_tier_bounds_take_the_lower_tiers_rule(self):
        # r on a bound of _HAT_R_MAX takes the lower tier's (larger) rule and
        # the next float above it the next tier's; at sp = 7 neighbouring
        # orders differ by 4.6e-13 or more there, so 1e-15 tells them apart.
        # Widths 1 and 1/2 keep r = g / max(hX, hY) exact.
        orders = [len(u) for u, _ in kernel._HAT_RULES]
        hX, hY = np.array([1.0, 1.0]), np.array([1.0, 0.5])
        for i, bound in enumerate(_HAT_R_MAX):
            for r, q in ((bound, orders[i]), (np.nextafter(bound, np.inf), orders[i + 1])):
                g = np.full(2, r)
                C = _hat_weights(g, hX, hY, 7.0)
                ref = _tensor_hat_integrals(g, hX, hY, 7.0, q)
                assert np.abs(C / ref - 1.0).max() <= 1e-15, (r, q)

    def test_block_views_match_raveled_pairs(self):
        # _block_weights passes 2-D views: the widths of x cells broadcast
        # over the gaps and a strided view of the y cells' widths; the first
        # block of this mesh holds all eight tiers, six steps of the 6-point
        # rule among them, and the pairs past H_g at gap inf
        n = 513
        t = build_grid(0, 1, n, 4.0).edges
        tp, wdp = (np.concatenate((a[: n + 1], np.zeros(n)))
                   for a in (t, mirror_left_half(np.diff(t))))
        g0, g1 = 2, 58
        hmax = (n + 2 - g0) // 2
        shape = (g1 - g0, hmax + 1)
        C = kernel._block_weights(tp, wdp, n, g0, g1, 1.0)
        gap = kernel._strided(tp, g0, (1, 1), shape) - tp[1 : hmax + 2]
        gap[kernel._strided(np.arange(g0, g0 + 2 * hmax + g1 - g0) > n, 0, (1, 2), shape)] = np.inf
        hX = np.broadcast_to(wdp[: hmax + 1], shape)
        hY = kernel._strided(wdp, g0, (1, 1), shape)
        views = _hat_weights(gap, hX, hY, 1.0)
        flat = _hat_weights(gap.ravel(), hX.ravel(), hY.ravel(), 1.0)
        assert views.shape == C.shape == (4,) + shape
        tiers = _HAT_R_MAX.searchsorted(gap / np.maximum(hX, hY))
        assert len(np.unique(tiers)) == len(kernel._HAT_RULES)
        assert np.array_equal(views, flat.reshape(views.shape))
        # _block_weights changes only C0 of pair H_g
        last = (n + 2 - np.arange(g0, g1)) // 2
        keep = np.ones(views.shape, bool)
        keep[0, np.arange(len(last)), last] = False
        assert np.array_equal(C[keep], views[keep])

    def test_pairs_nearer_than_verified_range(self):
        g, h = np.array([0.19, 0.5]), np.ones(2)
        with pytest.raises(OutOfRange):
            _hat_weights(g, h, h, 1.0)
        assert np.all(_hat_weights(0.2 * h, h, h, 1.0) > 0.0)

    def test_corner_rect(self):
        rho = 0.5
        ref = dblquad(lambda y, x: (y - x) ** rho, 0.0, 0.13, 0.13, 0.34)[0]
        assert _corner_rect(0.13, 0.21, rho) == pytest.approx(ref, rel=1e-8)


class TestAssembleOperator:
    def test_confinement_closed_form(self):
        g = build_grid(0, 1, 3, 1)
        op = assemble_operator(g, 0.5, 2.0)
        assert op.b[1] == pytest.approx(4.0, rel=1e-14)  # (2 + 2) / 1 at x = 1/2

    def test_hand_built_grading_6_refused(self):
        # grading 6 puts cell 2 0.0947 widths of cell 0 beyond it, below the
        # smallest separation the Gauss orders are verified for; build_grid
        # refuses that grading, so the mesh is built by hand
        n, q = 64, 6.0
        t = np.arange(1, n + 1) / (n + 1)
        nodes = np.where(t <= 0.5, 2.0 ** (q - 1.0) * t**q, 1.0 - 2.0 ** (q - 1.0) * (1.0 - t) ** q)
        with pytest.raises(OutOfRange, match="separation ratio 0.0947 "):
            assemble_operator(Grid(a=0.0, b=1.0, q=q, nodes=nodes), 0.5, 2.0)

    def test_sp_above_verified_range(self):
        # the Gauss orders of the cell pairs are verified up to sp = 7
        g = build_grid(0, 1, 16, 1)
        assemble_operator(g, 0.7, 10.0)
        with pytest.raises(OutOfRange):
            assemble_operator(g, 0.8, 10.0)

    def test_weights_symmetric_nonnegative(self):
        # bitwise symmetric, since the p = 2 product reads one triangle, and
        # exactly persymmetric like the mesh, w[i, j] = w[n-1-i, n-1-j], since
        # w is built from one half; odd and even middles, s p below, at and
        # above 1, and the smallest meshes, whose fold store is 1 x 1 or 2 x 2
        def mirror_defect(a):
            pos = a > 0.0
            return (np.abs(a - np.flip(a))[pos] / a[pos]).max()

        for n in (2, 3, 4, 5, 95, 96):
            for q in (1.0, 2.0, 3.0, 4.0):
                for s in (0.25, 0.5, 0.75):
                    op = assemble_operator(build_grid(0, 1, n, q), s, 2.0)
                    assert np.array_equal(op.w, op.w.T)
                    assert op.w.min() >= 0.0
                    assert np.abs(np.diag(op.w)).max() == 0.0
                    assert np.all(op.b > 0) and np.all(op.m > 0)
                    for a in (op.w, op.b, op.m):
                        assert mirror_defect(a) == 0.0

    def test_half_diagonals_cover_the_fold_store_once(self):
        # the views of diagonals 1..n-1 tile the fold store, all but the
        # middle row of an odd n, and entry i of diagonal d is w[i, i + d]
        for n in range(2, 71):
            h = (n + 1) // 2
            cells = np.arange(h * h, dtype=float).reshape(h, h)
            F, hits = np.full((h, h), -1.0), np.zeros(h * h, int)
            for d in range(1, n):
                views = kernel._half_diagonal(cells, n, d)
                assert sum(map(len, views)) == (n + 1 - d) // 2
                np.add.at(hits, np.concatenate(views).astype(int), 1)
                up, down = kernel._half_diagonal(F, n, d)
                up[:], down[:] = d, d
                i = np.arange((n + 1 - d) // 2)
                assert np.all(_stored(F, n, i, i + d) == d)
            hits = hits.reshape(h, h)
            if n % 2:
                assert not hits[-1].any()
                hits = hits[:-1]
            assert np.all(hits == 1)

    def test_folded_weights_match_the_reference_fold(self):
        # S, the fold store plus its transpose, against the fold of the full
        # w: w[:h, :h] plus the mirrored right columns, times c, symmetrized;
        # n = 2 has h = 1, and odd n a middle row that folds onto nothing
        def reference_fold(w):
            n = len(w)
            h = (n + 1) // 2
            c = np.full(h, 2.0)
            if n % 2:
                c[-1] = 1.0
            X = w[:h, :h].copy()
            X[:, : n - h] += w[:h, h:][:, ::-1]
            X *= c[:, None]
            return 0.5 * (X + X.T)

        for n in (2, 3, 4, 5, 95, 96):
            for q in (1.0, 2.0, 3.0, 4.0):
                for s in (0.25, 0.5, 0.75):
                    op = assemble_operator(build_grid(0, 1, n, q), s, 2.0)
                    S, ref = op.folded.w, reference_fold(op.w)
                    assert np.array_equal(S, S.T)
                    assert np.array_equal(S == 0.0, ref == 0.0)
                    pos = ref > 0.0
                    assert (np.abs(S - ref)[pos] / ref[pos]).max() <= 1e-14

    def test_assembly_keeps_no_n_by_n_array(self):
        # the h x h fold store holds about n^2/4 numbers, so no n x n array
        # of n^2 * 8 bytes is ever allocated, and w waits for a caller
        grid = build_grid(0, 1, 1024, 2.0)
        tracemalloc.start()
        try:
            op = assemble_operator(grid, 0.5, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024**2 * 8
        assert "w" not in vars(op)

    def test_assembly_temporaries_stay_bounded(self):
        # besides the h x h fold store, assembly holds one block of cell
        # pairs and one step of kernel evaluations, a few MB at every n
        n, h = 4096, 2048
        grid = build_grid(0, 1, n, 2.0)
        tracemalloc.start()
        try:
            assemble_operator(grid, 0.5, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * h * h * 8

    @pytest.mark.parametrize("s,p", [(0.25, 2.0), (0.5, 2.0), (0.5, 3.0), (0.75, 1.5)])
    def test_block_boundaries_change_no_weight(self, monkeypatch, s, p):
        # a budget of a few pairs puts a block boundary after nearly every
        # gap and a step boundary after every pair or few; the sums are the
        # default assembly's up to the rounding of the Gauss sums, which
        # matmul rounds differently over other column counts: measured
        # 1.04e-15 at (1/2, 3), 9.9e-16 at (1/4, 2), 9.5e-16 at (3/4, 3/2)
        # and 7.0e-16 at (1/2, 2), so the bound is about twice the worst
        cases = [(n, 9) for n in (2, 3, 4, 5, 95, 96)] + [(513, 288)]
        for n, budget in cases:
            for q in (1.0, 2.0, 4.0):
                grid = build_grid(0, 1, n, q)
                ref = assemble_operator(grid, s, p).pairs
                with monkeypatch.context() as patch:
                    patch.setattr(kernel, "_EVAL_BUDGET", budget)
                    F = assemble_operator(grid, s, p).pairs
                assert np.array_equal(F == 0.0, ref == 0.0)
                pos = ref > 0.0
                assert (np.abs(F - ref)[pos] / ref[pos]).max() <= 2.1e-15

    def test_folded_allocates_one_h_by_h_array(self):
        # S = F + F.T is the only h x h array the fold allocates, and it
        # leaves w unbuilt
        op = assemble_operator(build_grid(0, 1, 1024, 2.0), 0.5, 2.0)
        h = (op.n + 1) // 2
        tracemalloc.start()
        try:
            op.folded
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * h * h * 8
        assert "w" not in vars(op)

    def test_folded_refuses_a_dense_pair_matrix(self):
        # folding reads the fold store of an assembled operator; a folded
        # operator, or one whose pairs is its dense w, has none
        op = assemble_operator(build_grid(0, 1, 96, 2.0), 0.5, 2.0)
        for dense in (op.folded, dataclasses.replace(op, pairs=op.w)):
            with pytest.raises(FracpError):
                dense.folded

    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_p2_product_reads_one_triangle(self, s):
        n = 64
        op = assemble_operator(build_grid(0, 1, n, 2.0), s, 2.0)
        v = np.random.default_rng(5).uniform(-1, 1, n)
        ref = 2.0 * ((op.w.sum(axis=1) + op.m * op.b) * v - op.w @ v)
        w = op.w.copy()
        w[np.triu_indices(n, 1)] = np.nan  # the triangle dsymv leaves unread
        half = dataclasses.replace(op, pairs=w)
        got = half.apply(v)
        assert np.all(np.isfinite(got))
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        energy = half.energy(v)
        assert math.isfinite(energy)
        assert energy == pytest.approx(float(v @ ref), rel=1e-14)

    @pytest.mark.parametrize("grading", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize(
        "s,p", [(0.25, 1.5), (0.25, 3.0), (0.5, 2.0), (0.75, 1.5), (0.75, 3.0)]
    )
    def test_weights_match_fixed_order_reference(self, grading, s, p):
        g = build_grid(0, 1, 128, grading)
        w = assemble_operator(g, s, p).w
        ref = _reference_weights(g, s, p)
        assert np.array_equal(w, w.T)
        assert w.min() >= 0.0
        assert np.abs(np.diag(w)).max() == 0.0
        off = ~np.eye(128, dtype=bool)
        assert np.all(ref[off] > 0.0)
        assert np.abs(w[off] / ref[off] - 1.0).max() <= 1e-12

    def test_smallest_meshes_match_fixed_order_reference(self):
        # assembly's first block is its last here, and for n = 2 the corner
        # band's diagonal 2 lies past the last band diagonal, 1, and only
        # its position 0 reaches F, folded onto node 0
        for n in (2, 3, 4, 5, 6, 7):
            for grading in (1.0, 2.0, 4.0):
                for s, p in ((0.5, 2.0), (0.75, 1.5)):
                    g = build_grid(0, 1, n, grading)
                    w, ref = assemble_operator(g, s, p).w, _reference_weights(g, s, p)
                    off = ~np.eye(n, dtype=bool)
                    assert np.abs(w[off] / ref[off] - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n", [127, 128])
    def test_many_blocks_match_fixed_order_reference(self, monkeypatch, n):
        # with no far blocks, at this budget the assembly takes 39 or 40
        # blocks of 1 to 11 gaps; a diagonal takes integrals from three
        # consecutive gaps, so most of them take adds from two blocks into
        # the diagonal store before they go to F
        monkeypatch.setattr(kernel, "_EVAL_BUDGET", 576)
        monkeypatch.setattr(kernel, "_FAR_ETA", math.inf)
        off = ~np.eye(n, dtype=bool)
        for grading in (1.0, 2.0, 4.0):
            g = build_grid(0, 1, n, grading)
            w, ref = assemble_operator(g, 0.5, 2.0).w, _reference_weights(g, 0.5, 2.0)
            assert np.array_equal(w, w.T)
            assert np.abs(w[off] / ref[off] - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n", [96, 192, 512, 1024])
    @pytest.mark.parametrize("grading", [1.0, 2.0, 4.0])
    def test_far_blocks_against_16_point_rule(self, n, grading):
        # pairs beyond the band come from the interpolated cluster blocks,
        # 4 to 26 of them at n = 96 and 192; measured within 1.6e-13
        # (sp = 7, n = 512, grading 1), and the sample holds columns next to
        # b and the pair (0, n-1), with the named pairs beyond the band
        grid = build_grid(0, 1, n, grading)
        band, _ = _far_band(grid)
        assert band < n - 1
        rng = np.random.default_rng(n)
        i = rng.integers(0, n - band - 1, 400)
        j = i + band + 1 + rng.integers(0, n - band - 1 - i)
        i0, j0 = np.array([0, 0, 1, 5, 20, 100]), n - np.array([1, 2, 1, 1, 2, 1])
        named = j0 - i0 > band
        i = np.concatenate((i, i0[named], np.arange(10)))
        j = np.concatenate((j, j0[named], n - 11 + np.arange(10)))
        assert np.all(j - i > band) and np.all(j < n)
        for sp in (0.3, 1.0, 1.5, 7.0):
            F = assemble_operator(grid, sp / 10.0, 10.0).pairs
            ref = _far_reference(grid, sp, i, j)
            assert np.abs(_stored(F, n, i, j) / ref - 1.0).max() <= 1e-11

    @pytest.mark.parametrize("n", [513, 1024])
    def test_band_weights_are_the_pipelines(self, monkeypatch, n):
        # the band's weights are the Gauss pipeline's to the last bit, the
        # pipeline alone being the assembly with no admissible block; measured
        # 1.1e-13 between the far weights and the pipeline's
        for grading in (1.0, 4.0):
            grid = build_grid(0, 1, n, grading)
            F = assemble_operator(grid, 0.5, 2.0).pairs
            with monkeypatch.context() as patch:
                patch.setattr(kernel, "_FAR_ETA", math.inf)
                ref = assemble_operator(grid, 0.5, 2.0).pairs
            band, gap = _far_band(grid)
            near = (gap >= 1) & (gap <= band)
            assert np.array_equal(F[near], ref[near])
            pos = ref > 0.0
            assert np.array_equal(F == 0.0, ref == 0.0)
            assert (np.abs(F - ref)[pos] / ref[pos]).max() <= 1e-12

    def test_far_field_weights_symmetric_nonnegative(self):
        # with far blocks, w stays bitwise symmetric, exactly persymmetric
        # and nonnegative, and the middle row of an odd n's fold store empty
        for n in (513, 514):
            for q in (1.0, 4.0):
                op = assemble_operator(build_grid(0, 1, n, q), 0.5, 2.0)
                w = op.w
                assert np.array_equal(w, w.T)
                assert np.array_equal(w, w[::-1, ::-1])
                assert w.min() >= 0.0 and np.all(w[~np.eye(n, dtype=bool)] > 0.0)
                if n % 2:
                    assert not op.pairs[-1].any()

    @pytest.mark.parametrize("s,p,mu", [(0.5, 3.0, 0.0), (0.6, 1.5, 1e-2), (0.5, 3.0, 1e-3)])
    def test_in_place_passes_match_plain_formulas(self, s, p, mu):
        n = 32
        op = dataclasses.replace(assemble_operator(build_grid(0, 1, n, 1.5), s, p), mu=mu)
        v = np.random.default_rng(4).uniform(-1, 1, n)

        def pair_terms(t):
            # updiff, its power r (None at mu = 0) and its slope written out,
            # without reuse
            if mu == 0.0:
                return (np.sign(t) * np.abs(t) ** (p - 1.0), None,
                        (p - 1.0) * np.abs(t) ** (p - 2.0))
            q = t * t + mu * mu
            r = q ** (0.5 * (p - 2.0))
            return r * t, r, q ** (0.5 * (p - 4.0)) * ((p - 1.0) * t * t + mu * mu)

        su, r, curv = pair_terms(v[:, None] - v[None, :])
        su_v, r_v, curv_v = pair_terms(v)
        mb = op.m * op.b
        apply = 2.0 * (op.w * su).sum(axis=1) + 2.0 * mb * su_v
        # the pair primitive from the gradient: v . apply at mu = 0, and at
        # mu > 0 plus mu^2 sum w r - mu^p sum w and the confinement alike
        energy = float(v @ apply)
        if mu:
            energy += (mu**2 * (np.vdot(op.w, r) + 2.0 * mb @ r_v)
                       - mu**p * (op.w.sum() + (2.0 * mb).sum()))
        H = op.w * curv
        diag = H.sum(axis=1) + mb * curv_v
        H *= -2.0
        H.flat[:: n + 1] += 2.0 * diag
        assert np.array_equal(op.apply(v), apply)
        assert op.energy(v) == energy
        assert np.array_equal(op.hessian(v, np.empty((n, n))), H)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("mu", [0.0, 1e-8, 1e-3])
    def test_energy_is_the_plain_pair_sum(self, p, mu):
        # energy_and_apply reads the energy off the gradient it sweeps for;
        # it must equal the primitive summed pair by pair, |t|^p at mu = 0
        # and (t^2 + mu^2)^(p/2) - mu^p above, on the full operator and on
        # the folded one, at odd and even n
        def primitive(t):
            return np.abs(t) ** p if mu == 0.0 else (t * t + mu * mu) ** (0.5 * p) - mu**p

        def plain(A, v):
            return float((A.w * primitive(v[:, None] - v[None, :])).sum()
                         + 2.0 * (A.m * A.b * primitive(v)).sum())

        rng = np.random.default_rng(6)
        for n in (32, 33):
            op = dataclasses.replace(assemble_operator(build_grid(0, 1, n, 1.5), 0.5, p), mu=mu)
            v = mirror_left_half(rng.uniform(-1, 1, n))
            half = op.folded
            v_half = v[: half.n]
            for A, x in ((op, v), (half, v_half)):
                energy, g = A.energy_and_apply(x)
                assert energy == pytest.approx(plain(A, x), rel=1e-13, abs=0.0)
                assert np.array_equal(g, A.apply(x))
            # the folded energy is that of the mirror image
            assert half.energy(v_half) == pytest.approx(plain(op, v), rel=1e-13, abs=0.0)

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
            fd[i] = (op.energy(vp) / op.p - op.energy(vm) / op.p) / (2 * h)
        assert np.abs(fd - grad).max() <= 1e-6 * np.abs(grad).max()

    @pytest.mark.parametrize("s,p,mu", [(0.5, 2.0, 0.0), (0.5, 3.0, 0.0), (0.6, 1.5, 1e-2)])
    def test_hessian_is_jacobian_of_apply(self, s, p, mu):
        # the full operator at a random v, and the folded one at the left
        # half of a mirror-symmetric v, for an even and an odd n
        rng = np.random.default_rng(2)
        for n in (32, 33):
            op = dataclasses.replace(assemble_operator(build_grid(0, 1, n, 1.5), s, p), mu=mu)
            v = rng.uniform(-1, 1, n)
            for A, x in ((op, v), (op.folded, mirror_left_half(v)[: op.folded.n])):
                m = A.n
                out = np.full((m, m), np.nan)
                H = A.hessian(x, out)
                assert H is out
                assert np.array_equal(H, H.T)
                h = 1e-6
                fd = np.empty((m, m))
                for j in range(m):
                    e = np.zeros(m)
                    e[j] = h
                    fd[:, j] = (A.apply(x + e) - A.apply(x - e)) / (2 * h)
                assert np.abs(fd - H).max() <= 1e-6 * np.abs(H).max()
                assert np.linalg.eigvalsh(H).min() > 0.0

    @pytest.mark.parametrize("n", [32, 33])
    @pytest.mark.parametrize("s,p,mu", [(0.5, 2.0, 0.0), (0.5, 3.0, 0.0), (0.6, 1.5, 1e-2)])
    def test_folded_operator_is_the_reduced_full_one(self, s, p, mu, n):
        # at v = P v_L: energy(v), P^T apply(v) and P^T H(v) P, with P
        # stacking I over the reversal (the middle node of an odd n once)
        op = dataclasses.replace(assemble_operator(build_grid(0, 1, n, 1.5), s, p), mu=mu)
        half = op.folded
        h = (n + 1) // 2
        assert half.n == h and half.mu == mu
        assert np.array_equal(half.w, half.w.T)
        P = np.zeros((n, h))
        P[np.arange(h), np.arange(h)] = 1.0
        P[n - 1 - np.arange(n // 2), np.arange(n // 2)] = 1.0
        v = mirror_left_half(np.random.default_rng(3).uniform(-1, 1, n))
        assert np.array_equal(P @ v[:h], v)
        H = op.hessian(v, np.empty((n, n)))
        assert half.energy(v[:h]) == pytest.approx(op.energy(v), rel=1e-14)
        assert np.abs(half.apply(v[:h]) - P.T @ op.apply(v)).max() <= 1e-14 * np.abs(op.apply(v)).max()
        assert np.abs(half.hessian(v[:h], np.empty((h, h))) - P.T @ H @ P).max() <= 1e-14 * np.abs(H).max()

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


def _pair_terms(u, x, p):
    # q(t) = [u(x) - u(x+t)]^{p-1} + [u(x) - u(x-t)]^{p-1}
    ux = float(u(x))
    return lambda t: updiff(ux, u(x + t), p) + updiff(ux, u(x - t), p)


def _tail_reference(u, x, s, p, t_max):
    """The exterior tail of eval_fplap_pv beyond t_max by adaptive quadrature
    with the algebraic weight of its integrand.

    In tau = (t_max / t)**sp the tail is t_max**-sp / sp * int_0^1 q dtau;
    q tau**beta is bounded, with beta = alpha (p-1) / sp for the PowerTail
    exterior and 0 for the exteriors that are constant far out."""
    sp, q = s * p, _pair_terms(u, x, p)
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
    return t_max**-sp / sp * tail


def _richardson(s, p):
    kappa = p * (1.0 - s)
    return 2.0**kappa / (2.0**kappa - 1.0)


def _reference_pv(u, x, s, p):
    """eval_fplap_pv with the same near field, the panels and orders of
    kernel._pv_panels, and the exterior tail from _tail_reference."""
    q, r0 = _pair_terms(u, x, p), 2.0 * u.grid.local_width(x)
    edges, orders = kernel._pv_panels(u, x, float(u(x)), r0)
    core = edges.searchsorted(r0)

    def panels(e, o):
        t, w = gauss_panels(e, o)
        return float(q(t) * t ** (-1.0 - s * p) @ w)

    base = panels(edges[core:], orders[core:])
    annulus = panels(edges[: core + 1], orders[:core])
    tail = _tail_reference(u, x, s, p, edges[-1])
    return 2.0 * (base + tail + annulus * _richardson(s, p))


def _graded_reference_pv(u, x, s, p):
    """eval_fplap_pv with its near field from 20-point Gauss-Legendre panels
    that break at every grid edge radius and are graded geometrically, down
    to 2**-40 of the interval, toward every singular radius beyond cut/2:
    the boundary and kink radii and the radii where the interpolant crosses
    u(x), found here independently of the kernel; the same Richardson core
    and the tail from _tail_reference."""
    grid, sp, ux = u.grid, s * p, float(u(x))
    a, b = grid.a, grid.b
    xp, fp = u._interpolant
    kinks = np.asarray(u.exterior.kinks(a, b), dtype=float)
    crossings = [
        xp[k] + (ux - fp[k]) / (fp[k + 1] - fp[k]) * (xp[k + 1] - xp[k])
        for k in range(len(xp) - 1)
        if min(fp[k], fp[k + 1]) <= ux <= max(fp[k], fp[k + 1]) and fp[k] != fp[k + 1]
    ]
    singular = np.abs(np.concatenate(([a, b], kinks, crossings)) - x)
    t_max = max(x - a, b - x, *np.abs(kinks - x))
    r0 = 2.0 * grid.local_width(x)
    radii = np.concatenate((np.abs(grid.edges - x), singular, [0.5 * r0, r0, t_max]))
    breaks = np.unique(radii[(radii >= 0.5 * r0) & (radii <= t_max)])
    steps = 2.0 ** -np.arange(1, 41)
    pieces = [breaks]
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (hi - lo)
        if lo in singular:
            pieces.append(lo + half * steps)
        if hi in singular:
            pieces.append(hi - half * steps)
        pieces.append([lo + half])
    edges = np.unique(np.concatenate(pieces))
    t, w = gauss_panels(edges, 20)
    w[t < r0] *= _richardson(s, p)
    near = float(_pair_terms(u, x, p)(t) * t ** (-1.0 - sp) @ w)
    return 2.0 * (near + _tail_reference(u, x, s, p, t_max))


#: largest relative move of eval_fplap_pv from _PV_ORDER points on every
#: panel to the tiered orders; measured at most 2.6e-14 (U at s = 0.9, p = 3)
PV_TIER_REL = 1e-13


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
                barrier_profile(BarrierSpec(alpha=alpha, lam=lam, s=s, p=p), grid, kind)
                for lam in (0.0, 0.2)
            ]
        for u in profiles:
            for x in (0.2, 0.8):
                pv = eval_fplap_pv(u, x, s, p)
                # at sp = 0.1 the tail's radii would overflow without a cap
                assert np.isfinite(pv)
                assert pv == pytest.approx(_reference_pv(u, x, s, p), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("s, p", [(0.1, 1.5), (0.75, 1.5), (0.5, 2.0), (0.95, 2.0),
                                      (0.3, 3.0), (0.9, 3.0), (0.9, 5.0)])
    @pytest.mark.parametrize("kind", ["Zero", "Super", "U"])
    def test_panel_orders_against_the_fixed_order(self, s, p, kind, monkeypatch):
        # the same panels with _PV_ORDER points on every one: an empty tier
        # table puts every panel in the first tier
        from fracp import BarrierSpec, barrier_profile

        grid = build_grid(0, 1, 512, 2.0)
        if kind == "Zero":
            u = GridFunction(grid, (grid.nodes * (1.0 - grid.nodes)) ** s, Zero())
        else:
            u = barrier_profile(BarrierSpec(alpha=0.5 * s, lam=0.1, s=s, p=p), grid, kind)
        probes = (0.15, 0.37, 0.5, 0.8)
        tiered = [eval_fplap_pv(u, x, s, p) for x in probes]
        monkeypatch.setattr(kernel, "_PV_R_MAX", np.array([]))
        fixed = [eval_fplap_pv(u, x, s, p) for x in probes]
        assert tiered == pytest.approx(fixed, rel=PV_TIER_REL, abs=0.0)

    @pytest.mark.parametrize("s, p, bound", [(0.75, 1.5, 1e-7), (0.08, 1.25, 1e-7),
                                             (0.5, 3.0, 1e-12)])
    def test_torsion_against_graded_reference(self, s, p, bound):
        # at p != 2 the integrand is not smooth where u crosses u(x); panels
        # that break there keep the quadrature's error at the reference's
        from fracp import solve_fixed_rhs

        grid = build_grid(0, 1, 256, 2.0)
        u = solve_fixed_rhs(assemble_operator(grid, s, p), np.ones(grid.n), tol=1e-11).u
        for x in (0.2, 0.37, 0.8):
            ref = _graded_reference_pv(u, x, s, p)
            assert abs(eval_fplap_pv(u, x, s, p) - ref) <= bound * abs(ref)

    def test_constant_function_maps_to_zero(self):
        g = build_grid(0, 1, 64, 1)
        u = GridFunction(g, np.full(64, 3.7), Constant(3.7))
        assert eval_fplap_pv(u, 0.43, 0.5, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_barrier_calibration(self):
        from fracp import BarrierSpec, barrier_profile

        alpha, s, p, lam = 0.25, 0.5, 2.0, 0.1
        o = phi_constant(alpha, s, p)
        grid = build_grid(0, 1, 1024, 2.0)
        spec = BarrierSpec(alpha=alpha, lam=lam, s=s, p=p)
        u = barrier_profile(spec, grid, "U")
        for x in (0.3, 0.5, 0.7):
            pv = eval_fplap_pv(u, x, s, p)
            target = 2 * o.phi * (x + spec.shift) ** (-spec.beta)
            assert pv == pytest.approx(target, rel=0.01)

    def test_ratio_constant_in_x(self):
        from fracp import BarrierSpec, barrier_profile

        spec = BarrierSpec(alpha=0.25, lam=0.1, s=0.5, p=2.0)
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

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_homogeneity_of_a_tiny_u(self, p):
        # below 1e-162 the product of two differences u - u(x) underflows;
        # the level crossings must still be found by sign alone
        g = build_grid(0, 1, 256, 2.0)
        vals = g.nodes * (1.0 - g.nodes)
        scale = 1e-170
        a = eval_fplap_pv(GridFunction(g, vals, Zero()), 0.37, 0.5, p)
        b = eval_fplap_pv(GridFunction(g, scale * vals, Zero()), 0.37, 0.5, p)
        assert b == pytest.approx(scale ** (p - 1.0) * a, rel=1e-12, abs=0.0)

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
        v += v[::-1]  # mirror-symmetric, as gagliardo_energy requires
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
        # the energy is taken on the left half, so u must be its own mirror image
        with pytest.raises(OutOfRange):
            gagliardo_energy(GridFunction(g, g.nodes, Zero()), 1.0, op)
        with pytest.raises(ShapeMismatch):
            gagliardo_energy(GridFunction(build_grid(0, 1, 17, 1), np.ones(17), Zero()), 1.0, op)

    def test_u_on_other_nodes_refused(self):
        # same n, other grading: unchecked, the grading-2 operator reads
        # 5.51 for this u on the uniform mesh, against 3.60 from its own
        g1, g2 = build_grid(0, 1, 64, 1.0), build_grid(0, 1, 64, 2.0)
        u = GridFunction(g1, g1.distance() ** 0.5, Zero())
        assert gagliardo_energy(u, 1.0, assemble_operator(g1, 0.5, 2.0)) == pytest.approx(3.60, abs=0.01)
        with pytest.raises(ShapeMismatch, match="grading 2, not on this one of n = 64, grading 1"):
            gagliardo_energy(u, 1.0, assemble_operator(g2, 0.5, 2.0))
