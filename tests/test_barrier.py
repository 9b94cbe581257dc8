import math
import warnings

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from fracp import (
    BarrierSpec,
    barrier_profile,
    build_grid,
    make_params,
    verify_boundary_barrier,
    verify_power_estimate,
)
from fracp import barrier
from fracp.barrier import _exprel, _window_seminorm, weight_values
from fracp.errors import (
    AlphaOutOfRange,
    EtaTooLarge,
    MembershipViolation,
    RegimeError,
    SpecInvalid,
)


@pytest.fixture
def spec():
    return BarrierSpec(alpha=0.25, lam=0.05, s=0.5, p=2.0)


@pytest.fixture
def grid():
    return build_grid(0.0, 1.0, 96, 2.0)


class TestBarrierSpec:
    def test_beta(self, spec):
        assert spec.beta == pytest.approx(0.75)
        assert spec.beta > 0

    def test_alpha_validation(self):
        with pytest.raises(AlphaOutOfRange):
            BarrierSpec(alpha=0.6, lam=0.1, s=0.5, p=2.0)


class TestBarrierProfile:
    def test_power_profile_at_left_endpoint(self, spec, grid):
        u = barrier_profile(spec, grid, "U")
        assert u(0.0) == pytest.approx(spec.lam)

    def test_sub_far_outside(self, spec, grid):
        sub = barrier_profile(spec, grid, "Sub")
        assert sub(-5.0) == pytest.approx(-spec.lam)
        assert sub(6.0) == pytest.approx(-spec.lam)

    def test_super_boundary_and_far(self, spec, grid):
        sup = barrier_profile(spec, grid, "Super")
        assert sup(0.0) == pytest.approx(spec.lam)
        assert sup(1.0) == pytest.approx(spec.lam)
        assert sup(9.0) == 0.0

    def test_super_minus_sub_is_lambda(self, spec, grid):
        sub = barrier_profile(spec, grid, "Sub")
        sup = barrier_profile(spec, grid, "Super")
        assert np.allclose(sup.values - sub.values, spec.lam)
        zs = np.linspace(-0.2, 1.2, 401)
        assert np.all(sup(zs) >= sub(zs))

    def test_monotone_in_distance(self, spec, grid):
        sub = barrier_profile(spec, grid, "Sub")
        half = grid.nodes <= 0.5
        assert np.all(np.diff(sub.values[half]) > 0)
        assert np.all(np.diff(sub.values[~half]) < 0)

    def test_unknown_kind(self, spec, grid):
        with pytest.raises(SpecInvalid):
            barrier_profile(spec, grid, "Wrong")


class TestSingularWeight:
    def test_exact_value(self):
        pars = make_params(0.5, 2.0, 1.0, 0.5)
        assert weight_values(pars, 0.25) == pytest.approx(2.0)

    def test_eps_regularized_displayed_formula(self):
        pars = make_params(0.5, 2.0, 1.0, 0.5)
        # eps ** ((gamma + p - 1)/(sp - delta)) = eps**4 = 0.25
        eps = 0.25**0.25
        val = weight_values(pars, 0.25, eps)
        assert val == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_eps_monotone_as_eps_decreases(self, grid):
        pars = make_params(0.5, 2.0, 1.0, 0.5)
        prev = None
        for eps in (0.5, 0.25, 0.125, 0.0625):
            vals = weight_values(pars, grid.distance(), eps)
            if prev is not None:
                assert np.all(vals >= prev - 1e-15)
            prev = vals
        exact = weight_values(pars, grid.distance())
        assert np.all(prev <= exact + 1e-15)

    def test_delta_zero_degenerates_to_one(self, grid):
        pars = make_params(0.5, 2.0, 1.0, 0.0)
        vals = weight_values(pars, grid.distance(), 0.1)
        assert np.all(vals == 1.0)

    def test_regime_error(self, grid):
        pars = make_params(0.5, 2.0, 1.0, 1.5)
        with pytest.raises(RegimeError):
            weight_values(pars, grid.distance(), 0.1)


class TestVerifyPowerEstimate:
    def test_positive_lambda_passes(self):
        rec = verify_power_estimate(0.25, 0.5, 2.0, 0.1, n=512)
        assert rec.passed
        assert rec.details["max_ratio_deviation"] <= 0.01
        assert rec.details["c1"] <= rec.details["phi"] <= rec.details["c2"]

    def test_lambda_zero_allowed_when_above_membership_line(self):
        # s - 1/p = 0 here, any alpha in (0, s) is admissible
        rec = verify_power_estimate(0.3, 0.5, 2.0, 0.0, n=512)
        assert rec.passed
        assert np.isfinite(rec.details["window_seminorm_log10"])

    def test_alpha_out_of_range(self):
        with pytest.raises(AlphaOutOfRange):
            verify_power_estimate(0.6, 0.5, 2.0, 0.1)

    def test_membership_violation(self):
        with pytest.raises(MembershipViolation):
            verify_power_estimate(0.2, 0.9, 2.0, 0.0)

    def test_deviation_shrinks_under_refinement(self):
        coarse = verify_power_estimate(0.25, 0.5, 2.0, 0.1, n=256)
        fine = verify_power_estimate(0.25, 0.5, 2.0, 0.1, n=1024)
        assert fine.details["max_ratio_deviation"] < coarse.details["max_ratio_deviation"]


def _nested_log_seminorm(alpha, s, p, lam):
    """The window energy as the unswapped double integral, the outer variable
    as x = w0 e^y and the inner one as t = e^-z, 0 <= z <= y."""
    w0 = lam ** (1.0 / alpha)
    sp = s * p
    k = alpha * p - sp + 1.0

    def ratio(z):
        return (-math.expm1(-alpha * z)) ** p * (-math.expm1(-z)) ** (-1.0 - sp) * math.exp(-z)

    def outer(y):
        return math.exp(k * y) * quad(ratio, 0.0, y, epsrel=1e-11, limit=200)[0]

    top = math.log((1.0 + w0) / w0)
    edges = np.linspace(0.0, top, int(top) + 2)
    return 2.0 * w0**k * sum(
        quad(outer, lo, hi, epsrel=1e-11, limit=200)[0] for lo, hi in zip(edges[:-1], edges[1:])
    )


class TestWindowSeminorm:
    @pytest.mark.parametrize(
        "alpha,s,p,lam",
        [
            (0.1, 0.75, 2.0, 0.05),  # sobolev_divergent preset: shift 9.8e-14
            (0.25, 0.5, 2.0, 0.05),  # boundary_case2 preset
            (0.3, 0.9, 1.5, 0.01),
            (0.5, 0.99, 1.5, 0.05),  # t integrand near t = 1: (1-t)**-0.985
            (0.2, 0.5, 3.0, 0.1),
        ],
    )
    def test_against_nested_log_reference(self, alpha, s, p, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_e, rel_err = _window_seminorm(alpha, s, p, lam)
        assert math.isfinite(log_e)
        assert 0.0 <= rel_err <= 1e-8
        assert log_e == pytest.approx(math.log(_nested_log_seminorm(alpha, s, p, lam)), abs=1e-6)

    @pytest.mark.parametrize(
        "alpha,s,p,lam,log_e",
        [
            # the floor of the automatic alpha: E ~ e^1480 exceeds the float range
            (1e-3, 0.75, 2.0, 0.05, 1480.39445187198),
            (0.0075, 0.75, 2.0, 1e-6, 885.984385565128),
            (0.25, 0.5, 2.0, 0.05, math.log(0.523524106099041)),  # case-2 barrier
            (0.1, 0.75, 2.0, 0.05, math.log(1497.40211082088)),
        ],
    )
    def test_against_40_digit_references(self, alpha, s, p, lam, log_e):
        # references from mpmath at 40 digits
        got, rel_err = _window_seminorm(alpha, s, p, lam)
        assert abs(got - log_e) <= 1e-8
        assert 0.0 <= rel_err <= 1e-8

    def test_energy_beyond_the_float_range_passes(self):
        rec = verify_power_estimate(1e-3, 0.75, 2.0, 0.05, n=512)
        assert rec.passed
        assert rec.details["window_seminorm_log10"] == pytest.approx(
            1480.39445187198 / math.log(10.0), abs=1e-8
        )

    @pytest.mark.parametrize(
        "alpha,s,p,lam,log_e",
        [
            # barrier-check of the presets: quick, boundary_case2 and
            # nonexistence share the first, then boundary_case1,
            # sobolev_bounded, sobolev_divergent; last the float-range case
            (0.25, 0.5, 2.0, 0.05, -0.6471722017870386),
            (0.45, 0.5, 2.0, 0.05, -0.3315808028608326),
            (1 / 3, 0.75, 2.0, 0.05, 1.0861847748149132),
            (0.1, 0.75, 2.0, 0.05, 7.311486959452916),
            (1e-3, 0.75, 2.0, 0.05, 1480.394451871975),
        ],
    )
    def test_agrees_with_the_adaptive_quadrature(self, alpha, s, p, lam, log_e):
        # log E from scipy's adaptive quad (algebraic weight on [0, 1],
        # doubling breakpoints beyond, epsrel 1e-10), which the fixed rules
        # replaced
        got, rel_err = _window_seminorm(alpha, s, p, lam)
        assert got == pytest.approx(log_e, rel=1e-10)
        assert rel_err <= 1e-13

    def test_lambda_zero_is_the_limit_of_small_shifts(self):
        # k = alpha p - s p + 1 = 0.6 > 0: the shift enters as shift**k
        log_e, _ = _window_seminorm(0.3, 0.5, 2.0, 0.0)
        assert math.isfinite(log_e)
        assert log_e == pytest.approx(_window_seminorm(0.3, 0.5, 2.0, 1e-12)[0], abs=1e-12)

    def test_tiny_shift_preset_passes(self):
        # lambda**(1/alpha) = 0.05**10; the nested quadrature returned -0.264
        rec = verify_power_estimate(0.1, 0.75, 2.0, 0.05, n=512)
        assert rec.passed
        assert 10.0 ** rec.details["window_seminorm_log10"] == pytest.approx(1497.40211082, rel=1e-9)


class TestExprel:
    @pytest.mark.parametrize("x", [0.0, 1e-300, -1e-300, 1e-8, -1e-8, 1.0, -1.0, -700.0])
    def test_points(self, x):
        # within two units in the last place: the two expm1 may round apart
        got = _exprel(np.array([x]))[0]
        assert got == pytest.approx(scipy.special.exprel(x), rel=4.5e-16, abs=0.0)

    def test_window_seminorm_arguments(self, monkeypatch):
        # every argument _window_seminorm hands to exprel, over barrier
        # checks with k < 0, k > 0 and lambda = 0
        seen = []

        def spy(x):
            seen.append(x.copy())
            return _exprel(x)

        monkeypatch.setattr(barrier, "_exprel", spy)
        for case in [(1e-3, 0.75, 2.0, 0.05), (0.25, 0.5, 2.0, 0.05), (0.0075, 0.75, 2.0, 1e-6),
                     (0.3, 0.9, 1.5, 0.01), (0.49, 0.5, 5.0, 0.5), (0.3, 0.5, 2.0, 0.0)]:
            _window_seminorm(*case)
        x = np.concatenate(seen)
        assert x.min() < -1000.0 and x.max() < 0.0 and np.abs(x).min() < 1e-3
        np.testing.assert_allclose(_exprel(x), scipy.special.exprel(x), rtol=4.5e-16, atol=0.0)


class TestVerifyBoundaryBarrier:
    def test_passes_on_preset(self):
        pars = make_params(0.5, 2.0, 1.0, 0.5)
        grid = build_grid(0, 1, 384, 2.0)
        spec = BarrierSpec(alpha=0.25, lam=0.05, s=0.5, p=2.0)
        rec = verify_boundary_barrier(pars, spec, grid, eta=0.1)
        assert rec.passed
        assert rec.details["c5_hat"] > 0
        assert rec.details["c5_hat_refined"] > 0
        assert np.isfinite(rec.details["c6_hat"])

    @pytest.mark.parametrize("n, q", [(16, 1.0), (96, 2.0), (1024, 3.0)])
    def test_probes_match_node_loop(self, n, q):
        g = build_grid(0, 1, n, q)

        def width(x):
            # the cell holding x and its neighbours
            k = min(max(int(np.searchsorted(g.edges, x, side="right")) - 1, 0), n)
            return g.widths[max(k - 1, 0) : k + 2].max()

        d, eta, cap = g.distance(), 0.1, barrier._MAX_PROBES
        keep = [i for i in range(n) if 5.0 * width(g.nodes[i]) < d[i] < eta]
        if len(keep) > cap:
            sel = np.linspace(0, len(keep) - 1, cap).round().astype(int)
            keep = [keep[j] for j in np.unique(sel)]
        assert barrier._probe_indices(g, eta).tolist() == keep

    def test_one_pv_per_probe_per_grid(self, monkeypatch):
        calls = []

        def spy(u, x, s, p):
            calls.append(x)
            return pv(u, x, s, p)

        pv = barrier.eval_fplap_pv
        monkeypatch.setattr(barrier, "eval_fplap_pv", spy)
        pars = make_params(0.5, 2.0, 1.0, 0.5)
        spec = BarrierSpec(alpha=0.25, lam=0.05, s=0.5, p=2.0)
        rec = verify_boundary_barrier(pars, spec, build_grid(0, 1, 384, 2.0), eta=0.1)
        assert len(calls) == 2 * rec.details["n_probes"]
        assert rec.details["c5_hat"] <= rec.details["c6_hat"]
        assert rec.details["c5_hat_refined"] <= rec.details["c6_hat_refined"]

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("lam", [0.05, 1e-6])
    def test_sub_and_super_have_one_pv(self, p, lam):
        # Sub = Super - lambda on the whole line, exteriors included, so the
        # operator maps both to one function: what lets one sweep give c6_hat
        s, alpha = 0.5, 0.2
        grid = build_grid(0, 1, 256, 2.0)
        spec = BarrierSpec(alpha=alpha, lam=lam, s=s, p=p)
        sub, sup = (barrier_profile(spec, grid, kind) for kind in ("Sub", "Super"))
        probes = grid.nodes[barrier._probe_indices(grid, 0.1)]
        assert len(probes) > 0
        for x in probes:
            a = barrier.eval_fplap_pv(sub, float(x), s, p)
            b = barrier.eval_fplap_pv(sup, float(x), s, p)
            assert a == pytest.approx(b, rel=1e-13, abs=0.0)

    def test_eta_too_large(self):
        pars = make_params(0.5, 2.0, 1.0, 0.5)
        grid = build_grid(0, 1, 64, 1.0)
        spec = BarrierSpec(alpha=0.25, lam=0.05, s=0.5, p=2.0)
        with pytest.raises(EtaTooLarge):
            verify_boundary_barrier(pars, spec, grid, eta=0.9)
