import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from fracp import (
    BarrierSpec,
    WeightSpec,
    barrier_profile,
    build_grid,
    make_params,
    verify_boundary_barrier,
    verify_power_estimate,
)
from fracp.barrier import _window_seminorm, weight_values
from fracp.errors import (
    AlphaOutOfRange,
    CollarTooThin,
    EtaTooLarge,
    MembershipViolation,
    RegimeError,
    SpecInvalid,
)


@pytest.fixture
def spec():
    return BarrierSpec(alpha=0.25, lam=0.05, rho=0.6, s=0.5, p=2.0)


@pytest.fixture
def grid():
    return build_grid(0.0, 1.0, 96, 2.0)


class TestBarrierSpec:
    def test_beta(self, spec):
        assert spec.beta == pytest.approx(0.75)
        assert spec.beta > 0

    def test_alpha_validation(self):
        with pytest.raises(AlphaOutOfRange):
            BarrierSpec(alpha=0.6, lam=0.1, rho=1.0, s=0.5, p=2.0)

    def test_collar_too_thin(self):
        lam = 0.5
        with pytest.raises(CollarTooThin):
            BarrierSpec(alpha=0.25, lam=lam, rho=0.5 * lam**4, s=0.5, p=2.0)


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
        assert weight_values(pars, WeightSpec("exact", 0.5), 0.25) == pytest.approx(2.0)

    def test_eps_regularized_displayed_formula(self):
        pars = make_params(0.5, 2.0, 1.0, 0.5)
        # eps ** ((gamma + p - 1)/(sp - delta)) = eps**4 = 0.25
        eps = 0.25**0.25
        val = weight_values(pars, WeightSpec("eps", 0.5, eps=eps), 0.25)
        assert val == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_eps_monotone_as_eps_decreases(self, grid):
        pars = make_params(0.5, 2.0, 1.0, 0.5)
        prev = None
        for eps in (0.5, 0.25, 0.125, 0.0625):
            vals = weight_values(pars, WeightSpec("eps", 0.5, eps=eps), grid.distance())
            if prev is not None:
                assert np.all(vals >= prev - 1e-15)
            prev = vals
        exact = weight_values(pars, WeightSpec("exact", 0.5), grid.distance())
        assert np.all(prev <= exact + 1e-15)

    def test_delta_zero_degenerates_to_one(self, grid):
        pars = make_params(0.5, 2.0, 1.0, 0.0)
        vals = weight_values(pars, WeightSpec("eps", 0.0, eps=0.1), grid.distance())
        assert np.all(vals == 1.0)

    def test_regime_error(self, grid):
        pars = make_params(0.5, 2.0, 1.0, 1.5)
        with pytest.raises(RegimeError):
            weight_values(pars, WeightSpec("eps", 1.5, eps=0.1), grid.distance())


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


class TestVerifyBoundaryBarrier:
    def test_passes_on_preset(self):
        pars = make_params(0.5, 2.0, 1.0, 0.5)
        grid = build_grid(0, 1, 384, 2.0)
        spec = BarrierSpec(alpha=0.25, lam=0.05, rho=0.5, s=0.5, p=2.0)
        rec = verify_boundary_barrier(pars, spec, grid, eta=0.1)
        assert rec.passed
        assert rec.details["c5_hat"] > 0
        assert rec.details["c5_hat_refined"] > 0
        assert np.isfinite(rec.details["c6_hat"])

    def test_eta_too_large(self):
        pars = make_params(0.5, 2.0, 1.0, 0.5)
        grid = build_grid(0, 1, 64, 1.0)
        spec = BarrierSpec(alpha=0.25, lam=0.05, rho=0.5, s=0.5, p=2.0)
        with pytest.raises(EtaTooLarge):
            verify_boundary_barrier(pars, spec, grid, eta=0.9)
