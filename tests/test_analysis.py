import numpy as np
import pytest

from fracp import (
    GridFunction,
    Zero,
    assemble_operator,
    build_grid,
    comparison_check,
    fit_boundary_exponent,
    hardy_quotient,
    inequality_props,
    make_params,
    nonexistence_scan,
    sobolev_scan,
)
from fracp.analysis import _power_gap_holds
from fracp.errors import (
    NonPositiveValues,
    OutOfRange,
    RegimeError,
    ShapeMismatch,
    WindowTooThin,
)


class TestFitBoundaryExponent:
    def test_exact_power_calibration(self):
        grid = build_grid(0, 1, 512, 2.0)
        u = GridFunction(grid, grid.distance() ** 0.3, Zero())
        fit = fit_boundary_exponent(u)
        assert fit.slope_left == pytest.approx(0.30, abs=0.01)
        assert fit.slope_right == pytest.approx(0.30, abs=0.01)
        assert fit.residual_left < 0.05

    def test_reference_deviation(self):
        pars = make_params(0.5, 2.0, 1.0, 0.5)
        grid = build_grid(0, 1, 512, 2.0)
        u = GridFunction(grid, grid.distance() ** 0.25, Zero())
        fit = fit_boundary_exponent(u, params=pars)
        assert fit.reference == pytest.approx(0.25)
        assert fit.deviation < 0.01

    def test_window_too_thin(self):
        grid = build_grid(0, 1, 64, 1.0)
        u = GridFunction(grid, grid.distance() ** 0.3, Zero())
        with pytest.raises(WindowTooThin):
            fit_boundary_exponent(u, window=(0.0001, 0.3))
        with pytest.raises(WindowTooThin):
            fit_boundary_exponent(u, window=(0.09, 0.1))

    def test_nonpositive_values(self):
        grid = build_grid(0, 1, 512, 1.0)
        u = GridFunction(grid, np.zeros(512), Zero())
        with pytest.raises(NonPositiveValues):
            fit_boundary_exponent(u)


class TestHardyQuotient:
    def test_power_at_s_gives_volume(self):
        grid = build_grid(0, 1, 512, 2.0)
        u = GridFunction(grid, grid.distance() ** 0.5, Zero())
        assert hardy_quotient(u, 1.0, 0.5, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_value(self):
        grid = build_grid(0, 1, 4096, 2.0)
        u = GridFunction(grid, grid.distance() ** 0.25, Zero())
        assert hardy_quotient(u, 1.0, 0.5, 2.0) == pytest.approx(2 * np.sqrt(2), rel=0.01)

    def test_divergent_power_grows_under_refinement(self):
        # (t - s) p <= -1 here, the quotient blows up like n^{0.4} on the
        # quadratically graded mesh
        ns = (128, 512, 2048)
        vals = []
        for n in ns:
            grid = build_grid(0, 1, n, 2.0)
            u = GridFunction(grid, grid.distance() ** 0.1, Zero())
            vals.append(hardy_quotient(u, 1.0, 0.7, 2.0))
        slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
        assert slope > 0.1
        assert vals[2] > 1.5 * vals[1] > 2.0 * vals[0]

    def test_scaling_identity(self):
        grid = build_grid(0, 1, 128, 1.0)
        rng = np.random.default_rng(0)
        u = GridFunction(grid, rng.uniform(0, 1, 128), Zero())
        c, theta, s, p = 1.7, 1.5, 0.4, 2.5
        a = hardy_quotient(GridFunction(grid, c * u.values, Zero()), theta, s, p)
        b = hardy_quotient(u, theta, s, p)
        assert a == pytest.approx(c ** (theta * p) * b, rel=1e-12)


class TestComparisonCheck:
    def test_identity_has_no_violations(self):
        u = np.linspace(0, 1, 16)
        rep = comparison_check(u, u, u, tol=0.0)
        assert rep.max_sub_violation == 0.0
        assert rep.max_super_violation == 0.0
        assert rep.passed

    def test_antisymmetry_of_swap(self):
        rng = np.random.default_rng(1)
        lo = rng.uniform(0, 1, 32)
        hi = lo + rng.uniform(0.1, 1, 32)
        mid = 0.5 * (lo + hi)
        ok = comparison_check(lo, mid, hi)
        assert ok.passed
        swapped = comparison_check(hi, mid, lo, tol=1e-3)
        expected = np.max(hi - mid)
        assert swapped.max_sub_violation == pytest.approx(expected)
        assert swapped.max_super_violation == pytest.approx(np.max(mid - lo))
        assert not swapped.passed

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            comparison_check(np.zeros(3), np.zeros(4), np.zeros(3))


class TestSobolevScan:
    def test_input_validation(self):
        pars = make_params(0.75, 2.0, 2.0, 0.5)
        with pytest.raises(OutOfRange):
            sobolev_scan(pars, [0.5], [64, 128, 256])
        with pytest.raises(OutOfRange):
            sobolev_scan(pars, [1.0], [64, 128])

    def test_small_scan_consistency(self):
        pars = make_params(0.75, 2.0, 2.0, 1.2)
        table = sobolev_scan(pars, [1.0, 3.0], [48, 96, 192], halvings=6, tol=1e-3)
        assert table.classes[1.0] == "Divergent"
        assert table.classes[3.0] == "Bounded"
        assert table.classification_monotone()
        assert all(table.consistent.values())


class TestNonexistenceScan:
    def test_delta_at_sp_rejected(self):
        pars = make_params(0.5, 2.0, 1.0, 0.5)
        grid = build_grid(0, 1, 64, 2.0)
        with pytest.raises(RegimeError):
            nonexistence_scan(pars, [0.8, 1.0], grid)

    def test_one_assembly_for_all_deltas(self, monkeypatch):
        from fracp import analysis, solver

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return assemble_operator(*args, **kwargs)

        monkeypatch.setattr(analysis, "assemble_operator", counted)
        monkeypatch.setattr(solver, "assemble_operator", counted)
        pars = make_params(0.5, 2.0, 1.0, 0.5)
        grid = build_grid(0, 1, 48, 2.0)
        table = nonexistence_scan(pars, [0.6, 0.8], grid, halvings=4, tol=1e-2)
        assert len(table.rows) == 2
        assert len(calls) == 1

    def test_small_trend(self):
        pars = make_params(0.5, 2.0, 1.0, 0.5)
        grid = build_grid(0, 1, 192, 4.0)
        table = nonexistence_scan(pars, [0.6, 0.85], grid, halvings=8, tol=1e-3)
        assert table.exponents_decreasing()
        assert table.quotients[1] > table.quotients[0]


class TestInequalityProps:
    def test_displayed_example(self):
        # q = 2, eps = 1, (x, y) = (3, 1): |9 - 1| = 8 >= 1 * |3 - 1| = 2
        assert _power_gap_holds(3.0, 1.0, 2.0, 1.0)

    def test_sample_count_validation(self):
        with pytest.raises(OutOfRange):
            inequality_props(seed=0, samples=10)

    def test_full_run_zero_failures(self):
        rep = inequality_props(seed=123, samples=2000, n=64, n_test_vectors=50)
        assert rep.power_gap_failures == 0
        assert rep.composition_failures == 0
        assert rep.passed

    def test_identity_composition_is_equality(self):
        rep = inequality_props(seed=7, samples=1000, n=48, n_test_vectors=10)
        assert rep.identity_gap < 1e-7
