"""Each check accepts fracp's real output and rejects a deliberately wrong one.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import math

import numpy as np
import pytest

import checks
from fracp.core import build_grid, make_params
from fracp.kernel import assemble_operator, phi_constant
from fracp.solver import continuation, solve_fixed_rhs


@pytest.fixture(scope="module")
def torsion():
    # s = 1/4 on the n = 1024, grading 2 mesh: 1.1e-5 from the closed form
    grid = build_grid(0.0, 1.0, 1024, 2.0)
    op = assemble_operator(grid, 0.25, 2.0)
    return grid, op, solve_fixed_rhs(op, np.ones(grid.n)).u.values


@pytest.fixture(scope="module")
def iterates():
    pars = make_params(0.5, 2.0, 1.0, 0.5)
    results, _, _ = continuation(pars, build_grid(0.0, 1.0, 64, 2.0), halvings=12, tol=1e-4)
    return [r.u.values for r in results]


@pytest.fixture(scope="module")
def phi_rows():
    return [(frac * s, s, p, phi_constant(frac * s, s, p).phi)
            for s in (0.3, 0.5, 0.7) for p in (1.5, 2.0, 3.0)
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9)]


def test_torsion_profile_is_the_closed_form():
    # sin(pi/2)/(2 pi) (1/4)^(1/2) at the midpoint for s = 1/2
    assert checks.torsion_profile(0.5, 0.5) == pytest.approx(1.0 / (4.0 * math.pi))


def test_torsion_rejects_a_scaled_solution(torsion):
    grid, _, u = torsion
    assert checks.check_torsion(grid.nodes, u, 0.25, 1e-3) < 1e-4
    with pytest.raises(checks.CheckFailed):
        checks.check_torsion(grid.nodes, 1.01 * u, 0.25, 1e-3)


def test_gradient_and_pv_checks_reject_wrong_values(torsion):
    grid, op, u = torsion
    mf = op.m * np.ones(grid.n)
    assert checks.check_gradient(op.apply(u), mf, 1e-10) <= 1e-10
    with pytest.raises(checks.CheckFailed):
        checks.check_gradient(op.apply(1.01 * u), mf, 1e-10)
    checks.check_unit_pv([1.0 + 2e-4, 1.0 - 3e-4], 1e-2, "a profile")
    with pytest.raises(checks.CheckFailed):
        checks.check_unit_pv([1.0, 1.02], 1e-2, "a profile")


def test_continuation_rejects_swapped_iterates(iterates):
    checks.check_continuation(iterates, 1e-4)
    swapped = list(iterates)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    with pytest.raises(checks.CheckFailed, match="decrease"):
        checks.check_continuation(swapped, 1e-4)


def test_continuation_rejects_an_unconverged_tail(iterates):
    with pytest.raises(checks.CheckFailed, match="last increment"):
        checks.check_continuation(iterates[:3], 1e-4)


def test_phi_table_rejects_a_perturbed_value(phi_rows):
    checks.check_phi_table(phi_rows)
    wrong = [(a, s, p, phi + 1e-6 if (a, s, p) == (0.25, 0.5, 2.0) else phi)
             for a, s, p, phi in phi_rows]
    with pytest.raises(checks.CheckFailed, match="closed form"):
        checks.check_phi_table(wrong)


def test_phi_table_rejects_a_value_outside_its_bracket(phi_rows):
    a, s, p, _ = phi_rows[0]
    c1, _ = checks.bracket(a, s, p)
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_phi_table([(a, s, p, c1 - 1e-6)] + phi_rows[1:])


def test_weights_reject_one_negative_weight(torsion):
    _, op, _ = torsion
    checks.check_weights(op.w)
    w = op.w.copy()
    w[3, 7] = w[7, 3] = -1e-3
    with pytest.raises(checks.CheckFailed, match="negative"):
        checks.check_weights(w)


def test_apply_checks_reject_wrong_operators():
    grid = build_grid(0.0, 1.0, 128, 2.0)
    op = assemble_operator(grid, 0.5, 3.0)
    ones = op.apply(np.ones(grid.n))
    checks.check_apply_ones(ones, grid.nodes, op.m, 0.5, 3.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_apply_ones(ones, grid.nodes, op.m, 0.5, 2.0)
    v = np.linspace(0.5, 1.5, grid.n)
    checks.check_homogeneous(op.apply(v), op.apply(2.0 * v), 2.0, 3.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_homogeneous(op.apply(v), op.apply(2.0 * v), 2.0, 2.0)


def test_slope_check_needs_the_right_exponent():
    x = build_grid(0.0, 1.0, 512, 2.0).nodes
    u = (x * (1.0 - x)) ** 0.25
    left, right = checks.check_slope(x, u, 0.25)
    assert abs(left - 0.25) < 0.02 and abs(right - 0.25) < 0.02
    with pytest.raises(checks.CheckFailed):
        checks.check_slope(x, u, 0.25 + 2.0 * checks.SLOPE_TOL)


def test_trend_and_membership_checks():
    checks.check_decreasing([0.6, 0.8], [0.2, 0.1])
    with pytest.raises(checks.CheckFailed):
        checks.check_decreasing([0.6, 0.8], [0.1, 0.2])
    ns = [64, 128, 256]
    checks.check_membership(ns, [1.0, 1.01, 1.02], theta=1.0, lam=0.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_membership(ns, [1.0, 2.0, 4.0], theta=1.0, lam=0.0)


def test_paper_exponents():
    # case 2 of the presets: alpha* = 1/4 and Lambda = 0 at s p = 1
    assert checks.alpha_star(0.5, 2.0, 1.0, 0.5) == 0.25
    assert checks.lambda_cap(0.5, 2.0, 1.0, 0.5) == 0.0
    assert checks.alpha_star(0.5, 3.0, 1.0, 0.5) == pytest.approx(1.0 / 3.0)
