"""Acceptance suite: one test per criterion, each at its stated tolerance.

Heavy solves are shared through module-scoped fixtures; a one-line verdict
per criterion is printed in the terminal summary.
"""

import time

import numpy as np
import pytest

from conftest import record_criterion
from fracp import (
    BarrierSpec,
    assemble_operator,
    barrier_profile,
    barrier_scales,
    build_grid,
    classify_regime,
    comparison_check,
    continuation,
    default_grading,
    eval_fplap_pv,
    fit_boundary_exponent,
    inequality_props,
    make_params,
    nonexistence_scan,
    phi_constant,
    sobolev_scan,
    solve_approximated,
    solve_fixed_rhs,
    updiff,
    verify_boundary_barrier,
)

PRESETS = {
    "boundary_case2": make_params(0.5, 2.0, 1.0, 0.5),
    "boundary_case1": make_params(0.5, 2.0, 0.25, 0.1),
    "sobolev_bounded": make_params(0.75, 2.0, 2.0, 0.5),
    "sobolev_divergent": make_params(0.75, 2.0, 2.0, 1.2),
}


@pytest.fixture(scope="module")
def case2_run():
    """Continuation for the strongly singular preset on the graded n=1024 mesh,
    driven to increment <= 1e-4 (criteria 5 and 9)."""
    params = PRESETS["boundary_case2"]
    grid = build_grid(params.a, params.b, 1024, default_grading(params))
    results, u_min, incs = continuation(params, grid, eps0=0.5, halvings=20, tol=1e-4)
    return params, grid, results, u_min, incs


@pytest.fixture(scope="module")
def torsion_runs():
    """p = 2, gamma = delta = 0, f = 1 solves at n = 512 and 1024 (criterion 4)."""
    out = {}
    for n in (512, 1024):
        grid = build_grid(0.0, 1.0, n, 1.0)
        op = assemble_operator(grid, 0.5, 2.0)
        out[n] = (grid, solve_fixed_rhs(op, np.ones(n), tol=1e-10))
    return out


def test_c1_exponent_arithmetic():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    cases = [(0.5, 2.0, 1.0, 0.5), (0.75, 2.0, 2.0, 1.2), (0.75, 2.0, 2.0, 0.5)]
    while len(cases) < 50:
        s = rng.uniform(0.05, 0.95)
        p = rng.uniform(1.05, 5.0)
        gamma = rng.uniform(0.0, 3.0)
        delta = rng.uniform(0.0, 1.2) * s * p
        cases.append((s, p, gamma, delta))
    exact = True
    for s, p, gamma, delta in cases:
        rep = classify_regime(make_params(s, p, gamma, delta))
        sp = s * p
        exact &= rep.alpha_star == (sp - delta) / (gamma + p - 1.0)
        exact &= rep.alpha_star0 == (sp - delta) / (p - 1.0)
        exact &= rep.uniq_threshold == 1.0 + s - 1.0 / p
        if delta != sp:
            exact &= rep.lambda_cap == (sp - 1.0) * (p - 1.0 + gamma) / (p * (sp - delta))
    rep = classify_regime(make_params(0.5, 2.0, 1.0, 0.5))
    exact &= rep.alpha_star == 0.25
    rep2 = classify_regime(make_params(0.75, 2.0, 2.0, 1.2))
    exact &= abs(rep2.lambda_cap - 2.5) < 1e-14
    elapsed = time.time() - t0
    ok = exact and elapsed < 1.0
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] C1 exponent arithmetic: 50 cases exact, {elapsed:.3f}s"
    )
    assert exact
    assert elapsed < 1.0


def test_c2_barrier_constant_chain():
    t0 = time.time()
    failures = 0
    cases = 0
    for s in (0.3, 0.5, 0.7):
        for p in (1.5, 2.0, 3.0):
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                o = phi_constant(frac * s, s, p, tol=1e-8)
                cases += 1
                if not (o.c1 - 1e-10 <= o.phi <= o.c2 + 1e-10):
                    failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 60.0
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] C2 barrier constant chain: "
        f"{cases} cases, {failures} failures, {elapsed:.1f}s"
    )
    assert failures == 0
    assert elapsed < 60.0


def test_c3_pv_calibration():
    alpha, s, p, lam = 0.25, 0.5, 2.0, 0.1
    oracle = phi_constant(alpha, s, p)
    grid = build_grid(0.0, 1.0, 2048, 2.0)
    spec = BarrierSpec(alpha=alpha, lam=lam, rho=1.0, s=s, p=p)
    u = barrier_profile(spec, grid, "U")
    devs = []
    for x in np.linspace(0.15, 0.85, 10):
        pv = eval_fplap_pv(u, float(x), s, p)
        target = 2.0 * oracle.phi * (x + spec.shift) ** (-spec.beta)
        devs.append(abs(pv / target - 1.0))
    worst = max(devs)
    ok = worst <= 0.01
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] C3 PV calibration: max rel dev {worst:.2e} (tol 1e-2)"
    )
    assert worst <= 0.01


def test_c4_solver_consistency(torsion_runs):
    maxres = {}
    for n, (grid, res) in torsion_runs.items():
        probes = [x for x in grid.nodes if min(x, 1.0 - x) > 0.1]
        probes = probes[:: max(1, len(probes) // 100)]
        rel = [abs(eval_fplap_pv(res.u, float(x), 0.5, 2.0) - 1.0) for x in probes]
        maxres[n] = max(rel)
    ok = maxres[1024] <= 0.05 and maxres[1024] < maxres[512]
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] C4 solver consistency: "
        f"max residual n=512: {maxres[512]:.4f}, n=1024: {maxres[1024]:.4f} (tol 0.05, decreasing)"
    )
    assert maxres[1024] <= 0.05
    assert maxres[1024] < maxres[512]


def test_c5_boundary_behavior_strongly_singular(case2_run):
    params, grid, results, u_min, incs = case2_run
    assert incs[-1] <= 1e-4
    fit = fit_boundary_exponent(u_min, params=params)
    ok = 0.20 <= fit.slope_left <= 0.30 and 0.20 <= fit.slope_right <= 0.30
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] C5 boundary exponent (case 2): "
        f"slopes {fit.slope_left:.4f}/{fit.slope_right:.4f} in [0.20, 0.30], alpha*=0.25"
    )
    assert ok


def test_c6_boundary_behavior_weakly_singular():
    params = PRESETS["boundary_case1"]
    assert classify_regime(params).case_flag == "CaseS"
    # graded mesh resolves the d^s layer; the criterion fixes n only
    grid = build_grid(params.a, params.b, 1024, 2.0)
    _, u_min, incs = continuation(params, grid, eps0=0.5, halvings=20, tol=1e-4)
    fit = fit_boundary_exponent(u_min, params=params)
    s = params.s
    lo, hi = s - 0.1, s + 0.05
    ok = lo <= fit.slope_left <= hi and lo <= fit.slope_right <= hi
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] C6 boundary exponent (case 1): "
        f"slopes {fit.slope_left:.4f}/{fit.slope_right:.4f} in [{lo}, {hi}]"
    )
    assert ok


def test_c7_monotone_regularization():
    worst = np.inf
    for name, params in PRESETS.items():
        grid = build_grid(params.a, params.b, 256, default_grading(params))
        op = assemble_operator(grid, params.s, params.p)
        prev = None
        v0 = None
        for k in range(1, 7):
            res = solve_approximated(params, grid, 2.0**-k, tol=1e-10, op=op, v0=v0)
            v0 = res.u.values
            if prev is not None:
                worst = min(worst, float(np.min(res.u.values - prev)))
            prev = res.u.values
    ok = worst >= -1e-6
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] C7 monotone regularization: "
        f"min increment {worst:.2e} across presets (tol -1e-6)"
    )
    assert ok


def test_c8_sobolev_threshold():
    bounded = sobolev_scan(
        PRESETS["sobolev_bounded"], [1.0], [128, 256, 512, 1024], halvings=10, tol=1e-4
    )
    energies = [r["energy"] for r in bounded.rows]
    ratios = [b / a for a, b in zip(energies, energies[1:])]
    ok_b = bounded.classes[1.0] == "Bounded" and all(r <= 1.1 for r in ratios)

    divergent = sobolev_scan(
        PRESETS["sobolev_divergent"], [1.0, 3.0], [128, 256, 512, 1024], halvings=10, tol=1e-4
    )
    ok_d = (
        divergent.classes[1.0] == "Divergent"
        and divergent.slopes[1.0] > 0.1
        and divergent.classes[3.0] == "Bounded"
    )
    ok = ok_b and ok_d
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] C8 Sobolev threshold: "
        f"Lam=0.75 ratios max {max(ratios):.3f} <= 1.1; "
        f"Lam=2.5 slopes theta=1: {divergent.slopes[1.0]:.2f}, theta=3: {divergent.slopes[3.0]:.2f}"
    )
    assert ok_b
    assert ok_d


def test_c9_comparison_bracketing(case2_run):
    params, grid, results, u_min, _ = case2_run
    rep = classify_regime(params)
    alpha = rep.alpha_star
    eps_fin = 0.5 * 2.0 ** -(len(results) - 1)
    lam = eps_fin  # alpha = alpha* aligns the barrier and weight scales
    spec = BarrierSpec(alpha=alpha, lam=lam, rho=0.5, s=params.s, p=params.p)
    eta = 0.1
    rec = verify_boundary_barrier(params, spec, grid, eta)
    c_sub, c_super = barrier_scales(
        u_min, params, alpha, eta, rec.details["c5_hat"], rec.details["c6_hat"]
    )
    sub = barrier_profile(spec, grid, "Sub")
    sup = barrier_profile(spec, grid, "Super")
    u = u_min.values
    strip = grid.distance() < eta
    cmp = comparison_check(
        c_sub * sub.values[strip], u[strip], c_super * sup.values[strip], tol=1e-3
    )
    ok = cmp.passed and rec.passed
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] C9 comparison bracketing: "
        f"violations sub {cmp.max_sub_violation:.2e} / super {cmp.max_super_violation:.2e} (tol 1e-3)"
    )
    assert rec.passed
    assert cmp.passed


def test_c10_nonexistence_trend():
    params = make_params(0.5, 2.0, 1.0, 0.5)
    grid = build_grid(0.0, 1.0, 1024, 4.0)
    table = nonexistence_scan(
        params, [0.6, 0.8, 0.9, 0.95], grid, eps0=0.5, halvings=14, tol=1e-4
    )
    quotient_ratio = table.quotients[3] / table.quotients[1]
    ok = table.exponents_decreasing() and quotient_ratio >= 2.0
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] C10 nonexistence trend: exponents "
        f"{['%.4f' % e for e in table.exponents]} decreasing, "
        f"hardy(0.95)/hardy(0.8) = {quotient_ratio:.2f} >= 2"
    )
    assert table.exponents_decreasing()
    assert quotient_ratio >= 2.0


def test_c11_property_suite():
    rng = np.random.default_rng(7)

    # updiff oddness and monotonicity on 1e4 random triples
    a = rng.uniform(-10, 10, 10000)
    b = rng.uniform(-10, 10, 10000)
    p = rng.uniform(1.05, 5.0, 10000)
    odd_ok = True
    mono_ok = True
    for ai, bi, pi in zip(a, b, p):
        u1, u2 = updiff(ai, bi, pi), updiff(bi, ai, pi)
        odd_ok &= abs(u1 + u2) <= 1e-12 * max(1.0, abs(u1))
        mono_ok &= updiff(ai + 0.5, bi, pi) > u1

    # discrete-energy gradient against finite differences at n = 32
    grid = build_grid(0.0, 1.0, 32, 1.5)
    op = assemble_operator(grid, 0.5, 2.0)
    v = rng.uniform(-1, 1, 32)
    grad = op.apply(v)
    fd = np.empty(32)
    h = 1e-6
    for i in range(32):
        vp, vm = v.copy(), v.copy()
        vp[i] += h
        vm[i] -= h
        fd[i] = (op.energy_over_p(vp) - op.energy_over_p(vm)) / (2 * h)
    grad_ok = np.abs(fd - grad).max() <= 1e-6 * np.abs(grad).max()

    # degree-(p-1) homogeneity, exact to 1e-12
    op3 = assemble_operator(grid, 0.5, 3.0)
    w = rng.uniform(0, 1, 32)
    lhs = op3.apply(2.0 * w)
    rhs = 4.0 * op3.apply(w)
    homog_ok = np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    # elementary inequality (1e4 samples) and convex composition (100 vectors)
    rep = inequality_props(seed=20240817, samples=10000, n=96, n_test_vectors=100)

    ok = odd_ok and mono_ok and grad_ok and homog_ok and rep.passed
    record_criterion(
        f"[{'PASS' if ok else 'FAIL'}] C11 property suite: updiff odd/monotone, "
        f"gradient-vs-FD, homogeneity, power gap {rep.power_gap_failures} fails, "
        f"composition {rep.composition_failures} fails"
    )
    assert odd_ok and mono_ok
    assert grad_ok
    assert homog_ok
    assert rep.power_gap_failures == 0
    assert rep.composition_failures == 0
