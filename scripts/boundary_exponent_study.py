#!/usr/bin/env python3
"""Solve a singular preset by epsilon-continuation and report how the fitted
boundary exponent tracks the predicted one as the mesh refines, with the
last eps increment of each continuation (converged when at most 1e-4).

Usage: python3 scripts/boundary_exponent_study.py [--gamma G] [--delta D]
"""

import argparse
import time

from fracp import (
    build_grid,
    classify_regime,
    continuation,
    default_grading,
    fit_boundary_exponent,
    make_params,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--s", type=float, default=0.5)
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--delta", type=float, default=0.5)
    ap.add_argument("--sizes", type=int, nargs="+", default=[128, 256, 512, 1024])
    args = ap.parse_args()

    params = make_params(args.s, args.p, args.gamma, args.delta)
    report = classify_regime(params)
    ref = report.reference_exponent(params.s)
    q = default_grading(params)
    print(
        f"case {report.case_flag}, alpha*={report.alpha_star:.4f}, "
        f"reference exponent {ref:.4f}, grading {q:.2f}"
    )
    print(f"{'n':>6} {'slope':>9} {'dev':>9} {'eps_final':>10} {'last_inc':>9} {'time':>7}")
    for n in args.sizes:
        grid = build_grid(params.a, params.b, n, q)
        t0 = time.time()
        results, u_min, incs = continuation(params, grid, halvings=20, tol=1e-4)
        fit = fit_boundary_exponent(u_min, params)
        print(
            f"{n:6d} {fit.slope:9.4f} {abs(fit.slope - ref):9.4f} "
            f"{results[-1].eps:10.2e} {incs[-1]:9.2e} {time.time() - t0:6.1f}s"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
