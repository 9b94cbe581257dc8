#!/usr/bin/env python3
"""Continuations at p < 2 over a grid of problem parameters.

Runs `continuation` (from eps = 1/2, 10 halvings, tol = 1e-4, default solver
tolerance) for every s in S, p in P, gamma in GAMMAS and delta in DELTAS on
the n = N mesh of default grading, and prints one row per case: its status
(converged when the last increment is at most TOL, above-tol when the
continuation ran out of halvings first, or the error it raised), the eps
stages run, the Newton steps in all and in its worst stage, the
factorizations, the last increment, max u_min and the seconds taken.  A
summary line follows.  Exits 1 when any case did not converge.

    PYTHONPATH=src python3 scripts/p_below_two_sweep.py
"""

import itertools
import time

from fracp import build_grid, continuation, default_grading, make_params
from fracp.errors import FracpError

S = (0.3, 0.5, 0.8)
P = (1.2, 1.5, 1.8)
GAMMAS = (0.0, 1.0, 2.0)
DELTAS = (0.0, 0.2)
N = 96
HALVINGS = 10
TOL = 1e-4


def run_case(s, p, gamma, delta):
    """(results, u_min, increments) of one case's continuation."""
    params = make_params(s, p, gamma, delta)
    grid = build_grid(params.a, params.b, N, default_grading(params))
    return continuation(params, grid, halvings=HALVINGS, tol=TOL)


def main():
    print(f"{'s':>4} {'p':>4} {'gamma':>5} {'delta':>5}  {'status':<14} {'stages':>6} "
          f"{'steps':>5} {'worst':>5} {'facts':>5} {'last_inc':>9} {'max_u':>12} {'sec':>6}")
    ok = above = steps = worst = 0
    cases = list(itertools.product(S, P, GAMMAS, DELTAS))
    for s, p, gamma, delta in cases:
        t0 = time.perf_counter()
        head = f"{s:4.1f} {p:4.1f} {gamma:5.1f} {delta:5.1f}"
        try:
            results, u_min, incs = run_case(s, p, gamma, delta)
        except FracpError as exc:
            print(f"{head}  {type(exc).__name__:<14} {time.perf_counter() - t0:>55.2f}")
            continue
        its = [r.iterations for r in results]
        converged = incs[-1] <= TOL
        ok += converged
        above += not converged
        steps += sum(its)
        worst = max(worst, max(its))
        status = "converged" if converged else "above-tol"
        print(f"{head}  {status:<14} {len(results):6d} {sum(its):5d} {max(its):5d} "
              f"{sum(r.factorizations for r in results):5d} {incs[-1]:9.2e} "
              f"{u_min.values.max():12.9f} {time.perf_counter() - t0:6.2f}")
    print(f"\n{ok}/{len(cases)} converged, {above} stopped above tol {TOL:g}, "
          f"{len(cases) - ok - above} raised; {steps} Newton steps in the cases that "
          f"did not raise, at most {worst} in one stage")
    return 0 if ok == len(cases) else 1


if __name__ == "__main__":
    raise SystemExit(main())
