#!/usr/bin/env python3
"""Layer timings: operator assembly, operator apply and energy,
principal-value probes and two continuations.

Times `assemble_operator` (s = 1/2, graded mesh of [0, 1] with grading 2) at
each n and p, three times each, and prints next to each time the mirror
defect of the operator's w, b and m: the largest |a - a mirrored| / a over
the positive entries, with w mirrored as w[n-1-i, n-1-j];
`DiscreteOperator.apply` and `energy` of those operators at n = 1024 and
2048 for each p, on the profile (x (1 - x))**(1/2), three repeats of ten
calls each, in milliseconds per call; one `eval_fplap_pv` probe at x = 0.37,
three times each, for s = 1/2, p = 2 on the n = 2048 mesh of grading 2, one per
exterior kind: the torsion function (zero exterior) and the Super and U
barriers (alpha = 1/4, lambda = 1/10); and two continuations (s = 1/2, gamma = 1,
delta = 1/2, eps0 = 1/2, tol = 1e-4, default grading), each with the minor
page faults and user and system time that `getrusage` counts over it and the
Cholesky factorizations and CG steps its solves made:
- p = 3, n = 512, 12 halvings: the continuation of the benchmark's fine_mesh
  workload;
- p = 2, n = 1024, 20 halvings: the case-2 continuation of
  `configs/boundary_case2.json`.
Prints one JSON object.  One BLAS thread gives the steadiest numbers:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/bench_assembly.py
"""

import json
import resource
import statistics
import time

import numpy as np

from fracp import (
    BarrierSpec,
    assemble_operator,
    barrier_profile,
    build_grid,
    continuation,
    eval_fplap_pv,
    make_params,
    solve_fixed_rhs,
)
from fracp.core import default_grading

NS = (256, 1024, 2048, 4096)
PS = (1.5, 2.0, 3.0)
REPEATS = 3
APPLY_NS = (1024, 2048)
APPLY_CALLS = 10


def mirror_defect(a):
    pos = a > 0.0
    return float((np.abs(a - np.flip(a))[pos] / a[pos]).max())


def time_assembly():
    rows = []
    for n in NS:
        grid = build_grid(0.0, 1.0, n, 2.0)
        for p in PS:
            runs = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                op = assemble_operator(grid, 0.5, p)
                runs.append(time.perf_counter() - t0)
            rows.append({"n": n, "p": p, "runs_s": [round(t, 4) for t in runs],
                         "median_s": round(statistics.median(runs), 4),
                         "mirror_defect": {name: float(f"{mirror_defect(a):.2e}")
                                           for name, a in (("w", op.w), ("b", op.b),
                                                           ("m", op.m))}})
    return rows


def time_apply_energy():
    rows = []
    for n in APPLY_NS:
        grid = build_grid(0.0, 1.0, n, 2.0)
        v = np.sqrt(grid.nodes * (1.0 - grid.nodes))
        for p in PS:
            op = assemble_operator(grid, 0.5, p)
            row = {"n": n, "p": p}
            for name, method in (("apply", op.apply), ("energy", op.energy)):
                runs = []
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    for _ in range(APPLY_CALLS):
                        method(v)
                    runs.append((time.perf_counter() - t0) / APPLY_CALLS)
                row[f"{name}_median_ms"] = round(1e3 * statistics.median(runs), 4)
            rows.append(row)
    return rows


def time_pv_probes():
    grid = build_grid(0.0, 1.0, 2048, 2.0)
    spec = BarrierSpec(alpha=0.25, lam=0.1, rho=1.0, s=0.5, p=2.0)
    torsion = solve_fixed_rhs(assemble_operator(grid, 0.5, 2.0), np.ones(grid.n)).u
    rows = []
    for kind, u in (("Zero", torsion),
                    ("Super", barrier_profile(spec, grid, "Super")),
                    ("U", barrier_profile(spec, grid, "U"))):
        runs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            eval_fplap_pv(u, 0.37, 0.5, 2.0)
            runs.append(time.perf_counter() - t0)
        rows.append({"exterior": kind, "runs_ms": [round(1e3 * t, 3) for t in runs],
                     "median_ms": round(1e3 * statistics.median(runs), 3)})
    return rows


def time_continuation(p, n, halvings):
    params = make_params(0.5, p, 1.0, 0.5)
    grid = build_grid(params.a, params.b, n, default_grading(params))
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    results, _, _ = continuation(params, grid, eps0=0.5, halvings=halvings, tol=1e-4)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {"wall_s": round(wall, 4),
            "user_s": round(after.ru_utime - before.ru_utime, 4),
            "system_s": round(after.ru_stime - before.ru_stime, 4),
            "minor_faults": after.ru_minflt - before.ru_minflt,
            "newton_steps": sum(r.iterations for r in results),
            "factorizations": sum(r.factorizations for r in results),
            "cg_steps": sum(r.cg_steps for r in results)}


def main():
    # the continuations first, in a fresh process, so the page faults of the
    # p = 3 one are its own
    p3 = time_continuation(3.0, 512, 12)
    p2 = time_continuation(2.0, 1024, 20)
    print(json.dumps({"p3_continuation_n512": p3,
                      "p2_case2_continuation_n1024": p2,
                      "apply_energy": time_apply_energy(),
                      "pv_probe_n2048": time_pv_probes(),
                      "assemble_operator": time_assembly()}))


if __name__ == "__main__":
    main()
