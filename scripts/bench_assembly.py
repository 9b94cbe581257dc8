#!/usr/bin/env python3
"""Layer timings: operator assembly and its fold, the pair sweep and the
Hessian pass of a Newton step, a torsion solve, principal-value probes and
three continuations.

Times `assemble_operator` (s = 1/2, graded mesh of [0, 1] with grading 2) at
each n and p, five times each, alone ("assemble") and followed by building
`DiscreteOperator.folded` ("assemble_folded"), the operator every solve
runs on; prints next to the times the fold store's pairs that Gauss rules
integrate, in the band of gaps next to the diagonal, and those beyond it,
which low-rank far blocks give (`pairs`: band, near, far, far_blocks), the
peak RSS of one assembly and of its fold, each read in a fresh process that
imported fracp and built the mesh (`rss_mb`: import and mesh, assemble,
folded), the CPU time and minor page faults that `getrusage` counts over
that first assembly of the process (`cold`), and, untimed after the
runs, the mirror defect of the operator's w, b and m: the largest
|a - a mirrored| / a over the positive entries, with w mirrored as
w[n-1-i, n-1-j]; w is built on request, so its defect is left out at
n = 8192, where w alone is 512 MB.  Times `DiscreteOperator.folded` alone
("folded", its cache bypassed) five times on one assembly per n in FOLD_NS
(s = 1/2, p = 2, grading 2), in milliseconds.  The two passes of a Newton
step on the operator a solve runs on (the folded h x h one, h = ceil(n/2),
smoothed at mu = `solver.MU_FLOOR` for p < 2) at n = 1024 and 2048 for each p:
`energy_and_apply`, the one pair sweep per line-search trial ("sweep"), and
`hessian` into a buffer of the solver's dtype (float32 at p = 2), both
working in the solver's kept scratch, on the left half of the profile
(x (1 - x))**(1/2), three
repeats of ten calls each, in milliseconds per call; on the n = 2048 mesh of
grading 2, for s = 1/2 and p = 2, the torsion solve `solve_fixed_rhs` with
f = 1, three times, and one `eval_fplap_pv` probe at x = 0.37, three times
each, one per exterior kind: the torsion function (zero exterior) and the Super and U
barriers (alpha = 1/4, lambda = 1/10), with the points each probe evaluates
u at (`u_evaluations`); the case-2 probe set, every `eval_fplap_pv` call
that `fracp barrier-check` and `fracp compare` make on
`configs/boundary_case2.json` (the U barrier on the n = 1024 power chart,
and the Super barrier on n = 1024 and 2048 in each boundary-barrier
check), recorded once and replayed PV_REPEATS times: the CPU time of each
replay, the points u is evaluated at per probe, and the largest
tracemalloc peak of one probe above what it started with; and three continuations (s = 1/2,
gamma = 1, delta = 1/2, eps0 = 1/2, tol = 1e-4, default grading), each with
the minor page faults and user and system time that `getrusage` counts over
it and the Cholesky factorizations, CG steps and objective evaluations its
solves made:
- p = 3, n = 512, 12 halvings: the continuation of the benchmark's fine_mesh
  workload;
- p = 2, n = 1024, 20 halvings: the case-2 continuation of
  `configs/boundary_case2.json`;
- p = 1.5, n = 1024, 18 halvings: the p < 2 solver, the slow path.
Also times `import fracp.cli` in 7 fresh processes (the least is the
start-up figure) and the oracle experiment's 45-case `phi_constant` sweep
(the defaults of `fracp.cli.DEFAULTS["oracle"]`) three times, the first in
a process that has computed no Phi yet.
Prints one JSON object.  One BLAS thread gives the steadiest numbers:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/bench_assembly.py
"""

import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

from fracp import barrier, cli, kernel, solver
from fracp import (
    BarrierSpec,
    assemble_operator,
    barrier_profile,
    build_grid,
    continuation,
    eval_fplap_pv,
    make_params,
    phi_constant,
    solve_fixed_rhs,
)
from fracp.cli import DEFAULTS
from fracp.core import GridFunction, default_grading, mirror_left_half

NS = (64, 128, 192, 256, 1024, 2048, 4096, 8192)
PS = (1.5, 2.0, 3.0)
REPEATS = 3
ASSEMBLY_REPEATS = 5
#: largest n whose full w the mirror defect reads
DEFECT_N_MAX = 4096
FOLD_NS = (256, 512, 2048)
SWEEP_NS = (1024, 2048)
SWEEP_CALLS = 10
IMPORT_PROCESSES = 7
PV_REPEATS = 5
CASE2 = Path(__file__).resolve().parent.parent / "configs" / "boundary_case2.json"


def mirror_defect(a):
    pos = a > 0.0
    return float((np.abs(a - np.flip(a))[pos] / a[pos]).max())


def cold_assembly(n, p):
    """One assembly in a fresh process, the first it makes: the peak RSS in
    MB after import and mesh, after the assembly and after its fold, from
    VmHWM of /proc/self/status (Linux), since a child's ru_maxrss starts
    from the RSS of the process that spawned it; and the assembly's CPU
    time (user and system) and minor page faults."""
    code = ("import resource\n"
            "from fracp import assemble_operator, build_grid\n"
            "def mb(): return round(int(next(line for line in open('/proc/self/status')\n"
            "    if line.startswith('VmHWM:')).split()[1]) / 1024, 1)\n"
            f"grid = build_grid(0.0, 1.0, {n}, 2.0); base = mb()\n"
            "r0 = resource.getrusage(resource.RUSAGE_SELF)\n"
            f"op = assemble_operator(grid, 0.5, {p})\n"
            "r1 = resource.getrusage(resource.RUSAGE_SELF); assembled = mb()\n"
            "op.folded; print(base, assembled, mb(),\n"
            "    r1.ru_utime + r1.ru_stime - r0.ru_utime - r0.ru_stime, r1.ru_minflt - r0.ru_minflt)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    rss = dict(zip(("import_and_mesh", "assemble", "folded"), map(float, out)))
    return rss, {"cpu_ms": round(1e3 * float(out[3]), 2), "minor_faults": int(out[4])}


def pair_counts(grid):
    """The band of gaps j - i that assembly integrates by Gauss rules, the
    fold store's pairs in it and beyond it (half of each diagonal d of w,
    (n - d + 1) // 2 pairs), and the number of far blocks."""
    n = grid.n
    _, _, far, band = kernel._far_partition(grid, mirror_left_half(np.diff(grid.edges)))
    per_gap = (n - np.arange(1, n) + 1) // 2
    return {"band": band, "near": int(per_gap[:band].sum()), "far": int(per_gap[band:].sum()),
            "far_blocks": len(far)}


def time_assembly():
    rows = []
    for n in NS:
        grid = build_grid(0.0, 1.0, n, 2.0)
        for p in PS:
            runs, folded_runs = [], []
            for _ in range(ASSEMBLY_REPEATS):
                t0 = time.perf_counter()
                op = assemble_operator(grid, 0.5, p)
                t1 = time.perf_counter()
                op.folded
                folded_runs.append(time.perf_counter() - t0)
                runs.append(t1 - t0)
                del op
            row = {"n": n, "p": p, "pairs": pair_counts(grid)}
            for name, ts in (("assemble", runs), ("assemble_folded", folded_runs)):
                row[name] = {"runs_s": [round(t, 4) for t in ts], "min_s": round(min(ts), 4),
                             "median_s": round(statistics.median(ts), 4)}
            row["rss_mb"], row["cold"] = cold_assembly(n, p)
            op = assemble_operator(grid, 0.5, p)
            arrays = [("b", op.b), ("m", op.m)] + ([("w", op.w)] if n <= DEFECT_N_MAX else [])
            row["mirror_defect"] = {name: float(f"{mirror_defect(a):.2e}") for name, a in arrays}
            del op
            rows.append(row)
    return rows


def time_folded():
    rows = []
    for n in FOLD_NS:
        op = assemble_operator(build_grid(0.0, 1.0, n, 2.0), 0.5, 2.0)
        fold = type(op).folded.func  # the body of the cached property, uncached
        runs = []
        for _ in range(ASSEMBLY_REPEATS):
            t0 = time.perf_counter()
            fold(op)
            runs.append(time.perf_counter() - t0)
        rows.append({"n": n, "runs_ms": [round(1e3 * t, 3) for t in runs],
                     "min_ms": round(1e3 * min(runs), 3)})
    return rows


def time_sweep_hessian():
    rows = []
    for n in SWEEP_NS:
        grid = build_grid(0.0, 1.0, n, 2.0)
        for p in PS:
            # the operator every solve runs on: the folded one, smoothed at
            # mu = MU_FLOOR for p < 2, with the Hessian buffer of its dtype
            half = assemble_operator(grid, 0.5, p).folded
            if p < 2.0:
                half = dataclasses.replace(half, mu=solver.MU_FLOOR)
            factor = solver._Factor.for_operator(half)
            out = factor.buffer
            v = np.sqrt(grid.nodes * (1.0 - grid.nodes))[: half.n]
            row = {"n": n, "h": half.n, "p": p, "mu": half.mu, "hessian_dtype": out.dtype.name}
            for name, call in (("sweep", lambda: half.energy_and_apply(v, factor.scratch)),
                               ("hessian", lambda: half.hessian(v, out, factor.scratch))):
                runs = []
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    for _ in range(SWEEP_CALLS):
                        call()
                    runs.append((time.perf_counter() - t0) / SWEEP_CALLS)
                row[f"{name}_median_ms"] = round(1e3 * statistics.median(runs), 4)
            rows.append(row)
    return rows


def u_evaluations(probe):
    """The points GridFunction evaluates u at while probe() runs."""
    count, call = 0, GridFunction.__call__

    def counted(self, z):
        nonlocal count
        count += np.size(z)
        return call(self, z)

    GridFunction.__call__ = counted
    try:
        probe()
    finally:
        GridFunction.__call__ = call
    return count


def time_torsion_and_pv_probes():
    grid = build_grid(0.0, 1.0, 2048, 2.0)
    spec = BarrierSpec(alpha=0.25, lam=0.1, s=0.5, p=2.0)
    op = assemble_operator(grid, 0.5, 2.0)
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        torsion = solve_fixed_rhs(op, np.ones(grid.n)).u
        runs.append(time.perf_counter() - t0)
    solve = {"runs_s": [round(t, 4) for t in runs], "median_s": round(statistics.median(runs), 4)}
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
                     "median_ms": round(1e3 * statistics.median(runs), 3),
                     "u_evaluations": u_evaluations(lambda: eval_fplap_pv(u, 0.37, 0.5, 2.0))})
    return solve, rows


def case2_probes():
    """The arguments (u, x, s, p) of every eval_fplap_pv call of the
    barrier-check and compare experiments on configs/boundary_case2.json."""
    run = cli._Run(cli.load_config(str(CASE2)))
    probes, real = [], barrier.eval_fplap_pv
    barrier.eval_fplap_pv = lambda *args: probes.append(args) or real(*args)
    try:
        for name in ("barrier-check", "compare"):
            cli.EXPERIMENTS[name](run)
    finally:
        barrier.eval_fplap_pv = real
    return probes


def time_case2_probes():
    probes = case2_probes()

    def replay():
        for args in probes:
            eval_fplap_pv(*args)

    runs = []
    for _ in range(PV_REPEATS):
        t0 = time.process_time()
        replay()
        runs.append(time.process_time() - t0)
    peak = 0
    tracemalloc.start()
    for args in probes:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        eval_fplap_pv(*args)
        peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    tracemalloc.stop()
    groups = Counter(f"{type(u.exterior).__name__} n={u.grid.n}" for u, *_ in probes)
    return {"probes": len(probes), "groups": dict(groups),
            "cpu_ms_runs": [round(1e3 * t, 2) for t in runs],
            "cpu_ms_min": round(1e3 * min(runs), 2),
            "cpu_ms_median": round(1e3 * statistics.median(runs), 2),
            "u_evaluations_per_probe": round(u_evaluations(replay) / len(probes), 1),
            "temporaries_peak_mb": round(peak / 2**20, 3)}


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
            "cg_steps": sum(r.cg_steps for r in results),
            "evaluations": sum(r.evaluations for r in results)}


def time_import():
    code = "import time; t0 = time.perf_counter(); import fracp.cli; print(time.perf_counter() - t0)"
    runs = [float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 check=True).stdout)
            for _ in range(IMPORT_PROCESSES)]
    return {"runs_s": [round(t, 4) for t in runs], "min_s": round(min(runs), 4)}


def time_phi_sweep():
    ob = DEFAULTS["oracle"]
    cases = [(f * s, s, p) for s in ob["s_list"] for p in ob["p_list"] for f in ob["alpha_fracs"]]
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for case in cases:
            phi_constant(*case)
        runs.append(time.perf_counter() - t0)
    return {"cases": len(cases), "runs_ms": [round(1e3 * t, 3) for t in runs],
            "median_ms": round(1e3 * statistics.median(runs), 3)}


def main():
    # the continuations first, in a fresh process, so the page faults of the
    # p = 3 one are its own
    p3 = time_continuation(3.0, 512, 12)
    p2 = time_continuation(2.0, 1024, 20)
    p15 = time_continuation(1.5, 1024, 18)
    phi = time_phi_sweep()
    torsion, pv = time_torsion_and_pv_probes()
    print(json.dumps({"import_fracp_cli": time_import(),
                      "phi_sweep": phi,
                      "p3_continuation_n512": p3,
                      "p2_case2_continuation_n1024": p2,
                      "p15_continuation_n1024": p15,
                      "folded": time_folded(),
                      "sweep_hessian": time_sweep_hessian(),
                      "torsion_solve_n2048": torsion,
                      "pv_probe_n2048": pv,
                      "pv_case2_probes": time_case2_probes(),
                      "assemble_operator": time_assembly()}))


if __name__ == "__main__":
    main()
