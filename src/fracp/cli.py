"""Command-line orchestration: JSON config in, report.json and CSV tables out.

Subcommands: classify, oracle, barrier-check, solve, exponent-fit,
sobolev-scan, nonexistence-scan, compare, all.  Exit code 0 when every
enabled check passes, 2 on a check failure, 1 on usage or config errors.
Reruns of an unchanged config byte-reproduce all CSV and plotdata artifacts
(report.json additionally carries wall-clock timings).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import CASE_ALPHA_STAR, CASE_S, build_grid, classify_regime, default_grading, make_params
from .errors import ConfigParse, FracpError, OutOfRange
from .kernel import assemble_operator, phi_constant
from .barrier import (
    BarrierSpec,
    barrier_profile,
    verify_boundary_barrier,
    verify_power_estimate,
)
from .solver import continuation
from .analysis import (
    barrier_scales,
    comparison_check,
    fit_boundary_exponent,
    nonexistence_scan,
    sobolev_scan,
    suggested_theta_list,
)

SUBCOMMANDS = (
    "classify",
    "oracle",
    "barrier-check",
    "solve",
    "exponent-fit",
    "sobolev-scan",
    "nonexistence-scan",
    "compare",
    "all",
)

DEFAULTS = {
    "params": {"s": 0.5, "p": 2.0, "gamma": 1.0, "delta": 0.5, "a": 0.0, "b": 1.0},
    "grid": {"n": 256, "grading": "auto"},
    "solver": {"eps0": 0.5, "halvings": 12, "tol": 1e-4},
    "analysis": {
        "theta_list": [1.0],
        "n_list": [64, 128, 256],
        "delta_list": [0.6, 0.8, 0.9, 0.95],
    },
    "barrier": {"alpha": "auto", "lambda": "auto", "rho": 0.5, "eta": 0.1},
    "oracle": {
        "alpha_fracs": [0.1, 0.3, 0.5, 0.7, 0.9],
        "s_list": [0.3, 0.5, 0.7],
        "p_list": [1.5, 2.0, 3.0],
    },
    "output": {"directory": "out", "formats": ["csv"]},
}


def _is_number(v, lo=-math.inf, strict=False, integer=False) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    if isinstance(v, float) and not (math.isfinite(v) and (v.is_integer() or not integer)):
        return False
    return v > lo if strict else v >= lo


# (description, test) per config value; ranges that depend on the problem
# (s in (0, 1), delta < s p, ...) stay with the modules that own them
_REAL = ("a number", _is_number)
_POSITIVE = ("a positive number", lambda v: _is_number(v, 0.0, strict=True))
_NONNEGATIVE = ("a nonnegative number", lambda v: _is_number(v, 0.0))
_COUNT = ("a positive integer", lambda v: _is_number(v, 1, integer=True))
_TEXT = ("a string", lambda v: isinstance(v, str))
_FORMAT = ('"csv" or "plotdata"', lambda v: v in ("csv", "plotdata"))


def _or_auto(rule):
    what, test = rule
    return (f'"auto" or {what}', lambda v: v == "auto" or test(v))


def _list_of(rule):
    what, test = rule
    return (
        f"a nonempty list, each {what}",
        lambda v: isinstance(v, list) and len(v) > 0 and all(test(x) for x in v),
    )


RULES = {
    "params": {key: _REAL for key in DEFAULTS["params"]},
    "grid": {"n": _COUNT, "grading": _or_auto(_REAL)},
    "solver": {
        "eps0": _POSITIVE,
        "halvings": _COUNT,
        "tol": _POSITIVE,
    },
    "analysis": {
        "theta_list": _or_auto(_list_of(_REAL)),
        "n_list": _list_of(_COUNT),
        "delta_list": _list_of(_REAL),
    },
    "barrier": {
        "alpha": _or_auto(_REAL),
        "lambda": _or_auto(_NONNEGATIVE),
        "rho": _POSITIVE,
        "eta": _POSITIVE,
    },
    "oracle": {
        "alpha_fracs": _list_of(_REAL),
        "s_list": _list_of(_REAL),
        "p_list": _list_of(_REAL),
    },
    "output": {"directory": _TEXT, "formats": _list_of(_FORMAT)},
}


def _merge_block(name: str, given: dict) -> dict:
    base = dict(DEFAULTS[name])
    for key, val in given.items():
        if key not in base:
            raise ConfigParse(f"unknown key {name}.{key!r}")
        what, test = RULES[name][key]
        if not test(val):
            raise ConfigParse(f"{name}.{key} must be {what}, got {val!r}")
        base[key] = val
    return base


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParse(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigParse("config document must be a JSON object")
    cfg = {}
    for name in raw:
        if name not in DEFAULTS:
            raise ConfigParse(f"unknown config block {name!r}")
    for name in DEFAULTS:
        block = raw.get(name, {})
        if not isinstance(block, dict):
            raise ConfigParse(f"config block {name!r} must be an object")
        cfg[name] = _merge_block(name, block)
    try:
        make_params(**cfg["params"])
    except OutOfRange as exc:
        raise ConfigParse(f"params: {exc}") from exc
    return cfg


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".12g")
    return str(v)


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[h]) for h in header))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_plotdata(path: Path, xs, ys) -> None:
    lines = [f"{_fmt(float(x))} {_fmt(float(y))}" for x, y in zip(xs, ys)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class _Run:
    """One run's config and the problem data its experiments share.

    params and regime are computed from the config at once; the grid, the
    operator assembled on it and the configured continuation on first use,
    after which every experiment reads the same values: the continuation and
    nonexistence-scan solve with the one operator.  A failure is not cached,
    so each experiment that needs the value raises it again.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.params = make_params(**cfg["params"])
        self.regime = classify_regime(self.params)

    @functools.cached_property
    def grid(self):
        gb, params = self.cfg["grid"], self.params
        q = default_grading(params) if gb["grading"] == "auto" else float(gb["grading"])
        return build_grid(params.a, params.b, int(gb["n"]), q)

    @functools.cached_property
    def operator(self):
        """The operator of (grid, s, p); it does not depend on delta or eps."""
        return assemble_operator(self.grid, self.params.s, self.params.p)

    @functools.cached_property
    def solution(self):
        """(results, u_min, increments) of the configured continuation."""
        sb = self.cfg["solver"]
        return continuation(
            self.params,
            self.grid,
            eps0=float(sb["eps0"]),
            halvings=int(sb["halvings"]),
            tol=float(sb["tol"]),
            op=self.operator,
        )

    def converged(self, increments) -> bool:
        """Every continuation's last increment is at most solver.tol."""
        return all(inc <= float(self.cfg["solver"]["tol"]) for inc in increments)

    def barrier_spec(self, lam_fallback) -> BarrierSpec:
        bb, params, report = self.cfg["barrier"], self.params, self.regime
        if bb["alpha"] == "auto":
            alpha = report.alpha_star if report.case_flag == CASE_ALPHA_STAR else 0.5 * report.alpha_star0
            alpha = min(max(alpha, 1e-3), 0.95 * params.s)
        else:
            alpha = float(bb["alpha"])
        lam = lam_fallback if bb["lambda"] == "auto" else float(bb["lambda"])
        return BarrierSpec(alpha=alpha, lam=lam, rho=float(bb["rho"]), s=params.s, p=params.p)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _regime_record(report) -> dict:
    return {
        "alpha_star": report.alpha_star,
        "alpha_star0": report.alpha_star0,
        "lambda_cap": report.lambda_cap,
        "uniq_threshold": report.uniq_threshold,
        "case_flag": report.case_flag,
        "existence_flag": report.existence_flag,
        "uniqueness_flag": report.uniqueness_flag,
        "sobolev_flag": report.sobolev_flag,
        "notes": list(report.notes),
    }


def _exp_classify(run, outdir, formats):
    return True, _regime_record(run.regime)


def _exp_oracle(run, outdir, formats):
    ob = run.cfg["oracle"]
    rows = []
    all_ok = True
    for s in ob["s_list"]:
        for p in ob["p_list"]:
            for frac in ob["alpha_fracs"]:
                o = phi_constant(frac * s, s, p)
                ok = o.c1 - 1e-10 <= o.phi <= o.c2 + 1e-10
                all_ok &= ok
                rows.append(
                    {
                        "alpha": o.alpha, "s": s, "p": p, "beta": o.beta,
                        "phi": o.phi, "c1": o.c1, "c2": o.c2, "pass": ok,
                    }
                )
    if "csv" in formats:
        write_csv(outdir / "phi_table.csv", ["alpha", "s", "p", "beta", "phi", "c1", "c2", "pass"], rows)
    return all_ok, {"cases": len(rows), "failures": sum(not r["pass"] for r in rows)}


def _exp_barrier_check(run, outdir, formats):
    params, grid = run.params, run.grid
    spec = run.barrier_spec(0.05)
    rec1 = verify_power_estimate(spec.alpha, params.s, params.p, spec.lam, n=max(grid.n, 512))
    rec2 = verify_boundary_barrier(params, spec, grid, float(run.cfg["barrier"]["eta"]))
    rows = []
    for rec in (rec1, rec2):
        for key, val in rec.details.items():
            if isinstance(val, (int, float, bool, np.floating, np.integer, np.bool_)):
                rows.append({"check": rec.name, "quantity": key, "value": val, "passed": rec.passed})
    if "csv" in formats:
        write_csv(outdir / "barrier_check.csv", ["check", "quantity", "value", "passed"], rows)
    ok = rec1.passed and rec2.passed
    return ok, {"power_estimate": rec1.to_dict(), "boundary_barrier": rec2.to_dict()}


def _exp_solve(run, outdir, formats):
    grid = run.grid
    results, u_min, incs = run.solution
    last = results[-1]
    converged = run.converged(incs[-1:])
    ok = last.positivity_ok and converged
    eps0 = float(run.cfg["solver"]["eps0"])
    if "csv" in formats:
        rows = [{"x": x, "u": u} for x, u in zip(grid.nodes, u_min.values)]
        write_csv(outdir / "solution.csv", ["x", "u"], rows)
    if "plotdata" in formats:
        write_plotdata(outdir / "solution_profile.dat", grid.nodes, u_min.values)
        if incs:
            write_plotdata(outdir / "increments.dat", range(1, len(incs) + 1), incs)
    return ok, {
        "solves": len(results),
        "final_eps": eps0 * 2.0 ** -(len(results) - 1),
        "increments": [float(i) for i in incs],
        "continuation_converged": converged,
        "positivity_margin": last.positivity_margin,
        "iterations_total": int(sum(r.iterations for r in results)),
        "stages": [
            {
                "eps": eps0 * 2.0**-k,
                "newton_steps": r.iterations,
                "factorizations": r.factorizations,
                "cg_steps": r.cg_steps,
                "residual": r.residual,
            }
            for k, r in enumerate(results)
        ],
    }


def _fit_band(report, s):
    # CaseS admits d^s from below and d^(s-eps) from above; the strongly
    # singular case pins alpha_star on both sides
    if report.case_flag == CASE_S:
        return (s - 0.1, s + 0.05)
    return (report.alpha_star - 0.05, report.alpha_star + 0.05)


def _exp_exponent_fit(run, outdir, formats):
    grid = run.grid
    _, u_min, _ = run.solution
    fit = fit_boundary_exponent(u_min, params=run.params)
    lo, hi = _fit_band(run.regime, run.params.s)
    ok = lo <= fit.slope_left <= hi and lo <= fit.slope_right <= hi
    if "csv" in formats:
        write_csv(
            outdir / "exponent_fit.csv",
            ["side", "d_lo", "d_hi", "slope", "reference", "deviation", "residual"],
            fit.rows(),
        )
    if "plotdata" in formats:
        lo_d, hi_d = fit.window
        mask = (grid.nodes - grid.a >= lo_d) & (grid.nodes - grid.a <= hi_d)
        write_plotdata(outdir / "boundary_left.dat", grid.nodes[mask] - grid.a, u_min.values[mask])
    return ok, {
        "slope_left": fit.slope_left,
        "slope_right": fit.slope_right,
        "reference": fit.reference,
        "band": [lo, hi],
        "window": list(fit.window),
    }


def _exp_sobolev_scan(run, outdir, formats):
    ab, sb, gb = run.cfg["analysis"], run.cfg["solver"], run.cfg["grid"]
    grading = None if gb["grading"] == "auto" else float(gb["grading"])
    thetas = suggested_theta_list(run.params) if ab["theta_list"] == "auto" else ab["theta_list"]
    table = sobolev_scan(
        run.params,
        thetas,
        ab["n_list"],
        eps0=float(sb["eps0"]),
        halvings=int(sb["halvings"]),
        tol=float(sb["tol"]),
        grading=grading,
    )
    converged = run.converged(table.increments.values())
    ok = all(table.consistent.values()) and table.classification_monotone() and converged
    rows = [
        {
            "theta": r["theta"], "n": r["n"], "energy": r["energy"],
            "slope": table.slopes[r["theta"]],
            "classification": table.classes[r["theta"]],
            "lambda_ref": table.lambda_cap,
        }
        for r in table.rows
    ]
    if "csv" in formats:
        write_csv(
            outdir / "sobolev_scan.csv",
            ["theta", "n", "energy", "slope", "classification", "lambda_ref"],
            rows,
        )
    if "plotdata" in formats:
        for theta in table.classes:
            pts = [(r["n"], r["energy"]) for r in table.rows if r["theta"] == theta]
            write_plotdata(
                outdir / f"sobolev_theta_{_fmt(theta)}.dat",
                [n for n, _ in pts],
                [e for _, e in pts],
            )
    return ok, {
        "lambda_cap": table.lambda_cap,
        "slopes": {str(k): v for k, v in table.slopes.items()},
        "classes": {str(k): v for k, v in table.classes.items()},
        "consistent": {str(k): bool(v) for k, v in table.consistent.items()},
        "last_increments": {str(k): v for k, v in table.increments.items()},
        "continuation_converged": converged,
    }


def _exp_nonexistence(run, outdir, formats):
    ab, sb = run.cfg["analysis"], run.cfg["solver"]
    table = nonexistence_scan(
        run.params,
        ab["delta_list"],
        run.grid,
        eps0=float(sb["eps0"]),
        halvings=int(sb["halvings"]),
        tol=float(sb["tol"]),
        op=run.operator,
    )
    decreasing = table.exponents_decreasing()
    converged = run.converged([r["last_increment"] for r in table.rows])
    ok = decreasing and converged
    if "csv" in formats:
        write_csv(
            outdir / "nonexistence_scan.csv",
            ["delta", "alpha_star", "fitted_exponent", "hardy_quotient"],
            table.rows,
        )
    if "plotdata" in formats:
        write_plotdata(
            outdir / "nonexistence_exponent.dat",
            [r["delta"] for r in table.rows],
            [r["fitted_exponent"] for r in table.rows],
        )
        write_plotdata(
            outdir / "nonexistence_hardy.dat",
            [r["delta"] for r in table.rows],
            [r["hardy_quotient"] for r in table.rows],
        )
    return ok, {
        "rows": table.rows,
        "exponents_decreasing": decreasing,
        "continuation_converged": converged,
    }


def _exp_compare(run, outdir, formats):
    params, grid = run.params, run.grid
    results, u_min, _ = run.solution
    bb = run.cfg["barrier"]
    # matched scales: with alpha = alpha_star the barrier shift equals the
    # weight regularization length, so lambda = eps is the aligned choice
    spec = run.barrier_spec(float(run.cfg["solver"]["eps0"]) * 2.0 ** -(len(results) - 1))
    eta = float(bb["eta"])
    rec = verify_boundary_barrier(params, spec, grid, eta)
    c_sub, c_super = barrier_scales(
        u_min, params, spec.alpha, eta, rec.details["c5_hat"], rec.details["c6_hat"]
    )
    sub = barrier_profile(spec, grid, "Sub")
    sup = barrier_profile(spec, grid, "Super")
    u = u_min.values
    strip = grid.distance() < eta
    cmp_strip = comparison_check(c_sub * sub.values[strip], u[strip], c_super * sup.values[strip])
    ok = cmp_strip.passed and rec.passed
    rows = [
        {
            "region": "strip",
            "max_sub_violation": cmp_strip.max_sub_violation,
            "max_super_violation": cmp_strip.max_super_violation,
            "c_sub": c_sub,
            "c_super": c_super,
            "passed": cmp_strip.passed,
        }
    ]
    if "csv" in formats:
        write_csv(
            outdir / "compare.csv",
            ["region", "max_sub_violation", "max_super_violation", "c_sub", "c_super", "passed"],
            rows,
        )
    return ok, {
        "lambda": spec.lam,
        "alpha": spec.alpha,
        "eta": eta,
        "c_sub": c_sub,
        "c_super": c_super,
        "max_sub_violation": cmp_strip.max_sub_violation,
        "max_super_violation": cmp_strip.max_super_violation,
        "barrier_record": rec.to_dict(),
    }


EXPERIMENTS = {
    "classify": _exp_classify,
    "oracle": _exp_oracle,
    "barrier-check": _exp_barrier_check,
    "solve": _exp_solve,
    "exponent-fit": _exp_exponent_fit,
    "sobolev-scan": _exp_sobolev_scan,
    "nonexistence-scan": _exp_nonexistence,
    "compare": _exp_compare,
}


def run(subcommand: str, config_path: str, out_dir: str | None = None, seed: int = 0) -> int:
    """Execute one subcommand; returns the process exit code."""
    if subcommand not in SUBCOMMANDS:
        print(f"error: unknown subcommand {subcommand!r}", file=sys.stderr)
        return 1
    try:
        cfg = load_config(config_path)
    except ConfigParse as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outdir = Path(out_dir if out_dir is not None else cfg["output"]["directory"])
    formats = set(cfg["output"]["formats"])
    outdir.mkdir(parents=True, exist_ok=True)

    shared = _Run(cfg)
    names = list(EXPERIMENTS) if subcommand == "all" else [subcommand]
    experiments = []
    overall = True
    t_start = time.time()
    for name in names:
        t0 = time.time()
        entry = {"id": name}
        try:
            ok, record = EXPERIMENTS[name](shared, outdir, formats)
            entry["passed"] = bool(ok)
            entry["record"] = record
        except FracpError as exc:
            entry["passed"] = False
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
            print(f"error in experiment {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        entry["wall_time_s"] = time.time() - t0
        overall &= entry["passed"]
        experiments.append(entry)

    report = {
        "tool": {"name": "fracp", "version": __version__},
        "config": cfg,
        "seed": int(seed),
        "conventions": {
            "pv_includes_factor_2": True,
            "apply_is_gradient_of_energy_over_p": True,
            "deterministic_reductions": True,
        },
        "regime": _regime_record(shared.regime),
        "experiments": experiments,
        "overall_passed": bool(overall),
        "timings": {"total_s": time.time() - t_start},
    }
    (outdir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n",
        encoding="utf-8",
    )
    return 0 if overall else 2


def _json_default(v):
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON serializable: {type(v)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracp",
        description="Verify singular fractional p-Laplacian estimates on an interval.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=0, help="seed echoed into the report")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 1
    return run(args.subcommand, args.config, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
