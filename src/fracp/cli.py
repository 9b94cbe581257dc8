"""Command-line orchestration: JSON config in, report.json and CSV tables out.

Subcommands: classify, oracle, barrier-check, solve, exponent-fit,
sobolev-scan, nonexistence-scan, compare, all.  Exit code 0 when every
enabled check passes, 2 on a check failure, 1 on usage or config errors.
Reruns of an unchanged config byte-reproduce all CSV and plotdata artifacts
(report.json additionally carries wall-clock timings).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core import build_grid, classify_regime, default_grading, make_params
from .errors import ConfigParse, FracpError
from .kernel import phi_constant
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
    default_fit_window,
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
    "solver": {"eps0": 0.5, "halvings": 12, "tol": 1e-4, "solver_tol": 1e-10},
    "analysis": {
        "theta_list": [1.0],
        "n_list": [64, 128, 256],
        "fit_window": "auto",
        "delta_list": [0.6, 0.8, 0.9, 0.95],
    },
    "barrier": {"alpha": "auto", "lambda": "auto", "rho": 0.5, "eta": 0.1, "tol": 1e-3},
    "oracle": {
        "alpha_fracs": [0.1, 0.3, 0.5, 0.7, 0.9],
        "s_list": [0.3, 0.5, 0.7],
        "p_list": [1.5, 2.0, 3.0],
        "tol": 1e-8,
    },
    "output": {"directory": "out", "formats": ["csv", "json"]},
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


def _or_auto(rule):
    what, test = rule
    return (f'"auto" or {what}', lambda v: v == "auto" or test(v))


def _list_of(rule, length=None):
    what, test = rule
    size = f"{length} entries" if length else "a nonempty list"
    return (
        f"{size}, each {what}",
        lambda v: isinstance(v, list)
        and len(v) > 0
        and (length is None or len(v) == length)
        and all(test(x) for x in v),
    )


RULES = {
    "params": {key: _REAL for key in DEFAULTS["params"]},
    "grid": {"n": _COUNT, "grading": _or_auto(_REAL)},
    "solver": {
        "eps0": _POSITIVE,
        "halvings": _COUNT,
        "tol": _POSITIVE,
        "solver_tol": _POSITIVE,
    },
    "analysis": {
        "theta_list": _or_auto(_list_of(_REAL)),
        "n_list": _list_of(_COUNT),
        "fit_window": _or_auto(_list_of(_NONNEGATIVE, 2)),
        "delta_list": _list_of(_REAL),
    },
    "barrier": {
        "alpha": _or_auto(_REAL),
        "lambda": _or_auto(_NONNEGATIVE),
        "rho": _POSITIVE,
        "eta": _POSITIVE,
        "tol": _POSITIVE,
    },
    "oracle": {
        "alpha_fracs": _list_of(_REAL),
        "s_list": _list_of(_REAL),
        "p_list": _list_of(_REAL),
        "tol": _POSITIVE,
    },
    "output": {"directory": _TEXT, "formats": _list_of(_TEXT)},
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


def _params(cfg):
    pb = cfg["params"]
    return make_params(pb["s"], pb["p"], pb["gamma"], pb["delta"], pb["a"], pb["b"])


def _grid(cfg, params):
    gb = cfg["grid"]
    q = default_grading(params) if gb["grading"] == "auto" else float(gb["grading"])
    return build_grid(params.a, params.b, int(gb["n"]), q)


def _barrier_spec(cfg, params, report, lam_fallback):
    bb = cfg["barrier"]
    if bb["alpha"] == "auto":
        alpha = report.alpha_star if report.case_flag == "CaseAlphaStar" else 0.5 * report.alpha_star0
        alpha = min(max(alpha, 1e-3), 0.95 * params.s)
    else:
        alpha = float(bb["alpha"])
    lam = lam_fallback if bb["lambda"] == "auto" else float(bb["lambda"])
    return BarrierSpec(alpha=alpha, lam=lam, rho=float(bb["rho"]), s=params.s, p=params.p)


def _continuation(cfg, params, grid):
    sb = cfg["solver"]
    return continuation(
        params,
        grid,
        eps0=float(sb["eps0"]),
        halvings=int(sb["halvings"]),
        tol=float(sb["tol"]),
        solver_tol=float(sb["solver_tol"]),
    )


def _converged(increments, cfg) -> bool:
    """Every continuation's last increment is at most solver.tol."""
    return all(inc <= float(cfg["solver"]["tol"]) for inc in increments)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _exp_classify(cfg, outdir, formats):
    params = _params(cfg)
    report = classify_regime(params)
    rec = {
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
    return True, rec


def _exp_oracle(cfg, outdir, formats):
    ob = cfg["oracle"]
    rows = []
    all_ok = True
    for s in ob["s_list"]:
        for p in ob["p_list"]:
            for frac in ob["alpha_fracs"]:
                o = phi_constant(frac * s, s, p, tol=float(ob["tol"]))
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


def _exp_barrier_check(cfg, outdir, formats):
    params = _params(cfg)
    report = classify_regime(params)
    grid = _grid(cfg, params)
    bb = cfg["barrier"]
    lam = 0.05 if bb["lambda"] == "auto" else float(bb["lambda"])
    spec = _barrier_spec(cfg, params, report, lam)
    rec1 = verify_power_estimate(spec.alpha, params.s, params.p, spec.lam, n=max(grid.n, 512))
    rec2 = verify_boundary_barrier(params, spec, grid, float(bb["eta"]))
    rows = []
    for rec in (rec1, rec2):
        for key, val in rec.details.items():
            if isinstance(val, (int, float, bool, np.floating, np.integer, np.bool_)):
                rows.append({"check": rec.name, "quantity": key, "value": val, "passed": rec.passed})
    if "csv" in formats:
        write_csv(outdir / "barrier_check.csv", ["check", "quantity", "value", "passed"], rows)
    ok = rec1.passed and rec2.passed
    return ok, {"power_estimate": rec1.to_dict(), "boundary_barrier": rec2.to_dict()}


def _exp_solve(cfg, outdir, formats):
    params = _params(cfg)
    grid = _grid(cfg, params)
    results, u_min, incs = _continuation(cfg, params, grid)
    last = results[-1]
    converged = _converged(incs[-1:], cfg)
    ok = last.positivity_ok and converged
    if "csv" in formats:
        rows = [{"x": x, "u": u} for x, u in zip(grid.nodes, u_min.values)]
        write_csv(outdir / "solution.csv", ["x", "u"], rows)
    if "plotdata" in formats:
        write_plotdata(outdir / "solution_profile.dat", grid.nodes, u_min.values)
        if incs:
            write_plotdata(outdir / "increments.dat", range(1, len(incs) + 1), incs)
    return ok, {
        "solves": len(results),
        "final_eps": float(cfg["solver"]["eps0"]) * 2.0 ** -(len(results) - 1),
        "increments": [float(i) for i in incs],
        "continuation_converged": converged,
        "final_residual": last.residual,
        "positivity_margin": last.positivity_margin,
        "iterations_total": int(sum(r.iterations for r in results)),
    }


def _fit_band(report, s):
    # CaseS admits d^s from below and d^(s-eps) from above; the strongly
    # singular case pins alpha_star on both sides
    if report.case_flag == "CaseS":
        return (s - 0.1, s + 0.05)
    return (report.alpha_star - 0.05, report.alpha_star + 0.05)


def _exp_exponent_fit(cfg, outdir, formats):
    params = _params(cfg)
    report = classify_regime(params)
    grid = _grid(cfg, params)
    _, u_min, _ = _continuation(cfg, params, grid)
    fw = cfg["analysis"]["fit_window"]
    window = default_fit_window(grid) if fw == "auto" else (float(fw[0]), float(fw[1]))
    fit = fit_boundary_exponent(u_min, window=window, params=params)
    lo, hi = _fit_band(report, params.s)
    ok = lo <= fit.slope_left <= hi and lo <= fit.slope_right <= hi
    if "csv" in formats:
        write_csv(
            outdir / "exponent_fit.csv",
            ["side", "d_lo", "d_hi", "slope", "reference", "deviation", "residual"],
            fit.rows(),
        )
    if "plotdata" in formats:
        mask = (grid.nodes - grid.a >= window[0]) & (grid.nodes - grid.a <= window[1])
        write_plotdata(outdir / "boundary_left.dat", grid.nodes[mask] - grid.a, u_min.values[mask])
    return ok, {
        "slope_left": fit.slope_left,
        "slope_right": fit.slope_right,
        "reference": fit.reference,
        "band": [lo, hi],
        "window": list(fit.window),
    }


def _exp_sobolev_scan(cfg, outdir, formats):
    params = _params(cfg)
    ab, sb, gb = cfg["analysis"], cfg["solver"], cfg["grid"]
    grading = None if gb["grading"] == "auto" else float(gb["grading"])
    thetas = suggested_theta_list(params) if ab["theta_list"] == "auto" else ab["theta_list"]
    table = sobolev_scan(
        params,
        thetas,
        ab["n_list"],
        eps0=float(sb["eps0"]),
        halvings=int(sb["halvings"]),
        tol=float(sb["tol"]),
        grading=grading,
    )
    converged = _converged(table.increments.values(), cfg)
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


def _exp_nonexistence(cfg, outdir, formats):
    params = _params(cfg)
    grid = _grid(cfg, params)
    ab, sb = cfg["analysis"], cfg["solver"]
    table = nonexistence_scan(
        params,
        ab["delta_list"],
        grid,
        eps0=float(sb["eps0"]),
        halvings=int(sb["halvings"]),
        tol=float(sb["tol"]),
    )
    decreasing = table.exponents_decreasing()
    converged = _converged([r["last_increment"] for r in table.rows], cfg)
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


def _exp_compare(cfg, outdir, formats):
    params = _params(cfg)
    report = classify_regime(params)
    grid = _grid(cfg, params)
    results, u_min, _ = _continuation(cfg, params, grid)
    eps_fin = float(cfg["solver"]["eps0"]) * 2.0 ** -(len(results) - 1)
    bb = cfg["barrier"]
    # matched scales: with alpha = alpha_star the barrier shift equals the
    # weight regularization length, so lambda = eps is the aligned choice
    lam = eps_fin if bb["lambda"] == "auto" else float(bb["lambda"])
    spec = _barrier_spec(cfg, params, report, lam)
    eta = float(bb["eta"])
    tol = float(bb["tol"])
    rec = verify_boundary_barrier(params, spec, grid, eta)
    c_sub, c_super = barrier_scales(
        u_min, params, spec.alpha, eta, rec.details["c5_hat"], rec.details["c6_hat"]
    )
    sub = barrier_profile(spec, grid, "Sub")
    sup = barrier_profile(spec, grid, "Super")
    u = u_min.values
    strip = grid.distance() < eta
    cmp_strip = comparison_check(
        c_sub * sub.values[strip], u[strip], c_super * sup.values[strip], tol=tol
    )
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
        "lambda": lam,
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
    bad = formats - {"csv", "json", "plotdata"}
    if bad:
        print(f"error: unknown output formats {sorted(bad)}", file=sys.stderr)
        return 1
    outdir.mkdir(parents=True, exist_ok=True)

    names = list(EXPERIMENTS) if subcommand == "all" else [subcommand]
    experiments = []
    overall = True
    t_start = time.time()
    for name in names:
        t0 = time.time()
        entry = {"id": name}
        try:
            ok, record = EXPERIMENTS[name](cfg, outdir, formats)
            entry["passed"] = bool(ok)
            entry["record"] = record
        except FracpError as exc:
            entry["passed"] = False
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
            print(f"error in experiment {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        entry["wall_time_s"] = time.time() - t0
        overall &= entry["passed"]
        experiments.append(entry)

    regime = _exp_classify(cfg, outdir, formats)[1]
    report = {
        "tool": {"name": "fracp", "version": __version__},
        "config": cfg,
        "seed": int(seed),
        "conventions": {
            "pv_includes_factor_2": True,
            "apply_is_gradient_of_energy_over_p": True,
            "deterministic_reductions": True,
        },
        "regime": regime,
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
