"""Command-line orchestration: JSON config in, report.json, CSV tables and
plotdata out.

Subcommands: classify, oracle, barrier-check, solve, exponent-fit,
sobolev-scan, nonexistence-scan, compare, all.  Each experiment returns its
named checks, its report record and its artifacts as data, a map from file
name to (header, rows) for a .csv table and to (xs, ys) for a .dat series;
run alone turns the checks into a state (see verdict), writes the artifacts
whose format the config's output.formats requests, and report.json always.
Exit code 0 when every experiment passed, 2 otherwise, 1 on usage or config
errors or an output directory or file that cannot be written.  Reruns of
an unchanged config byte-reproduce all CSV and plotdata artifacts
(report.json additionally carries wall-clock timings).

The run (_Run) owns every mesh, operator and configured continuation: a
ladder of rungs at the run's grading, one per n, the run grid's (grid.n) and
the scan meshes' (analysis.n_list) among them.  Experiments read rungs and
never assemble; nonexistence-scan alone solves, one continuation per delta on
the run grid's operator.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import _IMPORT_T0, __version__
from .core import CASE_ALPHA_STAR, CASE_S, build_grid, classify_regime, default_grading, make_params
from .errors import ConfigParse, FracpError, OutOfRange, RegimeError
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
    check_delta_list,
    comparison_check,
    fit_boundary_exponent,
    nonexistence_scan,
    sobolev_scan,
)

DEFAULTS = {
    "params": {"s": 0.5, "p": 2.0, "gamma": 1.0, "delta": 0.5, "a": 0.0, "b": 1.0},
    "grid": {"n": 256, "grading": "auto"},
    "solver": {"halvings": 12, "tol": 1e-4},
    "analysis": {
        "theta_list": [1.0],
        "n_list": [64, 128, 256],
        "delta_list": [0.6, 0.8, 0.9, 0.95],
    },
    "oracle": {
        "alpha_fracs": [0.1, 0.3, 0.5, 0.7, 0.9],
        "s_list": [0.3, 0.5, 0.7],
        "p_list": [1.5, 2.0, 3.0],
    },
    "output": {"directory": "out", "formats": ["csv"]},
}

#: width eta of the boundary strip in which barrier-check and compare probe
#: the barriers, as a fraction of |Omega| = b - a, like exponent-fit's window
_ETA = 0.1


def _is_number(v, lo=-math.inf, strict=False, integer=False) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    if isinstance(v, float) and not (math.isfinite(v) and (v.is_integer() or not integer)):
        return False
    return v > lo if strict else v >= lo


# (description, test) per config value; the params and grid blocks, the
# mesh of each analysis.n_list entry and the existence range of each
# analysis.delta_list entry the config gives are checked as a whole by
# make_params, build_grid and check_delta_list, and other ranges that
# depend on the problem stay with the modules that own them
_REAL = ("a number", _is_number)
_POSITIVE = ("a positive number", lambda v: _is_number(v, 0.0, strict=True))
_NONNEGATIVE = ("a nonnegative number", lambda v: _is_number(v, 0.0))
_COUNT = ("a positive integer", lambda v: _is_number(v, 1, integer=True))
_FRACTION = ("a number in (0, 1)", lambda v: _is_number(v, 0.0, strict=True) and v < 1.0)
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


def _increasing(v) -> bool:
    return all(a < b for a, b in zip(v, v[1:]))


RULES = {
    "params": {key: _REAL for key in DEFAULTS["params"]},
    "grid": {"n": _COUNT, "grading": _or_auto(_REAL)},
    "solver": {
        "halvings": ("an integer >= 2", lambda v: _is_number(v, 2, integer=True)),
        "tol": _POSITIVE,
    },
    "analysis": {
        "theta_list": (
            "a nonempty list of distinct numbers >= 1",
            lambda v: _list_of(_REAL)[1](v) and min(v) >= 1.0 and len(set(v)) == len(v),
        ),
        "n_list": (
            "an increasing list of at least 3 positive integers",
            lambda v: _list_of(_COUNT)[1](v) and len(v) >= 3 and _increasing(v),
        ),
        "delta_list": (
            "an increasing list of nonnegative numbers",
            lambda v: _list_of(_NONNEGATIVE)[1](v) and _increasing(v),
        ),
    },
    "oracle": {
        "alpha_fracs": _list_of(_FRACTION),
        "s_list": _list_of(_FRACTION),
        "p_list": _list_of(("a number > 1", lambda v: _is_number(v, 1.0, strict=True))),
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


def _grid(params, gb):
    """The mesh of a config's grid block for these params."""
    q = default_grading(params) if gb["grading"] == "auto" else float(gb["grading"])
    return build_grid(params.a, params.b, int(gb["n"]), q)


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
        params = make_params(**cfg["params"])
    except OutOfRange as exc:
        raise ConfigParse(f"params: {exc}") from exc
    try:
        _grid(params, cfg["grid"])
    except OutOfRange as exc:
        raise ConfigParse(f"grid: {exc}") from exc
    try:
        for n in cfg["analysis"]["n_list"]:
            _grid(params, {**cfg["grid"], "n": n})
    except OutOfRange as exc:
        raise ConfigParse(f"analysis.n_list: {exc}") from exc
    try:  # the default list is nonexistence-scan's to refuse, at its s p
        check_delta_list(params, raw.get("analysis", {}).get("delta_list", []))
    except RegimeError as exc:
        raise ConfigParse(f"analysis.delta_list: {exc}") from exc
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


def write_report(path: Path, report) -> None:
    path.write_text(
        json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n",
        encoding="utf-8",
    )


def _written(path: Path, write, *data) -> bool:
    """write(path, *data); on an OSError print one error line naming path
    and return False."""
    try:
        write(path, *data)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


#: output format and writer of each artifact suffix: a .csv artifact is
#: (header, rows), a .dat artifact (xs, ys)
_WRITERS = {".csv": ("csv", write_csv), ".dat": ("plotdata", write_plotdata)}


class _Rung:
    """The mesh of n nodes at the run's grading, the operator on it and the
    configured continuation there, each built on first use.  A failure is
    not cached, so each experiment that needs the value raises it again.
    assembly_s sums the seconds spent in assemble_operator, None before
    the first attempt."""

    def __init__(self, run, n):
        self.run, self.n = run, n
        self.assembly_s = None

    @functools.cached_property
    def grid(self):
        return _grid(self.run.params, {**self.run.cfg["grid"], "n": self.n})

    @functools.cached_property
    def operator(self):
        """The operator of (grid, s, p); it does not depend on delta or eps."""
        grid = self.grid
        t0 = time.perf_counter()
        try:
            return assemble_operator(grid, self.run.params.s, self.run.params.p)
        finally:
            self.assembly_s = (self.assembly_s or 0.0) + time.perf_counter() - t0

    @functools.cached_property
    def solution(self):
        """(results, u_min, increments) of the configured continuation."""
        sb = self.run.cfg["solver"]
        return continuation(self.run.params, self.grid, halvings=int(sb["halvings"]),
                            tol=float(sb["tol"]), op=self.operator)


class _Run:
    """One run's config and the problem data its experiments share.

    params and regime are computed from the config at once, and the rung of
    each n on first use.  base, the run grid's rung, serves solve,
    exponent-fit, compare and nonexistence-scan (through its operator);
    sobolev-scan reads the rungs of analysis.n_list, base among them when
    grid.n is listed.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.params = make_params(**cfg["params"])
        self.regime = classify_regime(self.params)
        self._rungs = {}

    def rung(self, n) -> _Rung:
        n = int(n)
        if n not in self._rungs:
            self._rungs[n] = _Rung(self, n)
        return self._rungs[n]

    @property
    def base(self) -> _Rung:
        return self.rung(self.cfg["grid"]["n"])

    def assembly_seconds(self) -> dict:
        """Seconds in assemble_operator by rung n, for the rungs that
        assembled or tried to."""
        return {str(n): r.assembly_s for n, r in sorted(self._rungs.items())
                if r.assembly_s is not None}

    def converged(self, increments) -> bool:
        """Every continuation's last increment is at most solver.tol."""
        return all(inc <= float(self.cfg["solver"]["tol"]) for inc in increments)

    def barrier_spec(self, lam) -> BarrierSpec:
        """The barrier of shift lam whose power is alpha* in Case alpha* and
        alpha*_0 / 2 otherwise, clamped to [1e-3, 0.95 s]."""
        params, report = self.params, self.regime
        alpha = report.alpha_star if report.case_flag == CASE_ALPHA_STAR else 0.5 * report.alpha_star0
        alpha = min(max(alpha, 1e-3), 0.95 * params.s)
        return BarrierSpec(alpha=alpha, lam=lam, s=params.s, p=params.p)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _exp_classify(run):
    return {}, dataclasses.asdict(run.regime), {}


def _exp_oracle(run):
    ob = run.cfg["oracle"]
    rows = []
    for s in ob["s_list"]:
        for p in ob["p_list"]:
            for frac in ob["alpha_fracs"]:
                o = phi_constant(frac * s, s, p)
                ok = o.c1 - 1e-10 <= o.phi <= o.c2 + 1e-10
                rows.append(
                    {
                        "alpha": o.alpha, "s": s, "p": p, "beta": o.beta,
                        "phi": o.phi, "c1": o.c1, "c2": o.c2, "pass": ok,
                    }
                )
    record = {"cases": len(rows), "failures": sum(not r["pass"] for r in rows)}
    files = {"phi_table.csv": (["alpha", "s", "p", "beta", "phi", "c1", "c2", "pass"], rows)}
    return {"phi_bracketed": all(r["pass"] for r in rows)}, record, files


def _exp_barrier_check(run):
    params, grid = run.params, run.base.grid
    spec = run.barrier_spec(0.05)
    rec1 = verify_power_estimate(spec.alpha, params.s, params.p, spec.lam, n=max(grid.n, 512))
    rec2 = verify_boundary_barrier(params, spec, grid, _ETA * (params.b - params.a))
    rows = []
    for rec in (rec1, rec2):
        for key, val in rec.details.items():
            if isinstance(val, (int, float, bool, np.floating, np.integer, np.bool_)):
                rows.append({"check": rec.name, "quantity": key, "value": val, "passed": rec.passed})
    checks = {"power_estimate": rec1.passed, "boundary_barrier": rec2.passed}
    record = {"power_estimate": rec1.to_dict(), "boundary_barrier": rec2.to_dict()}
    return checks, record, {"barrier_check.csv": (["check", "quantity", "value", "passed"], rows)}


def _stages(results):
    """One record per eps stage of a continuation."""
    return [
        {
            "eps": r.eps,
            "newton_steps": r.iterations,
            "factorizations": r.factorizations,
            "cg_steps": r.cg_steps,
            "evaluations": r.evaluations,
            "residual": r.residual,
            "newton_tol": r.newton_tol,
            "seconds": r.seconds,
        }
        for r in results
    ]


def _exp_solve(run):
    grid = run.base.grid
    results, u_min, incs = run.base.solution
    last = results[-1]
    checks = {"positive": last.positivity_ok, "continuation_converged": run.converged(incs[-1:])}
    record = {
        "solves": len(results),
        "final_eps": last.eps,
        "increments": [float(i) for i in incs],
        "positivity_margin": last.positivity_margin,
        "iterations_total": int(sum(r.iterations for r in results)),
        "stages": _stages(results),
    }
    files = {
        "solution.csv": (["x", "u"], [{"x": x, "u": u} for x, u in zip(grid.nodes, u_min.values)]),
        "solution_profile.dat": (grid.nodes, u_min.values),
        "increments.dat": (range(1, len(incs) + 1), incs),
    }
    return checks, record, files


def _fit_band(report, s):
    # CaseS admits d^s from below and d^(s-eps) from above; the strongly
    # singular case pins alpha_star on both sides
    if report.case_flag == CASE_S:
        return (s - 0.1, s + 0.05)
    return (report.alpha_star - 0.05, report.alpha_star + 0.05)


def _exp_exponent_fit(run):
    grid = run.base.grid
    _, u_min, incs = run.base.solution
    fit = fit_boundary_exponent(u_min, run.params)
    lo, hi = _fit_band(run.regime, run.params.s)
    checks = {"slope_in_band": lo <= fit.slope <= hi,
              "continuation_converged": run.converged(incs[-1:])}
    lo_d, hi_d = fit.window
    row = {
        "d_lo": lo_d, "d_hi": hi_d, "slope": fit.slope, "reference": fit.reference,
        "deviation": fit.slope - fit.reference, "residual": fit.residual,
    }
    mask = (grid.nodes - grid.a >= lo_d) & (grid.nodes - grid.a <= hi_d)
    record = {
        "slope": fit.slope,
        "reference": fit.reference,
        "band": [lo, hi],
        "window": list(fit.window),
    }
    files = {
        "exponent_fit.csv": (["d_lo", "d_hi", "slope", "reference", "deviation", "residual"], [row]),
        "boundary_left.dat": (grid.nodes[mask] - grid.a, u_min.values[mask]),
    }
    return checks, record, files


def _exp_sobolev_scan(run):
    ab = run.cfg["analysis"]
    rungs = [run.rung(n) for n in ab["n_list"]]
    table = sobolev_scan(run.params, ab["theta_list"], [(r.operator, r.solution) for r in rungs])
    checks = {"classes_consistent": all(table.consistent.values()),
              "continuation_converged": run.converged(table.increments.values())}
    rows = [
        {
            "theta": r["theta"], "n": r["n"], "energy": r["energy"],
            "slope": table.slopes[r["theta"]],
            "classification": table.classes[r["theta"]],
            "lambda_ref": table.lambda_cap,
        }
        for r in table.rows
    ]
    record = {
        "lambda_cap": table.lambda_cap,
        "slopes": {str(k): v for k, v in table.slopes.items()},
        "classes": {str(k): v for k, v in table.classes.items()},
        "consistent": {str(k): bool(v) for k, v in table.consistent.items()},
        "last_increments": {str(k): v for k, v in table.increments.items()},
        "stages": {str(r.n): _stages(r.solution[0]) for r in rungs},
    }
    files = {
        "sobolev_scan.csv": (
            ["theta", "n", "energy", "slope", "classification", "lambda_ref"], rows
        ),
    }
    for theta in table.classes:
        pts = [(r["n"], r["energy"]) for r in table.rows if r["theta"] == theta]
        files[f"sobolev_theta_{_fmt(theta)}.dat"] = ([n for n, _ in pts], [e for _, e in pts])
    return checks, record, files


def _exp_nonexistence(run):
    ab, sb = run.cfg["analysis"], run.cfg["solver"]
    table = nonexistence_scan(
        run.params,
        ab["delta_list"],
        run.base.operator,
        halvings=int(sb["halvings"]),
        tol=float(sb["tol"]),
    )
    checks = {"exponents_decreasing": table.exponents_decreasing(),
              "continuation_converged": run.converged([r["last_increment"] for r in table.rows])}
    record = {"rows": table.rows, "exponents_decreasing": checks["exponents_decreasing"]}
    deltas = [r["delta"] for r in table.rows]
    files = {
        "nonexistence_scan.csv": (
            ["delta", "alpha_star", "fitted_exponent", "hardy_quotient"], table.rows
        ),
        "nonexistence_exponent.dat": (deltas, [r["fitted_exponent"] for r in table.rows]),
        "nonexistence_hardy.dat": (deltas, [r["hardy_quotient"] for r in table.rows]),
    }
    return checks, record, files


def _exp_compare(run):
    params, grid = run.params, run.base.grid
    results, u_min, incs = run.base.solution
    # matched scales: with alpha = alpha_star the barrier shift equals the
    # weight regularization length, so lambda = eps is the aligned choice
    spec = run.barrier_spec(results[-1].eps)
    eta = _ETA * (params.b - params.a)
    rec = verify_boundary_barrier(params, spec, grid, eta)
    c_sub, c_super = barrier_scales(
        u_min, params, spec.alpha, eta, rec.details["c5_hat"], rec.details["c6_hat"]
    )
    sub = barrier_profile(spec, grid, "Sub")
    sup = barrier_profile(spec, grid, "Super")
    u = u_min.values
    strip = grid.distance() < eta
    cmp_strip = comparison_check(c_sub * sub.values[strip], u[strip], c_super * sup.values[strip])
    checks = {"bracketed": cmp_strip.passed, "boundary_barrier": rec.passed,
              "continuation_converged": run.converged(incs[-1:])}
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
    record = {
        "lambda": spec.lam,
        "alpha": spec.alpha,
        "eta": eta,
        "c_sub": c_sub,
        "c_super": c_super,
        "max_sub_violation": cmp_strip.max_sub_violation,
        "max_super_violation": cmp_strip.max_super_violation,
        "barrier_record": rec.to_dict(),
    }
    files = {
        "compare.csv": (
            ["region", "max_sub_violation", "max_super_violation", "c_sub", "c_super", "passed"],
            rows,
        ),
    }
    return checks, record, files


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

SUBCOMMANDS = (*EXPERIMENTS, "all")


def verdict(checks) -> str:
    """The state of an experiment from its named checks: "not-converged"
    when it has a continuation_converged check and that is false, else
    "failed" when any check is false, else "passed"."""
    if not checks.get("continuation_converged", True):
        return "not-converged"
    return "passed" if all(checks.values()) else "failed"


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
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {outdir}: {exc}", file=sys.stderr)
        return 1

    shared = _Run(cfg)
    names = list(EXPERIMENTS) if subcommand == "all" else [subcommand]
    experiments = []
    overall = True
    t_start = time.time()
    for name in names:
        t0 = time.time()
        entry = {"id": name}
        try:
            checks, record, files = EXPERIMENTS[name](shared)
            if "continuation_converged" in checks:
                record["continuation_converged"] = checks["continuation_converged"]
            entry.update(state=verdict(checks), checks=checks, record=record)
            for fname, data in files.items():
                fmt, write = _WRITERS[Path(fname).suffix]
                if fmt in formats and not _written(outdir / fname, write, *data):
                    return 1
        except FracpError as exc:
            entry["state"] = "failed"
            entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
            print(f"error in experiment {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        entry["passed"] = entry["state"] == "passed"
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
        "regime": dataclasses.asdict(shared.regime),
        "experiments": experiments,
        "overall_passed": bool(overall),
        "timings": {"total_s": time.time() - t_start, "import_s": IMPORT_S,
                    "assembly_s": shared.assembly_seconds()},
    }
    if not _written(outdir / "report.json", write_report, report):
        return 1
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
    except SystemExit as exc:
        # 0 after --help, 2 on a usage error
        return 0 if exc.code == 0 else 1
    return run(args.subcommand, args.config, args.out, args.seed)


#: seconds from the start of `import fracp` to the end of this module's import
IMPORT_S = time.perf_counter() - _IMPORT_T0

if __name__ == "__main__":
    sys.exit(main())
