"""Checks of fracp's outputs that do not use fracp's own verdicts.

Each check takes plain numbers or arrays, recomputes what it compares
against from the paper's formulas, and raises CheckFailed with the figure
that broke it.  Tolerances are fixed here, each with the value measured on
the benchmark's inputs, so that a check rejects a wrong answer by a wide
margin (see tests/test_checks.py).
"""

from __future__ import annotations

import math

import numpy as np

#: |v_j - v_{j-1}| allowance for eps-monotonicity of the continuation iterates
MONOTONE_TOL = 1e-6
#: fitted boundary slope against alpha*
SLOPE_TOL = 0.05
#: slope of log energy against log n above which energies count as divergent
DIVERGENCE_SLOPE = 0.1


class CheckFailed(Exception):
    """A computed output disagrees with its closed form or required property."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# formulas restated from the paper
# ---------------------------------------------------------------------------


def alpha_star(s, p, gamma, delta):
    """Boundary exponent of the minimal solution, (sp - delta)/(gamma + p - 1)."""
    return (s * p - delta) / (gamma + p - 1.0)


def lambda_cap(s, p, gamma, delta):
    """Sobolev threshold (sp - 1)(p - 1 + gamma)/(p (sp - delta))."""
    return (s * p - 1.0) * (p - 1.0 + gamma) / (p * (s * p - delta))


def bracket(alpha, s, p):
    """(c1, c2) with c1 <= Phi(alpha, s, p) <= c2, beta = sp - alpha (p - 1)."""
    sp = s * p
    beta = sp - alpha * (p - 1.0)
    if beta < 1.0:
        st = 0.5 * (s + beta)
        return (st - s) / (st * s) / p, 1.0 / sp
    return 1.0 / sp, 1.0 / sp + max(1.0, beta - 1.0) / (p * (1.0 - s))


def torsion_profile(x, s):
    """Solution of L u = 1 on (0, 1), u = 0 outside, at p = 2.

    L = (2/C_{1,s}) (-Delta)^s, and (-Delta)^s (x(1-x))^s = Gamma(2s+1), so
    u = C_{1,s}/(2 Gamma(2s+1)) (x(1-x))^s = sin(pi s)/(2 pi) (x(1-x))^s.
    """
    x = np.asarray(x, dtype=float)
    return math.sin(math.pi * s) / (2.0 * math.pi) * (x * (1.0 - x)) ** s


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_torsion(x, u, s, tol, d_min=0.1):
    """Relative error against the torsion closed form where d > d_min."""
    x = np.asarray(x, dtype=float)
    inner = np.minimum(x, 1.0 - x) > d_min
    exact = torsion_profile(x[inner], s)
    err = float(np.abs(np.asarray(u, dtype=float)[inner] / exact - 1.0).max())
    _require(err <= tol, f"torsion relative error {err:.3e} > {tol:.1e} (s={s})")
    return err


def check_unit_pv(values, tol, what):
    """Principal values of a torsion profile equal the right-hand side 1."""
    err = float(np.abs(np.asarray(values, dtype=float) - 1.0).max())
    _require(err <= tol, f"PV of {what} deviates from 1 by {err:.3e} > {tol:.1e}")
    return err


def check_weights(w):
    """Pair weights are symmetric, nonnegative and zero on the diagonal."""
    w = np.asarray(w)
    _require(np.array_equal(w, w.T), "pair weights are not symmetric")
    wmin = float(w.min())
    _require(wmin >= 0.0, f"negative pair weight {wmin:.3e}")
    _require(not np.any(np.diag(w)), "pair weights have a nonzero diagonal")


def check_apply_ones(applied, x, m, s, p, a=0.0, b=1.0, rtol=1e-9):
    """apply(1) = 2 m b, with b = ((x-a)^(-sp) + (b-x)^(-sp))/(sp).

    At p = 2 apply sums rows of the pair weights that cancel, so rounding
    leaves about 2e-12 of relative error at n = 2048."""
    sp = s * p
    x = np.asarray(x, dtype=float)
    expect = 2.0 * np.asarray(m) * ((x - a) ** (-sp) + (b - x) ** (-sp)) / sp
    err = float(np.abs(np.asarray(applied) / expect - 1.0).max())
    _require(err <= rtol, f"apply(1) differs from 2 m b by {err:.3e} relative")
    return err


def check_homogeneous(applied_v, applied_cv, c, p, rtol=1e-10):
    """apply(c v) = c^(p-1) apply(v)."""
    applied_v = np.asarray(applied_v, dtype=float)
    err = float(np.abs(np.asarray(applied_cv) - c ** (p - 1.0) * applied_v).max())
    scale = float(np.abs(applied_v).max()) * c ** (p - 1.0)
    _require(err <= rtol * scale,
             f"apply is not homogeneous of degree p-1: error {err / scale:.3e} relative")
    return err / scale


def check_phi_table(rows, cases=45, tol=1e-8):
    """Every Phi lies in its bracket [c1, c2] (recomputed, slack 1e-10) and
    the two closed-form rows hold: Phi(1/4, 1/2, 2) = pi/4, Phi(1/4, 1/2, 3) = 2/3.

    rows: iterable of (alpha, s, p, phi).
    """
    rows = [tuple(float(v) for v in r) for r in rows]
    _require(len(rows) == cases, f"Phi table has {len(rows)} rows, expected {cases}")
    for alpha, s, p, phi in rows:
        c1, c2 = bracket(alpha, s, p)
        _require(c1 - 1e-10 <= phi <= c2 + 1e-10,
                 f"Phi({alpha:g}, {s:g}, {p:g}) = {phi} outside [{c1}, {c2}]")
    exact = {(0.25, 0.5, 2.0): math.pi / 4.0, (0.25, 0.5, 3.0): 2.0 / 3.0}
    for (alpha, s, p), value in exact.items():
        found = [phi for a_, s_, p_, phi in rows
                 if abs(a_ - alpha) < 1e-12 and s_ == s and p_ == p]
        _require(len(found) == 1, f"Phi table lacks the row ({alpha}, {s}, {p})")
        _require(abs(found[0] - value) <= tol,
                 f"Phi({alpha}, {s}, {p}) = {found[0]!r}, closed form {value!r}")


def check_gradient(applied, rhs, tol):
    """The solver's own stopping rule, recomputed: max |apply(u) - m f| is at
    most tol * max |m f|."""
    rhs = np.asarray(rhs, dtype=float)
    res = float(np.abs(np.asarray(applied) - rhs).max()) / float(np.abs(rhs).max())
    _require(res <= tol, f"gradient residual {res:.3e} > {tol:.1e}")
    return res


def check_continuation(iterates, tol):
    """The eps-iterates of a continuation: positive at every node, never
    decreasing by more than MONOTONE_TOL from one eps to the next, and the
    last increment at most tol."""
    iterates = [np.asarray(v, dtype=float) for v in iterates]
    _require(len(iterates) >= 2, "continuation returned fewer than two iterates")
    low = min(float(v.min()) for v in iterates)
    _require(low > 0.0, f"an eps-iterate is not positive (min {low:.3e})")
    drop = max(float((prev - cur).max()) for prev, cur in zip(iterates, iterates[1:]))
    _require(drop <= MONOTONE_TOL, f"eps-iterates decrease by {drop:.3e}")
    last = float(np.abs(iterates[-1] - iterates[-2]).max())
    _require(last <= tol, f"last increment {last:.3e} > tol {tol:.1e}")
    return last


def boundary_slopes(x, u, a=0.0, b=1.0):
    """Least-squares slopes of log u against log d on each side, over the
    window 8 h_min <= d <= 0.1 (b - a)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    h_min = float(np.diff(np.concatenate(([a], x, [b]))).min())
    lo, hi = 8.0 * h_min, 0.1 * (b - a)
    slopes = []
    for d in (x - a, b - x):
        mask = (d >= lo) & (d <= hi) & (u > 0.0)
        _require(mask.sum() >= 8, f"boundary window holds {int(mask.sum())} nodes")
        slopes.append(float(np.polyfit(np.log(d[mask]), np.log(u[mask]), 1)[0]))
    return tuple(slopes)


def check_slope(x, u, expect, a=0.0, b=1.0, tol=SLOPE_TOL):
    """Both boundary slopes lie within tol of the expected exponent."""
    slopes = boundary_slopes(x, u, a, b)
    worst = max(abs(sl - expect) for sl in slopes)
    _require(worst <= tol,
             f"boundary slopes {slopes[0]:.4f}/{slopes[1]:.4f} against alpha* = {expect:.4f}")
    return slopes


def check_decreasing(deltas, exponents):
    """Boundary exponents strictly decrease as delta grows."""
    pairs = sorted(zip(deltas, exponents))
    values = [e for _, e in pairs]
    _require(all(b < a for a, b in zip(values, values[1:])),
             f"exponents {values} do not decrease with delta {[d for d, _ in pairs]}")


def check_membership(ns, energies, theta, lam):
    """Energies of u^theta under refinement stay bounded exactly when
    theta > Lambda: bounded means a log-log slope of at most
    DIVERGENCE_SLOPE."""
    slope = float(np.polyfit(np.log(np.asarray(ns, dtype=float)),
                             np.log(np.asarray(energies, dtype=float)), 1)[0])
    bounded = slope <= DIVERGENCE_SLOPE
    _require(bounded == (theta > lam),
             f"theta={theta}: energy slope {slope:.3f} "
             f"({'bounded' if bounded else 'divergent'}) against Lambda = {lam:.3f}")
    return slope
