"""Problem parameters, regime classification, graded meshes and grid functions.

The problem family lives on an interval Omega = (a, b) and is governed by the
quadruple (s, p, gamma, delta): fractional order, integrability exponent,
reaction singularity power and weight singularity power.  All regime logic
(existence, uniqueness, boundary exponents, Sobolev thresholds) is a pure
function of that quadruple.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadGrading, EtaTooLarge, OutOfRange

CASE_S = "CaseS"
CASE_ALPHA_STAR = "CaseAlphaStar"

#: Grading exponents above this resolve nothing extra at desk scale but push
#: the first cell width below double-precision resolution; build_grid refuses
#: them, which also keeps every cell pair at index distance >= 2 at least
#: 0.2308 of the larger width apart, inside the range the assembly's Gauss
#: orders are verified for.
MAX_GRADING = 4.0

#: largest |x_i + x_{n+1-i} - (a + b)| / (b - a) a Grid accepts; build_grid
#: stays within 2.2e-16
MIRROR_TOL = 1e-12


@dataclass(frozen=True)
class ProblemParams:
    """Validated problem quadruple plus domain interval.

    delta >= s*p is accepted (classification and nonexistence scans need it);
    barrier.weight_values checks the existence range for every regularized
    solve.
    """

    s: float
    p: float
    gamma: float
    delta: float
    a: float = 0.0
    b: float = 1.0

    @property
    def sp(self) -> float:
        return self.s * self.p

    def with_delta(self, delta: float) -> "ProblemParams":
        return make_params(self.s, self.p, self.gamma, delta, self.a, self.b)


def check_sp(s, p) -> None:
    """0 < s < 1 and p > 1; raises OutOfRange naming the offending one."""
    if not (0.0 < s < 1.0):
        raise OutOfRange(f"s must lie in (0, 1), got {s}")
    if not p > 1.0:
        raise OutOfRange(f"p must exceed 1, got {p}")


def make_params(s, p, gamma, delta, a=0.0, b=1.0) -> ProblemParams:
    """Validate raw reals into a ProblemParams.

    Raises OutOfRange naming the offending field.
    """
    check_sp(s, p)
    if not gamma >= 0.0:
        raise OutOfRange(f"gamma must be nonnegative, got {gamma}")
    if not delta >= 0.0:
        raise OutOfRange(f"delta must be nonnegative, got {delta}")
    if not b > a:
        raise OutOfRange(f"domain needs b > a, got ({a}, {b})")
    return ProblemParams(float(s), float(p), float(gamma), float(delta), float(a), float(b))


@dataclass(frozen=True)
class RegimeReport:
    """Exponents and flags derived from (s, p, gamma, delta).

    alpha_star      = (sp - delta) / (gamma + p - 1), boundary growth exponent
                      in the strongly singular case
    alpha_star0     = (sp - delta) / (p - 1), its gamma = 0 counterpart
    lambda_cap      = (sp - 1)(p - 1 + gamma) / (p (sp - delta)), power
                      threshold for energy-space membership; +inf at delta = sp
    uniq_threshold  = 1 + s - 1/p, comparison-principle range for delta
    """

    alpha_star: float
    alpha_star0: float
    lambda_cap: float
    uniq_threshold: float
    case_flag: str
    existence_flag: bool
    uniqueness_flag: bool
    sobolev_flag: bool
    notes: tuple = ()

    def reference_exponent(self, s: float) -> float:
        """Boundary exponent the minimal solution should exhibit."""
        return s if self.case_flag == CASE_S else self.alpha_star


def classify_regime(params: ProblemParams) -> RegimeReport:
    """Compute all regime exponents and flags for a validated parameter set."""
    s, p, gamma, delta = params.s, params.p, params.gamma, params.delta
    sp = params.sp
    alpha_star = (sp - delta) / (gamma + p - 1.0)
    alpha_star0 = (sp - delta) / (p - 1.0)
    if delta == sp:
        # degenerate denominator; the regime is nonexistent anyway, report a
        # sentinel rather than failing
        lambda_cap = math.inf
    else:
        lambda_cap = (sp - 1.0) * (p - 1.0 + gamma) / (p * (sp - delta))
    uniq_threshold = 1.0 + s - 1.0 / p
    case_flag = CASE_S if delta - s * (1.0 - gamma) <= 0.0 else CASE_ALPHA_STAR
    notes = []
    if delta == 0.0:
        notes.append(
            "delta=0 flagged unique: the comparison principle covers delta=0 "
            "although the dedicated uniqueness statement assumes delta>0"
        )
    if delta == sp:
        notes.append("delta=sp: lambda_cap reported as +inf sentinel")
    return RegimeReport(
        alpha_star=alpha_star,
        alpha_star0=alpha_star0,
        lambda_cap=lambda_cap,
        uniq_threshold=uniq_threshold,
        case_flag=case_flag,
        existence_flag=delta < sp,
        uniqueness_flag=delta < uniq_threshold,
        sobolev_flag=lambda_cap < 1.0,
        notes=tuple(notes),
    )


def default_grading(params: ProblemParams) -> float:
    """Grading exponent resolving the expected d**alpha_star boundary layer.

    q = max(1, s/alpha_star), capped so the first cell never collapses below
    floating-point resolution on n ~ 1024 meshes.
    """
    report = classify_regime(params)
    if report.alpha_star <= 0.0:
        return MAX_GRADING
    return float(min(max(1.0, params.s / report.alpha_star), MAX_GRADING))


def mirror_left_half(v) -> np.ndarray:
    """Copy of v whose right half is its left half reversed, out[i] =
    out[len - 1 - i]; the middle entry of an odd length is v's own."""
    out = np.array(v, dtype=float)
    m = len(out)
    out[(m + 1) // 2 :] = out[: m // 2][::-1]
    return out


@dataclass(frozen=True)
class Grid:
    """Symmetric graded mesh on (a, b) with n strictly interior nodes.

    Uniform parameters t_i = i/(n+1) are mapped through the symmetric grading
        x = a + (b-a) * 2**(q-1) * t**q          for t <= 1/2,
        x = b - (b-a) * 2**(q-1) * (1-t)**q      for t >  1/2,
    so q = 1 reproduces the uniform mesh exactly and q > 1 refines toward
    both endpoints.

    Every Grid is mirror-symmetric, x_i + x_{n+1-i} = a + b within
    MIRROR_TOL (b - a), else BadGrading; the nodal masses and distances and
    the operator assembly rely on it and take their right half from the
    left half.
    """

    a: float
    b: float
    q: float
    nodes: np.ndarray = field(repr=False)

    def __post_init__(self):
        x = np.asarray(self.nodes, dtype=float)
        defect = float(np.abs(x + x[::-1] - (self.a + self.b)).max(initial=0.0))
        if defect > MIRROR_TOL * (self.b - self.a):
            raise BadGrading(
                f"mesh is not mirror-symmetric about (a + b)/2: x_i + x_(n+1-i) "
                f"misses a + b by {defect:.3e}"
            )
        object.__setattr__(self, "nodes", x)

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def edges(self) -> np.ndarray:
        """Cell edges [a, x_1, ..., x_n, b]; the induced partition."""
        return np.concatenate(([self.a], self.nodes, [self.b]))

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    @property
    def h_min(self) -> float:
        return float(self.widths.min())

    @property
    def masses(self) -> np.ndarray:
        """Dual-cell masses: m_i = |[c_{i-1}, c_i]| with c the cell midpoints
        clipped to the boundary, the right half mirrored from the left.  They
        sum to b - a up to rounding."""
        mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        duals = np.concatenate(([self.a], mids, [self.b]))
        return mirror_left_half(np.diff(duals))

    def local_width(self, x):
        """Width of the cell containing x (max with neighbours for safety), at
        a point or at each of an array of points."""
        w = self.widths
        last = len(w) - 1
        k = np.clip(np.searchsorted(self.edges, x, side="right") - 1, 0, last)
        out = np.maximum(np.maximum(w[np.maximum(k - 1, 0)], w[k]), w[np.minimum(k + 1, last)])
        return out if out.ndim else float(out)

    def distance(self, x=None) -> np.ndarray:
        """Distance to the boundary, at the nodes by default; there the right
        half is mirrored from the left, free of the rounding of b - x."""
        pts = self.nodes if x is None else np.asarray(x, dtype=float)
        d = np.minimum(pts - self.a, self.b - pts)
        return mirror_left_half(d) if x is None else d


def build_grid(a: float, b: float, n: int, q: float = 1.0) -> Grid:
    """Build the symmetric graded mesh with n interior nodes.

    Raises BadGrading for q outside [1, MAX_GRADING].  n >= 2 is required;
    meaningful resolution starts around n >= 8.
    """
    if not 1.0 <= q <= MAX_GRADING:
        raise BadGrading(f"grading exponent must lie in [1, {MAX_GRADING}], got {q}")
    if b <= a:
        raise OutOfRange(f"domain needs b > a, got ({a}, {b})")
    n = int(n)
    if n < 2:
        raise OutOfRange(f"need at least 2 interior nodes, got {n}")
    t = np.arange(1, n + 1, dtype=float) / (n + 1)
    width = b - a
    x = np.where(
        t <= 0.5,
        a + width * 2.0 ** (q - 1.0) * t**q,
        b - width * 2.0 ** (q - 1.0) * (1.0 - t) ** q,
    )
    return Grid(a=float(a), b=float(b), q=float(q), nodes=x)


# ---------------------------------------------------------------------------
# exterior extension descriptors and grid functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Zero:
    """u = 0 outside Omega (energy-space extension)."""

    def value(self, z, a, b):
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        return out if out.ndim else 0.0

    def kinks(self, a, b):
        return ()


def barrier_shift(alpha: float, lam: float) -> float:
    """lambda**(1/alpha), the shift of the power barrier (0 at lambda = 0)."""
    return lam ** (1.0 / alpha) if lam > 0.0 else 0.0


@dataclass(frozen=True)
class PowerTail:
    """Shifted-power profile ((z - a + lambda**(1/alpha))_+)**alpha outside.

    This is the half-line barrier anchored at the left endpoint: constant 0
    to the left of a - lambda**(1/alpha), growing like z**alpha to the right
    of b.
    """

    alpha: float
    lam: float

    @property
    def shift(self) -> float:
        return barrier_shift(self.alpha, self.lam)

    def value(self, z, a, b):
        z = np.asarray(z, dtype=float)
        base = np.maximum(z - a + self.shift, 0.0)
        out = base**self.alpha
        return out if out.ndim else float(out)

    def kinks(self, a, b):
        return (a - self.shift,)


@dataclass(frozen=True)
class CollarTail:
    """Sub/supersolution exterior: ((lambda**(1/alpha) - dist)_+)**alpha + offset.

    offset = -lambda gives the subsolution branch (constant -lambda far out),
    offset = 0 the supersolution branch (constant 0 far out).  The collar is
    lambda**(1/alpha) wide.
    """

    alpha: float
    lam: float
    offset: float

    @property
    def shift(self) -> float:
        return barrier_shift(self.alpha, self.lam)

    def value(self, z, a, b):
        z = np.asarray(z, dtype=float)
        dist = np.maximum(np.maximum(a - z, z - b), 0.0)
        base = np.maximum(self.shift - dist, 0.0)
        out = base**self.alpha + self.offset
        return out if out.ndim else float(out)

    def kinks(self, a, b):
        return (a - self.shift, b + self.shift)


@dataclass(frozen=True)
class GridFunction:
    """Nodal values on a grid plus an exterior extension descriptor.

    Inside Omega the function is the piecewise-linear interpolant through the
    nodal values, ramping at the boundary cells to the descriptor's trace at
    the endpoints (0 for the Zero extension, so "u = 0 outside" is realized
    continuously).
    """

    grid: Grid
    values: np.ndarray = field(repr=False)
    exterior: object = field(default_factory=Zero)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise OutOfRange(
                f"values length {vals.shape} does not match node count {self.grid.n}"
            )
        object.__setattr__(self, "values", vals)

    @functools.cached_property
    def _interpolant(self):
        """Interpolation nodes and values: the grid's, with the exterior's
        trace at both endpoints."""
        a, b = self.grid.a, self.grid.b
        va, vb = float(self.exterior.value(a, a, b)), float(self.exterior.value(b, a, b))
        xp = np.concatenate(([a], self.grid.nodes, [b]))
        fp = np.concatenate(([va], self.values, [vb]))
        return xp, fp

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        a, b = self.grid.a, self.grid.b
        out = np.interp(np.clip(z, a, b), *self._interpolant)
        outside = ~((z >= a) & (z <= b))
        if not out.ndim:
            return float(self.exterior.value(z, a, b)) if outside else float(out)
        out[outside] = self.exterior.value(z[outside], a, b)
        return out

def check_eta(grid: Grid, eta: float) -> None:
    """Boundary strips must stay below half the domain width."""
    if not 0.0 < eta < 0.5 * (grid.b - grid.a):
        raise EtaTooLarge(
            f"eta={eta} must lie in (0, {(grid.b - grid.a) / 2}) for this domain"
        )
