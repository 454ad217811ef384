"""One-dimensional diffusion models: scale function, speed measure, invariant law.

For ``dX_t = b(X_t)dt + sigma(X_t)dB_t`` define

    s(x)  = int_0^x exp(-2 int_0^v b/sigma^2 du) dv        (scale function)
    m(x)  = sigma(x)^-2 exp(2 int_0^x b/sigma^2 dv)        (speed density)

so s(0)=0, s'(0)=1 and the algebraic identity sigma^2 * s' * m = 1 holds
pointwise.  The diffusion is positive (Harris) recurrent iff s(+-inf) = +-inf
and kappa^-1 := int m < inf, in which case mu(dx) = kappa*m(x)dx is the unique
invariant probability.

Everything here reduces to one cached object per model: the exponent
E(x) = -2 int_0^x b/sigma^2, computed once on a two-sided graded grid by
adaptive Gauss-Legendre panels and interpolated with a cubic spline.  All
derived quantities are then cheap:

    s'(x) = exp(E(x)),   m(x) = exp(-E(x))/sigma(x)^2     (log-space, so
    presets with e^{x^2}-type growth never overflow intermediate values),

s(x) by panel integration of exp(E) accumulated at the grid nodes plus a
fresh Gauss panel from the nearest node, and s^-1 by bracketed root-finding
against that evaluator.  Improper integrals (kappa, mu(h)) are truncated
at the domain cutoff with a geometric tail extrapolation from the outermost
octaves; non-decaying octave trends raise instead of silently truncating.
Every integral against the speed measure goes through one integrand
(:meth:`_Side.m_integrand`) and one panels-plus-tail step
(:func:`_integral_with_tail`).

Array contract: every callable the package takes -- drift, diffusion, an
observable f, a slowly varying ell -- maps a float64 array to a float64
array of the same shape.  Each is probed once where it enters the package,
and one that raises on an array or returns another shape raises
:class:`ConfigError` naming the argument.  A constant is written
``np.full_like(x, c)``, not ``lambda x: c``.  The diffusion alone may also
be given as the number c itself: the model then holds the equivalent
callable, and the Euler engine, knowing the noise is additive, scales each
chunk of normals once instead of evaluating sigma on every step.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._numerics import CubicHermiteSpline, CubicSpline, brentq
from .errors import (
    ConfigError,
    NotIntegrable,
    NotPositiveRecurrent,
    OutOfDomain,
    QuadratureError,
)

__all__ = [
    "DiffusionModel",
    "ScaleSpeed",
    "HarrisVerdict",
    "eval_scale",
    "eval_speed_density",
    "compute_kappa",
    "check_harris",
    "invariant_integral",
    "eval_psi_phi",
]

# Exponent magnitude beyond which exp() leaves double precision.  The grid is
# truncated (per side) at the first node crossing this, which implements the
# documented overflow policy for super-exponential scale growth.
_EXP_CAP = 690.0

_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)
_GL7_X, _GL7_W = np.polynomial.legendre.leggauss(7)
_MAX_ROUNDS = 8     # bisection rounds of adaptive_panels
_N_OCT = 10         # dyadic octaves the tail extrapolation reads


def _array_fn(fn: Callable, name: str, probe=(0.0, 0.5, -0.5)) -> Callable:
    """Check the array contract of a user callable and return ``fn`` itself.

    ``fn`` must map a float64 array to an array of the same shape; a
    callable that raises on the ``probe`` array, or returns another shape,
    raises :class:`ConfigError` naming the argument.  Pass positive probe
    values for functions not defined at or below zero.
    """
    x = np.asarray(probe, dtype=np.float64)
    try:
        with np.errstate(all="ignore"):
            shape = np.shape(fn(x))
    except Exception as exc:
        raise ConfigError(
            f"{name} must accept a float64 array; on one of shape {x.shape} it raised "
            f"{type(exc).__name__}: {exc}") from exc
    if shape != x.shape:
        hint = "pass the number c itself as the diffusion, or write it" \
            if name == "diffusion" else "write a constant c"
        raise ConfigError(
            f"{name} must return an array of its argument's shape {x.shape}, got "
            f"shape {shape}; {hint} as np.full_like(x, c)")
    return fn


def _two_sided(x, pos_fn: Callable, neg_fn: Callable):
    """``pos_fn(x)`` where x >= 0 and ``neg_fn(-x)`` where x < 0.

    Both functions take distances from 0 (array in, array out); a scalar
    ``x`` gives a float.
    """
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = pos_fn(x[pos])
    out[~pos] = neg_fn(-x[~pos])
    return float(out[0]) if scalar else out


def _panel_values(fn: Callable, lo: np.ndarray, hi: np.ndarray, rule_x, rule_w) -> np.ndarray:
    """Gauss-Legendre integral of fn over each [lo_i, hi_i]."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * rule_x[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    return (vals @ rule_w) * half


def adaptive_panels(fn: Callable, edges: np.ndarray, rel_tol: float) -> np.ndarray:
    """Integrate ``fn`` over each consecutive panel of ``edges``.

    Uses a 15-point Gauss rule with a 7-point embedded estimate; panels whose
    two rules disagree beyond tolerance are bisected (tracked back to their
    original panel) until they agree or ``_MAX_ROUNDS`` are exhausted, in which
    case a QuadratureError carrying the last two whole-sum estimates is raised.
    """
    lo = np.asarray(edges[:-1], dtype=np.float64)
    hi = np.asarray(edges[1:], dtype=np.float64)
    owner = np.arange(lo.size)
    out = np.zeros(lo.size, dtype=np.float64)

    prev_total = None
    for round_ in range(_MAX_ROUNDS + 1):
        i15 = _panel_values(fn, lo, hi, _GL15_X, _GL15_W)
        i7 = _panel_values(fn, lo, hi, _GL7_X, _GL7_W)
        err = np.abs(i15 - i7)
        scale = np.abs(i15) + np.mean(np.abs(i15)) + 1e-300
        bad = err > rel_tol * scale
        if not bad.any() or round_ == _MAX_ROUNDS:
            if bad.any():
                total_bad = float(np.sum(i15))
                raise QuadratureError(
                    f"{int(bad.sum())} panels did not converge to rel tol {rel_tol:g}",
                    estimates=(prev_total if prev_total is not None else total_bad, total_bad),
                )
            np.add.at(out, owner, i15)
            return out
        # keep converged panels, split the rest
        np.add.at(out, owner[~bad], i15[~bad])
        blo, bhi, bown = lo[bad], hi[bad], owner[bad]
        mid = 0.5 * (blo + bhi)
        lo = np.concatenate([blo, mid])
        hi = np.concatenate([mid, bhi])
        owner = np.concatenate([bown, bown])
        prev_total = float(np.sum(out) + np.sum(i15[bad]))
    raise AssertionError("unreachable")


def _side_nodes(cutoff: float) -> np.ndarray:
    """Graded node layout on [0, cutoff]: linear to 1, geometric beyond."""
    if cutoff <= 1.0:
        return np.linspace(0.0, cutoff, 241)
    lin = np.linspace(0.0, 1.0, 161)
    geo = np.geomspace(1.0, cutoff, 561)
    return np.unique(np.concatenate([lin, geo]))


@dataclass
class _Side:
    """Cached quantities on one half-axis (x stored as distance from 0)."""

    sign: float                   # +1 for x >= 0, -1 for x <= 0
    x: np.ndarray                 # nodes, ascending, x[0] = 0
    E: np.ndarray                 # exponent at nodes
    s_abs: np.ndarray             # |s(+-x)| at nodes (s is odd-signed per side)
    E_spline: CubicSpline
    sigma: Callable               # the model's diffusion coefficient
    m_overflow: bool              # m left double range before the cutoff
    sprime_octaves: np.ndarray    # per-octave integrals of s', inner -> outer
    m_total: float = field(init=False)      # int m over this side (truncated)
    m_tail: float = field(init=False)       # geometric tail estimate beyond cutoff
    m_divergent: bool = field(init=False)   # octave trend says int m = inf

    def m_integrand(self, h: Callable | None = None) -> Callable:
        """u -> h(v) exp(-E(u)) / sigma(v)^2 at v = sign * u, the integrand of
        int h dm over this side in the distance u = |x|; m itself if h is None."""
        sign, E, sigma = self.sign, self.E_spline, self.sigma

        def g(u):
            v = sign * u
            w = np.exp(-E(u)) if h is None else h(v) * np.exp(-E(u))
            return w / sigma(v) ** 2

        return g

    def s_at(self, u: np.ndarray) -> np.ndarray:
        """|s| at |x| = u: nearest-node value plus a Gauss panel of exp(E).

        Node values are exact cumulative integrals; the remainder panel keeps
        between-node evaluation at quadrature (not interpolation) accuracy,
        which the 1e-9 round-trip contract of the inverse needs.
        """
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        j = np.clip(np.searchsorted(self.x, u, side="right") - 1, 0, self.x.size - 2)
        lo = self.x[j]

        def exp_E(q):
            # the spline returns a fresh array: one 15-point panel array less
            e = self.E_spline(q)
            return np.exp(e, out=e)

        inc = _panel_values(exp_E, lo, u, _GL15_X, _GL15_W)
        return self.s_abs[j] + inc


def _dyadic_octaves(fn: Callable, x_top: float) -> np.ndarray:
    """Integrals of fn over the ``_N_OCT`` exact dyadic octaves
    [x_top/2^k, x_top/2^{k-1}].

    Exact octave boundaries make the outer-ratio geometric tail extrapolation
    exact for power-law integrands; sums of grid panels straddling the
    boundaries would bias the ratio at the 1e-7 level.
    """
    hi = x_top / 2.0 ** np.arange(_N_OCT)
    lo = hi / 2.0
    mid = 0.5 * (lo + hi)
    # two Gauss panels per octave keep moderately peaked integrands accurate
    a = _panel_values(fn, lo, mid, _GL15_X, _GL15_W)
    b = _panel_values(fn, mid, hi, _GL15_X, _GL15_W)
    return (a + b)[::-1]  # inner -> outer


def _tail_extrapolate(octaves: np.ndarray) -> tuple[float, bool]:
    """Tail estimate from the trend of the outermost octave ratios.

    Returns (tail_estimate, divergent).  The next ratio is extrapolated
    log-quadratically, rho = r1^2/r0: for power-law tails the ratios are
    constant (rho = r1, geometric sum, exact), while for super-exponential
    decay the shrinking ratios keep the estimate from dwarfing the true
    remainder by hundreds of orders of magnitude (which would poison
    quantities later multiplied by the inverse of the decaying factor).
    A ratio trend that fails to decay marks the integral divergent.
    """
    if octaves.size < 3:
        return 0.0, False
    o0, o1, o2 = octaves[-3], octaves[-2], octaves[-1]
    if o1 <= 0.0 or o2 <= 0.0:
        return 0.0, False
    r1 = o2 / o1
    if r1 >= 0.95:
        return np.inf, True
    rho = r1 * r1 * o0 / o1 if o0 > 0.0 else r1
    if rho >= 0.95:
        return np.inf, True
    return float(o2 * rho / (1.0 - rho)), False


def _integral_with_tail(g: Callable, edges: np.ndarray, rel_tol: float):
    """(panels, tail, divergent) of int g over ``edges`` and beyond ``edges[-1]``.

    ``panels`` are the adaptive panel integrals.  The tail extrapolates the
    dyadic octaves of |g| and takes the sign of the outermost sixteenth of
    the panels; a divergent trend or a non-finite estimate gives tail = inf.
    """
    panels = adaptive_panels(g, edges, rel_tol)
    t, divergent = _tail_extrapolate(_dyadic_octaves(lambda u: np.abs(g(u)), edges[-1]))
    outer = panels[-max(1, panels.size // 16):].sum()
    tail = float(np.sign(outer) * t) if np.isfinite(t) else np.inf
    return panels, tail, divergent


class _QuadCore:
    """All cached numerics for one model.  Immutable after construction."""

    def __init__(self, model: "DiffusionModel"):
        self.model = model
        self.tol = model.quadrature_tol
        # Assumption checks on a probe grid.
        probe = np.linspace(-model.domain_cutoff, model.domain_cutoff, 401)
        self._b = b = _array_fn(model.drift, "drift", probe)
        self._sigma = sig = _array_fn(model.diffusion, "diffusion", probe)
        sv = sig(probe)
        bv = b(probe)
        if not np.all(np.isfinite(sv)) or not np.all(np.isfinite(bv)):
            raise OutOfDomain("drift/diffusion not finite on the evaluation domain")
        if np.any(sv <= 0.0):
            raise OutOfDomain("diffusion coefficient must be strictly positive")

        self.pos = self._build_side(+1.0)
        self.neg = self._build_side(-1.0)
        self.x_hi = float(self.pos.x[-1])
        self.x_lo = -float(self.neg.x[-1])

        m_total = self.pos.m_total + self.neg.m_total
        m_tail = self.pos.m_tail + self.neg.m_tail
        self.m_divergent = (
            self.pos.m_divergent or self.neg.m_divergent
            or self.pos.m_overflow or self.neg.m_overflow
        )
        if self.m_divergent or not np.isfinite(m_tail):
            self.kappa = None
            self.kappa_err = None
        else:
            self.kappa = 1.0 / (m_total + m_tail)
            # truncation + quadrature uncertainty, propagated through 1/x
            self.kappa_err = self.kappa * (0.5 * m_tail + self.tol * m_total) / (m_total + m_tail)

    # -- construction ------------------------------------------------------

    def _build_side(self, sign: float) -> _Side:
        model = self.model
        b, sig = self._b, self._sigma
        xs = _side_nodes(model.domain_cutoff)

        def exponent_integrand(u):
            v = sign * u
            s2 = sig(v) ** 2
            return -2.0 * sign * b(v) / s2

        panels = adaptive_panels(exponent_integrand, xs, self.tol)
        E = np.concatenate([[0.0], np.cumsum(panels)])

        # Overflow policy: truncate this side where exp() would leave range.
        over = np.nonzero(np.abs(E) > _EXP_CAP)[0]
        m_overflow = False
        if over.size:
            k = max(int(over[0]), 8)
            if E[min(over[0], E.size - 1)] < 0:
                # m = exp(-E)/sigma^2 blows up: speed measure wildly divergent
                m_overflow = True
            xs, E = xs[:k], E[:k]

        E_spline = CubicSpline(xs, E)

        sprime_panels = adaptive_panels(lambda u: np.exp(E_spline(u)), xs, max(self.tol, 1e-12))
        s_abs = np.concatenate([[0.0], np.cumsum(sprime_panels)])
        # s' = exp(E) > 0, so a negative panel is a quadrature failure.  Zero
        # increments are fine: they happen when s' underflows (bounded scale).
        if np.any(sprime_panels < 0.0):
            raise QuadratureError("scale function lost monotonicity on the grid")

        side = _Side(
            sign=sign, x=xs, E=E, s_abs=s_abs, E_spline=E_spline, sigma=sig,
            m_overflow=m_overflow,
            sprime_octaves=_dyadic_octaves(lambda u: np.exp(E_spline(u)), xs[-1]),
        )
        m_panels, side.m_tail, m_div = _integral_with_tail(
            side.m_integrand(), xs, max(self.tol, 1e-12))
        side.m_total = float(m_panels.sum())
        side.m_divergent = bool(m_div)
        return side

    # -- pointwise evaluators (array in, array out) ------------------------

    def _split(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if np.any(x > self.x_hi + 1e-12) or np.any(x < self.x_lo - 1e-12):
            raise OutOfDomain(
                f"evaluation at |x| beyond the numeric domain [{self.x_lo:g}, {self.x_hi:g}]"
            )
        return x

    def E_at(self, x):
        return _two_sided(self._split(x), self.pos.E_spline, self.neg.E_spline)

    def sprime(self, x):
        return np.exp(self.E_at(x))

    def m(self, x):
        return _two_sided(self._split(x), self.pos.m_integrand(), self.neg.m_integrand())

    def s(self, x):
        return _two_sided(self._split(x), self.pos.s_at, lambda u: -self.neg.s_at(u))

    def inv_s(self, w):
        """Inverse scale by bracketed root-finding: a bracket from the node
        table, then Brent's method (``_numerics.brentq``, scipy's brentq step
        for step) against the panel evaluator.  A w that is not finite, or
        lies beyond the image of s, raises OutOfDomain."""
        w = np.asarray(w, dtype=np.float64)
        scalar = w.ndim == 0
        w = np.atleast_1d(w)
        if not np.isfinite(w).all():
            raise OutOfDomain("inverse scale needs a finite w, got "
                              f"w={w[~np.isfinite(w)][0]:g}")
        out = np.empty_like(w)
        for i, wi in enumerate(w):
            side = self.pos if wi >= 0 else self.neg
            target = abs(wi)
            if target > side.s_abs[-1] * (1 + 1e-12):
                raise OutOfDomain(f"w={wi:g} outside the reachable image of the scale function")
            j = int(np.searchsorted(side.s_abs, target))
            if j == 0:
                out[i] = 0.0
                continue
            j = min(j, side.x.size - 1)
            lo, hi = side.x[j - 1], side.x[j]
            f = lambda u: float(side.s_at(u)[0]) - target
            f_lo = f(lo)
            if f_lo == 0.0:
                root = lo
            else:
                f_hi = f(hi)
                # the bracket ends' values go along, so each is evaluated once
                root = hi if f_hi <= 0.0 else brentq(
                    f, lo, hi, xtol=1e-14 * (1.0 + hi), rtol=8.9e-16, fa=f_lo, fb=f_hi)
            out[i] = root if wi >= 0 else -root
        return float(out[0]) if scalar else out

    # -- integrals ---------------------------------------------------------

    def m_side_integrals(self, h: Callable, rel_tol: float | None = None) -> list:
        """``(panels, tail, divergent)`` of int h*m on the positive side, then
        the negative one (see :func:`_integral_with_tail`).

        ``h`` must satisfy the array contract (see :func:`_array_fn`).
        ``rel_tol`` overrides the model tolerance (integrands with kinks,
        e.g. |f| of a centered observable, cannot reach the default).
        """
        tol = max(self.tol, 1e-12) if rel_tol is None else rel_tol
        return [_integral_with_tail(side.m_integrand(h), side.x, tol)
                for side in (self.pos, self.neg)]

    def integrate_against_m(self, h: Callable, rel_tol: float | None = None):
        """(int h*m over the truncated domain, tail estimate, divergent?)."""
        return self.sum_sides(self.m_side_integrals(h, rel_tol))

    def sum_sides(self, sides: list):
        """(total, tail estimate, divergent?) of :meth:`m_side_integrals`.

        Divergence is judged per side from the dyadic octave trend of |h|*m.
        """
        total = 0.0
        tail = 0.0
        divergent = False
        for side, (panels, t, d) in zip((self.pos, self.neg), sides):
            total += panels.sum()
            tail += t
            divergent = divergent or d or side.m_overflow
        return float(total), tail, divergent

    def fm_tail_integral(self, f: Callable, sides: list):
        """Evaluator of T(x) = int_x^inf f*m du with decay-safe assembly.

        T is assembled from the right on x >= 0 and from the left (as
        -int_-inf^x f*m) on x < 0, which avoids catastrophic cancellation when
        both tails decay much faster than the bulk.  Requires mu(f) = 0 for the
        two assemblies to agree at 0; the mismatch is returned for the caller
        to police.  ``sides`` are the :meth:`m_side_integrals` of f.
        """
        cum = {}
        for side, (panels, tail, div) in zip((self.pos, self.neg), sides):
            if div or not np.isfinite(tail):
                raise NotIntegrable("tail integral of f against the speed measure diverges")
            # cumulative tail from the cutoff inward
            cum[side.sign] = np.concatenate([[0.0], np.cumsum(panels[::-1])])[::-1] + tail
        cum_pos = cum[+1.0]
        # on the negative side the tail integral is -int_{-inf}^x
        cum_neg = -cum[-1.0]
        mismatch = float(cum_pos[0] - cum_neg[0])  # both estimate T(0)

        pos_spline = CubicHermiteSpline(
            self.pos.x, cum_pos,
            -f(self.pos.x) * np.exp(-self.pos.E) / self._sigma(self.pos.x) ** 2)
        neg_spline = CubicHermiteSpline(
            self.neg.x, cum_neg,
            f(-self.neg.x) * np.exp(-self.neg.E) / self._sigma(-self.neg.x) ** 2)
        return (lambda x: _two_sided(x, pos_spline, neg_spline)), mismatch


@dataclass
class DiffusionModel:
    """Diffusion coefficients plus the numeric evaluation policy.

    ``drift`` and ``diffusion`` must be finite on [-domain_cutoff,
    domain_cutoff] and ``diffusion > 0`` everywhere (checked at cache build).
    Both follow the array contract of the module docstring: called on a
    float64 array they return an array of its shape (``np.full_like(x, c)``
    for a constant), else :meth:`core` raises :class:`ConfigError`.

    ``diffusion`` may instead be a positive finite number c (additive
    noise); anything else that is not callable, a bool, or c <= 0, nan or
    inf raises :class:`ConfigError` at once.  The model keeps c and
    replaces ``diffusion`` by the callable that returns c in its argument's
    shape, in float64, so every evaluator sees the usual callable, while
    the Euler engine reads c and skips the per-step sigma calls.
    Instances are immutable in use: all evaluators are pure once the internal
    cache is built (single-threaded build, safe concurrent reads thereafter).
    """

    drift: Callable
    diffusion: Callable | float
    domain_cutoff: float = 50.0
    quadrature_tol: float = 1e-10
    name: str = "custom"
    _core: _QuadCore | None = field(default=None, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)
    # the constant diffusion, if it was given as a number
    _diffusion_const: float | None = field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        if self.domain_cutoff <= 0:
            raise OutOfDomain("domain_cutoff must be positive")
        if self.quadrature_tol <= 0:
            raise OutOfDomain("quadrature_tol must be positive")
        if not callable(self.diffusion):
            c = self.diffusion
            if not isinstance(c, numbers.Real) or isinstance(c, bool) \
                    or not (math.isfinite(c) and c > 0):
                raise ConfigError(
                    "diffusion must be a callable or a positive finite number, "
                    f"got {c!r}")
            c = float(c)
            self._diffusion_const = c
            self.diffusion = lambda x: np.full(np.shape(x), c)

    def core(self) -> _QuadCore:
        if self._core is None:
            with self._lock:
                if self._core is None:
                    self._core = _QuadCore(self)
        return self._core

    # convenience accessors used across the package
    def scale_speed(self) -> "ScaleSpeed":
        core = self.core()
        if core.kappa is None:
            raise NotPositiveRecurrent(
                "speed measure is not integrable; no invariant probability exists")
        return ScaleSpeed(
            scale=core.s, scale_deriv=core.sprime, speed_density=core.m,
            kappa=core.kappa, inv_scale=core.inv_s,
        )


@dataclass(frozen=True)
class ScaleSpeed:
    """Scale/speed bundle: s, s', m, kappa, s^-1 (see module docstring)."""

    scale: Callable
    scale_deriv: Callable
    speed_density: Callable
    kappa: float
    inv_scale: Callable


@dataclass(frozen=True)
class HarrisVerdict:
    """Outcome of the positive-recurrence (Harris) admissibility check."""

    admissible: bool
    scale_escapes_plus: bool
    scale_escapes_minus: bool
    speed_integrable: bool
    kappa: float | None
    diagnostics: dict

    def __bool__(self) -> bool:
        return self.admissible


# -- module-level operations ------------------------------------------------

def eval_scale(model: DiffusionModel, x):
    """Scale function s(x); strictly increasing, s(0) = 0, s'(0) = 1."""
    return model.core().s(x)


def eval_speed_density(model: DiffusionModel, x):
    """Speed density m(x) > 0, satisfying sigma^2 * s' * m = 1."""
    return model.core().m(x)


def compute_kappa(model: DiffusionModel) -> float:
    """Normalizing constant kappa = 1 / int m (raises if the tail diverges)."""
    core = model.core()
    if core.kappa is None:
        raise NotPositiveRecurrent("int m(x) dx diverges: speed measure is not normalizable")
    return core.kappa


def check_harris(model: DiffusionModel) -> HarrisVerdict:
    """Numerical admissibility verdict: s escapes on both sides and int m < inf.

    Escape on a side means |s| at the cutoff is at least half the cutoff and
    the outermost octave of int s' has not collapsed versus its neighbor
    (a bounded scale function shows a vanishing outer trend).
    """
    core = model.core()

    def escapes(side) -> bool:
        reach = side.s_abs[-1] >= 0.5 * side.x[-1]
        oc = side.sprime_octaves
        trend = bool(oc.size < 2 or oc[-1] >= 0.5 * oc[-2])
        return bool(reach and trend)

    plus = escapes(core.pos)
    minus = escapes(core.neg)
    speed_ok = core.kappa is not None
    diagnostics = {
        "s_at_cutoff_plus": float(core.pos.s_abs[-1]),
        "s_at_cutoff_minus": -float(core.neg.s_abs[-1]),
        "m_total_truncated": float(core.pos.m_total + core.neg.m_total),
        "m_tail_estimate": float(core.pos.m_tail + core.neg.m_tail)
        if speed_ok else np.inf,
        "m_divergent": bool(core.m_divergent),
        "sprime_octaves_plus": core.pos.sprime_octaves.tolist(),
        "sprime_octaves_minus": core.neg.sprime_octaves.tolist(),
    }
    return HarrisVerdict(
        admissible=plus and minus and speed_ok,
        scale_escapes_plus=plus,
        scale_escapes_minus=minus,
        speed_integrable=speed_ok,
        kappa=core.kappa,
        diagnostics=diagnostics,
    )


def invariant_integral(model: DiffusionModel, h: Callable, with_error: bool = False):
    """mu(h) = kappa * int h*m, with divergence detection on the tails."""
    h = _array_fn(h, "h")
    kappa = compute_kappa(model)
    total, tail, divergent = model.core().integrate_against_m(h)
    if divergent or not np.isfinite(tail):
        raise NotIntegrable("int h dmu diverges (non-decaying tail trend)")
    value = kappa * (total + tail)
    if with_error:
        err = kappa * (0.5 * abs(tail) + model.quadrature_tol * abs(total)) + abs(
            model.core().kappa_err or 0.0) * abs(total + tail)
        return value, err
    return value


def eval_psi_phi(model: DiffusionModel, f: Callable, w):
    """(psi(w), phi(w)) at a point of the scale image; OutOfDomain beyond it.

    psi = (s' sigma)(x) and phi = f(x) / psi^2 at x = s^-1(w) are the
    scale-transformed coefficients.
    """
    core = model.core()
    f = _array_fn(f, "f")
    x = np.asarray(core.inv_s(w))
    psi = core.sprime(x) * model.diffusion(x)
    return psi, f(x) / psi**2
