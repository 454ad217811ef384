"""Limit-regime classification and closed-form limit-law constants.

For a positive-recurrent diffusion dX = b dt + sigma dB whose observable f
has regular tail behavior in natural scale,

    [sigma(x) s'(x)]^{-2} |s(x)|^{2-1/alpha} ell(|s(x)|) f(x) --> f_+-,

as x -> +-inf, with |f_+| + |f_-| > 0 and ell slowly varying, the rescaled
additive functional int_0^{t/eps} f(X_u) du converges to an alpha-stable
limit.  With rho = int_1^inf (int_x^inf dv / (v^{3/2} ell(v)))^2 dx, the
regime is

    Diffusive           alpha > 2, or alpha = 2 with rho < inf
    CriticalDiffusive   alpha = 2 with rho = inf
    Levy                alpha in (0, 2) excluding 1
    CriticalLevy        alpha = 1

This module classifies the regime (verifying claimed (alpha, ell, f_+-)
against the sampled tail ratio, or estimating alpha by log-log regression),
and computes every constant of the limit law: sigma_alpha, the
characteristic-exponent factor z_alpha(xi), rho and its truncation rho_eps,
the exact alpha=1 centering xi_eps with its asymptotic form zeta_eps, the
Levy-measure weights c_+-, the alpha=1 generator drift a, slowly-varying
transforms L/N, and the Poisson-equation route (g, g', gamma^2) to the
diffusive variance.

Improper integrals over slowly varying integrands run in u = log x
coordinates, where power-law tails are exact geometric octave sequences;
divergence is detected from the octave trend.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._numerics import CubicHermiteSpline, cumulative_simpson, simpson
from .errors import (
    ClassificationFailed,
    Divergent,
    InvalidAlpha,
    InvalidRequest,
    NotCentered,
    NotIntegrable,
    PoissonUnavailable,
)
from .model import (
    DiffusionModel,
    _GL15_W,
    _GL15_X,
    _array_fn,
    _dyadic_octaves,
    _integral_with_tail,
    _tail_extrapolate,
    _two_sided,
    adaptive_panels,
    compute_kappa,
)

__all__ = [
    "EULER_GAMMA",
    "SIN_INTEGRAL_A",
    "REGIMES",
    "RegimeReport",
    "LimitLaw",
    "PoissonSolution",
    "SlowVarTransforms",
    "ell_one",
    "classify_regime",
    "compute_rho",
    "compute_rho_eps",
    "limit_law",
    "char_exponent",
    "poisson_solution",
    "slow_var_transforms",
]

REGIMES = ("Diffusive", "CriticalDiffusive", "Levy", "CriticalLevy")

# Euler-Mascheroni constant and A = int_0^1 (sin x - x)/x^2 dx
# + int_1^inf sin(x)/x^2 dx = 1 - gamma; both enter the alpha = 1
# characteristic exponent and generator drift.  Hard-coded to 20 significant
# digits and re-derived at import, to 1e-9, by the package's own adaptive
# Gauss panels (see _self_check_constants).
EULER_GAMMA = 0.57721566490153286061
SIN_INTEGRAL_A = 1.0 - EULER_GAMMA


def _self_check_constants() -> None:
    # gamma = -int_0^inf e^{-x} log x dx; with x = e^u the integrand
    # -u e^u exp(-e^u) is smooth, and cut at u = -50 and u = 5 it loses
    # below 1e-19
    g = adaptive_panels(lambda u: -u * np.exp(u - np.exp(u)),
                        np.linspace(-50.0, 5.0, 56), 1e-12).sum()
    a1 = adaptive_panels(lambda x: (np.sin(x) - x) / x**2,
                         np.linspace(0.0, 1.0, 5), 1e-12).sum()
    # int_1^inf sin(x)/x^2 dx rewritten through 1/x^2 = int_0^inf t e^{-xt} dt
    # (Fubini), which turns the oscillatory tail into an absolutely
    # convergent Laplace integral; cut at t = 60 it loses below 1e-24.
    s1, c1 = math.sin(1.0), math.cos(1.0)
    a2 = adaptive_panels(lambda t: t * np.exp(-t) * (t * s1 + c1) / (t * t + 1.0),
                         np.linspace(0.0, 60.0, 61), 1e-12).sum()
    if abs(g - EULER_GAMMA) > 1e-9 or abs((a1 + a2) - SIN_INTEGRAL_A) > 1e-9:
        raise ArithmeticError(
            "hard-coded constants failed their quadrature self-check: "
            f"gamma={g!r}, A={a1 + a2!r}"
        )


_self_check_constants()


def ell_one(v):
    """The trivial slowly varying function, ell = 1."""
    return np.ones_like(np.asarray(v, dtype=np.float64))


def _xlogabs(x: float) -> float:
    """x * log|x| with the 0 * log 0 = 0 convention."""
    return 0.0 if x == 0.0 else x * math.log(abs(x))


# ---------------------------------------------------------------------------
# slowly-varying-function machinery (u = log x coordinates)

_S_EDGES = np.linspace(0.0, 80.0, 41)
_S_HALF = 0.5 * (_S_EDGES[1:] - _S_EDGES[:-1])
_S_PTS = (0.5 * (_S_EDGES[1:] + _S_EDGES[:-1]))[:, None] + _S_HALF[:, None] * _GL15_X
_S_WTS = _S_HALF[:, None] * _GL15_W
_S_DECAY = np.exp(-0.5 * _S_PTS)

_U_MAX = 300.0  # log-coordinate horizon; x up to e^300, ell probed up to e^380
_ELL_PROBE = (1.0, 2.0, 8.0)  # array-contract probe: ell lives on [1, inf)


def _rho_integrand(ell: Callable) -> Callable:
    """G(u) = J(e^u)^2 e^u where J(x) = int_x^inf dv / (v^{3/2} ell(v)).

    The inner integral is computed with v = x e^s, giving
    J(x) = x^{-1/2} int_0^inf e^{-s/2} / ell(x e^s) ds, truncated at s = 80
    (relative remainder ~ e^{-40}).  Then rho = int_0^inf G(u) du.
    """
    ell = _array_fn(ell, "ell", _ELL_PROBE)

    def G(u):
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        x = np.exp(u)
        args = x[:, None, None] * np.exp(_S_PTS)[None, :, :]
        vals = ell(args.reshape(-1)).reshape(args.shape)
        J = (_S_DECAY[None, :, :] * _S_WTS[None, :, :] / vals).sum(axis=(1, 2))
        J /= np.sqrt(x)
        return J * J * x

    return G


def compute_rho(ell: Callable) -> float:
    """rho = int_1^inf (int_x^inf dv/(v^{3/2} ell(v)))^2 dx, possibly inf.

    Computed in u = log x coordinates on [0, 300] with a geometric tail
    extrapolation from the outermost dyadic octaves; a non-decaying octave
    trend (e.g. ell = 1, where the integrand is constant in u) returns inf.
    """
    panels, tail, divergent = _integral_with_tail(
        _rho_integrand(ell), np.linspace(0.0, _U_MAX, 121), 1e-10)
    if divergent or not np.isfinite(tail):
        return np.inf
    return float(panels.sum() + tail)


def _finite_real(v) -> bool:
    """Whether v is a finite real number (a bool is not one)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _check_eps(eps) -> float:
    """eps as a float when it is a finite real > 0 (not a bool);
    InvalidRequest otherwise."""
    if not (_finite_real(eps) and eps > 0.0):
        raise InvalidRequest(f"eps must be finite and > 0, got {eps!r}")
    return float(eps)


def _log_panels(g: Callable, u: float, rel_tol: float) -> float:
    """int_0^u g by adaptive panels on max(8, int(2u) + 1) equal-width edges;
    0 when u <= 0."""
    if u <= 0.0:
        return 0.0
    n = max(8, int(u * 2) + 1)
    return float(adaptive_panels(g, np.linspace(0.0, u, n), rel_tol).sum())


def compute_rho_eps(ell: Callable, eps: float) -> float:
    """Truncation rho_eps = int_1^{1/eps} of the rho integrand (0 if eps >= 1)."""
    eps = _check_eps(eps)
    return _log_panels(_rho_integrand(ell), math.log(1.0 / eps), 1e-10)


@dataclass(frozen=True)
class SlowVarTransforms:
    """Evaluators L(x) = int_1^x dv/(v ell) and N(x) = int_x^inf dv/(v ell),
    with N guarded by a divergence flag decided at construction."""

    L: Callable
    N: Callable
    n_divergent: bool


def slow_var_transforms(ell: Callable) -> SlowVarTransforms:
    """L/N transforms of a positive continuous slowly varying function.

    Both are computed in u = log x coordinates.  Calling N when
    int_1^inf dv/(v ell(v)) diverges raises Divergent.
    """
    ell = _array_fn(ell, "ell", _ELL_PROBE)

    def h(u):
        u = np.atleast_1d(np.asarray(u, dtype=np.float64))
        return 1.0 / ell(np.exp(u))

    n_tail, n_divergent = _tail_extrapolate(_dyadic_octaves(h, _U_MAX))

    def _u_of(x) -> float:
        x = float(x)
        if x < 1.0:
            raise InvalidRequest("transforms are defined for x >= 1")
        return math.log(x)

    def L(x) -> float:
        return _log_panels(h, _u_of(x), 1e-11)

    def N(x) -> float:
        if n_divergent:
            raise Divergent("int_1^inf dv/(v ell(v)) diverges; N is undefined")
        u = _u_of(x)
        n = max(8, int((_U_MAX - u) / 2) + 1)
        body = adaptive_panels(h, np.linspace(u, _U_MAX, n), 1e-11).sum()
        return float(body + n_tail)

    return SlowVarTransforms(L=L, N=N, n_divergent=bool(n_divergent))


# ---------------------------------------------------------------------------
# regime classification

@dataclass(frozen=True)
class RegimeReport:
    """Tail classification of (model, f): the stability index alpha, slowly
    varying ell, tail limits f_+-, and the regime they select."""

    alpha: float
    ell: Callable
    f_plus: float
    f_minus: float
    regime: str
    f_in_L1mu: bool
    tail_diagnostics: dict
    ell_name: str = "1"

    def __post_init__(self):
        if abs(self.f_plus) + abs(self.f_minus) <= 0.0:
            raise ClassificationFailed(
                "tail limits f_+ and f_- are both zero", diagnostics=self.tail_diagnostics)
        if self.regime not in REGIMES:
            raise InvalidRequest(f"unknown regime {self.regime!r}")


def _regime_of(alpha: float, ell: Callable) -> tuple[str, float | None]:
    """(regime, rho) from alpha and ell; rho is only computed when alpha = 2."""
    if alpha == 1.0:
        return "CriticalLevy", None
    if 0.0 < alpha < 2.0:
        return "Levy", None
    if alpha > 2.0:
        return "Diffusive", None
    rho = compute_rho(ell)
    return ("CriticalDiffusive" if np.isinf(rho) else "Diffusive"), rho


def _f_in_l1mu(alpha: float, ell: Callable) -> bool:
    if alpha > 1.0:
        return True
    if alpha < 1.0:
        return False
    return not slow_var_transforms(ell).n_divergent


# tail-ratio samples per side, at x = cutoff / 2^j, and how many of the
# outermost finite ones must agree with the claimed limit
_N_SAMPLES = 12
_N_FLAT = 5


def _ratio_samples(side, f, ell, alpha: float):
    """Sampled tail ratio [sigma s']^{-2}|s|^{2-1/alpha} ell(|s|) f on a
    geometric grid of ``_N_SAMPLES`` points on one side; computed in log
    space so that presets whose factors overflow double precision
    individually still yield the finite product.  Points where f itself
    overflows are returned as nan."""
    sign = side.sign
    xs = side.x[-1] * 2.0 ** -np.arange(_N_SAMPLES, dtype=np.float64)[::-1]
    E = side.E_spline(xs)
    s_abs = side.s_at(xs)
    sig = side.sigma(sign * xs)
    fx = f(sign * xs)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_pref = ((2.0 - 1.0 / alpha) * np.log(s_abs)
                    + np.log(ell(s_abs)) - 2.0 * E - 2.0 * np.log(sig))
        ratio = np.where(fx == 0.0, 0.0,
                         np.sign(fx) * np.exp(log_pref + np.log(np.abs(fx))))
    ratio[~np.isfinite(fx)] = np.nan
    return sign * xs, ratio


def classify_regime(
    model: DiffusionModel,
    f: Callable,
    claimed: tuple | None = None,
    *,
    trend_tol: float = 0.02,
) -> RegimeReport:
    """Classify the limit regime of (model, f).

    With ``claimed = (alpha, ell, f_plus, f_minus)`` (ell None means 1), the
    tail ratio is sampled on a geometric grid x = cutoff/2^j per side and
    convergence means: the outermost ``_N_FLAT`` finite samples differ
    pairwise by less than ``trend_tol`` relative to |f_+| + |f_-|, and their
    mean matches the claimed limit to the same tolerance.  Samples where f
    overflows double precision are skipped (the product is taken in log
    space, so only genuinely unrepresentable f values are lost).

    Without a claim, alpha is estimated from the log-log slope of |phi(w)|
    against |w| over the top usable decade of the scale image (slope =
    1/alpha - 2), ell is set to 1 with a warning, and f_+- are read off the
    compensated ratio.  An estimate cannot settle the alpha = 2 boundary
    (the normalization changes discontinuously there), so estimates landing
    within 0.02 of 2 fail and ask for a claimed alpha.
    """
    core = model.core()
    f = _array_fn(f, "f")
    diagnostics: dict = {"mode": "claimed" if claimed is not None else "estimated",
                         "warnings": []}

    if claimed is not None:
        alpha, ell, f_plus, f_minus = claimed
        alpha = float(alpha)
        if alpha <= 0.0:
            raise InvalidAlpha(f"claimed alpha must be positive, got {alpha}")
        if ell is None:
            ell, ell_name = ell_one, "1"
        else:
            ell = _array_fn(ell, "ell", _ELL_PROBE)
            ell_name = getattr(ell, "__name__", "ell")
        scale = abs(f_plus) + abs(f_minus)
        if scale <= 0.0:
            raise ClassificationFailed("claimed tail limits are both zero",
                                       diagnostics=diagnostics)
        for side, limit, key in ((core.pos, f_plus, "plus"), (core.neg, f_minus, "minus")):
            xs, ratio = _ratio_samples(side, f, ell, alpha)
            diagnostics[f"x_{key}"] = xs.tolist()
            diagnostics[f"ratio_{key}"] = ratio.tolist()
            finite = ratio[np.isfinite(ratio)]
            if finite.size < _N_FLAT:
                diagnostics["warnings"].append(
                    f"{key} side: only {finite.size} finite ratio samples")
                raise ClassificationFailed(
                    f"too few finite tail-ratio samples on the {key} side",
                    diagnostics=diagnostics)
            if finite.size < ratio.size:
                diagnostics["warnings"].append(
                    f"{key} side: {ratio.size - finite.size} overflowing samples skipped")
            last = finite[-_N_FLAT:]
            spread = float(last.max() - last.min())
            bias = float(abs(last.mean() - limit))
            diagnostics[f"spread_{key}"] = spread
            diagnostics[f"bias_{key}"] = bias
            if spread > trend_tol * scale or bias > trend_tol * scale:
                raise ClassificationFailed(
                    f"tail ratio on the {key} side does not converge to the claimed "
                    f"limit {limit:g} (spread {spread:.3g}, bias {bias:.3g}, "
                    f"tolerance {trend_tol * scale:.3g})",
                    diagnostics=diagnostics)
        regime, rho = _regime_of(alpha, ell)
        if rho is not None:
            diagnostics["rho"] = rho
        return RegimeReport(
            alpha=alpha, ell=ell, f_plus=float(f_plus), f_minus=float(f_minus),
            regime=regime, f_in_L1mu=_f_in_l1mu(alpha, ell),
            tail_diagnostics=diagnostics, ell_name=ell_name)

    # -- no claim: estimate alpha from the slope of log|phi| vs log|w| -------
    slopes, weights, side_data = [], [], {}
    for side, key in ((core.pos, "plus"), (core.neg, "minus")):
        sign = side.sign
        w = side.s_abs[1:]
        x = side.x[1:]
        fx = f(sign * x)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            log_phi = np.log(np.abs(fx)) - 2.0 * side.E[1:] - 2.0 * np.log(side.sigma(sign * x))
        usable = np.isfinite(log_phi)
        if not usable.any():
            side_data[key] = None
            continue
        w_max = w[usable].max()
        window = usable & (w >= w_max / 10.0)
        if window.sum() < 8:
            window = usable & (w >= w_max / 100.0)
        if window.sum() < 8:
            side_data[key] = None
            diagnostics["warnings"].append(f"{key} side: too few usable points")
            continue
        lw, lp = np.log(w[window]), log_phi[window]
        slope = float(np.polyfit(lw, lp, 1)[0])
        side_data[key] = (slope, sign, x[window], w[window], lp)
        diagnostics[f"slope_{key}"] = slope
        slopes.append(slope)
        weights.append(window.sum())

    if not slopes:
        raise ClassificationFailed(
            "f vanishes (or overflows) on both tails; cannot estimate alpha",
            diagnostics=diagnostics)
    if len(slopes) == 2 and abs(slopes[0] - slopes[1]) > 0.1:
        raise ClassificationFailed(
            f"tail exponents disagree between sides: slopes {slopes[0]:.3f} vs "
            f"{slopes[1]:.3f}", diagnostics=diagnostics)
    slope = float(np.average(slopes, weights=weights))
    if slope + 2.0 <= 0.02:
        raise ClassificationFailed(
            f"log-log slope {slope:.3f} implies alpha outside (0, 50]",
            diagnostics=diagnostics)
    alpha = 1.0 / (slope + 2.0)
    diagnostics["alpha_estimate"] = alpha
    if abs(alpha - 2.0) < 0.02:
        raise ClassificationFailed(
            f"estimated alpha = {alpha:.4f} is indistinguishable from the "
            "diffusive boundary 2; supply a claimed alpha (the normalization "
            "changes discontinuously at 2)", diagnostics=diagnostics)
    if abs(alpha - 1.0) < 0.05:
        diagnostics["warnings"].append(
            f"estimated alpha = {alpha:.4f} is near the critical value 1; "
            "supply a claimed alpha if the regime is known")
    diagnostics["warnings"].append("ell set to 1 (not estimable from samples)")

    f_pm = {"plus": 0.0, "minus": 0.0}
    for key, data in side_data.items():
        if data is None:
            continue
        _, sign, xw, ww, lp = data
        vals = np.exp((2.0 - 1.0 / alpha) * np.log(ww) + lp)
        tail_sign = float(np.sign(f(np.asarray([sign * xw[-1]]))[0]))
        f_pm[key] = tail_sign * float(vals.mean())
    regime, rho = _regime_of(alpha, ell_one)
    if rho is not None:
        diagnostics["rho"] = rho
    return RegimeReport(
        alpha=alpha, ell=ell_one, f_plus=f_pm["plus"], f_minus=f_pm["minus"],
        regime=regime, f_in_L1mu=_f_in_l1mu(alpha, ell_one),
        tail_diagnostics=diagnostics, ell_name="1")


# ---------------------------------------------------------------------------
# the limit law

@dataclass
class LimitLaw:
    """Every closed-form constant of the stable limit, per regime.

    ``sigma_alpha`` is the scale: the limit is sigma_alpha * W_t in the
    diffusive regimes and sigma_alpha * S_t^(alpha) otherwise, where S has
    characteristic function exp(-t |xi|^alpha z_alpha(xi)).  Levy-only fields
    are None in diffusive regimes and vice versa; the eps-indexed functions
    raise InvalidRequest where they are not defined, and for an eps that is
    not finite and > 0.

    A law, built by hand or read by :meth:`from_json`, raises
    InvalidRequest unless its regime is one of ``REGIMES``; alpha,
    sigma_alpha, kappa, f_plus, f_minus and the constants that
    :meth:`z_of_xi` reads (beta_f for Levy, the three z1 constants for
    CriticalLevy) are finite real numbers; sigma_alpha and kappa are > 0
    (the validation grid is scaled by 1/sigma_alpha); and alpha fits the
    regime as :func:`classify_regime` assigns it: 0 < alpha < 2 with
    alpha != 1 for Levy (z_of_xi's tan(alpha pi/2) is 1.6e16 at 1), alpha = 1
    for CriticalLevy, alpha >= 2 for Diffusive, alpha = 2 for
    CriticalDiffusive.
    """

    regime: str
    alpha: float
    sigma_alpha: float
    kappa: float
    f_plus: float
    f_minus: float
    ell_name: str = "1"
    beta_f: float | None = None
    rho: float | None = None
    lambda_alpha: float | None = None
    levy_c_plus: float | None = None
    levy_c_minus: float | None = None
    generator_drift_a: float | None = None
    notes: tuple = ()
    _z1: tuple | None = field(default=None, repr=False)
    _rho_eps_fn: Callable | None = field(default=None, repr=False)
    _xi_eps_fn: Callable | None = field(default=None, repr=False)
    _zeta_eps_fn: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise InvalidRequest(f"unknown regime {self.regime!r}")
        needed = [("alpha", self.alpha), ("sigma_alpha", self.sigma_alpha),
                  ("kappa", self.kappa), ("f_plus", self.f_plus), ("f_minus", self.f_minus)]
        if self.regime == "Levy":
            needed.append(("beta_f", self.beta_f))
        if self._z1 is not None or self.regime == "CriticalLevy":
            if not isinstance(self._z1, (tuple, list)) or len(self._z1) != 3:
                raise InvalidRequest(f"z1_constants must be three numbers, got {self._z1!r}")
            self._z1 = tuple(self._z1)
            needed += [("z1_constants", v) for v in self._z1]
        bad = sorted({name for name, v in needed if not _finite_real(v)})
        if bad:
            raise InvalidRequest(
                f"{self.regime} law has a missing or non-finite {', '.join(bad)}")
        if not (self.sigma_alpha > 0.0 and self.kappa > 0.0):
            raise InvalidRequest(f"sigma_alpha and kappa must be > 0, got "
                                 f"{self.sigma_alpha!r} and {self.kappa!r}")
        alpha = self.alpha
        fits = {"Levy": 0.0 < alpha < 2.0 and alpha != 1.0, "CriticalLevy": alpha == 1.0,
                "Diffusive": alpha >= 2.0, "CriticalDiffusive": alpha == 2.0}
        if not fits[self.regime]:
            raise InvalidRequest(f"alpha = {alpha!r} does not fit the {self.regime} regime")

    # -- characteristic exponent factor ------------------------------------

    def z_of_xi(self, xi):
        """z_alpha(xi): 1 in the diffusive regimes, 1 - i beta_f tan(alpha
        pi/2) sgn(xi) in the Levy regime, and the logarithmic bracket form at
        alpha = 1.  Re z = 1 exactly and z(-xi) = conj(z(xi))."""
        xi = np.asarray(xi, dtype=np.float64)
        if self.regime in ("Diffusive", "CriticalDiffusive"):
            return np.ones_like(xi) + 0j
        if self.regime == "Levy":
            skew = self.beta_f * math.tan(self.alpha * math.pi / 2.0)
            return 1.0 - 1j * skew * np.sign(xi)
        sigma_f, lam_f, sum_f = self._z1
        with np.errstate(divide="ignore", invalid="ignore"):
            bracket = (sum_f * (np.log(2.0 * np.abs(xi) / (math.pi * sigma_f))
                                + 2.0 * EULER_GAMMA + math.log(2.0))
                       + lam_f) / sigma_f
            out = 1.0 + 1j * (2.0 / math.pi) * np.sign(xi) * bracket
        return np.where(xi == 0.0, 1.0 + 0j, out)

    # -- eps-indexed quantities ---------------------------------------------

    def rho_eps(self, eps: float) -> float:
        if self._rho_eps_fn is None:
            if self.regime in ("Levy", "CriticalLevy"):
                raise InvalidRequest(
                    f"rho_eps applies to the diffusive regimes, not {self.regime}")
            raise InvalidRequest("rho_eps is not available on a deserialized law")
        return self._rho_eps_fn(_check_eps(eps))

    def xi_eps(self, eps: float) -> float:
        """Exact centering (alpha = 1): kappa ell(1/eps) int f dm over the
        inverse-scale preimage of [-kappa/eps, kappa/eps]."""
        if self.regime != "CriticalLevy":
            raise InvalidRequest(f"xi_eps is defined only at alpha = 1, not for {self.regime}")
        if self._xi_eps_fn is None:
            raise InvalidRequest("xi_eps is not available on a deserialized law")
        return self._xi_eps_fn(_check_eps(eps))

    def zeta_eps(self, eps: float) -> float:
        if self.regime != "CriticalLevy":
            raise InvalidRequest(f"zeta_eps is defined only at alpha = 1, not for {self.regime}")
        if self._zeta_eps_fn is None:
            raise InvalidRequest("zeta_eps is not available on a deserialized law")
        return self._zeta_eps_fn(_check_eps(eps))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        """JSON-safe dict (infinities encoded as the string "inf")."""

        def enc(v):
            if v is None:
                return None
            if isinstance(v, float) and math.isinf(v):
                return "inf" if v > 0 else "-inf"
            return v

        return {
            "schema": 1,
            "regime": self.regime,
            "alpha": self.alpha,
            "sigma_alpha": self.sigma_alpha,
            "kappa": self.kappa,
            "f_plus": self.f_plus,
            "f_minus": self.f_minus,
            "ell": self.ell_name,
            "beta_f": enc(self.beta_f),
            "rho": enc(self.rho),
            "lambda_alpha": enc(self.lambda_alpha),
            "levy_c_plus": enc(self.levy_c_plus),
            "levy_c_minus": enc(self.levy_c_minus),
            "generator_drift_a": enc(self.generator_drift_a),
            "z1_constants": list(self._z1) if self._z1 is not None else None,
            "notes": list(self.notes),
        }

    @classmethod
    def from_json(cls, data: dict) -> "LimitLaw":
        if not isinstance(data, dict):
            raise InvalidRequest("a limit law is a JSON object")
        if data.get("schema") != 1:
            raise InvalidRequest(f"unsupported limit-law schema {data.get('schema')!r}")
        missing = [key for key in ("regime", "alpha", "sigma_alpha", "kappa", "f_plus",
                                   "f_minus") if key not in data]
        if missing:
            raise InvalidRequest(f"limit law lacks {', '.join(missing)}")

        def dec(v):
            if v == "inf":
                return np.inf
            if v == "-inf":
                return -np.inf
            return v

        notes = data.get("notes", [])
        if not (isinstance(notes, list) and all(isinstance(n, str) for n in notes)):
            raise InvalidRequest("limit-law notes must be a list of strings")
        return cls(
            regime=data["regime"], alpha=data["alpha"],
            sigma_alpha=data["sigma_alpha"], kappa=data["kappa"],
            f_plus=data["f_plus"], f_minus=data["f_minus"],
            ell_name=data.get("ell", "1"),
            beta_f=dec(data.get("beta_f")), rho=dec(data.get("rho")),
            lambda_alpha=dec(data.get("lambda_alpha")),
            levy_c_plus=dec(data.get("levy_c_plus")),
            levy_c_minus=dec(data.get("levy_c_minus")),
            generator_drift_a=dec(data.get("generator_drift_a")),
            notes=tuple(notes), _z1=data.get("z1_constants"))


def _lambda_alpha(alpha: float, kappa: float) -> float:
    """kappa 2^{alpha-2} pi / (alpha sin(alpha pi/2)) (alpha^alpha/Gamma(alpha))^2."""
    return (kappa * 2.0 ** (alpha - 2.0) * math.pi
            / (alpha * math.sin(alpha * math.pi / 2.0))
            * (alpha**alpha / math.gamma(alpha)) ** 2)


# mu(f) counts as 0 below _CENTER_TOL (1 + mu(|f|)), plus the tail slack
_CENTER_TOL = 1e-6


def _check_centered(model: DiffusionModel, f: Callable, fm_sides: list) -> None:
    """NotCentered unless mu(f) vanishes; ``fm_sides`` are the
    ``m_side_integrals`` of f, from which mu(f) is summed as
    :func:`invariant_integral` sums it."""
    kappa = compute_kappa(model)
    total, tail, divergent = model.core().sum_sides(fm_sides)
    if divergent or not np.isfinite(tail):
        raise NotIntegrable("int f dmu diverges (non-decaying tail trend)")
    mu_f = kappa * (total + tail)
    # |f| has a kink wherever a centered f crosses zero, which can defeat a
    # tight panel tolerance; 1% is plenty since |f| only calibrates the check
    total, tail, divergent = model.core().integrate_against_m(
        lambda x: np.abs(f(x)), rel_tol=1e-2)
    if divergent or not np.isfinite(tail):
        raise NotIntegrable("int |f| dmu diverges")
    mu_abs = kappa * (total + tail)
    # mu(f) cannot be resolved below the extrapolation error of the
    # beyond-cutoff remainder, so half the |f| tail joins the tolerance
    slack = _CENTER_TOL * (1.0 + mu_abs) + 0.5 * kappa * tail
    if abs(mu_f) > slack:
        raise NotCentered(
            f"f integrates against the invariant law to {mu_f:.3g} "
            f"(tolerance {slack:.3g}); center f by subtracting it")


def _diffusive_sigma_sq(model: DiffusionModel, f: Callable, fm_sides: list) -> float:
    """sigma_alpha^2 = 4 kappa int s'(x) (int_x^inf f m)^2 dx by adaptive
    Gauss panels on the model grid plus a geometric estimate of the
    beyond-cutoff tail (route A; the Poisson route B is independent).
    ``fm_sides`` are the ``m_side_integrals`` of f."""
    core = model.core()
    kappa = compute_kappa(model)
    T, mismatch = core.fm_tail_integral(f, fm_sides)
    if abs(mismatch) > 1e-6 * (1.0 + abs(T(0.0))):
        raise NotCentered(
            f"tail integrals of f*m from both sides disagree at 0 by {mismatch:.3g}; "
            "f is not centered")
    total = 0.0
    for side in (core.pos, core.neg):
        def integrand(u, side=side):
            return np.exp(side.E_spline(u)) * T(side.sign * u) ** 2
        panels, tail, divergent = _integral_with_tail(integrand, side.x, 1e-9)
        if divergent or not np.isfinite(tail):
            raise NotIntegrable("the variance integral int s' (int_x^inf f m)^2 diverges")
        total += panels.sum() + tail
    return 4.0 * kappa * total


def _xi_eps_exact(model: DiffusionModel, f: Callable, ell: Callable, kappa: float) -> Callable:
    core = model.core()

    def xi(eps: float) -> float:
        w_edge = kappa / eps
        total = 0.0
        for side in (core.pos, core.neg):
            bound = abs(core.inv_s(side.sign * w_edge))
            edges = np.append(side.x[side.x < bound], bound)
            total += adaptive_panels(side.m_integrand(f), edges, 1e-10).sum()
        return float(kappa * ell(np.asarray([1.0 / eps]))[0] * total)

    return xi


def limit_law(report: RegimeReport, model: DiffusionModel, f: Callable) -> LimitLaw:
    """Fill every limit-law constant appropriate to the report's regime.

    Checks that f is centered whenever it is mu-integrable (the limit
    statements require mu(f) = 0 then).  Diffusive variance uses the direct
    quadrature route; the Poisson route is available separately for
    cross-checking.
    """
    f = _array_fn(f, "f")
    kappa = compute_kappa(model)
    alpha, regime = report.alpha, report.regime
    f_p, f_m = report.f_plus, report.f_minus
    notes: list[str] = []

    # the f*m quadrature, shared by the centering check and sigma^2
    fm_sides = None
    if report.f_in_L1mu or regime == "Diffusive":
        fm_sides = model.core().m_side_integrals(f)
    if report.f_in_L1mu:
        _check_centered(model, f, fm_sides)

    if regime in ("Diffusive", "CriticalDiffusive"):
        critical = regime == "CriticalDiffusive"
        # classify_regime stores rho whenever alpha = 2; only a hand-built
        # report can lack it
        rho = report.tail_diagnostics.get("rho")
        if rho is None and (critical or alpha == 2.0):
            rho = compute_rho(report.ell)
        if critical and not np.isinf(rho):
            raise InvalidRequest("CriticalDiffusive requires rho = inf")
        if not critical and alpha == 2.0 and np.isinf(rho):
            raise InvalidRequest("rho = inf at alpha = 2 is the CriticalDiffusive regime")
        sigma_sq = (4.0 * kappa * (f_p**2 + f_m**2) if critical
                    else _diffusive_sigma_sq(model, f, fm_sides))
        return LimitLaw(
            regime=regime, alpha=alpha, sigma_alpha=math.sqrt(sigma_sq),
            kappa=kappa, f_plus=f_p, f_minus=f_m, ell_name=report.ell_name,
            rho=rho, notes=tuple(notes),
            _rho_eps_fn=lambda eps: compute_rho_eps(report.ell, eps))

    # Levy measure weights shared by both stable regimes
    lam = _lambda_alpha(alpha, kappa)
    abs_sum = abs(f_p) ** alpha + abs(f_m) ** alpha
    beta_f = ((math.copysign(abs(f_p) ** alpha, f_p) if f_p else 0.0)
              + (math.copysign(abs(f_m) ** alpha, f_m) if f_m else 0.0)) / abs_sum
    c_plus = lam * ((abs(f_p) ** alpha if f_p > 0 else 0.0)
                    + (abs(f_m) ** alpha if f_m > 0 else 0.0))
    c_minus = lam * ((abs(f_p) ** alpha if f_p < 0 else 0.0)
                     + (abs(f_m) ** alpha if f_m < 0 else 0.0))

    if regime == "Levy":
        return LimitLaw(
            regime=regime, alpha=alpha, sigma_alpha=(lam * abs_sum) ** (1.0 / alpha),
            kappa=kappa, f_plus=f_p, f_minus=f_m, ell_name=report.ell_name,
            beta_f=beta_f, lambda_alpha=lam,
            levy_c_plus=c_plus, levy_c_minus=c_minus, notes=tuple(notes))

    # CriticalLevy (alpha = 1): sigma_1 = kappa (pi/2)(|f_+| + |f_-|)
    sigma_f = abs(f_p) + abs(f_m)
    lam_f = _xlogabs(f_p) + _xlogabs(f_m)
    sum_f = f_p + f_m
    sigma_1 = lam * sigma_f  # lambda_1 = kappa pi / 2
    drift_a = -(sum_f * (2.0 * EULER_GAMMA + math.log(2.0) + kappa * math.log(kappa)
                         + kappa * (math.pi / 2.0) * SIN_INTEGRAL_A)
                + lam_f)
    if sum_f == 0.0:
        notes.append("f_+ + f_- = 0: z_1 = 1 (symmetric limit) and the "
                     "asymptotic centering vanishes; the exact xi_eps is still used")
    transforms = slow_var_transforms(report.ell)
    if report.f_in_L1mu:
        zeta = lambda eps: -transforms.N(1.0 / eps)
    else:
        zeta = lambda eps: transforms.L(1.0 / eps)
    return LimitLaw(
        regime=regime, alpha=1.0, sigma_alpha=sigma_1, kappa=kappa,
        f_plus=f_p, f_minus=f_m, ell_name=report.ell_name,
        beta_f=beta_f, lambda_alpha=lam,
        levy_c_plus=c_plus, levy_c_minus=c_minus,
        generator_drift_a=drift_a, notes=tuple(notes),
        _z1=(sigma_f, lam_f, sum_f),
        _xi_eps_fn=_xi_eps_exact(model, f, report.ell, kappa),
        _zeta_eps_fn=zeta)


def char_exponent(law: LimitLaw, xi, t: float):
    """Characteristic function of the limit at time t: exp(-t sigma^2 xi^2/2)
    in the diffusive regimes, exp(-t |sigma_alpha xi|^alpha z_alpha(sigma_alpha
    xi)) in the stable ones.  Accepts scalar or array xi; a t that is
    negative, NaN or infinite raises :class:`InvalidRequest`."""
    if not (math.isfinite(t) and t >= 0.0):
        raise InvalidRequest(f"char_exponent requires a finite t >= 0, got {t!r}")
    xi = np.asarray(xi, dtype=np.float64)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    if law.regime in ("Diffusive", "CriticalDiffusive"):
        out = np.exp(-t * law.sigma_alpha**2 * xi**2 / 2.0) + 0j
    else:
        w = law.sigma_alpha * xi
        out = np.exp(-t * np.abs(w) ** law.alpha * law.z_of_xi(w))
        out = np.where(xi == 0.0, 1.0 + 0j, out)
    return complex(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Poisson equation route to the diffusive variance

#: Nodes per side of the Poisson grid (the quadrature uses all of them, the
#: Hermite read-out the even ones).  gamma^2 on kinetic(7) moves by 3e-11
#: relative between 2^15 and 2^21 nodes.  g' on kinetic(7) is within 4e-9
#: relative of its closed form 0.4(1+x^2) on [-20, 20] (3.3e-7 with a linear
#: read-out on 2^19 + 1 nodes; 6.6e-8 at 2^15 + 1).  heavy_tailed(1), whose g
#: is x, sets the floor: g is 1.7e-10 off on [-10, 10] here, 2.7e-9 at 2^15 + 1.
_POISSON_GRID = 2**16 + 1


@dataclass(frozen=True)
class PoissonSolution:
    """g with 2 b g' + sigma^2 g'' = -2f, its derivative, and gamma^2 =
    int (g' sigma)^2 dmu (equal to the diffusive sigma_alpha^2).

    ``g`` and ``g_prime`` are cubic Hermite read-outs through the even ones
    of the ``_POISSON_GRID`` nodes per side: g with g' as its slopes, g' with
    g'' = -(2 f + 2 b g') / sigma^2 taken from the equation at the nodes.
    Beyond a side's cutoff both return that side's end value.  Each
    read-out builds its two splines (and g, or g'') on its first call, so a
    drift that fails on the grid raises there, not in ``poisson_solution``.
    ``gamma_sq_err`` is the Richardson estimate |S_h - S_2h| / 15 of the
    Simpson body of gamma^2 (reported, not a bound; the octave tail beyond
    the cutoff is not in it).
    """

    g: Callable
    g_prime: Callable
    gamma_sq: float
    gamma_sq_err: float


def poisson_solution(model: DiffusionModel, f: Callable) -> PoissonSolution:
    """Solve the Poisson equation by composite-Simpson quadrature on a
    uniform grid of ``_POISSON_GRID`` nodes per side (independent of the
    adaptive-panel variance route; the grid is a module constant, not a
    keyword).

    g(x) = 2 int_0^x s'(v) T(v) dv with T(v) = int_v^inf f m; T is assembled
    from the outer cutoff inward on each side (with a geometric tail
    estimate, capped by a power law fitted at the cutoff), which keeps it
    accurate where f m decays fast; the two
    assemblies must agree at 0 (this is mu(f)/kappa) or NotCentered is
    raised.  gamma^2 integrates (g' sigma)^2 m literally.  Between the even
    nodes g and g' are cubic Hermite interpolants whose slopes are g' and
    g'' = -(2 f + 2 b g') / sigma^2, the latter exact from the equation.

    Only what gamma^2 needs is computed here: T, g' at the nodes and the
    two variance sums, so every NotCentered and PoissonUnavailable is
    raised by this call.  g by cumulative Simpson, g'' and the splines are
    built when ``g`` or ``g_prime`` is first called.  ``simpson``,
    ``cumulative_simpson`` and the Hermite splines are ``_numerics``'s numpy
    ports of their scipy namesakes, equal to them to the bit.
    """
    core = model.core()
    kappa = compute_kappa(model)
    f = _array_fn(f, "f")

    def octave_tail(xs, y):
        """Geometric tail beyond xs[-1] from trapezoid sums of |y| over 8 octaves."""
        hi = xs[-1]
        octs = []
        for _ in range(8):
            lo = hi / 2.0
            # xs ascends, so the octave [lo, hi] is one slice
            i, j = np.searchsorted(xs, lo, "left"), np.searchsorted(xs, hi, "right")
            octs.append(float(np.trapezoid(np.abs(y[i:j]), xs[i:j])))
            hi = lo
        return _tail_extrapolate(np.asarray(octs[::-1]))

    def power_tail(xs, y):
        """int_{xs[-1]}^inf of the power law |y| ~ u^-p through the last two
        nodes; inf where that law is not integrable (p <= 1).  It is exact
        for a power tail and, with p = 2 x^2, close for a Gaussian one, whose
        octave extrapolation overstates it by up to ~10^120 (heavy_tailed(1):
        9.4e-171 against about 1e-294 at the cutoff)."""
        y1, y0 = abs(float(y[-1])), abs(float(y[-2]))
        if not 0.0 < y1 < y0:
            return math.inf
        p = math.log(y0 / y1) / math.log(xs[-1] / xs[-2])
        return y1 * xs[-1] / (p - 1.0) if p > 1.0 else math.inf

    sides = {}
    for side in (core.pos, core.neg):
        sign = side.sign
        xs = np.linspace(0.0, side.x[-1], _POISSON_GRID)
        dx = xs[1] - xs[0]
        E = side.E_spline(xs)
        sig = side.sigma(sign * xs)
        m = np.exp(-E) / sig**2
        fv = f(sign * xs)
        fm = fv * m

        # geometric tail estimate beyond the cutoff, from trapezoid octaves
        tail_abs, divergent = octave_tail(xs, fm)
        if divergent or not np.isfinite(tail_abs):
            raise PoissonUnavailable(
                "int_x^inf f m diverges; the Poisson solution does not exist")
        outer_sign = float(np.sign(fm[int(0.9 * _POISSON_GRID):].sum())) or 1.0
        # g' = 2 e^E T multiplies the tail by the inverse of the decaying
        # factor, so it is bounded by the local power-law estimate
        tail = outer_sign * min(tail_abs, power_tail(xs, fm))

        # accumulate int_x^{cutoff} from the outer end inward: summing the
        # small outer contributions first keeps T accurate where it is tiny
        # (a left-to-right cumulative sum subtracted from its total would
        # drown the far tail in rounding noise)
        T = cumulative_simpson(fm[::-1], dx)[::-1] + tail
        sides[sign] = (xs, dx, E, sig, m, fv, T)

    xp, dxp, Ep, sigp, mp, fp, Tp = sides[+1.0]
    xn, dxn, En, sig_n, mn, fn, Tn = sides[-1.0]
    # The per-side assembly gives int_{|x|}^inf (f m)(sign * u) du in the
    # distance coordinate u = |x|.  On the negative side the true tail
    # integral is T(x) = -int_{-inf}^x f m (when mu(f) = 0), and substituting
    # v = -u turns that into minus the assembled quantity.
    Tn = -Tn

    mismatch = float(Tp[0] - Tn[0])
    scale0 = 1.0 + abs(Tp[0]) + abs(Tn[0])
    if abs(mismatch) > 1e-6 * scale0:
        raise NotCentered(
            f"two-sided assemblies of int_x^inf f m disagree at 0 by {mismatch:.3g}; "
            "mu(f) is not 0")

    gp_pos = 2.0 * np.exp(Ep) * Tp
    gp_neg = 2.0 * np.exp(En) * Tn

    def _var_piece(xs, dx, gp, sig, m):
        """(body + tail, |S_h - S_2h| / 15) of int (g' sigma)^2 m on one side."""
        integrand = (gp * sig) ** 2 * m
        body = float(simpson(integrand, dx))
        coarse = float(simpson(integrand[::2], 2.0 * dx))
        tail, divergent = octave_tail(xs, integrand)
        if divergent or not np.isfinite(tail):
            raise PoissonUnavailable("int (g' sigma)^2 dmu diverges")
        return body + tail, abs(body - coarse) / 15.0

    var_p, err_p = _var_piece(xp, dxp, gp_pos, sigp, mp)
    var_n, err_n = _var_piece(xn, dxn, gp_neg, sig_n, mn)
    gamma_sq = kappa * (var_p + var_n)
    gamma_sq_err = kappa * (err_p + err_n)

    def read_out(xs, nodes):
        """Hermite spline in the distance u through the even nodes, held at
        its end values beyond the grid (np.clip keeps a nan a nan).
        ``nodes()`` gives the (values, slopes) at all nodes; it and the
        spline run on the read-out's first call only.

        The even nodes are composite-Simpson sums; the odd nodes of
        ``cumulative_simpson`` (scipy's rule) add its one-interval rule,
        whose error alternates in sign from node to node (2.6e-8 relative in
        g' on kinetic(7) near 0, 6x the error of the even-node spline)."""
        @functools.cache
        def spline():
            values, slopes = nodes()
            return CubicHermiteSpline(xs[::2], values[::2], slopes[::2])

        cut = xs[-1]
        return lambda u: spline()(np.clip(u, 0.0, cut))

    def gpp(x, f_nodes, gp, sig):
        """g'' = -(2 f + 2 b g') / sigma^2 at the nodes x."""
        return -(2.0 * f_nodes + 2.0 * model.drift(x) * gp) / sig**2

    # On the negative side the distance u = -x reverses every slope:
    # d/du g(-u) = -g'(-u) and d/du g'(-u) = -g''(-u).
    g_p = read_out(xp, lambda: (cumulative_simpson(gp_pos, dxp), gp_pos))
    g_n = read_out(xn, lambda: (-cumulative_simpson(gp_neg, dxn),  # int_0^{-u}
                                -gp_neg))
    gp_p = read_out(xp, lambda: (gp_pos, gpp(xp, fp, gp_pos, sigp)))
    gp_n = read_out(xn, lambda: (gp_neg, -gpp(-xn, fn, gp_neg, sig_n)))

    def g(x):
        return _two_sided(x, g_p, g_n)

    def g_prime(x):
        return _two_sided(x, gp_p, gp_n)

    return PoissonSolution(g=g, g_prime=g_prime, gamma_sq=float(gamma_sq),
                           gamma_sq_err=float(gamma_sq_err))
