"""Statistical comparison layer: ECF bands, tail-index estimation, KS tests.

The validation currency is the empirical characteristic function.  Sample
sets (Monte Carlo functionals, direct stable samples, excursion samples) are
compared to analytic characteristic functions pointwise on a log-spaced
xi grid, with per-point standard-error bands; distributional equality of two
sample sets is tested with the classical two-sample Kolmogorov-Smirnov
statistic.  The stable index is estimated by regressing
``log(-log|ECF|)`` on ``log xi``, which has slope alpha for any stable law
regardless of scale (scale moves only the intercept).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import TAG_BOOTSTRAP, checked_seed, stream
from .asymptotics import LimitLaw, char_exponent
from .errors import InvalidRequest, WindowNotFound

# Asymptotic two-sample Kolmogorov-Smirnov critical coefficient at level 0.01:
# c(q) = sqrt(-log(q/2)/2), so that D > c(q) sqrt((n+m)/(nm)) rejects.
KS_COEFF_01 = 1.6277
_ECF_BAND = (0.2, 0.9)  # |ECF| window used for index regression
_MIN_WINDOW = 8
_ECF_BLOCK = 8          # grid points per pass of estimate_alpha's float32 screen
_TWO_PI = 2.0 * math.pi
# the verdict thresholds of validate_against_law, stated in its docstring
_N_SE = 3.0             # CF band half-width, in standard errors
_BAND_ALLOWANCE = 0.02  # added to that half-width
_MAX_OUTSIDE = 2        # grid points allowed outside the band
_ALPHA_TOL = 0.15       # largest |alpha_hat - effective alpha|


@dataclass(frozen=True)
class EmpiricalCF:
    """ECF values on a grid with component-wise standard errors.

    ``se`` is the combined per-point error sqrt(se_re^2 + se_im^2), the right
    band half-width for modulus-of-difference comparisons.
    """

    xi: np.ndarray
    values: np.ndarray
    se: np.ndarray
    se_re: np.ndarray
    se_im: np.ndarray
    n: int


def _finite_samples(samples, name: str = "samples") -> np.ndarray:
    """``samples`` as a flat float64 array; any NaN or infinity raises
    :class:`InvalidRequest`, since no ECF, index or KS verdict is defined
    on it (a NaN gap is never outside a band, and sorts past every bound)."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    bad = int(np.count_nonzero(~np.isfinite(x)))
    if bad:
        raise InvalidRequest(f"{name} hold {bad} non-finite values out of {x.size}")
    return x


def _ecf_rows(x: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ECF values on the grid and the rows they average: the
    ``(m, 2, n)`` result holds cos(xi_i x) at ``[i, 0]`` and sin(xi_i x) at
    ``[i, 1]``, m the grid size, so a point's two rows are adjacent."""
    trig = np.empty((xi.size, 2, x.size))
    phase = np.multiply.outer(xi, x, out=trig[:, 0])
    np.sin(phase, out=trig[:, 1])
    np.cos(phase, out=phase)        # phase is not needed again
    return trig[:, 0].mean(axis=1) + 1j * trig[:, 1].mean(axis=1), trig


def _screened_ecf(x: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|ECF| on the grid from float32 trig, and a bound on its distance
    from the |ECF| of :func:`_ecf_rows`, a block of ``_ECF_BLOCK`` points
    at a time.

    Each phase t = xi x is the float64 product :func:`_ecf_rows` takes.
    It is reduced in float64 to r = t - k c, with k = rint(t / 2 pi) and
    c = fl(2 pi): k c misses k 2 pi by |k| |c - 2 pi| < |t| 2^-54 + 2^-51,
    its rounding adds |t| 2^-53, and the subtraction rounds by at most
    2^-51.  Casting r to float32 moves it by |r| 2^-24, about 2e-7, and
    numpy's float32 cos and sin are within a few float32 ulps, about
    2.4e-7.  So each float32 cos and sin is within 5e-7 + 1.5 |t| 2^-53 of
    the float64 one.  The means, summed in float64, keep the mean of those
    errors (xi mean|x| in place of |t|), and |ECF| moves by at most sqrt(2)
    times it.  The bound ``1e-5 + 2**-49 xi mean|x|`` exceeds that tenfold
    (measured at n = 20 000: at most 1.45e-7 per value, 1.4e-9 on |ECF|).
    A phase past the float64 range gives a NaN screened value or an
    infinite bound.
    """
    n = x.size
    mod = np.empty(xi.size)
    phase = np.empty((_ECF_BLOCK, n))
    turns = np.empty((_ECF_BLOCK, n))
    r32 = np.empty((_ECF_BLOCK, n), dtype=np.float32)
    trig32 = np.empty((_ECF_BLOCK, n), dtype=np.float32)
    with np.errstate(invalid="ignore", over="ignore"):
        for j in range(0, xi.size, _ECF_BLOCK):
            block = xi[j:j + _ECF_BLOCK]
            w = block.size
            t = np.multiply.outer(block, x, out=phase[:w])
            k = np.multiply(t, 1.0 / _TWO_PI, out=turns[:w])
            np.rint(k, out=k)
            k *= _TWO_PI
            t -= k
            r = r32[:w]
            np.copyto(r, t, casting="same_kind")
            re = np.cos(r, out=trig32[:w]).mean(axis=1, dtype=np.float64)
            im = np.sin(r, out=trig32[:w]).mean(axis=1, dtype=np.float64)
            mod[j:j + w] = np.hypot(re, im)
        bound = 1e-5 + 2.0**-49 * xi * np.abs(x).mean()
    return mod, bound


def empirical_cf(samples, xi_grid) -> EmpiricalCF:
    """(1/n) sum exp(i xi x_j) on the grid, with standard errors.  A NaN or
    infinity in ``samples`` or ``xi_grid`` raises :class:`InvalidRequest`."""
    x = _finite_samples(samples)
    xi = _finite_samples(xi_grid, "xi_grid")
    if x.size < 100:
        raise InvalidRequest(f"empirical CF needs at least 100 samples, got {x.size}")
    values, trig = _ecf_rows(x, xi)
    re, im = trig[:, 0], trig[:, 1]
    se_re = re.std(axis=1, ddof=1) / math.sqrt(x.size)
    se_im = im.std(axis=1, ddof=1) / math.sqrt(x.size)
    return EmpiricalCF(xi=xi, values=values, se=np.hypot(se_re, se_im),
                       se_re=se_re, se_im=se_im, n=x.size)


@dataclass(frozen=True)
class AlphaEstimate:
    alpha_hat: float
    # central 95% interval of the moment-matched Gaussian bootstrap, whose
    # window ECFs have the multinomial resamples' mean and covariance
    ci: tuple[float, float]
    se: float
    xi_window: tuple[float, float]
    n_window: int


def estimate_alpha(samples, seed: int = 0, n_boot: int = 200) -> AlphaEstimate:
    """Stable index from the decay of the ECF modulus.

    For any alpha-stable law, -log|CF(xi)| = const * |xi|^alpha, so the slope
    of log(-log|ECF|) against log xi over a window where |ECF| is neither
    saturated nor noise (|ECF| in [0.2, 0.9]) estimates alpha.  The window is
    selected once on the full sample and held fixed across the bootstrap
    replicates, so the CI reflects slope noise at the chosen window.
    ``n_boot``, the number of replicates, must be an integer of at least 2,
    the fewest that give a spread, and ``seed`` an integer in [0, 2**64);
    anything else raises :class:`InvalidRequest`.

    ``alpha_hat`` is the ``np.polyfit`` slope of the full sample.  The
    grid's |ECF| is first screened in float32 (:func:`_screened_ecf`): each
    phase reduced mod 2 pi in float64, then float32 cos and sin, with a
    per-point bound on the distance to the float64 |ECF|.  A point whose
    screened value lies farther than its bound from the band is outside the
    window; every other point, and any whose screened value or bound is not
    finite, is evaluated exactly in float64, and those exact values alone
    pick the window, so the window and ``alpha_hat`` are those of the exact
    grid.  The window points' exact cos and sin rows, each point's cos row
    then its sin row, form one ``(2 n_window, n)`` array.

    The bootstrap is moment-matched.  A multinomial resample's ECF on the
    window is the mean of n columns of those rows drawn with replacement,
    so it has mean r, the rows' means, and covariance S / n, where S =
    rows rows^T / n - r r^T is the columns' covariance; being a mean of n
    independent draws, it is close to Gaussian at the n >= 500 this
    function takes.  So each replicate is drawn from the Gaussian with that
    mean and covariance, ``r + root z`` with z from one ``(n_boot,
    2 n_window)`` standard-normal draw and root the symmetric root of S / n
    from ``np.linalg.eigh`` (eigenvalues clipped at 0, since a lattice
    sample makes S singular).  This costs one small eigenproblem in place
    of n_boot x n resampled indices, and lacks only the multinomial's
    higher cumulants: over 30 seeds per case (alpha 0.5 to 2, n = 512 to
    20 000) the mean ``se`` of the two agreed within 3%, and the mean CI
    endpoints within 5% of the CI's width.  Each replicate's |ECF| then
    goes through the same log(-log) and slope as the full sample's; the
    slopes are fitted together in closed form, as the least-squares slope
    ``sum(c * y) / sum(c * c)`` with c the centered log xi.
    """
    seed = checked_seed(seed)
    if not isinstance(n_boot, (int, np.integer)) or isinstance(n_boot, bool) or n_boot < 2:
        raise InvalidRequest(f"n_boot must be an integer of at least 2, got {n_boot!r}")
    x = _finite_samples(samples)
    if x.size < 500:
        raise InvalidRequest(f"index estimation needs at least 500 samples, got {x.size}")
    scale = float(np.median(np.abs(x)))
    if scale <= 0.0:
        raise WindowNotFound("samples are concentrated at 0; no usable xi-window")
    # dense internal grid: the [0.2, 0.9] band must catch >= 8 points even for
    # the fast Gaussian decay, hence 61 points over three orders of magnitude
    xi = np.geomspace(0.02, 50.0, 61) / scale
    screened, bound = _screened_ecf(x, xi)
    # a NaN or infinity fails both compares, so such a point is near too
    near = np.flatnonzero(~((screened + bound < _ECF_BAND[0])
                            | (screened - bound > _ECF_BAND[1])))
    values, trig = _ecf_rows(x, xi[near])
    mod = np.abs(values)
    in_band = (mod >= _ECF_BAND[0]) & (mod <= _ECF_BAND[1])
    xi_win = xi[near[in_band]]
    n_win = xi_win.size
    if n_win < _MIN_WINDOW:
        raise WindowNotFound(
            f"only {n_win} grid points have |ECF| in {_ECF_BAND}")
    if n_win < near.size:       # a copy, made only for near points outside the band
        trig = trig[in_band]
    rows = trig.reshape(2 * n_win, x.size)
    lxi = np.log(xi_win)

    def loglog(mags):
        # a replicate's |ECF| can graze 1 at the window's soft end (and, being
        # Gaussian, pass it); clip for the log
        return np.log(-np.log(np.clip(mags, 1e-12, 1.0 - 1e-12)))

    alpha_hat = float(np.polyfit(lxi, loglog(mod[in_band]), 1)[0])
    n = x.size
    mean = rows.mean(axis=1)
    cov = rows @ rows.T / n - np.outer(mean, mean)
    # cov is singular for a lattice sample and can be so to rounding for
    # others; an eigenvalue rounded below 0 counts as 0 in the root
    lam, vec = np.linalg.eigh(cov)
    root = (vec * np.sqrt(np.maximum(lam, 0.0) / n)) @ vec.T
    z = stream(seed, TAG_BOOTSTRAP, 0).standard_normal((n_boot, 2 * n_win))
    reps = z @ root
    reps += mean
    centered = lxi - lxi.mean()
    boot = loglog(np.hypot(reps[:, 0::2], reps[:, 1::2])) @ centered
    boot /= centered @ centered
    lo, hi = np.quantile(boot, [0.025, 0.975])
    return AlphaEstimate(alpha_hat=alpha_hat, ci=(float(lo), float(hi)),
                         se=float(boot.std(ddof=1)),
                         xi_window=(float(xi_win[0]), float(xi_win[-1])),
                         n_window=n_win)


def cf_distance(ecf: EmpiricalCF, target, *, allowance: float = 0.0) -> tuple[float, int]:
    """(sup modulus gap, number of points outside the _N_SE*SE + allowance band).

    A target that holds a NaN or infinity raises :class:`InvalidRequest`,
    since a NaN gap is never outside the band."""
    target = np.asarray(target, dtype=np.complex128)
    if target.shape != ecf.values.shape:
        raise InvalidRequest("ECF and target grids are not aligned")
    bad = int(np.count_nonzero(~np.isfinite(target)))
    if bad:
        raise InvalidRequest(f"target holds {bad} non-finite values out of {target.size}")
    gap = np.abs(ecf.values - target)
    outside = gap > _N_SE * ecf.se + allowance
    return float(gap.max()), int(outside.sum())


def ks_two_sample(samples_a, samples_b) -> tuple[float, float]:
    """Two-sample KS statistic and the asymptotic 1%-level critical value."""
    a = np.sort(_finite_samples(samples_a, "samples_a"))
    b = np.sort(_finite_samples(samples_b, "samples_b"))
    if a.size < 100 or b.size < 100:
        raise InvalidRequest("KS test needs at least 100 samples on each side")
    everything = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, everything, side="right") / a.size
    cdf_b = np.searchsorted(b, everything, side="right") / b.size
    stat = float(np.abs(cdf_a - cdf_b).max())
    crit = KS_COEFF_01 * math.sqrt((a.size + b.size) / (a.size * b.size))
    return stat, crit


def default_xi_grid(law: LimitLaw) -> np.ndarray:
    """21 log-spaced points over [0.05, 20] divided by the law's scale."""
    return np.geomspace(0.05, 20.0, 21) / law.sigma_alpha


@dataclass
class ValidationReport:
    """Pointwise CF comparison plus index and KS verdicts for one sample set."""

    xi_grid: np.ndarray
    ecf: np.ndarray
    se: np.ndarray
    target_cf: np.ndarray
    sup_gap: float
    n_outside_band: int
    alpha_hat: AlphaEstimate | None
    ks_stats: list[tuple[str, float, float]] = field(default_factory=list)
    verdict: dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.verdict.values())

    def to_json(self) -> dict:
        out = {
            "schema": 1,
            "xi_grid": self.xi_grid.tolist(),
            "ecf_re": self.ecf.real.tolist(),
            "ecf_im": self.ecf.imag.tolist(),
            "se": self.se.tolist(),
            "target_re": self.target_cf.real.tolist(),
            "target_im": self.target_cf.imag.tolist(),
            "sup_gap": self.sup_gap,
            "n_outside_band": self.n_outside_band,
            "ks_stats": [list(row) for row in self.ks_stats],
            "verdict": dict(self.verdict),
            "passed": self.passed,
        }
        if self.alpha_hat is not None:
            out["alpha_hat"] = {
                "value": self.alpha_hat.alpha_hat,
                "ci": list(self.alpha_hat.ci),
                "se": self.alpha_hat.se,
                "xi_window": list(self.alpha_hat.xi_window),
                "n_window": self.alpha_hat.n_window,
            }
        return out

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")


def validate_against_law(samples, law: LimitLaw, t: float, *, seed: int = 0,
                         reference_samples=None) -> ValidationReport:
    """Compare a sample set at time t against a limit law's analytic CF.

    The verdict holds up to three checks, with fixed thresholds:

    - ``cf_band``: on :func:`default_xi_grid`, at most 2 of the 21 points
      have an ECF gap to the law's CF above 3 standard errors plus 0.02;
    - ``alpha_hat``: the :func:`estimate_alpha` index lies within 0.15 of
      the limit's effective stable index (2 in the diffusive regimes, alpha
      otherwise); the check is left out when no index window is found;
    - ``ks``: when ``reference_samples`` is given, the two-sample KS
      statistic is below its 1%-level critical value.

    Samples must already carry the regime normalization (for alpha = 1 the
    exact centering is part of the normalization, not re-applied here).  A
    NaN or infinity in ``samples`` or ``reference_samples`` raises
    :class:`InvalidRequest`, and so do a ``t`` that is negative, NaN or
    infinite and a seed that is not an integer in [0, 2**64).
    """
    seed = checked_seed(seed)
    x = _finite_samples(samples)
    if reference_samples is not None:
        reference_samples = _finite_samples(reference_samples, "reference_samples")
    xi = default_xi_grid(law)
    ecf = empirical_cf(x, xi)
    target = char_exponent(law, xi, t)
    sup_gap, n_out = cf_distance(ecf, target, allowance=_BAND_ALLOWANCE)
    verdict = {"cf_band": n_out <= _MAX_OUTSIDE}
    effective_alpha = min(law.alpha, 2.0)
    try:
        alpha_est = estimate_alpha(x, seed=seed)
        verdict["alpha_hat"] = abs(alpha_est.alpha_hat - effective_alpha) <= _ALPHA_TOL
    except (InvalidRequest, WindowNotFound):
        alpha_est = None
    ks_rows: list[tuple[str, float, float]] = []
    if reference_samples is not None:
        stat, crit = ks_two_sample(x, reference_samples)
        ks_rows.append(("samples-vs-reference", stat, crit))
        verdict["ks"] = stat < crit
    return ValidationReport(xi_grid=xi, ecf=ecf.values, se=ecf.se,
                            target_cf=target, sup_gap=sup_gap,
                            n_outside_band=n_out, alpha_hat=alpha_est,
                            ks_stats=ks_rows, verdict=verdict)
