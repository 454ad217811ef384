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

import csv
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
_ECF_BLOCK = 8          # grid points per _ecf_rows call in estimate_alpha
_BOOT_DRAWS = 2**17     # resample indices drawn per bootstrap batch (1 MB)


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
    """The ECF values on the grid and the rows they average: row i of the
    ``(2 m, n)`` result holds cos(xi_i x), row m + i sin(xi_i x), m the
    grid size."""
    m = xi.size
    trig = np.empty((2 * m, x.size))
    phase = np.outer(xi, x, out=trig[:m])
    np.sin(phase, out=trig[m:])
    np.cos(phase, out=phase)        # phase is not needed again
    return trig[:m].mean(axis=1) + 1j * trig[m:].mean(axis=1), trig


def empirical_cf(samples, xi_grid) -> EmpiricalCF:
    """(1/n) sum exp(i xi x_j) on the grid, with standard errors."""
    x = _finite_samples(samples)
    xi = np.asarray(xi_grid, dtype=np.float64)
    if x.size < 100:
        raise InvalidRequest(f"empirical CF needs at least 100 samples, got {x.size}")
    values, trig = _ecf_rows(x, xi)
    re, im = trig[:xi.size], trig[xi.size:]
    se_re = re.std(axis=1, ddof=1) / math.sqrt(x.size)
    se_im = im.std(axis=1, ddof=1) / math.sqrt(x.size)
    return EmpiricalCF(xi=xi, values=values, se=np.hypot(se_re, se_im),
                       se_re=se_re, se_im=se_im, n=x.size)


@dataclass(frozen=True)
class AlphaEstimate:
    alpha_hat: float
    ci: tuple[float, float]  # central 95% bootstrap interval
    se: float
    xi_window: tuple[float, float]
    n_window: int


def estimate_alpha(samples, seed: int = 0, n_boot: int = 200) -> AlphaEstimate:
    """Stable index from the decay of the ECF modulus.

    For any alpha-stable law, -log|CF(xi)| = const * |xi|^alpha, so the slope
    of log(-log|ECF|) against log xi over a window where |ECF| is neither
    saturated nor noise (|ECF| in [0.2, 0.9]) estimates alpha.  The window is
    selected once on the full sample and held fixed across the bootstrap
    resamples, so the CI reflects slope noise at the chosen window.
    ``n_boot``, the number of resamples, must be an integer of at least 2,
    the fewest that give a spread, and ``seed`` an integer in [0, 2**64);
    anything else raises :class:`InvalidRequest`.

    ``alpha_hat`` is the ``np.polyfit`` slope of the full sample.  The grid's
    ECF is computed a few points at a time, and only the window points' cos
    and sin rows are kept.  A resample's ECF on the window is the
    multiplicity-weighted sum of those rows over the sample.  The resamples
    are drawn and counted in batches of up to ``_BOOT_DRAWS // n``, and a
    batch's counts meet the kept rows in one matrix product per ECF block;
    the bootstrap slopes are then fitted together in closed form, as the
    least-squares slope ``sum(c * y) / sum(c * c)`` with c the centered
    log xi.
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
    # the ECF a few grid points at a time; a point is in the window by its
    # own |ECF| alone, so each block keeps the rows of its window points only.
    # The kept blocks stay apart: stacking them would copy every kept row
    # once more, and at small alpha the window covers most of the grid
    mod = np.empty(xi.size)
    window = np.empty(xi.size, dtype=bool)
    kept = []
    for j in range(0, xi.size, _ECF_BLOCK):
        block = slice(j, j + _ECF_BLOCK)
        values, trig = _ecf_rows(x, xi[block])
        mod[block] = np.abs(values)
        window[block] = (mod[block] >= _ECF_BAND[0]) & (mod[block] <= _ECF_BAND[1])
        pts = np.flatnonzero(window[block])
        if pts.size:
            # each window point's cos row, then its sin row
            kept.append(trig[np.column_stack([pts, pts + values.size]).ravel()])
    n_win = int(window.sum())
    if n_win < _MIN_WINDOW:
        raise WindowNotFound(
            f"only {n_win} grid points have |ECF| in {_ECF_BAND}")
    lxi = np.log(xi[window])

    def loglog(mags):
        # resampled |ECF| can graze 1 at the window's soft end; clip for the log
        return np.log(-np.log(np.clip(mags, 1e-12, 1.0 - 1e-12)))

    alpha_hat = float(np.polyfit(lxi, loglog(mod[window]), 1)[0])
    n = x.size
    gen = stream(seed, TAG_BOOTSTRAP, 0)
    sums = np.empty((n_boot, 2 * n_win))
    batch = max(1, min(n_boot, _BOOT_DRAWS // n))
    offsets = np.arange(batch)[:, None] * n
    for k in range(0, n_boot, batch):
        b = min(batch, n_boot - k)
        # one draw of b resamples equals b draws of one; offsetting row r's
        # indices by r n lets one bincount count every resample
        idx = gen.integers(0, n, size=(b, n))
        idx += offsets[:b]
        counts = np.bincount(idx.ravel(), minlength=b * n).reshape(b, n).astype(np.float64)
        np.concatenate([counts @ rows.T for rows in kept], axis=1, out=sums[k:k + b])
    centered = lxi - lxi.mean()
    boot = loglog(np.hypot(sums[:, 0::2], sums[:, 1::2]) / n) @ centered
    boot /= centered @ centered
    lo, hi = np.quantile(boot, [0.025, 0.975])
    return AlphaEstimate(alpha_hat=alpha_hat, ci=(float(lo), float(hi)),
                         se=float(boot.std(ddof=1)),
                         xi_window=(float(xi[window][0]), float(xi[window][-1])),
                         n_window=n_win)


def cf_distance(ecf: EmpiricalCF, target, *, n_se: float = 3.0,
                allowance: float = 0.0) -> tuple[float, int]:
    """(sup modulus gap, number of points outside the n_se*SE + allowance band)."""
    target = np.asarray(target, dtype=np.complex128)
    if target.shape != ecf.values.shape:
        raise InvalidRequest("ECF and target grids are not aligned")
    gap = np.abs(ecf.values - target)
    outside = gap > n_se * ecf.se + allowance
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


def default_xi_grid(law: LimitLaw, n_points: int = 21) -> np.ndarray:
    """21 log-spaced points over [0.05, 20] divided by the law's scale."""
    return np.geomspace(0.05, 20.0, n_points) / law.sigma_alpha


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

    def write_plot_csv(self, path) -> None:
        """(xi, Re/Im ECF, SE, Re/Im target) rows for external plotting."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["xi", "ecf_re", "ecf_im", "se", "target_re", "target_im"])
            for k in range(self.xi_grid.size):
                writer.writerow([repr(float(v)) for v in (
                    self.xi_grid[k], self.ecf.real[k], self.ecf.imag[k],
                    self.se[k], self.target_cf.real[k], self.target_cf.imag[k])])


def validate_against_law(samples, law: LimitLaw, t: float, *, seed: int = 0,
                         reference_samples=None, xi_grid=None,
                         band_allowance: float = 0.02, max_outside: int = 2,
                         alpha_tol: float = 0.15) -> ValidationReport:
    """Compare a sample set at time t against a limit law's analytic CF.

    Runs the CF band check on the default grid, the ECF-decay index estimate
    (compared against the limit's effective stable index: 2 in the diffusive
    regimes, alpha otherwise), and, when ``reference_samples`` is given, a
    two-sample KS.  Samples must already carry the regime normalization (for
    alpha = 1 the exact centering is part of the normalization, not
    re-applied here).  A NaN or infinity in ``samples`` or
    ``reference_samples`` raises :class:`InvalidRequest`, and so does a
    seed that is not an integer in [0, 2**64).
    """
    seed = checked_seed(seed)
    x = _finite_samples(samples)
    if reference_samples is not None:
        reference_samples = _finite_samples(reference_samples, "reference_samples")
    xi = default_xi_grid(law) if xi_grid is None else np.asarray(xi_grid, float)
    ecf = empirical_cf(x, xi)
    target = char_exponent(law, xi, t)
    sup_gap, n_out = cf_distance(ecf, target, allowance=band_allowance)
    verdict = {"cf_band": n_out <= max_outside}
    effective_alpha = min(law.alpha, 2.0)
    try:
        alpha_est = estimate_alpha(x, seed=seed)
        verdict["alpha_hat"] = abs(alpha_est.alpha_hat - effective_alpha) <= alpha_tol
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
