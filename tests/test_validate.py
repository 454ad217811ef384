"""ECF machinery, the CF-decay index estimator, KS testing, and reports."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from stablediff import validate
from stablediff._rng import TAG_BOOTSTRAP, TAG_CMS, stream
from stablediff.errors import InvalidRequest, WindowNotFound
from stablediff.stable import StableSpec, sample_limit_law, sample_stable_cf
from stablediff.validate import (
    _ecf_rows,
    _screened_ecf,
    cf_distance,
    default_xi_grid,
    empirical_cf,
    estimate_alpha,
    ks_two_sample,
    validate_against_law,
)


def normals(n, seed=0):
    return stream(seed, TAG_CMS, 0).standard_normal(n)


# ---------------------------------------------------------------------------
# empirical characteristic function

def test_ecf_point_mass_at_zero():
    ecf = empirical_cf(np.zeros(200), np.array([0.5, 1.0, 3.0]))
    np.testing.assert_array_equal(ecf.values, 1.0 + 0.0j)
    np.testing.assert_array_equal(ecf.se, 0.0)
    assert ecf.n == 200


def test_ecf_two_point_law_is_cosine():
    x = np.array([1.0, -1.0] * 100)
    xi = np.array([0.5, 2.0])
    ecf = empirical_cf(x, xi)
    np.testing.assert_allclose(ecf.values, np.cos(xi), rtol=0, atol=1e-14)
    # the real part is constant across samples, the imaginary part is +-sin(xi)
    np.testing.assert_allclose(ecf.se_re, 0.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(ecf.se_im, np.abs(np.sin(xi)) / math.sqrt(199.0),
                               rtol=1e-10)


def test_ecf_rejects_small_sample():
    with pytest.raises(InvalidRequest):
        empirical_cf(np.zeros(99), np.array([1.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ecf_rejects_non_finite_grid(value):
    # a NaN point would give a NaN value, an infinite one RuntimeWarnings
    with pytest.raises(InvalidRequest, match="xi_grid hold 1 non-finite values out of 3"):
        empirical_cf(normals(500), np.array([0.3, value, 1.0]))


# ---------------------------------------------------------------------------
# index estimation from the ECF decay

def test_alpha_hat_gaussian():
    est = estimate_alpha(normals(4000), seed=1)
    assert est.alpha_hat == pytest.approx(2.0, abs=0.1)
    assert est.ci[0] <= 2.0 <= est.ci[1]
    assert est.n_window >= 8
    assert est.xi_window[0] < est.xi_window[1]


def test_alpha_hat_stable_four_thirds():
    x = sample_stable_cf(StableSpec(4.0 / 3.0, 1.0, -1.0), 1.0, 4000, seed=5)
    est = estimate_alpha(x, seed=1)
    assert est.alpha_hat == pytest.approx(4.0 / 3.0, abs=0.1)
    assert est.ci[0] <= 4.0 / 3.0 <= est.ci[1]


def test_alpha_hat_scale_equivariant():
    # the window is rescaled by the sample median, so a pure dilation moves
    # only the regression intercept
    x = sample_stable_cf(StableSpec(4.0 / 3.0, 1.0, -1.0), 1.0, 4000, seed=5)
    a1 = estimate_alpha(x, seed=1)
    a4 = estimate_alpha(4.0 * x, seed=1)
    assert a4.alpha_hat == pytest.approx(a1.alpha_hat, abs=1e-12)
    assert a4.n_window == a1.n_window


def window_of(x):
    """On the exact grid's index window of x: the full sample's slope, the
    np.polyfit slope of a window modulus, and the phases xi x of the
    window points."""
    xi = np.geomspace(0.02, 50.0, 61) / float(np.median(np.abs(x)))
    mod = np.abs(empirical_cf(x, xi).values)
    window = (mod >= 0.2) & (mod <= 0.9)
    lxi = np.log(xi[window])

    def slope_of(mags):
        y = np.log(-np.log(np.clip(mags, 1e-12, 1.0 - 1e-12)))
        return float(np.polyfit(lxi, y, 1)[0])

    return slope_of(mod[window]), slope_of, np.outer(xi[window], x)


def summary(alpha_hat, boot):
    """(alpha_hat, ci, se) of a list of bootstrap slopes."""
    lo, hi = np.quantile(boot, [0.025, 0.975])
    return alpha_hat, (lo, hi), np.std(boot, ddof=1)


def loop_estimate_alpha(x, seed, n_boot=200):
    """The multinomial bootstrap one resample at a time: the resample's ECF
    on the window from its counts, and each slope by np.polyfit."""
    alpha_hat, slope_of, phase = window_of(x)
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    gen = stream(seed, TAG_BOOTSTRAP, 0)
    boot = []
    for _ in range(n_boot):
        counts = np.bincount(gen.integers(0, x.size, size=x.size), minlength=x.size)
        boot.append(slope_of(np.abs(cos_p @ counts + 1j * (sin_p @ counts)) / x.size))
    return summary(alpha_hat, boot)


def gaussian_loop_estimate_alpha(x, seed, n_boot=200):
    """The moment-matched bootstrap one replicate at a time: the window rows'
    mean r and covariance S, the symmetric root of S / n, and per row z of
    the normal draw the replicate r + root z, fitted by np.polyfit.  S is
    formed as estimate_alpha forms it: its root is sensitive to rounding in
    the directions where S is singular to rounding."""
    alpha_hat, slope_of, phase = window_of(x)
    rows = np.empty((2 * phase.shape[0], x.size))
    rows[0::2], rows[1::2] = np.cos(phase), np.sin(phase)
    mean = rows.mean(axis=1)
    lam, vec = np.linalg.eigh(rows @ rows.T / x.size - np.outer(mean, mean))
    root = vec @ np.diag(np.sqrt(np.maximum(lam, 0.0) / x.size)) @ vec.T
    z = stream(seed, TAG_BOOTSTRAP, 0).standard_normal((n_boot, rows.shape[0]))
    boot = []
    for row in z:
        rep = mean + root @ row
        boot.append(slope_of(np.abs(rep[0::2] + 1j * rep[1::2])))
    return summary(alpha_hat, boot)


@pytest.mark.parametrize("n,n_boot", [
    pytest.param(512, 200, id="512"),
    pytest.param(1023, 200, id="1023"),
    pytest.param(20_000, 200, id="20000"),
    pytest.param(140_001, 7, id="140001"),
])
def test_alpha_hat_bootstrap_matches_loop(n, n_boot):
    # the replicates drawn together and the closed-form slopes move the CI
    # and se by rounding only; alpha_hat keeps its bits
    x = sample_stable_cf(StableSpec(1.5, 1.0, 0.5), 1.0, n, seed=3)
    est = estimate_alpha(x, seed=5, n_boot=n_boot)
    alpha_hat, ci, se = gaussian_loop_estimate_alpha(x, 5, n_boot)
    assert est.alpha_hat == alpha_hat
    np.testing.assert_allclose(est.ci, ci, rtol=0, atol=1e-12)
    assert est.se == pytest.approx(se, rel=0, abs=1e-12)


@pytest.mark.parametrize("n,n_seeds", [(512, 20), (1023, 20), (20_000, 10)],
                         ids=["512", "1023", "20000"])
def test_alpha_hat_bootstrap_matches_multinomial(n, n_seeds):
    # over a fixed seed set the moment-matched bootstrap gives the
    # multinomial bootstrap's spread: mean se within 5%, mean CI endpoints
    # within a tenth of the multinomial's mean CI width (fewer seeds at
    # n = 2e4, where the multinomial loop is slowest)
    gauss, multi = [], []
    for seed in range(n_seeds):
        x = sample_stable_cf(StableSpec(1.5, 1.0, 0.5), 1.0, n, seed=100 + seed)
        est = estimate_alpha(x, seed=seed)
        alpha_hat, ci, se = loop_estimate_alpha(x, seed)
        assert est.alpha_hat == alpha_hat
        gauss.append((*est.ci, est.se))
        multi.append((*ci, se))
    (g_lo, g_hi, g_se), (m_lo, m_hi, m_se) = np.mean(gauss, axis=0), np.mean(multi, axis=0)
    assert g_se == pytest.approx(m_se, rel=0.05)
    width = m_hi - m_lo
    assert abs(g_lo - m_lo) <= 0.1 * width and abs(g_hi - m_hi) <= 0.1 * width


def test_alpha_hat_bootstrap_thread_invariant():
    # the covariance product and its eigenproblem keep their bits under one
    # OpenBLAS thread, so the CI and se do not depend on the host's cores
    x = sample_stable_cf(StableSpec(1.5, 1.0, 0.5), 1.0, 20_000, seed=3)
    est = estimate_alpha(x, seed=5)
    script = ("from stablediff.stable import StableSpec, sample_stable_cf; "
              "from stablediff.validate import estimate_alpha; "
              "e = estimate_alpha(sample_stable_cf(StableSpec(1.5, 1.0, 0.5), 1.0, 20000, seed=3), seed=5); "
              "print(*(v.hex() for v in (*e.ci, e.se)))")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(validate.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == [v.hex() for v in (*est.ci, est.se)]


def stable_draws(alpha, n):
    return sample_stable_cf(StableSpec(alpha, 1.0, 0.5), 1.0, n, seed=4)


def with_outlier(x):
    x = x.copy()
    x[x.size // 3] = 1e12
    return x


# inputs chosen to break a float32 screen of the grid's |ECF|: stable draws
# ("n-alpha") of three indices and sizes, integer lattices (whose ECF
# returns to 1 at xi = 2 pi k), an outlier whose phases reach 1e13, a
# constant with 1e-9 noise (|ECF| near 1 on the whole grid) and Gaussian
# draws
WINDOW_INPUTS = {
    **{f"{n}-{alpha}": (lambda alpha=alpha, n=n: stable_draws(alpha, n))
       for alpha in (0.5, 1.0, 1.5) for n in (500, 1023, 20_001)},
    "lattice": lambda: stream(2, TAG_CMS, 0).integers(-3, 4, 3000).astype(np.float64),
    "lattice-wide": lambda: stream(2, TAG_CMS, 0).integers(-40, 41, 3000).astype(np.float64),
    "outlier": lambda: with_outlier(stable_draws(1.5, 5000)),
    "constant": lambda: 5.0 + 1e-9 * normals(2000),
    "gauss": lambda: normals(4000),
}


def full_grid(x):
    """The grid and its exact |ECF| in one _ecf_rows call."""
    xi = np.geomspace(0.02, 50.0, 61) / float(np.median(np.abs(x)))
    return xi, np.abs(_ecf_rows(x, xi)[0])


@pytest.mark.parametrize("name", sorted(WINDOW_INPUTS))
def test_alpha_hat_matches_full_grid(name):
    # the screened grid with exact values near the band finds the window
    # and alpha_hat of the exact 61-point grid, bit for bit (at alpha = 0.5
    # the window spans most of the grid)
    x = WINDOW_INPUTS[name]()
    xi, mod = full_grid(x)
    window = (mod >= 0.2) & (mod <= 0.9)
    if window.sum() < 8:
        with pytest.raises(WindowNotFound):
            estimate_alpha(x, seed=1)
        return
    y = np.log(-np.log(np.clip(mod[window], 1e-12, 1.0 - 1e-12)))
    est = estimate_alpha(x, seed=1)
    assert est.alpha_hat == float(np.polyfit(np.log(xi[window]), y, 1)[0])
    assert est.n_window == window.sum()
    assert est.xi_window == (xi[window][0], xi[window][-1])


@pytest.mark.parametrize("name", sorted(WINDOW_INPUTS))
def test_screened_ecf_within_its_bound(name):
    x = WINDOW_INPUTS[name]()
    xi, mod = full_grid(x)
    screened, bound = _screened_ecf(x, xi)
    assert np.all(np.abs(screened - mod) <= bound)


@pytest.mark.parametrize("name", ["1023-0.5", "lattice", "outlier"])
def test_alpha_hat_with_every_point_exact(name, monkeypatch):
    # a screen that settles nothing (NaN values) sends every grid point to
    # the exact evaluation, whose out-of-band rows are then dropped: the
    # estimate keeps every bit
    x = WINDOW_INPUTS[name]()
    want = estimate_alpha(x, seed=1)
    monkeypatch.setattr(validate, "_screened_ecf",
                        lambda x, xi: (np.full(xi.size, np.nan), np.ones(xi.size)))
    assert estimate_alpha(x, seed=1) == want


def test_alpha_hat_keeps_only_window_rows():
    # the bootstrap's peak memory stays below one (122, n) array of all
    # the grid's cos and sin rows
    n = 20_000
    x = sample_stable_cf(StableSpec(4.0 / 3.0, 1.0, -1.0), 1.0, n, seed=2)
    tracemalloc.start()
    try:
        estimate_alpha(x, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 122 * n * 8


def test_alpha_hat_no_window():
    with pytest.raises(WindowNotFound):
        estimate_alpha(np.full(600, 5.0))
    with pytest.raises(WindowNotFound):
        estimate_alpha(np.zeros(600))


def test_alpha_hat_rejects_small_sample():
    with pytest.raises(InvalidRequest):
        estimate_alpha(normals(499))


@pytest.mark.parametrize("n_boot", [0, -3, 1, 2.5, True])
def test_alpha_hat_rejects_bad_n_boot(n_boot):
    with pytest.raises(InvalidRequest, match="n_boot"):
        estimate_alpha(normals(1000), n_boot=n_boot)


def test_alpha_hat_takes_two_resamples():
    est = estimate_alpha(normals(1000), n_boot=np.int64(2))
    assert math.isfinite(est.se) and est.ci[0] <= est.ci[1]


# a seed out of [0, 2**64) or not an integer; 2**64 gave seed 0's bootstrap
BAD_SEEDS = [2 ** 64, -1, True, 1.5, np.int64(-1)]
BAD_SEED_IDS = ["2**64", "-1", "True", "1.5", "int64(-1)"]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=BAD_SEED_IDS)
def test_alpha_hat_rejects_bad_seed(seed):
    with pytest.raises(InvalidRequest, match="seed"):
        estimate_alpha(normals(1000), seed=seed)


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=BAD_SEED_IDS)
def test_validate_rejects_bad_seed(seed, law_levy):
    # estimate_alpha's InvalidRequest would otherwise only drop alpha_hat
    with pytest.raises(InvalidRequest, match="seed"):
        validate_against_law(normals(1000), law_levy, 1.0, seed=seed)


# ---------------------------------------------------------------------------
# CF distance and the KS test

def test_cf_distance_self_is_zero():
    ecf = empirical_cf(normals(500), np.array([0.3, 1.0]))
    sup, n_out = cf_distance(ecf, ecf.values)
    assert sup == 0.0 and n_out == 0


def test_cf_distance_detects_wrong_target():
    ecf = empirical_cf(normals(4000), np.array([0.3, 1.0]))
    sup, n_out = cf_distance(ecf, np.ones(2, dtype=complex))
    # at xi = 1 the gap to a flat target is 1 - e^{-1/2}
    assert sup == pytest.approx(1.0 - math.exp(-0.5), abs=0.02)
    assert n_out == 2


@pytest.mark.parametrize("target", [[np.nan] * 3, [1.0, complex(np.inf, 0.0), 0.5]],
                         ids=["all_nan", "one_inf"])
def test_cf_distance_rejects_non_finite_target(target):
    # a NaN gap is never outside the band, so the check would pass
    ecf = empirical_cf(normals(500), np.array([0.3, 1.0, 3.0]))
    count = sum(not np.isfinite(v) for v in target)
    with pytest.raises(InvalidRequest, match=f"target holds {count} non-finite"):
        cf_distance(ecf, target)


def test_cf_distance_rejects_misaligned_grids():
    ecf = empirical_cf(normals(500), np.array([0.3, 1.0]))
    with pytest.raises(InvalidRequest):
        cf_distance(ecf, np.ones(3, dtype=complex))


def test_ks_matches_reference_implementation():
    a = normals(700, seed=1)
    b = normals(900, seed=2) + 0.05
    stat, crit = ks_two_sample(a, b)
    assert stat == pytest.approx(ks_2samp(a, b).statistic, abs=1e-15)
    assert crit == pytest.approx(1.6277 * math.sqrt((700 + 900) / (700 * 900)),
                                 rel=1e-12)
    assert ks_two_sample(b, a)[0] == stat


def test_ks_verdicts():
    a = normals(800, seed=3)
    assert ks_two_sample(a, a)[0] == 0.0
    stat, crit = ks_two_sample(a, normals(800, seed=4) + 5.0)
    assert stat > crit
    with pytest.raises(InvalidRequest):
        ks_two_sample(a, normals(99))


# ---------------------------------------------------------------------------
# validation reports

def test_default_xi_grid(law_levy):
    xi = default_xi_grid(law_levy)
    assert xi.shape == (21,)
    assert xi[0] == pytest.approx(0.05 / law_levy.sigma_alpha, rel=1e-12)
    assert xi[-1] == pytest.approx(20.0 / law_levy.sigma_alpha, rel=1e-12)
    assert np.all(np.diff(xi) > 0)


def test_validate_levy_samples_pass(law_levy):
    x = sample_limit_law(law_levy, 1.0, 4000, seed=3)
    ref = sample_limit_law(law_levy, 1.0, 4000, seed=4)
    report = validate_against_law(x, law_levy, 1.0, reference_samples=ref)
    assert report.verdict == {"cf_band": True, "alpha_hat": True, "ks": True}
    assert report.passed
    assert report.sup_gap < 0.05
    assert report.alpha_hat.alpha_hat == pytest.approx(4.0 / 3.0, abs=0.15)
    assert report.ks_stats[0][0] == "samples-vs-reference"


def test_validate_diffusive_uses_effective_index(law_diffusive):
    # the tail index is 8/3 but the limit is Gaussian; the decay estimate
    # must be compared against 2
    x = sample_limit_law(law_diffusive, 1.0, 4000, seed=3)
    report = validate_against_law(x, law_diffusive, 1.0)
    assert report.passed
    assert report.alpha_hat.alpha_hat == pytest.approx(2.0, abs=0.15)


def test_validate_detects_wrong_scale(law_levy):
    x = 1.5 * sample_limit_law(law_levy, 1.0, 4000, seed=3)
    report = validate_against_law(x, law_levy, 1.0)
    assert not report.verdict["cf_band"]
    assert not report.passed


def test_validate_small_sample_skips_index(law_diffusive):
    # 100 <= n < 500: the CF band still runs, the index estimate is recorded
    # as unavailable rather than failing the report
    x = sample_limit_law(law_diffusive, 1.0, 300, seed=6)
    report = validate_against_law(x, law_diffusive, 1.0)
    assert report.alpha_hat is None
    assert "alpha_hat" not in report.verdict
    assert report.verdict["cf_band"]


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_validate_rejects_non_finite_t(law_levy, t):
    # a NaN t gave cf_band True with sup_gap nan; an infinite one warned
    with pytest.raises(InvalidRequest, match="finite t >= 0"):
        validate_against_law(sample_limit_law(law_levy, 1.0, 1000, seed=3), law_levy, t)


@pytest.mark.parametrize("name,at,value,count", [
    ("samples", slice(None), np.nan, 4000),
    ("samples", 17, np.nan, 1),
    ("samples", 17, np.inf, 1),
    ("reference_samples", 17, np.nan, 1),
], ids=["all_nan", "one_nan", "one_inf", "nan_in_reference"])
def test_validate_rejects_non_finite_samples(law_levy, name, at, value, count):
    # a NaN gap is never outside the band and a NaN sorts past every KS
    # bound, so a non-finite sample would otherwise pass the report
    sets = {"samples": sample_limit_law(law_levy, 1.0, 4000, seed=3),
            "reference_samples": sample_limit_law(law_levy, 1.0, 4000, seed=4)}
    sets[name][at] = value
    with pytest.raises(InvalidRequest, match=f"{name} hold {count} non-finite"):
        validate_against_law(sets["samples"], law_levy, 1.0,
                             reference_samples=sets["reference_samples"])
    with pytest.raises(InvalidRequest, match=f"hold {count} non-finite"):
        ks_two_sample(sets["samples"], sets["reference_samples"])


def test_report_serialization_roundtrip(tmp_path, law_levy):
    x = sample_limit_law(law_levy, 1.0, 4000, seed=3)
    ref = sample_limit_law(law_levy, 1.0, 4000, seed=4)
    report = validate_against_law(x, law_levy, 1.0, reference_samples=ref)

    payload = report.to_json()
    assert payload["schema"] == 1
    assert payload["passed"] is True
    assert json.loads(json.dumps(payload)) == payload

    json_path = tmp_path / "report.json"
    report.write_json(json_path)
    assert json.loads(json_path.read_text()) == payload
