"""Reference stable laws: closed-form constants, the direct sampler, grid
local time, and the excursion-route sampler, cross-checked against each other."""

import cmath
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablediff import _workspace, stable
from stablediff._rng import TAG_EXCURSION, stream
from stablediff.asymptotics import EULER_GAMMA, LimitLaw, char_exponent
from stablediff.errors import HorizonExceeded, InvalidAlpha, InvalidRequest
from stablediff.stable import (
    BrownianGrid,
    StableSpec,
    _EngineTables,
    _excursion_block,
    estimate_local_time,
    inverse_local_time,
    local_time_field,
    sample_limit_law,
    sample_stable_cf,
    stable_cf,
    stable_via_excursions,
)


def ecf_with_se(samples, xi):
    phases = np.exp(1j * np.outer(xi, samples))
    val = phases.mean(axis=1)
    se = np.sqrt((1.0 - np.abs(val) ** 2) / samples.size)
    return val, se


def ks_statistic(a, b):
    both = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), both, side="right") / a.size
    fb = np.searchsorted(np.sort(b), both, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def ks_critical_1pct(na, nb):
    return 1.6277 * math.sqrt((na + nb) / (na * nb))


# ---------------------------------------------------------------------------
# closed-form constants of the target laws

def test_spec_frozen_scale_constants():
    # hand-computed: c = 2^(a-2) pi / (a sin(a pi/2)) (a^a/Gamma(a))^2 (|a|^a+|b|^a)
    assert StableSpec(0.5, 1.0, 0.0).c == pytest.approx(0.5, rel=1e-12)
    assert StableSpec(1.5, 1.0, -1.0).c == pytest.approx(18.0, rel=1e-12)
    assert StableSpec(1.0, 1.0, 1.0).c == pytest.approx(math.pi, rel=1e-12)


def test_spec_skewness_values():
    assert StableSpec(0.5, 1.0, 0.0).beta == 1.0
    assert StableSpec(1.5, 1.0, -1.0).beta == 0.0
    assert StableSpec(1.0, 2.0, 1.0).beta == pytest.approx(1.0, rel=1e-14)
    # the sign of the weight, not the half-line it acts on, sets the skew
    assert StableSpec(1.3, 0.0, 2.0).beta == 1.0
    assert StableSpec(1.3, 0.0, -2.0).beta == -1.0


def test_spec_location_at_alpha_one():
    # a = b = 1: the x log x terms vanish and only -2(2 gamma + log 2) remains
    sp = StableSpec(1.0, 1.0, 1.0)
    assert sp.tau == pytest.approx(
        -2.0 * (2.0 * EULER_GAMMA + math.log(2.0)), rel=1e-14)
    assert sp.tau == pytest.approx(-3.695157020726022, rel=1e-13)
    assert StableSpec(1.0, 1.0, -1.0).tau == pytest.approx(0.0, abs=1e-15)


def test_spec_alpha_two_variance_coefficient():
    # the Gaussian endpoint carries c = a^2 + b^2, variance 2ct
    assert StableSpec(2.0, 1.0, 1.0).c == pytest.approx(2.0, rel=1e-14)
    assert StableSpec(2.0, 3.0, 0.0).c == pytest.approx(9.0, rel=1e-14)


def test_spec_degenerate_zero_weights():
    sp = StableSpec(1.2, 0.0, 0.0)
    assert sp.c == 0.0
    assert sp.beta == 0.0
    np.testing.assert_array_equal(sample_stable_cf(sp, 1.0, 64), 0.0)
    np.testing.assert_allclose(stable_cf(sp, np.array([-3.0, 0.1]), 2.0), 1.0)


def test_spec_rejects_bad_parameters():
    for bad in (0.0, -1.0, 2.5, math.nan):
        with pytest.raises(InvalidAlpha):
            StableSpec(bad, 1.0, 0.0)
    with pytest.raises(InvalidRequest):
        StableSpec(1.5, math.inf, 0.0)


def test_spec_sgn_ab():
    sp = StableSpec(0.8, 2.0, -3.0)
    assert sp.sgn_ab(1.7) == 2.0
    assert sp.sgn_ab(-0.2) == -3.0
    assert sp.sgn_ab(0.0) == 0.0


@given(alpha=st.floats(0.05, 2.0), a=st.floats(-5.0, 5.0), b=st.floats(-5.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_spec_invariants(alpha, a, b):
    sp = StableSpec(alpha, a, b)
    assert sp.c >= 0.0
    assert -1.0 <= sp.beta <= 1.0


# ---------------------------------------------------------------------------
# characteristic functions

def test_cf_trivial_points():
    sp = StableSpec(1.5, 1.0, -0.5)
    assert stable_cf(sp, 0.0, 3.0) == 1.0 + 0.0j
    np.testing.assert_allclose(stable_cf(sp, np.array([0.4, -2.0]), 0.0), 1.0)


def test_cf_conjugate_symmetry_and_modulus():
    xi = np.geomspace(0.01, 30.0, 15)
    for sp in (StableSpec(0.5, 1.0, 0.0), StableSpec(1.0, 1.0, 0.25),
               StableSpec(1.9, 2.0, -1.0)):
        plus = stable_cf(sp, xi, 1.7)
        np.testing.assert_array_equal(stable_cf(sp, -xi, 1.7), np.conj(plus))
        assert np.all(np.abs(plus) <= 1.0 + 1e-12)


def test_cf_alpha_one_log_form():
    sp = StableSpec(1.0, 1.0, 0.5)
    xi, t = 0.7, 2.0
    expo = (-sp.c * t * xi * (1.0 + 1j * sp.beta * (2.0 / math.pi) * math.log(xi))
            + 1j * t * sp.tau * xi)
    assert stable_cf(sp, xi, t) == pytest.approx(cmath.exp(expo), rel=1e-14)


def test_cf_scalar_in_scalar_out():
    val = stable_cf(StableSpec(1.5, 1.0, 0.0), 0.3, 1.0)
    assert isinstance(val, complex)


def test_cf_rejects_negative_t():
    with pytest.raises(InvalidRequest):
        stable_cf(StableSpec(1.5, 1.0, 0.0), 1.0, -0.5)


# ---------------------------------------------------------------------------
# direct sampler vs its own characteristic function

def test_sampler_matches_cf_across_regimes():
    spec_params = [(0.7, 1.0, 0.3), (1.3, 1.0, -0.5), (1.0, 1.0, 1.0),
                   (2.0, 1.0, 1.0), (1.5, 2.0, -2.0), (0.5, 1.0, 0.0)]
    for alpha, a, b in spec_params:
        sp = StableSpec(alpha, a, b)
        x = sample_stable_cf(sp, 1.0, 6000, seed=0)
        xi = np.geomspace(0.05, 2.0, 11) / sp.c ** (1.0 / alpha)
        val, se = ecf_with_se(x, xi)
        target = stable_cf(sp, xi, 1.0)
        assert np.all(np.abs(val - target) <= 3.0 * se), (alpha, a, b)


def test_sampler_gaussian_endpoint():
    # alpha = 2 must degenerate to an exact normal: check second and fourth
    # moments, not just the CF
    sp = StableSpec(2.0, 1.0, 1.0)
    n = 20000
    x = sample_stable_cf(sp, 1.0, n, seed=1)
    var_target = 2.0 * sp.c
    assert x.var() == pytest.approx(var_target,
                                    abs=3.0 * var_target * math.sqrt(2.0 / n))
    kurt = ((x - x.mean()) ** 4).mean() / x.var() ** 2
    assert kurt == pytest.approx(3.0, abs=3.0 * math.sqrt(24.0 / n))


def test_sampler_one_sided_support():
    # alpha < 1, b = 0: totally skewed to the right, so no negative mass
    x = sample_stable_cf(StableSpec(0.5, 1.0, 0.0), 1.0, 10000, seed=2)
    assert x.min() >= 0.0


def test_sampler_alpha_one_location():
    # coarse location sanity: the median sits within ~1 scale unit of the
    # deterministic drift part (a tau sign error would land at 1.74 ct)
    sp = StableSpec(1.0, 1.0, 1.0)
    x = sample_stable_cf(sp, 1.0, 6000, seed=0)
    shift = (2.0 / math.pi) * sp.beta * sp.c * math.log(sp.c) + sp.tau
    assert abs(np.median(x) - shift) < 1.2 * sp.c


def test_sampler_seeding():
    sp = StableSpec(1.3, 1.0, 0.0)
    a = sample_stable_cf(sp, 1.0, 256, seed=5)
    b = sample_stable_cf(sp, 1.0, 256, seed=5)
    c = sample_stable_cf(sp, 1.0, 256, seed=6)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampler_rejects_bad_requests():
    sp = StableSpec(1.3, 1.0, 0.0)
    with pytest.raises(InvalidRequest):
        sample_stable_cf(sp, 0.0, 10)
    with pytest.raises(InvalidRequest):
        sample_stable_cf(sp, -1.0, 10)
    with pytest.raises(InvalidRequest):
        sample_stable_cf(sp, 1.0, 0)
    # non-integer counts get the typed error, not numpy's TypeError
    law = LimitLaw(regime="Diffusive", alpha=2.0, sigma_alpha=1.0, kappa=1.0,
                   f_plus=1.0, f_minus=-1.0)
    for n in (2.5, True):
        with pytest.raises(InvalidRequest):
            sample_stable_cf(sp, 1.0, n)
        with pytest.raises(InvalidRequest):
            sample_limit_law(law, 1.0, n)


# ---------------------------------------------------------------------------
# the limit law and the reference law are one object in two parametrizations

def test_limit_cf_equals_scaled_stable_cf_levy(law_levy):
    sp = StableSpec(law_levy.alpha, law_levy.f_plus, law_levy.f_minus)
    s = law_levy.kappa ** (1.0 / law_levy.alpha)
    half = np.geomspace(0.01, 50.0, 25)
    xi = np.concatenate([-half[::-1], half])
    for t in (0.5, 1.0, 3.7):
        np.testing.assert_allclose(
            char_exponent(law_levy, xi, t), stable_cf(sp, s * xi, t),
            rtol=0, atol=1e-12)


def test_limit_cf_equals_scaled_stable_cf_critical(law_critical_levy):
    # at alpha = 1 the log-frequency terms and the location constant must
    # reassemble across the two routes; any mismatch breaks the phase
    law = law_critical_levy
    sp = StableSpec(1.0, law.f_plus, law.f_minus)
    half = np.geomspace(0.01, 50.0, 25)
    xi = np.concatenate([-half[::-1], half])
    for t in (0.5, 1.0, 3.7):
        np.testing.assert_allclose(
            char_exponent(law, xi, t), stable_cf(sp, law.kappa * xi, t),
            rtol=0, atol=1e-12)


def test_sample_limit_law_is_scaled_reference_sample(law_levy, law_critical_levy):
    for law in (law_levy, law_critical_levy):
        sp = StableSpec(law.alpha, law.f_plus, law.f_minus)
        s = law.kappa ** (1.0 / law.alpha)
        direct = s * sample_stable_cf(sp, 2.0, 256, seed=9)
        np.testing.assert_array_equal(
            sample_limit_law(law, 2.0, 256, seed=9), direct)


def test_sample_limit_law_diffusive_moments(law_diffusive):
    t, n = 4.0, 200000
    x = sample_limit_law(law_diffusive, t, n, seed=2)
    var_target = law_diffusive.sigma_alpha ** 2 * t
    assert x.mean() == pytest.approx(0.0, abs=3.0 * math.sqrt(var_target / n))
    assert x.var() == pytest.approx(var_target, rel=0.02)


def test_sample_limit_law_rejects_bad_t(law_levy):
    with pytest.raises(InvalidRequest):
        sample_limit_law(law_levy, 0.0, 10)


# ---------------------------------------------------------------------------
# Brownian grid and local-time estimators

def test_grid_shape_and_horizon():
    g = BrownianGrid.simulate(0.01, 500, seed=4)
    assert g.W[0] == 0.0
    assert g.W.size == 501
    assert np.all(np.isfinite(g.W))
    assert g.horizon == pytest.approx(5.0)
    assert g.delta == pytest.approx(0.1)
    t = g.times()
    assert t[0] == 0.0 and t.size == 501
    assert t[-1] == pytest.approx(5.0)


def test_grid_rejects_bad_parameters():
    with pytest.raises(InvalidRequest):
        BrownianGrid.simulate(0.0, 100)
    with pytest.raises(InvalidRequest):
        BrownianGrid.simulate(0.01, 0)
    with pytest.raises(InvalidRequest):
        BrownianGrid.simulate(0.01, 100, delta=-0.1)
    for steps in (2.5, True):
        with pytest.raises(InvalidRequest):
            BrownianGrid.simulate(0.01, steps)


def test_estimate_matches_counting_oracle():
    g = BrownianGrid.simulate(1e-3, 2000, seed=5)
    for level in (0.0, 0.3, -0.55):
        for t in (0.25, 1.0, 1.7, 2.0):
            k = min(int(t / g.dt + 1e-12), g.steps)
            rem = max(t - k * g.dt, 0.0)
            lo, hi = level - g.delta, level + g.delta
            occ = np.count_nonzero((g.W[:k] >= lo) & (g.W[:k] < hi)) * g.dt
            if rem > 0.0 and lo <= g.W[k] < hi:
                occ += rem
            assert estimate_local_time(g, level, t) == occ / (2.0 * g.delta)


def test_estimate_zero_time_and_monotone():
    g = BrownianGrid.simulate(1e-3, 1500, seed=6)
    assert estimate_local_time(g, 0.0, 0.0) == 0.0
    vals = [estimate_local_time(g, 0.2, u) for u in (0.3, 0.6, 0.9, 1.2, 1.5)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(InvalidRequest):
        estimate_local_time(g, 0.0, 2.0)


def test_field_matches_pointwise_estimates():
    g = BrownianGrid.simulate(2e-3, 1200, seed=7)
    levels, values = local_time_field(g, 2.0)
    point = np.array([estimate_local_time(g, lv, 2.0) for lv in levels])
    np.testing.assert_allclose(values, point, rtol=0, atol=1e-12)
    assert np.all(values >= 0.0)


def test_field_default_time_and_zero_time():
    g = BrownianGrid.simulate(0.01, 300, seed=9)
    l1, v1 = local_time_field(g)
    l2, v2 = local_time_field(g, g.horizon)
    np.testing.assert_array_equal(l1, l2)
    np.testing.assert_array_equal(v1, v2)
    _, v0 = local_time_field(g, 0.0)
    np.testing.assert_array_equal(v0, 0.0)


def test_occupation_identity():
    # integral of phi along the path == integral of phi against the field
    gaps = []
    for i in range(40):
        g = BrownianGrid.simulate(1e-3, 2000, seed=100 + i)
        lhs = g.dt * np.sum(np.exp(-g.W[:2000] ** 2))
        levels, values = local_time_field(g, 2.0)
        rhs = g.delta * np.sum(np.exp(-levels ** 2) * values)
        gaps.append(abs(lhs - rhs) / lhs)
    gaps = np.asarray(gaps)
    assert gaps.mean() < 0.01
    assert gaps.max() < 0.02


def test_mean_origin_local_time():
    # E L_1^0 = sqrt(2/pi); the delta-window bias at this resolution is well
    # inside the Monte Carlo band
    vals = np.empty(3000)
    for i in range(vals.size):
        g = BrownianGrid.simulate(1e-3, 1000, seed=i)
        vals[i] = estimate_local_time(g, 0.0, 1.0)
    target = math.sqrt(2.0 / math.pi)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - target) <= 3.0 * se


def test_inverse_local_time_properties():
    g = BrownianGrid.simulate(1e-3, 4000, seed=10)
    assert inverse_local_time(g, 0.0) == 0.0
    total = estimate_local_time(g, 0.0, g.horizon)
    targets = np.linspace(0.05, 0.95, 7) * total
    taus = [inverse_local_time(g, s) for s in targets]
    assert all(b > a for a, b in zip(taus, taus[1:]))
    for s, tau in zip(targets, taus):
        # inverse property: the estimate run out to tau gives back s
        assert estimate_local_time(g, 0.0, tau) == pytest.approx(s, abs=1e-12)
        # and the path is inside the origin window during the crossing step:
        # tau lies in ((j)dt, (j+1)dt] with the increment earned by W[j]
        j = int(np.searchsorted(g.times(), tau, side="left")) - 1
        assert -g.delta <= g.W[j] < g.delta


def test_inverse_local_time_errors():
    g = BrownianGrid.simulate(1e-3, 4000, seed=10)
    total = estimate_local_time(g, 0.0, g.horizon)
    with pytest.raises(HorizonExceeded):
        inverse_local_time(g, total * 1.01)
    with pytest.raises(InvalidRequest):
        inverse_local_time(g, -0.5)


def test_inverse_local_time_scaling():
    # tau_1 and tau_2/4 share one law; compare the two empirical samples,
    # truncated at the same point in tau_1 units so the horizon cut is fair
    def tau_sample(t_target, seed0, n):
        out = []
        for i in range(n):
            g = BrownianGrid.simulate(5e-3, 100000, seed=seed0 + i)
            try:
                out.append(inverse_local_time(g, t_target))
            except HorizonExceeded:
                pass
        return np.asarray(out)

    a = tau_sample(1.0, 0, 1800)
    b = tau_sample(2.0, 50000, 1800) / 4.0
    cut = 125.0
    a, b = a[a <= cut], b[b <= cut]
    assert min(a.size, b.size) > 1500
    assert ks_statistic(a, b) < ks_critical_1pct(a.size, b.size)


# ---------------------------------------------------------------------------
# excursion-route sampler

def test_excursions_validates_inputs():
    sp = StableSpec(1.5, 1.0, 0.0)
    with pytest.raises(InvalidAlpha):
        stable_via_excursions(StableSpec(2.0, 1.0, 0.0), [1.0], 1e-3, 4)
    with pytest.raises(InvalidRequest):
        stable_via_excursions(sp, [1.0, 0.5], 1e-3, 4)
    with pytest.raises(InvalidRequest):
        stable_via_excursions(sp, [-1.0], 1e-3, 4)
    with pytest.raises(InvalidRequest):
        stable_via_excursions(sp, [1.0], 0.3, 4)
    with pytest.raises(InvalidRequest):
        stable_via_excursions(sp, [1.0], 1e-3, 0)
    with pytest.raises(InvalidRequest):
        stable_via_excursions(sp, [1.0], 1e-3, 2.5)


# sha256 of the (64, 3) output of stable_via_excursions(StableSpec(alpha, 1.0,
# 0.5), EXCURSION_PIN_TIMES, 1e-3, 64, seed=0).  The second target lies 1e-6
# above the first, so every path crosses both in a single step.
EXCURSION_PIN_TIMES = [0.3, 0.3 + 1e-6, 1.0]
EXCURSION_PINS = {
    0.5: "74128e35038b198cbc51b96d988b2ba8368fff46c3a1a5d772990b9ed08b09df",
    1.0: "eedc0e433a970a3ab7e66c5eb264a401870f3ce28c05e2e0d114a40c8d025ed2",
    1.5: "cd34e1b68ad0d0a8d3fdc85ce79e1b1ff9d7db765dd99bdcbe9ffa95d95c5e44",
}


@pytest.mark.parametrize("alpha", sorted(EXCURSION_PINS))
def test_excursions_bit_pinned(alpha):
    out = stable_via_excursions(StableSpec(alpha, 1.0, 0.5), EXCURSION_PIN_TIMES,
                                1e-3, 64, seed=0)
    assert hashlib.sha256(out.tobytes()).hexdigest() == EXCURSION_PINS[alpha]


@pytest.mark.parametrize("alpha, width", [(0.5, 24), (0.5, stable._BLOCK),
                                          (1.5, stable._BLOCK)])
@pytest.mark.parametrize("chunk", [3, 64, 257])
def test_excursions_invariant_to_chunk_and_width(monkeypatch, chunk, alpha, width):
    # 64 paths make blocks of 24 (the last of 16) or one block.  At alpha >= 1
    # one matrix-vector product reads the near field of every path crossing
    # a target in the same step, and its per-row sums depend on the row
    # count, so there the output depends on the block width and only the
    # chunk length varies
    monkeypatch.setattr(_workspace, "_CHUNK", chunk)
    monkeypatch.setattr(stable, "_BLOCK", width)
    out = stable_via_excursions(StableSpec(alpha, 1.0, 0.5), EXCURSION_PIN_TIMES,
                                1e-3, 64, seed=0)
    assert hashlib.sha256(out.tobytes()).hexdigest() == EXCURSION_PINS[alpha]


def origin_crossing_step(dt, seed, path, t):
    """Steps one path of the excursion walk takes until its origin local time
    exceeds t: a scalar replay of the walk's recursion and l0 estimator."""
    z = stream(seed, TAG_EXCURSION, path).standard_normal(200_000)
    d0 = math.sqrt(dt)
    w = l0 = 0.0
    for k in range(z.size):
        step = max(dt, (0.1 * abs(w)) ** 2)
        w1 = w + math.sqrt(step) * z[k]
        lo, hi = min(w, w1), max(w, w1)
        if hi - lo <= 1e-9:
            frac0 = float(abs(w) < d0)
        else:
            frac0 = max(min(hi, d0) - max(lo, -d0), 0.0) / (hi - lo)
        l0 += step * frac0 / (2.0 * d0)
        w = w1
        if l0 > t:
            return k + 1
    raise AssertionError("the replay did not reach t")


def test_excursion_block_step_cap():
    # the cap counts lockstep steps of the block: it passes when the slowest
    # path finishes on the cap and raises one step below it
    sp, dt = StableSpec(1.5, 1.0, -1.0), 1e-3
    tab = _EngineTables(sp, dt)
    t_arr = np.array([0.3])
    need = max(origin_crossing_step(dt, 5, p, 0.3) for p in range(3))
    assert need > 100
    out = _excursion_block(sp, tab, t_arr, dt, 5, 0, 3, need)
    assert np.all(np.isfinite(out))
    with pytest.raises(HorizonExceeded,
                       match=f"a path exceeded {need - 1} steps before its local-time target"):
        _excursion_block(sp, tab, t_arr, dt, 5, 0, 3, need - 1)


def test_excursions_degenerate_zero_weights():
    out = stable_via_excursions(StableSpec(0.6, 0.0, 0.0), [0.5, 1.0], 1e-3, 8)
    assert out.shape == (8, 2)
    np.testing.assert_array_equal(out, 0.0)


def test_excursions_low_alpha_matches_cf():
    # alpha < 1: the functional is a plain time integral; both weights
    # positive forces a one-sided law
    sp = StableSpec(0.5, 1.0, 1.0)
    k = stable_via_excursions(sp, [1.0], 4e-5, 800, seed=0)[:, 0]
    assert k.min() >= 0.0
    xi = np.geomspace(0.08, 4.0, 9)
    val, se = ecf_with_se(k, xi)
    target = stable_cf(sp, xi, 1.0)
    assert np.all(np.abs(val - target) <= 3.0 * se + 0.02)


def test_excursions_high_alpha_matches_cf():
    # alpha in (1,2): compensated field route; symmetric weights kill the
    # imaginary part identically
    sp = StableSpec(1.5, 1.0, -1.0)
    k = stable_via_excursions(sp, [1.0], 1e-5, 800, seed=0)[:, 0]
    xi_mod = np.geomspace(0.007, 0.09, 9)
    val, se = ecf_with_se(k, xi_mod)
    target = np.exp(-18.0 * xi_mod ** 1.5)
    assert np.all(np.abs(np.abs(val) - target) <= 3.0 * se + 0.02)
    xi_im = np.geomspace(0.007, 0.30, 9)
    val, _ = ecf_with_se(k, xi_im)
    se_im = np.sqrt(np.maximum(0.5 * (1.0 - np.abs(val) ** 2), 1e-12) / k.size)
    assert np.all(np.abs(val.imag) <= 3.0 * se_im + 0.01)


def test_excursions_alpha_one_matches_cf():
    # alpha = 1 with asymmetric weights: the hardest branch, with the
    # truncated compensator and the log drift
    sp = StableSpec(1.0, 1.0, 0.5)
    k = stable_via_excursions(sp, [1.0], 1e-5, 1200, seed=0, threads=2)[:, 0]
    xi = np.geomspace(0.045, 1.0, 9)
    val, se = ecf_with_se(k, xi)
    target = stable_cf(sp, xi, 1.0)
    assert np.all(np.abs(val - target) <= 3.0 * se + 0.02)


def test_excursions_stationary_independent_increments():
    # S_{1.5} - S_{0.7} must match an independent copy of S_{0.8}
    sp = StableSpec(0.5, 1.0, 1.0)
    ka = stable_via_excursions(sp, [0.7, 1.5], 1e-4, 1500, seed=0)
    kb = stable_via_excursions(sp, [0.8], 1e-4, 1500, seed=7777)[:, 0]
    inc = ka[:, 1] - ka[:, 0]
    assert ks_statistic(inc, kb) < ks_critical_1pct(inc.size, kb.size)


def test_excursions_thread_count_invariance():
    sp = StableSpec(1.5, 1.0, -1.0)
    serial = stable_via_excursions(sp, [0.3, 1.0], 1e-3, 600, seed=3)
    threaded = stable_via_excursions(sp, [0.3, 1.0], 1e-3, 600, seed=3, threads=3)
    np.testing.assert_array_equal(serial, threaded)
    assert np.all(np.isfinite(serial))

    def iqr(col):
        q75, q25 = np.percentile(col, [75.0, 25.0])
        return q75 - q25

    # later marginals spread wider
    assert iqr(serial[:, 0]) < iqr(serial[:, 1])
