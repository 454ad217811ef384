"""Reference stable laws: closed-form constants, the direct sampler and the
excursion-route sampler, cross-checked against each other."""

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
    StableSpec,
    _EngineTables,
    _excursion_block,
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
    1.0: "7696ff83cc1353d299d7a42a282d9af3eb0bfa5daf488cc9686462c6050b5714",
    1.5: "7ee31b4ac050cbe00b7349c8ad06b740e028e8acc00e90d44c91a663951418bd",
}


@pytest.mark.parametrize("alpha", sorted(EXCURSION_PINS))
def test_excursions_bit_pinned(alpha):
    out = stable_via_excursions(StableSpec(alpha, 1.0, 0.5), EXCURSION_PIN_TIMES,
                                1e-3, 64, seed=0)
    assert hashlib.sha256(out.tobytes()).hexdigest() == EXCURSION_PINS[alpha]


@pytest.mark.parametrize("alpha, width", [(0.5, 24), (0.5, stable._BLOCK),
                                          (1.0, 24), (1.0, stable._BLOCK),
                                          (1.5, 24), (1.5, stable._BLOCK)])
@pytest.mark.parametrize("chunk", [3, 64, 257])
def test_excursions_invariant_to_chunk_and_width(monkeypatch, chunk, alpha, width):
    # 64 paths make blocks of 24 (the last of 16) or one block
    monkeypatch.setattr(_workspace, "_CHUNK", chunk)
    monkeypatch.setattr(stable, "_BLOCK", width)
    out = stable_via_excursions(StableSpec(alpha, 1.0, 0.5), EXCURSION_PIN_TIMES,
                                1e-3, 64, seed=0)
    assert hashlib.sha256(out.tobytes()).hexdigest() == EXCURSION_PINS[alpha]


def test_excursions_grow_chunks_as_paths_finish(monkeypatch, chunk_log):
    # the alpha = 1 pin as one 64-path block: once fewer than 8 paths are
    # live, a chunk takes _CHUNK * 64 // live steps (at most the slab) in
    # the same buffers; the output equals the 3-step-chunk run's bit for
    # bit.  That run ends in a chunk of one live path, whose running sums
    # _cumsum_end reads by its single-column fallback
    chunk = _workspace._CHUNK
    spec = StableSpec(1.0, 1.0, 0.5)
    got = stable_via_excursions(spec, EXCURSION_PIN_TIMES, 1e-3, 64, seed=0, threads=1)
    assert min(n for _, n in chunk_log) < 64 / 8
    assert max(k for k, _ in chunk_log) > chunk
    assert all(k <= chunk * 64 // n for k, n in chunk_log)
    monkeypatch.setattr(_workspace, "_CHUNK", 3)
    del chunk_log[:]
    ref = stable_via_excursions(spec, EXCURSION_PIN_TIMES, 1e-3, 64, seed=0, threads=1)
    assert any(n == 1 and k > 8 for k, n in chunk_log)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    assert hashlib.sha256(got.tobytes()).hexdigest() == EXCURSION_PINS[1.0]


@pytest.mark.parametrize("times", [[1.0], EXCURSION_PIN_TIMES])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0 / 3.0, 1.5])
def test_excursions_narrow_walk_is_bit_identical(monkeypatch, chunk_log, alpha, times):
    # phase 1 steps a chunk of at most _NARROW live paths path by path in
    # Python floats: never at 0, in the straggler tail by default, and in
    # every chunk, where each target is crossed, at the 64-path block width
    spec, default = StableSpec(alpha, 1.0, 0.5), stable._NARROW
    assert default < 64
    outs = []
    for narrow in (0, default, 64):
        monkeypatch.setattr(stable, "_NARROW", narrow)
        outs.append(stable_via_excursions(spec, times, 1e-3, 64, seed=0, threads=1))
    assert min(n for _, n in chunk_log) <= default
    for out in outs[1:]:
        assert np.array_equal(out.view(np.int64), outs[0].view(np.int64))
    if times is EXCURSION_PIN_TIMES and alpha in EXCURSION_PINS:
        assert hashlib.sha256(outs[0].tobytes()).hexdigest() == EXCURSION_PINS[alpha]


def test_excursions_narrow_walk_thread_count_invariance(chunk_log):
    # 512 paths walk as one block at threads = 1, whose tail narrows to
    # _NARROW paths and below, and as two forked blocks of 256 at threads = 2
    sp = StableSpec(4.0 / 3.0, 1.0, 0.5)
    serial = stable_via_excursions(sp, [0.3, 1.0], 1e-3, 512, seed=4, threads=1)
    assert chunk_log[0][1] == 512 and min(n for _, n in chunk_log) <= stable._NARROW
    forked = stable_via_excursions(sp, [0.3, 1.0], 1e-3, 512, seed=4, threads=2)
    assert np.array_equal(serial.view(np.int64), forked.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(dt=st.floats(1e-9, 0.25),
       mags=st.lists(st.floats(0.0, 1e150) | st.sampled_from(
           [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e150]), max_size=20),
       offsets=st.lists(st.integers(-40, 40), max_size=10))
def test_excursion_step_identity(dt, mags, offsets):
    # phase 1 steps by max(sqrt(dt), 0.1 |w|) in place of the old
    # sqrt(max(dt, (0.1 |w|)^2)): equal in binary64, as sqrt(RN(s^2)) = s
    # while nothing under- or overflows and rounded sqrt is monotone.  w
    # around the crossover 0.1 |w| = sqrt(dt) steps a few ulps at a time
    cross = math.sqrt(dt) / 0.1
    near = [cross]
    for off in offsets + list(range(-4, 5)):
        w = cross
        for _ in range(abs(off)):
            w = math.nextafter(w, math.copysign(math.inf, off))
        near.append(w)
    w = np.array(mags + near)
    w = np.concatenate([w, -w])
    new = np.maximum(math.sqrt(dt), 0.1 * np.abs(w))
    old = np.sqrt(np.maximum(dt, np.square(0.1 * np.abs(w))))
    assert np.array_equal(new.view(np.int64), old.view(np.int64))


def excursion_replay(tab, dt, z, targets):
    """A scalar step-by-step replay of one path of the excursion walk on the
    normals z.  Returns the steps it takes until its origin local time
    exceeds the last target, and K at each target: the far field from its
    antiderivative, interpolated in the crossing step, plus (alpha >= 1) the
    binned near field from per-cell occupation, read as ``fld @ weights``
    with its L^0 compensator at the end of the crossing step."""
    sp, d0, near = tab.spec, math.sqrt(dt), tab.near

    def far(x):
        # antiderivative of the time-integral weight sgn_ab(x) |x|^p, which
        # at alpha >= 1 lives on |x| > 1 only
        sign = sp.a if x >= 0.0 else -sp.b
        if not near:
            return sign * abs(x) ** tab.q / tab.q
        ax = max(abs(x), 1.0)
        return sign * (math.log(ax) if sp.alpha == 1.0 else (ax ** tab.q - 1.0) / tab.q)

    def far_point(x):
        # the weight itself at a zero-span step, singularity floored
        if near and abs(x) <= 1.0:
            return 0.0
        return (sp.a if x > 0.0 else sp.b if x < 0.0 else 0.0) * max(abs(x), d0) ** tab.p

    if near:
        el, er, top = tab.edges[:-1], tab.edges[1:], tab.edges[-1]
        occ = np.zeros(tab.n_cells)
    w = l0 = kfar = 0.0
    vals = []
    for k in range(z.size):
        step = max(dt, (0.1 * abs(w)) ** 2)
        w1 = w + math.sqrt(step) * z[k]
        lo, hi = min(w, w1), max(w, w1)
        if hi - lo <= 1e-9:
            frac0 = float(abs(w) < d0)
            dk = far_point(w) * step
            if near and abs(w) < top:
                # the whole step sits in w's cell
                occ[min(int((w - el[0]) / tab.delta), tab.n_cells - 1)] += step
        else:
            frac0 = max(min(hi, d0) - max(lo, -d0), 0.0) / (hi - lo)
            dk = (far(w1) - far(w)) / (w1 - w) * step
            if near:
                # the step's duration spread uniformly over [lo, hi]
                occ += step / (hi - lo) * np.clip(np.minimum(hi, er) - np.maximum(lo, el),
                                                  0.0, None)
        dl = step * frac0 / (2.0 * d0)
        while len(vals) < len(targets) and l0 + dl > targets[len(vals)]:
            val = kfar + (targets[len(vals)] - l0) / dl * dk
            if near:
                pad = np.pad(occ, 1)
                fld = (occ + 0.5 * (pad[:-2] + pad[2:])) / (2.0 * tab.delta)
                val += fld @ tab.weights - (l0 + dl) * tab.compensator
            vals.append(val)
        if len(vals) == len(targets):
            return k + 1, vals
        w, l0, kfar = w1, l0 + dl, kfar + dk
    raise AssertionError("the replay did not reach the last target")


@pytest.mark.parametrize("zero_spans", [False, True])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_excursions_match_scalar_replay(monkeypatch, alpha, zero_spans):
    # the oracle for the pins: the engine sums each field as a running time
    # integral of an antiderivative, the replay keeps per-cell occupation.
    # With zero_spans, normals below 0.05 in size become exact zeros, so
    # about 4% of the steps take the zero-span rules
    def zeroed(z):
        if zero_spans:
            z[np.abs(z) < 0.05] = 0.0
        return z

    class Stream:
        def __init__(self, *key):
            self.gen = stream(*key)

        def standard_normal(self, out):
            zeroed(self.gen.standard_normal(out=out))

    monkeypatch.setattr(_workspace, "stream", Stream)
    sp, dt = StableSpec(alpha, 1.0, 0.5), 1e-3
    # eight paths, so that some pass both ends of the near-field grid
    out = stable_via_excursions(sp, EXCURSION_PIN_TIMES, dt, 8, seed=0)
    tab = _EngineTables(sp, dt)
    for path in range(8):
        z = zeroed(stream(0, TAG_EXCURSION, path).standard_normal(200_000))
        _, ref = excursion_replay(tab, dt, z, EXCURSION_PIN_TIMES)
        np.testing.assert_allclose(out[path], ref, rtol=1e-9, atol=0.0)


def test_excursion_block_step_cap(monkeypatch):
    # the cap counts lockstep steps of the block: it passes when the slowest
    # path finishes on the cap and raises one step below it, whether the
    # three paths step path by path (by default) or by ufuncs (_NARROW = 0)
    sp, dt = StableSpec(1.5, 1.0, -1.0), 1e-3
    tab = _EngineTables(sp, dt)
    t_arr = np.array([0.3])
    need = max(excursion_replay(tab, dt, stream(5, TAG_EXCURSION, p).standard_normal(200_000),
                                [0.3])[0] for p in range(3))
    assert need > 100 and stable._NARROW >= 3
    outs = []
    for narrow in (stable._NARROW, 0):
        monkeypatch.setattr(stable, "_NARROW", narrow)
        outs.append(_excursion_block(tab, t_arr, dt, 5, 0, 3, need))
        assert np.all(np.isfinite(outs[-1]))
        with pytest.raises(HorizonExceeded,
                           match=f"a path exceeded {need - 1} steps before its local-time target"):
            _excursion_block(tab, t_arr, dt, 5, 0, 3, need - 1)
    assert np.array_equal(outs[0].view(np.int64), outs[1].view(np.int64))


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
    # 600 paths make blocks of 512 and 88 at threads = 1, two of 300 at 2
    # and three of 200 at 3
    sp = StableSpec(1.5, 1.0, -1.0)
    serial = stable_via_excursions(sp, [0.3, 1.0], 1e-3, 600, seed=3, threads=1)
    for threads in (2, 3):
        forked = stable_via_excursions(sp, [0.3, 1.0], 1e-3, 600, seed=3, threads=threads)
        np.testing.assert_array_equal(serial, forked)
    assert np.all(np.isfinite(serial))

    def iqr(col):
        q75, q25 = np.percentile(col, [75.0, 25.0])
        return q75 - q25

    # later marginals spread wider
    assert iqr(serial[:, 0]) < iqr(serial[:, 1])
