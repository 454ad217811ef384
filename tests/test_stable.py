"""Reference stable laws: closed-form constants, the direct sampler and the
excursion-route sampler, cross-checked against each other."""

import cmath
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablediff import stable
from stablediff._rng import TAG_EXCURSION, stream
from stablediff.asymptotics import EULER_GAMMA, LimitLaw, char_exponent
from stablediff.errors import InvalidAlpha, InvalidRequest
from stablediff.stable import (
    StableSpec,
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


# a seed out of [0, 2**64) or not an integer; key() would keep only the low
# 64 bits, so 2**64 and -1 replayed other seeds' streams
BAD_SEEDS = [2 ** 64, -1, True, 1.5, np.int64(-1)]
BAD_SEED_IDS = ["2**64", "-1", "True", "1.5", "int64(-1)"]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=BAD_SEED_IDS)
def test_sample_stable_cf_rejects_bad_seed(seed):
    with pytest.raises(InvalidRequest, match="seed"):
        sample_stable_cf(StableSpec(1.3, 1.0, 0.0), 1.0, 5, seed=seed)


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=BAD_SEED_IDS)
def test_sample_limit_law_rejects_bad_seed(seed, law_levy):
    with pytest.raises(InvalidRequest, match="seed"):
        sample_limit_law(law_levy, 1.0, 5, seed=seed)


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=BAD_SEED_IDS)
def test_stable_via_excursions_rejects_bad_seed(seed):
    with pytest.raises(InvalidRequest, match="seed"):
        stable_via_excursions(StableSpec(1.5, 1.0, 1.0), [0.5], 1e-3, 4, seed=seed)


def test_seed_edges_are_accepted():
    sp = StableSpec(1.3, 1.0, 0.0)
    top = sample_stable_cf(sp, 1.0, 5, seed=2 ** 64 - 1)
    assert np.array_equal(sample_stable_cf(sp, 1.0, 5, seed=np.uint64(2 ** 64 - 1)), top)
    assert not np.array_equal(sample_stable_cf(sp, 1.0, 5, seed=0), top)


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
    with pytest.raises(InvalidRequest, match="too small for the level grid"):
        stable_via_excursions(sp, [1e-310, 1.0], 1e-3, 4)
    with pytest.raises(InvalidRequest):
        stable_via_excursions(sp, [1.0], 0.3, 4)
    with pytest.raises(InvalidRequest):
        stable_via_excursions(sp, [1.0], 1e-3, 0)
    with pytest.raises(InvalidRequest):
        stable_via_excursions(sp, [1.0], 1e-3, 2.5)


# sha256 of the (64, 3) output of stable_via_excursions(StableSpec(alpha, 1.0,
# 0.5), EXCURSION_PIN_TIMES, 1e-3, 64, seed=0).  The second target lies 1e-6
# above the first, an increment far below dt, so the innermost level is
# 1e-6 / 1000 = 1e-9 rather than dt, and x_c, below which cells widen, is
# 1e-6.
EXCURSION_PIN_TIMES = [0.3, 0.3 + 1e-6, 1.0]
EXCURSION_PINS = {
    0.5: "9aa73986d41e4fbc240a72e17822cae5d1ff7509565308fff400a763ba451ca8",
    1.0: "d8f123a6960f1b916f4c6353ca8342252ba8fcf4748ca25716c5701c68bb63f3",
    1.5: "3ccd3982b67e2f4ebd23b37619a9834f277b5143d00ad5be2649c1f30cfe585a",
}


@pytest.mark.parametrize("alpha", sorted(EXCURSION_PINS))
def test_excursions_bit_pinned(alpha):
    out = stable_via_excursions(StableSpec(alpha, 1.0, 0.5), EXCURSION_PIN_TIMES,
                                1e-3, 64, seed=0)
    assert hashlib.sha256(out.tobytes()).hexdigest() == EXCURSION_PINS[alpha]


def rule_ratio(p, x, x_c):
    """The largest ratio a cell whose lower end is x may have."""
    if x >= x_c:
        return stable._RATIO
    return 1.0 + min(0.5, (stable._RATIO - 1.0) * (x_c / x) ** ((2.0 * p + 3.0) / 4.0))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_excursion_cell_weights_match_quadrature(alpha):
    # the grid from x_min = dt, with x_c = 1e-2 so that it has cells on
    # both sides of x_c: x_min, x_c and 1 are nodes, a cell below x_c has
    # at most the ratio R of its lower end (at most 1.5), one at or above
    # x_c at most 1.02.  Then A and B against quad of x^p times the linear
    # Z that is 1 at x0 and 0 at x1, then 0 at x0 and 1 at x1, on the first
    # cell [0, dt], on the coarse cell next to it and on the cell that ends
    # at the level 1; the first cell's A is finite only when p > -1
    quad = pytest.importorskip("scipy.integrate").quad
    p, dt, x_c = 1.0 / alpha - 2.0, 1e-5, 1e-2
    levels = list(itertools.takewhile(lambda x: x <= 1.0, stable._levels(p, dt, x_c)))
    assert levels[0] == dt and levels[-1] == 1.0 and x_c in levels
    for x0, x1 in zip(levels, levels[1:]):
        assert x1 / x0 <= rule_ratio(p, x0, x_c) * (1.0 + 1e-12)
        assert x1 / x0 <= 1.5
    assert levels[1] / levels[0] > stable._RATIO     # coarser than any cell above x_c
    for x0, x1 in ((0.0, dt), (dt, levels[1]), (levels[-2], 1.0)):
        a, b = stable._cell_weights(p, x0, x1)
        h = x1 - x0
        ref_b = quad(lambda x: (x - x0) / h * x ** p, x0, x1, epsabs=0.0, epsrel=1e-12)[0]
        assert b == pytest.approx(ref_b, rel=1e-10)
        if x0 == 0.0 and p <= -1.0:
            assert a == math.inf
            continue
        ref_a = quad(lambda x: (x1 - x) / h * x ** p, x0, x1, epsabs=0.0, epsrel=1e-12)[0]
        assert a == pytest.approx(ref_a, rel=1e-10)


# levels up to 1 of the grid from dt = 1e-5 with x_c = 1 (the workload's
# single target t = 1); the 1.02-ratio grid had 583 at every alpha
LEVELS_TO_ONE = {0.5: 84, 1.0: 195, 4.0 / 3.0: 312, 1.5: 377, 1.9: 541}


@pytest.mark.parametrize("alpha", sorted(LEVELS_TO_ONE))
def test_excursion_level_count(alpha):
    levels = itertools.takewhile(lambda x: x <= 1.0, stable._levels(1.0 / alpha - 2.0, 1e-5, 1.0))
    assert abs(sum(1 for _ in levels) - LEVELS_TO_ONE[alpha]) <= 2


def coupled_grid_error(p, nodes, n, seed, split=8):
    """rms over n BESQ^0 columns from 1 of the gap between int Z x^p dx
    with Z linear on the cells of ``nodes`` and with Z linear on a grid that
    splits every cell into ``split`` geometric subcells; one exact chain on
    the fine grid gives Z at both grids' nodes."""
    fine = np.concatenate([np.geomspace(x0, x1, split + 1)[:-1]
                           for x0, x1 in zip(nodes, nodes[1:])] + [nodes[-1:]])
    gen = np.random.default_rng(seed)
    z = np.ones(n)
    zs = []
    for h2 in 2.0 * np.diff(fine, prepend=0.0):
        z = gen.standard_gamma(gen.poisson(z / h2)) * h2
        zs.append(z)

    def integral(zs, xs):
        return sum(a * z0 + b * z1 for (a, b), z0, z1 in zip(
            (stable._cell_weights(p, x0, x1) for x0, x1 in zip(xs, xs[1:])), zs, zs[1:]))

    gap = integral(zs[::split], nodes) - integral(zs, fine)
    return float(np.sqrt(np.mean(gap ** 2)))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 4.0 / 3.0, 1.6])
def test_excursion_grid_error_stays_balanced(alpha):
    # below level 1 the error-balanced grid at most doubles the missed
    # variance of the 1.02-ratio grid, so its rms error is at most sqrt(2)
    # times that grid's; 1.6 is sqrt(2) plus slack for the sampling spread
    # of two rms over 2000 columns each (ratios of 1.25-1.51 were seen)
    p, dt = 1.0 / alpha - 2.0, 1e-5
    new = list(itertools.takewhile(lambda x: x <= 1.0, stable._levels(p, dt, 1.0)))
    n = math.ceil(-math.log(dt) / math.log(stable._RATIO))
    old = np.geomspace(dt, 1.0, n + 1).tolist()
    assert coupled_grid_error(p, new, 2000, 1) <= 1.6 * coupled_grid_error(p, old, 2000, 2)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_excursions_increment_at_dt_matches_cms(alpha):
    # an increment equal to dt puts the innermost level at dt / 1000: a
    # column started at ell is mostly absorbed within the first cell, where
    # Z is taken as linear, unless that cell is far below ell (at dt
    # itself, KS read 0.32-0.35)
    sp = StableSpec(alpha, 1.0, 0.5)
    k = stable_via_excursions(sp, [1e-3], 1e-3, 8000, seed=0)[:, 0]
    ref = sample_stable_cf(sp, 1e-3, 8000, seed=1)
    assert ks_statistic(k, ref) < ks_critical_1pct(k.size, ref.size)


def test_excursions_near_alpha_two_match_cms():
    # at alpha = 1.9 a Z linear on the first cell [0, dt] keeps only 5% of
    # that cell's variance, and the missing part shrinks only like
    # dt^(2/alpha - 1); without the first cell's bridge term KS read 0.081
    sp = StableSpec(1.9, 1.0, -0.3)
    k = stable_via_excursions(sp, [1.0], 1e-5, 8000, seed=0)[:, 0]
    ref = sample_stable_cf(sp, 1.0, 8000, seed=1)
    assert ks_statistic(k, ref) < ks_critical_1pct(k.size, ref.size)


def loop_ray_knight_block(spec, inc, x_min, x_c, seed, block, m):
    """The Ray-Knight chain of a block with every level an array step: the
    level grid walked afresh, each cell's weights computed in place, one
    numpy poisson and standard_gamma call per level, and absorbed columns
    dropped as they go."""
    gen = stream(seed, TAG_EXCURSION, block)
    p = 1.0 / spec.alpha - 2.0
    ell = np.broadcast_to(inc, (2, m, inc.size)).ravel()

    def step(z, h):
        z = gen.standard_gamma(gen.poisson(z / (2.0 * h)))
        z *= 2.0 * h
        return z

    levels = stable._levels(p, x_min, x_c)
    x0 = next(levels)
    a0, b0 = stable._cell_weights(p, 0.0, x0)
    # the first cell's Brownian-bridge part, drawn before the first step
    q = 2.0 * p + 3.0
    bridge = np.sqrt(ell) * (2.0 * math.sqrt(x0 ** q / ((p + 2.0) ** 2 * q))) \
        * gen.standard_normal(ell.size)
    z = step(ell, x0)
    if spec.alpha < 1.0:
        s, owed = ell * a0 + z * b0, 0.0
    else:
        s = (z - ell) * b0
        owed = -math.log(x0) if spec.alpha == 1.0 else x0 ** (p + 1.0) / -(p + 1.0)
    s += bridge
    acc = np.empty_like(s)
    live = np.arange(s.size)
    for x1 in levels:
        a, b = stable._cell_weights(p, x0, x1)
        z1 = step(z, x1 - x0)
        s += a * z
        s += b * z1
        z, x0 = z1, x1
        gone = z == 0.0
        acc[live[gone]] = s[gone]
        live, z, s = live[~gone], z[~gone], s[~gone]
        if not live.size:
            break
    k = (acc - owed * ell).reshape(2, m, inc.size)
    return np.cumsum(spec.b * k[0] + spec.a * k[1], axis=1)


@pytest.mark.parametrize("alpha", [4.0 / 3.0, 1.0])
@pytest.mark.parametrize("m,blocks", [
    # the workload's blocks: 256 columns, stepped as arrays until few are live
    pytest.param(128, (0, 5, 17), id="128"),
    # 8 columns, stepped in Python floats from the first level on
    pytest.param(4, (0, 1, 2, 3), id="4"),
])
def test_ray_knight_block_matches_array_loop(alpha, m, blocks):
    # the shared grid, the reused buffers and the scalar tail keep the
    # draws and the sums of the array-per-level chain, bit for bit
    spec = StableSpec(alpha, 0.8, -0.3)
    inc = np.array([1.0])
    grid = stable._LevelGrid(1.0 / alpha - 2.0, 1e-5, 1.0)
    for block in blocks:
        got = stable._ray_knight_block(spec, inc, grid, 9, block, m)
        np.testing.assert_array_equal(
            got, loop_ray_knight_block(spec, inc, 1e-5, 1.0, 9, block, m))


def test_excursions_reject_an_increment_too_large_for_dt():
    # a local-time increment of 1e17 against dt = 1e-3 asks numpy's Poisson
    # sampler for a rate past its limit on the first level; one of 1e15
    # passes there and fails on the next, 28 times narrower cell, whether
    # 256 columns step it as arrays or 8 in Python floats
    with pytest.raises(InvalidRequest, match="too large against the level step"):
        stable_via_excursions(StableSpec(1.5, 1.0, 1.0), [1e17], 1e-3, 4)
    for n_paths in (128, 4):
        with pytest.raises(InvalidRequest, match="too large against the level step"):
            stable_via_excursions(StableSpec(1.5, 1.0, 1.0), [1e15], 1e-3, n_paths,
                                  threads=1)


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
    # 600 paths make four blocks of 128 and one of 88, each drawing from
    # its own stream, whether they run here (threads = 1) or are shared
    # among forked workers (threads = 2 and 3)
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
