"""Scale/speed machinery against closed forms and independent quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import stablediff
from stablediff import presets
from stablediff.errors import ConfigError, NotIntegrable, NotPositiveRecurrent, OutOfDomain
from stablediff.model import (
    check_harris,
    compute_kappa,
    eval_psi_phi,
    eval_scale,
    eval_speed_density,
    invariant_integral,
)


# -- trivial closed forms ----------------------------------------------------

def test_scale_identity_for_driftless_unit_noise(identity_model):
    assert eval_scale(identity_model, 2.0) == pytest.approx(2.0, abs=1e-12)
    assert eval_speed_density(identity_model, 5.0) == pytest.approx(1.0, rel=1e-12)


def test_flat_model_not_positive_recurrent(identity_model):
    with pytest.raises(NotPositiveRecurrent):
        compute_kappa(identity_model)


def test_psi_phi_trivial_for_identity_scale(identity_model):
    psi, phi = eval_psi_phi(identity_model, lambda x: np.sin(np.asarray(x)), 0.7)
    assert psi == pytest.approx(1.0, rel=1e-10)
    assert phi == pytest.approx(np.sin(0.7), rel=1e-10)


# -- heavy-tailed preset oracles ----------------------------------------------

def test_heavy_scale_matches_quadrature(heavy1):
    for x in [0.3, 1.0, 2.5, -1.7]:
        expected = quad(lambda v: np.exp(v * v), 0.0, x)[0]
        assert eval_scale(heavy1, x) == pytest.approx(expected, rel=1e-9)


def test_heavy_speed_density_closed_form(heavy1):
    xs = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
    assert eval_speed_density(heavy1, xs) == pytest.approx(np.exp(-xs * xs), rel=1e-9)


def test_heavy_kappa_is_inverse_gaussian_integral(heavy1):
    # int e^{-x^2} dx = sqrt(pi)
    assert compute_kappa(heavy1) == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-9)


def test_heavy_psi_phi_at_scale_of_one(heavy1):
    w = eval_scale(heavy1, 1.0)
    psi, phi = eval_psi_phi(heavy1, lambda x: np.asarray(x, dtype=np.float64), w)
    assert psi == pytest.approx(np.e, rel=1e-8)
    assert phi == pytest.approx(np.exp(-2.0), rel=1e-8)


def test_heavy_second_moment(heavy1):
    # mu = e^{-x^2}/sqrt(pi): mu(x^2) = 1/2
    assert invariant_integral(heavy1, lambda x: np.asarray(x) ** 2) == pytest.approx(0.5, rel=1e-8)


def test_heavy_odd_moment_vanishes(heavy1):
    val = invariant_integral(heavy1, lambda x: np.asarray(x, dtype=np.float64))
    assert abs(val) < 1e-10


# -- kinetic preset oracles ----------------------------------------------------

def test_kinetic_scale_derivative_is_theta_power(kinetic3):
    xs = np.array([-3.0, -1.0, 0.5, 2.0, 10.0])
    sp = kinetic3.core().sprime(xs)
    assert sp == pytest.approx((1.0 + xs * xs) ** 1.5, rel=1e-9)


def test_kinetic_speed_density(kinetic3):
    xs = np.array([-5.0, 0.0, 1.0, 4.0])
    assert eval_speed_density(kinetic3, xs) == pytest.approx((1.0 + xs * xs) ** -1.5, rel=1e-9)


def test_kinetic_kappa_beta3():
    # oracle: int (1+v^2)^{-3/2} dv = [v/sqrt(1+v^2)] = 2, so kappa = 1/2
    m = presets.kinetic(3.0)
    assert compute_kappa(m) == pytest.approx(0.5, rel=1e-8)


def test_kinetic_kappa_beta7():
    # int (1+v^2)^{-7/2} dv = 16/15
    m = presets.kinetic(7.0)
    assert compute_kappa(m) == pytest.approx(15.0 / 16.0, rel=1e-8)


def test_kinetic_second_moment_vs_oracle_quadrature():
    # beta = 5: x^2 (1+x^2)^{-5/2} is integrable; independent scheme = scipy quad
    m = presets.kinetic(5.0)
    kappa = compute_kappa(m)
    oracle = kappa * quad(lambda v: v * v * (1 + v * v) ** -2.5, -np.inf, np.inf)[0]
    assert invariant_integral(m, lambda x: np.asarray(x) ** 2) == pytest.approx(oracle, rel=1e-7)


def test_kinetic_beta3_second_moment_diverges(kinetic3):
    # x^2 m ~ 1/x: log-divergent tail must be detected, not truncated silently
    with pytest.raises(NotIntegrable):
        invariant_integral(kinetic3, lambda x: np.asarray(x) ** 2)


def test_asymmetric_kinetic_kappa():
    # speed density is (theta(x)/theta(0))^beta under the s'(0)=1 convention
    m = presets.kinetic(2.0, 1.0, 0.25)

    def theta(v):
        # theta = h / sqrt(1+v^2) with h running from c_minus = 0.25 to c_plus = 1
        return (0.625 + 0.375 * v / np.sqrt(1.0 + v * v)) / np.sqrt(1.0 + v * v)

    oracle = quad(lambda v: (theta(v) / theta(0.0)) ** 2, -np.inf, np.inf)[0]
    # beta=2 gives the fattest admissible speed tail (~x^-2); the geometric
    # tail extrapolation from cutoff 600 is good to ~1e-7 relative there
    assert compute_kappa(m) == pytest.approx(1.0 / oracle, rel=1e-6)


@pytest.mark.parametrize("beta", [3.0, 7.0])
def test_symmetric_kinetic_drift_matches_general_form(beta):
    # with c_plus = c_minus the drift skips h' and h; the general expression
    # (h'/h - v/(1+v^2), h' = 0 * (1+v^2)^-1.5, h = 1 + 0 * v/sqrt(1+v^2))
    # must come out bit for bit, signed zeros, nans and overflowing v*v included
    rng = np.random.default_rng(0)
    mag = 10.0 ** rng.uniform(-300.0, 300.0, 10**6)
    v = np.concatenate([mag * rng.choice([-1.0, 1.0], mag.size),
                        [0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200,
                         5e-324, -5e-324, 1.3e154, 1.4e154]])
    dif = 0.0
    with np.errstate(all="ignore"):
        h = 1.0 + dif * v / np.sqrt(1.0 + v * v)
        want = 0.5 * beta * (dif * (1.0 + v * v) ** -1.5 / h - v / (1.0 + v * v))
        got = presets.kinetic(beta).drift(v)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def kinetic_drift_reference(beta, c_plus, c_minus, v):
    """The kinetic drift as written before it was evaluated in place."""
    avg = 0.5 * (c_plus + c_minus)
    dif = 0.5 * (c_plus - c_minus)
    v = np.asarray(v, dtype=np.float64)
    if not dif:
        return 0.5 * beta * (0.0 - v / (1.0 + v * v))
    h = avg + dif * v / np.sqrt(1.0 + v * v)
    h_prime = dif * (1.0 + v * v) ** -1.5
    return 0.5 * beta * (h_prime / h - v / (1.0 + v * v))


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


kinetic_args = st.sampled_from([(3.0, 1.0, 1.0), (7.0, 1.0, 1.0), (2.0, 1.0, 0.25),
                                (7.0, 1.0, 0.5), (3.0, 0.25, 1.0), (5.0, 3.0, 0.1)])
drift_points = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e200, -1e200, 1.3e154, 1.4e154,
     np.inf, -np.inf, np.nan])


@settings(max_examples=200, deadline=None)
@given(args=kinetic_args, v=st.lists(drift_points, min_size=1, max_size=40))
def test_kinetic_drift_matches_reference_expression(args, v):
    # the in-place drift equals the plain expression bit for bit, symmetric
    # and asymmetric, on arrays, 0-d arrays and Python floats alike
    drift = presets.kinetic(*args).drift
    with np.errstate(all="ignore"):
        arr = np.array(v)
        assert bits(drift(arr)) == bits(kinetic_drift_reference(*args, arr))
        for x in v[:4]:
            want = bits(kinetic_drift_reference(*args, x))
            for form in (x, np.array(x)):
                got = drift(form)
                assert np.shape(got) == () and bits(got) == want


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf, True, False,
                               np.True_, "1.0", None])
def test_constant_diffusion_rejects_bad_values(c):
    with pytest.raises(ConfigError, match="diffusion"):
        stablediff.DiffusionModel(drift=lambda x: -np.asarray(x), diffusion=c)


@pytest.mark.parametrize("c", [1.0, 0.7, 2, np.float64(1.5), np.int64(3)])
def test_constant_diffusion_is_a_float64_callable(c):
    model = stablediff.DiffusionModel(drift=lambda x: -np.asarray(x), diffusion=c)
    assert model._diffusion_const == float(c)
    assert type(model._diffusion_const) is float
    for x in (np.zeros((2, 3), dtype=np.int64), np.array(0.5), 0.5):
        got = model.diffusion(x)
        assert got.dtype == np.float64 and got.shape == np.shape(x)
        assert np.all(got == float(c))


def test_kinetic_tail_ratio_reaches_limit(kinetic3):
    # |w|^{2-1/alpha} phi(w) -> f_± with alpha = 4/3 (spec of the tail limits)
    alpha, f_plus, f_minus = presets.kinetic_tail_limits(3.0)
    assert f_plus == pytest.approx(4.0 ** -1.25, rel=1e-12)
    core = kinetic3.core()
    for x, target in ((500.0, f_plus), (-500.0, f_minus)):
        w = core.s(np.asarray(x))
        _, phi = eval_psi_phi(kinetic3, lambda q: np.asarray(q, dtype=np.float64), w)
        ratio = np.abs(w) ** (2.0 - 1.0 / alpha) * phi
        assert ratio == pytest.approx(target, rel=5e-3)


# -- driftless preset ---------------------------------------------------------

def test_driftless_scale_is_identity():
    m = presets.driftless(2.5)
    xs = np.array([-100.0, -1.0, 0.0, 3.0, 500.0])
    assert eval_scale(m, xs) == pytest.approx(xs, abs=1e-9)
    assert compute_kappa(m) == pytest.approx(0.75, rel=1e-6)  # (beta-1)/2


# -- admissibility verdicts -----------------------------------------------------

def test_harris_admissible_heavy(heavy1):
    verdict = check_harris(heavy1)
    assert verdict.admissible
    assert verdict.kappa == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-8)


def test_harris_flat_model_speed_infinite(identity_model):
    verdict = check_harris(identity_model)
    assert not verdict.admissible
    assert verdict.scale_escapes_plus and verdict.scale_escapes_minus
    assert not verdict.speed_integrable


def test_harris_outward_drift_scale_bounded():
    m = stablediff.DiffusionModel(
        drift=lambda x: np.asarray(x, dtype=np.float64),
        diffusion=lambda x: np.ones_like(np.asarray(x, dtype=np.float64)),
        domain_cutoff=50.0,
    )
    verdict = check_harris(m)
    assert not verdict.admissible
    assert not verdict.scale_escapes_plus  # s' = e^{-x^2}: s bounded


def test_sigma_must_be_positive():
    m = stablediff.DiffusionModel(
        drift=lambda x: -np.asarray(x, dtype=np.float64),
        diffusion=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
    )
    with pytest.raises(OutOfDomain):
        m.core()


@pytest.mark.parametrize("name, fn, hint", [
    ("drift", lambda x: -math.tanh(x), "raised TypeError"),
    ("diffusion", lambda x: 1.0, "np.full_like"),
], ids=["drift", "diffusion"])
def test_scalar_only_coefficient_is_a_config_error(name, fn, hint):
    # the array contract: a coefficient that cannot take an array is refused
    # by name at the cache build, never evaluated point by point
    coeffs = {"drift": lambda x: -np.asarray(x, dtype=np.float64),
              "diffusion": lambda x: np.ones_like(np.asarray(x, dtype=np.float64))}
    coeffs[name] = fn
    with pytest.raises(ConfigError, match=rf"^{name} .*{hint}"):
        stablediff.DiffusionModel(**coeffs, domain_cutoff=5.0).core()


# -- structural invariants -------------------------------------------------------

@pytest.mark.parametrize("preset", ["heavy", "kinetic", "driftless"])
def test_identity_sigma2_sprime_m(preset, heavy1, kinetic3):
    m = {"heavy": heavy1, "kinetic": kinetic3, "driftless": presets.driftless(2.5)}[preset]
    core = m.core()
    gen = np.random.default_rng(42)
    xs = gen.uniform(core.x_lo, core.x_hi, size=200)
    sig = m.diffusion(xs)
    prod = sig**2 * core.sprime(xs) * core.m(xs)
    assert prod == pytest.approx(np.ones_like(xs), rel=10 * m.quadrature_tol + 1e-12)


def test_scale_strictly_increasing(kinetic3):
    xs = np.linspace(-500.0, 500.0, 2001)
    s = eval_scale(kinetic3, xs)
    assert np.all(np.diff(s) > 0)


@pytest.mark.parametrize("fixture", ["heavy", "kinetic"])
def test_inverse_scale_round_trip(fixture, heavy1, kinetic3):
    m = heavy1 if fixture == "heavy" else kinetic3
    core = m.core()
    xs = np.linspace(0.9 * core.x_lo, 0.9 * core.x_hi, 100)
    w = core.s(xs)
    back = core.inv_s(w)
    assert np.all(np.abs(back - xs) < 1e-9 * (1.0 + np.abs(xs)))


def test_inverse_scale_evaluates_each_point_once(kinetic_critical, monkeypatch):
    # each s_at call is a Gauss panel: inverting a point evaluates no
    # abscissa twice, its bracket ends included
    core = kinetic_critical.core()
    w = core.s(np.linspace(0.9 * core.x_lo, 0.9 * core.x_hi, 41))
    want = core.inv_s(w)
    calls = []
    s_at = stablediff.model._Side.s_at
    monkeypatch.setattr(stablediff.model._Side, "s_at",
                        lambda side, u: calls.append(float(u)) or s_at(side, u))
    n_calls = 0
    for wi, xi in zip(w, want):
        calls.clear()
        assert core.inv_s(wi) == xi
        assert len(calls) == len(set(calls))
        n_calls += len(calls)
    assert n_calls > 0


def test_mu_is_probability(heavy1):
    val, err = invariant_integral(heavy1, lambda x: np.ones_like(np.asarray(x)), with_error=True)
    assert abs(val - 1.0) <= max(err, 1e-12)


def test_phi_psi_consistency(kinetic3):
    f = lambda x: np.asarray(x, dtype=np.float64)
    core = kinetic3.core()
    xs = np.linspace(-400.0, 400.0, 41)
    xs = xs[np.abs(xs) > 1e-3]
    w = core.s(xs)
    psi, phi = eval_psi_phi(kinetic3, f, w)
    assert phi * psi**2 == pytest.approx(f(xs), rel=1e-8)


def test_out_of_domain_guard(heavy1):
    with pytest.raises(OutOfDomain):
        eval_scale(heavy1, 1e6)
    with pytest.raises(OutOfDomain):
        heavy1.core().inv_s(1e308)
    # a non-finite w is outside the image too, nan included
    for w in (math.nan, math.inf, np.array([0.5, math.nan])):
        with pytest.raises(OutOfDomain):
            heavy1.core().inv_s(w)
    with pytest.raises(OutOfDomain):
        eval_psi_phi(heavy1, lambda x: np.asarray(x, dtype=np.float64), math.nan)


# -- coefficient tables -----------------------------------------------------------

def test_table_model_round_trip(tmp_path):
    xs = np.linspace(-10, 10, 801)
    rows = ["x,b,sigma"] + [f"{x},{-x},{1.0}" for x in xs]
    p = tmp_path / "ou.csv"
    p.write_text("\n".join(rows) + "\n")
    m = presets.from_table(p)
    assert m.domain_cutoff == pytest.approx(10.0)
    # linear interpolation reproduces b(x) = -x exactly between nodes
    assert m.drift(0.137) == pytest.approx(-0.137, rel=1e-12)
    verdict = check_harris(m)
    assert verdict.admissible
    # OU-like: m ~ e^{-x^2}, kappa ~ 1/sqrt(pi) up to truncation at 10
    assert verdict.kappa == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-6)


def test_table_model_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n0,0,1\n")
    with pytest.raises(stablediff.errors.ConfigError):
        presets.from_table(p)


# -- property: random smooth confining models ------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    c1=st.floats(0.3, 3.0),
    c3=st.floats(0.0, 0.6),
    s2=st.floats(0.0, 0.5),
)
def test_identity_holds_for_random_confining_models(c1, c3, s2):
    model = stablediff.DiffusionModel(
        drift=lambda x, c1=c1, c3=c3: -c1 * np.asarray(x) - c3 * np.asarray(x) ** 3,
        diffusion=lambda x, s2=s2: 1.0 + s2 * np.asarray(x) ** 2 / (1.0 + np.asarray(x) ** 2),
        domain_cutoff=12.0,
        quadrature_tol=1e-10,
    )
    core = model.core()
    xs = np.linspace(core.x_lo * 0.95, core.x_hi * 0.95, 41)
    prod = model.diffusion(xs) ** 2 * core.sprime(xs) * core.m(xs)
    np.testing.assert_allclose(prod, 1.0, rtol=1e-9)
    w = core.s(xs)
    np.testing.assert_allclose(core.inv_s(w), xs, atol=1e-9 * (1 + np.abs(xs).max()))
    assert check_harris(model).admissible
