"""Regime classification, limit-law constants, and the Poisson cross-check."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from stablediff import asymptotics, presets
from stablediff.asymptotics import (
    EULER_GAMMA,
    SIN_INTEGRAL_A,
    LimitLaw,
    RegimeReport,
    char_exponent,
    classify_regime,
    compute_rho,
    compute_rho_eps,
    ell_one,
    limit_law,
    poisson_solution,
    slow_var_transforms,
)
from stablediff.errors import (
    ClassificationFailed,
    ConfigError,
    Divergent,
    InvalidAlpha,
    InvalidRequest,
    NotCentered,
    PoissonUnavailable,
)
from stablediff.model import DiffusionModel, compute_kappa, invariant_integral


def f_id(x):
    return np.asarray(x, dtype=np.float64)


def ell_logsq(v):
    return (1.0 + np.log(v)) ** 2


def ell_model():
    """Zero drift and sigma^2 = max(1,|x|)^1.5 (1 + log max(1,|x|))^2 with
    f = sign(x) min(1, |x|): the tail ratio carries ell = (1 + log v)^2, so
    the claim (2, ell_logsq, 1, -1) is Diffusive with a finite rho."""
    def sigma(x):
        a = np.maximum(1.0, np.abs(np.asarray(x, dtype=np.float64)))
        return a ** 0.75 * (1.0 + np.log(a))

    model = DiffusionModel(drift=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
                           diffusion=sigma, domain_cutoff=1e4, name="ell-logsq")
    return model, lambda x: np.sign(x) * np.minimum(1.0, np.abs(x))


# ---------------------------------------------------------------------------
# constants

def test_hardcoded_constants():
    # the module import already ran the quadrature self-check; pin the values
    assert EULER_GAMMA == pytest.approx(np.euler_gamma, abs=1e-16)
    assert SIN_INTEGRAL_A == pytest.approx(1.0 - EULER_GAMMA, abs=1e-16)


# ---------------------------------------------------------------------------
# rho and the slowly-varying transforms

def test_rho_trivial_ell_diverges():
    assert math.isinf(compute_rho(ell_one))


def test_scalar_only_observable_and_ell_are_config_errors(kinetic3):
    alpha, fp, fm = presets.kinetic_tail_limits(3.0)
    with pytest.raises(ConfigError, match=r"^f "):
        classify_regime(kinetic3, lambda x: float(x), claimed=(alpha, None, fp, fm))
    with pytest.raises(ConfigError, match=r"^ell "):
        compute_rho(lambda v: (1.0 + math.log(v)) ** 2)


def test_rho_eps_trivial_ell():
    # for ell = 1 the truncated integral is 4 log(1/eps)
    assert compute_rho_eps(ell_one, math.exp(-3.0)) == pytest.approx(12.0, rel=1e-9)
    assert compute_rho_eps(ell_one, 1.0) == 0.0
    assert compute_rho_eps(ell_one, 0.5) == pytest.approx(4.0 * math.log(2.0), rel=1e-9)


def test_rho_eps_requires_positive_eps():
    with pytest.raises(InvalidRequest):
        compute_rho_eps(ell_one, 0.0)


def test_rho_log_squared_against_independent_scheme():
    # ell = (1+log v)^2 gives a finite rho; cross-check against scipy on the
    # log-substituted double integral (a different integrator and mesh)
    def inner(u):
        return quad(lambda s: math.exp(-0.5 * s) / (1.0 + u + s) ** 2,
                    0.0, np.inf, limit=200)[0]

    oracle = quad(lambda u: inner(u) ** 2, 0.0, np.inf, limit=200)[0]
    assert compute_rho(ell_logsq) == pytest.approx(oracle, rel=1e-6)
    u_hi = math.log(1e4)
    oracle_eps = quad(lambda u: inner(u) ** 2, 0.0, u_hi, limit=200)[0]
    assert compute_rho_eps(ell_logsq, 1e-4) == pytest.approx(oracle_eps, rel=1e-9)


def test_transforms_trivial_ell():
    tr = slow_var_transforms(ell_one)
    assert tr.n_divergent
    assert tr.L(1.0) == 0.0
    assert tr.L(1e5) == pytest.approx(math.log(1e5), rel=1e-10)
    with pytest.raises(Divergent):
        tr.N(10.0)


def test_transforms_log_squared():
    tr = slow_var_transforms(ell_logsq)
    assert not tr.n_divergent
    # N(x) = int_x^inf dv/(v (1+log v)^2) = 1/(1+log x) exactly
    for x in (10.0, 100.0, 1e4):
        assert tr.N(x) == pytest.approx(1.0 / (1.0 + math.log(x)), rel=1e-3)


def test_L_slow_variation_trend():
    # L(lambda x)/L(x) -> 1 monotonically along x = 10^k
    tr = slow_var_transforms(ell_logsq)
    devs = [abs(tr.L(3.0 * 10.0**k) / tr.L(10.0**k) - 1.0) for k in range(2, 7)]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.02


# ---------------------------------------------------------------------------
# classification

def test_classify_claimed_kinetic3(kinetic3):
    alpha, fp, fm = presets.kinetic_tail_limits(3.0)
    rep = classify_regime(kinetic3, f_id, claimed=(alpha, None, fp, fm))
    assert rep.regime == "Levy"
    assert rep.alpha == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert rep.f_plus == pytest.approx(4.0**-1.25, rel=1e-12)
    assert rep.f_minus == pytest.approx(-(4.0**-1.25), rel=1e-12)
    assert rep.f_in_L1mu  # alpha > 1
    assert rep.tail_diagnostics["mode"] == "claimed"


def test_classify_claimed_driftless_critical():
    model = presets.driftless(2.5)
    f = presets.driftless_observable(1.0)
    rep = classify_regime(model, f, claimed=(2.0, None, 1.0, -1.0))
    assert rep.regime == "CriticalDiffusive"
    assert math.isinf(rep.tail_diagnostics["rho"])


def test_classify_claimed_heavy_echo(heavy1):
    # f chosen so the tail ratio is exactly 0.7 on the right and 0 on the
    # left; f overflows past |x| ~ 18.8, which the classifier must skip
    def f(x):
        x = np.asarray(x, dtype=np.float64)
        with np.errstate(over="ignore"):
            return np.where(x > 0.0, 0.7 * np.exp(2.0 * x * x), 0.0)

    rep = classify_regime(heavy1, f, claimed=(0.5, None, 0.7, 0.0))
    assert rep.regime == "Levy"
    assert rep.alpha == 0.5
    assert (rep.f_plus, rep.f_minus) == (0.7, 0.0)
    assert not rep.f_in_L1mu  # alpha < 1
    assert any("overflow" in w for w in rep.tail_diagnostics["warnings"])


def test_classify_estimated_kinetic3(kinetic3):
    rep = classify_regime(kinetic3, f_id)
    assert rep.regime == "Levy"
    assert rep.alpha == pytest.approx(4.0 / 3.0, abs=0.02)
    assert rep.f_plus == pytest.approx(4.0**-1.25, rel=1e-2)
    assert rep.f_minus == pytest.approx(-(4.0**-1.25), rel=1e-2)
    assert any("ell set to 1" in w for w in rep.tail_diagnostics["warnings"])


def test_classify_estimated_near_boundary_fails():
    # alpha = 2 exactly: an estimate cannot settle which side of the
    # diffusive boundary we are on, so it must refuse
    model = presets.driftless(2.5)
    f = presets.driftless_observable(1.0)
    with pytest.raises(ClassificationFailed, match="boundary"):
        classify_regime(model, f)


def test_classify_estimated_near_one_warns():
    rep = classify_regime(presets.kinetic(2.0), f_id)
    assert any("critical value 1" in w for w in rep.tail_diagnostics["warnings"])
    assert rep.regime in ("Levy", "CriticalLevy")
    assert rep.alpha == pytest.approx(1.0, abs=0.02)


def test_classify_zero_f_fails(kinetic3):
    with pytest.raises(ClassificationFailed):
        classify_regime(kinetic3, lambda x: np.zeros_like(np.asarray(x, float)))


def test_classify_wrong_claim_fails(kinetic3):
    alpha, fp, fm = presets.kinetic_tail_limits(3.0)
    with pytest.raises(ClassificationFailed):
        classify_regime(kinetic3, f_id, claimed=(alpha, None, 1.2 * fp, fm))
    with pytest.raises(ClassificationFailed):
        classify_regime(kinetic3, f_id, claimed=(alpha / 2.0, None, fp, fm))


def test_classify_nonpositive_alpha():
    with pytest.raises(InvalidAlpha):
        classify_regime(presets.kinetic(3.0), f_id, claimed=(-1.0, None, 1.0, 1.0))


# ---------------------------------------------------------------------------
# diffusive limit law and the Poisson cross-check

def test_limit_law_diffusive_kinetic7(kinetic7):
    # T(x) = (1+x^2)^{-5/2}/5 in closed form, so
    # sigma^2 = 4 kappa int s' T^2 = (4 * 15/16) * 2/25 = 3/10 exactly
    alpha, fp, fm = presets.kinetic_tail_limits(7.0)
    rep = classify_regime(kinetic7, f_id, claimed=(alpha, None, fp, fm))
    assert rep.regime == "Diffusive"
    law = limit_law(rep, kinetic7, f_id)
    assert law.sigma_alpha**2 == pytest.approx(0.3, rel=1e-6)
    assert law.kappa == pytest.approx(15.0 / 16.0, rel=1e-9)
    assert law.lambda_alpha is None
    np.testing.assert_allclose(law.z_of_xi(np.array([-2.0, 0.3])), 1.0)
    xi = np.linspace(-4.0, 4.0, 9)
    np.testing.assert_allclose(
        char_exponent(law, xi, 2.0),
        np.exp(-2.0 * law.sigma_alpha**2 * xi**2 / 2.0), rtol=1e-12)


def test_poisson_kinetic7_matches_direct_route(kinetic7):
    alpha, fp, fm = presets.kinetic_tail_limits(7.0)
    law = limit_law(classify_regime(kinetic7, f_id, claimed=(alpha, None, fp, fm)),
                    kinetic7, f_id)
    sol = poisson_solution(kinetic7, f_id)
    assert sol.gamma_sq == pytest.approx(law.sigma_alpha**2, rel=1e-6)
    assert sol.gamma_sq == pytest.approx(0.3, rel=1e-6)
    # g'(x) = (2/5)(1+x^2) in closed form
    for x in (-3.0, -0.4, 0.0, 1.0, 7.5):
        assert sol.g_prime(x) == pytest.approx(0.4 * (1.0 + x * x), rel=1e-5)


def test_poisson_residual_invariant(kinetic7):
    # 2 b g' + sigma^2 g'' + 2 f = 0, with g'' by central differences
    sol = poisson_solution(kinetic7, f_id)
    h = 0.05
    for x in np.linspace(-5.0, 5.0, 11):
        g2 = (sol.g_prime(x + h) - sol.g_prime(x - h)) / (2.0 * h)
        b = float(kinetic7.drift(np.asarray([x]))[0])
        resid = 2.0 * b * sol.g_prime(x) + g2 + 2.0 * x
        assert abs(resid) < 1e-3 * (1.0 + 2.0 * abs(x))


def test_poisson_heavy_identity(heavy1):
    # for b = -x, sigma = 1, f = x: T(x) = e^{-x^2}/2 and s' = e^{x^2},
    # so g' = 1 everywhere and gamma^2 = mu(1) = 1
    sol = poisson_solution(heavy1, f_id)
    assert sol.gamma_sq == pytest.approx(1.0, rel=1e-8)
    for x in (-10.0, -1.3, 0.0, 0.7, 10.0):
        assert sol.g_prime(x) == pytest.approx(1.0, rel=1e-8)
        assert sol.g(x) == pytest.approx(x, rel=1e-7, abs=1e-9)


def test_poisson_g_prime_dense_kinetic7(kinetic7):
    # g' = 0.4(1+x^2) between the grid nodes too, not only at the five
    # points above
    sol = poisson_solution(kinetic7, f_id)
    x = np.linspace(-20.0, 20.0, 4001)
    np.testing.assert_allclose(sol.g_prime(x), 0.4 * (1.0 + x * x), rtol=1e-7)


def test_poisson_heavy_identity_up_to_the_cutoff(heavy1):
    # T decays like e^{-x^2}, and g' = 2 e^{x^2} T undoes that decay, so an
    # overstated tail beyond the cutoff 26 shows in g' far inside it: the
    # octave extrapolation alone gave g' - 1 = 9.8e3 at 20 and 5e101 at 25
    sol = poisson_solution(heavy1, f_id)
    x = np.linspace(-25.0, 25.0, 5001)
    assert np.abs(sol.g_prime(x) - 1.0).max() <= 1e-8
    assert np.abs(sol.g(x) - x).max() <= 1e-7


def test_poisson_kinetic7_power_tail_kept(kinetic7, law_diffusive):
    # on a power tail the octave estimate is kept (the local power law
    # through the last two nodes reads 2e-4 relative higher there): gamma^2
    # and the benchmark's sigma^2 cross-check keep their values
    sol = poisson_solution(kinetic7, f_id)
    assert sol.gamma_sq == pytest.approx(0.29999999977192443, rel=1e-12)
    sigma_sq = law_diffusive.sigma_alpha**2
    assert abs(sol.gamma_sq - sigma_sq) / sigma_sq == pytest.approx(6.555693443506461e-09,
                                                                    rel=1e-3)


@pytest.mark.parametrize("fixture", ["kinetic7", "heavy1"])
def test_poisson_read_out_beyond_cutoff(fixture, request):
    # past each side's cutoff g and g' hold the end value; nan stays nan
    model = request.getfixturevalue(fixture)
    sol = poisson_solution(model, f_id)
    core = model.core()
    for cut in (core.pos.x[-1], -core.neg.x[-1]):
        for fn in (sol.g, sol.g_prime):
            end = fn(cut)
            assert np.isfinite(end)
            assert fn(2.0 * cut) == end
    assert np.isnan(sol.g(np.nan)) and np.isnan(sol.g_prime(np.nan))
    np.testing.assert_array_equal(np.isnan(sol.g_prime(np.array([np.nan, 1.0]))),
                                  [True, False])


def test_poisson_read_outs_built_on_first_call(kinetic7, monkeypatch):
    # poisson_solution builds no spline; each read-out builds one per side
    # on its first call and reuses them after
    built = []
    spline = asymptotics.CubicHermiteSpline

    def counted(*args):
        built.append(args[0].size)
        return spline(*args)

    monkeypatch.setattr(asymptotics, "CubicHermiteSpline", counted)
    sol = poisson_solution(kinetic7, f_id)
    assert built == []
    sol.g(1.0)
    assert len(built) == 2
    sol.g(np.array([-2.0, 0.5]))
    assert len(built) == 2
    sol.g_prime(np.array([3.0]))
    assert len(built) == 4
    sol.g_prime(-1.0)
    sol.g(0.0)
    assert built == [asymptotics._POISSON_GRID // 2 + 1] * 4


# sha256 of g and g' on POISSON_PIN_X, and gamma^2 and its error as hex,
# taken while every read-out was still built inside poisson_solution
POISSON_PIN_X = np.concatenate([np.linspace(-40.0, 40.0, 2001),
                                np.linspace(-700.0, 700.0, 201),
                                [0.0, -0.0, np.nan, 1e9, -1e9, np.inf, -np.inf]])
POISSON_PINS = {
    "kinetic7": ("0x1.3333332f481cfp-2", "0x1.905400000865ep-42",
                 "98f632bb464e2933a95fd0fb1bdab32d72f0e2481f27df05f1714a94ac93ac43",
                 "b6ac86224407ff4c3d70e12bd27b0b170f33e276cef0437532e104f149a30d1d"),
    "heavy1": ("0x1.ffffffffffffap-1", "0x1.341f6bc02c7ebp-56",
               "2939f17c9bd0a384b30f15778357cb70f1e903ac77e20433361d6f29b42cf9b4",
               "b6c516782711e5c232b0029a8c8162e9b0f968ee4799b1bef0f81f03840e2ea8"),
}


@pytest.mark.parametrize("fixture", sorted(POISSON_PINS))
def test_poisson_pins(fixture, request):
    # both cutoffs (600 and 26) lie inside the grid's span
    sol = poisson_solution(request.getfixturevalue(fixture), f_id)
    got = (sol.gamma_sq.hex(), sol.gamma_sq_err.hex(),
           hashlib.sha256(sol.g(POISSON_PIN_X).tobytes()).hexdigest(),
           hashlib.sha256(sol.g_prime(POISSON_PIN_X).tobytes()).hexdigest())
    assert got == POISSON_PINS[fixture]


@pytest.mark.parametrize("fixture,span,rtol,atol", [("kinetic7", 20.0, 1e-8, 0.0),
                                                    ("heavy1", 10.0, 0.0, 1e-9)])
def test_poisson_grid_convergence(fixture, span, rtol, atol, request, monkeypatch):
    # the default grid against one 8x finer, a third of a cell past nodes
    model = request.getfixturevalue(fixture)
    core = model.core()
    assert core.pos.x[-1] == core.neg.x[-1]
    h = core.pos.x[-1] / (asymptotics._POISSON_GRID - 1)
    u = np.linspace(-span, span, 200)
    x = np.sign(u) * (np.floor(np.abs(u) / h) + 1.0 / 3.0) * h
    coarse = poisson_solution(model, f_id)
    monkeypatch.setattr(asymptotics, "_POISSON_GRID", 2**19 + 1)
    fine = poisson_solution(model, f_id)
    assert coarse.gamma_sq == pytest.approx(fine.gamma_sq, rel=1e-10)
    np.testing.assert_allclose(coarse.g_prime(x), fine.g_prime(x), rtol=rtol, atol=atol)
    # g(0) = 0, so near 0 only an absolute bound means anything
    np.testing.assert_allclose(coarse.g(x), fine.g(x), rtol=rtol, atol=1e-9)


@pytest.mark.parametrize("fixture", ["kinetic7", "heavy1"])
def test_poisson_gamma_sq_err(fixture, request):
    sol = poisson_solution(request.getfixturevalue(fixture), f_id)
    assert np.isfinite(sol.gamma_sq_err)
    assert 0.0 <= sol.gamma_sq_err <= 1e-9 * sol.gamma_sq


def test_poisson_zero_f(heavy1):
    sol = poisson_solution(heavy1, lambda x: np.zeros_like(np.asarray(x, float)))
    assert sol.gamma_sq == 0.0
    assert sol.g(1.3) == 0.0
    assert sol.g_prime(-0.2) == 0.0


def test_poisson_uncentered_raises(heavy1):
    with pytest.raises(NotCentered):
        poisson_solution(heavy1, lambda x: np.asarray(x, float) ** 2)


def test_poisson_divergent_raises(kinetic3):
    with pytest.raises(PoissonUnavailable):
        poisson_solution(kinetic3, lambda x: np.asarray(x, float) ** 2)


def test_limit_law_rejects_uncentered(kinetic7):
    alpha, fp, fm = presets.kinetic_tail_limits(7.0)
    shifted = lambda x: np.asarray(x, float) + 0.3
    rep = classify_regime(kinetic7, shifted, claimed=(alpha, None, fp, fm))
    with pytest.raises(NotCentered):
        limit_law(rep, kinetic7, shifted)


def test_diffusive_law_runs_one_fm_quadrature(monkeypatch):
    # kinetic(7, 1, 0.5) with f = id centered: float.hex of mu(f) and
    # sigma_alpha taken when the centering check and sigma^2 each ran their
    # own f*m quadrature
    model = presets.kinetic(7.0, 1.0, 0.5)
    core = model.core()
    mu_id = invariant_integral(model, lambda x: np.asarray(x, float))
    f = lambda x: np.asarray(x, float) - mu_id
    alpha, f_p, f_m = presets.kinetic_tail_limits(7.0, 1.0, 0.5)
    rep = classify_regime(model, f, claimed=(alpha, None, f_p, f_m))
    total, tail, _ = core.sum_sides(core.m_side_integrals(f))
    mu_f = compute_kappa(model) * (total + tail)
    assert mu_f.hex() == invariant_integral(model, f).hex() == "0x1.483d423a89382p-55"
    seen = []
    real = type(core).m_side_integrals
    monkeypatch.setattr(type(core), "m_side_integrals",
                        lambda self, h, rel_tol=None: seen.append(h) or real(self, h, rel_tol))
    law = limit_law(rep, model, f)
    assert law.sigma_alpha.hex() == "0x1.20e225e961dcfp-1"
    assert seen.count(f) == 1


def test_diffusive_law_with_slowly_varying_ell():
    # the claimed ell enters the tail ratio, the regime split on rho and
    # the law's rho and rho_eps
    model, f = ell_model()
    rep = classify_regime(model, f, claimed=(2.0, ell_logsq, 1.0, -1.0))
    assert rep.regime == "Diffusive"
    assert rep.ell_name == "ell_logsq"
    rho = compute_rho(ell_logsq)
    assert math.isfinite(rho) and rep.tail_diagnostics["rho"] == rho
    law = limit_law(rep, model, f)
    assert law.regime == "Diffusive" and law.ell_name == "ell_logsq"
    assert law.rho == rho
    assert law.rho_eps(1e-4) == compute_rho_eps(ell_logsq, 1e-4) < rho
    assert law.sigma_alpha == pytest.approx(1.56, rel=1e-2)


def test_limit_law_reads_the_classified_rho(monkeypatch):
    # classify_regime stores rho at alpha = 2, so limit_law computes it
    # zero times; a hand-built report without it computes it once
    driftless = presets.driftless(2.5)
    f_dl = presets.driftless_observable(1.0)
    model, f = ell_model()
    cases = [(classify_regime(driftless, f_dl, claimed=(2.0, None, 1.0, -1.0)), driftless, f_dl),
             (classify_regime(model, f, claimed=(2.0, ell_logsq, 1.0, -1.0)), model, f)]
    assert [rep.regime for rep, _, _ in cases] == ["CriticalDiffusive", "Diffusive"]
    calls = []
    real = asymptotics.compute_rho
    monkeypatch.setattr(asymptotics, "compute_rho", lambda ell: calls.append(ell) or real(ell))
    laws = [limit_law(*case) for case in cases]
    assert calls == []
    for (rep, model, f), law in zip(cases, laws):
        bare = dataclasses.replace(rep, tail_diagnostics={"mode": "claimed", "warnings": []})
        assert limit_law(bare, model, f).to_json() == law.to_json()
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# critical diffusive limit law

def test_critical_diffusive_unit_case():
    # kappa = 1 (b = -sgn x, sigma = 1) with f built to have tail limits
    # f_+- = 1: sigma_2^2 = 4 kappa (f_+^2 + f_-^2) = 8
    model = DiffusionModel(
        drift=lambda x: -np.sign(np.asarray(x, float)),
        diffusion=lambda x: np.ones_like(np.asarray(x, float)),
        domain_cutoff=80.0, name="two-sided-exp")
    ss = model.scale_speed()
    assert ss.kappa == pytest.approx(1.0, rel=1e-10)

    def f_raw(x):
        x = np.asarray(x, dtype=np.float64)
        s_abs = np.abs(ss.scale(x))
        with np.errstate(over="ignore"):
            out = ss.scale_deriv(x) ** 2 * np.where(s_abs > 0, s_abs, 1.0) ** -1.5
        out[np.abs(x) < 1.0] = ss.scale_deriv(1.0) ** 2 * abs(ss.scale(1.0)) ** -1.5
        return out

    mu_f = invariant_integral(model, f_raw)
    f_c = lambda x: f_raw(x) - mu_f
    rep = classify_regime(model, f_c, claimed=(2.0, None, 1.0, 1.0))
    assert rep.regime == "CriticalDiffusive"
    law = limit_law(rep, model, f_c)
    assert law.sigma_alpha**2 == pytest.approx(8.0, rel=1e-9)
    assert math.isinf(law.rho)


def test_critical_diffusive_presets():
    model = presets.driftless(2.5)
    f = presets.driftless_observable(1.0)
    law = limit_law(classify_regime(model, f, claimed=(2.0, None, 1.0, -1.0)), model, f)
    # 4 * (3/4) * (1 + 1) = 6
    assert law.sigma_alpha**2 == pytest.approx(6.0, rel=1e-7)

    m5 = presets.kinetic(5.0)
    a5, fp5, fm5 = presets.kinetic_tail_limits(5.0)
    law5 = limit_law(classify_regime(m5, f_id, claimed=(a5, None, fp5, fm5)), m5, f_id)
    assert law5.regime == "CriticalDiffusive"
    # 4 * (3/4) * 2 * 6^{-3} = 1/36
    assert law5.sigma_alpha**2 == pytest.approx(1.0 / 36.0, rel=1e-7)


# ---------------------------------------------------------------------------
# stable limit laws

def test_levy_law_symmetric_kinetic3(kinetic3):
    alpha, fp, fm = presets.kinetic_tail_limits(3.0)
    law = limit_law(classify_regime(kinetic3, f_id, claimed=(alpha, None, fp, fm)),
                    kinetic3, f_id)
    assert law.beta_f == 0.0
    np.testing.assert_allclose(law.z_of_xi(np.array([-5.0, 0.1, 2.0])), 1.0)
    assert law.levy_c_plus == pytest.approx(law.levy_c_minus, rel=1e-14)
    assert law.sigma_alpha**alpha == pytest.approx(
        law.lambda_alpha * 2.0 * abs(fp) ** alpha, rel=1e-12)
    assert law.generator_drift_a is None


def test_levy_law_asymmetric_z_symmetry():
    model = presets.kinetic(3.0, 1.0, 0.25)
    alpha, fp, fm = presets.kinetic_tail_limits(3.0, 1.0, 0.25)
    # the skewed invariant law leaves f = x uncentered; subtracting the mean
    # adds a 1/x transient to the tail ratio, hence the wider trend_tol
    mu_id = invariant_integral(model, f_id)
    f_c = lambda x: np.asarray(x, dtype=np.float64) - mu_id
    law = limit_law(classify_regime(model, f_c, claimed=(alpha, None, fp, fm),
                                    trend_tol=0.05),
                    model, f_c)
    assert law.beta_f != 0.0
    xi = np.array([0.03, 0.7, 4.0, 55.0])
    z = law.z_of_xi(xi)
    np.testing.assert_allclose(z.real, 1.0)  # exactly
    np.testing.assert_allclose(law.z_of_xi(-xi), np.conj(z), rtol=0, atol=0)
    cf = char_exponent(law, np.concatenate([-xi, xi]), 1.3)
    assert np.all(np.abs(cf) <= 1.0 + 1e-12)


def test_levy_triplet_consistency():
    # c_+ + c_- = lambda_alpha (|f_+|^alpha + |f_-|^alpha) over random pairs
    rng = np.random.default_rng(20260814)
    model = presets.kinetic(3.0)
    kappa = compute_kappa(model)
    for _ in range(100):
        alpha = float(rng.uniform(0.05, 1.95))
        if abs(alpha - 1.0) < 1e-3:
            alpha = 1.0
        f_p, f_m = rng.uniform(-3.0, 3.0, size=2)
        if abs(f_p) + abs(f_m) < 1e-3:
            f_p = 1.0
        regime = "CriticalLevy" if alpha == 1.0 else "Levy"
        rep = RegimeReport(alpha=alpha, ell=ell_one, f_plus=float(f_p),
                           f_minus=float(f_m), regime=regime, f_in_L1mu=False,
                           tail_diagnostics={})
        law = limit_law(rep, model, f_id)
        total = law.lambda_alpha * (abs(f_p) ** alpha + abs(f_m) ** alpha)
        assert law.levy_c_plus + law.levy_c_minus == pytest.approx(total, rel=1e-12)
        assert law.levy_c_plus >= 0.0 and law.levy_c_minus >= 0.0
        assert law.sigma_alpha**alpha == pytest.approx(total, rel=1e-10)
        assert abs(law.beta_f) <= 1.0 + 1e-15


def test_critical_levy_law_fields():
    model = presets.kinetic(2.0, 1.0, 0.25)
    alpha, fp, fm = presets.kinetic_tail_limits(2.0, 1.0, 0.25)
    rep = classify_regime(model, f_id, claimed=(alpha, None, fp, fm))
    assert rep.regime == "CriticalLevy"
    assert not rep.f_in_L1mu  # ell = 1 makes int dx/(x ell) diverge
    law = limit_law(rep, model, f_id)
    assert law.sigma_alpha == pytest.approx(
        law.kappa * (math.pi / 2.0) * (abs(fp) + abs(fm)), rel=1e-12)
    assert law.generator_drift_a is not None and math.isfinite(law.generator_drift_a)
    z = law.z_of_xi(np.array([0.4, 2.0]))
    np.testing.assert_allclose(z.real, 1.0)
    np.testing.assert_allclose(law.z_of_xi(np.array([-0.4, -2.0])), np.conj(z))
    # with ell = 1 and f not mu-integrable, zeta_eps = log(1/eps) exactly
    assert law.zeta_eps(1e-3) == pytest.approx(math.log(1e3), rel=1e-10)


def test_xi_eps_exact_vs_asymptotic():
    # the exact centering over the asymptotic kappa (f_+ + f_-) ell zeta_eps
    # approaches 1 monotonically
    model = presets.kinetic(2.0, 1.0, 0.25)
    alpha, fp, fm = presets.kinetic_tail_limits(2.0, 1.0, 0.25)
    law = limit_law(classify_regime(model, f_id, claimed=(alpha, None, fp, fm)),
                    model, f_id)
    devs = []
    for k in range(2, 7):
        eps = 10.0**-k
        ratio = law.xi_eps(eps) / (law.kappa * (fp + fm) * law.zeta_eps(eps))
        devs.append(abs(ratio - 1.0))
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.01
    np.testing.assert_allclose(
        devs, [0.0160, 0.0032, 0.0011, 0.0007, 0.0005], atol=2e-4)


def test_symmetric_critical_levy_centering_note(heavy1):
    # f_+ + f_- = 0 at alpha = 1: z_1 = 1 identically
    rep = RegimeReport(alpha=1.0, ell=ell_one, f_plus=0.8, f_minus=-0.8,
                       regime="CriticalLevy", f_in_L1mu=False, tail_diagnostics={})
    law = limit_law(rep, heavy1, f_id)
    np.testing.assert_allclose(law.z_of_xi(np.array([-9.0, 0.2, 3.0])), 1.0)
    assert any("symmetric" in n for n in law.notes)


# ---------------------------------------------------------------------------
# regime gating and serialization

def test_eps_quantities_regime_gating(kinetic7, kinetic3):
    a7 = presets.kinetic_tail_limits(7.0)
    law7 = limit_law(classify_regime(kinetic7, f_id, claimed=(a7[0], None, a7[1], a7[2])),
                     kinetic7, f_id)
    with pytest.raises(InvalidRequest):
        law7.xi_eps(1e-3)
    with pytest.raises(InvalidRequest):
        law7.zeta_eps(1e-3)
    assert law7.rho_eps(math.exp(-1.0)) == pytest.approx(4.0, rel=1e-9)

    a3 = presets.kinetic_tail_limits(3.0)
    law3 = limit_law(classify_regime(kinetic3, f_id, claimed=(a3[0], None, a3[1], a3[2])),
                     kinetic3, f_id)
    with pytest.raises(InvalidRequest):
        law3.rho_eps(0.1)
    with pytest.raises(InvalidRequest):
        law3.xi_eps(0.1)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0, True, "0.1"])
def test_eps_quantities_reject_bad_eps(eps, law_diffusive, law_critical_levy):
    # one check, eps finite and > 0, ahead of every eps-indexed constant
    with pytest.raises(InvalidRequest):
        compute_rho_eps(ell_one, eps)
    with pytest.raises(InvalidRequest):
        law_diffusive.rho_eps(eps)
    with pytest.raises(InvalidRequest):
        law_critical_levy.xi_eps(eps)
    with pytest.raises(InvalidRequest):
        law_critical_levy.zeta_eps(eps)


def test_limit_law_serialization_round_trip(kinetic7):
    cases = []
    a7 = presets.kinetic_tail_limits(7.0)
    cases.append(limit_law(
        classify_regime(kinetic7, f_id, claimed=(a7[0], None, a7[1], a7[2])),
        kinetic7, f_id))
    m2 = presets.kinetic(2.0, 1.0, 0.25)
    a2 = presets.kinetic_tail_limits(2.0, 1.0, 0.25)
    cases.append(limit_law(
        classify_regime(m2, f_id, claimed=(a2[0], None, a2[1], a2[2])), m2, f_id))
    m5 = presets.kinetic(5.0)
    a5 = presets.kinetic_tail_limits(5.0)
    cases.append(limit_law(
        classify_regime(m5, f_id, claimed=(a5[0], None, a5[1], a5[2])), m5, f_id))

    xi = np.array([-7.0, -0.2, 0.0, 0.9, 12.0])
    for law in cases:
        blob = json.dumps(law.to_json(), allow_nan=False)  # must be strict-JSON safe
        back = LimitLaw.from_json(json.loads(blob))
        assert back.regime == law.regime
        assert back.sigma_alpha == law.sigma_alpha
        np.testing.assert_array_equal(
            char_exponent(back, xi, 0.8), char_exponent(law, xi, 0.8))
        with pytest.raises(InvalidRequest):
            back.rho_eps(0.1) if law.regime.endswith("Diffusive") else back.xi_eps(0.1)


def test_from_json_rejects_unknown_schema():
    with pytest.raises(InvalidRequest):
        LimitLaw.from_json({"schema": 99})
    with pytest.raises(InvalidRequest):
        LimitLaw.from_json({"schema": 1, "alpha": 1.5})
    with pytest.raises(InvalidRequest):
        LimitLaw.from_json([1])


@pytest.mark.parametrize("regime,alpha", [
    ("Levy", -1.0), ("Levy", 0.0), ("Levy", 1.0), ("Levy", 2.0), ("Levy", 3.0),
    ("CriticalLevy", 1.5), ("Diffusive", 1.5), ("CriticalDiffusive", 3.0),
])
def test_law_rejects_an_alpha_outside_its_regime(law_levy, regime, alpha):
    # each regime's alpha as classify_regime assigns it; a Levy law at
    # alpha = 1 would read tan(pi/2) = 1.6e16 in z_of_xi
    consts = dict(sigma_alpha=1.0, kappa=1.0, f_plus=1.0, f_minus=0.0, beta_f=1.0,
                  _z1=(1.0, 0.0, 1.0) if regime == "CriticalLevy" else None)
    with pytest.raises(InvalidRequest, match=f"does not fit the {regime} regime"):
        LimitLaw(regime=regime, alpha=alpha, **consts)
    # a law read back from JSON goes through the same check
    with pytest.raises(InvalidRequest, match="does not fit the Levy regime"):
        LimitLaw.from_json({**law_levy.to_json(), "alpha": alpha if regime == "Levy" else 1.0})
    # the alphas each regime does take
    for fit_regime, fit_alpha in (("Levy", 0.5), ("Levy", 1.999), ("CriticalLevy", 1.0),
                                  ("Diffusive", 2.0), ("Diffusive", 7.0),
                                  ("CriticalDiffusive", 2.0)):
        consts["_z1"] = (1.0, 0.0, 1.0) if fit_regime == "CriticalLevy" else None
        assert LimitLaw(regime=fit_regime, alpha=fit_alpha, **consts).alpha == fit_alpha


def test_char_exponent_basics(kinetic3):
    a3 = presets.kinetic_tail_limits(3.0)
    law = limit_law(classify_regime(kinetic3, f_id, claimed=(a3[0], None, a3[1], a3[2])),
                    kinetic3, f_id)
    assert char_exponent(law, 0.0, 5.0) == 1.0 + 0.0j
    assert char_exponent(law, 1.3, 0.0) == 1.0 + 0.0j
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidRequest, match="finite t >= 0"):
            char_exponent(law, 1.0, t)


@settings(max_examples=60, deadline=None)
@given(xi=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
       t=st.floats(min_value=0.0, max_value=50.0, allow_nan=False))
def test_cf_modulus_bounded_property(xi, t):
    law = LimitLaw(regime="CriticalLevy", alpha=1.0, sigma_alpha=0.7, kappa=0.5,
                   f_plus=1.0, f_minus=0.25, beta_f=0.6, lambda_alpha=0.25 * math.pi,
                   levy_c_plus=0.25 * math.pi, levy_c_minus=0.0,
                   _z1=(1.25, 0.25 * math.log(0.25), 1.25))
    z = law.z_of_xi(xi)
    assert z.real == 1.0
    assert law.z_of_xi(-xi) == np.conj(z)
    assert abs(char_exponent(law, xi, t)) <= 1.0 + 1e-12
