"""Monte Carlo engines: configuration, the Euler-Maruyama route, the
time-change route, normalization, error accounting, and serialization."""

import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stablediff.pathsim as pathsim
from stablediff import _workspace
from stablediff import DiffusionModel, presets
from stablediff.asymptotics import LimitLaw
from stablediff.errors import (
    ConfigError,
    HorizonExceeded,
    InvalidRequest,
    OutOfDomain,
    PathExploded,
)
from stablediff.model import eval_psi_phi, invariant_integral
from stablediff.pathsim import (
    FunctionalSample,
    SimConfig,
    additive_functional,
    rescaled_functional,
    simulate_path,
)
from stablediff.validate import estimate_alpha, ks_two_sample, validate_against_law
from stablediff._rng import TAG_DIRECT, TAG_TIMECHANGE, stream


def f_id(x):
    return np.asarray(x, dtype=np.float64)


def f_one(x):
    return np.ones_like(np.asarray(x, dtype=np.float64))


def f_zero(x):
    return np.zeros_like(np.asarray(x, dtype=np.float64))


def f_power(x):
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.abs(x) ** 1.5


def unit_noise(x):
    return np.ones_like(np.asarray(x, dtype=np.float64))


def outward_model(cutoff, drift=f_id, diffusion=unit_noise):
    # drift +x pushes paths out exponentially fast: explosion on demand;
    # ``diffusion=1.0`` gives the additive-noise form of the same model
    return DiffusionModel(drift=drift, diffusion=diffusion, domain_cutoff=cutoff)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("overrides", [
    {"dt": 0.0},
    {"dt": -0.1},
    {"dt": float("inf")},
    {"epsilon": 0.0},
    {"epsilon": float("nan")},
    {"horizon_times": ()},
    {"horizon_times": (1.0, 0.5)},
    {"horizon_times": (-1.0, 2.0)},
    {"horizon_times": (1.0, 1.0)},
    {"n_paths": 1},
    {"n_paths": 2.5},
    {"seed": -1},
    {"seed": 2 ** 64},
    {"scheme": "euler"},
    {"dt": 0.5},          # coarser than t_1/(100*epsilon) = 0.1
    {"dt": True, "epsilon": 1e-3},  # as dt = 1 it is fine, but no header can hold it
    {"epsilon": True},
])
def test_config_rejects_invalid_fields(overrides):
    base = dict(dt=0.01, epsilon=0.1, horizon_times=(1.0, 2.0), n_paths=4,
                seed=0, scheme="Direct")
    base.update(overrides)
    with pytest.raises(ConfigError):
        SimConfig(**base)


def test_config_grid_properties():
    cfg = SimConfig(dt=0.01, epsilon=0.1, horizon_times=[1, 2.5], n_paths=8)
    assert cfg.horizon_times == (1.0, 2.5)
    assert cfg.diffusion_horizon == 25.0
    assert cfg.n_steps == 2500
    assert cfg.scheme == "Direct"


@settings(max_examples=40, deadline=None)
@given(eps=st.floats(1e-3, 1.0), t1=st.floats(0.1, 10.0), k=st.integers(1, 50))
def test_config_step_grid_covers_horizon(eps, t1, k):
    dt = t1 / (100.0 * eps * k)
    cfg = SimConfig(dt=dt, epsilon=eps, horizon_times=(t1,), n_paths=2)
    assert cfg.n_steps * cfg.dt >= cfg.diffusion_horizon * (1.0 - 1e-12)
    assert (cfg.n_steps - 1) * cfg.dt < cfg.diffusion_horizon
    with pytest.raises(ConfigError):
        SimConfig(dt=dt * 100.0 * k * 1.01, epsilon=eps, horizon_times=(t1,), n_paths=2)


@pytest.mark.parametrize("scheme", pathsim.SCHEMES)
def test_scalar_only_observable_is_a_config_error(kinetic3, law_levy, scheme):
    cfg = SimConfig(dt=0.05, epsilon=0.05, horizon_times=(1.0,), n_paths=2, seed=0,
                    scheme=scheme)
    with pytest.raises(ConfigError, match=r"^f "):
        rescaled_functional(kinetic3, lambda x: float(x), law_levy, cfg)


def test_sample_container_validates():
    ok = dict(law=None, scheme="Direct", seed=0, dt=0.1, epsilon=0.1,
              times=(1.0, 2.0))
    FunctionalSample(values=np.zeros((3, 2)), **ok)
    # only the two diffusion engines produce samples
    for scheme in ("excursion", "cms"):
        with pytest.raises(InvalidRequest):
            FunctionalSample(values=np.zeros((3, 2)), **{**ok, "scheme": scheme})
    with pytest.raises(InvalidRequest):
        FunctionalSample(values=np.array([[1.0, np.nan]]), **ok)
    with pytest.raises(InvalidRequest):
        FunctionalSample(values=np.zeros((3, 1)), **ok)
    with pytest.raises(InvalidRequest):
        FunctionalSample(values=np.zeros((3, 2)), **{**ok, "scheme": "magic"})


# ---------------------------------------------------------------------------
# single paths and pathwise integration
# ---------------------------------------------------------------------------


def test_path_grid_and_reproducibility(heavy1):
    ts, X = simulate_path(heavy1, T=1.0, dt=0.003, seed=7)
    assert ts.shape == X.shape
    assert X[0] == 0.0
    assert ts[-1] >= 1.0 and ts[-1] - 0.003 < 1.0
    assert np.array_equal(ts, np.arange(len(ts)) * 0.003)
    ts2, X2 = simulate_path(heavy1, T=1.0, dt=0.003, seed=7)
    assert np.array_equal(X, X2)
    assert not np.array_equal(X, simulate_path(heavy1, T=1.0, dt=0.003, seed=8)[1])
    for T, dt in ((-1.0, 0.01), (1.0, 2.0), (True, 0.01), (2.0, True)):
        with pytest.raises(InvalidRequest):
            simulate_path(heavy1, T=T, dt=dt)


def test_degenerate_noise_model_rejected():
    flatline = DiffusionModel(
        drift=lambda x: -np.asarray(x, dtype=np.float64),
        diffusion=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)))
    with pytest.raises(OutOfDomain):
        simulate_path(flatline, T=1.0, dt=0.01)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_single_path_explosion_reports_step():
    for errors in ("warn", "raise"):
        with np.errstate(all=errors), pytest.raises(PathExploded) as exc:
            simulate_path(outward_model(1.0), T=6.0, dt=0.005, seed=0)
        assert exc.value.step == 751


def test_single_path_is_ensemble_path_zero(kinetic3):
    # reference: a plain Euler loop over path 0's keyed stream, in the
    # ensemble's expression order (kinetic(3)'s drift is exact in scalars)
    dt = 0.01
    ts, X = simulate_path(kinetic3, T=3.0, dt=dt, seed=2)
    want = [0.0]
    for z in stream(2, TAG_DIRECT, 0).standard_normal(len(X) - 1):
        x = want[-1]
        want.append(x + (float(kinetic3.drift(x)) * dt
                         + float(kinetic3.diffusion(x)) * math.sqrt(dt) * z))
    assert np.array_equal(X, want)
    assert pathsim._em_final(kinetic3, T=3.0, dt=dt, seed=2, n_paths=3)[0] == X[-1]


def test_ensemble_moments_match_invariant_law(heavy1):
    # X_T for large T samples the invariant law; mean 0 and second moment
    # from quadrature, both within 3 standard errors at 10^4 paths
    xT = pathsim._em_final(heavy1, T=4.0, dt=0.01, seed=0, n_paths=10_000)
    mu2 = invariant_integral(heavy1, lambda x: f_id(x) ** 2)
    assert abs(xT.mean()) < 3.0 * xT.std(ddof=1) / 100.0
    se_var = xT.var(ddof=1) * math.sqrt(2.0 / (xT.size - 1))
    assert abs(xT.var(ddof=1) - mu2) < 3.0 * se_var


def test_running_integral_of_constants(heavy1):
    path = simulate_path(heavy1, T=2.0, dt=0.004, seed=3)
    F = additive_functional(path, f_one)
    assert np.array_equal(F, path[0])          # f == 1 integrates to t_k exactly
    assert np.all(additive_functional(path, f_zero) == 0.0)
    with pytest.raises(InvalidRequest):
        additive_functional((path[0], path[1][:-1]), f_one)
    with pytest.raises(InvalidRequest):
        additive_functional((path[0][:1], path[1][:1]), f_one)


def test_time_average_approaches_invariant_integral(heavy1):
    path = simulate_path(heavy1, T=200.0, dt=0.005, seed=42)
    F = additive_functional(path, lambda x: f_id(x) ** 2)
    avg = F[-1] / path[0][-1]
    mu2 = invariant_integral(heavy1, lambda x: f_id(x) ** 2)
    assert abs(avg / mu2 - 1.0) < 0.05


def test_time_average_error_shrinks_with_horizon(heavy1):
    # bounded observable, 100 paths: mean absolute error decreases over
    # a doubling ladder of horizons
    def bounded(x):
        return 1.0 / (1.0 + f_id(x) ** 2)

    target = invariant_integral(heavy1, bounded)
    dt = 0.02
    ks = [int(round(T / dt)) for T in (50.0, 100.0, 200.0)]
    errs = np.zeros(3)
    for p in range(100):
        ts, X = simulate_path(heavy1, T=200.0, dt=dt, seed=1000 + p)
        F = additive_functional((ts, X), bounded)
        for i, k in enumerate(ks):
            errs[i] += abs(F[k] / ts[k] - target)
    errs /= 100.0
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# rescaled functional, direct scheme
# ---------------------------------------------------------------------------


def test_zero_observable_gives_zero_sample(kinetic3, law_levy):
    for scheme, dt in (("Direct", 0.05), ("TimeChange", 0.05)):
        cfg = SimConfig(dt=dt, epsilon=0.1, horizon_times=(1.0,), n_paths=8,
                        seed=0, scheme=scheme)
        s = rescaled_functional(kinetic3, f_zero, law_levy, cfg)
        assert np.all(s.values == 0.0)
        assert s.scheme == scheme and s.n_exploded == 0
        raw = rescaled_functional(kinetic3, f_zero, None, cfg)
        assert raw.law is None and np.all(raw.values == 0.0)


def test_direct_emissions_match_left_rule_oracle(identity_model):
    # hand-rolled Euler-Maruyama on Brownian motion, same keyed streams:
    # the left-rule running sum plus the fractional remainder must match
    # the engine bit for bit (one read-out lands on a grid point exactly)
    law = LimitLaw(regime="Levy", alpha=1.0, sigma_alpha=1.0, kappa=1.0,
                   f_plus=1.0, f_minus=0.0)
    cfg = SimConfig(dt=0.008, epsilon=0.8, horizon_times=(0.8, 0.847, 1.0),
                    n_paths=3, seed=13, scheme="Direct")
    s = rescaled_functional(identity_model, f_id, law, cfg)
    n_steps = cfg.n_steps
    want = np.empty((3, 3))
    for p in range(3):
        z = stream(13, TAG_DIRECT, p).standard_normal(n_steps)
        x, fsum = 0.0, 0.0
        reads = []
        for i, t in enumerate(cfg.horizon_times):
            pos = t / cfg.epsilon
            k = min(int(pos / cfg.dt + 1e-12), n_steps)
            reads.append((k, i, max(pos - k * cfg.dt, 0.0)))
        for k in range(n_steps + 1):
            for (kk, col, rem) in reads:
                if kk == k:
                    want[p, col] = fsum * cfg.dt + rem * x
            if k < n_steps:
                fsum += x
                x = x + math.sqrt(cfg.dt) * z[k]
    assert np.array_equal(s.values, cfg.epsilon * want)


def test_diffusive_variance_tracks_horizon(kinetic7, law_diffusive):
    assert law_diffusive.regime == "Diffusive"
    cfg = SimConfig(dt=0.02, epsilon=1e-3, horizon_times=(1.0,), n_paths=2000,
                    seed=5, scheme="Direct")
    s = rescaled_functional(kinetic7, f_id, law_diffusive, cfg, threads=4)
    var = s.values[:, 0].var(ddof=1)
    target = law_diffusive.sigma_alpha ** 2 * 1.0
    assert abs(var / target - 1.0) < 0.10
    assert s.n_exploded == 0


def test_heavy_tail_index_recovered(kinetic3, law_levy):
    cfg = SimConfig(dt=0.05, epsilon=1e-3, horizon_times=(1.0,), n_paths=2000,
                    seed=31, scheme="Direct")
    s = rescaled_functional(kinetic3, f_id, law_levy, cfg, threads=4)
    est = estimate_alpha(s.values[:, 0], seed=0)
    assert abs(est.alpha_hat - 4.0 / 3.0) < 0.15


@pytest.mark.parametrize("scheme", ["Direct", "TimeChange"])
def test_levy_limit_as_a_process(kinetic3, law_levy, scheme):
    # the limit is a Levy process: S_0.5 and S_1 - S_0.5 each follow the
    # law at t = 0.5, and they are independent, so their joint ECF is the
    # product of the two marginal ECFs
    cfg = SimConfig(dt=0.05, epsilon=0.01, horizon_times=(0.5, 1.0), n_paths=2048,
                    seed=1, scheme=scheme)
    s = rescaled_functional(kinetic3, f_id, law_levy, cfg).values
    first, increment = s[:, 0], s[:, 1] - s[:, 0]
    for part in (first, increment):
        report = validate_against_law(part, law_levy, 0.5, seed=1)
        assert report.verdict == {"cf_band": True, "alpha_hat": True}
    # the joint ECF minus the product of the marginal ones is the sample
    # covariance of exp(i u S_0.5) and exp(i v (S_1 - S_0.5)); under
    # independence it is a mean of n centered terms, whose spread gives
    # each point's standard error
    u = np.array([0.5, 1.0, 2.0]) / law_levy.sigma_alpha
    uu, vv = (g.ravel() for g in np.meshgrid(u, np.concatenate([u, -u]), indexing="ij"))
    a = np.exp(1j * np.outer(uu, first))
    b = np.exp(1j * np.outer(vv, increment))
    terms = (a - a.mean(axis=1, keepdims=True)) * (b - b.mean(axis=1, keepdims=True))
    gap = np.abs(terms.mean(axis=1))
    se = terms.std(axis=1) / math.sqrt(first.size)   # a complex std is of the modulus
    assert np.all(gap <= 4.0 * se)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exploding_run_fails_with_counts(law_levy):
    cfg = SimConfig(dt=0.005, epsilon=0.5, horizon_times=(1.0,), n_paths=50,
                    seed=0, scheme="Direct")
    with pytest.raises(PathExploded) as exc:
        rescaled_functional(outward_model(1.0), f_id, law_levy, cfg)
    assert exc.value.n_paths == 50
    assert exc.value.n_exploded > 0
    assert exc.value.step is not None


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rare_explosion_replaced_by_substitute_draw(law_levy):
    # guard placed so the outward model loses about one path in four
    # thousand; the run survives, reports the count, and stays finite
    cfg = SimConfig(dt=0.005, epsilon=0.5, horizon_times=(1.0,), n_paths=4000,
                    seed=1, scheme="Direct")
    s = rescaled_functional(outward_model(1.85), f_id, law_levy, cfg)
    assert s.n_exploded == 1
    assert np.all(np.isfinite(s.values))


REPRODUCIBLE_CFGS = {
    # at 700 paths the blocks are 700 wide at threads = 1 (one block), 350
    # at 2 and 234 at 3
    "Direct": SimConfig(dt=0.05, epsilon=0.05, horizon_times=(0.5, 1.0), n_paths=700,
                        seed=77, scheme="Direct"),
    "TimeChange": SimConfig(dt=0.02, epsilon=0.05, horizon_times=(0.5, 1.0), n_paths=700,
                            seed=78, scheme="TimeChange"),
    # about one path in four thousand explodes and is drawn again
    "exploding": SimConfig(dt=0.005, epsilon=0.5, horizon_times=(1.0,), n_paths=4000,
                           seed=1, scheme="Direct"),
}


def test_run_reproducible_across_threads(kinetic3, law_levy):
    for case, cfg in REPRODUCIBLE_CFGS.items():
        model, law = (outward_model(1.85), None) if case == "exploding" else (kinetic3, law_levy)
        runs = [rescaled_functional(model, f_id, law, cfg, threads=n) for n in (1, 2, 3)]
        for s in runs[1:]:
            assert np.array_equal(s.values, runs[0].values), case
            assert (s.n_exploded, s.clip_fraction) == (runs[0].n_exploded, runs[0].clip_fraction)
        assert runs[0].n_exploded == (case == "exploding")


def test_failing_run_reproducible_across_threads(law_levy):
    # 400 paths on an outward drift: 28 explode, past the tolerance
    cfg = SimConfig(dt=0.005, epsilon=0.5, horizon_times=(1.0,), n_paths=400,
                    seed=0, scheme="Direct")
    raised = []
    for n in (1, 2, 3):
        with pytest.raises(PathExploded) as exc:
            rescaled_functional(outward_model(1.0), f_id, law_levy, cfg, threads=n)
        e = exc.value
        raised.append((e.payload(), e.step, e.n_exploded, e.n_paths))
    assert raised[0][2] > pathsim._EXPLODED_TOL * cfg.n_paths
    assert raised[1] == raised[0] and raised[2] == raised[0]


def test_em_final_reports_the_ensemble_first_explosion(monkeypatch):
    # blocks of 128 paths: the earliest explosion is not in the first block
    # that has one, whatever the number of workers
    monkeypatch.setattr(pathsim, "_EULER_BLOCK", 128)
    model = outward_model(1.0)
    model.core()
    n = int(math.ceil(2.0 / 0.005 - 1e-9))
    exploded = np.full(400, -1, dtype=np.int64)
    for _ in pathsim._euler_walk(model.drift, model.diffusion, 0.005, n,
                                 pathsim._GUARD_FACTOR * model.domain_cutoff, 0,
                                 np.arange(400), exploded):
        pass
    first = int(exploded[exploded >= 0].min())
    assert first < int(exploded[:128][exploded[:128] >= 0].min())
    for cpus in ({0}, {0, 1}, {0, 1, 2}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        with pytest.raises(PathExploded) as exc:
            pathsim._em_final(model, T=2.0, dt=0.005, seed=0, n_paths=400)
        assert exc.value.step == first


def test_one_cpu_runs_serially(kinetic3, law_levy, monkeypatch):
    cfg = REPRODUCIBLE_CFGS["Direct"]
    forked = rescaled_functional(kinetic3, f_id, law_levy, cfg, threads=2)

    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    serial = rescaled_functional(kinetic3, f_id, law_levy, cfg)
    assert np.array_equal(serial.values, forked.values)


# sha256 of the raw Direct matrices for f_id and f_power side by side at
# DIRECT_PIN_CFG, taken before the Euler walk was chunked; 2100 paths cross a
# block boundary, the 500 steps are not a whole number of chunks, the first
# target lies on a grid point and the second 1e-7 above it
DIRECT_PIN_CFG = SimConfig(dt=0.02, epsilon=0.1, horizon_times=(0.4, 0.4000001, 1.0),
                           n_paths=2100, seed=11, scheme="Direct")
DIRECT_PINS = {
    "kinetic3": "bc2a2e0561c7c7fb92a4688934b2e185d317da81f349c5c7d7c46c3fa4057fc4",
    "kinetic_critical": "642fe5291758eaf05f4e36e4aecc90dccc24327d55d3b01f97ef76c8cd95fe78",
    "kinetic7": "543b4a1fa87f78a36dece59690a73f4f3bcd64d5940dce242e96c181333ca913",
}


def direct_pin_digest(model):
    raw = np.hstack([pathsim._direct_raw(model, f, DIRECT_PIN_CFG, None)[0]
                     for f in (f_id, f_power)])
    return hashlib.sha256(raw.tobytes()).hexdigest()


@pytest.mark.parametrize("model", sorted(DIRECT_PINS))
def test_direct_bit_pinned(model, request):
    assert direct_pin_digest(request.getfixturevalue(model)) == DIRECT_PINS[model]


@pytest.mark.parametrize("width", [128, pathsim._EULER_BLOCK])
@pytest.mark.parametrize("chunk", [3, 64, 257])
def test_direct_invariant_to_chunk_and_width(kinetic_critical, monkeypatch, chunk, width):
    monkeypatch.setattr(_workspace, "_CHUNK", chunk)
    monkeypatch.setattr(pathsim, "_EULER_BLOCK", width)
    assert direct_pin_digest(kinetic_critical) == DIRECT_PINS["kinetic_critical"]


BLOWUP_DRIFTS = {
    "linear": f_id,
    "cubic": lambda x: np.asarray(x, dtype=np.float64) ** 3,
    # nan from |x| = 5 on, inside the guard: the state itself turns nan
    "nan": lambda x: np.where(np.abs(x) < 5.0, np.asarray(x, dtype=np.float64), np.nan),
}
# sha256 of the exploded-step vector and the surviving paths' read-outs of a
# 300-path block on outward_model(1.0, drift), taken before the Euler walk
# was chunked
EXPLODED_PINS = {
    "linear": "404bdea7e549a47f84da4cd81527d75433ab18ed02fe742ce8bd83bfaf655a54",
    "cubic": "3e4ec74aa222fb958ef9be0d85887a90d73656172bb541693cec85d2c7730192",
    "nan": "b76bdf901b8ab4c2947653e74a82fb1ac3d6a628076d9bca78f9569bc0d09037",
}


BLOWUP_CFG = SimConfig(dt=0.01, epsilon=0.5, horizon_times=(0.5, 1.0), n_paths=300,
                       seed=0, scheme="Direct")


def check_explosion_steps(monkeypatch, drift, chunk, diffusion):
    """The pinned block's exploded-step vector, after checking the pin."""
    monkeypatch.setattr(_workspace, "_CHUNK", chunk)
    model = outward_model(1.0, BLOWUP_DRIFTS[drift], diffusion)
    model.core()
    cfg = BLOWUP_CFG
    out, exploded = pathsim._direct_block(
        model.drift, pathsim._diffusion(model), f_id, cfg,
        pathsim._GUARD_FACTOR * model.domain_cutoff, pathsim._emission_schedule(cfg),
        np.arange(cfg.n_paths))
    digest = hashlib.sha256(exploded.tobytes() + out[exploded < 0].tobytes()).hexdigest()
    assert digest == EXPLODED_PINS[drift]
    # in 64-step chunks: explosions mid-chunk, on a chunk's last step, and
    # several in one chunk
    steps = exploded[exploded >= 0]
    assert np.any(steps % 64 != 0) and np.any(steps % 64 == 0)
    assert np.bincount((steps - 1) // 64).max() >= 2
    return exploded


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("chunk", [3, 64, 257])
@pytest.mark.parametrize("drift", sorted(BLOWUP_DRIFTS))
def test_direct_explosion_steps_pinned(monkeypatch, drift, chunk):
    check_explosion_steps(monkeypatch, drift, chunk, unit_noise)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("chunk", [3, 64, 257])
@pytest.mark.parametrize("drift", sorted(BLOWUP_DRIFTS))
def test_direct_explosion_steps_pinned_additive(monkeypatch, drift, chunk):
    # the constant-diffusion branch takes the same per-chunk guard: same pins
    check_explosion_steps(monkeypatch, drift, chunk, 1.0)


@pytest.mark.parametrize("diffusion", [unit_noise, 1.0], ids=["callable", "constant"])
@pytest.mark.parametrize("drift", ["cubic", "nan"])
def test_exploding_run_raises_path_exploded_under_raising_errstate(
        monkeypatch, law_levy, drift, diffusion):
    # an exploding path overflows or turns nan within its chunk; under the
    # caller's errstate(all="raise") the run still fails with the pinned
    # explosion, not with FloatingPointError
    exploded = check_explosion_steps(monkeypatch, drift, 64, diffusion)
    bad = np.flatnonzero(exploded >= 0)
    model = outward_model(1.0, BLOWUP_DRIFTS[drift], diffusion)
    with np.errstate(all="raise"), pytest.raises(PathExploded) as exc:
        rescaled_functional(model, f_id, law_levy, BLOWUP_CFG)
    assert (exc.value.step, exc.value.n_exploded) == (exploded[bad[0]], bad.size)


def test_euler_walk_leaves_the_caller_errstate_between_chunks():
    # the kernel ignores floating-point errors in its step loop only
    model = outward_model(1.0, BLOWUP_DRIFTS["cubic"])
    model.core()
    exploded = np.full(300, -1, dtype=np.int64)
    with np.errstate(all="raise", under="ignore"):
        caller = np.geterr()
        for _, X in pathsim._euler_walk(model.drift, model.diffusion, 0.01, 200,
                                        pathsim._GUARD_FACTOR * model.domain_cutoff, 0,
                                        np.arange(300), exploded):
            assert np.geterr() == caller
            assert np.all(np.abs(X) <= np.nextafter(10.0, np.inf))
    assert np.any(exploded >= 0)


# driftless(2.5) on Direct: sigma = (1 + |x|)^1.25 is the one preset
# diffusion that is not a constant, so it runs the kernel's callable branch
DRIFTLESS_CFG = SimConfig(dt=0.02, epsilon=0.1, horizon_times=(0.4, 0.4000001, 1.0),
                          n_paths=160, seed=3, scheme="Direct")


@pytest.fixture(scope="module")
def driftless_stepwise():
    """The raw Direct matrix of driftless(2.5), f = id, at DRIFTLESS_CFG,
    by a plain scalar Euler loop per path in the engine's expression order.

    sigma is read on a one-element array: numpy's vectorized ``power`` and
    its scalar one differ in the last bit for about 5% of arguments."""
    model = presets.driftless(2.5)
    cfg = DRIFTLESS_CFG
    sqdt = math.sqrt(cfg.dt)
    reads = []
    for i, t in enumerate(cfg.horizon_times):
        pos = t / cfg.epsilon
        k = min(int(pos / cfg.dt + 1e-12), cfg.n_steps)
        reads.append((k, i, max(pos - k * cfg.dt, 0.0)))
    want = np.empty((cfg.n_paths, len(reads)))
    for p in range(cfg.n_paths):
        z = stream(cfg.seed, TAG_DIRECT, p).standard_normal(cfg.n_steps)
        x = fsum = 0.0
        for k in range(cfg.n_steps + 1):
            for kk, col, rem in reads:
                if kk == k:
                    want[p, col] = fsum * cfg.dt + rem * x
            if k < cfg.n_steps:
                fsum += x
                b, sig = (float(fn(np.array([x]))[0]) for fn in (model.drift, model.diffusion))
                x = x + (b * cfg.dt + sig * sqdt * z[k])
    return want


@pytest.mark.parametrize("width", [128, pathsim._EULER_BLOCK])
@pytest.mark.parametrize("chunk", [3, 64, 257])
def test_direct_driftless_matches_stepwise_euler(driftless_stepwise, monkeypatch,
                                                 chunk, width):
    monkeypatch.setattr(_workspace, "_CHUNK", chunk)
    monkeypatch.setattr(pathsim, "_EULER_BLOCK", width)
    model = presets.driftless(2.5)
    assert model._diffusion_const is None
    raw, n_exploded = pathsim._direct_raw(model, f_id, DRIFTLESS_CFG, 1)
    assert n_exploded == 0
    assert np.array_equal(raw, driftless_stepwise)


def with_diffusion(model, diffusion):
    return DiffusionModel(drift=model.drift, diffusion=diffusion,
                          domain_cutoff=model.domain_cutoff)


def test_callable_unit_diffusion_keeps_direct_pins(kinetic3, kinetic_critical):
    # the presets pass diffusion=1.0; their old callable form, through the
    # kernel's per-step branch, must give the same pinned bits
    assert kinetic3._diffusion_const == 1.0
    for name, model in (("kinetic3", kinetic3), ("kinetic_critical", kinetic_critical)):
        assert direct_pin_digest(with_diffusion(model, unit_noise)) == DIRECT_PINS[name]


@pytest.mark.parametrize("c", [1.0, 0.7])
def test_constant_diffusion_matches_callable(kinetic3, c):
    const = with_diffusion(kinetic3, c)
    call = with_diffusion(kinetic3, lambda x: np.full_like(x, c))
    assert const._diffusion_const == c and call._diffusion_const is None
    assert pathsim._diffusion(const) == c and callable(pathsim._diffusion(call))
    cfg = SimConfig(dt=0.02, epsilon=0.1, horizon_times=(0.4, 1.0), n_paths=300,
                    seed=5, scheme="Direct")
    got = [pathsim._direct_raw(m, f_power, cfg, None)[0] for m in (const, call)]
    assert np.array_equal(got[0], got[1])
    got = [simulate_path(m, T=3.0, dt=0.01, seed=4)[1] for m in (const, call)]
    assert np.array_equal(got[0], got[1])
    got = [pathsim._em_final(m, T=3.0, dt=0.01, seed=4, n_paths=200) for m in (const, call)]
    assert np.array_equal(got[0], got[1])
    cfg = SimConfig(dt=0.02, epsilon=0.1, horizon_times=(0.4, 1.0), n_paths=64,
                    seed=5, scheme="TimeChange")
    got = [rescaled_functional(m, f_id, None, cfg).values for m in (const, call)]
    assert np.array_equal(got[0], got[1])


def test_dt_refinement_keeps_mean_within_mc_error(kinetic7, law_diffusive):
    means, se = [], None
    for dt in (0.04, 0.02):
        cfg = SimConfig(dt=dt, epsilon=1e-2, horizon_times=(1.0,), n_paths=2000,
                        seed=21, scheme="Direct")
        v = rescaled_functional(kinetic7, f_id, law_diffusive, cfg, threads=4).values[:, 0]
        means.append(v.mean())
        se = se or v.std(ddof=1) / math.sqrt(v.size)
    assert abs(means[0] - means[1]) < se


# ---------------------------------------------------------------------------
# normalization per regime
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", pathsim.SCHEMES)
def test_levy_normalization_is_pure_scaling(kinetic3, law_levy, scheme):
    cfg = SimConfig(dt=0.02, epsilon=0.05, horizon_times=(0.5,), n_paths=32,
                    seed=4, scheme=scheme)
    raw = rescaled_functional(kinetic3, f_id, None, cfg)
    assert raw.law is None
    nrm = rescaled_functional(kinetic3, f_id, law_levy, cfg)
    factor = cfg.epsilon ** (1.0 / law_levy.alpha)
    assert np.array_equal(factor * raw.values, nrm.values)


def test_critical_centering_uses_exact_integral(kinetic_critical, law_critical_levy):
    assert law_critical_levy.regime == "CriticalLevy"
    cfg = SimConfig(dt=0.02, epsilon=0.05, horizon_times=(0.5, 1.0), n_paths=16,
                    seed=2, scheme="TimeChange")
    raw = rescaled_functional(kinetic_critical, f_id, None, cfg)
    nrm = rescaled_functional(kinetic_critical, f_id, law_critical_levy, cfg)
    xi = law_critical_levy.xi_eps(cfg.epsilon)
    want = cfg.epsilon * raw.values - xi * np.asarray(cfg.horizon_times)[None, :]
    assert np.array_equal(nrm.values, want)


def test_critical_diffusive_normalization_factor(identity_model):
    lev = LimitLaw(regime="Levy", alpha=1.0, sigma_alpha=1.0, kappa=1.0,
                   f_plus=1.0, f_minus=0.0)
    cd = LimitLaw(regime="CriticalDiffusive", alpha=2.0, sigma_alpha=1.0,
                  kappa=1.0, f_plus=0.0, f_minus=0.0,
                  _rho_eps_fn=lambda e: 4.0 * math.log(1.0 / e))
    cfg = SimConfig(dt=0.005, epsilon=0.25, horizon_times=(0.5,), n_paths=4,
                    seed=6, scheme="Direct")
    v_lev = rescaled_functional(identity_model, f_id, lev, cfg).values
    v_cd = rescaled_functional(identity_model, f_id, cd, cfg).values
    # same raw integrals underneath, so the two results differ by the
    # ratio of the normalizing factors
    ratio = math.sqrt(cfg.epsilon / (4.0 * math.log(1.0 / cfg.epsilon))) / cfg.epsilon
    assert np.allclose(v_cd, ratio * v_lev, rtol=1e-12)


def test_nontrivial_slowly_varying_factor_rejected(identity_model):
    law = LimitLaw(regime="Levy", alpha=1.5, sigma_alpha=1.0, kappa=1.0,
                   f_plus=1.0, f_minus=0.0, ell_name="log")
    cfg = SimConfig(dt=0.005, epsilon=0.25, horizon_times=(0.5,), n_paths=4)
    with pytest.raises(InvalidRequest):
        rescaled_functional(identity_model, f_id, law, cfg)


# ---------------------------------------------------------------------------
# time-change scheme
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", pathsim.SCHEMES)
def test_constant_observable_recovers_elapsed_time(heavy1, scheme):
    # f == 1 makes the functional the elapsed (unrescaled) time itself, so
    # the un-normalized read-out at t must be t/epsilon, exactly up to the
    # in-step interpolation (TimeChange) or the remainder step (Direct)
    cfg = SimConfig(dt=0.01, epsilon=0.1, horizon_times=(0.5, 1.0, 2.0),
                    n_paths=64, seed=3, scheme=scheme)
    s = rescaled_functional(heavy1, f_one, None, cfg)
    assert s.law is None
    assert np.allclose(cfg.epsilon * s.values,
                       np.asarray(cfg.horizon_times)[None, :], rtol=1e-12)
    assert s.clip_fraction == 0.0


def test_transformed_coefficients_match_reference(kinetic3):
    # the walk's interpolation tables against the exact scale-transformed
    # coefficients at random points of the scale image
    tab = pathsim._clock_tables(kinetic3, f_id)
    kappa = kinetic3.scale_speed().kappa
    rng = np.random.default_rng(7)
    w = np.concatenate([rng.uniform(-3.0, 3.0, 60), rng.uniform(-2000.0, 2000.0, 40)])
    psi_ref, phi_ref = eval_psi_phi(kinetic3, f_id, w)
    rate = np.interp(w, tab.y, tab.rate1)
    assert np.allclose(kappa / np.sqrt(rate), psi_ref, rtol=2e-3)
    assert np.allclose(np.interp(w, tab.y, tab.fval) * rate / kappa ** 2,
                       phi_ref, rtol=2e-3)


def test_schemes_agree_in_law(kinetic3, law_levy):
    cfg_d = SimConfig(dt=0.02, epsilon=0.05, horizon_times=(1.0,), n_paths=600,
                      seed=14, scheme="Direct")
    cfg_t = SimConfig(dt=0.02, epsilon=0.05, horizon_times=(1.0,), n_paths=600,
                      seed=15, scheme="TimeChange")
    vd = rescaled_functional(kinetic3, f_id, law_levy, cfg_d, threads=2).values[:, 0]
    vt = rescaled_functional(kinetic3, f_id, law_levy, cfg_t, threads=2).values[:, 0]
    ks, crit = ks_two_sample(vd, vt)
    assert ks < crit


def test_schemes_agree_in_law_critical(kinetic_critical, law_critical_levy):
    cfg_d = SimConfig(dt=0.02, epsilon=0.05, horizon_times=(1.0,), n_paths=600,
                      seed=8, scheme="Direct")
    cfg_t = SimConfig(dt=0.02, epsilon=0.05, horizon_times=(1.0,), n_paths=600,
                      seed=9, scheme="TimeChange")
    vd = rescaled_functional(kinetic_critical, f_id, law_critical_levy, cfg_d,
                             threads=2).values[:, 0]
    vt = rescaled_functional(kinetic_critical, f_id, law_critical_levy, cfg_t,
                             threads=2).values[:, 0]
    ks, crit = ks_two_sample(vd, vt)
    assert ks < crit


def test_close_targets_read_out_consistently(kinetic3):
    cfg = SimConfig(dt=0.02, epsilon=0.1, horizon_times=(0.4, 0.4000001, 1.0),
                    n_paths=16, seed=3, scheme="TimeChange")
    s = rescaled_functional(kinetic3, f_id, None, cfg)
    assert np.all(np.isfinite(s.values))
    assert np.allclose(s.values[:, 0], s.values[:, 1], rtol=1e-3, atol=1e-3)


def test_clock_horizon_extends_then_fails(kinetic3, monkeypatch):
    cfg = SimConfig(dt=0.01, epsilon=0.05, horizon_times=(1.0,), n_paths=64,
                    seed=5, scheme="TimeChange")
    with monkeypatch.context() as m:
        m.setattr(pathsim, "_MAX_EXTENSIONS", 0)
        with pytest.raises(HorizonExceeded):
            rescaled_functional(kinetic3, f_id, None, cfg)
    s = rescaled_functional(kinetic3, f_id, None, cfg)   # default budget succeeds
    assert np.all(np.isfinite(s.values))


def test_clock_rate_clip_gate(kinetic3, monkeypatch):
    monkeypatch.setattr(pathsim, "_CLIP_RATE", 1.0)
    cfg = SimConfig(dt=0.02, epsilon=0.05, horizon_times=(0.5,), n_paths=8,
                    seed=1, scheme="TimeChange")
    with pytest.raises(InvalidRequest, match="rate hit the cap"):
        rescaled_functional(kinetic3, f_id, None, cfg)


def test_clock_horizon_extension_boundary(kinetic3, monkeypatch):
    # three doublings (16 -> 128) are the fewest this run needs
    cfg = SimConfig(dt=0.01, epsilon=0.05, horizon_times=(1.0,), n_paths=64,
                    seed=5, scheme="TimeChange")
    monkeypatch.setattr(pathsim, "_MAX_EXTENSIONS", 2)
    with pytest.raises(HorizonExceeded,
                       match=r"horizon 64 after 2 extensions \(1 paths pending\)"):
        rescaled_functional(kinetic3, f_id, None, cfg)
    monkeypatch.setattr(pathsim, "_MAX_EXTENSIONS", 3)
    s = rescaled_functional(kinetic3, f_id, None, cfg)
    assert hashlib.sha256(s.values.tobytes()).hexdigest() == \
        "9828b46e435bbc49d96962d1794b040905cece6ad3e43f31e2eafd11c51b6fd6"
    # here u reaches 12.97 before a path's finishing step and 16.70 after it;
    # only the paths still unfinished after a step meet the horizon (16)
    cfg = SimConfig(dt=0.02, epsilon=0.1, horizon_times=(0.5,), n_paths=8,
                    seed=12, scheme="TimeChange")
    monkeypatch.setattr(pathsim, "_MAX_EXTENSIONS", 0)
    s = rescaled_functional(kinetic3, f_id, None, cfg)
    assert hashlib.sha256(s.values.tobytes()).hexdigest() == \
        "8342524c1d965dca184469fa91edb6f98083db5ba3fd09761a0c64dce8cf5934"


def test_clock_rate_clip_fraction_pinned(kinetic_critical, monkeypatch):
    # a cap just under the peak clock rate (1.21397... at eps = 0.1) clips 4
    # of the 71887 steps the paths take; steps walked past a path's finish
    # are not counted
    monkeypatch.setattr(pathsim, "_CLIP_RATE", 1.2139705)
    cfg = SimConfig(dt=0.02, epsilon=0.1, horizon_times=(0.5,), n_paths=200,
                    seed=2, scheme="TimeChange")
    s = rescaled_functional(kinetic_critical, f_id, None, cfg)
    assert s.clip_fraction == 4 / 71887
    assert hashlib.sha256(s.values.tobytes()).hexdigest() == \
        "f2fdc33749be1a397adb72bdd1d3fc63bf7b1dbd6790f5fb83197b88e6a1c975"


def truncated_tables(tab, y_max):
    keep = np.abs(tab.y) < y_max
    return pathsim._ClockTables(y=tab.y[keep], rate1=tab.rate1[keep], fval=tab.fval[keep])


def test_bracket_interp_matches_np_interp():
    # nodes with a zero, a -0.0 value and an interval whose slope overflows
    xp = np.array([-2.0, -1.0, 0.0, 1e-300, 1.0, 3.0])
    fp = np.array([1.0, -0.0, 2.0, 1e300, -1e300, 5.0])
    tab = pathsim._ClockTables(y=xp, rate1=fp, fval=fp[::-1].copy())
    y = np.array([[-5.0, -2.0, -1.5, -1.0, 0.0, 1e-301],
                  [1e-300, 0.5, 1.0, 3.0, 4.0, np.nan]])
    ws = pathsim._ChunkWorkspace(y.size)
    br = pathsim._Bracket(tab, y, ws)
    for fp_, slope in ((tab.rate1, tab.slope_rate1), (tab.fval, tab.slope_fval)):
        got = br.interp(fp_, slope, np.empty_like(y), np.empty_like(y))
        want = np.interp(y, xp, fp_)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert br.outside().tolist() == [[True] + [False] * 5, [False] * 4 + [True, False]]


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(nodes=st.lists(finite, min_size=2, max_size=40, unique=True),
       tiny=st.booleans(), values=st.lists(finite, min_size=42, max_size=42),
       extra=st.lists(finite, max_size=20))
def test_bracket_matches_searchsorted(nodes, tiny, values, extra):
    # a 1e-300 gap beside O(1) gaps puts several nodes in one guide bucket
    xp = np.unique(np.asarray(nodes + ([0.0, 1e-300] if tiny else []), dtype=np.float64))
    assume(xp.size >= 2)
    fp = np.asarray(values[:xp.size])
    tab = pathsim._ClockTables(y=xp, rate1=fp, fval=-fp)
    mids = 0.5 * (xp[1:] + xp[:-1])
    y = np.concatenate([xp, mids, extra, [xp[0] - 1.0, xp[-1] + 1.0, 0.0, -0.0,
                                          np.inf, -np.inf, np.nan, 5e-324]])
    br = pathsim._Bracket(tab, y, pathsim._ChunkWorkspace(y.size))
    j = np.searchsorted(xp, y, side="right") - 1
    assert np.array_equal(br.j, j)
    assert np.array_equal(br.off, (j < 0) | (j >= xp.size - 1))
    assert np.array_equal(br.node, y - xp[np.clip(j, 0, None)] == 0.0)
    assert np.array_equal(br.outside(), (y < xp[0]) | (y > xp[-1]))
    for fp_, slope in ((tab.rate1, tab.slope_rate1), (tab.fval, tab.slope_fval)):
        with np.errstate(over="ignore", invalid="ignore"):
            got = br.interp(fp_, slope, np.empty_like(y), np.empty_like(y))
        assert np.array_equal(got.view(np.int64), np.interp(y, xp, fp_).view(np.int64))


@pytest.fixture(scope="module")
def driftless25():
    return presets.driftless(2.5)


@pytest.fixture(scope="module")
def table_model(tmp_path_factory):
    # an Ornstein-Uhlenbeck coefficient table, read back through from_table
    rows = ["x,b,sigma"] + [f"{x!r},{-x!r},1.0" for x in np.linspace(-10, 10, 801).tolist()]
    p = tmp_path_factory.mktemp("table") / "ou.csv"
    p.write_text("\n".join(rows) + "\n")
    return presets.from_table(p)


@pytest.mark.parametrize("model", ["kinetic3", "kinetic_critical", "kinetic7", "driftless25",
                                   "heavy1", "table_model"])
def test_bracket_guide_hits_kinetic_tables(model, request):
    # on these tables the guide is exact: every point -- on a node, one ulp
    # either side of it, between nodes or beyond either end, the signed
    # zeros and subnormals, the infinities and nan of either sign -- is
    # found by one guide lookup and one step down, without the fallback
    tab = pathsim._clock_tables(request.getfixturevalue(model), f_id)
    assert tab.exact
    g = np.arcsinh(tab.y)
    rng = np.random.default_rng(4)
    y = np.concatenate([tab.y, np.nextafter(tab.y, np.inf), np.nextafter(tab.y, -np.inf),
                        0.5 * (tab.y[1:] + tab.y[:-1]),
                        [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan,
                         np.copysign(np.nan, -1.0)],
                        np.sinh(rng.uniform(g[0] - 1.0, g[-1] + 1.0, 50_000))])
    br = pathsim._Bracket(tab, y, pathsim._ChunkWorkspace(y.size))
    assert br.misses == 0
    assert np.array_equal(br.j, np.searchsorted(tab.y, y, side="right") - 1)
    br = pathsim._Bracket(tab, np.array([np.nan, np.inf, -np.inf]),
                          pathsim._ChunkWorkspace(3))
    assert br.misses == 0
    assert br.j.tolist() == [tab.y.size - 1, tab.y.size - 1, -1]


@pytest.mark.parametrize("width", [128, 512, 1024])
def test_clock_slab_buffer_is_bounded(kinetic3, monkeypatch, width):
    # a narrower block draws a longer slab per generator call, as long as
    # the full block's buffer allows, and never a larger buffer
    buffers = []

    class Built(Exception):
        pass

    class Recorded(_workspace._Normals):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            buffers.append(self._buf.shape)
            raise Built     # the walk itself is not needed

    monkeypatch.setattr(pathsim, "_Normals", Recorded)
    tab = pathsim._clock_tables(kinetic3, f_id)
    cfg = SimConfig(dt=0.02, epsilon=0.1, horizon_times=(0.5,), n_paths=width,
                    seed=1, scheme="TimeChange")
    with pytest.raises(Built):
        pathsim._timechange_block(tab, 1.0, cfg, np.arange(width))
    (rows, slab), = buffers
    assert rows == width
    assert rows * slab <= pathsim._BLOCK * pathsim._CLOCK_SLAB
    assert slab == pathsim._CLOCK_SLAB * pathsim._BLOCK // width


def test_clock_table_edge_gate(kinetic3, monkeypatch):
    full = pathsim._clock_tables
    monkeypatch.setattr(pathsim, "_clock_tables",
                        lambda model, f: truncated_tables(full(model, f), 0.5))
    cfg = SimConfig(dt=0.02, epsilon=0.1, horizon_times=(0.5,), n_paths=8,
                    seed=1, scheme="TimeChange")
    with pytest.raises(InvalidRequest, match="left the coefficient tables"):
        rescaled_functional(kinetic3, f_id, None, cfg)


@pytest.mark.parametrize("cutoff", [600.0, 2000.0, 1e4, 5e4, 1e5])
def test_clock_tables_build_at_large_cutoffs(cutoff):
    # sinh(asinh(c)) rounds past c by up to 7.3e-11 at these cutoffs (above
    # it at all but 1e4); the end nodes are clamped into the domain.  Zero
    # drift makes the scale the identity, so the table nodes are the x nodes
    model = DiffusionModel(drift=lambda x: np.zeros_like(f_id(x)),
                           diffusion=lambda x: 1.0 + np.abs(f_id(x)),
                           domain_cutoff=cutoff, name="near-power")
    tab = pathsim._clock_tables(model, f_id)
    assert tab.y.size == 6001
    assert -cutoff <= tab.y[0] and tab.y[-1] <= cutoff
    assert tab.y[-1] > cutoff * (1.0 - 1e-15)


# sha256 of the raw (700, 3) TimeChange matrix at PIN_CFG, taken before the
# walk was chunked; the second target lies 1e-7 above the first, so paths
# cross both in one step
TIMECHANGE_PIN_CFG = SimConfig(dt=0.02, epsilon=0.1, horizon_times=(0.4, 0.4000001, 1.0),
                               n_paths=700, seed=11, scheme="TimeChange")
TIMECHANGE_PINS = {
    "kinetic3": "824ab19f5235d491df4dd671b09b879850f6a5ce7d76cbb0663b84fe1c426cc0",
    "kinetic_critical": "3407d73964ba392883da0df12bd7fb9039bcd28fc899038ad5dc1259725d305f",
}


@pytest.mark.parametrize("model", sorted(TIMECHANGE_PINS))
def test_timechange_bit_pinned(model, request):
    s = rescaled_functional(request.getfixturevalue(model), f_id, None, TIMECHANGE_PIN_CFG)
    assert hashlib.sha256(s.values.tobytes()).hexdigest() == TIMECHANGE_PINS[model]


@pytest.mark.parametrize("width", [128, pathsim._BLOCK])
@pytest.mark.parametrize("chunk", [3, 64, 257])
def test_timechange_invariant_to_chunk_and_width(kinetic_critical, monkeypatch, chunk, width):
    # 700 paths make blocks of 128 (the last of 60) or one block
    monkeypatch.setattr(_workspace, "_CHUNK", chunk)
    monkeypatch.setattr(pathsim, "_BLOCK", width)
    s = rescaled_functional(kinetic_critical, f_id, None, TIMECHANGE_PIN_CFG)
    assert hashlib.sha256(s.values.tobytes()).hexdigest() == TIMECHANGE_PINS["kinetic_critical"]


def test_timechange_grows_chunks_as_paths_finish(kinetic_critical, monkeypatch, chunk_log):
    # one 64-path block: once fewer than 8 paths are live, a chunk takes
    # _CHUNK * 64 // live steps (at most the slab) in the same buffers; the
    # output equals the 3-step-chunk run's bit for bit.  That run ends in a
    # chunk of one live path, whose running sums _cumsum_end reads by its
    # single-column fallback
    cfg = SimConfig(**{**TIMECHANGE_PIN_CFG.__dict__, "n_paths": 64})
    chunk = _workspace._CHUNK
    got = rescaled_functional(kinetic_critical, f_id, None, cfg, threads=1).values
    assert min(n for _, n in chunk_log) < 64 / 8
    assert max(k for k, _ in chunk_log) > chunk
    assert all(k <= chunk * 64 // n for k, n in chunk_log)
    monkeypatch.setattr(_workspace, "_CHUNK", 3)
    del chunk_log[:]
    ref = rescaled_functional(kinetic_critical, f_id, None, cfg, threads=1).values
    assert any(n == 1 and k > 8 for k, n in chunk_log)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def stepwise_walk(tab, kappa, cfg, path):
    """One path of the clock walk replayed step by step with np.interp;
    returns its readings and its (clipped, off-table, total) step counts."""
    eps, t = cfg.epsilon, cfg.horizon_times
    a, y_scale = eps / kappa, kappa / eps
    z = stream(cfg.seed, TAG_TIMECHANGE, path).standard_normal(50_000)
    w = A = H = 0.0
    out, clipped, off, k = [], 0, 0, 0
    while len(out) < len(t):
        m = max(a, abs(w))
        du = cfg.dt * (m * m)
        y = w * y_scale
        rate = np.interp(y, tab.y, tab.rate1) / eps
        if rate > pathsim._CLIP_RATE:
            rate, clipped = pathsim._CLIP_RATE, clipped + 1
        off += not (tab.y[0] <= y <= tab.y[-1])
        dA = rate * du
        dH = dA * np.interp(y, tab.y, tab.fval) / eps
        while len(out) < len(t) and A + dA >= t[len(out)]:
            out.append(H + (t[len(out)] - A) / dA * dH)
        A, H = A + dA, H + dH
        w = w + math.sqrt(du) * z[k]
        k += 1
    return out, (clipped, off, k)


@pytest.mark.parametrize("case", ["plain", "clipped", "off_table"])
def test_timechange_block_matches_stepwise_walk(kinetic_critical, monkeypatch, case):
    tab = pathsim._clock_tables(kinetic_critical, lambda x: -f_id(x))
    if case == "clipped":
        monkeypatch.setattr(pathsim, "_CLIP_RATE", 1.2139)
    if case == "off_table":
        tab = truncated_tables(tab, 3.0)
    kappa = kinetic_critical.scale_speed().kappa
    cfg = SimConfig(dt=0.02, epsilon=0.1, horizon_times=(0.3, 0.3000001, 0.6),
                    n_paths=8, seed=4, scheme="TimeChange")
    paths = np.array([0, 3, 700, 5, 1, 2, 9, 6])
    out, *counts = pathsim._timechange_block(tab, kappa, cfg, paths)
    ref = [stepwise_walk(tab, kappa, cfg, int(p)) for p in paths]
    assert np.array_equal(out, np.array([r[0] for r in ref]))
    assert counts == [sum(c) for c in zip(*(r[1] for r in ref))]
    if case != "plain":
        assert counts[0 if case == "clipped" else 1] > 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.fixture()
def small_sample(kinetic3, law_levy):
    cfg = SimConfig(dt=0.05, epsilon=0.1, horizon_times=(0.5, 1.0), n_paths=6,
                    seed=17, scheme="Direct")
    return rescaled_functional(kinetic3, f_id, law_levy, cfg)


def test_csv_round_trip_is_bit_exact(small_sample, tmp_path):
    p = tmp_path / "sample.csv"
    small_sample.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0].startswith("# ")
    meta = json.loads(lines[0][2:])
    assert meta["n_paths"] == 6 and meta["scheme"] == "Direct"
    assert lines[1].split(",")[0] == "path"
    back = FunctionalSample.from_csv(p)
    assert np.array_equal(back.values, small_sample.values)
    assert back.times == small_sample.times
    assert back.seed == small_sample.seed and back.dt == small_sample.dt
    assert back.epsilon == small_sample.epsilon
    assert back.law.regime == "Levy" and back.law.alpha == small_sample.law.alpha


def test_binary_round_trip_is_bit_exact(small_sample, tmp_path):
    p = tmp_path / "sample.bin"
    small_sample.to_binary(p)
    blob = p.read_bytes()
    assert blob[:8] == b"SDFSAMP1"
    back = FunctionalSample.from_binary(p)
    assert np.array_equal(back.values, small_sample.values)
    assert back.law.f_plus == small_sample.law.f_plus
    assert back.times == small_sample.times


def test_serialization_rejects_foreign_files(small_sample, tmp_path):
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"whatever this is, it is not a sample")
    with pytest.raises(InvalidRequest):
        FunctionalSample.from_binary(junk)
    text = tmp_path / "junk.csv"
    text.write_text("path,t=1.0\n0,0.5\n")
    with pytest.raises(InvalidRequest):
        FunctionalSample.from_csv(text)
    # files whose body disagrees with their own header
    p = tmp_path / "s.csv"
    small_sample.to_csv(p)
    lines = p.read_text().splitlines()
    widened = lines[-1] + ",0.5"
    for body in (lines[2:-1], lines[2:-1] + [widened], lines[2:] + [lines[-1]],
                 lines[2:-1] + [lines[-1].rsplit(",", 1)[0]],
                 lines[2:-1] + [lines[-1].rsplit(",", 1)[0] + ",oops"]):
        text.write_text("\n".join(lines[:2] + body) + "\n")
        with pytest.raises(InvalidRequest):
            FunctionalSample.from_csv(text)
    p = tmp_path / "s.bin"
    small_sample.to_binary(p)
    blob = p.read_bytes()
    hlen = int.from_bytes(blob[8:12], "little")
    for bad in (blob[:10], blob[:12 + hlen - 1], blob[:8] + (hlen + 10 ** 6).to_bytes(4, "little")
                + blob[12:], blob[:-8], blob[:-3], blob + bytes(8)):
        junk.write_bytes(bad)
        with pytest.raises(InvalidRequest):
            FunctionalSample.from_binary(junk)
    # corrupt headers: a cut JSON line, a required key missing, a JSON list,
    # bytes that are not UTF-8, required keys of the wrong JSON type, and a
    # law without its constants
    meta = blob[12:12 + hlen]
    for key in ("n_paths", "law"):
        assert b'"%s": ' % key.encode() in meta
    retyped = [json.dumps({**json.loads(meta), key: value}).encode()
               for key, value in (("n_paths", "x"), ("n_paths", None), ("n_times", True),
                                  ("n_paths", -1), ("times", 5), ("times", ["0.5"]),
                                  ("law", [1]), ("seed", "0"), ("dt", None),
                                  ("extra", [1]), ("law", {"schema": 1}))]
    for header in [meta[:hlen // 2], meta.replace(b'"n_paths": ', b'"paths": '),
                   meta.replace(b'"law": ', b'"laws": '), b"[1, 2]",
                   b"\xff" + meta[1:]] + retyped:
        text.write_bytes(b"# " + header + b"\n" + "\n".join(lines[1:]).encode() + b"\n")
        with pytest.raises(InvalidRequest):
            FunctionalSample.from_csv(text)
        junk.write_bytes(blob[:8] + len(header).to_bytes(4, "little") + header
                         + blob[12 + hlen:])
        with pytest.raises(InvalidRequest):
            FunctionalSample.from_binary(junk)
