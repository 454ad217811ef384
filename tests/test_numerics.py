"""The numpy ports of ``_numerics`` against scipy, bit for bit.

scipy is the oracle here and nowhere in the package: every spline
coefficient and value, Simpson sum and Brent root must carry scipy's bits,
because the package's constants and pins were taken with scipy.  Bits are
compared as uint64 words, so a -0.0 or a nan of the other sign fails too.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.integrate
import scipy.interpolate
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from stablediff import _numerics, presets

PRESETS = {
    "kinetic(3)": lambda: presets.kinetic(3.0),
    "kinetic(2,1,0.25)": lambda: presets.kinetic(2.0, 1.0, 0.25),
    "kinetic(7)": lambda: presets.kinetic(7.0),
    "heavy_tailed(1)": lambda: presets.heavy_tailed(1.0),
    "driftless(2.5)": lambda: presets.driftless(2.5),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def queries(x: np.ndarray, rng) -> list:
    """Knots, midpoints, points beyond both ends, nans of both signs, and
    ascending runs long enough for the evaluator's sweep, in order and
    shuffled, plus a scalar and a 2-d array."""
    span = x[-1] - x[0]
    mid = 0.5 * (x[1:] + x[:-1])
    outside = np.array([x[0] - 1.0, x[0] - 0.25 * span, x[-1] + 0.5, x[-1] + span])
    ramp = np.linspace(x[0] - 0.1 * span, x[-1] + 0.1 * span, 2 * _numerics._SWEEP_MIN)
    mixed = np.concatenate([x, mid, outside, [np.nan, -np.nan]])
    return [x, mid, outside, ramp, np.sort(mixed[:-2]), mixed, rng.permutation(mixed),
            rng.permutation(ramp), np.float64(x[1] + 0.3 * (x[2] - x[1])),
            rng.uniform(x[0], x[-1], (7, 40))]


def assert_same_spline(ours, theirs, qs) -> None:
    assert same_bits(ours.c, theirs.c)
    for q in qs:
        assert same_bits(ours(q), theirs(q)), q


@pytest.fixture(scope="module", params=sorted(PRESETS))
def side_grids(request):
    """(x, E) on both sides of a preset's cached model."""
    core = PRESETS[request.param]().core()
    return [(side.x, side.E) for side in (core.pos, core.neg)]


def test_splines_on_preset_side_grids(side_grids):
    rng = np.random.default_rng(0)
    for x, E in side_grids:
        qs = queries(x, rng)
        assert_same_spline(_numerics.CubicSpline(x, E),
                           scipy.interpolate.CubicSpline(x, E), qs)
        slopes = rng.normal(size=x.size) * (1.0 + np.abs(E))
        assert_same_spline(_numerics.CubicHermiteSpline(x, E, slopes),
                           scipy.interpolate.CubicHermiteSpline(x, E, slopes), qs)


@st.composite
def grids(draw):
    n = draw(st.integers(4, 40))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1))
    x = draw(st.floats(-1e3, 1e3)) + np.cumsum([0.0] + steps)
    values = st.floats(-1e6, 1e6, allow_subnormal=False)
    y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    dydx = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return x, y, dydx


@settings(max_examples=60, deadline=None)
@given(grids(), st.integers(0, 2**32 - 1))
def test_splines_on_drawn_grids(grid, seed):
    x, y, dydx = grid
    if not np.all(np.diff(x) > 0):  # a step lost to rounding
        return
    qs = queries(x, np.random.default_rng(seed))
    with np.errstate(all="ignore"):
        assert_same_spline(_numerics.CubicSpline(x, y), scipy.interpolate.CubicSpline(x, y), qs)
        assert_same_spline(_numerics.CubicHermiteSpline(x, y, dydx),
                           scipy.interpolate.CubicHermiteSpline(x, y, dydx), qs)


def test_tridiagonal_solve_with_row_swaps():
    # spline matrices never pivot; random ones do, on most rows
    rng = np.random.default_rng(1)
    for n in list(range(3, 12)) + [50, 721]:
        ab = rng.normal(size=(3, n))
        b = rng.normal(size=n)
        x = _numerics._gtsv(ab[2, :-1].tolist(), ab[1].tolist(), ab[0, 1:].tolist(), b.tolist())
        assert same_bits(x, scipy.linalg.solve_banded((1, 1), ab, b))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3000), st.floats(1e-6, 1e3), st.integers(0, 2**32 - 1))
def test_simpson_rules(half, dx, seed):
    y = np.random.default_rng(seed).normal(size=2 * half + 1) * 10.0 ** (seed % 7 - 3)
    for v in (y, y[::-1]):
        assert same_bits(_numerics.simpson(v, dx), scipy.integrate.simpson(v, dx=dx))
        assert same_bits(_numerics.cumulative_simpson(v, dx),
                         scipy.integrate.cumulative_simpson(v, dx=dx, initial=0.0))
    if half % 2 == 0:  # the coarse grid of a Richardson pair
        assert same_bits(_numerics.simpson(y[::2], 2.0 * dx),
                         scipy.integrate.simpson(y[::2], dx=2.0 * dx))


def test_simpson_rules_at_the_poisson_grid_size():
    y = np.random.default_rng(2).normal(size=2**16 + 1)
    assert same_bits(_numerics.simpson(y, 1e-3), scipy.integrate.simpson(y, dx=1e-3))
    assert same_bits(_numerics.cumulative_simpson(y[::-1], 1e-3),
                     scipy.integrate.cumulative_simpson(y[::-1], dx=1e-3, initial=0.0))


@pytest.mark.parametrize("name", ["kinetic(3)", "heavy_tailed(1)"])
def test_brentq_on_inverse_scale_brackets(name):
    # the brackets and tolerances inv_s hands the root-finder
    core = PRESETS[name]().core()
    checked = 0
    for side in (core.pos, core.neg):
        for j in range(1, side.x.size, 9):
            lo, hi = side.x[j - 1], side.x[j]
            for frac in (0.05, 0.5, 0.97):
                target = side.s_abs[j - 1] + frac * (side.s_abs[j] - side.s_abs[j - 1])

                def f(u, target=target):
                    return float(side.s_at(u)[0]) - target

                if not f(lo) < 0.0 < f(hi):
                    continue
                tol = {"xtol": 1e-14 * (1.0 + hi), "rtol": 8.9e-16}
                assert same_bits(_numerics.brentq(f, lo, hi, **tol),
                                 scipy.optimize.brentq(f, lo, hi, **tol))
                checked += 1
    assert checked > 100


def test_brentq_on_hard_functions():
    cases = [(lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
             (lambda x: np.expm1(x) - 1e-8, -1.0, 1.0),
             (lambda x: np.sign(x - 0.3) * abs(x - 0.3) ** 0.1, 0.0, 1.0),
             (lambda x: (x - 1e-3) * 1e300, -1.0, 1.0)]
    for f, a, b in cases:
        # scipy's defaults, then inv_s's tolerances
        for tol in ({"xtol": 2e-12, "rtol": 4 * np.finfo(float).eps},
                    {"xtol": 1e-14, "rtol": 8.9e-16}):
            assert same_bits(_numerics.brentq(f, a, b, **tol),
                             scipy.optimize.brentq(f, a, b, **tol))


def test_runtime_is_scipy_free():
    # the package computes with numpy alone: a law, both sampling schemes,
    # the CMS sampler and a validation leave scipy unimported
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import stablediff as sd

        assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
        f = lambda x: np.asarray(x, dtype=np.float64)
        model = sd.kinetic(3.0)
        alpha, fp, fm = sd.presets.kinetic_tail_limits(3.0)
        law = sd.limit_law(sd.classify_regime(model, f, claimed=(alpha, None, fp, fm)), model, f)
        cols = []
        for scheme in sd.SCHEMES:
            cfg = sd.SimConfig(dt=0.05, epsilon=0.01, horizon_times=(0.5, 1.0), n_paths=64,
                               seed=3, scheme=scheme)
            cols.append(sd.rescaled_functional(model, f, law, cfg, threads=1).values[:, -1])
        # the two schemes agree in law; together they pass the 100-sample floor
        sd.validate_against_law(np.concatenate(cols), law, 1.0,
                                reference_samples=sd.sample_limit_law(law, 1.0, 256))
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300)
    assert run.returncode == 0, run.stderr
