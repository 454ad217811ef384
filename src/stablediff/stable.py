"""Reference stable laws, two independent ways.

Route one samples a stable law directly from its characteristic function via
the classical trigonometric (CMS) transform of a uniform and an exponential
variate.  Route two builds the same law pathwise from a Brownian motion: an
additive functional of the path (a weighted integral of its local-time field,
compensated at the origin) is read off at inverse-local-time instants, which
turns it into a stable process.  Agreement of the two routes is what the
validation layer checks; neither route knows about diffusions or regimes.

The module also carries the discrete local-time machinery the pathwise route
needs: occupation-based estimates of ``L_t^x`` on a single simulated path
(:class:`BrownianGrid`) and the inverse of the estimated local time at the
origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import TAG_CMS, TAG_EXCURSION, TAG_GRID, stream
from ._workspace import _ChunkWorkspace, _Normals, _mapped, _run_blocks
from .asymptotics import EULER_GAMMA, LimitLaw, _lambda_alpha
from .errors import HorizonExceeded, InvalidAlpha, InvalidRequest

__all__ = [
    "BrownianGrid",
    "StableSpec",
    "estimate_local_time",
    "inverse_local_time",
    "local_time_field",
    "sample_limit_law",
    "sample_stable_cf",
    "stable_cf",
    "stable_via_excursions",
]

_BLOCK = 512          # paths per work unit; fixed so results never depend on threads
_HALF_PI = math.pi / 2.0


def _signed_power(x: float, alpha: float) -> float:
    return math.copysign(abs(x) ** alpha, x)


def _xlogx(x: float) -> float:
    return x * math.log(abs(x)) if x != 0.0 else 0.0


def _check_count(name: str, value) -> None:
    """InvalidRequest unless ``value`` is an integer >= 1 (a bool is not)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
        raise InvalidRequest(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class StableSpec:
    """A stable law written in jump-weight form.

    ``a`` and ``b`` weight the positive and negative jumps.  The derived
    parameters give the characteristic function

        alpha != 1:  exp(-c t |xi|^alpha (1 - i beta tan(pi alpha/2) sgn xi))
        alpha == 1:  exp(-c t |xi| (1 + i beta (2/pi) log|xi| sgn xi) + i tau t xi)

    At ``alpha == 2`` the jump picture degenerates (the skew prefactor is
    singular there), so the convention is ``c = a^2 + b^2`` and the law is the
    centered Gaussian with variance ``2 c t``.

    ``a = b = 0`` is allowed as an explicit degenerate (c = 0, the point mass
    at 0) so that the pathwise construction can be exercised with zero weight.
    """

    alpha: float
    a: float
    b: float
    c: float = field(init=False)
    beta: float = field(init=False)
    tau: float = field(init=False)

    def __post_init__(self) -> None:
        alpha, a, b = self.alpha, self.a, self.b
        if not (math.isfinite(alpha) and 0.0 < alpha <= 2.0):
            raise InvalidAlpha(f"alpha must lie in (0, 2], got {alpha!r}")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InvalidRequest("jump weights a, b must be finite")
        wsum = abs(a) ** alpha + abs(b) ** alpha
        if alpha == 2.0:
            c = a * a + b * b
        else:
            c = _lambda_alpha(alpha, 1.0) * wsum
        beta = (_signed_power(a, alpha) + _signed_power(b, alpha)) / wsum \
            if wsum > 0.0 else 0.0
        tau = 0.0
        if alpha == 1.0:
            tau = -((a + b) * (2.0 * EULER_GAMMA + math.log(2.0))
                    + _xlogx(a) + _xlogx(b))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "tau", tau)

    def sgn_ab(self, x: np.ndarray) -> np.ndarray:
        """a on (0, inf), b on (-inf, 0), zero at 0."""
        x = np.asarray(x, dtype=np.float64)
        return np.where(x > 0.0, self.a, np.where(x < 0.0, self.b, 0.0))


def stable_cf(spec: StableSpec, xi, t: float):
    """Characteristic function E exp(i xi S_t) of the law of ``spec``."""
    if not (math.isfinite(t) and t >= 0.0):
        raise InvalidRequest(f"t must be finite and >= 0, got {t!r}")
    xi_arr = np.asarray(xi, dtype=np.float64)
    axi = np.abs(xi_arr)
    sgn = np.sign(xi_arr)
    if spec.alpha == 1.0:
        logt = np.log(np.where(axi > 0.0, axi, 1.0))
        expo = (-spec.c * t * axi * (1.0 + 1j * spec.beta * (2.0 / math.pi) * logt * sgn)
                + 1j * spec.tau * t * xi_arr)
    else:
        skew = 0.0 if spec.alpha == 2.0 else spec.beta * math.tan(_HALF_PI * spec.alpha)
        expo = -spec.c * t * axi ** spec.alpha * (1.0 - 1j * skew * sgn)
    out = np.exp(expo)
    return out if out.ndim else complex(out)


def sample_stable_cf(spec: StableSpec, t: float, n: int, seed: int = 0) -> np.ndarray:
    """n independent samples of S_t by the trigonometric transform.

    With U uniform on (-pi/2, pi/2) and E standard exponential, the standard
    transform produces a unit stable variate in the one-parametrization; the
    output is then scaled by (c t)^{1/alpha}, plus, at alpha = 1, the
    log-of-scale drift correction and the tau shift.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise InvalidRequest(f"t must be positive, got {t!r}")
    _check_count("n", n)
    if spec.c == 0.0:
        return np.zeros(n)
    gen = stream(seed, TAG_CMS, 0)
    u = gen.uniform(-_HALF_PI, _HALF_PI, n)
    e = gen.standard_exponential(n)
    alpha, beta = spec.alpha, spec.beta
    if alpha == 1.0:
        bu = _HALF_PI + beta * u
        z = (bu * np.tan(u) - beta * np.log(_HALF_PI * e * np.cos(u) / bu)) / _HALF_PI
        scale = spec.c * t
        return scale * z + (2.0 / math.pi) * beta * scale * math.log(scale) + spec.tau * t
    theta = 0.0 if alpha == 2.0 else math.tan(_HALF_PI * alpha)
    shift = math.atan(beta * theta) / alpha
    s_ab = (1.0 + beta * beta * theta * theta) ** (1.0 / (2.0 * alpha))
    z = (s_ab * np.sin(alpha * (u + shift)) / np.cos(u) ** (1.0 / alpha)
         * (np.cos(u - alpha * (u + shift)) / e) ** ((1.0 - alpha) / alpha))
    return (spec.c * t) ** (1.0 / alpha) * z


def sample_limit_law(law: LimitLaw, t: float, n: int, seed: int = 0) -> np.ndarray:
    """Sample the limiting variable of a classified diffusion at time t.

    Diffusive regimes are Gaussian with variance sigma_alpha^2 t.  The stable
    regimes reduce to the jump-weight law of (alpha, f_plus, f_minus) scaled
    by kappa^{1/alpha}: the characteristic exponents match identically, which
    the test-suite pins at machine precision.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise InvalidRequest(f"t must be positive, got {t!r}")
    _check_count("n", n)
    if law.regime in ("Diffusive", "CriticalDiffusive"):
        z = stream(seed, TAG_CMS, 0).standard_normal(n)
        return law.sigma_alpha * math.sqrt(t) * z
    spec = StableSpec(law.alpha, law.f_plus, law.f_minus)
    return law.kappa ** (1.0 / law.alpha) * sample_stable_cf(spec, t, n, seed)


# ---------------------------------------------------------------------------
# Single-path Brownian grid with occupation-based local time
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class BrownianGrid:
    """A Brownian path on a uniform time grid with local-time estimators.

    Occupation time is accumulated with the left-endpoint rule: the interval
    [k dt, (k+1) dt) counts toward the window that contains W_k.  Local time
    at level x uses the window (x - delta, x + delta) divided by 2 delta.
    """

    dt: float
    steps: int
    seed: int
    delta: float
    W: np.ndarray
    _l0cum: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def simulate(cls, dt: float, steps: int, seed: int = 0,
                 delta: float | None = None) -> "BrownianGrid":
        if not (math.isfinite(dt) and dt > 0.0):
            raise InvalidRequest(f"dt must be positive, got {dt!r}")
        _check_count("steps", steps)
        if delta is None:
            delta = math.sqrt(dt)
        elif not (math.isfinite(delta) and delta > 0.0):
            raise InvalidRequest(f"delta must be positive, got {delta!r}")
        z = stream(seed, TAG_GRID, 0).standard_normal(steps)
        w = np.empty(steps + 1, dtype=np.float64)
        w[0] = 0.0
        np.cumsum(z * math.sqrt(dt), out=w[1:])
        return cls(dt=dt, steps=steps, seed=seed, delta=float(delta), W=w)

    @property
    def horizon(self) -> float:
        return self.steps * self.dt

    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    def _split_time(self, t: float) -> tuple[int, float]:
        """Whole steps before t and the remainder, guarding float roundoff."""
        if not (0.0 <= t <= self.horizon * (1.0 + 1e-12)):
            raise InvalidRequest(
                f"t = {t!r} outside the simulated horizon [0, {self.horizon:.6g}]")
        k = min(int(t / self.dt + 1e-12), self.steps)
        return k, max(t - k * self.dt, 0.0)

    def _l0_running(self) -> np.ndarray:
        if self._l0cum is None:
            w = self.W[:-1]
            inside = (w >= -self.delta) & (w < self.delta)
            cum = np.empty(self.steps + 1, dtype=np.float64)
            cum[0] = 0.0
            np.cumsum(inside * (self.dt / (2.0 * self.delta)), out=cum[1:])
            self._l0cum = cum
        return self._l0cum


def estimate_local_time(grid: BrownianGrid, level: float, t: float) -> float:
    """(1/2 delta) * occupation time of [level - delta, level + delta) up to t.

    The window is half-open so that it coincides with the floor-binning of
    ``local_time_field`` even when a sample sits exactly on a cell edge (the
    deterministic W_0 = 0 does, at levels +-delta).
    """
    k, rem = grid._split_time(t)
    lo, hi = level - grid.delta, level + grid.delta
    w = grid.W
    occ = np.count_nonzero((w[:k] >= lo) & (w[:k] < hi)) * grid.dt
    if rem > 0.0 and lo <= w[k] < hi:
        occ += rem
    return occ / (2.0 * grid.delta)


def local_time_field(grid: BrownianGrid,
                     t: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Estimated L_t^x on the delta-spaced level grid covering the path range.

    Levels sit at integer multiples of delta; the value at level x agrees with
    ``estimate_local_time(grid, x, t)`` (the two share the same half-open
    binning) up to float summation order, computed for all levels in one pass.
    """
    if t is None:
        t = grid.horizon
    k, rem = grid._split_time(t)
    delta = grid.delta
    w = grid.W[:k + 1] if rem > 0.0 else grid.W[:max(k, 1)]
    wts = np.full(w.size, grid.dt)
    if rem > 0.0:
        wts[-1] = rem
    elif k == 0:
        wts[0] = 0.0
    bins = np.floor(w / delta).astype(np.int64)
    jmin, jmax = int(bins.min()), int(bins.max())
    cnt = np.bincount(bins - jmin, weights=wts, minlength=jmax - jmin + 1)
    padded = np.concatenate(([0.0], cnt, [0.0]))
    levels = np.arange(jmin, jmax + 2) * delta
    values = (padded[:-1] + padded[1:]) / (2.0 * delta)
    return levels, values


def inverse_local_time(grid: BrownianGrid, t: float) -> float:
    """First time the running origin local-time estimate exceeds t."""
    if not (math.isfinite(t) and t >= 0.0):
        raise InvalidRequest(f"t must be finite and >= 0, got {t!r}")
    if t == 0.0:
        return 0.0
    l0 = grid._l0_running()
    if t >= l0[-1]:
        raise HorizonExceeded(
            f"origin local time reaches only {l0[-1]:.6g} over the horizon "
            f"{grid.horizon:.6g}; cannot invert at t = {t:.6g}")
    k = int(np.searchsorted(l0, t, side="right"))
    # l0[k] > t >= l0[k-1]; the bracketing step has a strictly positive
    # increment, so the interpolation below is well defined.
    return (k - 1) * grid.dt + (t - l0[k - 1]) / (l0[k] - l0[k - 1]) * grid.dt


# ---------------------------------------------------------------------------
# Pathwise construction: K evaluated at inverse local time
# ---------------------------------------------------------------------------


class _EngineTables:
    """Per-(spec, dt) precomputation for the excursion engine.

    For alpha >= 1 the weight |x|^{1/alpha - 2} is not integrable through 0,
    so K splits into a near field on [-1, 1] (binned local-time estimates
    against exact cell integrals of the weight, compensated by L^0) and a far
    field |x| > 1 evaluated as a running time integral via the occupation
    identity, with its L^0 compensator in closed form.  For alpha < 1 the
    whole of K is the running time integral of an integrable weight.
    """

    def __init__(self, spec: StableSpec, dt: float):
        self.spec = spec
        self.p = 1.0 / spec.alpha - 2.0
        self.q = self.p + 1.0
        self.sqdt = math.sqrt(dt)
        self.near = spec.alpha >= 1.0
        if not self.near:
            return
        n_half = max(4, round(1.0 / self.sqdt))
        self.delta = 1.0 / n_half     # divides 1 exactly: +-1 and 0 are cell edges
        self.n_cells = 2 * (n_half + 1)
        self.edges = (np.arange(self.n_cells + 1) - (n_half + 1)) * self.delta
        el, er = self.edges[:-1], self.edges[1:]
        w = np.zeros(self.n_cells)
        a, b, q = spec.a, spec.b, self.q
        pos = el >= 0.0
        neg = er <= 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            if spec.alpha == 1.0:
                w[pos] = a * np.log(er[pos] / np.where(el[pos] > 0, el[pos], 1.0))
                w[neg] = b * np.log(np.abs(el[neg]) / np.where(er[neg] < 0, np.abs(er[neg]), 1.0))
            else:
                w[pos] = a * (er[pos] ** q - el[pos] ** q) / q
                w[neg] = b * (np.abs(el[neg]) ** q - np.abs(er[neg]) ** q) / q
        # outermost cells lie beyond [-1, 1] (bandwidth padding only) and the
        # two cells touching 0 are dropped with their compensator mass
        w[[0, self.n_cells - 1, n_half, n_half + 1]] = 0.0
        self.weights = w
        cfar = (a + b) / abs(q) if spec.alpha > 1.0 else 0.0
        self.compensator = w.sum() + cfar

    def anti(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Antiderivative of the time-integral weight, written into ``out``.

        With the near field split off (alpha >= 1) the weight is
        sgn_ab(x)|x|^p 1{|x|>1} and the antiderivative is 0 on [-1, 1];
        otherwise (alpha < 1, q > 0) it is the whole sgn_ab(x)|x|^p,
        continuous at 0.
        """
        a, b, q = self.spec.a, self.spec.b, self.q
        core = np.abs(x, out=out)
        if self.near:
            np.maximum(core, 1.0, out=core)
            if self.spec.alpha == 1.0:
                np.log(core, out=core)
            else:
                core **= q
                core -= 1.0
                core /= q
        else:
            core **= q
            core /= q
        core *= np.where(x >= 0.0, a, -b)
        return core

    def point_weight(self, x: np.ndarray) -> np.ndarray:
        """Integrand value for degenerate (zero-span) steps, singularity floored."""
        ax = np.maximum(np.abs(x), self.sqdt)
        val = ax ** self.p
        if self.near:
            val = np.where(np.abs(x) > 1.0, val, 0.0)
        return self.spec.sgn_ab(x) * val


def _near_field(diff_rows: np.ndarray, corr_rows: np.ndarray,
                tab: _EngineTables) -> np.ndarray:
    """Weighted near-field integral for each given row's current bins."""
    occ = np.cumsum(diff_rows[:, :-1], axis=1) * tab.delta + corr_rows
    padded = np.pad(occ, ((0, 0), (1, 1)))
    # window of width 2 delta centred on each cell: the cell plus half of
    # each neighbour, matching the origin estimator's bandwidth
    fld = (padded[:, 1:-1] + 0.5 * (padded[:, :-2] + padded[:, 2:])) / (2.0 * tab.delta)
    return fld @ tab.weights


class _Scatter:
    """One chunk's increments to a per-path table, two slots per path-step.

    Slots are laid out (step, path, slot), the order in which a step-by-step
    walk applies them; unused slots add 0.0, which leaves any table value
    unchanged (no entry is ever -0.0).  ``np.add.at`` adds repeated indices
    one after another in index order, so the table gets that walk's sums
    bit for bit.
    """

    def __init__(self, table: np.ndarray, idx: np.ndarray, val: np.ndarray):
        self.flat = table.reshape(-1)
        self.idx, self.val = idx.reshape(-1), val.reshape(-1)
        self.per_step = idx[0].size
        self.done = 0

    def through(self, s: int) -> None:
        """Apply every pending increment of steps <= s."""
        cut = (s + 1) * self.per_step
        if cut > self.done:
            np.add.at(self.flat, self.idx[self.done:cut], self.val[self.done:cut])
            self.done = cut


def _near_scatter(tab: _EngineTables, diff: np.ndarray, corr: np.ndarray,
                  live: np.ndarray, lo, hi, tiny, any_tiny: bool, step, span, wa,
                  ws: _ChunkWorkspace) -> tuple[_Scatter, _Scatter]:
    """Near-field cell increments of one chunk, as a step-by-step walk makes them.

    A step that moves spreads its duration uniformly over [lo, hi] clipped
    to the grid: ``diff`` gets the density at the first and past the last
    cell, and ``corr`` removes the parts of the end cells the step does not
    cover, first cell first.  A zero-span step puts its whole duration into
    its cell.
    """
    e0, top, delta, nc = tab.edges[0], tab.edges[-1], tab.delta, tab.n_cells
    k, n = lo.shape
    lo_c = np.maximum(lo, e0, out=ws.view("lo_c", k, n))
    hi_c = np.minimum(hi, top, out=ws.view("hi_c", k, n))
    idle = np.less_equal(hi_c, lo_c, out=ws.view("idle", k, n, dtype=np.bool_))
    if any_tiny:
        idle |= tiny
    f = ws.view("fcell", k, n)
    il = ws.view("il", k, n, dtype=np.int64)
    ih = ws.view("ih", k, n, dtype=np.int64)
    for x, cell in ((lo_c, il), (hi_c, ih)):
        # clamping before the cast gives the same cells as casting first,
        # and keeps far-away levels from overflowing the cast
        np.subtract(x, e0, out=f)
        f /= delta
        np.clip(f, 0, nc - 1, out=f)
        cell[...] = f
    d_idx = ws.view("d_idx", k, n, 2, dtype=np.int64)
    d_val = ws.view("d_val", k, n, 2)
    c_idx = ws.view("c_idx", k, n, 2, dtype=np.int64)
    c_val = ws.view("c_val", k, n, 2)
    d_row, c_row = live * (nc + 1), live * nc
    np.add(d_row, il, out=d_idx[:, :, 0])
    np.add(d_row, ih, out=d_idx[:, :, 1])
    d_idx[:, :, 1] += 1
    np.add(c_row, il, out=c_idx[:, :, 0])
    np.add(c_row, ih, out=c_idx[:, :, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = np.divide(step, span, out=ws.view("dens", k, n))
        d_val[:, :, 0] = dens
        np.negative(dens, out=d_val[:, :, 1])
        # -(dens * (lo_c - (e0 + il * delta))) at the first cell and
        # -(dens * ((e0 + (ih + 1) * delta) - hi_c)) at the last, in this
        # operation order
        g = c_val[:, :, 0]
        np.multiply(il, delta, out=g)
        g += e0
        np.subtract(lo_c, g, out=g)
        g *= dens
        np.negative(g, out=g)
        g = c_val[:, :, 1]
        ih += 1
        np.multiply(ih, delta, out=g)
        g += e0
        g -= hi_c
        g *= dens
        np.negative(g, out=g)
    d_val[idle] = 0.0
    c_val[idle] = 0.0
    if any_tiny:
        pm = tiny & (np.abs(wa) < top)
        if pm.any():
            ic = np.clip(((wa[pm] - e0) / delta).astype(np.int64), 0, nc - 1)
            c_idx[pm, 0] = np.broadcast_to(c_row, (k, n))[pm] + ic
            c_val[pm, 0] = step[pm]
    return _Scatter(diff, d_idx, d_val), _Scatter(corr, c_idx, c_val)


def _excursion_block(spec: StableSpec, tab: _EngineTables, t_arr: np.ndarray,
                     dt: float, seed: int, path_lo: int, m: int,
                     step_cap: int) -> np.ndarray:
    """Walk m paths until each has crossed every local-time target.

    The walk runs in chunks of up to ``_CHUNK`` lockstep steps.  Phase one
    loops over the steps and advances only the Brownian recursion
    ``w <- w + sqrt(max(dt, (0.1 |w|)^2)) z``, the one quantity a step hands
    to the next.  Phase two derives everything else for the whole chunk at
    once: the origin local time l0 and the running time integral as
    cumulative sums from the carried state, the near-field cell scatter, and
    the target crossings, replayed in step order.  Each path takes one
    normal per step from its own keyed stream, drawn ahead in slabs (see
    :class:`_Normals`), and every per-path sum adds in step order, so the
    output does not depend on the chunk length.  Paths that finish inside a
    chunk walk on to its end; those steps are never read.
    """
    nt = t_arr.size
    out = np.empty((m, nt), dtype=np.float64)
    live = np.arange(m)                    # block rows of unfinished paths, ascending
    normals = _Normals(seed, TAG_EXCURSION, range(path_lo, path_lo + m))
    w_cur = np.zeros(m)
    a_cur = tab.anti(w_cur)
    l0 = np.zeros(m)
    kfar = np.zeros(m)
    ti = np.zeros(m, dtype=np.int64)       # targets crossed so far
    delta0 = tab.sqdt                      # origin bandwidth = sqrt(dt)
    if tab.near:
        diff = _mapped(m, tab.n_cells + 1)
        corr = _mapped(m, tab.n_cells)
    ws = _ChunkWorkspace(2 * m)            # two values per path-step
    iters = 0
    while live.size:
        n = live.size
        # ---- phase 1: the Brownian recursion, step by step -----------------
        z = normals.take(step_cap + 1 - iters)
        k = len(z)
        W = ws.view("w", k + 1, n)
        step = ws.view("step", k, n)
        tmp = ws.view("tmp", n)
        W[0] = w_cur
        for i in range(k):
            # level-dependent step: fine near the origin, coarse far away, so
            # a step is never large relative to the distance to 0
            s = step[i]
            np.abs(W[i], out=s)
            s *= 0.1
            np.square(s, out=s)
            np.maximum(s, dt, out=s)
            np.sqrt(s, out=tmp)
            tmp *= z[i]
            np.add(W[i], tmp, out=W[i + 1])
        # ---- phase 2: everything else, over the (k, n) chunk ---------------
        wa, w1 = W[:-1], W[1:]
        lo = np.minimum(wa, w1, out=ws.view("lo", k, n))
        hi = np.maximum(wa, w1, out=ws.view("hi", k, n))
        span = np.subtract(hi, lo, out=ws.view("span", k, n))
        tiny = np.less_equal(span, 1e-9, out=ws.view("tiny", k, n, dtype=np.bool_))
        any_tiny = tiny.any()
        # origin local time: linear-bridge overlap with (-delta0, delta0);
        # row 0 of DL/DK carries the state, so a cumulative sum continues it
        DL = ws.view("dl", k + 1, n)
        DL[0] = l0
        dl = DL[1:]
        np.minimum(hi, delta0, out=dl)
        dl -= np.maximum(lo, -delta0, out=ws.view("tmp2", k, n))
        np.clip(dl, 0.0, None, out=dl)
        with np.errstate(divide="ignore", invalid="ignore"):
            dl /= span
        if any_tiny:
            dl[tiny] = np.abs(wa[tiny]) < delta0
        dl *= step
        dl /= 2.0 * delta0
        # running time-integral part of K (all of K when alpha < 1), with the
        # antiderivative evaluated once per point
        A = ws.view("anti", k + 1, n)
        A[0] = a_cur
        tab.anti(w1, out=A[1:])
        DK = ws.view("dk", k + 1, n)
        DK[0] = kfar
        dk = DK[1:]
        np.subtract(A[1:], A[:-1], out=dk)
        with np.errstate(divide="ignore", invalid="ignore"):
            dk /= np.subtract(w1, wa, out=ws.view("tmp2", k, n))
        if any_tiny:
            dk[tiny] = tab.point_weight(wa[tiny])
        dk *= step
        L = np.cumsum(DL, axis=0, out=ws.view("l0", k + 1, n))
        KF = np.cumsum(DK, axis=0, out=ws.view("kfar", k + 1, n))
        if tab.near:
            d_sc, c_sc = _near_scatter(tab, diff, corr, live, lo, hi, tiny, any_tiny,
                                       step, span, wa, ws)
        # crossings: target j is read at the first step whose end l0 exceeds
        # t_j; l0 is monotone, so counts locate every crossing in the chunk
        ti_end = np.searchsorted(t_arr, L[k], side="left")
        n_ev = ti_end - ti[live]
        last = k
        if n_ev.any():
            col = np.repeat(np.arange(n), n_ev)
            first = np.repeat(np.cumsum(n_ev) - n_ev, n_ev)
            tgt = ti[live][col] + (np.arange(col.size) - first)
            t_ev = t_arr[tgt]
            s_ev = np.count_nonzero(L[1:, col] <= t_ev, axis=0)
            rows = live[col]
            frac = (t_ev - L[s_ev, col]) / DL[s_ev + 1, col]
            val = KF[s_ev, col] + frac * DK[s_ev + 1, col]
            if tab.near:
                # replay grouped as a step-by-step walk batches them: by step,
                # then by pass (targets already crossed in that step), rows
                # ascending; the near field and its compensator are taken at
                # the end of the crossing step
                pss = tgt - np.searchsorted(t_arr, L[s_ev, col], side="left")
                order = np.lexsort((rows, pss, s_ev))
                s_o, p_o = s_ev[order], pss[order]
                cuts = np.flatnonzero((np.diff(s_o) != 0) | (np.diff(p_o) != 0)) + 1
                for g in np.split(order, cuts):
                    s = int(s_ev[g[0]])
                    d_sc.through(s)
                    c_sc.through(s)
                    r = rows[g]
                    out[r, tgt[g]] = val[g] + _near_field(diff[r], corr[r], tab) \
                        - L[s_ev[g] + 1, col[g]] * tab.compensator
            else:
                out[rows, tgt] = val
            if not np.any(ti_end < nt):
                last = int(s_ev.max()) + 1
        if tab.near:
            d_sc.through(k - 1)
            c_sc.through(k - 1)
        iters += last
        if iters > step_cap:
            raise HorizonExceeded(
                f"a path exceeded {step_cap} steps before its local-time target; "
                f"dt = {dt:g} is too small relative to the requested horizon")
        keep = ti_end < nt
        ti[live] = ti_end
        w_cur, a_cur = W[k][keep], A[k][keep]
        l0, kfar = L[k][keep], KF[k][keep]
        live = live[keep]
        normals.keep(keep)
    return out


def stable_via_excursions(spec: StableSpec, t_points, dt: float, n_paths: int,
                          seed: int = 0, *, threads: int | None = None) -> np.ndarray:
    """Samples of K at inverse-local-time instants, one row per path.

    K is the weighted Brownian local-time functional whose law, read at the
    inverse local time of the origin, is the stable law of ``spec``; the
    branch (running time integral, compensated field on [-1, 1] plus far-field
    time integral, or the log-weight truncated form) follows alpha.  Returns
    an (n_paths, len(t_points)) array; column j holds K at tau_{t_j}.
    """
    if not (0.0 < spec.alpha < 2.0):
        raise InvalidAlpha(
            f"the pathwise construction covers alpha in (0, 2), got {spec.alpha}; "
            "alpha = 2 is Gaussian and needs no construction")
    t_arr = np.atleast_1d(np.asarray(t_points, dtype=np.float64)).ravel()
    if t_arr.size == 0 or not np.all(np.isfinite(t_arr)) or t_arr[0] <= 0.0 \
            or np.any(np.diff(t_arr) <= 0.0):
        raise InvalidRequest("t_points must be strictly increasing and positive")
    if not (math.isfinite(dt) and 0.0 < dt <= 0.25):
        raise InvalidRequest(f"dt must lie in (0, 0.25], got {dt!r}")
    _check_count("n_paths", n_paths)
    tab = _EngineTables(spec, dt)
    step_cap = max(20_000_000, int(2000.0 * (t_arr[-1] + 1.0) / tab.sqdt))
    parts = _run_blocks(
        lambda idx: _excursion_block(spec, tab, t_arr, dt, seed, int(idx[0]), idx.size,
                                     step_cap),
        n_paths, _BLOCK, threads)
    return np.vstack(parts)
