"""Reference stable laws, two independent ways.

Route one samples a stable law directly from its characteristic function via
the classical trigonometric (CMS) transform of a uniform and an exponential
variate.  Route two builds the same law pathwise from a Brownian motion: an
additive functional of the path (a weighted integral of its local-time field,
compensated at the origin) is read off at inverse-local-time instants, which
turns it into a stable process.  Agreement of the two routes is what the
validation layer checks; neither route knows about diffusions or regimes.

The pathwise engine never stores the local-time field: by the occupation
identity int w(x) L_t^x dx = int_0^t w(W_s) ds, each part of the functional,
the binned field on [-1, 1] at alpha >= 1 included, is a running time
integral along the walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import TAG_CMS, TAG_EXCURSION, checked_seed, stream
from ._workspace import _ChunkWorkspace, _cumsum_end, _first_passages, _Normals, _run_blocks
from .asymptotics import EULER_GAMMA, LimitLaw, _lambda_alpha
from .errors import HorizonExceeded, InvalidAlpha, InvalidRequest

__all__ = [
    "StableSpec",
    "sample_limit_law",
    "sample_stable_cf",
    "stable_cf",
    "stable_via_excursions",
]

_BLOCK = 512          # widest block of paths; results do not depend on the width
# most live paths whose phase-1 steps the excursion walk takes path by path
# in Python floats: about 0.12 us per path-step, against 2.8 us per step
# for the five ufunc calls at any width up to 64.  Serial 256-path blocks
# at dt = 1e-5 ran alike at 24 and 32 and slower at 16 and 48
_NARROW = 32
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
    log-of-scale drift correction and the tau shift.  A seed that is not an
    integer in [0, 2**64) raises :class:`InvalidRequest`.
    """
    seed = checked_seed(seed)
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
    the test-suite pins at machine precision.  A seed that is not an
    integer in [0, 2**64) raises :class:`InvalidRequest`.
    """
    seed = checked_seed(seed)
    if not (math.isfinite(t) and t > 0.0):
        raise InvalidRequest(f"t must be positive, got {t!r}")
    _check_count("n", n)
    if law.regime in ("Diffusive", "CriticalDiffusive"):
        z = stream(seed, TAG_CMS, 0).standard_normal(n)
        return law.sigma_alpha * math.sqrt(t) * z
    spec = StableSpec(law.alpha, law.f_plus, law.f_minus)
    return law.kappa ** (1.0 / law.alpha) * sample_stable_cf(spec, t, n, seed)


# ---------------------------------------------------------------------------
# Pathwise construction: K evaluated at inverse local time
# ---------------------------------------------------------------------------


class _EngineTables:
    """Per-(spec, dt) precomputation for the excursion engine.

    For alpha >= 1 the weight |x|^{1/alpha - 2} is not integrable through 0,
    so K splits into a near field on [-1, 1] (binned local-time estimates
    against exact cell integrals ``weights`` of the weight, compensated by
    L^0) and a far field |x| > 1.  Both are running time integrals: the far
    field of the weight, with its L^0 compensator in closed form, the near
    field of the piecewise-constant ``smooth``, whose antiderivative is
    ``omega`` on ``edges``.  For alpha < 1 the whole of K is the running
    time integral of an integrable weight.
    """

    def __init__(self, spec: StableSpec, dt: float):
        self.spec = spec
        self.p = 1.0 / spec.alpha - 2.0
        self.q = self.p + 1.0
        self.sqdt = math.sqrt(dt)
        self.near = spec.alpha >= 1.0
        self.sign_ab = np.array([-spec.b, spec.a])   # anti's factor at x < 0, x >= 0
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
        # time in a cell counts with its weight smoothed by the binned field's
        # window (the cell plus half of each neighbour, width 2 delta); omega
        # is the antiderivative at the edges and rise its increments
        pad = np.pad(w, 1)
        self.smooth = (w + 0.5 * (pad[:-2] + pad[2:])) / (2.0 * self.delta)
        self.rise = self.smooth * self.delta
        self.omega = np.concatenate(([0.0], np.cumsum(self.rise)))

    def anti(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Antiderivative of the time-integral weight, written into ``out``.

        With the near field split off (alpha >= 1) the weight is
        sgn_ab(x)|x|^p 1{|x|>1} and the antiderivative is 0 on [-1, 1];
        otherwise (alpha < 1, q > 0) it is the whole sgn_ab(x)|x|^p,
        continuous at 0.
        """
        q = self.q
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
        # a two-entry table lookup: np.where(x >= 0, a, -b) ran 2-3x slower
        core *= np.take(self.sign_ab, np.greater_equal(x, 0.0).view(np.uint8))
        return core

    def near_anti(self, x: np.ndarray, out: np.ndarray, cell: np.ndarray,
                  tmp: np.ndarray) -> np.ndarray:
        """omega at x, linear in each cell and constant beyond the end edges,
        into ``out``; ``cell`` (int64) and ``tmp`` are scratch of x's shape."""
        np.subtract(x, self.edges[0], out=out)
        out /= self.delta
        np.clip(out, 0.0, self.n_cells, out=out)          # position in cells
        np.minimum(out, self.n_cells - 1, out=cell, casting="unsafe")
        out -= cell
        out *= np.take(self.rise, cell, out=tmp)
        out += np.take(self.omega, cell, out=tmp)
        return out

    def near_weight(self, x: np.ndarray) -> np.ndarray:
        """Near-field weight at x: its cell's ``smooth``, 0 off the grid."""
        # clamping before the cast keeps far-away levels from overflowing it
        cell = np.clip((x - self.edges[0]) / self.delta, 0, self.n_cells - 1)
        return np.where(np.abs(x) < self.edges[-1], self.smooth[cell.astype(np.int64)], 0.0)

    def point_weight(self, x: np.ndarray) -> np.ndarray:
        """Integrand value for degenerate (zero-span) steps, singularity floored."""
        ax = np.maximum(np.abs(x), self.sqdt)
        val = ax ** self.p
        if self.near:
            val = np.where(np.abs(x) > 1.0, val, 0.0)
        return self.spec.sgn_ab(x) * val


def _excursion_block(tab: _EngineTables, t_arr: np.ndarray, dt: float, seed: int,
                     path_lo: int, m: int, step_cap: int) -> np.ndarray:
    """Walk m paths until each has crossed every local-time target.

    The walk runs in chunks of lockstep steps, ``_CHUNK`` long at full
    width and longer as paths finish (see :meth:`_Normals.take`).  A step
    lasts ``step = max(dt, (0.1 |w|)^2)``: fine near the origin, coarse far
    away.  Phase one loops over the steps and advances only the Brownian
    recursion ``w <- w + max(sqrt(dt), 0.1 |w|) z``, the one quantity a step
    hands to the next: in five ufunc calls per step, or, once at most
    ``_NARROW`` paths are live, path by path in Python floats, which round
    alike; in binary64 ``max(sqrt(dt), 0.1 |w|)`` equals ``sqrt(step)`` bit
    for bit, since sqrt(RN(s^2)) = |s| without under- or overflow and
    rounded sqrt is monotone.  Phase two
    derives everything else for the whole chunk at once: ``step`` from the
    chunk's start rows, then the increments of the origin local time l0 and
    of the far-field and (alpha >= 1) near-field running time integrals
    below their carried state, whose ends are read by one reduction in step
    order (see :func:`_cumsum_end`), and the target crossings, for which
    only the columns whose l0 passes a target are summed step by step (see
    :func:`_first_passages`).  A step spreads its duration uniformly over
    the levels it spans, so it adds ``step * (F(hi) - F(lo)) / (hi - lo)``
    to a time integral with weight antiderivative F (``anti`` for the far
    field, ``near_anti`` for the near field); a zero-span step adds
    ``step`` times the weight at its level.  At alpha >= 1 the far-field
    weight is 0 on [-1, 1], so only the paths that step beyond it in a
    chunk, or pass a target, are evaluated there, and a chunk without such
    a path skips the far field.  A chunk in which no path passes a target
    reads nothing out.  Each path takes one
    normal per step from its own keyed stream, drawn ahead in slabs (see
    :class:`_Normals`), and every per-path sum adds in step order, so the
    output depends neither on the chunk length nor on the block width.
    Paths that finish inside a chunk walk on to its end; those steps are
    never read.
    """
    nt = t_arr.size
    out = np.empty((m, nt), dtype=np.float64)
    live = np.arange(m)                    # block rows of unfinished paths, ascending
    w_cur, l0, kfar, knear = np.zeros((4, m))
    ti = np.zeros(m, dtype=np.int64)       # targets crossed so far
    sqdt = delta0 = tab.sqdt               # sqrt(dt), also the origin bandwidth
    ws = _ChunkWorkspace(m)
    iters = 0
    with _Normals(seed, TAG_EXCURSION, range(path_lo, path_lo + m)) as normals:
        while live.size:
            n = live.size
            # ---- phase 1: the Brownian recursion, step by step -------------
            z = normals.take(step_cap + 1 - iters)
            k = len(z)
            W = ws.view("w", k + 1, n)
            W[0] = w_cur
            if n > _NARROW:
                for i in range(k):
                    s = W[i + 1]
                    np.abs(W[i], out=s)
                    s *= 0.1
                    np.maximum(s, sqdt, out=s)
                    s *= z[i]
                    s += W[i]
            else:
                # path by path in Python floats, which round like the
                # ufuncs; ``sqdt if a < sqdt else a`` is np.maximum(a,
                # sqdt) here, nan included
                for j, (w, zj) in enumerate(zip(w_cur.tolist(), z.T.tolist())):
                    for i, zi in enumerate(zj):
                        a = abs(w) * 0.1
                        zj[i] = w = w + (sqdt if a < sqdt else a) * zi
                    W[1:, j] = zj
            # ---- phase 2: everything else, over the (k, n) chunk -----------
            wa, w1 = W[:-1], W[1:]
            # the step durations, whose square roots phase 1 took; a step is
            # never large relative to the distance to 0
            step = np.abs(wa, out=ws.view("step", k, n))
            step *= 0.1
            np.square(step, out=step)
            np.maximum(step, dt, out=step)
            lo = np.minimum(wa, w1, out=ws.view("lo", k, n))
            hi = np.maximum(wa, w1, out=ws.view("hi", k, n))
            span = np.subtract(hi, lo, out=ws.view("span", k, n))
            dw = np.subtract(w1, wa, out=ws.view("dw", k, n))
            tiny = np.less_equal(span, 1e-9, out=ws.view("tiny", k, n, dtype=np.bool_))
            any_tiny = tiny.any()
            # origin local time: linear-bridge overlap with (-delta0, delta0);
            # row 0 of each increment array carries the state
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
            l_end = _cumsum_end(DL)
            # target j is read in the first step whose end l0 exceeds t_j;
            # only the columns that pass a target in this chunk are summed
            ti_end = np.searchsorted(t_arr, l_end, side="left")
            passing = ti_end > ti[live]

            def running(F, carry, point, name, cols=slice(None)):
                # the increments of a time integral with weight
                # antiderivative F (evaluated at every row of W[:, cols])
                # and point weight ``point``, below the carry
                D = ws.view(name, *F.shape)
                D[0] = carry
                d = np.subtract(F[1:], F[:-1], out=D[1:])
                with np.errstate(divide="ignore", invalid="ignore"):
                    d /= dw[:, cols]
                if any_tiny:
                    t = tiny[:, cols]
                    d[t] = point(wa[:, cols][t])
                d *= step[:, cols]
                return D
            # the far field (all of K when alpha < 1).  At alpha >= 1 its
            # weight lives on |x| > 1, so a step within [-1, 1] adds exactly
            # 0 (as +-0.0, which no sum or read-out tells apart): only the
            # paths that step beyond it in this chunk, about 2.5% of them at
            # dt = 1e-5, or pass a target are evaluated, and the others keep
            # the carry
            pc = np.flatnonzero(passing)
            cols, at = slice(None), pc      # at: where pc lies among cols
            if tab.near:
                cols = np.flatnonzero(passing | (hi.max(axis=0) > 1.0) | (lo.min(axis=0) < -1.0))
                at = np.searchsorted(cols, pc)
            if not tab.near or cols.size:
                Wc = W[:, cols]
                DK = running(tab.anti(Wc, out=ws.view("anti", *Wc.shape)), kfar[cols],
                             tab.point_weight, "dkfar", cols)
                kfar[cols] = _cumsum_end(DK)
            # and the near field, which every chunk carries
            if tab.near:
                O = tab.near_anti(W, ws.view("omega", k + 1, n),
                                  ws.view("cell", k + 1, n, dtype=np.int64),
                                  ws.view("tmp2", k + 1, n))
                DN = running(O, knear, tab.near_weight, "dknear")
                knear = _cumsum_end(DN)
            # the read-out, on the columns that pass a target only; the near
            # field joins it with its compensator at the end of that step
            if pc.size:
                DKp, DLp = DK[:, at], DL[:, pc]
                Lp = np.cumsum(DLp, axis=0)
                _, col, tgt, s_ev, val = _first_passages(Lp, DLp, np.cumsum(DKp, axis=0), DKp,
                                                         t_arr, ti[live[pc]], "left")
                if tab.near:
                    KNp = np.cumsum(DN[:, pc], axis=0)
                    val = val + KNp[s_ev + 1, col] - Lp[s_ev + 1, col] * tab.compensator
                out[live[pc[col]], tgt] = val
            keep = ti_end < nt
            iters += k if keep.any() else int(s_ev.max()) + 1
            if iters > step_cap:
                raise HorizonExceeded(
                    f"a path exceeded {step_cap} steps before its local-time target; "
                    f"dt = {dt:g} is too small relative to the requested horizon")
            ti[live] = ti_end
            w_cur, l0, kfar = W[k][keep], l_end[keep], kfar[keep]
            if tab.near:
                knear = knear[keep]
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

    ``threads`` is the number of forked worker processes the path blocks
    are shared among (``None``: one per CPU this process may run on; 1
    runs every block in this process).  The output is bit-identical
    whatever ``threads`` is.  A seed that is not an integer in [0, 2**64)
    raises :class:`InvalidRequest`.
    """
    seed = checked_seed(seed)
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
        lambda idx: _excursion_block(tab, t_arr, dt, seed, int(idx[0]), idx.size, step_cap),
        n_paths, _BLOCK, threads)
    return np.vstack(parts)
