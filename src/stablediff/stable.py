"""Reference stable laws, two independent ways.

Route one samples a stable law directly from its characteristic function via
the classical trigonometric (CMS) transform of a uniform and an exponential
variate.  Route two builds the same law from Brownian local time: a weighted
integral of the local-time field, compensated at the origin, read off at
inverse-local-time instants, which turns it into a stable process.
Agreement of the two routes is what the validation layer checks; neither
route knows about diffusions or regimes, and route two never sees the
characteristic function.

Route two samples the field from its exact law.  By the Ray-Knight theorem
(Revuz and Yor, *Continuous Martingales and Brownian Motion*, ch. XI), at
the inverse local time tau_ell of the origin the field x -> L^x, on each
side of 0, is a BESQ^0 process started at ell, the two sides independent.
BESQ^0 has an exact transition law, a Gamma law whose shape is a Poisson
draw, so the field is drawn level by level, with no Brownian path and no
time step.  The field is integrated as linear within each cell of levels,
and the grid spends its levels where that error lies: geometric by 1.02
at and above the smallest local-time increment (or 1), and wider cells
below it, where the field has barely left its start (``_levels``).
Between two local-time targets the field grows by an independent field
of the same law, started at the increment of ell, so each increment has
its own chains and a cumulative sum reads the targets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._rng import TAG_CMS, TAG_EXCURSION, checked_seed, stream
from ._workspace import _MIN_WIDTH, _run_blocks
from .asymptotics import EULER_GAMMA, LimitLaw, _lambda_alpha, _xlogabs
from .errors import InvalidAlpha, InvalidRequest

__all__ = [
    "StableSpec",
    "sample_limit_law",
    "sample_stable_cf",
    "stable_cf",
    "stable_via_excursions",
]

# largest ratio of neighbouring levels of the Ray-Knight grid at and above
# x_c = min(1, smallest t_points increment); below x_c a cell's ratio grows
# to at most 1.5 as its share of the quadrature error falls (``_levels``)
_RATIO = 1.02
# a t_points increment below _DEPTH * dt moves the innermost level down to
# the increment / _DEPTH: a column started that close to its first level
# is mostly absorbed within the first cell, where Z is taken as linear
# (with its bridge term, ``_LevelGrid.bridge``)
_DEPTH = 1000.0
_HALF_PI = math.pi / 2.0


def _signed_power(x: float, alpha: float) -> float:
    return math.copysign(abs(x) ** alpha, x)


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
                    + _xlogabs(a) + _xlogabs(b))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "tau", tau)


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
# Pathwise construction: K read off the Ray-Knight local-time field
# ---------------------------------------------------------------------------


def _cell_weights(p: float, x0: float, x1: float) -> tuple[float, float]:
    """(A, B) with int_{x0}^{x1} Z(x) x^p dx = A Z(x0) + B Z(x1) for Z
    linear on [x0, x1], from the exact moments of x^p and x^(p+1) there.

    On the first cell, x0 = 0, A is infinite unless p > -1.
    """
    q, q1 = p + 1.0, p + 2.0        # q1 = 1/alpha > 0: x^(p+1) is integrable at 0
    if x0 == 0.0:
        b = x1 ** q / q1
        return (x1 ** q / q - b if q > 0.0 else math.inf), b
    u = math.log(x1 / x0)
    m0 = x0 ** q * (math.expm1(q * u) / q if q else u)      # int x^p
    m1 = x0 ** q1 * math.expm1(q1 * u) / q1                 # int x^(p+1)
    b = (m1 - x0 * m0) / (x1 - x0)
    return m0 - b, b


def _levels(p: float, x_min: float, x_c: float):
    """The level grid's nodes, without end: x_min, x_c and 1 among them.

    At and above x_c the cells grow geometrically by a ratio of at most
    ``_RATIO``, 1 a node, and by ``_RATIO`` above 1.  Below x_c a cell
    whose lower end is x has a ratio of at most

        R(x) = 1 + min(1/2, (_RATIO - 1) (x_c / x)^((2p + 3) / 4)).

    Why: a cell [x, R x] integrates Z as linear, and what it misses is the
    integral of a Brownian bridge with the variance rate 4 Z of BESQ^0
    against x^p, of variance about Z (R - 1)^3 x^(2p+3) / 3.  Per unit of
    log-level that is Z (R - 1)^2 x^(2p+3) / 3.  Below x_c, where Z is still
    close to the column's start, a fixed ratio makes this density fall like
    x^(2p+3) = x^(2/alpha - 1): the deep cells cost levels and carry almost
    no error.  Under R(x) it falls like x^((2p+3)/2), so the missed variance
    below x_c at most doubles (an rms error at most sqrt(2) times the fixed
    ratio's), while the levels up to 1 from x_min = 1e-5, x_c = 1 fall from
    583 to 84, 195, 312, 377 and 541 at alpha = 0.5, 1, 4/3, 1.5 and 1.9.

    The cells below x_c are walked up from x_min, each at its ratio R(x),
    and the walk is then pulled towards x_min until its last node is x_c:
    every ratio shrinks and every node moves down, where R allows more.
    """
    e = (2.0 * p + 3.0) / 4.0
    x_cap = x_c * (0.5 / (_RATIO - 1.0)) ** (-1.0 / e)     # R is 1.5 at and below

    def ratio(x: float) -> float:
        return 1.5 if x <= x_cap else 1.0 + (_RATIO - 1.0) * (x_c / x) ** e

    walk = [x_min]
    while walk[-1] < x_c:
        walk.append(walk[-1] * ratio(walk[-1]))
    f = math.log(x_c / x_min) / math.log(walk[-1] / x_min)
    yield x_min
    yield from (x_min * (x / x_min) ** f for x in walk[1:-1])
    n = math.ceil(-math.log(x_c) / math.log(_RATIO))
    yield from np.geomspace(x_c, 1.0, n + 1).tolist()
    for k in itertools.count(1):
        yield _RATIO ** k


class _LevelGrid:
    """The cells of :func:`_levels` with their :func:`_cell_weights`, made
    once per call and shared by its blocks; a block that walks past the
    deepest cell yet made extends the grid.

    ``bridge`` is 2 sqrt(C), C = x_min^(2p+3) / ((p+2)^2 (2p+3)): on the
    first cell Z - ell is about 2 sqrt(ell) W for a Brownian motion W in
    the level, and C is the variance of int_0^x_min W x^p dx given
    W(x_min), the part that a Z linear on [0, x_min] misses.  It is the
    fraction alpha/2 of that cell's variance (95% at alpha = 1.9).
    """

    def __init__(self, p: float, x_min: float, x_c: float):
        self._p = p
        self._levels = _levels(p, x_min, x_c)
        self.x_min = self._x1 = next(self._levels)
        self.first = _cell_weights(p, 0.0, self.x_min)     # (A, B) of [0, x_min]
        q = 2.0 * p + 3.0
        self.bridge = 2.0 * math.sqrt(x_min ** q / ((p + 2.0) ** 2 * q))
        self._cells: list[tuple[float, float, float]] = []

    def __iter__(self):
        """(2 h, A, B) of each cell after the first, h its width."""
        for k in itertools.count():
            if k == len(self._cells):
                x0, self._x1 = self._x1, next(self._levels)
                self._cells.append((2.0 * (self._x1 - x0),
                                    *_cell_weights(self._p, x0, self._x1)))
            yield self._cells[k]


def _level_too_large(z: float, h2: float) -> InvalidRequest:
    return InvalidRequest(
        f"a local-time level of {z:g} is too large against the level step "
        f"{h2 / 2.0:g}: raise dt or split the t_points increments")


def _besq_step(gen: np.random.Generator, z: np.ndarray, h2: float,
               lam: np.ndarray) -> np.ndarray:
    """BESQ^0 from z, an exact step of h = h2 / 2: Gamma(N, h2) with N ~
    Poisson(z / h2).  ``lam`` is a buffer of z's size."""
    try:
        n = gen.poisson(np.divide(z, h2, out=lam))
    except ValueError as err:       # a rate beyond what numpy's sampler takes
        raise _level_too_large(z.max(), h2) from err
    z = gen.standard_gamma(n)       # gamma(n, h2)'s bits, without its broadcasting
    z *= h2
    return z


# Columns are stepped as arrays while more than this many are live, and in
# Python floats after.  numpy's array poisson and standard_gamma cost 7.4
# and 8.7 us per call before any draw, the scalar calls 0.5 and 0.67 us.
# Over 128-path blocks at dt = 1e-5 (alpha 4/3 and 1, 10 interleaved
# rounds on a 2-core x86 VM), a block took 0.82-0.86 of the array-only
# time at 16 and 24, against 0.88-0.91 at 8 and 0.86-0.95 at 32-64.
_SCALAR_COLUMNS = 24


def _scalar_tail(gen: np.random.Generator, cells, z: np.ndarray, s: np.ndarray,
                 live: np.ndarray, acc: np.ndarray) -> None:
    """Steps the live columns over ``cells`` in Python floats until all are
    absorbed, writing each one's sum into ``acc``.  The draws are the array
    step's, in its order: every Poisson draw of a level in column order,
    then every Gamma draw, none where N = 0 (numpy's Gamma(0) draws
    nothing)."""
    poisson, gamma = gen.poisson, gen.standard_gamma
    z, s, live = z.tolist(), s.tolist(), live.tolist()
    while live:
        h2, a, b = next(cells)
        try:
            n = [poisson(zi / h2) for zi in z]
        except ValueError as err:
            raise _level_too_large(max(z), h2) from err
        z1 = [gamma(k) * h2 if k else 0.0 for k in n]
        s = [si + a * zi + b * zj for si, zi, zj in zip(s, z, z1)]
        z = z1
        if 0.0 in z:
            for col, zi, si in zip(live, z, s):
                if zi == 0.0:
                    acc[col] = si
            live = [col for col, zi in zip(live, z) if zi != 0.0]
            s = [si for si, zi in zip(s, z) if zi != 0.0]
            z = [zi for zi in z if zi != 0.0]


def _ray_knight_block(spec: StableSpec, inc: np.ndarray, grid: _LevelGrid, seed: int,
                      block: int, m: int) -> np.ndarray:
    """K at the targets for the m paths of block ``block``, from its stream.

    A path has a column per side of 0 and per increment ell_j of the
    targets, in (side, path, increment) order: a BESQ^0 chain from ell_j
    over the levels of ``grid``, one Poisson and one Gamma draw per cell.
    Each column sums int Z x^p dx, p = 1/alpha - 2, over the cells, with Z
    linear within each (:func:`_cell_weights`), until it is absorbed at 0
    and leaves the chain.  The weight is compensated by -ell per unit on
    all levels when alpha > 1 and on levels up to 1 when alpha = 1.  The
    first cell, [0, x_min], is then taken against Z - ell, whose A term is
    0; the rest of the compensator, -ell int_x_min x^p dx over the
    compensated levels, is owed in closed form wherever the column is
    absorbed.  The first cell also gets the Brownian-bridge part that a
    linear Z misses, sqrt(ell) ``grid.bridge`` N with N a standard normal
    per column, drawn before the chain's first step.  The levels and
    weights come from the call's shared grid, the array steps reuse one
    rate and one product buffer, and once at most ``_SCALAR_COLUMNS``
    columns are live they are stepped in Python floats
    (:func:`_scalar_tail`), with the same draws in the same order.
    """
    gen = stream(seed, TAG_EXCURSION, block)
    p = 1.0 / spec.alpha - 2.0
    ell = np.broadcast_to(inc, (2, m, inc.size)).ravel()
    x0 = grid.x_min
    a0, b0 = grid.first
    lam = np.empty(ell.size)
    prod = np.empty(ell.size)
    bridge = np.sqrt(ell) * grid.bridge * gen.standard_normal(ell.size)
    z = _besq_step(gen, ell, 2.0 * x0, lam)
    if spec.alpha < 1.0:
        s, owed = ell * a0 + z * b0, 0.0
    else:
        s = (z - ell) * b0
        owed = -math.log(x0) if spec.alpha == 1.0 else x0 ** (p + 1.0) / -(p + 1.0)
    s += bridge
    acc = np.empty_like(s)
    live = np.arange(s.size)        # columns not yet absorbed
    cells = iter(grid)
    if live.size > _SCALAR_COLUMNS:
        for h2, a, b in cells:
            w = z.size
            z1 = _besq_step(gen, z, h2, lam[:w])
            s += np.multiply(z, a, out=prod[:w])
            s += np.multiply(z1, b, out=prod[:w])
            z = z1
            if np.count_nonzero(z) < w:
                gone = z == 0.0
                acc[live[gone]] = s[gone]
                keep = ~gone
                live, z, s = live[keep], z[keep], s[keep]
                if live.size <= _SCALAR_COLUMNS:
                    break
    _scalar_tail(gen, cells, z, s, live, acc)
    k = (acc - owed * ell).reshape(2, m, inc.size)
    return np.cumsum(spec.b * k[0] + spec.a * k[1], axis=1)


def stable_via_excursions(spec: StableSpec, t_points, dt: float, n_paths: int,
                          seed: int = 0, *, threads: int | None = None) -> np.ndarray:
    """Samples of K at inverse-local-time instants, one row per path.

    K is the weighted Brownian local-time functional whose law, read at the
    inverse local time of the origin, is the stable law of ``spec``.
    Returns an (n_paths, len(t_points)) array; column j holds K at
    tau_{t_j}.  The local-time field comes from its Ray-Knight law, an
    exact BESQ^0 chain per side over a grid of levels: the innermost level
    is ``dt``, or the smallest increment of ``t_points`` over 1000 when that
    increment is below 1000 ``dt``.  At and above x_c, the smallest
    increment or 1 if that is less, the cells grow geometrically by a ratio
    of at most 1.02, and 1 is a level; below x_c a cell's ratio grows with
    depth, up to 1.5, so that each cell carries a like share of the
    quadrature error (``_levels``).  The chain's steps are exact; within a
    cell, the field is integrated as linear between its ends, and the first
    cell, [0, innermost level], adds the Brownian-bridge part that a linear
    field misses there.

    ``threads`` is the number of forked worker processes the path blocks
    are shared among (``None``: one per CPU this process may run on; 1
    runs every block in this process).  Each block of
    ``_workspace._MIN_WIDTH`` paths draws from one stream keyed by the
    block's index, and the blocks are the same for any ``threads``, so the
    output is bit-identical whatever ``threads`` is.  A seed that is not an
    integer in [0, 2**64) raises :class:`InvalidRequest`, and so does an
    increment of ``t_points`` too large against ``dt`` for numpy's Poisson
    sampler, or so small that its innermost level leaves the normal range
    of float64.
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
    inc = np.diff(t_arr, prepend=0.0)
    x_min = inc.min() / _DEPTH if inc.min() < _DEPTH * dt else dt
    if x_min < np.finfo(np.float64).tiny:
        raise InvalidRequest(
            f"a t_points increment of {inc.min():g} is too small for the level grid")
    grid = _LevelGrid(1.0 / spec.alpha - 2.0, x_min, min(1.0, float(inc.min())))
    parts = _run_blocks(
        lambda idx: _ray_knight_block(spec, inc, grid, seed, int(idx[0]) // _MIN_WIDTH,
                                      idx.size),
        n_paths, _MIN_WIDTH, threads)
    return np.vstack(parts)
