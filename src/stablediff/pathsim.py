"""Monte Carlo engines for the rescaled additive functional.

:func:`rescaled_functional`, the one entry point, samples the running
integral ``int_0^{t/eps} f(X_s) ds`` on a grid of horizon times ``t_i`` --
raw without a limit law, normalized with one -- by two independent routes,
and raises when a run fails a gate (too many exploded paths, clipped clock
rates or off-table steps):

* ``Direct`` -- Euler--Maruyama on the diffusion itself, integrating f along
  the path with the left-endpoint rule.
* ``TimeChange`` -- never simulates X.  A driving Brownian motion W feeds two
  coupled accumulators built from the scale-transformed coefficients: the
  occupation clock A, whose crossing of t_i marks rescaled time t_i, and the
  weighted functional H.  Reading H at the crossing reproduces the law of the
  direct route's integral.

Both engines key their noise by (seed, path index, draw index), so a run is
byte-identical for a fixed seed whatever the number of worker processes,
the block width or the order in which blocks run.  The time-change walk
takes level-dependent Brownian steps -- fine near the origin where the clock
accrues, coarse far away -- which keeps the heavy-tailed excursions of the
clock affordable: the cost of visiting height h grows like log(h)^2, not
like the time spent there.

Both engines advance a block of paths as a two-phase chunked walk.  Phase
one steps, one lockstep step at a time, only the recursion a step hands to
the next (X for Direct, W for TimeChange); phase two derives everything else
for the whole chunk at once.  Every per-path sum adds in step order, so the
output depends neither on the chunk length nor on the block width.  One
Euler kernel (:func:`_euler_walk`) serves the Direct engine,
:func:`simulate_path` (a one-path block) and the ensemble test
instrumentation.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import _workspace
from ._rng import TAG_DIRECT, TAG_TIMECHANGE, checked_seed
from ._workspace import _ChunkWorkspace, _cumsum_end, _first_passages, _Normals, _run_blocks
from .asymptotics import LimitLaw
from .errors import (
    ConfigError,
    HorizonExceeded,
    InvalidRequest,
    PathExploded,
)
from .model import DiffusionModel, _array_fn

__all__ = [
    "SCHEMES",
    "SimConfig",
    "FunctionalSample",
    "simulate_path",
    "additive_functional",
    "rescaled_functional",
]

SCHEMES = ("Direct", "TimeChange")

_EULER_BLOCK = 2048       # widest lockstep block of the Euler-Maruyama engine
_BLOCK = 1024             # widest lockstep block of the time-change walk
_CLOCK_SLAB = 256         # normals a clock-walk path draws per generator call
                          # in a full block; a narrower one draws up to
                          # _CLOCK_SLAB * _BLOCK // width, so that no block's
                          # slab buffer passes the full block's 2 MiB
_GUIDE_CAP = 1 << 21      # most entries of a clock table's bracket guide
_GUARD_FACTOR = 10.0      # explosion guard at |X| > guard_factor * domain_cutoff
_MAX_RETRIES = 3          # substitute draws attempted per exploded path
_EXPLODED_TOL = 1e-3      # run fails if more than this fraction of paths explode
_CLIP_RATE = 1e6          # cap on the clock rate dA/du of the time-change walk
_CLIP_TOL = 1e-4          # run fails if more than this fraction of steps clip
                          # (or lie off the clock tables)
_WALK_ITER_CAP = 10_000_000   # lockstep steps a time-change block may take
_MAX_EXTENSIONS = 48      # doublings of the clock walk's Brownian horizon
_MAGIC = b"SDFSAMP1"
_SCHEMA = 1
# the JSON type of each sample-file header key (a bool is none of them)
_HEADER_TYPES = {"n_paths": int, "n_times": int, "seed": int, "dt": (int, float),
                 "epsilon": (int, float), "times": list, "scheme": str,
                 "law": (dict, type(None)), "extra": dict, "n_exploded": int,
                 "clip_fraction": (int, float)}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Run parameters shared by both sampling schemes.

    ``horizon_times`` are the rescaled times t_i at which the functional is
    read; the diffusion is simulated up to t_n / epsilon.  ``dt`` is the
    Euler-Maruyama step for the direct scheme and the relative step-size
    parameter of the time-change walk (whose Brownian step is
    ``dt * max(a_eps, |W|)^2``), so halving dt refines either engine.  The
    grid must put at least 100 steps before the first horizon time:
    dt <= t_1 / (100 * epsilon).
    """

    dt: float
    epsilon: float
    horizon_times: tuple
    n_paths: int
    seed: int = 0
    scheme: str = "Direct"

    def __post_init__(self):
        if not isinstance(self.n_paths, (int, np.integer)) or isinstance(self.n_paths, bool):
            raise ConfigError(f"n_paths must be an integer, got {self.n_paths!r}")
        if self.n_paths < 2:
            raise ConfigError(f"need n_paths >= 2, got {self.n_paths}")
        try:
            checked_seed(self.seed)
        except InvalidRequest as err:
            raise ConfigError(str(err)) from None
        for name in ("dt", "epsilon"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) and v > 0.0):
                raise ConfigError(f"{name} must be a finite positive number, got {v!r}")
        times = tuple(float(t) for t in np.atleast_1d(np.asarray(self.horizon_times)).ravel())
        if len(times) == 0:
            raise ConfigError("horizon_times must be non-empty")
        if not all(math.isfinite(t) and t > 0.0 for t in times):
            raise ConfigError(f"horizon_times must be finite and positive, got {times}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError(f"horizon_times must be strictly increasing, got {times}")
        object.__setattr__(self, "horizon_times", times)
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        bound = times[0] / (100.0 * self.epsilon)
        if self.dt > bound * (1.0 + 1e-12):
            raise ConfigError(
                "dt too coarse: at least 100 steps must precede the first horizon "
                f"time, so dt <= t_1/(100*epsilon) = {bound:g}; got dt = {self.dt:g}")

    @property
    def diffusion_horizon(self) -> float:
        """Unrescaled simulation horizon t_n / epsilon of the direct scheme."""
        return self.horizon_times[-1] / self.epsilon

    @property
    def n_steps(self) -> int:
        """Euler-Maruyama steps covering the unrescaled horizon."""
        return int(math.ceil(self.diffusion_horizon / self.dt - 1e-9))


# ---------------------------------------------------------------------------
# sample container and serialization
# ---------------------------------------------------------------------------


@dataclass
class FunctionalSample:
    """Matrix of functional samples plus everything needed to reproduce it.

    ``values[p, i]`` is path p's (normalized, unless ``law`` is None)
    functional at rescaled time ``times[i]``.  ``n_exploded`` counts original
    path keys that hit the explosion guard and were re-drawn under substitute
    keys; ``clip_fraction`` is the fraction of time-change steps whose clock
    rate hit the safety cap (0.0 for the direct scheme).
    """

    values: np.ndarray
    law: LimitLaw | None
    scheme: str
    seed: int
    dt: float
    epsilon: float
    times: tuple
    n_exploded: int = 0
    clip_fraction: float = 0.0
    #: free-form JSON-serializable run description (model/observable names,
    #: stable-law parameters, ...) carried through both file formats
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.times = tuple(float(t) for t in self.times)
        self.extra = dict(self.extra or {})
        if self.values.ndim != 2 or self.values.shape[1] != len(self.times):
            raise InvalidRequest(
                f"values must be (n_paths, {len(self.times)}), got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise InvalidRequest("sample values must all be finite")
        if self.scheme not in SCHEMES:
            raise InvalidRequest(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def _meta(self) -> dict:
        return {
            "format": "stablediff-functional-sample",
            "schema": _SCHEMA,
            "scheme": self.scheme,
            "seed": int(self.seed),
            "dt": self.dt,
            "epsilon": self.epsilon,
            "times": list(self.times),
            "n_paths": int(self.values.shape[0]),
            "n_times": int(self.values.shape[1]),
            "n_exploded": int(self.n_exploded),
            "clip_fraction": self.clip_fraction,
            "law": None if self.law is None else self.law.to_json(),
            "extra": self.extra,
        }

    @staticmethod
    def _header(raw: bytes) -> tuple[dict, int, int]:
        """A file's UTF-8 JSON header and its ``(n_paths, n_times)``, once checked."""
        try:
            meta = json.loads(raw.decode("utf-8"))
        except ValueError:      # a cut line or a non-UTF-8 byte
            raise InvalidRequest("sample file header is not UTF-8 JSON") from None
        if not isinstance(meta, dict) or meta.get("format") != "stablediff-functional-sample":
            raise InvalidRequest("not a functional-sample file")
        if meta.get("schema") != _SCHEMA:
            raise InvalidRequest(f"unsupported schema {meta.get('schema')!r}")
        missing = [key for key in ("n_paths", "n_times", "law", "scheme", "seed", "dt",
                                   "epsilon", "times") if key not in meta]
        if missing:
            raise InvalidRequest(f"sample file header lacks {', '.join(missing)}")
        wrong = [key for key, kind in _HEADER_TYPES.items() if key in meta and (
            not isinstance(meta[key], kind) or isinstance(meta[key], bool))]
        if "times" not in wrong and not all(
                isinstance(t, (int, float)) and not isinstance(t, bool) for t in meta["times"]):
            wrong.append("times")
        if wrong:
            raise InvalidRequest(f"sample file header has a wrong-typed {', '.join(wrong)}")
        if meta["n_paths"] < 0 or meta["n_times"] < 0:
            raise InvalidRequest("sample file header has a negative n_paths or n_times")
        return meta, meta["n_paths"], meta["n_times"]

    @classmethod
    def _from_meta(cls, meta: dict, values: np.ndarray) -> "FunctionalSample":
        law = None if meta["law"] is None else LimitLaw.from_json(meta["law"])
        return cls(values=values, law=law, scheme=meta["scheme"], seed=meta["seed"],
                   dt=meta["dt"], epsilon=meta["epsilon"], times=tuple(meta["times"]),
                   n_exploded=meta.get("n_exploded", 0),
                   clip_fraction=meta.get("clip_fraction", 0.0),
                   extra=meta.get("extra", {}))

    # -- text format --------------------------------------------------------

    def to_csv(self, path) -> None:
        """One row per path, one column per horizon time.

        Line 1 is a ``#``-prefixed JSON metadata comment; floats are written
        with ``repr`` so a read-back is bit-exact.
        """
        lines = ["# " + json.dumps(self._meta())]
        lines.append("path," + ",".join(f"t={t!r}" for t in self.times))
        for i, row in enumerate(self.values):
            lines.append(f"{i}," + ",".join(repr(float(v)) for v in row))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def from_csv(cls, path) -> "FunctionalSample":
        lines = Path(path).read_bytes().splitlines()
        if not lines or not lines[0].startswith(b"# "):
            raise InvalidRequest("not a functional-sample file (missing metadata line)")
        meta, n_paths, n_times = cls._header(lines[0][2:])
        rows = [ln.split(b",")[1:] for ln in lines[2:] if ln]
        if len(rows) != n_paths or any(len(r) != n_times for r in rows):
            raise InvalidRequest(f"sample body is not {n_paths} rows of {n_times} values")
        try:
            values = np.array([[float(v) for v in r] for r in rows]).reshape(n_paths, n_times)
        except ValueError:
            raise InvalidRequest("sample body holds a value that is not a float") from None
        return cls._from_meta(meta, values)

    # -- binary format -------------------------------------------------------

    def to_binary(self, path) -> None:
        """Magic ``SDFSAMP1``, u32-LE header length, UTF-8 JSON header, then
        the value matrix as little-endian float64 in row-major order."""
        header = json.dumps(self._meta()).encode("utf-8")
        payload = np.ascontiguousarray(self.values, dtype="<f8").tobytes()
        Path(path).write_bytes(_MAGIC + struct.pack("<I", len(header)) + header + payload)

    @classmethod
    def from_binary(cls, path) -> "FunctionalSample":
        blob = Path(path).read_bytes()
        if blob[: len(_MAGIC)] != _MAGIC:
            raise InvalidRequest("not a functional-sample file (bad magic)")
        start = len(_MAGIC) + 4
        hlen = struct.unpack_from("<I", blob, len(_MAGIC))[0] if len(blob) >= start else 0
        if len(blob) < start or start + hlen > len(blob):
            raise InvalidRequest("sample file ends inside its header")
        meta, n_paths, n_times = cls._header(blob[start:start + hlen])
        if len(blob) != start + hlen + 8 * n_paths * n_times:
            raise InvalidRequest(f"sample payload is not {n_paths} x {n_times} float64 values")
        values = np.frombuffer(blob[start + hlen:], dtype="<f8").astype(np.float64)
        return cls._from_meta(meta, values.reshape(n_paths, n_times))


# ---------------------------------------------------------------------------
# single-path simulation and pathwise integration
# ---------------------------------------------------------------------------


def simulate_path(model: DiffusionModel, T: float, dt: float, seed: int = 0):
    """One Euler-Maruyama path from X_0 = 0 on the uniform grid covering T.

    Returns ``(times, X)`` with ``times[k] = k*dt`` (the last point is the
    first grid point at or beyond T).  The path is path 0 of an ensemble run
    with the same seed, bit for bit: a one-path block of the same kernel.
    Raises :class:`PathExploded` (reporting the step) if the path leaves
    ``[-10*domain_cutoff, 10*domain_cutoff]``.
    """
    if not (isinstance(T, (int, float)) and not isinstance(T, bool)
            and math.isfinite(T) and T > 0.0):
        raise InvalidRequest(f"T must be a finite positive number, got {T!r}")
    if not (isinstance(dt, (int, float)) and not isinstance(dt, bool)
            and math.isfinite(dt) and 0.0 < dt <= T):
        raise InvalidRequest(f"dt must lie in (0, T], got {dt!r}")
    model.core()  # runs the coefficient checks (array contract, finiteness, sigma > 0)
    n = int(math.ceil(T / dt - 1e-9))
    times = np.arange(n + 1) * dt
    guard = _GUARD_FACTOR * model.domain_cutoff
    X = np.empty(n + 1)
    X[0] = 0.0
    exploded = np.full(1, -1, dtype=np.int64)
    for k0, rows in _euler_walk(model.drift, _diffusion(model), dt, n, guard, int(seed),
                                np.zeros(1, dtype=np.int64), exploded):
        if exploded[0] >= 0:
            k = int(exploded[0])
            raise PathExploded(
                f"path left [-{guard:g}, {guard:g}] at step {k} "
                f"(t = {k * dt:g})", step=k)
        X[k0 + 1:k0 + len(rows)] = rows[1:, 0]
    return times, X


def additive_functional(path, f: Callable) -> np.ndarray:
    """Running left-rule integral of f along a simulated path.

    ``path`` is the ``(times, X)`` pair from :func:`simulate_path`; the
    return value ``F`` satisfies ``F[k] = sum_{j<k} f(X_j) * dt``, so for
    f == 1 it reproduces ``times`` bit for bit.
    """
    times, X = path
    times = np.asarray(times, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    if times.ndim != 1 or times.shape != X.shape or times.size < 2:
        raise InvalidRequest("path must be a (times, X) pair of equal-length 1-d arrays")
    dt = times[1] - times[0]
    vals = np.asarray(_array_fn(f, "f")(X[:-1]), dtype=np.float64)
    F = np.empty_like(times)
    F[0] = 0.0
    np.cumsum(vals, out=F[1:])
    F[1:] *= dt
    return F


def _em_final(model: DiffusionModel, T: float, dt: float, seed: int,
              n_paths: int) -> np.ndarray:
    """Terminal states of an Euler-Maruyama ensemble (test instrumentation).

    Same discretization and keying as :func:`simulate_path` across path
    indices 0..n_paths-1, without storing the paths.  Deliberately private:
    positions are a means to validate the integrator, not an output product.
    """
    model.core()
    n = int(math.ceil(T / dt - 1e-9))
    guard = _GUARD_FACTOR * model.domain_cutoff

    def run(idx):
        """The block's terminal states and -1, or None and its first explosion step."""
        exploded = np.full(len(idx), -1, dtype=np.int64)
        for _, rows in _euler_walk(model.drift, _diffusion(model), dt, n, guard, int(seed),
                                   idx, exploded):
            if np.any(exploded >= 0):
                return None, int(exploded[exploded >= 0].min())
        return rows[-1].copy(), -1

    parts = _run_blocks(run, n_paths, _EULER_BLOCK, None)
    steps = [k for _, k in parts if k >= 0]
    if steps:
        # the ensemble's earliest explosion, whatever the partition
        raise PathExploded(
            f"ensemble path left the guard interval at step {min(steps)}", step=min(steps))
    return np.concatenate([x for x, _ in parts])


# ---------------------------------------------------------------------------
# direct engine (Euler-Maruyama ensemble)
# ---------------------------------------------------------------------------


def _diffusion(model: DiffusionModel):
    """The diffusion as :func:`_euler_walk` takes it: the constant, if the
    model was given one, else the callable."""
    return model.diffusion if model._diffusion_const is None else model._diffusion_const


def _euler_walk(bv, sv, dt: float, n_steps: int, guard: float, seed: int,
                indices: np.ndarray, exploded: np.ndarray):
    """The Euler-Maruyama kernel: a block of paths from X_0 = 0, chunk by chunk.

    Yields ``(k0, X)`` per chunk of up to ``_CHUNK`` steps; ``X[i]``
    holds the block's states at step ``k0 + i``, so ``X[0]`` repeats the
    previous chunk's last row.  ``X`` is scratch memory that the next chunk
    overwrites.  Each step is ``X[i+1] = X[i] + (b*dt + (s*sqrt(dt))*z)``
    with b and s the drift and diffusion at ``X[i]`` and z the path's next
    normal, keyed by (seed, path index, step) (see :class:`_Normals`).
    ``sv`` is the diffusion callable or, for additive noise, its constant
    value c (see :func:`_diffusion`).  With c, each chunk's normals are
    scaled once, in place, by the float ``c*sqrt(dt)``, and a step calls
    only the drift: the same two rounded products as ``(s*sqrt(dt))*z``,
    so both forms give the same bits.
    A chunk is stepped unclamped, with numpy's floating-point errors
    ignored for the step loop alone: a path that leaves the guard interval
    may overflow or turn nan within its chunk, and no other path sees it.
    Before the chunk is yielded, ``exploded[j]`` is set to the first step
    at which path j did not lie within ``guard`` (nan counts), if it is
    still -1, and every column that left the guard interval in the chunk
    is clamped to [-lim, lim], lim the next float above the guard, a nan
    going to -lim.  So the consumer and the next chunk see only finite
    states, and a path that left stays flagged.  The states of such a path
    mean nothing.  A path that stays within the guard is never clamped, so
    its states do not depend on the chunk length.
    """
    n = len(indices)
    sqdt = math.sqrt(dt)
    additive = not callable(sv)
    lim = float(np.nextafter(guard, math.inf))
    ws = _ChunkWorkspace(n)
    drift_dt = ws.view("drift_dt", n)
    noise = None if additive else ws.view("noise", n)
    X = ws.view("x", 1, n)
    X[0] = 0.0
    k0 = 0
    with _Normals(seed, TAG_DIRECT, indices, steps=n_steps) as normals:
        while k0 < n_steps:
            z = normals.take(n_steps - k0)
            k = len(z)
            if additive:
                z *= sv * sqdt                  # row i is the noise of step i
            X = ws.view("x", k + 1, n)          # row 0 is the carried state
            with np.errstate(all="ignore"):
                for i in range(k):
                    x = X[i]
                    np.multiply(np.asarray(bv(x), dtype=np.float64), dt, out=drift_dt)
                    if not additive:
                        np.multiply(np.asarray(sv(x), dtype=np.float64), sqdt, out=noise)
                        z[i] *= noise
                    drift_dt += z[i]
                    np.add(x, drift_dt, out=X[i + 1])
            new = X[1:]
            # a nan maximum or minimum fails both comparisons
            left = ~((new.max(axis=0) <= guard) & (new.min(axis=0) >= -guard))
            if left.any():
                cols = np.flatnonzero(left & (exploded < 0))
                exploded[cols] = k0 + 1 + np.argmax(~(np.abs(new[:, cols]) <= guard), axis=0)
                cols = np.flatnonzero(left)
                far = X[:, cols]                # a copy
                np.fmax(far, -lim, out=far)     # nan goes to -lim
                X[:, cols] = np.fmin(far, lim, out=far)
            yield k0, X
            X[0] = X[k]
            k0 += k


def _emission_schedule(cfg: SimConfig) -> dict:
    """step index -> [(column, remainder-time)] for the left-rule read-outs."""
    sched: dict[int, list] = {}
    n_steps = cfg.n_steps
    for i, t in enumerate(cfg.horizon_times):
        pos = t / cfg.epsilon
        k = min(int(pos / cfg.dt + 1e-12), n_steps)
        sched.setdefault(k, []).append((i, max(pos - k * cfg.dt, 0.0)))
    return sched


def _direct_block(bv, sv, fv, cfg: SimConfig, guard: float, sched: dict,
                  indices: np.ndarray):
    """Left-rule functionals of a path block; returns (raw values, explosion step or -1).

    A two-phase chunked walk.  Phase one is the Euler kernel
    (:func:`_euler_walk`), which steps the states X of a chunk one row at a
    time, since each row needs the last, and flags the paths that left the
    guard interval.  Phase two takes the whole chunk: f in one call on its
    flattened rows, then the running sums ``F_k = sum_{j<k} f(X_j)`` in
    step order from the carried F, read by reduction (see
    :func:`_cumsum_end`) at the chunk's end and at the scheduled read-outs
    ``F_k * dt + rem * f(X_k)``.  Every state and every sum is the same
    expression for any chunk length or block width, so the output does not
    depend on either.  The read-outs of an exploded path are not
    meaningful; its explosion step is exact.
    """
    n = len(indices)
    dt, n_steps = cfg.dt, cfg.n_steps
    out = np.empty((n, len(cfg.horizon_times)))
    exploded = np.full(n, -1, dtype=np.int64)
    ws = _ChunkWorkspace(n)
    # F and f(X) at the chunk's first step
    fsum, fx = np.zeros(n), np.asarray(fv(np.zeros(n)), dtype=np.float64)
    for k0, X in _euler_walk(bv, sv, dt, n_steps, guard, cfg.seed, indices, exploded):
        k = len(X) - 1
        # row 0 holds F one step on, F + f(X); row i >= 1 holds f(X) at
        # step k0 + i, so F there sums rows 0..i-1
        G = ws.view("fx", k + 1, n)
        G[1:] = np.asarray(fv(X[1:].reshape(-1)), dtype=np.float64).reshape(k, n)
        np.add(fsum, fx, out=G[0])
        for step, hits in sched.items():
            if k0 <= step < k0 + k or step == n_steps == k0 + k:
                i = step - k0
                F, FX = (fsum, fx) if i == 0 else (_cumsum_end(G[:i]), G[i])
                for col, rem in hits:
                    out[:, col] = F * dt + rem * FX
        fsum, fx = _cumsum_end(G[:k]), G[k].copy()
    return out, exploded


def _direct_raw(model: DiffusionModel, f: Callable, cfg: SimConfig,
                threads: int | None):
    """Raw (un-normalized) direct-scheme sample matrix plus explosion count.

    Paths that hit the guard are counted and re-drawn under substitute keys
    ``path + n_paths * retry`` so the matrix stays full; the run fails when
    explosions exceed the tolerated fraction.
    """
    model.core()  # runs the coefficient checks (array contract, finiteness, sigma > 0)
    sched = _emission_schedule(cfg)
    guard = _GUARD_FACTOR * model.domain_cutoff
    bv, sv, fv = model.drift, _diffusion(model), _array_fn(f, "f")

    def run(keys):
        parts = _run_blocks(
            lambda pos: _direct_block(bv, sv, fv, cfg, guard, sched, keys[pos]),
            keys.size, _EULER_BLOCK, threads)
        return np.vstack([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    raw, exploded = run(np.arange(cfg.n_paths))
    bad = np.nonzero(exploded >= 0)[0]
    n_exploded = int(bad.size)
    if n_exploded > _EXPLODED_TOL * cfg.n_paths:
        raise PathExploded(
            f"{n_exploded} of {cfg.n_paths} paths left the guard interval "
            f"(tolerance {_EXPLODED_TOL:.1%}); first failure at step "
            f"{int(exploded[bad[0]])}",
            step=int(exploded[bad[0]]), n_exploded=n_exploded, n_paths=cfg.n_paths)
    pending = bad
    for retry in range(1, _MAX_RETRIES + 1):
        if not pending.size:
            break
        rows, ex = run(pending + cfg.n_paths * retry)
        raw[pending[ex < 0]] = rows[ex < 0]
        pending = pending[ex >= 0]
    if pending.size:
        p = int(pending[0])
        raise PathExploded(
            f"path {p} exploded under {_MAX_RETRIES} substitute keys",
            step=int(exploded[p]), n_exploded=n_exploded, n_paths=cfg.n_paths)
    return raw, n_exploded


# ---------------------------------------------------------------------------
# time-change engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ClockTables:
    """Scale-image interpolation tables for the clock walk.

    Inverting the scale function point-by-point (bracketed root-finding) is
    far too slow for a per-step kernel, so the walk reads both coefficient
    fields off dense tables in the image variable y = s(x): ``rate1`` holds
    kappa^2 * psi(y)^{-2} and ``fval`` holds f(s^{-1}(y)).  Nodes are placed
    uniformly in asinh(x) -- linear resolution near the origin where the
    clock accrues, constant resolution per octave in the tails.  Queries
    beyond the last node clamp to the edge value, which freezes the
    coefficients at their |x| = domain_cutoff values.  The direct scheme
    does not match this: its guard sits at 10 * domain_cutoff and uses the
    true coefficients up to there, so the two schemes differ for paths
    that leave [-domain_cutoff, domain_cutoff]; the walk counts such steps
    and a run fails when there are too many.  ``slope_rate1`` and
    ``slope_fval`` are the per-interval slopes ``np.interp`` uses, so one
    bracket search serves both tables.

    The bracket search is a guide-table lookup (see :class:`_Bracket`),
    built once per table from the bit pattern of a float.  With c the
    smallest nonzero |node| and s the shift ``guide_shift``,
    ``key(y) = (bits(|y| + c) - bits(c)) >> s``, clipped to ``G0 - 1``:
    each step is monotone in |y| under rounding, and |y| + c spreads |y|
    linearly below c and by octaves above it.  The guide has 2 * G0
    buckets in the order of y: G0 + key(y) for y >= 0 (-0.0 included) and
    G0 - 1 - key(y) for y < 0.  So nan of either sign and +inf land in the
    top bucket, -inf in bucket 0, and the bucket never falls as y rises.
    ``guide[b]`` counts the nodes whose bucket is at most b.  s is the
    largest shift that keeps every two neighbouring nodes in different
    buckets, so no bucket holds two nodes and the guide is ``exact``; the
    kinetic and driftless tables take about 20 thousand entries,
    heavy_tailed(1)'s 1.0 million.  A table whose exact guide would pass
    ``_GUIDE_CAP`` entries, say with nodes a few ulps apart or two that
    |y| + c rounds together, takes the smallest shift that fits instead
    and is not exact.  ``ext`` is ``y`` padded with -inf and +inf, so the
    bracket ``ext[k] <= y < ext[k + 1]`` of every count k is defined.
    """

    y: np.ndarray
    rate1: np.ndarray
    fval: np.ndarray
    slope_rate1: np.ndarray = field(init=False, repr=False)
    slope_fval: np.ndarray = field(init=False, repr=False)
    ext: np.ndarray = field(init=False, repr=False)
    guide: np.ndarray = field(init=False, repr=False)
    guide_c: float = field(init=False, repr=False)
    guide_base: int = field(init=False, repr=False)
    guide_shift: int = field(init=False, repr=False)
    exact: bool = field(init=False, repr=False)

    def __post_init__(self):
        dy = np.diff(self.y)
        with np.errstate(over="ignore"):
            object.__setattr__(self, "slope_rate1", np.diff(self.rate1) / dy)
            object.__setattr__(self, "slope_fval", np.diff(self.fval) / dy)
        mag = np.abs(self.y)
        c = float(mag[mag > 0.0].min())
        base = int(np.float64(c).view(np.int64))
        key = (mag + c).view(np.int64) - base
        neg = self.y < 0.0
        # neighbours on one side of 0; the two sides never share a bucket
        same = neg[1:] == neg[:-1]
        lo, hi = key[:-1][same], key[1:][same]
        top = int(key.max())
        # two keys stay apart under every shift up to their highest
        # differing bit
        s = 0
        while s < 62 and np.all((lo >> (s + 1)) != (hi >> (s + 1))):
            s += 1
        exact = bool(np.all(lo != hi)) and 2 * ((top >> s) + 1) <= _GUIDE_CAP
        if not exact:
            s = 0
            while 2 * ((top >> s) + 1) > _GUIDE_CAP:
                s += 1
        key >>= s
        half = (top >> s) + 1               # G0
        bucket = np.where(neg, half - 1 - key, half + key)
        object.__setattr__(self, "ext", np.concatenate([[-np.inf], self.y, [np.inf]]))
        object.__setattr__(self, "guide", np.cumsum(np.bincount(bucket, minlength=2 * half)))
        object.__setattr__(self, "guide_c", c)
        object.__setattr__(self, "guide_base", base)
        object.__setattr__(self, "guide_shift", s)
        object.__setattr__(self, "exact", exact)


def _clock_tables(model: DiffusionModel, f: Callable, n_nodes: int = 6001) -> _ClockTables:
    ss = model.scale_speed()
    c = model.domain_cutoff
    g_top = math.asinh(c)
    x = np.sinh(np.linspace(-g_top, g_top, n_nodes))
    # sinh(asinh(c)) rounds past c, by 7.3e-11 at c = 1e5: beyond the model's
    # domain, which the quadrature core refuses
    np.clip(x, -c, c, out=x)
    x[n_nodes // 2] = 0.0
    y = np.asarray(ss.scale(x), dtype=np.float64)
    psi = np.asarray(ss.scale_deriv(x), dtype=np.float64) \
        * np.asarray(model.diffusion(x), dtype=np.float64)
    with np.errstate(over="ignore"):
        rate1 = (ss.kappa / psi) ** 2
    fval = np.asarray(f(x), dtype=np.float64)
    ok = np.isfinite(y) & np.isfinite(rate1) & np.isfinite(fval)
    y, rate1, fval = y[ok], rate1[ok], fval[ok]
    keep = np.concatenate([[True], np.diff(y) > 0.0])
    return _ClockTables(y=y[keep], rate1=rate1[keep], fval=fval[keep])


class _Bracket:
    """One table search shared by every table read at the same points.

    ``j`` is ``np.searchsorted(tab.y, y, side="right") - 1`` for every point.
    The guide (see :class:`_ClockTables`) finds it in O(1): the bucket of y
    gives the count k of nodes up to the bucket's end, and one step down
    (``y < ext[k]``) removes the bucket's node if it lies above y.  Since
    the buckets never fall as y rises, every node at or below y is counted
    and any other counted node shares y's bucket, so on an ``exact`` table,
    whose buckets hold one node at most, k is the searchsorted count.  On
    a table that is not exact a point is a hit when ``ext[k] <= y <
    ext[k + 1]``, which fixes k as the searchsorted count since the nodes
    strictly increase; the misses, and only they, go through
    ``np.searchsorted``.  ``misses`` counts them, 0 on an exact table.

    ``interp`` returns ``np.interp(y, tab.y, fp)`` bit for bit: inside the
    table ``slope[j] * (y - y[j]) + fp[j]``, exactly ``fp[j]`` on a node,
    and the edge cases (clamps, the last node, nan) through ``np.interp``
    itself.
    """

    def __init__(self, tab: _ClockTables, y: np.ndarray, ws: _ChunkWorkspace):
        self.y = y
        self.tab = tab
        # scratch: ``d``, ``off`` and ``node`` are overwritten below
        t = np.abs(y, out=ws.view("d", *y.shape))
        t += tab.guide_c
        key = t.view(np.int64)
        key -= tab.guide_base
        key >>= tab.guide_shift
        half = tab.guide.size // 2
        np.minimum(key, half - 1, out=key)
        # -1 where y < 0, 0 elsewhere (-0.0 and nan too): the xor turns key
        # into ~key = -1 - key, so the bucket is G0 + key or G0 - 1 - key
        sign = np.less(y, 0.0, out=ws.view("off", *y.shape, dtype=np.bool_)).view(np.int8)
        key ^= np.negative(sign, out=sign)
        key += half
        # every bucket lies in the guide and every k in [0, n], so no read
        # needs a check
        k = np.take(tab.guide, key, mode="clip", out=ws.view("j", *y.shape, dtype=np.intp))
        edge = np.take(tab.ext, k, mode="clip", out=t)
        step = np.less(y, edge, out=ws.view("off", *y.shape, dtype=np.bool_))
        k -= step
        self.misses = 0
        if not tab.exact:
            np.take(tab.ext, k, mode="clip", out=edge)
            hit = np.less_equal(edge, y, out=ws.view("node", *y.shape, dtype=np.bool_))
            np.take(tab.ext[1:], k, mode="clip", out=edge)
            hit &= np.less(y, edge, out=step)
            self.misses = hit.size - int(np.count_nonzero(hit))
            if self.misses:
                miss = ~hit
                k[miss] = np.searchsorted(tab.y, y[miss], side="right")
        j = k
        j -= 1
        # as unsigned, j = -1 lies past the end: one compare flags both edges
        self.off = np.greater_equal(j.view(np.uint64), tab.y.size - 1,
                                    out=ws.view("off", *y.shape, dtype=np.bool_))
        self.any_off = bool(self.off.any())
        d = np.take(tab.y, j, mode="clip", out=ws.view("d", *y.shape))
        np.subtract(y, d, out=d)
        self.node = np.equal(d, 0.0, out=ws.view("node", *y.shape, dtype=np.bool_))
        self.any_node = bool(self.node.any())
        self.j, self.d = j, d

    def interp(self, fp: np.ndarray, slope: np.ndarray, out: np.ndarray,
               tmp: np.ndarray) -> np.ndarray:
        np.take(slope, self.j, mode="clip", out=out)
        with np.errstate(invalid="ignore"):   # an infinite slope on a node
            out *= self.d
        out += np.take(fp, self.j, mode="clip", out=tmp)
        if self.any_node:
            out[self.node] = tmp[self.node]
        if self.any_off:
            out[self.off] = np.interp(self.y[self.off], self.tab.y, fp)
        return out

    def outside(self) -> np.ndarray:
        """Points strictly beyond the first or the last node."""
        return self.off & ((self.y < self.tab.y[0]) | (self.y > self.tab.y[-1]))


def _timechange_block(tab: _ClockTables, kappa: float, cfg: SimConfig,
                      indices: np.ndarray):
    """Lockstep clock walk; returns (raw values, clipped, off-table and total steps).

    Per step, with a = eps/kappa and y = W * kappa/eps: the clock gains
    dA = (kappa^2/eps) * psi(y)^{-2} du and the functional
    dH = dA * f(s^{-1}(y))/eps, both left-rule; W then moves by
    sqrt(du) * Z with du = dt * max(a, |W|)^2, computed as
    dt * max(a^2, W^2): rounding is monotone, so the square of the larger
    rounds to the larger of the rounded squares, bit for bit, and the
    ``abs`` call goes.  When A reaches t_i, H is
    read by linear interpolation within the step.  The Brownian horizon
    starts at 16*max(1, t_n)^2 and doubles while any unfinished path is
    beyond it, failing after ``_MAX_EXTENSIONS`` doublings.

    The walk runs in chunks of lockstep steps, ``_CHUNK`` long at full
    width and longer as paths finish (see :meth:`_Normals.take`).  Phase
    one loops over the steps and advances only the Brownian recursion, the
    one quantity a step hands to the next, in six ufunc calls a step.
    Phase two derives the rest over the step-major ``(k, n)`` chunk at
    once: one table search shared by both coefficient tables, the
    increments dA, dH and du below the carried A, H and u, the chunk's end
    of each running sum by one reduction in
    step order (see :func:`_cumsum_end`), and the target crossings on the
    monotone A, for which only the columns that pass a target are summed
    step by step (see :func:`_first_passages`).  Each path takes one normal
    per step from its own keyed stream, drawn ahead in slabs (see
    :class:`_Normals`) of ``_CLOCK_SLAB`` normals at full width and of
    ``_CLOCK_SLAB * _BLOCK // width``, in whole chunks, in a narrower
    block, so that every block's slab buffer holds at most 2 MiB and a
    narrow one pays the generator-call overhead less often.  Every sum
    adds in step order, so the output depends neither on the chunk length
    nor on the block width.  Paths that finish inside a chunk walk on to
    its end; those steps are never read or counted.
    """
    eps = cfg.epsilon
    a = eps / kappa
    a_sq = a * a
    y_scale = kappa / eps
    targets = np.asarray(cfg.horizon_times)
    n_t = targets.size
    width = len(indices)
    out = np.empty((width, n_t))
    live = np.arange(width)                # block rows of unfinished paths, ascending
    w_cur, a_cur, h_cur, u_cur = np.zeros((4, width))   # the carried state
    ti = np.zeros(width, dtype=np.int64)   # targets crossed so far
    ws = _ChunkWorkspace(width)
    horizon = 16.0 * max(1.0, targets[-1]) ** 2
    extensions = 0
    clipped = off_table = total = iters = 0
    # the longest slab, in whole chunks, whose buffer fits a full block's
    chunk = _workspace._CHUNK
    slab = max(_CLOCK_SLAB, _CLOCK_SLAB * _BLOCK // width // chunk * chunk)
    square, maximum, sqrt, add, dt = np.square, np.maximum, np.sqrt, np.add, cfg.dt
    with _Normals(cfg.seed, TAG_TIMECHANGE, indices, slab=slab) as normals:
        while live.size:
            if iters >= _WALK_ITER_CAP:
                raise HorizonExceeded(
                    "time-change walk exceeded the iteration safety cap; "
                    "dt may be too small for the requested horizon")
            n = live.size
            # ---- phase 1: the Brownian recursion, step by step -------------
            z = normals.take(_WALK_ITER_CAP - iters)
            k = len(z)
            W = ws.view("w", k + 1, n)
            # row i + 1 of U holds du of step i; row 0 carries u
            U = ws.view("u", k + 1, n)
            tmp = ws.view("tmp", n)
            W[0] = w_cur
            U[0] = u_cur
            for w, w_next, s, zi in zip(W[:-1], W[1:], U[1:], z):
                square(w, out=s)
                maximum(s, a_sq, out=s)
                s *= dt
                sqrt(s, out=tmp)
                tmp *= zi
                add(w, tmp, out=w_next)
            w_end = W[k].copy()
            # ---- phase 2: everything else, over the (k, n) chunk -----------
            # buffers are reused once read: DA takes W's and f's values the
            # rate's
            y = np.multiply(W[:-1], y_scale, out=ws.view("y", k, n))
            br = _Bracket(tab, y, ws)
            fp_tmp = ws.view("fp", k, n)
            rate = br.interp(tab.rate1, tab.slope_rate1, ws.view("rate", k, n), fp_tmp)
            rate /= eps
            over = np.greater(rate, _CLIP_RATE, out=ws.view("over", k, n, dtype=np.bool_))
            any_over = bool(over.any())
            if any_over:
                rate[over] = _CLIP_RATE
            DA = W                         # row i + 1 holds dA of step i, row 0 A
            np.multiply(rate, U[1:], out=DA[1:])
            DA[0] = a_cur
            fv = br.interp(tab.fval, tab.slope_fval, rate, fp_tmp)
            DH = ws.view("dh", k + 1, n)
            DH[0] = h_cur
            dH = np.multiply(DA[1:], fv, out=DH[1:])
            dH /= eps
            outside = br.outside() if br.any_off else None   # reads y
            a_end = _cumsum_end(DA)
            # target j is read in the first step whose end A reaches t_j;
            # only the columns that pass a target in this chunk are summed
            ti_end = np.searchsorted(targets, a_end, side="right")
            pc = np.flatnonzero(ti_end > ti[live])
            DAp, DHp = DA[:, pc], DH[:, pc]
            _, col, tgt, s_ev, val = _first_passages(
                np.cumsum(DAp, axis=0), DAp, np.cumsum(DHp, axis=0), DHp, targets,
                ti[live[pc]], "right")
            col = pc[col]
            out[live[col], tgt] = val
            steps = np.full(n, k)          # steps each path takes in the chunk
            done = tgt == n_t - 1
            fcol = col[done]               # the columns that finish, ascending
            steps[fcol] = s_ev[done] + 1
            fin = ti_end == n_t
            total += int(steps.sum())
            if any_over or outside is not None:
                taken = np.arange(k)[:, None] < steps
                if any_over:
                    clipped += int(np.count_nonzero(over & taken))
                if outside is not None:
                    off_table += int(np.count_nonzero(outside & taken))
            # horizon: u after every step a path takes unfinished, whose
            # largest is at the chunk's end, or for a finishing path just
            # before its finishing step, which is not checked
            u_end = _cumsum_end(U)
            u_end[fcol] = np.cumsum(U[:, fcol], axis=0)[s_ev[done], np.arange(fcol.size)]
            reach = u_end.max()
            unfinished = steps - fin
            while reach >= horizon:
                if extensions >= _MAX_EXTENSIONS:
                    pending = (np.cumsum(U, axis=0)[1:] >= horizon) \
                        & (np.arange(k)[:, None] < unfinished)
                    per_step = np.count_nonzero(pending, axis=1)
                    raise HorizonExceeded(
                        f"clock did not reach t = {targets[-1]:g} within the Brownian "
                        f"horizon {horizon:g} after {_MAX_EXTENSIONS} extensions "
                        f"({int(per_step[np.argmax(per_step > 0)])} paths pending)")
                horizon *= 2.0
                extensions += 1
            iters += int(steps.max()) if fin.all() else k
            keep = ~fin
            ti[live] = ti_end
            w_cur, a_cur = w_end[keep], a_end[keep]
            h_cur, u_cur = _cumsum_end(DH)[keep], u_end[keep]
            live = live[keep]
            normals.keep(keep)
    return out, clipped, off_table, total


def _timechange_raw(model: DiffusionModel, f: Callable, cfg: SimConfig,
                    threads: int | None):
    """Raw time-change sample matrix plus the clock-rate clip fraction.

    Fails when the clipped or the off-table steps exceed ``_CLIP_TOL``.
    """
    tab = _clock_tables(model, _array_fn(f, "f"))
    kappa = model.scale_speed().kappa
    parts = _run_blocks(
        lambda idx: _timechange_block(tab, kappa, cfg, idx),
        cfg.n_paths, _BLOCK, threads)
    raw = np.vstack([p[0] for p in parts])
    clipped, off_table, total = (sum(p[i] for p in parts) for i in (1, 2, 3))
    clip_fraction = clipped / total if total else 0.0
    if clip_fraction > _CLIP_TOL:
        raise InvalidRequest(
            f"clock rate hit the cap on {clip_fraction:.2%} of steps "
            f"(tolerance {_CLIP_TOL:.2%}); the run is not trustworthy")
    off_fraction = off_table / total if total else 0.0
    if off_fraction > _CLIP_TOL:
        raise InvalidRequest(
            f"clock walk left the coefficient tables on {off_fraction:.2%} of steps "
            f"(tolerance {_CLIP_TOL:.2%}), where they freeze f and the clock rate "
            "at their |x| = domain_cutoff values; the run is not trustworthy")
    return raw, clip_fraction


# ---------------------------------------------------------------------------
# normalization and public entry points
# ---------------------------------------------------------------------------


def _normalized(raw: np.ndarray, law: LimitLaw, cfg: SimConfig) -> np.ndarray:
    """Apply the regime's rescaling to a raw sample matrix."""
    if law.ell_name != "1":
        raise InvalidRequest(
            "rescaling is implemented for a trivial slowly varying factor only; "
            f"this law carries ell = {law.ell_name!r}")
    eps = cfg.epsilon
    if law.regime == "Diffusive":
        return math.sqrt(eps) * raw
    if law.regime == "CriticalDiffusive":
        return math.sqrt(eps / abs(law.rho_eps(eps))) * raw
    if law.regime == "Levy":
        return eps ** (1.0 / law.alpha) * raw
    if law.regime == "CriticalLevy":
        t = np.asarray(cfg.horizon_times)
        return eps * raw - law.xi_eps(eps) * t[None, :]
    raise InvalidRequest(f"unknown regime {law.regime!r}")


def rescaled_functional(model: DiffusionModel, f: Callable, law: LimitLaw | None,
                        cfg: SimConfig, *, threads: int | None = None) -> FunctionalSample:
    """Sample the functional under ``cfg.scheme``, normalized by ``law``.

    With ``law=None`` the values are the raw integrals
    ``int_0^{t_i/eps} f(X_s) ds``, equal in law under either scheme.  A law
    rescales them by its regime: sqrt(eps) (diffusive), sqrt(eps/rho_eps)
    (critical diffusive), eps^(1/alpha) (heavy-tailed), or
    eps * F - xi_eps * t_i (critical heavy-tailed, exact centering).

    ``threads`` is the number of worker processes the path blocks are
    shared among (``None``: one per CPU this process may run on; 1 runs
    every block in this process).  Workers are forked, so ``model`` and
    ``f`` need not pickle.  Runs are byte-identical for fixed ``cfg.seed``
    whatever ``threads`` is.

    Raises :class:`PathExploded` when over 1e-3 of Direct paths leave the
    guard interval, :class:`InvalidRequest` when over 1e-4 of the clock
    walk's steps hit the rate cap or lie beyond its coefficient tables.
    """
    if cfg.scheme == "Direct":
        raw, n_exploded = _direct_raw(model, f, cfg, threads)
        clip = 0.0
    else:
        raw, clip = _timechange_raw(model, f, cfg, threads)
        n_exploded = 0
    return FunctionalSample(
        values=raw if law is None else _normalized(raw, law, cfg), law=law,
        scheme=cfg.scheme, seed=cfg.seed, dt=cfg.dt, epsilon=cfg.epsilon,
        times=cfg.horizon_times, n_exploded=n_exploded, clip_fraction=clip)
