"""Numpy-only ports of the five scipy routines the package computes with.

The package's constants are pinned to the bit, so each port repeats scipy's
arithmetic operation for operation (as of scipy 1.17):

* :class:`CubicSpline` -- ``scipy.interpolate.CubicSpline`` with its default
  not-a-knot ends.  The slope system is assembled as scipy assembles it and
  solved as the LAPACK routine ``dgtsv`` solves it, which
  ``scipy.linalg.solve_banded((1, 1), ...)`` calls (:func:`_gtsv`).
* :class:`CubicHermiteSpline` -- ``scipy.interpolate.CubicHermiteSpline``.
  Both splines evaluate as ``scipy.interpolate.PPoly`` does: the interval j
  with x[j] <= q < x[j+1], clipped to the first and last interval, then
  ``0 + c3 + c2 s + c1 s^2 + c0 s^3`` summed in that order, s = q - x[j].
* :func:`brentq` -- ``scipy.optimize.brentq`` (scipy's C routine).
* :func:`simpson` and :func:`cumulative_simpson` -- their scipy namesakes on
  a uniform grid of odd length.

No module but this one knows scipy's order of operations.  The tests compare
every port with scipy, which is a test dependency only.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["CubicHermiteSpline", "CubicSpline", "brentq", "simpson", "cumulative_simpson"]

#: ascending queries from this many on are located by one search of the
#: knots among them, fewer or unordered ones by one search per query; the
#: two cost the same at about this size on 721 knots (x86, numpy 2.4)
_SWEEP_MIN = 1536

#: a call on more queries evaluates them in slices of at most this many, so
#: that its half a dozen temporaries (96 KB each at most, under glibc's
#: 128 KB mmap threshold) come from reused heap instead of fresh pages: a
#: 512 KB temporary costs about 130 page faults, which take longer than the
#: arithmetic
_EVAL_SLICE = 12288

#: scipy's default cap on the steps of brentq
_BRENT_STEPS = 100


class CubicHermiteSpline:
    """Cubic Hermite interpolant through (x_i, y_i) with slopes dydx_i.

    ``x`` is strictly increasing with at least two knots; ``y`` and ``dydx``
    are finite (else ValueError, as scipy raises).  Calling the spline on an
    array returns an array of its shape; beyond the knots the end cubics
    extrapolate, and a nan query gives nan.
    """

    def __init__(self, x, y, dydx):
        # contiguous knots keep the searches from copying them on every call
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        dydx = np.asarray(dydx, dtype=np.float64)
        dx = self._check(x, y, dydx)
        slope = np.diff(y) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        # 0.0 + c3 is PPoly's first partial sum; it maps -0.0 to 0.0.  Every
        # coefficient is a copy, so that no view pins a caller's arrays.
        self._c = (y[:-1] + 0.0, dydx[:-1].copy(), (slope - dydx[:-1]) / dx - t, t / dx)
        self._y0 = y[:-1].copy()
        self._x0 = x[:-1]
        self._inner = x[1:-1]
        # -inf and nan bracket the interior knots, so that one search of the
        # edges among ascending queries counts the queries of every interval
        self._edges = np.concatenate(([-np.inf], x[1:-1], [np.nan]))

    @staticmethod
    def _check(x, y, dydx=None) -> np.ndarray:
        if x.ndim != 1 or x.size < 2 or y.shape != x.shape \
                or (dydx is not None and dydx.shape != x.shape):
            raise ValueError("x, y (and dydx) must be 1-d of one length >= 2")
        dx = np.diff(x)
        if not (np.isfinite(x).all() and (dx > 0).all()):
            raise ValueError("`x` must be finite and strictly increasing")
        if not np.isfinite(y).all():
            raise ValueError("`y` must contain only finite values.")
        if dydx is not None and not np.isfinite(dydx).all():
            raise ValueError("`dydx` must contain only finite values.")
        return dx

    @property
    def c(self) -> np.ndarray:
        """Coefficients in scipy's layout: ``c[k, j]`` multiplies s^(3-k)."""
        _, c2, c1, c0 = self._c
        return np.stack((c0, c1, c2, self._y0))

    def __call__(self, q):
        q = np.asarray(q, dtype=np.float64)
        u = q.ravel()
        if u.size <= _EVAL_SLICE:
            return self._eval(u).reshape(q.shape)
        slices = -(-u.size // _EVAL_SLICE)
        w = -(-u.size // slices)    # equal widths: none too short for the sweep
        out = np.empty(u.size)
        for k in range(0, u.size, w):
            out[k:k + w] = self._eval(u[k:k + w])
        return out.reshape(q.shape)

    def _eval(self, u: np.ndarray) -> np.ndarray:
        """The spline at the 1-d queries u (each query on its own, so any
        slicing of u gives the same bits)."""
        c3, c2, c1, c0 = self._c
        nan = None
        if u.size >= _SWEEP_MIN and (u[1:] >= u[:-1]).all():
            # ascending, so no nan: repeat each interval's coefficients over
            # its queries
            n = np.searchsorted(u, self._edges, "left")
            n = n[1:] - n[:-1]
            s = u - np.repeat(self._x0, n)
            c3, c2, c1, c0 = (np.repeat(c, n) for c in self._c)
        else:
            nan = np.isnan(u)
            j = np.searchsorted(self._inner, u, "right")
            s = u - self._x0[j]
            c3, c2, c1, c0 = c3[j], c2[j], c1[j], c0[j]
        # res = c3 + c2 s, then + c1 (s s), then + c0 ((s s) s); + and * commute
        c2 *= s
        c2 += c3
        z = s * s
        c1 *= z
        c2 += c1
        z *= s
        c0 *= z
        c2 += c0
        if nan is not None and nan.any():
            # PPoly writes its own nan, whatever the sign of the query's
            c2[nan] = np.nan
        return c2


class CubicSpline(CubicHermiteSpline):
    """Not-a-knot cubic spline through (x_i, y_i), n >= 4 knots."""

    def __init__(self, x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        dx = self._check(x, y)
        if x.size < 4:
            raise ValueError("a not-a-knot spline needs at least 4 knots")
        slope = np.diff(y) / dx
        # right-hand side of the slope system of scipy's CubicSpline
        b = np.empty(x.size)
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        h, s = dx.tolist(), slope.tolist()
        w = float(x[2] - x[0])
        b[0] = ((h[0] + 2 * w) * h[1] * s[0] + h[0] ** 2 * s[1]) / w
        w = float(x[-1] - x[-3])
        b[-1] = (h[-1] ** 2 * s[-2] + (2 * w + h[-1]) * h[-2] * s[-1]) / w
        # the slope matrix: diagonal d, upper du and lower dl, as scipy
        # assembles them
        d = np.empty(x.size)
        d[1:-1] = 2 * (dx[:-1] + dx[1:])
        d[0], d[-1] = dx[1], dx[-2]
        du = np.empty(x.size - 1)
        du[1:] = dx[:-1]
        du[0] = x[2] - x[0]
        dl = np.empty(x.size - 1)
        dl[:-1] = dx[1:]
        dl[-1] = x[-1] - x[-3]
        super().__init__(x, y, _gtsv(dl.tolist(), d.tolist(), du.tolist(), b.tolist()))


def _gtsv(dl: list, d: list, du: list, b: list) -> list:
    """Solution of the tridiagonal system with sub-, main and
    super-diagonals dl, d, du and right-hand side b, as LAPACK dgtsv solves
    it, in Python floats: Gaussian elimination with partial pivoting that
    updates b as it goes, then back substitution.  The arguments are
    overwritten; the solution is b."""
    n = len(d)
    for i in range(n - 1):
        di, li = d[i], dl[i]
        if abs(di) >= abs(li):
            if di == 0.0:
                raise ArithmeticError("singular tridiagonal system")
            f = li / di
            d[i + 1] = d[i + 1] - f * du[i]
            b[i + 1] = b[i + 1] - f * b[i]
            dl[i] = 0.0
        else:
            # swap rows i and i+1; dl[i] becomes the second superdiagonal
            f = di / li
            d[i] = li
            temp = d[i + 1]
            d[i + 1] = du[i] - f * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -f * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - f * b[i + 1]
    if d[n - 1] == 0.0:
        raise ArithmeticError("singular tridiagonal system")
    b[n - 1] = x2 = b[n - 1] / d[n - 1]
    b[n - 2] = x1 = (b[n - 2] - du[n - 2] * x2) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = x0 = (b[i] - du[i] * x1 - dl[i] * x2) / d[i]
        x1, x2 = x0, x1
    return b


def brentq(f, a: float, b: float, xtol: float, rtol: float,
           fa: float | None = None, fb: float | None = None) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign, by Brent's
    method: scipy's C routine step for step, with scipy's cap of 100 steps.

    ``rtol`` must be at least scipy's floor 4 eps and ``xtol`` positive.  A
    nan value of f, or a bracket without a sign change, raises ValueError,
    as scipy raises them; not converging raises RuntimeError.  ``fa`` and
    ``fb``, if given, are f(a) and f(b), which are then not evaluated again.
    """

    def value(x: float, fx: float | None = None) -> float:
        fx = float(f(x) if fx is None else fx)
        if fx != fx:
            raise ValueError(f"the function value at x={x!r} is nan")
        return fx

    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre, fa), value(xcur, fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_STEPS):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C divides to an inf or a nan, which the test below rejects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"brentq did not converge in {_BRENT_STEPS} steps, last x={xcur!r}")


def simpson(y: np.ndarray, dx: float):
    """Composite Simpson sum of y over an odd number of nodes dx apart."""
    y = np.asarray(y)
    if y.ndim != 1 or y.size % 2 == 0:
        raise ValueError("simpson takes a 1-d array of odd length")
    result = np.sum(y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    result *= dx / 3.0
    return result


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Running Simpson integral of y on nodes dx apart, starting at 0.0.

    Interval k (from 0) takes the three-node rule through nodes k..k+2 when
    k is even and through nodes k-1..k+1 when k is odd, and the last
    interval always the latter; at least three nodes.  Only those windows
    are evaluated: the forward and the backward rule at the even windows,
    and the backward rule at the last window when the length is even."""
    y = np.asarray(y)
    if y.ndim != 1 or y.size < 3:
        raise ValueError("cumulative_simpson takes a 1-d array of >= 3 nodes")
    d = dx / 3

    def h1(f0, f1, f2, out):
        # eqn (10) of Cartwright (2017): int over [x0, x1] from nodes 0..2,
        # as d * (5 f0 / 4 + f1 - f2 / 4) with f1 = 2 y1 evaluates it
        np.multiply(f0, 5, out=out)
        out /= 4
        out += f1
        out -= f2 / 4
        out *= d

    y0, y2 = y[0:-2:2], y[2::2]
    y1 = 2 * y[1:-1:2]
    sub = np.empty(y.size, dtype=np.float64)
    sub[0] = 0.0
    h1(y0, y1, y2, sub[1:-1:2])     # interval k from nodes k..k+2
    h1(y2, y1, y0, sub[2::2])       # interval k + 1 from the same nodes, reversed
    if y.size % 2 == 0:
        sub[-1] = d * (5 * y[-1] / 4 + 2 * y[-2] - y[-3] / 4)
    # scipy adds initial = 0.0 to the running sum (which turns -0.0 to 0.0)
    out = sub[1:]
    np.cumsum(out, out=out)
    out += 0.0
    return sub
