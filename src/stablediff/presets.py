"""Built-in model families and observable presets.

Three model families cover the qualitatively different tail behaviors:

* ``heavy_tailed(theta)`` — drift -((theta+1)/2) sgn(x)|x|^theta, unit noise.
  Scale grows like int e^{|v|^{theta+1}}, invariant density ~ e^{-|x|^{theta+1}}.
* ``kinetic(beta, c_plus, c_minus)`` — drift (beta/2)(log Theta)' with
  Theta(v) = h(v)/sqrt(1+v^2), h(v) = (c_+ + c_-)/2 + ((c_+ - c_-)/2) v/sqrt(1+v^2),
  so s' = Theta^-beta and the invariant density is proportional to Theta^beta
  with tail weights c_+^beta, c_-^beta.  With f = id the additive functional
  is the particle position and the limit index is alpha = (beta+1)/3.
* ``driftless(beta, gamma)`` — b = 0, sigma = (1+|x|)^{beta/2}; the scale is
  the identity and all tail behavior sits in the speed measure.

Models can also be loaded from a coefficient table (CSV columns x, b, sigma)
with linear interpolation between rows.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError
from .model import DiffusionModel

__all__ = [
    "heavy_tailed",
    "kinetic",
    "driftless",
    "from_table",
    "kinetic_tail_limits",
]


def heavy_tailed(theta: float) -> DiffusionModel:
    """Polynomial inward drift with exp(-|x|^{theta+1}) invariant density."""
    if theta <= 0:
        raise ConfigError("heavy_tailed requires theta > 0")
    c = 0.5 * (theta + 1.0)

    def drift(x):
        x = np.asarray(x, dtype=np.float64)
        return -c * np.sign(x) * np.abs(x) ** theta

    # keep the exponent |x|^{theta+1} inside double range (overflow policy)
    cutoff = min(50.0, 676.0 ** (1.0 / (theta + 1.0)))
    return DiffusionModel(
        drift=drift,
        diffusion=1.0,
        domain_cutoff=cutoff,
        name=f"heavy_tailed({theta:g})",
    )


def _kinetic_drift(beta: float, c_plus: float, c_minus: float):
    """The drift (beta/2)(log theta)' for theta(v) = h(v)/sqrt(1+v^2),
    h(v) = avg + dif v/sqrt(1+v^2), so h' = dif (1+v^2)^-1.5.

    It forms q = 1 + v^2 once and works in place, each term with the
    operations of ``(beta/2) (h'/h - v/q)`` in that order, so it matches
    the plain expression bit for bit.  Every ufunc writes to an ``out``
    array, which keeps a 0-d argument (or a Python float) a 0-d array.
    """
    half_beta = 0.5 * beta
    avg = 0.5 * (c_plus + c_minus)
    dif = 0.5 * (c_plus - c_minus)

    def drift(v):
        v = np.asarray(v, dtype=np.float64)
        q = np.multiply(v, v, out=np.empty_like(v))
        q += 1.0
        h = np.sqrt(q, out=np.empty_like(v))
        np.divide(np.multiply(dif, v, out=np.empty_like(v)), h, out=h)
        h += avg
        out = np.power(q, -1.5, out=np.empty_like(v))
        out *= dif
        out /= h
        out -= np.divide(v, q, out=q)
        out *= half_beta
        return out

    def drift_symmetric(v):
        # h' = 0 and h = avg, so h'/h is +0.0 wherever it is finite
        v = np.asarray(v, dtype=np.float64)
        out = np.multiply(v, v, out=np.empty_like(v))
        out += 1.0
        np.divide(v, out, out=out)
        np.subtract(0.0, out, out=out)
        out *= half_beta
        return out

    return drift if dif else drift_symmetric


def kinetic(beta: float, c_plus: float = 1.0, c_minus: float = 1.0) -> DiffusionModel:
    """Kinetic-family velocity process; alpha = (beta+1)/3 with f = id."""
    if beta <= 1:
        raise ConfigError("kinetic requires beta > 1 for positive recurrence")
    if c_plus <= 0 or c_minus <= 0:
        raise ConfigError("kinetic tail weights c_plus, c_minus must be positive")
    return DiffusionModel(
        drift=_kinetic_drift(beta, c_plus, c_minus),
        diffusion=1.0,
        domain_cutoff=600.0,
        name=f"kinetic({beta:g},{c_plus:g},{c_minus:g})"
        if (c_plus, c_minus) != (1.0, 1.0) else f"kinetic({beta:g})",
    )


def kinetic_tail_limits(beta: float, c_plus: float = 1.0, c_minus: float = 1.0):
    """(alpha, f_plus, f_minus) for the kinetic family with f = id.

    The tail-ratio limit evaluates to f_± = ±(beta+1)^{1/alpha-2} c_±^{beta/alpha}
    once c_± is rescaled by Theta(0) = (c_+ + c_-)/2, which accounts for the
    s'(0) = 1 normalization of the scale function (|x| * Theta(x)/Theta(0)
    tends to c_±/Theta(0)).
    """
    alpha = (beta + 1.0) / 3.0
    theta0 = 0.5 * (c_plus + c_minus)
    lead = (beta + 1.0) ** (1.0 / alpha - 2.0)
    f_plus = lead * (c_plus / theta0) ** (beta / alpha)
    f_minus = -lead * (c_minus / theta0) ** (beta / alpha)
    return alpha, f_plus, f_minus


def driftless(beta: float, gamma: float) -> DiffusionModel:
    """Zero drift, sigma = (1+|x|)^{beta/2}; scale is the identity."""
    if beta <= 1:
        raise ConfigError("driftless requires beta > 1 for an integrable speed measure")

    def diffusion(x):
        x = np.asarray(x, dtype=np.float64)
        return (1.0 + np.abs(x)) ** (0.5 * beta)

    m = DiffusionModel(
        drift=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        diffusion=diffusion,
        domain_cutoff=2000.0,
        name=f"driftless({beta:g},{gamma:g})",
    )
    return m


def driftless_observable(gamma: float) -> Callable:
    """The observable f(x) = x/(1+|x|)^{1-gamma} paired with ``driftless``."""

    def f(x):
        x = np.asarray(x, dtype=np.float64)
        return x / (1.0 + np.abs(x)) ** (1.0 - gamma)

    return f


def from_table(path: str | Path) -> DiffusionModel:
    """Model from a CSV coefficient table with columns x, b, sigma."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"coefficient table not found: {path}")
    xs, bs, ss = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [c.strip().lower() for c in header[:3]] != ["x", "b", "sigma"]:
            raise ConfigError("coefficient table must have header x,b,sigma")
        for row in reader:
            if not row:
                continue
            xs.append(float(row[0])); bs.append(float(row[1])); ss.append(float(row[2]))
    x = np.asarray(xs); b = np.asarray(bs); s = np.asarray(ss)
    order = np.argsort(x)
    x, b, s = x[order], b[order], s[order]
    if x.size < 2:
        raise ConfigError("coefficient table needs at least two rows")
    if np.any(s <= 0):
        raise ConfigError("coefficient table has non-positive sigma entries")
    cutoff = float(min(-x[0], x[-1]))
    if cutoff <= 0:
        raise ConfigError("coefficient table must bracket x = 0")
    return DiffusionModel(
        drift=lambda q: np.interp(q, x, b),
        diffusion=lambda q: np.interp(q, x, s),
        domain_cutoff=cutoff,
        name=f"table:{path.name}",
    )
