"""Exception hierarchy.

Every error raised by this package derives from :class:`StableDiffError`, so
callers can catch one type and still report machine-readable diagnostics.
Errors that carry numeric evidence expose it as attributes rather than
burying it in the message string.
"""

from __future__ import annotations


class StableDiffError(Exception):
    """Base class for all package errors."""

    def payload(self) -> dict:
        """Machine-readable form of the error: its type, message and evidence."""
        return {"error": type(self).__name__, "message": str(self)}


class QuadratureError(StableDiffError):
    """Adaptive quadrature failed to converge at the requested tolerance.

    Carries the last two refinement estimates so the caller can judge how
    far apart they were.
    """

    def __init__(self, message: str, estimates: tuple[float, float] | None = None):
        super().__init__(message)
        self.estimates = estimates

    def payload(self) -> dict:
        d = super().payload()
        if self.estimates is not None:
            d["last_estimates"] = list(self.estimates)
        return d


class NotPositiveRecurrent(StableDiffError):
    """The speed measure has non-integrable tails (no invariant probability)."""


class NotIntegrable(StableDiffError):
    """Requested integral against the invariant measure diverges."""


class OutOfDomain(StableDiffError):
    """Evaluation requested outside the model's numeric domain."""


class ClassificationFailed(StableDiffError):
    """Tail-limit ratio did not converge / tail index estimate unstable."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}

    def payload(self) -> dict:
        d = super().payload()
        d["diagnostics"] = {
            k: v for k, v in self.diagnostics.items() if not hasattr(v, "__call__")
        }
        return d


class InvalidRequest(StableDiffError):
    """A quantity outside its regime, an argument out of range, a foreign or
    inconsistent file, an unimplemented normalization, or a failed walk gate."""


class NotCentered(StableDiffError):
    """The observable must satisfy mu(f) = 0 for this computation."""


class PoissonUnavailable(StableDiffError):
    """Inner tail integral of the Poisson solution diverges."""


class PathExploded(StableDiffError):
    """A simulated path escaped the guard radius.

    ``step`` is the step index at which the guard tripped; ``n_exploded`` /
    ``n_paths`` are filled when raised at the Monte Carlo run level.
    """

    def __init__(self, message: str, step: int | None = None,
                 n_exploded: int | None = None, n_paths: int | None = None):
        super().__init__(message)
        self.step = step
        self.n_exploded = n_exploded
        self.n_paths = n_paths


class HorizonExceeded(StableDiffError):
    """A walk reached its Brownian horizon or step cap before the target time."""


class InvalidAlpha(StableDiffError):
    """Stable index outside the supported range."""


class WindowNotFound(StableDiffError):
    """No xi-window with |ECF| in the required band exists for this sample."""


class Divergent(StableDiffError):
    """A slowly-varying transform was requested where its integral diverges."""


class ConfigError(StableDiffError):
    """Invalid or inconsistent experiment configuration."""
