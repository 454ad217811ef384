import numpy as np
import pytest

from stablediff import _workspace, presets
from stablediff.asymptotics import classify_regime, limit_law


def _f_id(x):
    return np.asarray(x, dtype=np.float64)


@pytest.fixture(scope="session")
def heavy1():
    return presets.heavy_tailed(1.0)


@pytest.fixture(scope="session")
def kinetic3():
    return presets.kinetic(3.0)


@pytest.fixture(scope="session")
def kinetic7():
    return presets.kinetic(7.0)


@pytest.fixture(scope="session")
def law_levy(kinetic3):
    alpha, fp, fm = presets.kinetic_tail_limits(3.0)
    return limit_law(
        classify_regime(kinetic3, _f_id, claimed=(alpha, None, fp, fm)),
        kinetic3, _f_id)


@pytest.fixture(scope="session")
def kinetic_critical():
    return presets.kinetic(2.0, 1.0, 0.25)


@pytest.fixture(scope="session")
def law_critical_levy(kinetic_critical):
    alpha, fp, fm = presets.kinetic_tail_limits(2.0, 1.0, 0.25)
    return limit_law(
        classify_regime(kinetic_critical, _f_id, claimed=(alpha, None, fp, fm)),
        kinetic_critical, _f_id)


@pytest.fixture(scope="session")
def law_diffusive(kinetic7):
    alpha, fp, fm = presets.kinetic_tail_limits(7.0)
    return limit_law(
        classify_regime(kinetic7, _f_id, claimed=(alpha, None, fp, fm)),
        kinetic7, _f_id)


@pytest.fixture(scope="session")
def identity_model():
    # b = 0, sigma = 1: scale is the identity, speed measure is Lebesgue
    return __import__("stablediff").DiffusionModel(
        drift=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        diffusion=lambda x: np.ones_like(np.asarray(x, dtype=np.float64)),
        domain_cutoff=50.0,
        name="flat",
    )


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture
def chunk_log(monkeypatch):
    """The (steps, live paths) shape of every chunk of normals that
    ``_Normals.take`` hands out in this process, in order."""
    log = []
    take = _workspace._Normals.take

    def logged(self, at_most):
        z = take(self, at_most)
        log.append(z.shape)
        return z

    monkeypatch.setattr(_workspace._Normals, "take", logged)
    return log
