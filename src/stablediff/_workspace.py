"""Scratch memory for the chunked lockstep walks.

Both walk engines (the excursion engine in :mod:`stablediff.stable` and the
time-change clock walk in :mod:`stablediff.pathsim`) advance a block of
paths in chunks of lockstep steps and keep every per-chunk array in one
workspace allocated per block.
"""

from __future__ import annotations

import math
import mmap

import numpy as np


def _mapped(*shape: int, dtype=np.float64) -> np.ndarray:
    """A zero-filled array in its own anonymous memory mapping.

    Its pages go back to the system when the array is freed.  The engines'
    per-block buffers take several MB; allocated through malloc they stay in
    the heap after the call (glibc trims the heap only past a threshold that
    grows with the largest block ever freed), where later allocations of
    other sizes do not reuse them, and the process's peak RSS grows.
    """
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


class _ChunkWorkspace:
    """Per-block scratch arrays for a chunked walk, allocated once.

    Each ``view`` is a C-contiguous window on the front of a flat buffer of
    ``size`` elements, so the arrays shrink with the live path count without
    reallocating.
    """

    def __init__(self, size: int):
        self._size = size
        self._bufs: dict[str, np.ndarray] = {}

    def view(self, name: str, *shape: int, dtype=np.float64) -> np.ndarray:
        flat = self._bufs.get(name)
        if flat is None:
            flat = self._bufs[name] = _mapped(self._size, dtype=dtype)
        return flat[:math.prod(shape)].reshape(shape)
