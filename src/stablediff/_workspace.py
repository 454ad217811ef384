"""Block runner, scratch memory and keyed noise for the chunked lockstep walks.

All three walk engines (the Euler-Maruyama engine and the time-change clock
walk in :mod:`stablediff.pathsim`, the excursion engine in
:mod:`stablediff.stable`) split their paths into fixed blocks and advance
each block in chunks of up to ``_CHUNK`` lockstep steps.  Per block, a
:class:`_Normals` hands out each chunk's keyed normals and a
:class:`_ChunkWorkspace` holds every other per-chunk array.
"""

from __future__ import annotations

import math
import mmap
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from ._rng import stream

# lockstep steps per chunk of every walk; in the excursion engine at 512
# paths and dt = 1e-5, 64 and 128 ran alike and 32 took about 20% longer
_CHUNK = 64
_NOISE_SLAB = 512   # normals a path draws per generator call, by default


def _run_blocks(run: Callable, n_paths: int, width: int, threads: int | None) -> list:
    """``run`` on consecutive blocks of ``width`` path positions, in order.

    Each call gets an index array ``lo..hi-1``; the results come back in
    block order.  The partition depends only on ``n_paths`` and ``width``,
    so with keyed streams a run is the same for any ``threads``.
    """
    blocks = [np.arange(lo, min(lo + width, n_paths)) for lo in range(0, n_paths, width)]
    if threads is not None and threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, blocks))
    return [run(b) for b in blocks]


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
    ``(_CHUNK + 1) * per_step`` elements -- a chunk's rows plus the carried
    row, ``per_step`` values each -- so the arrays shrink with the live path
    count without reallocating.
    """

    def __init__(self, per_step: int):
        self._size = (_CHUNK + 1) * per_step
        self._bufs: dict[str, np.ndarray] = {}

    def view(self, name: str, *shape: int, dtype=np.float64) -> np.ndarray:
        flat = self._bufs.get(name)
        if flat is None:
            flat = self._bufs[name] = _mapped(self._size, dtype=dtype)
        return flat[:math.prod(shape)].reshape(shape)


class _Normals:
    """The keyed standard normals of a block of paths, a chunk at a time.

    Path ``indices[j]`` draws from ``stream(seed, tag, indices[j])``, in
    slabs of ``slab`` values (rounded up to whole chunks) per generator call,
    into a path-major buffer; ``take`` copies the next steps of every live
    path out of it step-major.  A Philox stream's normals do not depend on
    how the draws are split across calls, so path j gets exactly the values
    of one ``standard_normal`` call for its whole walk, whatever the chunk
    lengths, the slab length or the order in which paths finish.
    ``steps``, if given, is the most normals any path will take; no path
    draws beyond it.
    """

    def __init__(self, seed: int, tag: int, indices, steps: float = math.inf,
                 slab: int = _NOISE_SLAB):
        self._gens = [stream(seed, tag, int(p)) for p in indices]
        self._slab = _CHUNK * -(-slab // _CHUNK)
        self._left = steps                 # normals each path has yet to draw
        self._buf = _mapped(len(self._gens), self._slab)
        self._z = _mapped(_CHUNK * len(self._gens))
        self._pos = self._end = 0          # unread columns of the buffer
        # buffer rows of the live paths; None while they are rows 0..n-1.
        # Dropped rows are squeezed out at the next refill, when few or no
        # columns are left to move.
        self._rows = None

    def take(self, at_most: int) -> np.ndarray:
        """The next ``min(_CHUNK, at_most)`` normals of every live path.

        Row i of the ``(k, n_live)`` result holds step i, columns in live
        order.  It is scratch memory that the next call overwrites.
        """
        n = len(self._gens)
        k = min(_CHUNK, at_most)
        rows = slice(0, n) if self._rows is None else self._rows
        if self._end - self._pos < k:
            # carry the unread tail of the live rows to the front, then
            # refill behind it
            rem = self._end - self._pos
            buf = self._buf[:n]
            buf[:, :rem] = self._buf[rows, self._pos:self._end]
            rows, self._rows = slice(0, n), None
            m = int(min(self._slab - rem, self._left))
            for gen, row in zip(self._gens, buf[:, rem:rem + m]):
                gen.standard_normal(out=row)
            self._left -= m
            self._pos, self._end = 0, rem + m
        z = self._z[:k * n].reshape(k, n)
        z[...] = self._buf[rows, self._pos:self._pos + k].T
        self._pos += k
        return z

    def keep(self, mask: np.ndarray) -> None:
        """Drop the live paths where ``mask`` is False; the rest keep their order."""
        self._rows = np.flatnonzero(mask) if self._rows is None else self._rows[mask]
        self._gens = [gen for gen, kept in zip(self._gens, mask.tolist()) if kept]
