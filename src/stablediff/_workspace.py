"""Block runner, scratch memory and keyed noise for the chunked lockstep walks.

The two walk engines of :mod:`stablediff.pathsim`, the Euler-Maruyama
engine and the time-change clock walk, split their paths into blocks and
advance each block in chunks of lockstep steps: ``_CHUNK`` while every path
of the block is live, longer as paths finish (see :meth:`_Normals.take`), so
a block's straggler tail pays the per-chunk work once per up to a slab of
steps.  :func:`_run_blocks`, the one block scheduler, shares the blocks
among forked worker processes, one per CPU by default: the walks spend
their time in short numpy calls whose interpreter overhead holds the GIL,
so threads did not pay.  The Ray-Knight construction of
:mod:`stablediff.stable` runs its blocks through it too, at the fixed width
``_MIN_WIDTH``.  Per block, a :class:`_Normals` hands out each chunk's keyed
normals from generators re-keyed out of a per-thread pool (:func:`stream`),
and a :class:`_ChunkWorkspace` holds every other per-chunk array.  The
walks keep each running sum as its increments, with the carried state in
row 0: they read the chunk's end by one reduction (:func:`_cumsum_end`) and
build the running sums only on the few columns that pass a target, where
the clock walk reads them (``pathsim._first_passages``).
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import pickle
import signal
import threading
from typing import Callable

import numpy as np

from . import _rng

# lockstep steps per chunk of every walk while all of a block's paths are
# live
_CHUNK = 64
_NOISE_SLAB = 512   # normals a path draws per generator call, by default
_TILE = 128         # paths per tile of the step-major noise copy
# fewest paths a block is cut to when the paths are shared among workers.
# A fork costs the caller 5-10 ms; at 1000 steps per path, 256 paths as two
# blocks of 128 on two workers ran about as fast as one block here, and two
# blocks of 64 or fewer ran slower, on Direct and on the clock walk.
# stable.stable_via_excursions keys its draws by blocks of this width, so a
# new value changes that route's samples
_MIN_WIDTH = 128

_in_worker = False  # True in a process forked by _run_blocks


def _run_blocks(run: Callable, n_paths: int, width: int, threads: int | None) -> list:
    """``run`` on consecutive blocks of path positions; results in block order.

    Each call gets an index array ``lo..hi-1``.  ``threads`` worker
    processes share the blocks (``None``: one per CPU this process may run
    on), and the blocks are cut to ``ceil(n_paths / threads)`` paths, but
    never below ``_MIN_WIDTH`` nor above ``width``, so every worker has one.
    With one worker, one block, or inside a worker or a daemonic
    ``multiprocessing`` process, the blocks run here, one after the other.
    A worker is forked, so ``run`` and everything it reads are inherited,
    not pickled; only its results come back.

    If blocks raise, the exception of the lowest-index one is raised here,
    as the loop raises it; workers run every block to its end first.  Keyed
    streams make the results independent of the partition, so a run is the
    same for any ``threads``.
    """
    workers = len(os.sched_getaffinity(0)) if threads is None else max(threads, 1)
    if _in_worker or multiprocessing.current_process().daemon:
        workers = 1
    width = min(width, max(_MIN_WIDTH, -(-n_paths // workers)))
    blocks = [np.arange(lo, min(lo + width, n_paths)) for lo in range(0, n_paths, width)]
    if workers < 2 or len(blocks) < 2:
        return [run(b) for b in blocks]
    outcomes = _forked(run, blocks, min(workers, len(blocks)))
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _outcome(run: Callable, block: np.ndarray) -> tuple:
    """``(True, run(block))``, or ``(False, exception)`` if it raised."""
    try:
        return True, run(block)
    except Exception as err:
        return False, err


def _forked(run: Callable, blocks: list, workers: int) -> list:
    """The outcome of ``run`` on every block, from this process and
    ``workers - 1`` forked ones; worker i takes blocks i, i + workers, ...

    A worker sends its pickled outcomes down a pipe and leaves with
    ``os._exit``; every worker is reaped before this returns, so no exit
    overlaps the caller's next work.  A worker that dies first makes each
    of its blocks fail with :class:`ChildProcessError`.  If this process is
    interrupted, the workers still running are killed.  A fork copies only
    the calling thread, so ``run`` must not take a lock another thread of
    the caller may hold.
    """
    global _in_worker
    children = {}       # pid -> (worker number, read end of its pipe)
    try:
        for i in range(1, workers):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:    # the worker: never returns
                code = 1
                try:
                    _in_worker = True
                    os.close(rfd)
                    mine = [_outcome(run, b) for b in blocks[i::workers]]
                    try:
                        data = pickle.dumps(mine, protocol=pickle.HIGHEST_PROTOCOL)
                    except Exception:   # say, an exception of a local class
                        data = pickle.dumps([(ok, value if ok else ChildProcessError(
                            f"a block raised {value!r}, which cannot be pickled"))
                            for ok, value in mine])
                    with open(wfd, "wb") as pipe:
                        pipe.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wfd)
            children[pid] = (i, open(rfd, "rb"))
        outcomes = [None] * len(blocks)
        _in_worker = True       # this process is worker 0 for the while
        try:
            outcomes[::workers] = [_outcome(run, b) for b in blocks[::workers]]
        finally:
            _in_worker = False
        for pid, (i, pipe) in list(children.items()):
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if status == 0:
                outcomes[i::workers] = pickle.loads(data)
            else:
                died = ChildProcessError(
                    f"block worker {pid} ended with wait status {status:#x} "
                    "before sending its outcomes")
                outcomes[i::workers] = [(False, died)] * len(blocks[i::workers])
        return outcomes
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    ``(_CHUNK + 1) * width`` elements -- a full-width chunk's rows plus the
    carried row.  As paths finish, the chunks grow into the same buffers:
    a ``(k + 1, n_live)`` view fits whenever ``k <= _CHUNK * width //
    n_live``, the length :meth:`_Normals.take` hands out, so nothing is
    reallocated.
    """

    def __init__(self, width: int):
        self._size = (_CHUNK + 1) * width
        self._bufs: dict[str, np.ndarray] = {}

    def view(self, name: str, *shape: int, dtype=np.float64) -> np.ndarray:
        """The named buffer's front as a ``shape`` array; a name keeps the
        dtype it was first asked for, and asking for another raises
        ``TypeError``."""
        flat = self._bufs.get(name)
        if flat is None:
            flat = self._bufs[name] = _mapped(self._size, dtype=dtype)
        elif flat.dtype != dtype:
            raise TypeError(f"workspace buffer {name!r} holds {flat.dtype}, not {np.dtype(dtype)}")
        return flat[:math.prod(shape)].reshape(shape)


class _Pool(threading.local):
    """Each thread's free list of Philox generators.

    Per thread, so that taking and giving back need no lock: a fork copies
    only the calling thread, and a lock another thread held would stay
    held in the child.
    """

    def __init__(self):
        self.free: list[np.random.Generator] = []


_pool = _Pool()


def stream(seed: int, tag: int, index: int) -> np.random.Generator:
    """The generator of ``_rng.stream(seed, tag, index)``, bit for bit.

    A generator from this thread's pool is re-keyed through its bit
    generator's ``state``: counter 0, an empty buffer, no half-used 32-bit
    word, and the key, which takes about 3 us against 12-20 us for a fresh
    one.  Only when the pool is empty is a fresh one built.
    """
    if not _pool.free:
        return _rng.stream(seed, tag, index)
    gen = _pool.free.pop()
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": _rng.key(seed, tag, index)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return gen


def _cumsum_end(D: np.ndarray) -> np.ndarray:
    """``np.cumsum(D, axis=0)[-1]`` bit for bit, by one reduction.

    ``np.add.reduce`` adds row after row only where the summed axis is not
    the contiguous one: a single column, or an F-ordered view such as
    ``D[:, cols]``, it sums pairwise.  So D is reduced in C order, a single
    column goes through ``cumsum``, and the reduction starts from -0.0,
    the exact additive identity, so that an all -0.0 column keeps its sign.
    At 65 x 256 the reduction took 7 us against 81 us for ``cumsum``.
    """
    if D.shape[1] < 2:
        return np.cumsum(D, axis=0)[-1]
    return np.add.reduce(np.ascontiguousarray(D), axis=0, initial=-0.0)


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

    Used as a context manager, it gives its generators back to this
    thread's pool when the block ends, so two live ``_Normals`` never share
    one; the next block's :func:`stream` calls re-key them.
    """

    def __init__(self, seed: int, tag: int, indices, steps: float = math.inf,
                 slab: int = _NOISE_SLAB):
        self._gens = [stream(seed, tag, int(p)) for p in indices]
        self._taken = list(self._gens)     # every generator, to give back
        self._width = len(self._gens)
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
        """The next k normals of every live path, step-major.

        k is ``at_most``, the slab length, or ``_CHUNK * width // n_live``,
        whichever is least, ``width`` being the paths the block started
        with: a chunk grows as paths finish, up to the longest whose
        ``(k + 1, n_live)`` arrays still fit the block's ``(_CHUNK + 1) *
        width`` buffers.  Row i of the ``(k, n_live)`` result holds step i,
        columns in live order.  It is scratch memory that the next call
        overwrites.
        """
        n = len(self._gens)
        k = min(at_most, self._slab, _CHUNK * self._width // n)
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
        cols = slice(self._pos, self._pos + k)
        # transposed a tile of paths at a time, which stays in cache; the
        # whole block at once ran 1.5-2.5x slower at 1024-2048 paths
        for j in range(0, n, _TILE):
            tile = slice(j, min(j + _TILE, n))
            z[:, tile] = self._buf[tile if self._rows is None else rows[tile], cols].T
        self._pos += k
        return z

    def keep(self, mask: np.ndarray) -> None:
        """Drop the live paths where ``mask`` is False; the rest keep their order.

        A mask that keeps every path changes nothing: the rows stay as they
        are, so ``take`` keeps reading them through a slice."""
        if mask.all():
            return
        self._rows = np.flatnonzero(mask) if self._rows is None else self._rows[mask]
        self._gens = [gen for gen, kept in zip(self._gens, mask.tolist()) if kept]

    def __enter__(self) -> "_Normals":
        return self

    def __exit__(self, *exc) -> None:
        # a replaced ``stream`` may hand out other objects; they stay out
        _pool.free.extend(g for g in self._taken if isinstance(g, np.random.Generator))
        self._gens = self._taken = []

