"""Chunked-walk helpers: the block scheduler, split invariance of
``_Normals`` and the ``_first_passages`` read-out against a step-by-step
reference."""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablediff import _workspace
from stablediff._rng import TAG_TIMECHANGE, stream
from stablediff.errors import PathExploded

PATHS = [0, 5, 2, 700, 3, 1]


@settings(max_examples=80, deadline=None)
@given(chunk=st.integers(1, 9), slab=st.integers(1, 40), tile=st.integers(1, 7),
       capped=st.booleans(),
       plan=st.lists(st.tuples(st.integers(1, 12),
                               st.lists(st.booleans(), min_size=len(PATHS),
                                        max_size=len(PATHS))),
                     min_size=1, max_size=15))
def test_normals_split_invariant(chunk, slab, tile, capped, plan):
    # each take asks for at most ``at_most`` steps, then the paths whose flag
    # is False drop out; every path must see its own stream's first values.
    # A take is at_most, the slab (whole chunks) or chunk * width // live
    # steps long, whichever is least, so chunks grow as paths drop out
    width, slab_len = len(PATHS), chunk * -(-slab // chunk)
    lens, n_live = [], width
    for at_most, flags in plan:
        lens.append(min(at_most, slab_len, chunk * width // n_live))
        n_live = sum(flags[:n_live])
        if not n_live:
            break
    total = sum(lens)
    ref = {p: stream(9, TAG_TIMECHANGE, p).standard_normal(total + 1) for p in PATHS}
    got = {p: [] for p in PATHS}
    live = list(PATHS)
    with mock.patch.object(_workspace, "_CHUNK", chunk), \
            mock.patch.object(_workspace, "_TILE", tile):
        normals = _workspace._Normals(9, TAG_TIMECHANGE, PATHS,
                                      steps=total if capped else math.inf, slab=slab)
        for (at_most, flags), k in zip(plan, lens):
            z = normals.take(at_most)
            assert z.shape == (k, len(live))
            for j, p in enumerate(live):
                got[p].extend(z[:, j])
            mask = np.array(flags[:len(live)])
            normals.keep(mask)
            live = [p for p, kept in zip(live, mask) if kept]
            if not live:
                break
    for p in PATHS:
        assert np.array_equal(got[p], ref[p][:len(got[p])])
    if capped:
        # the paths still live took all ``total`` steps and drew no more
        for p, gen in zip(live, normals._gens):
            assert gen.standard_normal() == ref[p][total]


def stepwise_passages(clock, dclock, value, dvalue, targets, crossed, side):
    """Each column walked one step at a time, reading every target it passes."""
    end, events = [], []
    for j in range(clock.shape[1]):
        i = int(crossed[j])
        for s in range(clock.shape[0] - 1):
            c = clock[s + 1, j]
            while i < targets.size and (c >= targets[i] if side == "right" else c > targets[i]):
                t = targets[i]
                events.append((j, i, s, value[s, j] + (t - clock[s, j]) / dclock[s + 1, j]
                               * dvalue[s + 1, j]))
                i += 1
        end.append(i)
    return end, events


def check_passages(clock, dclock, value, dvalue, targets, side):
    crossed = np.searchsorted(targets, clock[0], side=side)
    end, col, tgt, step, val = _workspace._first_passages(
        clock, dclock, value, dvalue, targets, crossed, side)
    ref_end, ref = stepwise_passages(clock, dclock, value, dvalue, targets, crossed, side)
    assert end.tolist() == ref_end
    assert list(zip(col.tolist(), tgt.tolist(), step.tolist())) == [e[:3] for e in ref]
    assert np.array_equal(val.view(np.int64), np.array([e[3] for e in ref]).view(np.int64))
    return step


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), k=st.integers(1, 8),
       side=st.sampled_from(["left", "right"]))
def test_first_passages_match_stepwise(data, n, k, side):
    # monotone clocks with zero increments; targets drawn partly from the
    # step-end clock values themselves, so some sit exactly on a step end
    inc = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 2.0)
    rows = st.lists(st.lists(inc, min_size=n, max_size=n), min_size=k + 1, max_size=k + 1)
    dclock = np.array(data.draw(rows))
    clock = np.empty_like(dclock)
    clock[0] = dclock[0]                   # row 0 carries the state
    for i in range(k):
        clock[i + 1] = clock[i] + dclock[i + 1]
    vals = st.lists(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
                    min_size=k + 1, max_size=k + 1)
    value, dvalue = np.array(data.draw(vals)), np.array(data.draw(vals))
    pool = st.sampled_from(clock.ravel().tolist()) | st.floats(0.0, float(clock.max()) + 1.0)
    targets = np.unique(data.draw(st.lists(pool, min_size=1, max_size=8)))
    check_passages(clock, dclock, value, dvalue, targets, side)


def test_first_passages_on_a_step_end():
    # column 0 ends its steps at 1, 1 and 3: a target of 1 is reached in
    # step 0 and exceeded in step 2, which also passes 2 and 3 (right) or 2
    # (left); column 1 never moves and passes nothing
    dclock = np.array([[0.0, 0.5], [1.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    clock = np.cumsum(dclock, axis=0)
    value = np.arange(8.0).reshape(4, 2)
    targets = np.array([1.0, 2.0, 3.0])
    assert check_passages(clock, dclock, value, value, targets, "right").tolist() == [0, 2, 2]
    assert check_passages(clock, dclock, value, value, targets, "left").tolist() == [2, 2]


def pid_of(block):
    return block, os.getpid()


@pytest.mark.parametrize("threads, width", [(1, 300), (2, 300), (3, 300), (4, 250)])
def test_run_blocks_partition(threads, width):
    # 1000 paths: blocks of min(300, ceil(1000 / threads)) in order, shared
    # by min(threads, blocks) processes
    parts = _workspace._run_blocks(pid_of, 1000, 300, threads)
    assert [b.tolist() for b, _ in parts] == [
        list(range(lo, min(lo + width, 1000))) for lo in range(0, 1000, width)]
    pids = {pid for _, pid in parts}
    assert os.getpid() in pids and len(pids) == min(threads, len(parts))


def fail_in_blocks(block):
    # at threads = 2 the caller runs block 2 and fails there first, and a
    # worker fails in block 1
    lo = int(block[0])
    if lo in (128, 256):
        raise PathExploded(f"block at {lo}", step=lo, n_paths=block.size)
    return block


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_run_blocks_raise_the_first_failing_block(threads):
    with pytest.raises(PathExploded) as exc:
        _workspace._run_blocks(fail_in_blocks, 512, 128, threads)
    assert (str(exc.value), exc.value.step, exc.value.n_paths) == ("block at 128", 128, 128)


PARENT = os.getpid()


def die_in_worker(block):
    if os.getpid() != PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return block


def test_run_blocks_dead_worker_raises():
    with pytest.raises(ChildProcessError):
        _workspace._run_blocks(die_in_worker, 512, 128, 2)


def raise_local_class(block):
    class LocalError(Exception):
        pass

    if os.getpid() != PARENT:
        raise LocalError(f"in block at {int(block[0])}")
    return block


def test_run_blocks_unpicklable_exception_is_reported():
    # a worker's blocks 1 and 3 raise an exception that cannot be pickled back
    with pytest.raises(ChildProcessError, match="in block at 128"):
        _workspace._run_blocks(raise_local_class, 512, 128, 2)


def nested(block):
    return os.getpid(), _workspace._run_blocks(pid_of, 512, 128, 2)


def test_run_blocks_in_a_worker_run_in_process():
    for pid, inner in _workspace._run_blocks(nested, 512, 128, 2):
        assert {p for _, p in inner} == {pid}


def report_pids(conn):
    conn.send({pid for _, pid in _workspace._run_blocks(pid_of, 512, 128, 2)} == {os.getpid()})


def test_run_blocks_in_a_daemon_run_in_process():
    ctx = multiprocessing.get_context("fork")
    here, there = ctx.Pipe()
    proc = ctx.Process(target=report_pids, args=(there,), daemon=True)
    proc.start()
    assert here.poll(60) and here.recv() is True
    proc.join(60)
    assert proc.exitcode == 0
