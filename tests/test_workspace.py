"""Chunked-walk helpers: the block scheduler, split invariance of
``_Normals``, the pooled generators, the workspace's dtype check, the
``_cumsum_end`` reduction and the clock walk's ``pathsim._first_passages``
read-out against a step-by-step reference."""

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

from stablediff import _rng, _workspace, pathsim
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


def test_normals_keep_every_path_is_a_no_op():
    # the rows stay on the slice path and the generator list is not rebuilt
    normals = _workspace._Normals(9, TAG_TIMECHANGE, PATHS)
    gens = normals._gens
    normals.keep(np.ones(len(PATHS), dtype=bool))
    assert normals._rows is None and normals._gens is gens


TAGS = [_rng.TAG_DIRECT, _rng.TAG_TIMECHANGE, _rng.TAG_EXCURSION, _rng.TAG_CMS,
        _rng.TAG_BOOTSTRAP]


def draws(gen):
    """A mix of draws that leaves a generator mid-buffer, with a half-used
    32-bit word: 5 + 3 + 7 64-bit words from Philox's 4-word blocks, then
    three 32-bit draws."""
    return [gen.standard_normal(5), gen.integers(0, 1 << 62, size=3), gen.random(7),
            gen.integers(0, 1000, size=3, dtype=np.uint32), gen.standard_normal(1001)]


@pytest.mark.parametrize("tag", TAGS)
def test_pooled_streams_equal_fresh(tag):
    # one generator, given back by a block that left it mid-buffer, is
    # re-keyed to every edge key in turn, each time after the draws above
    with mock.patch.object(_workspace._pool, "free", []):
        with _workspace._Normals(1, TAG_TIMECHANGE, [3]) as normals:
            normals.take(1)                # draws one slab of normals
            gen = normals._gens[0]
            gen.integers(0, 10, dtype=np.uint32)
        assert _workspace._pool.free == [gen]
        for seed in (0, 1, (1 << 64) - 1):
            for index in (0, 1, (1 << 48) - 1):
                got = _workspace.stream(seed, tag, index)
                assert got is gen and not _workspace._pool.free
                for a, b in zip(draws(got), draws(stream(seed, tag, index))):
                    assert np.array_equal(a, b)
                _workspace._pool.free.append(got)


def test_live_normals_share_no_generator():
    # the pool holds three generators; two live blocks take five between
    # them, each its own, and give all five back
    with mock.patch.object(_workspace._pool, "free", []):
        with _workspace._Normals(0, TAG_TIMECHANGE, range(3)):
            pass
        with _workspace._Normals(7, _rng.TAG_DIRECT, [0, 9, 4]) as a, \
                _workspace._Normals(7, _rng.TAG_EXCURSION, [9, 2]) as b:
            assert not _workspace._pool.free
            assert len({id(g) for g in a._gens + b._gens}) == 5
            za, zb = a.take(4).copy(), b.take(4)
            for z, tag, paths in ((za, _rng.TAG_DIRECT, [0, 9, 4]),
                                  (zb, _rng.TAG_EXCURSION, [9, 2])):
                for j, p in enumerate(paths):
                    assert np.array_equal(z[:, j], stream(7, tag, p).standard_normal(4))
        assert len({id(g) for g in _workspace._pool.free}) == 5


SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.inf, -np.inf])


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 600), n=st.integers(1, 300),
       layout=st.sampled_from(["C", "F", "cols", "column"]),
       seed=st.integers(0, 2**32 - 1), special=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
       zero_cols=st.booleans(), j=st.floats(0.0, 1.0))
def test_cumsum_end_matches_cumsum(k, n, layout, seed, special, zero_cols, j):
    # bitwise against cumsum's last row and its row j, on every layout the
    # walks hand in: whole arrays in C or F order, a gather of columns and
    # a single column (contiguous or strided), with signed zeros,
    # subnormals and infinities among normals of widely spread sizes
    rng = np.random.default_rng(seed)
    m = n + 5 if layout in ("cols", "column") else n
    base = rng.standard_normal((k, m)) * 10.0 ** rng.integers(-30, 30, (k, m))
    pick = rng.random((k, m)) < special
    base[pick] = rng.choice(SPECIALS, int(pick.sum()))
    if zero_cols:
        base[:, rng.random(m) < 0.3] = -0.0
    if layout == "F":
        D = np.asfortranarray(base)
    elif layout == "cols":
        D = base[:, np.sort(rng.choice(m, n, replace=False))]
    elif layout == "column":            # n's parity picks a view or a gather
        c = int(rng.integers(m))
        D = base[:, c:c + 1] if n % 2 else base[:, [c]]
    else:
        D = base
    row = int(j * (k - 1))
    with np.errstate(invalid="ignore", over="ignore"):     # inf - inf, overflow
        ref = np.cumsum(D, axis=0)
        end, head = _workspace._cumsum_end(D), _workspace._cumsum_end(D[:row + 1])
    assert np.array_equal(end.view(np.int64), ref[-1].view(np.int64))
    assert np.array_equal(head.view(np.int64), ref[row].view(np.int64))


def stepwise_passages(clock, dclock, value, dvalue, targets, crossed):
    """Each column walked one step at a time, reading every target it reaches."""
    end, events = [], []
    for j in range(clock.shape[1]):
        i = int(crossed[j])
        for s in range(clock.shape[0] - 1):
            c = clock[s + 1, j]
            while i < targets.size and c >= targets[i]:
                t = targets[i]
                events.append((j, i, s, value[s, j] + (t - clock[s, j]) / dclock[s + 1, j]
                               * dvalue[s + 1, j]))
                i += 1
        end.append(i)
    return end, events


def check_passages(clock, dclock, value, dvalue, targets):
    # the counts before and after the chunk, as the walk reads them off the
    # carried and the end clock
    crossed = np.searchsorted(targets, clock[0], side="right")
    end = np.searchsorted(targets, clock[-1], side="right")
    col, tgt, step, val = pathsim._first_passages(
        clock, dclock, value, dvalue, targets, crossed, end)
    ref_end, ref = stepwise_passages(clock, dclock, value, dvalue, targets, crossed)
    assert end.tolist() == ref_end
    assert list(zip(col.tolist(), tgt.tolist(), step.tolist())) == [e[:3] for e in ref]
    assert np.array_equal(val.view(np.int64), np.array([e[3] for e in ref]).view(np.int64))
    return step


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), k=st.integers(1, 8))
def test_first_passages_match_stepwise(data, n, k):
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
    check_passages(clock, dclock, value, dvalue, targets)


def test_first_passages_on_a_step_end():
    # column 0 ends its steps at 1, 1 and 3: a target of 1 is reached in
    # step 0, and step 2 reaches 2 and 3; column 1 never moves and reaches
    # nothing
    dclock = np.array([[0.0, 0.5], [1.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    clock = np.cumsum(dclock, axis=0)
    value = np.arange(8.0).reshape(4, 2)
    targets = np.array([1.0, 2.0, 3.0])
    assert check_passages(clock, dclock, value, value, targets).tolist() == [0, 2, 2]


def test_workspace_view_rejects_another_dtype():
    # a name keeps its first dtype: asking for it as int8 once it holds bools
    # raises, where it used to hand back the bool buffer
    ws = _workspace._ChunkWorkspace(4)
    flags = ws.view("off", 2, 4, dtype=np.bool_)
    assert flags.dtype == np.bool_ and ws.view("off", 3, 4, dtype=np.bool_).dtype == np.bool_
    with pytest.raises(TypeError, match="'off' holds bool, not int8"):
        ws.view("off", 2, 4, dtype=np.int8)
    assert ws.view("x", 5).dtype == np.float64


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
