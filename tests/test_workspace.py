"""Chunked-walk helpers: split invariance of ``_Normals`` and the
``_first_passages`` read-out against a step-by-step reference."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stablediff import _workspace
from stablediff._rng import TAG_TIMECHANGE, stream

PATHS = [0, 5, 2, 700, 3, 1]


@settings(max_examples=80, deadline=None)
@given(chunk=st.integers(1, 9), slab=st.integers(1, 40), capped=st.booleans(),
       plan=st.lists(st.tuples(st.integers(1, 12),
                               st.lists(st.booleans(), min_size=len(PATHS),
                                        max_size=len(PATHS))),
                     min_size=1, max_size=15))
def test_normals_split_invariant(chunk, slab, capped, plan):
    # each take asks for at most ``at_most`` steps, then the paths whose flag
    # is False drop out; every path must see its own stream's first values
    total = sum(min(chunk, at_most) for at_most, _ in plan)
    ref = {p: stream(9, TAG_TIMECHANGE, p).standard_normal(total + 1) for p in PATHS}
    got = {p: [] for p in PATHS}
    live = list(PATHS)
    with mock.patch.object(_workspace, "_CHUNK", chunk):
        normals = _workspace._Normals(9, TAG_TIMECHANGE, PATHS,
                                      steps=total if capped else math.inf, slab=slab)
        for at_most, flags in plan:
            z = normals.take(at_most)
            assert z.shape == (min(chunk, at_most), len(live))
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
