"""Keyed noise of the chunked walks: split invariance of ``_Normals``."""

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
