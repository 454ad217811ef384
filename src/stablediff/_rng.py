"""Counter-based random streams for reproducible parallel Monte Carlo.

Every stochastic object in the package draws from a Philox generator keyed by
``(seed, purpose_tag, path_index)``.  The stream a path consumes is therefore
a pure function of the seed and the path's identity — never of the worker
process that happens to run it, the block it is batched into, or how many
other paths exist.  Since every per-path sum adds in step order, whole runs
are bit-identical for any block width and so for any ``threads`` value
(the worker-process count, which sets the width).

Philox output is chunk-invariant: drawing 2×4096 doubles in two calls yields
the same stream as one call of 8192, so a walk may draw its normals a chunk
of steps at a time.  A Philox stream is its key and a counter, so an
existing generator set to counter 0, an empty buffer and the key of
:func:`key` gives the stream of :func:`stream` bit for bit; the walks re-key
pooled generators that way (see :func:`stablediff._workspace.stream`),
since a fresh one spends most of its 12-20 us drawing OS entropy for a
seed sequence that the key then overrides.  Single streams (CMS sampling,
the bootstrap) are built fresh by :func:`stream`.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidRequest

# Purpose tags; shifted into the high bits of the second key word so that the
# path index (low bits) can never collide across purposes.  A tag's value is
# part of every stream it keys, so no tag is ever renumbered.  Tag 5 is
# retired (it keyed a single-path Brownian grid) and must not be reused.
TAG_DIRECT = 1      # Euler-Maruyama paths
TAG_TIMECHANGE = 2  # Brownian clock of the time-change scheme
TAG_EXCURSION = 3   # Brownian excursion engine
TAG_CMS = 4         # direct stable sampling
TAG_BOOTSTRAP = 6   # validation bootstrap

_MASK64 = (1 << 64) - 1


def checked_seed(seed) -> int:
    """``seed`` as an int, if it is an integer (not a bool) in [0, 2**64).

    Anything else raises :class:`InvalidRequest`: :func:`key` keeps only a
    seed's low 64 bits, so an unchecked 2**64 or -1 would silently replay
    the stream of another seed.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
            or not 0 <= int(seed) <= _MASK64:
        raise InvalidRequest(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def key(seed: int, tag: int, index: int) -> np.ndarray:
    """The two-word Philox key of one (seed, purpose, path) triple."""
    return np.array([seed & _MASK64, ((tag & 0xFFFF) << 48) | (index & ((1 << 48) - 1))],
                    dtype=np.uint64)


def stream(seed: int, tag: int, index: int = 0) -> np.random.Generator:
    """Generator for one (seed, purpose, path) triple."""
    return np.random.Generator(np.random.Philox(key=key(seed, tag, index)))
