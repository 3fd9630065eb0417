"""Pass 1's sparse outputs against dense oracles.

``fastpath._classify`` decides every run head and hands back only what
pass 2 reads: the misses, and for L1 the pending hits (the first flagged
access since a line's fill) with their roots.  These tests check them
against the dense view, per-access roots (``fastpath._roots``) and first
flags from a ``CacheState`` loop, and check the far-window count
(``fastpath._window_count``) against a brute-force distinct count.

``assert_window_count_matches(seed)`` and ``assert_verdict_matches_dense(seed)``
run long streams (thousands of heads); tier-1 runs a few seeds and CI's
"Wider nest fuzz" step runs seeds 0-199.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines import CacheSpec
from repro.sim.cache import CacheState
from repro.sim.fastpath import _BLOCK, _classify, _roots, _window_count
from tests.sim.test_sim_properties import _classifier_case

TIER1_SEEDS = range(4)


def _prev_links(heads: np.ndarray) -> np.ndarray:
    """Index of each head's previous occurrence (-1 for a first use)."""
    prev = np.full(len(heads), -1, dtype=np.int64)
    seen = {}
    for k, line in enumerate(heads.tolist()):
        prev[k] = seen.get(line, -1)
        seen[line] = k
    return prev


def _head_stream(rng, length: int) -> np.ndarray:
    """Heads of a line stream (adjacent entries differ), in phases over
    working sets of varying size so distinct counts cross any width."""
    out = [-1]
    while len(out) <= length:
        width = int(rng.choice([2, 5, 17, 40, 150]))
        base = int(rng.integers(0, 300))
        for line in (base + rng.integers(0, width, int(rng.integers(20, 900)))).tolist():
            if line != out[-1]:
                out.append(line)
    return np.array(out[1 : length + 1], dtype=np.int64)


def assert_window_count_matches(seed: int) -> None:
    """``_window_count`` equals ``len(set(window))`` on a long stream."""
    rng = np.random.default_rng(seed)
    heads = _head_stream(rng, int(rng.integers(2000, 5000)))
    H = len(heads)
    assert H >= 2000
    prev = _prev_links(heads)
    t = rng.integers(0, H + 1, 300)
    j = np.minimum(t + rng.integers(0, 200, 300), H)
    # many blocks; exactly one block (aligned and not); t == j; real
    # classifier queries (each far head against its previous use)
    wide = rng.integers(0, H - 12 * _BLOCK, 40)
    wide_j = wide + rng.integers(10 * _BLOCK, 12 * _BLOCK, 40)
    one = np.append(rng.integers(0, H // _BLOCK - 1, 20) * _BLOCK, rng.integers(1, H - _BLOCK, 20))
    same = rng.integers(0, H + 1, 20)
    far = np.flatnonzero(np.arange(H) - prev > 16)
    far = far[prev[far] >= 0]
    t = np.concatenate((t, wide, one, same, prev[far] + 1))
    j = np.concatenate((j, wide_j, one + _BLOCK, same, far))
    got = _window_count(prev, t, j)
    want = [len(set(heads[a:b].tolist())) for a, b in zip(t.tolist(), j.tolist())]
    assert got.tolist() == want
    none = _window_count(prev, t[:0], j[:0])
    assert none.shape == (0,)


def _dense_first(stream, flags, cache: CacheState) -> np.ndarray:
    """First flagged access since its line's fill, from a ``CacheState``
    loop (which it leaves holding the final state)."""
    first = np.zeros(len(stream), dtype=bool)
    flagged = set()
    for i, (line, flag) in enumerate(zip(stream, flags)):
        if cache.lookup(line) is None:
            cache.insert(line, float(i))
            flagged.discard(line)
        first[i] = flag and line not in flagged
        if flag:
            flagged.add(line)
    return first


def _check_verdict(assoc, num_sets, stream, flags, initial) -> None:
    """Misses and pending hits equal what the dense roots and the dense
    first flags give; counters and final state equal the oracle's."""
    spec = CacheSpec("T", capacity=32 * assoc * num_sets, line_size=32,
                     associativity=assoc, latency=1)
    ref, fast = CacheState(spec), CacheState(spec)
    for s, residents in enumerate(initial):
        for line in residents:
            ref.sets[s][line] = fast.sets[s][line] = -1.0 - line
    lines = np.asarray(stream, dtype=np.int64)
    flags = np.asarray(flags, dtype=bool)
    first = _dense_first(stream, flags.tolist(), ref)
    verdict = _classify(lines, fast, flags)
    root = _roots(verdict, len(lines))
    own = root == np.arange(len(lines))
    assert verdict.miss.tolist() == np.flatnonzero(own).tolist()
    pos, proot = verdict.pending
    at = np.argsort(pos)
    dense = np.flatnonzero(first & ~own)
    assert pos[at].tolist() == dense.tolist()
    assert proot[at].tolist() == root[dense].tolist()
    assert (fast.hits, fast.misses, fast.evictions) == (ref.hits, ref.misses, ref.evictions)


def assert_verdict_matches_dense(seed: int) -> None:
    """A long stream (3,000 accesses) through one cache shape: single-set
    TLB-shaped ones (16 and 64 ways) and multi-set ones."""
    rng = np.random.default_rng(seed)
    shapes = [(16, 1), (64, 1), (4, 8), (2, 32), (1, 16), (8, 4), (3, 2)]
    assoc, num_sets = shapes[seed % len(shapes)]
    slots = assoc * num_sets
    stream = []
    while len(stream) < 3000:  # phases around the capacity
        pool = max(2, int(slots * rng.choice([0.5, 0.9, 1.1, 1.5, 3.0])))
        base = int(rng.integers(0, 4 * slots))
        stream.extend((base + rng.integers(0, pool, int(rng.integers(50, 600)))).tolist())
    stream = stream[:3000]
    flags = (rng.random(len(stream)) < 0.8).tolist()
    initial = []
    for s in range(num_sets):
        tags = rng.choice(6 * assoc, int(rng.integers(0, assoc + 1)), replace=False)
        initial.append([int(tag) * num_sets + s for tag in tags])
    _check_verdict(assoc, num_sets, stream, flags, initial)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_window_count_matches_brute_force(seed):
    assert_window_count_matches(seed)


@pytest.mark.parametrize("seed", range(7))  # every shape once
def test_long_stream_verdict_matches_dense(seed):
    assert_verdict_matches_dense(seed)


@st.composite
def _tlb_case(draw):
    """A single-set, high-associativity (TLB-shaped) cache over a pool of
    pages a little larger than it, so windows run far and sets evict."""
    assoc = draw(st.sampled_from([16, 64]))
    pool = draw(st.integers(assoc // 2, 2 * assoc))
    stream = draw(st.lists(st.integers(0, pool), min_size=1, max_size=600))
    flags = draw(st.lists(st.booleans(), min_size=len(stream), max_size=len(stream)))
    initial = draw(st.lists(st.integers(0, pool), max_size=assoc, unique=True))
    return assoc, 1, stream, flags, [initial]


@given(st.one_of(_classifier_case(), _tlb_case()))
@settings(max_examples=300, deadline=None)
def test_sparse_verdict_matches_dense(case):
    _check_verdict(*case)
