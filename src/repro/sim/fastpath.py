"""Exact two-pass vectorized replay of an address batch (the sim hot path).

The per-access reference simulator (``MemorySystem.access``) interleaves
two very different computations:

* **classification** — is this access a hit or a miss, at each cache
  level and in the TLB, and what gets evicted?  This is a pure function
  of the *ordered line sequence*: LRU state never depends on timestamps.
* **timing** — when does the fill complete, how long does the demand
  stall, when is the memory bus free again?  This genuinely needs
  sequential replay, but only at the events that touch time: misses,
  demand TLB misses, and demand hits on lines whose fill is still in
  flight.

``process_batch`` exploits that split:

Pass 1 (classification, bulk numpy)
    One classifier, :func:`_classify`, serves every cache level and the
    TLB (a cache of pages).  Set state is LRU (Mattson et al., 1970): an
    access hits iff fewer than ``associativity`` distinct lines of its
    set were used since the line's previous use.  The classifier
    prepends each touched set's residents (LRU -> MRU) as
    pseudo-accesses, groups the stream by set with one stable sort,
    collapses same-line runs to their heads and decides each head from
    the window back to the previous head of its line: a short window is
    a hit, and so is any window in a set that sees at most
    ``associativity`` distinct lines (such a set never evicts).  At one
    or two ways a longer window is a miss (adjacent heads differ); at
    more, a bound from the heads' own reuse distances settles most such
    windows as hits, and the rest get an exact distinct-line count over
    the window itself (:func:`_window_count`: whole 64-head blocks by
    one binary search each, the partial block head by head).  Pass 2
    reads only a few of the results, so they stay per run head: the TLB
    and L1 take their misses straight from the heads, and L1 its pending
    hits with their *roots* (the miss that filled the line this batch,
    or the resident hit).  Only the deeper levels expand roots to every
    access (:func:`_roots`), because pass 2 links their hits to in-batch
    fills; each classifies the previous level's misses in position
    order, so every miss's resolution (level, latency, in-batch fill
    source or settled fill time) is a handful of arrays.

Pass 2 (timing, Python loop over events only)
    Demand TLB misses, L1 misses and pending hits — a demand access that
    is the first since its line's fill, when that fill may still be in
    flight — are sorted by position (a position's TLB walk before its
    cache access, as in the reference) and replayed over flat lists.
    ``now`` at position ``p`` is ``now0 + issue(0..p) + extra`` where
    ``extra`` accumulates stalls and TLB penalties, exactly mirroring how
    the reference's ``now`` evolves.  Each miss replays the
    ``_fill_from`` arithmetic (level latencies down the miss path, memory
    bus reservation, demand stall to the fill time).  The final LRU state
    of every touched set is written back afterwards, with the concrete
    fill times.

Exactness: hit/miss/eviction/TLB *counts* are byte-identical
to the reference by construction — classification never consults time.
Timing is exact event-for-event up to float reassociation (issue time is
accumulated with a cumulative sum instead of one addition per access),
which is the documented intra-batch tolerance.  A later demand access of
the same fill cannot stall (``now`` has already passed the fill), so it
needs no event.
"""

from __future__ import annotations

from itertools import chain
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

__all__ = ["process_batch"]

_KIND_PREFETCH = 2

#: heads per block of the window count (:func:`_window_count`)
_BLOCK = 64

# Pass-2 event kinds.
_EV_TLB = 0  # demand TLB miss
_EV_PENDING = 1  # demand hit that may stall on an in-flight fill
_EV_DEEP = 2  # L1 miss serviced by a deeper cache level
_EV_MEMORY = 3  # L1 miss serviced by memory


def process_batch(ms, addresses, kinds, cycles_per_access) -> None:
    """Replay one ordered access batch on ``ms`` (a ``MemorySystem``).

    ``cycles_per_access`` is a float (uniform issue share) or a float64
    array with one issue charge per access.
    """
    l1 = ms.caches[0]
    lines = addresses >> l1.line_bits
    demand = kinds != _KIND_PREFETCH

    # -- global collapse: a demand access whose *immediately preceding*
    # event is a demand access to the same L1 line is an L1 and TLB hit
    # with no state change and no stall (the line and its page are
    # already MRU; a preceding demand has already stalled to any pending
    # fill).  An intervening prefetch breaks the pair — its insert can
    # evict lines from the set, so the hit must replay.
    n = len(addresses)
    prev_line = np.empty(n, dtype=np.int64)
    prev_line[0] = ms._last_demand_line  # -1 unless last event was demand
    prev_line[1:] = lines[:-1]
    prev_demand = np.empty(n, dtype=bool)
    prev_demand[0] = True
    prev_demand[1:] = demand[:-1]
    keep = ~(demand & prev_demand & (lines == prev_line))
    ms._last_demand_line = int(lines[-1]) if bool(demand[-1]) else -1
    dropped = int(n - keep.sum())
    if dropped:
        l1.hits += dropped
        ms.tlb.hits += dropped

    # Issue time is charged at each access's own position via a running
    # sum, so now_at(p) below reproduces the reference's sequential
    # accumulation (up to float reassociation).
    if isinstance(cycles_per_access, np.ndarray):
        issue_cum = np.cumsum(cycles_per_access)
        total_issue = float(issue_cum[-1])
        cpa = 0.0
    else:
        issue_cum = None
        cpa = float(cycles_per_access)
        total_issue = n * cpa
    now0 = ms.now

    if dropped:
        kpos = np.nonzero(keep)[0]
        kaddr = addresses[kpos]
        klines = lines[kpos]
        kdemand = demand[kpos]
    else:
        kpos = None
        kaddr = addresses
        klines = lines
        kdemand = demand
    m = len(kaddr)
    if m == 0:
        ms.now = now0 + total_issue
        ms.collapsed += dropped
        return

    def opos_of(kept_idx: np.ndarray) -> np.ndarray:
        """Original batch positions of the given kept-stream indices."""
        return kept_idx if kpos is None else kpos[kept_idx]

    # ---------------------------------------------------------------- TLB
    tlb = ms.tlb
    tv = _classify(kaddr >> tlb.line_bits, tlb)
    tlb_miss = tv.miss[kdemand[tv.miss]]  # demand only

    # ----------------------------------------------------------------- L1
    v1 = _classify(klines, l1, kdemand)
    mk = v1.miss  # L1 misses, in position order
    n_miss = len(mk)
    init1 = v1.init
    # Pending hits: the first demand access since its line's fill, when
    # that fill is this batch's (in flight) or a resident's still due.
    ph, p_root = v1.pending
    own = p_root >= 0
    p_ref = np.where(own, np.searchsorted(mk, p_root), -1)
    p_val = np.zeros(len(ph))
    p_val[~own] = init1[p_root[~own]]
    due = own | (p_val > now0)
    ph, p_ref, p_val = ph[due], p_ref[due], p_val[due]

    # ------------------------------------------------------ deeper levels
    levels = ms.caches
    maddr = kaddr[mk]
    kind = np.full(n_miss, _EV_MEMORY, dtype=np.int64)
    ref = np.full(n_miss, -1, dtype=np.int64)  # in-batch fill source
    val = np.zeros(n_miss)  # settled fill time of a resident hit
    dts = np.zeros(n_miss)  # latency accumulated down to the resolution
    ords = np.arange(n_miss)  # L1-miss ordinals still unresolved
    deep_final = []
    dt = 0.0
    for cache in levels[1:]:
        if not len(ords):
            break
        dt += cache.spec.latency
        v = _classify(maddr[ords] >> cache.line_bits, cache)
        deep_final.append((cache, v.final, v.init, ords))
        r = _roots(v, len(ords))
        hit = r != np.arange(len(ords))
        ho = ords[hit]
        hr = r[hit]
        kind[ho] = _EV_DEEP
        dts[ho] = dt
        own = hr >= 0
        ref[ho[own]] = ords[hr[own]]
        val[ho[~own]] = v.init[hr[~own]]
        ords = ords[~hit]
    dts[ords] = dt

    # ------------------------------------------------------- pass 2: time
    n_tlb = len(tlb_miss)
    n_ph = len(ph)
    key = np.concatenate(
        (opos_of(tlb_miss) * 2, opos_of(ph) * 2 + 1, opos_of(mk) * 2 + 1)
    )
    order = np.argsort(key)
    pos_sorted = key[order] >> 1
    if issue_cum is None:
        base_t = now0 + (pos_sorted + 1.0) * cpa
    else:
        base_t = now0 + issue_cum[pos_sorted]
    pad = np.zeros(n_tlb + n_ph)
    ev_kind = np.concatenate((np.zeros(n_tlb, np.int64), np.full(n_ph, _EV_PENDING), kind))
    ev_ref = np.concatenate((np.full(n_tlb, -1), p_ref, ref))
    ev_val = np.concatenate((pad[:n_tlb], p_val, val))
    ev_dt = np.concatenate((pad, dts))
    ev_demand = np.concatenate((np.zeros(n_tlb + n_ph, dtype=bool), kdemand[mk]))

    extra = 0.0
    stall = 0.0
    tlb_stall = 0.0
    bus_free = ms.bus_free
    mcpl = ms.machine.memory_cycles_per_line
    mem_lat = ms.machine.memory_latency
    penalty = ms.machine.tlb.miss_penalty
    lat0 = l1.spec.latency
    below_l: List[float] = []  # per L1 miss, in order: fill time below L1
    for k, t, r, v, d, dem in zip(
        ev_kind[order].tolist(),
        base_t.tolist(),
        ev_ref[order].tolist(),
        ev_val[order].tolist(),
        ev_dt[order].tolist(),
        ev_demand[order].tolist(),
    ):
        if k == _EV_TLB:
            extra += penalty
            tlb_stall += penalty
            continue
        t += extra
        if k == _EV_PENDING:
            fill = below_l[r] + lat0 if r >= 0 else v
            if fill > t:
                stall += fill - t
                extra += fill - t
            continue
        if k == _EV_MEMORY:
            tlvl = t + d
            start = bus_free if bus_free > tlvl else tlvl
            bus_free = start + mcpl
            below = start + mem_lat
        else:
            pending = below_l[r] if r >= 0 else v
            hit_time = t + d
            below = pending if pending > hit_time else hit_time
        below_l.append(below)
        fill = below + lat0
        if dem and fill > t:  # demand miss stalls to the fill
            stall += fill - t
            extra += fill - t

    ms.now = now0 + total_issue + extra
    ms.bus_free = bus_free
    ms.stall_cycles += stall
    ms.tlb_stall_cycles += tlb_stall
    ms.timing_events += len(key)
    ms.collapsed += dropped + (m - v1.runs)

    # Final LRU state, with the concrete fill times of this batch's fills.
    below_a = np.array(below_l)
    fresh = np.zeros(m)
    fresh[mk] = below_a + lat0
    _store(l1, v1.final, init1, fresh)
    _store(tlb, tv.final, tv.init, np.zeros(m))  # a page's value is unused
    for cache, final, init, ords in deep_final:
        _store(cache, final, init, below_a[ords])


class _Verdict(NamedTuple):
    """What :func:`_classify` decided, read off the stream's run heads."""

    miss: np.ndarray  # stream indices of the misses, ascending
    pending: Optional[Tuple[np.ndarray, np.ndarray]]  # (indices, roots)
    init: np.ndarray  # fill time of each batch-start resident
    runs: int  # same-line runs in the per-set streams
    final: tuple  # the touched sets' final residents, for _store
    heads: tuple  # (set order, run bounds, lo, k, head sources), for _roots


def _classify(lines, cache, flags=None):
    """Exact LRU classification of one cache level's access stream.

    Updates ``cache``'s hit/miss/eviction counters and returns a
    :class:`_Verdict`.  An access's *root* is the stream index of the
    miss that filled its line (itself for a miss), or a negative ``r``
    when the line was resident at batch start with fill time ``init[r]``.
    With ``flags``, ``pending`` lists the flagged hits that are the first
    flagged access since their line's fill, with their roots.  Every
    decision is made per run head; only :func:`_roots` expands them to
    accesses.
    """
    assoc = cache.spec.associativity
    mask = cache.set_mask
    n = len(lines)
    if mask:
        # (a set index of at most 16 bits sorts by radix: several times faster)
        setk = np.min_scalar_type(mask)
        lset = (lines & mask).astype(setk)
        touched = np.flatnonzero(np.bincount(lset, minlength=mask + 1)).tolist()
    else:
        touched = [0]
    ways = [cache.sets[s] for s in touched]
    init_vals = np.fromiter(chain.from_iterable(map(dict.values, ways)), float)
    R = len(init_vals)
    resident = np.fromiter(chain.from_iterable(ways), np.int64, R)
    stream = np.concatenate((resident, lines))
    N = n + R
    if mask:
        order = np.argsort(np.concatenate(((resident & mask).astype(setk), lset)), kind="stable")
        sl = stream[order]
    else:  # one set: the stream is already in set order
        order = None
        sl = stream
    head = np.empty(N, dtype=bool)
    head[0] = True
    np.not_equal(sl[1:], sl[:-1], out=head[1:])  # one line, one set
    hidx = np.nonzero(head)[0]
    hl = sl[hidx]
    H = len(hidx)
    bounds = np.append(hidx, N)  # run h is [bounds[h], bounds[h + 1])
    hpos = np.arange(H)

    # Link each head to the previous head of its line; decide it.  Heads
    # are in set order, so a stable sort by tag groups each line; the tags
    # of one batch span a small range, which sorts by radix.
    tag = hl >> mask.bit_length()
    tag -= tag.min()
    lo = np.argsort(tag.astype(np.min_scalar_type(tag.max())), kind="stable")
    same = hl[lo[1:]] == hl[lo[:-1]]
    prev = np.full(H, -1, dtype=np.int64)
    prev[lo[1:][same]] = lo[:-1][same]
    hit = prev >= 0
    far = np.nonzero(hit & (hpos - prev > assoc))[0]
    hset = hl & mask
    # A set with at most ``assoc`` distinct lines (residents included)
    # never evicts: its far heads are hits without a window count.
    distinct = np.bincount(hset[~hit], minlength=mask + 1)
    far = far[distinct[hset[far]] > assoc]
    if assoc <= 2:
        hit[far] = False  # adjacent heads differ: the window holds >= 2 lines
    elif len(far):
        # Bound a far head's window: its first ``d`` heads, plus the later
        # ones whose own previous head lies over ``d`` back (only those
        # can be their line's first in the window).  Below ``assoc``, a hit.
        d = assoc // 2
        back = np.zeros(H + 1, dtype=np.int64)
        np.cumsum((prev < 0) | (hpos - prev > d), out=back[1:])
        far = far[d + back[far] - back[prev[far] + d + 1] >= assoc]
        hit[far] = _window_count(prev, prev[far] + 1, far) < assoc
    fill = ~hit  # a pseudo-access or a miss starts its line's residency

    # Root: the latest fill head of the line, ``lo[k[q]]`` for the head
    # ``lo[q]`` (positions in ``lo`` order grow, so a running max never
    # leaks across lines).  Only the heads read below look theirs up.
    k = np.where(fill[lo], hpos, 0)
    np.maximum.accumulate(k, out=k)
    hsrc = (hidx if order is None else order[hidx]) - R  # < 0: pseudo
    miss = hsrc[fill & (hsrc >= 0)]
    if mask:
        miss.sort()

    pending = None
    if flags is not None:
        # Each run's first flagged access (nearly always its head), then
        # the first flagged run since the line's fill.
        fl = np.concatenate((np.zeros(R, dtype=bool), flags))
        fd = hidx.copy()
        late = np.flatnonzero(~fl[hsrc + R])
        if len(late):
            lens = bounds[late + 1] - hidx[late]
            at = _ramp(hidx[late], lens)
            on = fl[at if order is None else order[at]]
            fd[late] = np.minimum.reduceat(np.where(on, at, N), np.cumsum(lens) - lens)
        has = (fd < N)[lo]
        g = np.where(has, hpos, -1)
        np.maximum.accumulate(g, out=g)
        prior = np.empty(H, dtype=np.int64)
        prior[0] = -1
        prior[1:] = g[:-1]
        q = np.flatnonzero(has & (prior < k))
        at = fd[lo[q]]
        at = (at if order is None else order[at]) - R
        p_root = hsrc[lo[k[q]]]
        own = at != p_root  # a miss is its own root, not a pending hit
        pending = (at[own], p_root[own])

    cache.misses += len(miss)
    cache.hits += n - len(miss)
    fills = np.bincount(hset[fill], minlength=mask + 1)
    cache.evictions += int(np.maximum(fills - assoc, 0).sum())
    # Every resident heads a run (a set's residents are distinct lines),
    # which continues into the batch when the set's first access is to
    # its MRU line.
    kin = np.flatnonzero(hsrc < 0)
    runs = H - R + int(np.count_nonzero(bounds[kin + 1] - hidx[kin] > 1))

    # Final residents: each set's last ``assoc`` line-last heads.
    q = np.flatnonzero(np.append(~same, True))
    q = q[np.argsort(lo[q])]
    ls = hset[lo[q]]
    brk = np.append(ls[1:] != ls[:-1], True)
    set_end = np.minimum.accumulate(np.where(brk, np.arange(len(q)), H)[::-1])[::-1]
    q = q[set_end - np.arange(len(q)) < assoc]
    li = lo[q]
    final = (touched, hset[li], hl[li], hsrc[lo[k[q]]])
    return _Verdict(miss, pending, init_vals, runs, final, (order, bounds, lo, k, hsrc))


def _roots(verdict, n):
    """Each access's root, for a :func:`_classify`'d stream of ``n``."""
    order, bounds, lo, k, hsrc = verdict.heads
    root = np.empty(len(lo), dtype=np.int64)
    root[lo] = hsrc[lo[k]]
    per = np.repeat(root, np.diff(bounds))
    if order is not None:
        per[order] = per.copy()
    return per[len(per) - n :]


def _window_count(prev, t, j):
    """``#{k in [t, j) : prev[k] < t}`` for each query ``(t, j)``.

    That is the number of distinct lines among the heads ``[t, j)``.
    Every ``k < t`` has ``prev[k] < k < t``, so counting from the block
    boundary ``b <= t`` instead overcounts by exactly ``t - b``.  The
    whole blocks of ``_BLOCK`` heads from there are counted with one
    ``searchsorted`` each in the block's sorted ``prev`` (one sort of the
    blocks the windows span); the partial block at ``j`` head by head.
    """
    first, last = t // _BLOCK, j // _BLOCK  # whole blocks [first, last)
    tail = last * _BLOCK
    lens = j - tail
    below = prev[_ramp(tail, lens)] < np.repeat(t, lens)
    count = _segment_sums(below, lens) - (t - first * _BLOCK)
    nb = last - first
    if nb.any():
        b0, b1 = first.min(), last.max()
        span = len(prev) + 1  # > every prev + 1: rows stay apart
        keys = np.sort(prev[b0 * _BLOCK : b1 * _BLOCK].reshape(-1, _BLOCK), axis=1)
        keys += (np.arange(b1 - b0) * span)[:, None]
        row = _ramp(first - b0, nb)
        inside = np.searchsorted(keys.ravel(), row * span + np.repeat(t, nb))
        count += _segment_sums(inside - row * _BLOCK, nb)
    return count


def _ramp(starts, lens):
    """The ranges ``[starts[i], starts[i] + lens[i])``, concatenated."""
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts - offsets, lens) + np.arange(lens.sum())


def _segment_sums(values, lens):
    """Sums of ``values`` over consecutive segments of ``lens``."""
    total = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=total[1:])
    stop = np.cumsum(lens)
    return total[stop] - total[stop - lens]


def _store(cache, final, init, fresh) -> None:
    """Rewrite the touched sets of ``cache`` to their final LRU order.

    A resident filled this batch takes ``fresh[root]``; one resident at
    batch start keeps its fill time ``init[root]`` (``root < 0``).
    """
    touched, sets, lines, root = final
    vals = np.empty(len(root))
    own = root >= 0
    vals[own] = fresh[root[own]]
    vals[~own] = init[root[~own]]
    for s in touched:
        cache.sets[s].clear()
    for s, line, v in zip(sets.tolist(), lines.tolist(), vals.tolist()):
        cache.sets[s][line] = v
