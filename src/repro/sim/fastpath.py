"""Exact two-pass vectorized replay of an address batch (the sim hot path).

The per-access reference simulator (``MemorySystem.access``) interleaves
two very different computations:

* **classification** — is this access a hit or a miss, at each cache
  level and in the TLB, and what gets evicted?  This is a pure function
  of the *ordered line sequence*: LRU state never depends on timestamps.
* **timing** — when does the fill complete, how long does the demand
  stall, when is the memory bus free again?  This genuinely needs
  sequential replay, but only at the rare events that touch time: misses,
  demand TLB misses, and demand hits on lines whose fill is still in
  flight.

``process_batch`` exploits that split:

Pass 1 (classification, bulk numpy + per-*run* dict replay)
    Accesses are grouped by cache set with one stable argsort — different
    sets never interact, and within a set the original order is kept.  In
    a set's subsequence, a *run* of consecutive accesses to the same line
    can only be: (head) one real lookup, then (members) guaranteed hits
    that do not move LRU state.  So only run heads replay through the
    per-set dicts; members are counted in bulk.  The same machinery
    classifies the TLB (with an extra whole-batch shortcut: when every
    page touched is already resident, the batch is all hits and the LRU
    orders are patched up per set in one pass).  Deeper levels see only
    the miss stream (replayed in original order, so cross-set
    interleaving into L2 sets is exact), and write-back state (the dirty
    set) is maintained by merging store positions with last-level
    evictions.  Lines filled during the batch hold a placeholder value
    whose real fill time is patched in after pass 2 — assigning to an
    existing dict key preserves insertion order, so LRU state is
    untouched by the patch.

Pass 2 (timing, Python loop over events only)
    Pass 1 emits an event list — demand TLB misses, misses with their
    per-level outcome chains, and potentially-stalling pending hits —
    sorted by original position (a position's TLB walk before its cache
    access, as in the reference).  ``now`` at position ``p`` is
    ``now0 + issue(0..p) + extra`` where ``extra`` accumulates stalls and
    TLB penalties, exactly mirroring how the reference's ``now`` evolves.
    Each miss replays the ``_fill_from`` arithmetic (level latencies down
    the miss path, memory bus reservation, write-back bus bump after the
    fill, demand stall to the fill time) and records concrete fill times
    for the events that referenced them.

Exactness: hit/miss/eviction/TLB/write-back *counts* are byte-identical
to the reference by construction — classification never consults time.
Timing is exact event-for-event up to float reassociation (issue time is
accumulated with a cumulative sum instead of one addition per access),
which is the documented intra-batch tolerance.  Conservatively emitted
pending-hit events are harmless: pass 2 re-checks ``fill > now`` and a
settled fill adds zero stall.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["process_batch"]

_KIND_STORE = 1
_KIND_PREFETCH = 2

# Event tags: sorting by (position, tag) replays a position's TLB walk
# before its cache access, as the reference does.
_TAG_TLB = 0
_TAG_CACHE = 1

_MISSING = object()


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
        ms.tlb_hits += dropped

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
        kkinds = kinds[kpos]
        kdemand = demand[kpos]
    else:
        kpos = None
        kaddr = addresses
        klines = lines
        kkinds = kinds
        kdemand = demand
    m = len(kaddr)
    if m == 0:
        ms.now = now0 + total_issue
        ms.collapsed += dropped
        return

    def opos_of(kept_idx: np.ndarray) -> np.ndarray:
        """Original batch positions of the given kept-stream indices."""
        return kept_idx if kpos is None else kpos[kept_idx]

    events: List[list] = []
    # Sort key of events[i] is ``position*2 + tag`` (TLB walk before the
    # same position's cache access), built at append time so pass 2 never
    # re-extracts positions from the event records.
    ev_keys: List[int] = []

    # ---------------------------------------------------------------- TLB
    pages = kaddr >> ms.page_bits
    tlb_sets = ms.tlb_sets
    tlb_mask = ms.tlb_set_mask
    tlb_fast = False
    if tlb_mask == 0:
        # Single-set (fully associative) TLB: collapse the page stream to
        # page-change heads (repeats are hits with no net LRU motion) and,
        # when the batch touches at most ``associativity`` distinct pages,
        # simulate only each page's *first occurrence*.  That is exact:
        # with U <= A distinct pages a touched page is never evicted again
        # (fewer than A distinct pages intervene between touches), and an
        # eviction victim is always the oldest initial page that has not
        # been touched yet — re-touches only reorder pages that can never
        # be victims.  Final LRU order: untouched survivors keep their
        # relative order, touched pages move to MRU by last occurrence.
        phead = np.empty(m, dtype=bool)
        phead[0] = True
        np.not_equal(pages[1:], pages[:-1], out=phead[1:])
        ph_idx = np.nonzero(phead)[0]
        hp = pages[ph_idx]
        nh = len(hp)
        so = np.argsort(hp, kind="stable")
        shp = hp[so]
        gb = np.empty(nh, dtype=bool)
        gb[0] = True
        np.not_equal(shp[1:], shp[:-1], out=gb[1:])
        gstart = np.nonzero(gb)[0]
        assoc_t = ms.tlb_assoc
        if len(gstart) <= assoc_t:
            tlb_fast = True
            gend = np.empty(len(gstart), dtype=np.int64)
            gend[:-1] = gstart[1:]
            gend[-1] = nh
            firsts = so[gstart]  # first head occurrence per unique page
            lasts = so[gend - 1]  # last head occurrence per unique page
            upg_l = shp[gstart].tolist()
            ways = tlb_sets[0]
            occ = len(ways)
            init_order = list(ways)  # LRU -> MRU at batch start
            refreshed = set()
            ptr = 0
            n_miss_t = 0
            firsts_l = firsts.tolist()
            for k in np.argsort(firsts).tolist():
                pg = upg_l[k]
                if pg in ways:
                    refreshed.add(pg)
                    continue
                n_miss_t += 1
                h = firsts_l[k]
                if kdemand[ph_idx[h]]:
                    pos = int(opos_of(ph_idx[h : h + 1])[0])
                    events.append([pos, _TAG_TLB])
                    ev_keys.append(pos * 2)
                if occ >= assoc_t:
                    while True:
                        victim = init_order[ptr]
                        ptr += 1
                        if victim not in refreshed and victim in ways:
                            break
                    del ways[victim]
                else:
                    occ += 1
                ways[pg] = True
                refreshed.add(pg)
            ms.tlb_misses += n_miss_t
            ms.tlb_hits += m - n_miss_t
            for k in np.argsort(lasts).tolist():
                pg = upg_l[k]
                ways[pg] = ways.pop(pg)  # refresh to MRU, order by last use
    if not tlb_fast:
        if tlb_mask:
            tsets = pages & tlb_mask
            torder = np.argsort(tsets, kind="stable")
            t_pages = pages[torder]
            t_sets = tsets[torder]
            thead = np.empty(m, dtype=bool)
            thead[0] = True
            thead[1:] = (t_sets[1:] != t_sets[:-1]) | (t_pages[1:] != t_pages[:-1])
        else:
            torder = None
            t_pages = pages
            thead = np.empty(m, dtype=bool)
            thead[0] = True
            np.not_equal(t_pages[1:], t_pages[:-1], out=thead[1:])
        thead_idx = np.nonzero(thead)[0]
        head_kept = thead_idx if torder is None else torder[thead_idx]
        head_pages_l = t_pages[thead_idx].tolist()
        head_demand_l = kdemand[head_kept].tolist()
        head_opos_l = opos_of(head_kept).tolist()
        assoc = ms.tlb_assoc
        hit_heads = 0
        miss_heads = 0
        for pg, is_demand, pos in zip(head_pages_l, head_demand_l, head_opos_l):
            ways = tlb_sets[pg & tlb_mask]
            if pg in ways:
                del ways[pg]
                ways[pg] = True
                hit_heads += 1
                continue
            miss_heads += 1
            if len(ways) >= assoc:
                del ways[next(iter(ways))]
            ways[pg] = True
            if is_demand:
                events.append([pos, _TAG_TLB])
                ev_keys.append(pos * 2)
        ms.tlb_misses += miss_heads
        ms.tlb_hits += m - len(thead_idx) + hit_heads

    # ----------------------------------------------------------------- L1
    set_mask = l1.set_mask
    set_idx = klines & set_mask
    order = np.argsort(set_idx, kind="stable")
    s_lines = klines[order]
    s_sets = set_idx[order]
    s_demand = kdemand[order]
    s_opos = opos_of(order)
    head = np.empty(m, dtype=bool)
    head[0] = True
    head[1:] = (s_sets[1:] != s_sets[:-1]) | (s_lines[1:] != s_lines[:-1])
    head_idx = np.nonzero(head)[0]
    H = len(head_idx)
    run_end = np.empty(H, dtype=np.int64)
    run_end[:-1] = head_idx[1:]
    run_end[-1] = m
    head_kept = order[head_idx]

    # Per run, the first demand access (head included): the only access
    # of the run that can stall on an in-flight fill.
    fd = np.minimum.reduceat(
        np.where(s_demand, np.arange(m, dtype=np.int64), m), head_idx
    )
    fd_valid = fd < run_end
    fd_opos = s_opos[np.minimum(fd, m - 1)]

    hline = s_lines[head_idx]
    hset = s_sets[head_idx]
    hdemand = s_demand[head_idx]
    hopos = s_opos[head_idx]
    haddr = kaddr[head_kept]

    l1_sets = l1.sets
    assoc1 = l1.spec.associativity
    latest1 = {}  # line -> its in-batch fill event (dict path only)
    patches: List[tuple] = []  # (set dict, line, fill event) to patch
    miss_events: List[list] = []

    if assoc1 <= 2:
        _classify_l1_low_assoc(
            ms, l1, m, hline, hset, hdemand, hopos, haddr,
            fd_valid, fd_opos, now0, patches, events, ev_keys, miss_events,
        )
    else:
        _classify_l1_dict(
            l1, m, head_idx, run_end, hline, hset, hdemand, hopos, haddr,
            fd_valid, fd_opos, now0, latest1, events, ev_keys, miss_events,
        )

    # ----------------------------------------- deeper levels + write-backs
    levels = ms.caches
    depth = len(levels)
    model_wb = ms.model_writebacks and depth >= 2
    if model_wb:
        last = levels[-1]
        store_idx = np.nonzero(kkinds == _KIND_STORE)[0]
        store_pos_l = opos_of(store_idx).tolist()
        store_line_l = (kaddr[store_idx] >> last.line_bits).tolist()
        n_stores = len(store_pos_l)
        sp = 0
        dirty = ms._dirty
    lat = [c.spec.latency for c in levels]
    # Each miss event's resolution is precomputed here as a flat record
    # ``(mode, dt, src, subs, wb_dts)`` so pass 2 never walks per-level
    # chains: mode 0 = hit on a settled deeper line (src = its fill time),
    # mode 1 = hit on a line filled earlier this batch (src = that fill's
    # cell), mode 2 = serviced by memory.  ``dt`` is the latency the
    # request accumulates down to its resolution point, ``subs`` the fill
    # cells of the levels missed on the way (all patched to the resolved
    # fill), ``wb_dts`` the write-back bus charges (offsets from issue).
    if depth >= 2 and miss_events:
        latest_deep = [None] + [dict() for _ in range(depth - 1)]
        for ev in miss_events:
            pos = ev[0]
            addr = ev[4]
            if model_wb:
                # Stores mark their last-level line dirty before the
                # access is serviced; replay them up to this position.
                while sp < n_stores and store_pos_l[sp] <= pos:
                    dirty.add(store_line_l[sp])
                    sp += 1
            mode = 2
            dt = 0.0
            src = 0.0
            subs = ()
            wb_dts = ()
            for li in range(1, depth):
                cache = levels[li]
                line = addr >> cache.line_bits
                ways = cache.sets[line & cache.set_mask]
                val = ways.pop(line, _MISSING)
                if val is not _MISSING:
                    cache.hits += 1
                    ways[line] = val
                    ref = latest_deep[li].get(line)
                    dt += lat[li]
                    if ref is not None:
                        mode = 1
                        src = ref
                    else:
                        mode = 0
                        src = val
                    break
                cache.misses += 1
                dt += lat[li]
                sub_ev = [0.0]
                if len(ways) >= cache.spec.associativity:
                    evicted = next(iter(ways))
                    del ways[evicted]
                    cache.evictions += 1
                    latest_deep[li].pop(evicted, None)
                    if model_wb and li == depth - 1 and evicted in dirty:
                        dirty.discard(evicted)
                        ms.writebacks += 1
                        wb_dts += (dt - lat[li],)
                ways[line] = 0.0
                latest_deep[li][line] = sub_ev
                subs += (sub_ev,)
            ev[5] = (mode, dt, src, subs, wb_dts)
    else:
        latest_deep = None
        rec = (2, 0.0, 0.0, (), ())
        for ev in miss_events:
            ev[5] = rec
    if model_wb:
        while sp < n_stores:
            dirty.add(store_line_l[sp])
            sp += 1

    # ------------------------------------------------------- pass 2: time
    extra = 0.0
    stall = 0.0
    tlb_stall = 0.0
    bus_free = ms.bus_free
    mcpl = ms.machine.memory_cycles_per_line
    mem_lat = ms.machine.memory_latency
    penalty = ms.machine.tlb.miss_penalty
    lat0 = lat[0] if lat else 0.0

    if events:
        key_a = np.array(ev_keys, dtype=np.int64)
        order = np.argsort(key_a, kind="stable")
        pos_sorted = key_a[order] >> 1
        if issue_cum is None:
            base_t = now0 + (pos_sorted + 1.0) * cpa
        else:
            base_t = now0 + issue_cum[pos_sorted]
        base_l = base_t.tolist()
        ev_sorted = [events[i] for i in order.tolist()]
    else:
        base_l = []
        ev_sorted = events

    for j, ev in enumerate(ev_sorted):
        if ev[1] == _TAG_TLB:
            extra += penalty
            tlb_stall += penalty
            continue
        t = base_l[j] + extra
        if ev[2] == "P":
            ref = ev[3]
            fill = ref[6] if ref is not None else ev[4]
            if fill > t:
                stall += fill - t
                extra += fill - t
            continue
        # Miss: resolution precomputed above; only bus state is live here.
        mode, dt, src, subs, wb_dts = ev[5]
        if mode == 2:
            tlvl = t + dt
            start = bus_free if bus_free > tlvl else tlvl
            bus_free = start + mcpl
            below = start + mem_lat
            for wdt in wb_dts:
                wn = t + wdt
                bus_free = (bus_free if bus_free > wn else wn) + mcpl
        else:
            pending = src[0] if mode == 1 else src
            hit_time = t + dt
            below = pending if pending > hit_time else hit_time
        for sub_ev in subs:
            sub_ev[0] = below
        fill = below + lat0
        ev[6] = fill
        if ev[3] and fill > t:  # demand miss stalls to the fill
            stall += fill - t
            extra += fill - t

    ms.now = now0 + total_issue + extra
    ms.bus_free = bus_free
    ms.stall_cycles += stall
    ms.tlb_stall_cycles += tlb_stall
    ms.timing_events += len(events)
    ms.collapsed += dropped + (m - H)

    # Patch the concrete fill times of lines filled this batch (assigning
    # to an existing key leaves dict/LRU order untouched).
    for ways, line, ev in patches:
        ways[line] = ev[6]
    for line, ev in latest1.items():
        l1_sets[line & set_mask][line] = ev[6]
    if latest_deep is not None:
        for li in range(1, depth):
            cache = levels[li]
            cmask = cache.set_mask
            for line, sub_ev in latest_deep[li].items():
                cache.sets[line & cmask][line] = sub_ev[0]


def _classify_l1_low_assoc(
    ms, l1, m, hline, hset, hdemand, hopos, haddr,
    fd_valid, fd_opos, now0, patches, events, ev_keys, miss_events,
) -> None:
    """Closed-form LRU classification for 1- and 2-way L1 caches.

    Adjacent heads of a set's subsequence touch *different* lines (a run
    collapses same-line repeats), which makes low-associativity LRU
    algebraic: after head ``i-1``, a 2-way set holds exactly
    ``{h[i-2], h[i-1]}`` (for ``i >= start+2``) — so head ``i`` hits iff
    ``line[i] == line[i-2]``, every miss evicts ``h[i-2]``, and a
    direct-mapped set turns every non-first head into a miss evicting
    ``h[i-1]``.  The first one/two heads of each set consult the real
    dicts (initial state); everything else is pure array arithmetic.  The
    per-set dicts are only *rebuilt* at the end — the final residents are
    the last one/two heads — so classification does no per-head dict
    work at all.

    A hit can stall only on an in-flight fill.  In-batch fills are found
    by chaining: a hit's previous touch of its line is exactly two heads
    back, so chains of hits live on one index parity and their root is
    the latest same-parity miss of the set (vectorized with two
    ``maximum.accumulate`` calls).  Hits whose chain roots at an
    initially-resident line stall only if that line's fill is still
    pending (``val > now0``) — tracked per special head.
    """
    assoc1 = l1.spec.associativity
    l1_sets = l1.sets
    H = len(hline)
    idx = np.arange(H, dtype=np.int64)

    first = np.empty(H, dtype=bool)
    first[0] = True
    first[1:] = hset[1:] != hset[:-1]
    if assoc1 == 2:
        special = first.copy()
        special[1:] |= first[:-1] & ~first[1:]
    else:
        special = first

    hit = np.zeros(H, dtype=bool)
    vic = np.zeros(H, dtype=np.int64)
    evict = np.zeros(H, dtype=bool)
    if assoc1 == 2:
        if H > 2:
            nonspec = ~special
            hit[2:] = nonspec[2:] & (hline[2:] == hline[:-2])
            vic[2:] = hline[:-2]
            evict[2:] = nonspec[2:] & ~hit[2:]
    else:
        if H > 1:
            vic[1:] = hline[:-1]
            evict[1:] = ~first[1:]

    # -- first one/two heads per set: classify against the live dicts.
    idx_first = np.nonzero(first)[0]
    n_seg = len(idx_first)
    sp_pending = {}  # special head index -> pending initial fill time
    sp_first_l = idx_first.tolist()
    for k in range(n_seg):
        s0 = sp_first_l[k]
        line0 = int(hline[s0])
        ways = l1_sets[int(hset[s0])]
        if line0 in ways:
            hit[s0] = True
            val = ways[line0]
            if val > now0:
                sp_pending[s0] = val
            if assoc1 == 2:
                res = [ln for ln in ways if ln != line0] + [line0]
        else:
            occ = len(ways)
            if occ >= assoc1:
                evict[s0] = True
                it = iter(ways)
                lru = next(it)
                vic[s0] = lru
                if assoc1 == 2:
                    res = [ln for ln in ways if ln != lru] + [line0]
            elif assoc1 == 2:
                res = list(ways) + [line0]
        if assoc1 != 2:
            continue
        s1 = s0 + 1
        end = sp_first_l[k + 1] if k + 1 < n_seg else H
        if s1 >= end:
            continue
        line1 = int(hline[s1])
        if line1 in res:
            hit[s1] = True
            val = ways[line1]  # hit on an initial line: value unchanged
            if val > now0:
                sp_pending[s1] = val
        elif len(res) >= 2:
            evict[s1] = True
            vic[s1] = res[0]

    miss = ~hit
    miss_idx = np.nonzero(miss)[0]
    n_miss = len(miss_idx)
    l1.misses += n_miss
    l1.hits += m - n_miss
    l1.evictions += int(evict.sum())

    # -- miss events: plain records built in one pass; the per-set dicts
    # are never touched during classification, so there is no per-miss
    # bookkeeping at all (final state is rebuilt per segment below).
    mord = np.cumsum(miss) - 1  # head index -> ordinal among misses
    if n_miss:
        mopos = hopos[miss_idx]
        mlist = [
            [p, _TAG_CACHE, "M", d, a, None, 0.0]
            for p, d, a in zip(
                mopos.tolist(), hdemand[miss_idx].tolist(), haddr[miss_idx].tolist()
            )
        ]
        events.extend(mlist)
        ev_keys.extend((mopos * 2 + 1).tolist())
        # Deeper levels replay misses in position order.
        for i in np.argsort(mopos, kind="stable").tolist():
            miss_events.append(mlist[i])
        # Prefetch-initiated fills: the run's first demand member (if any)
        # is a pending hit that may stall on the in-flight line.
        pmemb = np.nonzero(miss & ~hdemand & fd_valid)[0]
        if len(pmemb):
            for o, pos in zip(mord[pmemb].tolist(), fd_opos[pmemb].tolist()):
                events.append([pos, _TAG_CACHE, "P", mlist[o], 0.0])
                ev_keys.append(pos * 2 + 1)
    else:
        mlist = []

    # -- hits on in-flight lines: chase the parity chain to its root.
    seg_id = np.cumsum(first) - 1
    seg_start = idx_first[seg_id]
    seg_first_parity = seg_start + ((idx - seg_start) & 1)
    root = np.where(miss, idx, -1)
    root[0::2] = np.maximum.accumulate(root[0::2])
    root[1::2] = np.maximum.accumulate(root[1::2])
    rooted = root >= seg_first_parity  # chain ends at an in-batch miss
    # Once any chain member with a demand access has processed, now >= fill
    # and every later member's pending-hit event is a guaranteed no-op.
    # ``fd_valid`` is exactly "this head resolves the chain's stall" (a
    # demand miss is its own run's first demand), so only the first
    # fd_valid member after the chain start needs an event.
    q = np.where(fd_valid, idx, -1)
    q[0::2] = np.maximum.accumulate(q[0::2])
    q[1::2] = np.maximum.accumulate(q[1::2])
    prior = np.full(H, -1, dtype=np.int64)
    prior[2:] = q[:-2]  # latest resolving head two-or-more back, same parity
    cand = np.nonzero(hit & rooted & fd_valid & (prior < root))[0]
    if len(cand):
        cords_l = mord[root[cand]].tolist()
        cpos_l = fd_opos[cand].tolist()
        for pos, o in zip(cpos_l, cords_l):
            events.append([pos, _TAG_CACHE, "P", mlist[o], 0.0])
            ev_keys.append(pos * 2 + 1)
    if sp_pending:
        cand2 = np.nonzero(hit & ~rooted & fd_valid & (prior < seg_first_parity))[0]
        if len(cand2):
            c2_l = cand2.tolist()
            c2root_l = seg_first_parity[cand2].tolist()
            c2pos_l = fd_opos[cand2].tolist()
            for i, rt, pos in zip(c2_l, c2root_l, c2pos_l):
                val = sp_pending.get(rt)
                if val is not None:
                    events.append([pos, _TAG_CACHE, "P", None, val])
                    ev_keys.append(pos * 2 + 1)

    # -- rebuild final LRU state of every touched set.  A resident line's
    # value is its in-batch fill (patched with the concrete time after
    # pass 2) when its last touch traces to an in-batch miss — the head
    # itself, or its chain root — and its untouched initial value
    # otherwise.
    src_ord = np.where(
        miss, mord, np.where(rooted, mord[np.maximum(root, 0)], -1)
    )
    seg_end = np.empty(n_seg, dtype=np.int64)
    seg_end[:-1] = idx_first[1:]
    seg_end[-1] = H
    r1 = seg_end - 1
    last_line_l = hline[r1].tolist()
    last_src_l = src_ord[r1].tolist()
    if assoc1 == 2:
        r2 = np.maximum(seg_end - 2, 0)
        prev_line_l = hline[r2].tolist()
        prev_src_l = src_ord[r2].tolist()
    seg_end_l = seg_end.tolist()
    for k in range(n_seg):
        s0 = sp_first_l[k]
        e = seg_end_l[k]
        ways = l1_sets[int(hset[s0])]
        if assoc1 == 1:
            line = last_line_l[k]
            o = last_src_l[k]
            val = ways.get(line, 0.0) if o < 0 else 0.0
            ways.clear()
            ways[line] = val
            if o >= 0:
                patches.append((ways, line, mlist[o]))
        elif e - s0 >= 2:
            lru = prev_line_l[k]
            mru = last_line_l[k]
            olru = prev_src_l[k]
            omru = last_src_l[k]
            vlru = ways[lru] if olru < 0 else 0.0
            vmru = ways[mru] if omru < 0 else 0.0
            ways.clear()
            ways[lru] = vlru
            ways[mru] = vmru
            if olru >= 0:
                patches.append((ways, lru, mlist[olru]))
            if omru >= 0:
                patches.append((ways, mru, mlist[omru]))
        else:
            line = last_line_l[k]
            if hit[s0]:
                ways[line] = ways.pop(line)  # refresh to MRU
            else:
                if len(ways) >= 2:
                    del ways[next(iter(ways))]
                ways[line] = 0.0  # placeholder; patched after pass 2
                patches.append((ways, line, mlist[last_src_l[k]]))


def _classify_l1_dict(
    l1, m, head_idx, run_end, hline, hset, hdemand, hopos, haddr,
    fd_valid, fd_opos, now0, latest1, events, ev_keys, miss_events,
) -> None:
    """Reference-shaped per-head replay for associativity >= 3 (no
    registry machine needs it; kept for spec generality)."""
    l1_sets = l1.sets
    assoc1 = l1.spec.associativity
    H = len(head_idx)
    hline_l = hline.tolist()
    hset_l = hset.tolist()
    hdemand_l = hdemand.tolist()
    hopos_l = hopos.tolist()
    haddr_l = haddr.tolist()
    fdv_l = fd_valid.tolist()
    fdo_l = fd_opos.tolist()
    hit_count = m - H  # run members: guaranteed hits, no LRU motion

    for r in range(H):
        line = hline_l[r]
        ways = l1_sets[hset_l[r]]
        val = ways.pop(line, _MISSING)
        if val is not _MISSING:
            hit_count += 1
            ways[line] = val  # refresh to MRU, value unchanged
            ref = latest1.get(line)
            if ref is None and val <= now0:
                continue  # fill settled before the batch: no stall possible
            if fdv_l[r]:
                events.append([fdo_l[r], _TAG_CACHE, "P", ref, val])
                ev_keys.append(fdo_l[r] * 2 + 1)
            continue
        # Miss head: fill initiated here; members hit the in-flight line.
        ev = [hopos_l[r], _TAG_CACHE, "M", hdemand_l[r], haddr_l[r], None, 0.0]
        if len(ways) >= assoc1:
            evicted = next(iter(ways))
            del ways[evicted]
            l1.evictions += 1
            latest1.pop(evicted, None)
        ways[line] = 0.0  # placeholder; patched after pass 2
        latest1[line] = ev
        events.append(ev)
        ev_keys.append(hopos_l[r] * 2 + 1)
        miss_events.append(ev)
        if not hdemand_l[r] and fdv_l[r]:
            # Prefetch-initiated fill: the run's first demand member (if
            # any) is a pending hit that may stall on it.
            events.append([fdo_l[r], _TAG_CACHE, "P", ev, 0.0])
            ev_keys.append(fdo_l[r] * 2 + 1)
    miss_events.sort(key=lambda e: e[0])  # deeper levels replay in order
