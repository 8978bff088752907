package storage

import (
	"math"
	"sort"

	"cbfww/internal/core"
)

// The placement rank is the water-fill order kept between calls: every
// object, ordered by priority (descending; ties by ID for determinism).
// Single-object mutations splice it in O(log n) search plus a pointer
// memmove; only the bulk paths (AdmitAll, ApplyPriorities, recovery)
// re-sort it.

// rankLess orders a before b in the water-fill. A NaN priority ranks as
// -Inf, so the order stays total and binary searches stay exact.
func rankLess(a, b *object) bool {
	pa, pb := rankKey(a.priority), rankKey(b.priority)
	if pa != pb {
		return pa > pb
	}
	return a.id < b.id
}

func rankKey(p core.Priority) core.Priority {
	if p != p {
		return core.Priority(math.Inf(-1))
	}
	return p
}

// rankIndex returns o's current rank index. Requires m.mu.
func (m *Manager) rankIndex(o *object) int {
	return sort.Search(len(m.rank), func(k int) bool { return !rankLess(m.rank[k], o) })
}

// rankInsert splices a new object into the rank, before the first entry
// it orders before. Requires m.mu.
func (m *Manager) rankInsert(o *object) {
	i := sort.Search(len(m.rank), func(k int) bool { return rankLess(o, m.rank[k]) })
	m.rank = append(m.rank, nil)
	copy(m.rank[i+1:], m.rank[i:])
	m.rank[i] = o
}

// rankDelete cuts o out of the rank. Requires m.mu.
func (m *Manager) rankDelete(o *object) {
	i := m.rankIndex(o)
	copy(m.rank[i:], m.rank[i+1:])
	m.rank[len(m.rank)-1] = nil
	m.rank = m.rank[:len(m.rank)-1]
}

// rankReprioritize sets o's priority and moves it to its new rank.
// Requires m.mu.
func (m *Manager) rankReprioritize(o *object, prio core.Priority) {
	i := m.rankIndex(o)
	o.priority = prio
	switch {
	case i > 0 && rankLess(o, m.rank[i-1]):
		j := sort.Search(i, func(k int) bool { return rankLess(o, m.rank[k]) })
		copy(m.rank[j+1:i+1], m.rank[j:i])
		m.rank[j] = o
	case i+1 < len(m.rank) && rankLess(m.rank[i+1], o):
		j := i + 1 + sort.Search(len(m.rank)-i-1, func(k int) bool { return rankLess(o, m.rank[i+1+k]) })
		copy(m.rank[i:j-1], m.rank[i+1:j])
		m.rank[j-1] = o
	}
}

// rebuildRankLocked re-derives the rank from the object table with one
// sort — the bulk mutations' path. Requires m.mu.
func (m *Manager) rebuildRankLocked() {
	m.rank = make([]*object, 0, len(m.objects))
	for _, o := range m.objects {
		m.rank = append(m.rank, o)
	}
	sort.Slice(m.rank, func(i, j int) bool { return rankLess(m.rank[i], m.rank[j]) })
}

// placeLocked recomputes the whole placement: objects in rank order
// water-fill the finite tiers top-down; everyone keeps/earns copies per
// the copy-control rules, which generalize from the Figure-3 stack to any
// tier table as "a copy at tier t requires a copy at tier t+1". Requires
// m.mu.
func (m *Manager) placeLocked() {
	anchor := m.last()
	ratio := m.cfg.SummaryRatio
	var usedNow [maxTiers]core.Bytes
	var want, asSummary [maxTiers]bool
	for _, o := range m.rank {
		// Decide bottom-up so the nesting rule composes: a tier only wants
		// the object if the next slower tier does too (the anchor always
		// holds it). Intermediate tiers hold full bodies; the summary
		// device applies at tier 0 only — "an object too large for the
		// tier its priority deserves keeps a small summary at that tier
		// while the full body stays one level down".
		for t := anchor - 1; t >= 1; t-- {
			below := t == anchor-1 || want[t+1]
			want[t] = below && usedNow[t]+o.size <= m.tiers[t].Capacity
			asSummary[t] = false
		}
		memCap := m.tiers[0].Capacity
		big := float64(o.size) > m.cfg.SummaryThreshold*float64(memCap)
		below := anchor == 1 || want[1]
		want[0], asSummary[0] = false, false
		switch {
		case !below:
			// Cannot satisfy the exact-copy invariant: stay demoted.
		case big && ratio > 0 && usedNow[0]+o.summarySize(ratio) <= memCap:
			want[0], asSummary[0] = true, true
		case !big && usedNow[0]+o.size <= memCap:
			want[0] = true
		}

		// Apply bottom-up so promotions find their source one tier down
		// already materialized (the cheapest copy distance); most objects
		// change nothing and skip the call. The footprint, not the wanted
		// state, feeds the accounting: a payload promotion that found no
		// source bytes leaves the copy absent.
		for t := anchor - 1; t >= 0; t-- {
			if c := o.copies[t]; c.present != want[t] || c.present && c.summaryOnly != asSummary[t] {
				m.applyPlacement(o, t, want[t], asSummary[t])
			}
			usedNow[t] += o.footprint(t, ratio)
		}
	}
	for t := Tier(0); t < anchor; t++ {
		m.used[t] = usedNow[t]
	}
}

// resizeLocked re-solves placement incrementally after a capacity
// retarget: only the delta set of blobs moves. Requires m.mu.
//
// Shrink pass (slowest tier first): a tier over its new target demotes
// its lowest-priority residents, cascading the invalidation to every
// faster tier so the nesting invariant survives. Demotion deletes bytes,
// it never writes them — the anchor copy is the durable source — so a
// shrink costs no I/O and is visible in DemotedBytes, not MovedBytes.
//
// Grow pass (slowest tier first, so a promotion can cascade upward in one
// call): a tier under its target promotes the highest-priority objects
// that hold a copy one tier down and none here, streaming bytes upward
// through the normal applyPlacement/copyBlobLocked path (MovedBytes).
func (m *Manager) resizeLocked() {
	anchor := m.last()

	for t := anchor - 1; t >= 0; t-- {
		// Lowest rank first: the mirror image of the water-fill order, so
		// the demoted frontier is exactly the set a full sweep would evict.
		for i := len(m.rank) - 1; i >= 0 && m.used[t] > m.tiers[t].Capacity; i-- {
			if o := m.rank[i]; o.copies[t].present {
				for u := Tier(0); u <= t; u++ {
					m.demoteLocked(o, u)
				}
			}
		}
	}

	for t := anchor - 1; t >= 0; t-- {
		if m.used[t] >= m.tiers[t].Capacity {
			continue
		}
		// Promotion candidates, highest rank first, hold a full copy one
		// tier down and either nothing here or (tier 0 only) a summary
		// that a grown capacity may now upgrade to the full body.
		for _, o := range m.rank {
			if !o.copies[t+1].present || o.copies[t+1].summaryOnly {
				continue
			}
			if o.copies[t].present && (t != 0 || !o.copies[t].summaryOnly) {
				continue
			}
			summaryOnly := false
			fp := o.size
			if t == 0 {
				big := float64(o.size) > m.cfg.SummaryThreshold*float64(m.tiers[0].Capacity)
				if big {
					if m.cfg.SummaryRatio <= 0 {
						continue
					}
					summaryOnly = true
					fp = o.summarySize(m.cfg.SummaryRatio)
				}
			}
			prev := o.footprint(t, m.cfg.SummaryRatio)
			if o.copies[t].present && o.copies[t].summaryOnly == summaryOnly {
				continue // already in the deserved shape
			}
			if m.used[t]-prev+fp > m.tiers[t].Capacity {
				continue // a smaller, lower-priority object may still fit
			}
			m.applyPlacement(o, t, true, summaryOnly)
			m.used[t] += o.footprint(t, m.cfg.SummaryRatio) - prev
		}
	}
}

// demoteLocked invalidates o's copy at tier t (a no-op when absent):
// bytes are deleted, never moved, and the loss is counted in
// DemotedBytes. Requires m.mu.
func (m *Manager) demoteLocked(o *object, t Tier) {
	c := &o.copies[t]
	if !c.present {
		return
	}
	fp := o.footprint(t, m.cfg.SummaryRatio)
	if o.hasPayload {
		m.backends[t].Delete(c.key(o.id))
	}
	*c = copyState{}
	m.used[t] -= fp
	m.stats.DemotedBytes[t] += fp
	m.stats.Migrations++
	if t == 0 {
		m.noteMemLocked(o.id)
	}
}

// applyPlacement transitions one object's copy at tier t to the desired
// state, counting migrations and maintaining version semantics: a copy
// created by promotion carries its source's version (upgrade copies
// data, so a copy promoted from a stale backup is honestly stale too);
// an invalidated copy simply disappears (downgrade is free, its bytes
// are deleted and counted in DemotedBytes). For metadata-only objects
// there are no bytes to move and the promoted copy is labeled with the
// current version, as before. It reports false when a wanted copy could
// not be materialized (no source bytes, or the backend refused them).
func (m *Manager) applyPlacement(o *object, t Tier, want, summaryOnly bool) bool {
	moved := o.size
	if summaryOnly {
		moved = o.summarySize(m.cfg.SummaryRatio)
	}
	c := &o.copies[t]
	switch {
	case want && !c.present:
		ver := o.version
		if o.hasPayload {
			srcVer, ok := m.copyBlobLocked(o, t, summaryOnly)
			if !ok {
				return false // no source bytes anywhere: the copy cannot exist
			}
			ver = srcVer
		}
		*c = copyState{present: true, version: ver, summaryOnly: summaryOnly}
		m.stats.MovedBytes[t] += moved
	case want && c.present && c.summaryOnly != summaryOnly:
		ver := o.version
		if o.hasPayload {
			old := c.key(o.id)
			srcVer, ok := m.copyBlobLocked(o, t, summaryOnly)
			if !ok {
				return false
			}
			if old != (BlobKey{ID: o.id, Version: srcVer, Summary: summaryOnly}) {
				m.backends[t].Delete(old)
			}
			ver = srcVer
		}
		c.summaryOnly = summaryOnly
		c.version = ver
		m.stats.MovedBytes[t] += moved
	case !want && c.present:
		m.stats.DemotedBytes[t] += o.footprint(t, m.cfg.SummaryRatio)
		if o.hasPayload {
			m.backends[t].Delete(c.key(o.id))
		}
		*c = copyState{}
	default:
		return true // no change: nothing to count or note
	}
	m.stats.Migrations++
	if t == 0 {
		m.noteMemLocked(o.id)
	}
	return true
}

// copyBlobLocked materializes o's bytes at tier t — the full body or its
// levels-of-detail summary — sourcing from the fastest tier holding a
// full copy. Returns the version the written blob carries. Requires m.mu.
//
// Full copies stream reader→writer (io.Copy under PutFrom) so a 4MB
// migration never doubles resident heap; summary copies still materialize
// because the summarize hook needs the whole payload in hand.
func (m *Manager) copyBlobLocked(o *object, t Tier, summaryOnly bool) (int, bool) {
	if summaryOnly {
		data, srcVer, ok := m.readFullLocked(o)
		if !ok {
			return 0, false
		}
		data = m.summarize(data, o.summarySize(m.cfg.SummaryRatio))
		if err := m.backends[t].Put(BlobKey{ID: o.id, Version: srcVer, Summary: true}, data); err != nil {
			return 0, false
		}
		return srcVer, true
	}
	br, srcVer, ok := m.openFullLocked(o)
	if !ok {
		return 0, false
	}
	err := m.backends[t].PutFrom(BlobKey{ID: o.id, Version: srcVer}, br, br.Len())
	br.Close()
	if err != nil {
		return 0, false
	}
	return srcVer, true
}

// readFullLocked reads the bytes of o's fastest full copy. Requires m.mu.
func (m *Manager) readFullLocked(o *object) ([]byte, int, bool) {
	for t := Tier(0); t < m.numTiers(); t++ {
		c := o.copies[t]
		if !c.present || c.summaryOnly {
			continue
		}
		if data, err := m.backends[t].Get(c.key(o.id)); err == nil {
			return data, c.version, true
		}
	}
	return nil, 0, false
}

// openFullLocked opens a stream over o's fastest full copy. Requires m.mu.
func (m *Manager) openFullLocked(o *object) (BlobReader, int, bool) {
	for t := Tier(0); t < m.numTiers(); t++ {
		c := o.copies[t]
		if !c.present || c.summaryOnly {
			continue
		}
		if br, err := m.backends[t].Open(c.key(o.id)); err == nil {
			return br, c.version, true
		}
	}
	return nil, 0, false
}
