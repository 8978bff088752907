package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"

	"cbfww/internal/core"
)

// refPlaceLocked is the placement pass the rank replaced, kept as the
// reference the incremental walk must reproduce: collect every object,
// sort by (priority desc, id asc), water-fill them all, and assign the
// finite tiers' usage from the walk. Requires m.mu.
func refPlaceLocked(m *Manager) {
	ids := make([]core.ObjectID, 0, len(m.objects))
	for id := range m.objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := m.objects[ids[i]], m.objects[ids[j]]
		if a.priority != b.priority {
			return a.priority > b.priority
		}
		return a.id < b.id
	})

	anchor := m.last()
	var usedNow [maxTiers]core.Bytes
	var want, asSummary [maxTiers]bool
	for _, id := range ids {
		o := m.objects[id]
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
		case big && m.cfg.SummaryRatio > 0 &&
			usedNow[0]+o.summarySize(m.cfg.SummaryRatio) <= memCap:
			want[0], asSummary[0] = true, true
		case !big && usedNow[0]+o.size <= memCap:
			want[0] = true
		}
		for t := anchor - 1; t >= 0; t-- {
			m.applyPlacement(o, t, want[t], asSummary[t])
		}
		for t := Tier(0); t < anchor; t++ {
			usedNow[t] += o.footprint(t, m.cfg.SummaryRatio)
		}
	}
	for t := Tier(0); t < anchor; t++ {
		m.used[t] = usedNow[t]
	}
}

// refResizeLocked is the capacity re-placement the rank scan replaced:
// each pass sorts the tier's residents (shrink) or promotion candidates
// (grow) instead of scanning the rank. Requires m.mu.
func refResizeLocked(m *Manager) {
	anchor := m.last()
	for t := anchor - 1; t >= 0; t-- {
		if m.used[t] <= m.tiers[t].Capacity {
			continue
		}
		var resid []*object
		for _, o := range m.objects {
			if o.copies[t].present {
				resid = append(resid, o)
			}
		}
		sort.Slice(resid, func(i, j int) bool {
			a, b := resid[i], resid[j]
			if a.priority != b.priority {
				return a.priority < b.priority
			}
			return a.id > b.id
		})
		for _, o := range resid {
			if m.used[t] <= m.tiers[t].Capacity {
				break
			}
			for u := Tier(0); u <= t; u++ {
				m.demoteLocked(o, u)
			}
		}
	}

	for t := anchor - 1; t >= 0; t-- {
		if m.used[t] >= m.tiers[t].Capacity {
			continue
		}
		var cands []*object
		for _, o := range m.objects {
			if !o.copies[t+1].present || o.copies[t+1].summaryOnly {
				continue
			}
			if !o.copies[t].present || (t == 0 && o.copies[t].summaryOnly) {
				cands = append(cands, o)
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			a, b := cands[i], cands[j]
			if a.priority != b.priority {
				return a.priority > b.priority
			}
			return a.id < b.id
		})
		for _, o := range cands {
			summaryOnly := false
			fp := o.size
			if t == 0 && float64(o.size) > m.cfg.SummaryThreshold*float64(m.tiers[0].Capacity) {
				if m.cfg.SummaryRatio <= 0 {
					continue
				}
				summaryOnly = true
				fp = o.summarySize(m.cfg.SummaryRatio)
			}
			prev := o.footprint(t, m.cfg.SummaryRatio)
			if o.copies[t].present && o.copies[t].summaryOnly == summaryOnly {
				continue
			}
			if m.used[t]-prev+fp > m.tiers[t].Capacity {
				continue
			}
			m.applyPlacement(o, t, true, summaryOnly)
			m.used[t] += o.footprint(t, m.cfg.SummaryRatio) - prev
		}
	}
}

// refManager drives a Manager through the reference placement: the ops
// that place (admission, reprioritization) run refPlaceLocked instead of
// the rank walk, and resizes run refResizeLocked instead of the rank
// scan; the ops that do neither (remove, update, backup, drop, recover)
// run the manager's own code over a freshly sorted rank.
type refManager struct{ *Manager }

func (r refManager) admit(id core.ObjectID, size core.Bytes, version int, prio core.Priority, payload []byte) error {
	m := r.Manager
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.objects[id]; dup {
		return fmt.Errorf("storage: admit %v: %w", id, core.ErrExists)
	}
	anchor := m.last()
	o := m.newObject(id, size, version, prio, payload != nil)
	if o.hasPayload {
		if err := m.backends[anchor].Put(BlobKey{ID: id, Version: version}, payload); err != nil {
			return err
		}
	}
	o.copies[anchor] = copyState{present: true, version: version}
	m.objects[id] = o
	m.used[anchor] += size
	m.stats.MovedBytes[anchor] += size
	refPlaceLocked(m)
	return nil
}

func (r refManager) setPriority(id core.ObjectID, prio core.Priority) error {
	m := r.Manager
	m.mu.Lock()
	defer m.mu.Unlock()
	o, ok := m.objects[id]
	if !ok {
		return fmt.Errorf("storage: set priority %v: %w", id, core.ErrNotFound)
	}
	o.priority = prio
	refPlaceLocked(m)
	return nil
}

// resizeTiers retargets the capacities through the manager's own
// validation, then re-places with refResizeLocked.
func (r refManager) resizeTiers(targets map[string]core.Bytes) error {
	m := r.Manager
	m.mu.Lock()
	for name := range targets {
		if t, ok := m.TierByName(name); !ok || t == m.last() {
			m.mu.Unlock()
			return fmt.Errorf("storage: resize: %w: tier %q", core.ErrInvalid, name)
		}
	}
	for name, c := range targets {
		t, _ := m.TierByName(name)
		m.tiers[t].Capacity = c
	}
	m.stats.Resizes++
	refResizeLocked(m)
	m.mu.Unlock()
	return nil
}

func (r refManager) applyPriorities(prios map[core.ObjectID]core.Priority) {
	m := r.Manager
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, p := range prios {
		if o, ok := m.objects[id]; ok {
			o.priority = p
		}
	}
	refPlaceLocked(m)
}

// sync re-sorts the rank the reference's own ops leave stale, before a
// manager op that reads it.
func (r refManager) sync() {
	r.mu.Lock()
	r.rebuildRankLocked()
	r.mu.Unlock()
}

// equivConfig builds one of the tier tables the equivalence property
// runs over: the classic stack (whose disk tier CBFWW_MMAP_TIER moves
// onto the arena store) or the four-tier stack with the mmap warm tier.
func equivConfig(t *testing.T, fourTier bool) Config {
	cfg := Config{
		MemCapacity: 160, DiskCapacity: 600,
		MemLatency: 0, DiskLatency: 10, TertiaryLatency: 100,
		SummaryRatio: 0.1, SummaryThreshold: 0.25,
	}
	if fourTier {
		cfg = cfg.WithMmapTier(300)
	}
	if os.Getenv("CBFWW_DISK_TIER") != "" {
		cfg.DataDir = t.TempDir()
	}
	return cfg
}

// TestPlacementMatchesFullSort is the placement-equivalence property:
// seeded random sequences of every placement-relevant op run against the
// rank-walking manager and against a reference that re-sorts and
// re-walks the whole population on every placement. After each op both
// must agree on every object's copy state per tier, on every tier's
// usage and on the per-tier moved/demoted byte counters, and the manager
// under test must pass CheckInvariants (rank order and membership
// included).
func TestPlacementMatchesFullSort(t *testing.T) {
	for _, fourTier := range []bool{false, true} {
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("tiers4=%v/seed=%d", fourTier, seed), func(t *testing.T) {
				runPlacementEquivalence(t, seed, fourTier, 250)
			})
		}
	}
}

func runPlacementEquivalence(t *testing.T, seed int64, fourTier bool, steps int) {
	m, err := NewManager(equivConfig(t, fourTier))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	rm, err := NewManager(equivConfig(t, fourTier))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rm.Close() })
	ref := refManager{rm}

	rng := rand.New(rand.NewSource(seed))
	// Coarse priorities force ties, so the ID tie-break is exercised.
	prio := func() core.Priority { return core.Priority(rng.Intn(9)) / 8 }
	payload := func(id core.ObjectID, v int, size core.Bytes) []byte {
		return bytes.Repeat([]byte{byte(id) + byte(v)*7}, int(size))
	}
	const idSpace = 40
	version := map[core.ObjectID]int{}
	withBytes := map[core.ObjectID]bool{}
	sizes := map[core.ObjectID]core.Bytes{}
	finite := m.NumTiers() - 1
	damaged := false // a tier dropped and not yet recovered

	for step := 0; step < steps; step++ {
		id := core.ObjectID(rng.Intn(idSpace) + 1)
		var op string
		var errM, errR error
		switch k := rng.Intn(20); {
		case k < 5:
			op = "admit"
			size := core.Bytes(rng.Intn(70) + 1)
			p := prio()
			if rng.Intn(2) == 0 {
				op = "admit-bytes"
				data := payload(id, 1, size)
				errM = m.AdmitBytes(id, size, 1, p, append([]byte(nil), data...))
				errR = ref.admit(id, size, 1, p, data)
				if errM == nil {
					withBytes[id] = true
				}
			} else {
				errM = m.Admit(id, size, 1, p)
				errR = ref.admit(id, size, 1, p, nil)
				if errM == nil {
					withBytes[id] = false
				}
			}
			if errM == nil {
				version[id] = 1
				sizes[id] = size
			}
		case k < 9:
			op = "set-priority"
			p := prio()
			errM = m.SetPriority(id, p)
			errR = ref.setPriority(id, p)
		case k < 11:
			op = "remove"
			errM = m.Remove(id)
			ref.sync()
			errR = ref.Remove(id)
			if errM == nil {
				delete(version, id)
				delete(withBytes, id)
			}
		case k < 12:
			op = "apply-priorities"
			prios := map[core.ObjectID]core.Priority{}
			for i := 0; i < idSpace/2; i++ {
				prios[core.ObjectID(rng.Intn(idSpace)+1)] = prio()
			}
			m.ApplyPriorities(prios)
			ref.applyPriorities(prios)
		case k < 14:
			op = "resize"
			tier := Tier(rng.Intn(finite))
			c := core.Bytes(rng.Intn(400) + 20)
			targets := map[string]core.Bytes{m.TierName(tier): c}
			errM = m.ResizeTiers(targets)
			errR = ref.resizeTiers(targets)
		case k < 17:
			op = "update"
			v, ok := version[id]
			if !ok {
				continue
			}
			if withBytes[id] {
				size := sizes[id]
				errM = m.UpdateBytes(id, v+1, payload(id, v+1, size))
				errR = ref.UpdateBytes(id, v+1, payload(id, v+1, size))
			} else {
				errM = m.Update(id, v+1)
				errR = ref.Update(id, v+1)
			}
			if errM == nil {
				version[id] = v + 1
			}
		case k < 18:
			op = "backup"
			m.Backup()
			ref.Backup()
		case k < 19:
			tier := Tier(rng.Intn(m.NumTiers()))
			errM = m.DropTier(tier)
			errR = ref.DropTier(tier)
			// Half the drops stay unrecovered until a later drop recovers:
			// placements in between meet promotions with no source bytes.
			if rng.Intn(2) == 0 {
				op = "drop " + m.TierName(tier)
				damaged = true
				break
			}
			op = "drop+recover " + m.TierName(tier)
			damaged = false
			repM := m.Recover()
			ref.sync()
			repR := ref.Recover()
			if repM != repR {
				t.Fatalf("step %d %s: recovery reports differ: %+v vs reference %+v", step, op, repM, repR)
			}
			for id2 := range version {
				if _, ok := m.Priority(id2); !ok {
					delete(version, id2)
					delete(withBytes, id2)
				}
			}
		default:
			op = "access"
			resM, errA := m.Access(id)
			resR, errB := ref.Access(id)
			if (errA == nil) != (errB == nil) || resM != resR {
				t.Fatalf("step %d access %v: %+v/%v vs reference %+v/%v", step, id, resM, errA, resR, errB)
			}
		}
		if (errM == nil) != (errR == nil) {
			t.Fatalf("step %d %s %v: error %v vs reference %v", step, op, id, errM, errR)
		}
		if err := samePlacement(m, rm); err != nil {
			t.Fatalf("step %d %s %v: %v", step, op, id, err)
		}
		if err := m.CheckInvariants(); err != nil && !damaged {
			t.Fatalf("step %d %s %v: %v", step, op, id, err)
		}
	}
}

// samePlacement compares two managers' object sets, per-tier copy
// states, tier usage and per-tier movement counters.
func samePlacement(m, ref *Manager) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ref.mu.RLock()
	defer ref.mu.RUnlock()
	if len(m.objects) != len(ref.objects) {
		return fmt.Errorf("%d objects vs reference %d", len(m.objects), len(ref.objects))
	}
	for id, o := range m.objects {
		r, ok := ref.objects[id]
		if !ok {
			return fmt.Errorf("%v missing from the reference", id)
		}
		if o.version != r.version || o.priority != r.priority {
			return fmt.Errorf("%v v%d prio %v vs reference v%d prio %v", id, o.version, o.priority, r.version, r.priority)
		}
		for t := range o.copies {
			if o.copies[t] != r.copies[t] {
				return fmt.Errorf("%v at %s: %+v vs reference %+v", id, m.TierName(Tier(t)), o.copies[t], r.copies[t])
			}
		}
	}
	for t := range m.used {
		if m.used[t] != ref.used[t] {
			return fmt.Errorf("%s used %v vs reference %v", m.TierName(Tier(t)), m.used[t], ref.used[t])
		}
		if m.stats.MovedBytes[t] != ref.stats.MovedBytes[t] || m.stats.DemotedBytes[t] != ref.stats.DemotedBytes[t] {
			return fmt.Errorf("%s moved/demoted %v/%v vs reference %v/%v", m.TierName(Tier(t)),
				m.stats.MovedBytes[t], m.stats.DemotedBytes[t], ref.stats.MovedBytes[t], ref.stats.DemotedBytes[t])
		}
	}
	if m.stats.Migrations != ref.stats.Migrations {
		return fmt.Errorf("migrations %d vs reference %d", m.stats.Migrations, ref.stats.Migrations)
	}
	return nil
}

// TestRankNaNPriority: a NaN priority ranks last instead of breaking the
// rank's binary searches, so splices still find and move the right entry.
func TestRankNaNPriority(t *testing.T) {
	m := newTestManager(t)
	nan := core.Priority(math.NaN())
	for i, p := range []core.Priority{0.5, nan, 0.9, nan, 0.1} {
		if err := m.Admit(core.ObjectID(i+1), 10, 1, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SetPriority(2, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := m.SetPriority(3, nan); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(4); err != nil {
		t.Fatal(err)
	}
	if err := m.Admit(6, 10, 1, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	var order []core.ObjectID
	for _, o := range m.rank {
		order = append(order, o.id)
	}
	if fmt.Sprint(order) != fmt.Sprint([]core.ObjectID{2, 1, 6, 5, 3}) {
		t.Errorf("rank order %v, want [obj:2 obj:1 obj:6 obj:5 obj:3]", order)
	}
}

// flakyStore fails the next `fail` writes, then behaves like its inner
// store: a transient backend error (a full disk, an I/O hiccup).
type flakyStore struct {
	BlobStore
	fail int
}

func (f *flakyStore) Put(k BlobKey, data []byte) error {
	if f.fail > 0 {
		f.fail--
		return errors.New("flaky: write refused")
	}
	return f.BlobStore.Put(k, data)
}

func (f *flakyStore) PutFrom(k BlobKey, r io.Reader, n int64) error {
	if f.fail > 0 {
		f.fail--
		return errors.New("flaky: write refused")
	}
	return f.BlobStore.PutFrom(k, r, n)
}

// TestPlacementRetriesFailedCopy: a promotion whose write fails is
// retried by the next placement even when that placement's own change
// ranks below it, as the full re-sort did on every pass.
func TestPlacementRetriesFailedCopy(t *testing.T) {
	m := newTestManager(t)
	flaky := &flakyStore{BlobStore: m.backends[Memory], fail: 1}
	m.backends[Memory] = flaky
	if err := m.AdmitBytes(1, 40, 1, 0.9, bytes.Repeat([]byte("a"), 40)); err != nil {
		t.Fatal(err)
	}
	if m.ResidentAt(1, Memory) {
		t.Fatal("memory copy exists although its write failed")
	}
	if err := m.AdmitBytes(2, 10, 1, 0.1, bytes.Repeat([]byte("b"), 10)); err != nil {
		t.Fatal(err)
	}
	if !m.ResidentAt(1, Memory) {
		t.Error("failed memory promotion not retried by the next placement")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
