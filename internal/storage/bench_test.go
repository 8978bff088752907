package storage

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"cbfww/internal/core"
)

// benchSizes spans the payload spectrum: the original small-object shape
// plus large bodies where per-byte costs (disk reads, segment-log seeks,
// copies) dominate the fixed per-fetch overhead.
var benchSizes = []struct {
	label string
	bytes int64
}{
	{"64B", 64},
	{"64KB", 64 << 10},
	{"1MB", 1 << 20},
	{"4MB", 4 << 20},
}

// BenchmarkAccessByTier measures Fetch cost per serving tier and payload
// size, for both the all-in-heap backends and the real file-backed ones
// (`make bench-store`). The fixture pins one payload object per tier by
// priority: high lands a full copy in memory, middling stops at disk,
// and a floor-priority object crowded out of both is served from the
// tertiary segment log. Capacities scale with the payload (memory holds
// one object, disk two) so the pinning works at every size.
func BenchmarkAccessByTier(b *testing.B) {
	for _, backing := range []string{"heap", "disk", "mmap"} {
		for _, size := range benchSizes {
			cfg := Config{
				MemCapacity:  core.Bytes(size.bytes),
				DiskCapacity: core.Bytes(2 * size.bytes),
				MemLatency:   0, DiskLatency: 10, TertiaryLatency: 100,
				SummaryRatio:     0.1,
				SummaryThreshold: 1, // no "large documents": full copies only
			}
			switch backing {
			case "disk":
				cfg.DataDir = b.TempDir()
			case "mmap":
				// Same three-level shape, middle tier on the arena store: its
				// rows land between heap and per-file disk in cost.
				cfg.DataDir = b.TempDir()
				cfg.Tiers = []TierSpec{
					{Name: "memory", Backend: "heap", Capacity: cfg.MemCapacity, Latency: cfg.MemLatency},
					{Name: "mmap", Backend: "mmap", Capacity: cfg.DiskCapacity, Latency: cfg.DiskLatency},
					{Name: "tertiary", Backend: "segment", Capacity: 0, Latency: cfg.TertiaryLatency},
				}
			}
			m, err := NewManager(cfg)
			if err != nil {
				b.Fatal(err)
			}
			payload := func(i int) []byte {
				return bytes.Repeat([]byte{byte('a' + i)}, int(size.bytes))
			}
			// One object per tier: the top-priority object fills memory, the
			// next fills the rest of disk, the third has nowhere fast to live.
			ids := map[Tier]core.ObjectID{Memory: 1, Disk: 2, Tertiary: 3}
			for i, prio := range []core.Priority{0.9, 0.5, 0.1} {
				if err := m.AdmitBytes(core.ObjectID(i+1), core.Bytes(size.bytes), 1, prio, payload(i)); err != nil {
					b.Fatal(err)
				}
			}
			for tier, id := range ids {
				res, _, err := m.Fetch(id)
				if err != nil || res.Tier != tier {
					b.Fatalf("fixture: object %v served from %v (err %v), want %v", id, res.Tier, err, tier)
				}
			}
			for tier := Memory; tier < numTiers; tier++ {
				id := ids[tier]
				b.Run(fmt.Sprintf("backing=%s/size=%s/tier=%s/mode=fetch", backing, size.label, m.TierName(tier)), func(b *testing.B) {
					b.ReportAllocs()
					b.SetBytes(size.bytes)
					for i := 0; i < b.N; i++ {
						if _, _, err := m.Fetch(id); err != nil {
							b.Fatal(err)
						}
					}
				})
				// The streaming rows move the same bytes through Open +
				// WriteTo instead of materializing a []byte: B/op must stay
				// flat as the payload grows, on every backend.
				b.Run(fmt.Sprintf("backing=%s/size=%s/tier=%s/mode=stream", backing, size.label, m.TierName(tier)), func(b *testing.B) {
					b.ReportAllocs()
					b.SetBytes(size.bytes)
					for i := 0; i < b.N; i++ {
						_, br, err := m.FetchStream(id)
						if err != nil {
							b.Fatal(err)
						}
						if _, err := br.WriteTo(io.Discard); err != nil {
							b.Fatal(err)
						}
						br.Close()
					}
				})
			}
			m.Close()
		}
	}
}

// BenchmarkAdmitPopulated measures one admission into a populated
// manager: each op admits a fresh object and removes the oldest, holding
// the population at n. Sizes (1B–64KB) and priorities are seeded-random;
// memory holds about an eighth of the bytes and disk about half, so
// every admission contends for the finite tiers (`make bench-store`).
func BenchmarkAdmitPopulated(b *testing.B) {
	for _, n := range []int{1000, 5000, 20000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			const meanSize = 32 << 10
			cfg := DefaultConfig()
			cfg.MemCapacity = core.Bytes(n) * meanSize / 8
			cfg.DiskCapacity = core.Bytes(n) * meanSize / 2
			m, err := NewManager(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			admission := func(id int) Admission {
				return Admission{
					ID: core.ObjectID(id), Size: core.Bytes(rng.Intn(2*meanSize) + 1),
					Version: 1, Priority: core.Priority(rng.Float64()),
				}
			}
			batch := make([]Admission, n)
			for i := range batch {
				batch[i] = admission(i + 1)
			}
			if err := m.AdmitAll(batch); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := admission(n + i + 1)
				if err := m.Admit(a.ID, a.Size, a.Version, a.Priority); err != nil {
					b.Fatal(err)
				}
				if err := m.Remove(core.ObjectID(i + 1)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
