package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"cbfww/internal/core"
	"cbfww/internal/simweb"
	"cbfww/internal/workload"
)

// Workload is one traffic mix: the web it runs over, the request stream,
// how the daemons are configured and what the run must show.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Rate is the fixed offered rate of the gated latency phase (req/s).
	Rate float64
	// LimitMs is the p90 latency limit max_rps_at_p90 is measured against.
	LimitMs float64
	// Ladder lists the offered rates, as multiples of Rate, that the
	// max_rps_at_p90 search steps through after the fixed-rate phase.
	Ladder []float64
	// Nodes is the number of cbfww-serve daemons.
	Nodes int
	// Warmup is how many stream requests run untimed, at WarmupRate,
	// before the fixed-rate phase, so cold-start misses settle first.
	Warmup     int
	WarmupRate float64
	// Setups is how many times a run launches its daemons to time set-up;
	// setup_s is the median.
	Setups int
	// build makes the workload's inputs from a seed.
	build func(w *Workload, seed int64) (*Inputs, error)
}

// Inputs are everything a workload derives from its seed.
type Inputs struct {
	Web *simweb.Web
	// Pages are the URLs the stream draws from; Probes are pages the
	// stream never requests (cold-admission probes in the traced run).
	Pages, Probes []string
	// Stream is the request sequence, consumed in order by every phase.
	Stream []Request
	// Delay is the per-site origin response delay (nil: none).
	Delay func(host string) time.Duration
	// Updates is the sequence of (url, extra text) origin updates applied
	// during the run, one every UpdateEvery.
	Updates     []Update
	UpdateEvery time.Duration
	// Prewarm asks for every page in Pages to be fetched before timing.
	Prewarm bool
	// Schema is the -schema file content ("" = none).
	Schema string
	// DataDir asks for -data-dir with a checkpoint built before timing.
	DataDir bool
	// MmapTier is the -mmap-tier size (0 = three-tier stack).
	MmapTier int64
	// Resize is the /admin/resize layout applied after launch.
	Resize map[string]int64
	// Tiers is the storage table the guard expects after set-up:
	// name/backend pairs in order.
	Tiers []string
	// MaintainEvery is -maintain-every (0 disables maintenance).
	MaintainEvery time.Duration
}

// Update is one origin content change.
type Update struct{ URL, Extra string }

// streamLen is how many requests a run can consume: the fixed-rate phase
// plus every ladder rung at full length.
func (w *Workload) streamLen(seconds float64) int {
	n := w.Rate*seconds + float64(w.Warmup)
	for _, m := range w.Ladder {
		n += w.Rate * m * rungSeconds
	}
	return int(n) + 1
}

// rungSeconds is the length of one max_rps_at_p90 ladder rung; its p90
// is the median over rungWindows equal slices, so one stall of the
// shared machine moves one slice, not the rung.
const (
	rungSeconds = 1.0
	rungWindows = 8
)

var workloads = []*Workload{
	{
		Name:    "hot-heap",
		Why:     "all pages resident in the heap tier, no origin, no maintenance: isolates gateway, wire, shard locks and the heap stream",
		Rate:    2000,
		LimitMs: 20,
		Ladder:  []float64{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16},
		Nodes:   1,
		Setups:  25,
		build:   buildHotHeap,
	},
	{
		Name:    "spill-files",
		Why:     "4 KB-1 MB bodies rehydrated onto heap/mmap/disk/segment tiers: exercises the file backends, payload decode and large socket writes",
		Rate:    300,
		LimitMs: 20,
		Ladder:  []float64{20, 30, 40, 50, 60, 70},
		Nodes:   1,
		Setups:  3,
		build:   buildSpillFiles,
	},
	{
		Name:    "churn-admit",
		Why:     "one-timer-heavy trace against a slow, updating origin with maintenance on and 5% queries: admission, revalidation, refetch, re-placement",
		Rate:    200,
		LimitMs: 50,
		Ladder:  []float64{2, 2.5, 3, 3.5, 4, 5, 6},
		// Revalidations grow with the resident set, and latency with them;
		// the warm-up moves the timed phase past the steepest part.
		Warmup:     4000,
		WarmupRate: 800,
		Nodes:      1,
		Setups:     25,
		build:      buildChurnAdmit,
	},
	{
		Name:    "cluster-r2",
		Why:     "three daemons with R=2 and load spread evenly: a third of requests take a proxy hop and admissions replicate",
		Rate:    1000,
		LimitMs: 20,
		Ladder:  []float64{5, 6, 7, 8, 9, 10, 11, 12, 14, 16},
		Nodes:   3,
		Setups:  21,
		// 12,000 requests over the 2,000 pages: the miss rate left for the
		// timed phase is a few percent, well clear of its p90.
		Warmup:     12000,
		WarmupRate: 4000,
		build:      buildClusterR2,
	},
}

func findWorkload(name string) (*Workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// genWeb generates a structured synthetic web, with or without media
// components, and one more page per site than the stream uses: the
// spare pages are the cold probes.
func genWeb(seed int64, sites, pages int, media bool) (*workload.GeneratedWeb, []string, []string, error) {
	cfg := workload.DefaultWebConfig()
	cfg.Sites, cfg.PagesPerSite, cfg.Seed = sites, pages+1, seed
	if !media {
		cfg.MediaProb = 0
	}
	g, err := workload.GenerateWeb(core.NewSimClock(0), cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var use, probes []string
	for _, u := range g.PageURLs {
		if strings.HasSuffix(u, fmt.Sprintf("/p%04d.html", pages)) {
			probes = append(probes, u)
		} else {
			use = append(use, u)
		}
	}
	if len(use) != sites*pages {
		return nil, nil, nil, fmt.Errorf("generated web: %d stream pages, want %d", len(use), sites*pages)
	}
	return g, use, probes, nil
}

// zipfStream draws n /body requests over pages with Zipf(s) popularity
// on a seeded permutation, spread over nodes uniformly at random.
func zipfStream(rng *rand.Rand, pages []string, n int, s float64, nodes int) []Request {
	z := workload.NewZipf(rng, len(pages), s)
	perm := rng.Perm(len(pages))
	out := make([]Request, n)
	for i := range out {
		out[i] = Request{Op: opBody, Arg: pages[perm[z.Sample()]]}
		if nodes > 1 {
			out[i].Node = rng.Intn(nodes)
		}
	}
	return out
}

// Stream lengths are sized by the caller-independent maximum run length
// so the same seed gives the same stream whatever --seconds says.
const maxSeconds = 60

func buildHotHeap(w *Workload, seed int64) (*Inputs, error) {
	g, pages, probes, err := genWeb(seed, 20, 100, false)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	return &Inputs{
		Web: g.Web, Pages: pages, Probes: probes,
		Stream:  zipfStream(rng, pages, w.streamLen(maxSeconds), 1.0, 1),
		Prewarm: true,
		// Every page fits the heap tier with room to spare. Without a data
		// dir all three tiers are heap stores, though /stats still names
		// the table's backends.
		Schema: "tier memory capacity 256MB latency 0\ntier disk capacity 1GB latency 10\ntier tertiary latency 100\n",
		Tiers:  []string{"memory/heap", "disk/disk", "tertiary/segment"},
	}, nil
}

// spillSizes returns n body sizes from a Pareto(1.3) tail truncated to
// [4 KB, 1 MB], one from each of n equal-probability strata, in a seeded
// order: every seed gets the same multiset of sizes, so the corpus size
// and the request-weighted size mix do not change with the seed; only
// which page has which size does.
func spillSizes(rng *rand.Rand, n int) []int {
	const lo, hi, alpha = 4096.0, 1048576.0, 1.3
	pmax := 1 - math.Pow(lo/hi, alpha) // CDF at the truncation point
	out := make([]int, n)
	for i, k := range rng.Perm(n) {
		u := (float64(k) + 0.5) / float64(n) * pmax
		out[i] = int(lo / math.Pow(1-u, 1/alpha))
	}
	return out
}

func buildSpillFiles(w *Workload, seed int64) (*Inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	vocab := workload.NewVocabulary(10, 200, 400)
	web := simweb.NewWeb(core.NewSimClock(0))
	const sites, perSite = 20, 100
	var pages, probes []string
	total := 0
	sizes := spillSizes(rng, sites*(perSite+1))
	for s := 0; s < sites; s++ {
		host := fmt.Sprintf("site%02d.example", s)
		web.AddSite(host, 0)
		for p := 0; p <= perSite; p++ {
			url := fmt.Sprintf("http://%s/p%04d.html", host, p)
			size := sizes[s*(perSite+1)+p]
			var b strings.Builder
			b.Grow(size + 16)
			for b.Len() < size {
				if b.Len() > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(vocab.TopicWord(rng, s))
			}
			if err := web.AddPage(&simweb.Page{URL: url, Title: fmt.Sprintf("site %d page %d", s, p), Body: b.String()}); err != nil {
				return nil, err
			}
			if p == perSite {
				probes = append(probes, url)
				continue
			}
			pages = append(pages, url)
			total += b.Len()
		}
	}
	// Uniform popularity: each tier's share of requests follows its share
	// of pages, so the mix does not hinge on which few pages a seed makes
	// hot (with skew, one seed's hot set landing on the segment tier
	// moved p90 sevenfold).
	stream := zipfStream(rng, pages, w.streamLen(maxSeconds), 0, 1)
	// Capacities as shares of the corpus, so every backend holds part of
	// it whatever the seed's exact total.
	share := func(f float64) int64 { return int64(f * float64(total)) }
	return &Inputs{
		Web: web, Pages: pages, Probes: probes, Stream: stream,
		// Every page is read once before timing, so the timed phase finds
		// the tier files in the page cache rather than wherever writeback
		// of the freshly copied data directory left them.
		Prewarm:  true,
		DataDir:  true,
		MmapTier: share(0.2),
		Resize:   map[string]int64{"memory": share(0.1), "mmap": share(0.3), "disk": share(0.5)},
		Tiers:    []string{"memory/heap", "mmap/mmap", "disk/disk", "tertiary/segment"},
	}, nil
}

func buildChurnAdmit(w *Workload, seed int64) (*Inputs, error) {
	g, pages, probes, err := genWeb(seed, 20, 200, true)
	if err != nil {
		return nil, err
	}
	n := w.streamLen(maxSeconds)
	tcfg := workload.DefaultTraceConfig()
	tcfg.Seed = seed
	tcfg.UpdatesPerTick = 0
	// Sessions average more than one page, so n sessions always cover the
	// n requests of the longest run.
	tcfg.Sessions = n
	tcfg.FollowLinkProb = 0.4
	tcfg.ZipfS = 0.5
	// The trace walks only the stream pages, so the probes stay cold. With
	// no updates configured it leaves the web untouched.
	all := g.PageURLs
	g.PageURLs = pages
	tr, err := workload.GenerateTrace(g, core.NewSimClock(0), tcfg)
	g.PageURLs = all
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(pages))
	for _, u := range pages {
		known[u] = true
	}
	rng := rand.New(rand.NewSource(seed))
	queries := []string{
		"SELECT MFU 5 p.url, p.freq FROM Physical_Page p",
		"SELECT MRU 5 p.url FROM Physical_Page p",
	}
	stream := make([]Request, 0, n)
	for _, rec := range tr.Log {
		if len(stream) >= n {
			break
		}
		if !known[rec.URL] {
			continue
		}
		// Every 20th request is a query or a search: 5% of the mix.
		switch len(stream) % 40 {
		case 19:
			stream = append(stream, Request{Op: opQuery, Arg: queries[rng.Intn(len(queries))]})
		case 39:
			stream = append(stream, Request{Op: opSearch, Arg: g.Vocab.TopicWord(rng, rng.Intn(len(g.Vocab.Topics)))})
		}
		stream = append(stream, Request{Op: opBody, Arg: rec.URL})
	}
	if len(stream) < n {
		return nil, fmt.Errorf("churn trace too short: %d requests, want %d", len(stream), n)
	}
	stream = stream[:n]

	// Updates target the pages the stream re-references, so revalidation
	// finds changed content; drawn in a seeded order, 20 per second.
	freq := map[string]int{}
	for _, r := range stream {
		if r.Op == opBody {
			freq[r.Arg]++
		}
	}
	var hot []string
	for _, u := range pages {
		if freq[u] >= 3 {
			hot = append(hot, u)
		}
	}
	updates := make([]Update, 20*maxSeconds*2)
	for i := range updates {
		u := hot[rng.Intn(len(hot))]
		updates[i] = Update{URL: u, Extra: fmt.Sprintf("revision%d %s", i, g.Vocab.TopicWord(rng, g.TopicOf[u]))}
	}
	// Per-site delays of 0.2-1.5 ms model a nearby origin.
	delays := map[string]time.Duration{}
	for s := 0; s < 20; s++ {
		delays[fmt.Sprintf("site%02d.example", s)] = time.Duration(200+rng.Intn(1300)) * time.Microsecond
	}
	return &Inputs{
		Web: g.Web, Pages: pages, Probes: probes, Stream: stream,
		Delay:       func(host string) time.Duration { return delays[host] },
		Updates:     updates,
		UpdateEvery: 50 * time.Millisecond,
		// Weak consistency with one-to-two-second polling: re-referenced
		// pages revalidate during the run.
		Schema:        "tier memory capacity 64MB latency 0\ntier disk capacity 2GB latency 10\ntier tertiary latency 100\nconsistency weak min-poll 1s max-poll 2s\n",
		Tiers:         []string{"memory/heap", "disk/disk", "tertiary/segment"},
		MaintainEvery: 3 * time.Second,
	}, nil
}

func buildClusterR2(w *Workload, seed int64) (*Inputs, error) {
	g, pages, probes, err := genWeb(seed, 20, 100, false)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	return &Inputs{
		Web: g.Web, Pages: pages, Probes: probes,
		Stream: zipfStream(rng, pages, w.streamLen(maxSeconds), 0.9, 3),
		Tiers:  []string{"memory/heap", "disk/disk", "tertiary/segment"},
	}, nil
}

// oneTimerShare is the share of distinct /body URLs the stream requests
// exactly once.
func oneTimerShare(s []Request) float64 {
	freq := map[string]int{}
	for _, r := range s {
		if r.Op == opBody {
			freq[r.Arg]++
		}
	}
	once := 0
	for _, c := range freq {
		if c == 1 {
			once++
		}
	}
	if len(freq) == 0 {
		return 0
	}
	return float64(once) / float64(len(freq))
}
