package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"cbfww/internal/core"
	"cbfww/internal/crawl"
	"cbfww/internal/gateway"
	"cbfww/internal/peers"
	"cbfww/internal/resilience"
	"cbfww/internal/schema"
	"cbfww/internal/simweb"
	"cbfww/internal/storage"
	"cbfww/internal/warehouse"
)

// Span kinds: the layer boundaries the traced run times.
const (
	spanClient     = iota // the generator's request, send to last byte
	spanServer            // the gateway handler, wrapped around Server.Handler()
	spanOriginGet         // warehouse -> origin fetch (retries included)
	spanOriginHead        // warehouse -> origin revalidation probe
	spanPeerProbe         // warehouse -> peers resident-only probe
	spanReplicate         // warehouse -> replication hook
	spanProbe             // a direct call into a layer's public function
)

var spanNames = []string{"client", "server", "origin_get", "origin_head", "peer_probe", "replicate", "probe"}

// span is one timed call. Spans of one request share its id; -1 marks
// work no request caused (asynchronous replication, set-up traffic).
type span struct {
	rid        int
	kind       int
	node       int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (t *tracer) record(rid, kind, node int, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{rid: rid, kind: kind, node: node, start: start.Sub(t.t0), end: end.Sub(t.t0)})
	t.mu.Unlock()
}

// since returns a copy of the spans recorded after the first mark.
func (t *tracer) since(mark int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "rid,kind,node,start_ns,end_ns")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d\n", s.rid, spanNames[s.kind], s.node, s.start, s.end)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type ridKey struct{}

// ridOf returns the request id a context carries, -1 when none.
func ridOf(ctx context.Context) int {
	if v, ok := ctx.Value(ridKey{}).(int); ok {
		return v
	}
	return -1
}

// tracedHandler times the gateway handler and puts the request id (the
// rid query parameter the traced client adds) into the context, where
// the origin and peer wrappers find it.
func tracedHandler(t *tracer, node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := -1
		if v := r.URL.Query().Get("rid"); v != "" {
			rid, _ = strconv.Atoi(v)
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ridKey{}, rid)))
		t.record(rid, spanServer, node, start, time.Now())
	})
}

// tracedOrigin times the warehouse's calls into its origin.
type tracedOrigin struct {
	inner warehouse.ContextOrigin
	t     *tracer
	node  int
}

func (o tracedOrigin) Fetch(url string) (simweb.FetchResult, error) {
	return o.FetchCtx(context.Background(), url)
}

func (o tracedOrigin) Head(url string) (int, core.Time, error) {
	return o.HeadCtx(context.Background(), url)
}

func (o tracedOrigin) FetchCtx(ctx context.Context, url string) (simweb.FetchResult, error) {
	start := time.Now()
	fr, err := o.inner.FetchCtx(ctx, url)
	o.t.record(ridOf(ctx), spanOriginGet, o.node, start, time.Now())
	return fr, err
}

func (o tracedOrigin) HeadCtx(ctx context.Context, url string) (int, core.Time, error) {
	start := time.Now()
	v, mod, err := o.inner.HeadCtx(ctx, url)
	o.t.record(ridOf(ctx), spanOriginHead, o.node, start, time.Now())
	return v, mod, err
}

// tracedPeers times the warehouse's cold-miss probes of its peers.
type tracedPeers struct {
	inner *peers.Cluster
	t     *tracer
	node  int
}

func (p tracedPeers) FetchResident(ctx context.Context, url string) (simweb.FetchResult, bool) {
	start := time.Now()
	fr, ok := p.inner.FetchResident(ctx, url)
	p.t.record(ridOf(ctx), spanPeerProbe, p.node, start, time.Now())
	return fr, ok
}

// inproc is one warehouse + gateway composed in-process the way
// cbfww-serve's build() composes them.
type inproc struct {
	wh    *warehouse.Warehouse
	srv   *gateway.Server
	cl    *peers.Cluster
	res   *resilience.Origin
	hs    *http.Server
	done  chan struct{}
	maint chan struct{}
	mdone chan struct{}
}

// compose builds the in-process nodes over the given listeners. It
// mirrors cbfww-serve's flag defaults for what the daemons run with.
// With a tracer the handler, origin, peer and replication seams record
// spans; with nil the nodes run untraced.
func (e *env) compose(t *tracer, lns []net.Listener, dataDir string) ([]*inproc, error) {
	members := make([]string, len(lns))
	for i, ln := range lns {
		members[i] = ln.Addr().String()
	}
	var nodes []*inproc
	fail := func(err error) ([]*inproc, error) {
		for _, n := range nodes {
			n.stop()
		}
		return nil, err
	}
	for i, ln := range lns {
		cfg := warehouse.DefaultConfig()
		cfg.Miner.MinSupport = 2
		cfg.Shards = runtime.NumCPU()
		cfg.DataDir = dataDir
		if e.in.MmapTier > 0 {
			cfg.Storage = cfg.Storage.WithMmapTier(core.Bytes(e.in.MmapTier))
		}
		if e.in.Schema != "" {
			s, err := schema.Parse(e.in.Schema)
			if err != nil {
				return fail(err)
			}
			cfg.ApplySchema(s)
		}
		req, err := crawl.NewRequester(crawl.DefaultConfig(), crawl.FixedResolver(e.origin.Addr()))
		if err != nil {
			return fail(err)
		}
		res, err := resilience.Wrap(req, resilience.Config{
			Retry:   resilience.RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second},
			Breaker: resilience.BreakerConfig{Threshold: 5, Cooldown: 30 * time.Second},
		})
		if err != nil {
			return fail(err)
		}
		var origin warehouse.ContextOrigin = res
		if t != nil {
			origin = tracedOrigin{inner: res, t: t, node: i}
		}
		wh, err := warehouse.New(cfg, core.NewWallClock(), origin)
		if err != nil {
			return fail(err)
		}
		if _, err := wh.Rehydrate(); err != nil {
			wh.Close()
			return fail(err)
		}
		cl := peers.NewCluster(peers.Config{Breaker: resilience.BreakerConfig{Threshold: 5, Cooldown: 30 * time.Second}})
		if t != nil {
			wh.SetPeerSource(tracedPeers{inner: cl, t: t, node: i})
			node := i
			wh.SetReplicator(func(url string, p simweb.Page) {
				start := time.Now()
				cl.ReplicateAdmitted(url, p)
				t.record(-1, spanReplicate, node, start, time.Now())
			})
		} else {
			wh.SetPeerSource(cl)
			wh.SetReplicator(cl.ReplicateAdmitted)
		}
		srv, err := gateway.New(gateway.Config{Addr: ln.Addr().String(), Resilient: res, EnableAdmin: true, Cluster: cl}, wh)
		if err != nil {
			wh.Close()
			return fail(err)
		}
		n := &inproc{wh: wh, srv: srv, cl: cl, res: res, done: make(chan struct{})}
		handler := srv.Handler()
		if t != nil {
			handler = tracedHandler(t, i, handler)
		}
		n.hs = &http.Server{Handler: handler}
		go func() {
			defer close(n.done)
			_ = n.hs.Serve(ln) // http.ErrServerClosed after stop
		}()
		if len(lns) > 1 {
			cl.Configure(members[i], members)
			cl.Start()
		}
		if e.in.MaintainEvery > 0 {
			n.maint, n.mdone = make(chan struct{}), make(chan struct{})
			go func() {
				defer close(n.mdone)
				tk := time.NewTicker(e.in.MaintainEvery)
				defer tk.Stop()
				for {
					select {
					case <-tk.C:
						if _, err := wh.Maintain(); err != nil {
							fmt.Fprintln(os.Stderr, "perfbench: maintain:", err)
						}
					case <-n.maint:
						return
					}
				}
			}()
		}
		if e.in.Resize != nil {
			targets := map[string]core.Bytes{}
			for k, v := range e.in.Resize {
				targets[k] = core.Bytes(v)
			}
			if err := wh.StorageManager().ResizeTiers(targets); err != nil {
				n.stop()
				return fail(err)
			}
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

func (n *inproc) stop() {
	if n.maint != nil {
		close(n.maint)
		<-n.mdone
	}
	n.cl.Stop()
	n.hs.Close()
	<-n.done
	n.wh.Close()
}

// layerSnap is the counters a traced phase differences.
type layerSnap struct {
	wh        warehouse.Stats
	lockWait  int64
	lockAcq   int64
	coalesced uint64
	retries   uint64
	tiers     []storage.TierInfo
	repl      uint64
	parked    uint64
}

func snapshot(nodes []*inproc) layerSnap {
	var s layerSnap
	for _, n := range nodes {
		st := n.wh.Stats()
		s.wh.Revalidations += st.Revalidations
		s.wh.Refetches += st.Refetches
		s.wh.StaleServes += st.StaleServes
		for _, sh := range n.wh.ShardStats() {
			s.lockWait += sh.LockWaitMicros
			s.lockAcq += sh.LockAcquires
		}
		s.coalesced += n.srv.CoalescedFetches()
		s.retries += n.res.Stats().Retries
		ts := n.wh.StorageManager().Tiers()
		if s.tiers == nil {
			s.tiers = make([]storage.TierInfo, len(ts))
		}
		for i, t := range ts {
			s.tiers[i].Name = t.Name
			s.tiers[i].Backend = t.Backend
			s.tiers[i].Moved += t.Moved
			s.tiers[i].Demoted += t.Demoted
		}
		for _, p := range n.cl.Stats().Peers {
			s.repl += p.Replicated
			s.parked += p.HandoffParked
		}
	}
	return s
}

// storeKind names the store a tier really runs on. Without a data
// directory every tier is a heap store, whatever the table's Backend
// column says.
func storeKind(b storage.BlobStore) string {
	switch b.(type) {
	case *storage.MmapStore:
		return "mmap"
	case *storage.DiskStore:
		return "disk"
	case *storage.SegmentStore:
		return "segment"
	}
	return "heap"
}

// inprocRun is one half of a traced run: the daemon composed in-process
// over the given inputs, warmed up, with origin updates running.
type inprocRun struct {
	e           *env
	nodes       []*inproc
	addrs       []string
	stopUpdates func()
}

// startInproc composes the nodes (traced when t is set) over a copy of
// the checkpoint, checks their tier stack and runs the untimed warm-up.
func startInproc(w *Workload, in *Inputs, opts Options, sub, pristine string, t *tracer) (*inprocRun, error) {
	e, err := newEnv(w, in, opts, sub)
	if err != nil {
		return nil, err
	}
	e.traceID = t != nil
	run := &inprocRun{e: e, stopUpdates: func() {}}
	fail := func(err error) (*inprocRun, error) {
		run.close()
		return nil, err
	}
	dataDir := ""
	if pristine != "" {
		dataDir = filepath.Join(e.dir, "data")
		if err := copyDir(dataDir, pristine); err != nil {
			return fail(err)
		}
	}
	lns := make([]net.Listener, w.Nodes)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return fail(err)
		}
		run.addrs = append(run.addrs, lns[i].Addr().String())
	}
	if run.nodes, err = e.compose(t, lns, dataDir); err != nil {
		for _, l := range lns {
			l.Close()
		}
		return fail(err)
	}
	e.setNodes(run.addrs)
	if err := run.guard(); err != nil {
		return fail(err)
	}
	if err := e.warm(); err != nil {
		return fail(err)
	}
	run.stopUpdates = e.startUpdates()
	return run, nil
}

// guard is the tier-stack guard for composed nodes: their /stats table
// must be the workload's stack, as for the daemons, and each tier must
// run on the store its row names (a heap store everywhere without a
// data directory).
func (r *inprocRun) guard() error {
	sts, err := statsAll(r.addrs)
	if err != nil {
		return err
	}
	if err := guardTiers(r.e.in, sts); err != nil {
		return err
	}
	for i, n := range r.nodes {
		mgr := n.wh.StorageManager()
		for ti, info := range mgr.Tiers() {
			want := "heap"
			if r.e.in.DataDir {
				want = info.Backend
			}
			if got := storeKind(mgr.Backend(storage.Tier(ti))); got != want {
				return fmt.Errorf("tier-stack guard: node %d tier %s runs on a %s store, want %s", i, info.Name, got, want)
			}
		}
	}
	return nil
}

// measure runs the fixed-rate phase for the given seconds and fails
// unless the workload's self-check passes on it.
func (r *inprocRun) measure(seconds float64) (*Phase, error) {
	before, err := statsAll(r.addrs)
	if err != nil {
		return nil, err
	}
	p, err := r.e.phase(r.e.w.Rate, int(r.e.w.Rate*seconds))
	if err != nil {
		return nil, err
	}
	after, err := statsAll(r.addrs)
	if err != nil {
		return nil, err
	}
	if err := selfCheck(r.e, p, before, after); err != nil {
		return nil, err
	}
	return p, nil
}

func (r *inprocRun) close() {
	r.stopUpdates()
	for _, n := range r.nodes {
		n.stop()
	}
	r.e.close()
}

func runTraced(w *Workload, in *Inputs, opts Options) (Result, error) {
	// The composed daemon shares the generator's process; it collects with
	// the setting cbfww-serve runs with, not the generator's.
	debug.SetGCPercent(100)
	// A data-dir workload starts from a checkpoint cbfww-serve builds,
	// untimed, as in the end-to-end run.
	ck, err := newEnv(w, in, opts, "checkpoint")
	if err != nil {
		return Result{}, err
	}
	pristine, err := ck.prepare()
	ck.close()
	if err != nil {
		return Result{}, err
	}

	// The untraced half runs the same composition without spans: the
	// reference trace.overhead_ratio divides by.
	half := opts.Seconds / 2
	ref, err := startInproc(w, in, opts, "ref", pristine, nil)
	if err != nil {
		return Result{}, err
	}
	refPhase, err := ref.measure(half)
	refAttempted, refFailed := ref.e.attempted, ref.e.failed
	ref.close()
	if err != nil {
		return Result{}, err
	}
	refP50 := windowedQuantile(refPhase.bodySamples(), 0.5, window)

	// The traced half starts from the seed's inputs again: the untraced
	// half updated the origin's pages.
	if in, err = w.build(w, opts.Seed); err != nil {
		return Result{}, err
	}
	t := &tracer{t0: time.Now()}
	run, err := startInproc(w, in, opts, "traced", pristine, t)
	if err != nil {
		return Result{}, err
	}
	defer run.close()
	e, nodes := run.e, run.nodes

	before := snapshot(nodes)
	gets0, heads0 := e.origin.Counts()
	fetchMark := len(e.origin.FetchMillisSince(0))
	spanMark := t.len()
	p, err := run.measure(half)
	if err != nil {
		return Result{}, err
	}
	for i, s := range p.Served {
		t.record(e.next-len(p.Served)+i, spanClient, p.Reqs[i].Node, s.Start, s.End)
	}
	after := snapshot(nodes)
	gets1, heads1 := e.origin.Counts()
	originMs := e.origin.FetchMillisSince(fetchMark)

	var r Result
	r.Attempted, r.Failed = e.attempted+refAttempted, e.failed+refFailed
	r.Correct = r.Failed == 0
	layerMetrics(&r, p, t.since(spanMark), nodes[0].wh.StorageManager().Tiers())
	nb := float64(max(1, p.bodyCount()))
	r.set("trace.overhead_ratio", windowedQuantile(p.bodySamples(), 0.5, window)/refP50, "ratio", p.bodyCount())
	r.set("gateway.coalesced_fetches", float64(after.coalesced-before.coalesced), "count", 1)
	r.set("warehouse.lock_wait_us_per_req", float64(after.lockWait-before.lockWait)/nb, "us", p.bodyCount())
	r.set("warehouse.lock_acquires_per_req", float64(after.lockAcq-before.lockAcq)/nb, "count", p.bodyCount())
	r.set("warehouse.revalidations", float64(after.wh.Revalidations-before.wh.Revalidations), "count", 1)
	r.set("warehouse.refetches", float64(after.wh.Refetches-before.wh.Refetches), "count", 1)
	r.set("warehouse.stale_serves", float64(after.wh.StaleServes-before.wh.StaleServes), "count", 1)
	for _, tier := range tierNames {
		var moved, demoted core.Bytes
		for i, ti := range after.tiers {
			if ti.Name == tier {
				moved = ti.Moved - before.tiers[i].Moved
				demoted = ti.Demoted - before.tiers[i].Demoted
			}
		}
		r.set("storage.moved_bytes."+tier, float64(moved), "bytes", 1)
		r.set("storage.demoted_bytes."+tier, float64(demoted), "bytes", 1)
	}
	r.set("origin.fetch_ms_p50", quantile(originMs, 0.5), "ms", len(originMs))
	r.set("origin.heads", float64(heads1-heads0), "count", 1)
	r.set("origin.fetch_ratio", float64(gets1-gets0)/nb, "ratio", p.bodyCount())
	r.set("origin.duplicate_fetches", float64(e.origin.DuplicateFetches()), "count", 1)
	r.set("resilience.retries", float64(after.retries-before.retries), "count", 1)
	r.set("peers.replicated", float64(after.repl-before.repl), "count", 1)
	r.set("peers.handoff_parked", float64(after.parked-before.parked), "count", 1)
	late := lateMillis(p.Report.Samples)
	r.set("loadgen.late_ms_p99", quantile(late, 0.99), "ms", len(late))
	r.set("loadgen.backlog_max", float64(p.Report.BacklogMax), "count", len(late))
	r.set("loadgen.error_ratio", float64(r.Failed)/float64(max(1, r.Attempted)), "ratio", r.Attempted)
	q := p.millis(true)
	r.set("query.client_p50_ms", quantile(q, 0.5), "ms", len(q))
	r.set("query.client_p99_ms", quantile(q, 0.99), "ms", len(q))

	run.stopUpdates()
	if err := probes(&r, t, nodes[0], e.in); err != nil {
		return Result{}, err
	}
	if err := t.write(filepath.Join(e.dir, "spans.csv")); err != nil {
		return Result{}, err
	}
	return r, nil
}

// tierNames are the tier rows the per-tier metrics are reported for;
// a stack without one of them reports 0 for it.
var tierNames = []string{"memory", "mmap", "disk", "tertiary"}

// layerMetrics derives the per-layer metrics a phase's spans and
// responses give: handler, self and wire times, peer hops, bytes, the
// proxied share and the serve share of each tier of the table.
func layerMetrics(r *Result, p *Phase, spans []span, tiers []storage.TierInfo) {
	byRID := map[int][]span{}
	for _, s := range spans {
		if s.rid >= 0 {
			byRID[s.rid] = append(byRID[s.rid], s)
		}
	}
	var server, self, wire, hops []float64
	for _, ss := range byRID {
		var outer, client *span
		for i := range ss {
			s := &ss[i]
			switch s.kind {
			case spanServer:
				if outer == nil || s.start < outer.start {
					outer = s
				}
			case spanClient:
				client = s
			case spanPeerProbe:
				hops = append(hops, us(s.end-s.start))
			}
		}
		if outer == nil {
			continue
		}
		server = append(server, us(outer.end-outer.start))
		// Self time: the handler span minus the part of it that its
		// children (origin, peer and proxied-handler spans of the same
		// request) cover.
		var kids [][2]time.Duration
		for i := range ss {
			s := &ss[i]
			if s == outer || s.kind == spanClient {
				continue
			}
			a, b := max(s.start, outer.start), min(s.end, outer.end)
			if a < b {
				kids = append(kids, [2]time.Duration{a, b})
			}
		}
		self = append(self, us(outer.end-outer.start-covered(kids)))
		if client != nil {
			wire = append(wire, us(client.end-client.start)-us(outer.end-outer.start))
		}
	}
	r.set("gateway.server_us_p50", quantile(server, 0.5), "us", len(server))
	r.set("gateway.self_us_p50", quantile(self, 0.5), "us", len(self))
	r.set("wire.client_minus_server_us_p50", quantile(wire, 0.5), "us", len(wire))
	r.set("wire.client_minus_server_us_p99", quantile(wire, 0.99), "us", len(wire))
	r.set("peers.hop_us_p50", quantile(hops, 0.5), "us", len(hops))

	var bytes int64
	proxied := 0
	for i, s := range p.Served {
		if p.Reqs[i].Op == opBody {
			bytes += s.Bytes
		}
		if s.Proxied {
			proxied++
		}
	}
	nb := max(1, p.bodyCount())
	r.set("wire.bytes_per_req", float64(bytes)/float64(nb), "bytes", nb)
	r.set("peers.proxied_share", float64(proxied)/float64(max(1, len(p.Served))), "ratio", len(p.Served))
	counts, _ := p.sourceCounts()
	share := map[string]int{}
	for src, c := range counts {
		if i, ok := tierIndex(src); ok && i < len(tiers) {
			share[tiers[i].Name] += c
		}
	}
	for _, name := range tierNames {
		r.set("storage.serve_share."+name, float64(share[name])/float64(nb), "ratio", nb)
	}
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probes times direct calls into the warehouse, storage and query
// layers on one node after the load phase: the serve path's store read,
// a cold admission, a stream from each storage backend, and the query
// and search executors.
func probes(r *Result, t *tracer, n *inproc, in *Inputs) error {
	const reps = 200
	ctx := context.Background()
	mgr := n.wh.StorageManager()
	tiers := mgr.Tiers()

	var getBody []float64
	for i := 0; i < reps; i++ {
		url := in.Pages[i*7%len(in.Pages)]
		if !n.wh.Resident(url) {
			continue
		}
		start := time.Now()
		_, bs, err := n.wh.GetBodyCtx(ctx, "", url)
		if err != nil {
			return fmt.Errorf("probe GetBodyCtx %s: %w", url, err)
		}
		_, err = bs.WriteTo(io.Discard)
		bs.Close()
		if err != nil {
			return fmt.Errorf("probe body stream %s: %w", url, err)
		}
		end := time.Now()
		t.record(-1, spanProbe, 0, start, end)
		getBody = append(getBody, us(end.Sub(start)))
	}
	r.set("warehouse.getbody_us_p50", quantile(getBody, 0.5), "us", len(getBody))

	// Cold admission: the probe pages were never requested. Each GetCtx
	// carries its own id so its origin and peer spans can be subtracted.
	var admit []float64
	for k, url := range in.Probes {
		if n.wh.Resident(url) {
			continue
		}
		rid := 1_000_000_000 + k
		pctx := context.WithValue(ctx, ridKey{}, rid)
		mark := t.len()
		start := time.Now()
		if _, err := n.wh.GetCtx(pctx, "", url); err != nil {
			return fmt.Errorf("probe cold GetCtx %s: %w", url, err)
		}
		end := time.Now()
		var kids [][2]time.Duration
		for _, s := range t.since(mark) {
			if s.rid == rid {
				kids = append(kids, [2]time.Duration{s.start, s.end})
			}
		}
		t.record(rid, spanProbe, 0, start, end)
		admit = append(admit, us(end.Sub(start)-covered(kids)))
	}
	r.set("warehouse.admit_us_p50", quantile(admit, 0.5), "us", len(admit))

	// One stream per backend: objects whose fastest copy is on a tier that
	// runs on it. Keyed by the store the tier really runs on, so without
	// a data directory every stream counts as heap.
	fs := map[string][]float64{}
	for ti := range tiers {
		kind := storeKind(mgr.Backend(storage.Tier(ti)))
		ids := mgr.ResidentIDs(storage.Tier(ti))
		taken := 0
		for _, id := range ids {
			if taken == reps/4 {
				break
			}
			start := time.Now()
			res, br, err := mgr.FetchStream(id)
			if err != nil || br == nil {
				continue
			}
			_, err = io.Copy(io.Discard, br)
			br.Close()
			end := time.Now()
			if err != nil {
				return fmt.Errorf("probe FetchStream %d: %w", id, err)
			}
			if int(res.Tier) != ti {
				continue
			}
			taken++
			t.record(-1, spanProbe, 0, start, end)
			fs[kind] = append(fs[kind], us(end.Sub(start)))
		}
	}
	for _, b := range []string{"heap", "mmap", "disk", "segment"} {
		r.set("storage.fetchstream_us_p50."+b, quantile(fs[b], 0.5), "us", len(fs[b]))
	}

	var exec, search []float64
	for i := 0; i < reps/4; i++ {
		start := time.Now()
		if _, err := n.wh.Query("SELECT MFU 5 p.url, p.freq FROM Physical_Page p"); err != nil {
			return fmt.Errorf("probe Query: %w", err)
		}
		mid := time.Now()
		n.wh.SearchTiered(searchTerms[i%len(searchTerms)], 5)
		end := time.Now()
		t.record(-1, spanProbe, 0, start, mid)
		t.record(-1, spanProbe, 0, mid, end)
		exec = append(exec, us(mid.Sub(start)))
		search = append(search, us(end.Sub(mid)))
	}
	r.set("query.exec_us_p50", quantile(exec, 0.5), "us", len(exec))
	r.set("query.search_us_p50", quantile(search, 0.5), "us", len(search))
	return nil
}

// searchTerms are words of the generated vocabulary.
var searchTerms = []string{"station", "market", "temple", "stadium", "galaxy"}
