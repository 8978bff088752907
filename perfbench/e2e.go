package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cbfww/internal/gateway"
	"cbfww/internal/simweb"
)

// daemonArgs builds a cbfww-serve command line for one node.
func (e *env) daemonArgs(addr string, members []string, dataDir string) []string {
	a := []string{
		"-addr", addr,
		"-origin", e.origin.Addr(),
		"-maintain-every", e.in.MaintainEvery.String(),
		"-admin",
	}
	if e.in.Schema != "" {
		a = append(a, "-schema", filepath.Join(e.dir, "schema.txt"))
	}
	if dataDir != "" {
		a = append(a, "-data-dir", dataDir)
	}
	if e.in.MmapTier > 0 {
		a = append(a, "-mmap-tier", strconv.FormatInt(e.in.MmapTier, 10))
	}
	if len(members) > 1 {
		a = append(a, "-join", strings.Join(members, ","), "-replicas", "2")
	}
	return a
}

// cluster is the set of running daemons.
type cluster struct {
	ds []*Daemon
}

func (c *cluster) addrs() []string {
	out := make([]string, len(c.ds))
	for i, d := range c.ds {
		out[i] = d.Addr
	}
	return out
}

// cpuSeconds sums the daemons' CPU time so far.
func (c *cluster) cpuSeconds() (float64, error) {
	t := 0.0
	for _, d := range c.ds {
		s, err := d.CPUSeconds()
		if err != nil {
			return 0, err
		}
		t += s
	}
	return t, nil
}

// stop ends every daemon and waits for each to exit.
func (c *cluster) stop(graceful bool) error {
	var first error
	for _, d := range c.ds {
		if err := d.Stop(graceful); err != nil && first == nil {
			first = err
		}
	}
	c.ds = nil
	return first
}

// launch starts the workload's daemons (with dataDirs[i] when set),
// waits until all answer and applies the tier layout.
func (e *env) launch(tag string, dataDirs []string) (*cluster, error) {
	addrs, err := simweb.ReserveAddrs(e.w.Nodes)
	if err != nil {
		return nil, err
	}
	c := &cluster{}
	for i, addr := range addrs {
		dd := ""
		if dataDirs != nil {
			dd = dataDirs[i]
		}
		d, err := StartDaemon(e.opts.Serve, addr, filepath.Join(e.dir, fmt.Sprintf("serve-%s-%d.log", tag, i)), e.daemonArgs(addr, addrs, dd))
		if err != nil {
			c.stop(false)
			return nil, err
		}
		c.ds = append(c.ds, d)
	}
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for _, d := range c.ds {
		if err := d.Ready(hc, deadline); err != nil {
			c.stop(false)
			return nil, err
		}
	}
	if e.in.Resize != nil {
		for _, d := range c.ds {
			if err := resize(hc, d.Addr, e.in.Resize); err != nil {
				c.stop(false)
				return nil, err
			}
		}
	}
	return c, nil
}

// buildCheckpoint admits every stream page into a daemon over a fresh
// data directory and stops it gracefully, so it checkpoints. Each timed
// launch then rehydrates a copy of that directory.
func (e *env) buildCheckpoint() (string, error) {
	dir := filepath.Join(e.dir, "pristine")
	c, err := e.launch("checkpoint", []string{dir})
	if err != nil {
		return "", err
	}
	e.setNodes(c.addrs())
	if err := e.fetchAll(e.in.Pages); err != nil {
		c.stop(false)
		return "", fmt.Errorf("checkpoint build: %w", err)
	}
	if err := c.stop(true); err != nil {
		return "", fmt.Errorf("checkpoint build: %w", err)
	}
	return dir, nil
}

// statsAll reads every node's /stats.
func statsAll(addrs []string) ([]gateway.StatsResponse, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	out := make([]gateway.StatsResponse, len(addrs))
	for i, a := range addrs {
		st, err := getStats(hc, a)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// guardTiers fails unless every node's storage table is the workload's
// intended stack, with the capacities its layout asked for.
func guardTiers(in *Inputs, sts []gateway.StatsResponse) error {
	for n, st := range sts {
		var got []string
		for _, t := range st.Storage {
			got = append(got, t.Name+"/"+t.Backend)
			if want, ok := in.Resize[t.Name]; ok && int64(t.Capacity) != want {
				return fmt.Errorf("tier-stack guard: node %d tier %s capacity %d, want %d", n, t.Name, t.Capacity, want)
			}
		}
		if strings.Join(got, ",") != strings.Join(in.Tiers, ",") {
			return fmt.Errorf("tier-stack guard: node %d storage tiers %v, want %v", n, got, in.Tiers)
		}
	}
	return nil
}

// prepare writes the schema file and, for a data-dir workload, builds the
// checkpoint every launch rehydrates a copy of. It returns the checkpoint
// directory ("" without a data dir).
func (e *env) prepare() (string, error) {
	if e.in.Schema != "" {
		if err := os.WriteFile(filepath.Join(e.dir, "schema.txt"), []byte(e.in.Schema), 0o644); err != nil {
			return "", err
		}
	}
	if !e.in.DataDir {
		return "", nil
	}
	return e.buildCheckpoint()
}

// bringUp launches the daemons `setups` times over fresh copies of the
// checkpoint, timing each launch to ready; the last launch stays up and
// must pass the tier-stack guard. It returns the running daemons
// (stopped by the caller) and the set-up times.
func (e *env) bringUp(setups int, pristine string) (*cluster, []float64, error) {
	var (
		c     *cluster
		setup []float64
	)
	// Launches are timed back to back after a collection, so the
	// generator's own collector does not run during them.
	runtime.GC()
	for k := 0; k < setups; k++ {
		if c != nil {
			c.stop(false)
		}
		var dirs []string
		if pristine != "" {
			dd := filepath.Join(e.dir, fmt.Sprintf("data-%d", k))
			if err := copyDir(dd, pristine); err != nil {
				return nil, nil, err
			}
			dirs = []string{dd}
		}
		t0 := time.Now()
		var err error
		if c, err = e.launch(strconv.Itoa(k), dirs); err != nil {
			return nil, nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	e.setNodes(c.addrs())
	sts, err := statsAll(c.addrs())
	if err == nil {
		err = guardTiers(e.in, sts)
	}
	if err != nil {
		c.stop(false)
		return nil, nil, err
	}
	return c, setup, nil
}

// warm runs the untimed part of the stream: every page once for a
// prewarmed workload, then the workload's warm-up requests.
func (e *env) warm() error {
	if e.in.Prewarm {
		if err := e.fetchAll(e.in.Pages); err != nil {
			return fmt.Errorf("prewarm: %w", err)
		}
	}
	if e.w.Warmup > 0 {
		if _, err := e.phase(e.w.WarmupRate, e.w.Warmup); err != nil {
			return err
		}
	}
	return nil
}

func runEndToEnd(w *Workload, in *Inputs, opts Options) (Result, error) {
	e, err := newEnv(w, in, opts, "e2e")
	if err != nil {
		return Result{}, err
	}
	defer e.close()
	pristine, err := e.prepare()
	if err != nil {
		return Result{}, err
	}
	c, setup, err := e.bringUp(w.Setups, pristine)
	if err != nil {
		return Result{}, err
	}
	defer func() {
		if c != nil {
			c.stop(false)
		}
	}()
	if err := e.warm(); err != nil {
		return Result{}, err
	}

	before, err := statsAll(c.addrs())
	if err != nil {
		return Result{}, err
	}
	gets0, _ := e.origin.Counts()
	cpu0, err := c.cpuSeconds()
	if err != nil {
		return Result{}, err
	}
	stopUpdates := e.startUpdates()
	fixed, err := e.phase(w.Rate, int(w.Rate*opts.Seconds))
	if err != nil {
		stopUpdates()
		return Result{}, err
	}
	gets1, _ := e.origin.Counts()
	cpu1, err := c.cpuSeconds()
	if err != nil {
		stopUpdates()
		return Result{}, err
	}
	after, err := statsAll(c.addrs())
	if err != nil {
		stopUpdates()
		return Result{}, err
	}
	// Peak RSS is read before the ladder, whose length varies with how
	// far up it climbs.
	rss := 0.0
	for _, d := range c.ds {
		mb, err := d.PeakRSSMB()
		if err != nil {
			stopUpdates()
			return Result{}, err
		}
		rss = max(rss, mb)
	}
	maxRPS, rungs, err := e.ladder(fixed)
	stopUpdates()
	if err != nil {
		return Result{}, err
	}
	if err := c.stop(false); err != nil {
		return Result{}, err
	}
	c = nil

	if err := selfCheck(e, fixed, before, after); err != nil {
		return Result{}, err
	}

	var r Result
	body := fixed.millis(false)
	nb := len(body)
	bs := fixed.bodySamples()
	r.set("body_p50_ms", windowedQuantile(bs, 0.50, window), "ms", nb)
	r.set("cpu_us_per_req", (cpu1-cpu0)*1e6/float64(len(fixed.Reqs)), "us", len(fixed.Reqs))
	r.info("body_p90_ms", windowedQuantile(bs, 0.90, window), "ms", nb)
	r.info("body_p99_ms", quantile(body, 0.99), "ms", nb)
	r.info("max_rps_at_p90", maxRPS, "1/s", rungs)
	counts, _ := fixed.sourceCounts()
	r.set("hit_ratio", float64(fixed.bodyCount()-counts["origin"]-fixed.failedBodies())/float64(nb), "ratio", nb)
	okN := 0
	for _, s := range fixed.Served {
		if s.OK {
			okN++
		}
	}
	r.set("success_ratio", float64(okN)/float64(len(fixed.Served)), "ratio", len(fixed.Served))
	r.set("setup_s", median(setup), "s", len(setup))
	r.set("rss_peak_mb", rss, "MB", len(e.nodes))
	r.Attempted, r.Failed = e.attempted, e.failed
	r.Correct = r.Failed == 0
	r.info("origin.duplicate_fetches", float64(e.origin.DuplicateFetches()), "count", 1)
	phaseInfo(&r, fixed, gets1-gets0)
	return r, nil
}

// failedBodies counts failed /body requests in the phase.
func (p *Phase) failedBodies() int {
	n := 0
	for i, s := range p.Served {
		if p.Reqs[i].Op == opBody && !s.OK {
			n++
		}
	}
	return n
}

// phaseInfo adds the phase's informational figures: generator lateness
// and backlog (validity checks, not targets), origin traffic and, where
// the mix has them, query latencies.
func phaseInfo(r *Result, p *Phase, originGets int64) {
	late := lateMillis(p.Report.Samples)
	r.info("loadgen.late_ms_p99", quantile(late, 0.99), "ms", len(late))
	r.info("loadgen.backlog_max", float64(p.Report.BacklogMax), "count", len(late))
	r.info("origin_fetch_ratio", float64(originGets)/float64(max(1, p.bodyCount())), "ratio", p.bodyCount())
	if q := p.millis(true); len(q) > 0 {
		r.info("query_p50_ms", quantile(q, 0.50), "ms", len(q))
		r.info("query_p99_ms", quantile(q, 0.99), "ms", len(q))
	}
	counts, _ := p.sourceCounts()
	fmt.Fprintf(os.Stderr, "perfbench: %d requests at %.0f/s in %.2fs; serves by source %v\n", len(p.Reqs), p.Rate, p.Report.Elapsed.Seconds(), counts)
}

// oneTimerWindow is how many of the latest replayed requests the
// one-timer share is taken over: the share falls as a window grows and
// pages recur, so it is judged on a fixed length, the fixed-rate phase
// of a ten-second churn-admit run.
const oneTimerWindow = 2000

// selfCheck fails the run when the workload did not exercise the layer
// it exists for.
func selfCheck(e *env, p *Phase, before, after []gateway.StatsResponse) error {
	counts, n := p.sourceCounts()
	share := func(tier int) float64 {
		k := 0
		for src, c := range counts {
			if i, ok := tierIndex(src); ok && i == tier {
				k += c
			}
		}
		return float64(k) / float64(max(1, n))
	}
	sum := func(sts []gateway.StatsResponse, f func(gateway.StatsResponse) uint64) uint64 {
		var t uint64
		for _, s := range sts {
			t += f(s)
		}
		return t
	}
	delta := func(f func(gateway.StatsResponse) uint64) uint64 { return sum(after, f) - sum(before, f) }
	switch e.w.Name {
	case "hot-heap":
		if s := share(0); s < 0.99 {
			return fmt.Errorf("self-check hot-heap: memory served %.4f of requests, want >= 0.99", s)
		}
	case "spill-files":
		for t, row := range after[0].Storage {
			if s := share(t); s < 0.02 {
				return fmt.Errorf("self-check spill-files: tier %s served %.4f of requests, want >= 0.02 (sources %v)", row.Name, s, counts)
			}
		}
	case "churn-admit":
		ot := oneTimerShare(e.in.Stream[max(0, e.next-oneTimerWindow):e.next])
		reval := delta(func(s gateway.StatsResponse) uint64 { return uint64(s.Warehouse.Revalidations) })
		refetch := delta(func(s gateway.StatsResponse) uint64 { return uint64(s.Warehouse.Refetches) })
		if ot < 0.45 || ot > 0.8 || reval == 0 || refetch == 0 {
			return fmt.Errorf("self-check churn-admit: one-timer share %.3f (want 0.45-0.8), revalidations %d, refetches %d (want > 0)", ot, reval, refetch)
		}
	case "cluster-r2":
		ps := p.proxiedShare()
		repl := delta(func(s gateway.StatsResponse) uint64 {
			var t uint64
			for _, pr := range s.Cluster.Peers {
				t += pr.Replicated
			}
			return t
		})
		// With R=2 of 3 nodes, a uniformly chosen entry node is one of the
		// URL's replicas two times in three, so a third of requests hop.
		if ps < 0.25 || ps > 0.42 || repl == 0 {
			return fmt.Errorf("self-check cluster-r2: proxied share %.3f (want near 1/3), replicated %d (want > 0)", ps, repl)
		}
	}
	return nil
}
