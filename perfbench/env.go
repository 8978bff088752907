package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// env is one run's shared machinery: the hosted origin, the run
// directory, the per-worker clients and the position in the stream.
type env struct {
	w      *Workload
	in     *Inputs
	opts   Options
	origin *Origin
	dir    string

	nodes   []string
	clients []*Client
	traceID bool

	next      int // next unconsumed stream index
	attempted int
	failed    int
	logged    int // failures written to stderr so far
}

// workers is the number of concurrent connections the generator keeps:
// one per core, so the generator never out-threads the box it shares
// with the daemons.
func workers() int { return runtime.NumCPU() }

func newEnv(w *Workload, in *Inputs, opts Options, sub string) (*env, error) {
	dir := filepath.Join(opts.Work, fmt.Sprintf("%s-%d-%s", w.Name, opts.Seed, sub))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	o, err := NewOrigin(in.Web, in.Delay)
	if err != nil {
		return nil, err
	}
	return &env{w: w, in: in, opts: opts, origin: o, dir: dir}, nil
}

// close stops the clients and the origin and deletes the daemons' data
// directories; logs, span files and the checkpoint stay for inspection
// until the next run starts.
func (e *env) close() {
	for _, c := range e.clients {
		c.close()
	}
	e.origin.Close()
	data, _ := filepath.Glob(filepath.Join(e.dir, "data*"))
	for _, d := range data {
		if err := os.RemoveAll(d); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: clean up:", err)
		}
	}
}

// setNodes points fresh clients at the given node addresses.
func (e *env) setNodes(addrs []string) {
	for _, c := range e.clients {
		c.close()
	}
	e.nodes = addrs
	e.clients = e.clients[:0]
	for i := 0; i < workers(); i++ {
		c := newClient(addrs, e.origin)
		c.traceID = e.traceID
		e.clients = append(e.clients, c)
	}
}

// note counts one request's outcome and logs the first few failures.
func (e *env) note(s Served) {
	e.attempted++
	if s.OK {
		return
	}
	e.failed++
	if e.logged < 5 {
		e.logged++
		fmt.Fprintf(os.Stderr, "perfbench: request failed: %s\n", s.Err)
	}
}

// fetchAll requests each URL once through /body, closed-loop on every
// worker, spreading URLs over the nodes; every response must check.
func (e *env) fetchAll(urls []string) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for k, c := range e.clients {
		wg.Add(1)
		go func(k int, c *Client) {
			defer wg.Done()
			for i := k; i < len(urls); i += len(e.clients) {
				s := c.Do(-1, Request{Op: opBody, Node: i % len(e.nodes), Arg: urls[i]})
				mu.Lock()
				e.note(s)
				if !s.OK && first == nil {
					first = fmt.Errorf("fetch %s: %s", urls[i], s.Err)
				}
				mu.Unlock()
			}
		}(k, c)
	}
	wg.Wait()
	return first
}

// Phase is one open-loop run over a slice of the stream.
type Phase struct {
	Rate   float64
	Reqs   []Request
	Served []Served
	Report LoadReport
}

// phase offers the next n stream requests at rate.
func (e *env) phase(rate float64, n int) (*Phase, error) {
	if e.next+n > len(e.in.Stream) {
		return nil, fmt.Errorf("stream exhausted: need %d more requests, have %d", n, len(e.in.Stream)-e.next)
	}
	base := e.next
	e.next += n
	p := &Phase{Rate: rate, Reqs: e.in.Stream[base : base+n], Served: make([]Served, n)}
	p.Report = RunOpenLoop(context.Background(), n, rate, len(e.clients), func(wk, i int) bool {
		s := e.clients[wk].Do(base+i, p.Reqs[i])
		p.Served[i] = s
		return s.OK
	})
	for _, s := range p.Served {
		e.note(s)
	}
	return p, nil
}

// millis returns the due-time latencies of the phase's /body (or, with
// query set, /query and /search) requests.
func (p *Phase) millis(query bool) []float64 {
	var sel []Sample
	for i, s := range p.Report.Samples {
		if (p.Reqs[i].Op == opBody) != query {
			sel = append(sel, s)
		}
	}
	return latencyMillis(sel)
}

// bodySamples returns the phase's /body samples in due order.
func (p *Phase) bodySamples() []Sample {
	var sel []Sample
	for i, s := range p.Report.Samples {
		if p.Reqs[i].Op == opBody {
			sel = append(sel, s)
		}
	}
	return sel
}

// sourceShares counts /body serves by X-CBFWW-Source over the phase.
func (p *Phase) sourceCounts() (map[string]int, int) {
	counts := map[string]int{}
	n := 0
	for i, s := range p.Served {
		if p.Reqs[i].Op != opBody {
			continue
		}
		n++
		if s.OK {
			counts[s.Source]++
		}
	}
	return counts, n
}

func (p *Phase) proxiedShare() float64 {
	k := 0
	for _, s := range p.Served {
		if s.Proxied {
			k++
		}
	}
	return float64(k) / float64(max(1, len(p.Served)))
}

func (p *Phase) bodyCount() int {
	n := 0
	for _, r := range p.Reqs {
		if r.Op == opBody {
			n++
		}
	}
	return n
}

// startUpdates applies the workload's origin updates on their cadence
// until the returned stop function is called; stop waits for the loop
// and may be called more than once.
func (e *env) startUpdates() (stop func()) {
	if len(e.in.Updates) == 0 {
		return func() {}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(e.in.UpdateEvery)
		defer t.Stop()
		for i := 0; ; {
			select {
			case <-t.C:
				if i < len(e.in.Updates) {
					u := e.in.Updates[i]
					if err := e.origin.Update(u.URL, u.Extra); err != nil {
						fmt.Fprintln(os.Stderr, "perfbench: origin update:", err)
					}
					i++
				}
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// ladder steps the offered rate through the workload's rungs after the
// fixed-rate phase and returns the highest rate whose p90 held the limit
// without a growing backlog, interpolated between the last rung that held
// and the next one. A rung that fails is taken as the limit only when the
// rung after it fails too: one stall on the shared machine must not end
// the climb. It also returns how many rungs ran.
func (e *env) ladder(fixed *Phase) (float64, int, error) {
	lim := e.w.LimitMs
	holds := func(p *Phase) (bool, float64) {
		p90 := windowedQuantile(p.bodySamples(), 0.90, max(1, len(p.Reqs)/rungWindows))
		allowance := len(e.clients) + int(p.Rate*lim/1000)
		return p90 <= lim && p.Report.BacklogEnd <= allowance, p90
	}
	type point struct{ rate, p90 float64 }
	last := point{}
	if ok, p90 := holds(fixed); ok {
		last = point{fixed.Rate, p90}
	} else {
		return interpolate(0, 0, fixed.Rate, p90, lim), 0, nil
	}
	var failed *point
	for k, m := range e.w.Ladder {
		rate := e.w.Rate * m
		p, err := e.phase(rate, int(rate*rungSeconds))
		if err != nil {
			return 0, k, err
		}
		ok, p90 := holds(p)
		fmt.Fprintf(os.Stderr, "perfbench: rung %.0f/s: p90 %.3f ms, backlog at end %d, holds %v\n", rate, p90, p.Report.BacklogEnd, ok)
		switch {
		case ok:
			last, failed = point{rate, p90}, nil
		case failed != nil:
			return interpolate(last.rate, last.p90, failed.rate, failed.p90, lim), k + 1, nil
		default:
			failed = &point{rate, p90}
		}
	}
	if failed != nil {
		return interpolate(last.rate, last.p90, failed.rate, failed.p90, lim), len(e.w.Ladder), nil
	}
	return last.rate, len(e.w.Ladder), nil
}

// interpolate places the limit between a rung that held (ra, pa) and one
// that did not (rb, pb), linearly in log latency: near saturation it grows
// by orders of magnitude between rungs, and a linear fit would put the
// crossing at the held rung whatever the failed one measured.
func interpolate(ra, pa, rb, pb, lim float64) float64 {
	if math.IsInf(pb, 1) || pb <= pa || pa <= 0 {
		return ra
	}
	f := (math.Log(lim) - math.Log(pa)) / (math.Log(pb) - math.Log(pa))
	return ra + (rb-ra)*math.Max(0, math.Min(1, f))
}

// tierIndex maps an X-CBFWW-Source value to a tier index. The warehouse
// labels serves with storage.Tier's String, which names indices 0, 1 and
// 2 "memory", "disk" and "tertiary" and any deeper index "tier(N)",
// whatever the live table calls them; the benchmark resolves the index
// against the /stats tier table instead of trusting the label.
func tierIndex(source string) (int, bool) {
	switch source {
	case "memory":
		return 0, true
	case "disk":
		return 1, true
	case "tertiary":
		return 2, true
	}
	if rest, ok := strings.CutPrefix(source, "tier("); ok {
		n, err := strconv.Atoi(strings.TrimSuffix(rest, ")"))
		return n, err == nil
	}
	return 0, false
}

// copyDir copies a directory tree of regular files.
func copyDir(dst, src string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
