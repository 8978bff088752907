package main

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbfww/internal/simweb"
)

// Origin hosts the synthetic web over loopback TCP for the daemons under
// test (they reach it with -origin). It wraps simweb's own handler with a
// per-site delay, counts every GET and HEAD that reaches it, and keeps
// the oracle: the exact body the daemon must serve for each version of
// each page.
type Origin struct {
	web   *simweb.Web
	inner http.Handler
	delay func(host string) time.Duration

	ln   net.Listener
	srv  *http.Server
	done chan struct{}

	gets, heads atomic.Int64

	mu sync.Mutex
	// expected[url][v-1] is the body a warehouse must serve for version v.
	expected map[string][]string
	// fetched counts origin GETs per URL and version.
	fetched map[string]map[int]int
	// fetchMillis records each GET's time inside the origin handler.
	fetchMillis []float64
}

// NewOrigin starts serving web on an ephemeral loopback port. delay, when
// non-nil, gives each site's artificial response delay.
func NewOrigin(web *simweb.Web, delay func(host string) time.Duration) (*Origin, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("origin: listen: %w", err)
	}
	o := &Origin{
		web:      web,
		inner:    web.Handler(),
		delay:    delay,
		ln:       ln,
		done:     make(chan struct{}),
		expected: make(map[string][]string),
		fetched:  make(map[string]map[int]int),
	}
	for _, u := range web.URLs() {
		p, _ := web.Lookup(u)
		o.expected[u] = append(make([]string, p.Version-1), servedBody(p))
	}
	o.srv = &http.Server{Handler: http.HandlerFunc(o.serve)}
	go func() {
		defer close(o.done)
		_ = o.srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	return o, nil
}

// Addr is the origin's host:port.
func (o *Origin) Addr() string { return o.ln.Addr().String() }

// Close stops the listener and waits for the serve loop to exit.
func (o *Origin) Close() {
	o.srv.Close()
	<-o.done
}

func (o *Origin) serve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	host := r.Host
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	if o.delay != nil {
		if d := o.delay(host); d > 0 {
			// nanosleep-paced, like the generator: a runtime timer would add
			// up to a millisecond of its own to a sub-millisecond delay.
			sleepUntil(r.Context(), start.Add(d))
		}
	}
	if r.Method == http.MethodHead {
		o.heads.Add(1)
		o.inner.ServeHTTP(w, r)
		return
	}
	rec := &versionRecorder{ResponseWriter: w}
	o.inner.ServeHTTP(rec, r)
	o.gets.Add(1)
	url := "http://" + host + r.URL.Path
	o.mu.Lock()
	m := o.fetched[url]
	if m == nil {
		m = make(map[int]int)
		o.fetched[url] = m
	}
	m[rec.version()]++
	o.fetchMillis = append(o.fetchMillis, float64(time.Since(start))/float64(time.Millisecond))
	o.mu.Unlock()
}

// versionRecorder notes the X-Simweb-Version the inner handler set.
type versionRecorder struct {
	http.ResponseWriter
	v int
}

func (r *versionRecorder) WriteHeader(code int) {
	r.v, _ = strconv.Atoi(r.Header().Get("X-Simweb-Version"))
	r.ResponseWriter.WriteHeader(code)
}

func (r *versionRecorder) Write(b []byte) (int, error) {
	if r.v == 0 {
		r.v, _ = strconv.Atoi(r.Header().Get("X-Simweb-Version"))
	}
	return r.ResponseWriter.Write(b)
}

func (r *versionRecorder) version() int { return r.v }

// Update changes a page at the origin, recording the new version's body
// in the oracle before the origin can serve it.
func (o *Origin) Update(url, extra string) error {
	p, ok := o.web.Lookup(url)
	if !ok {
		return fmt.Errorf("origin: update %q: no such page", url)
	}
	next := *p
	next.Body = p.Body + " " + extra
	o.mu.Lock()
	o.expected[url] = append(o.expected[url], servedBody(&next))
	o.mu.Unlock()
	return o.web.Update(url, extra)
}

// Check reports whether body is exactly what the origin published as
// version v of url. Older versions are acceptable (weak consistency may
// serve them) but must be byte-exact.
func (o *Origin) Check(url string, v int, body []byte) bool {
	o.mu.Lock()
	vs := o.expected[url]
	o.mu.Unlock()
	if v < 1 || v > len(vs) || vs[v-1] == "" {
		return false
	}
	return string(body) == vs[v-1] // compared in place, no copy of either side
}

// Counts snapshots the origin's GET and HEAD totals.
func (o *Origin) Counts() (gets, heads int64) { return o.gets.Load(), o.heads.Load() }

// DuplicateFetches counts URL versions the origin served more than once.
func (o *Origin) DuplicateFetches() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, m := range o.fetched {
		for _, c := range m {
			if c > 1 {
				n += c - 1
			}
		}
	}
	return n
}

// FetchMillisSince returns the origin-side GET times recorded after the
// first `from` fetches.
func (o *Origin) FetchMillisSince(from int) []float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if from > len(o.fetchMillis) {
		from = len(o.fetchMillis)
	}
	return append([]float64(nil), o.fetchMillis[from:]...)
}

// servedBody is the body text a crawler extracts from simweb's HTML
// rendering of p: the page body followed by every anchor text, with runs
// of white space folded to one space. The title and media references are
// not body text. Stated here independently of the crawler's parser, so a
// change there that alters served bytes shows as an oracle mismatch.
func servedBody(p *simweb.Page) string {
	var b strings.Builder
	b.WriteString(p.Body)
	for _, a := range p.Anchors {
		b.WriteByte(' ')
		b.WriteString(a.Text)
	}
	return strings.Join(strings.Fields(b.String()), " ")
}
