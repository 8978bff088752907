package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"cbfww/internal/crawl"
)

// TestStallChargedToQueuedRequests offers requests at 500/s to one
// worker against a handler that stalls on request 10. Latency runs from
// each request's due time, so the requests that fell due during the
// stall carry the wait they spent queued behind it, and the generator
// reports how late it ran and how deep the backlog got.
func TestStallChargedToQueuedRequests(t *testing.T) {
	const (
		n       = 100
		rate    = 500.0
		stall   = 150 * time.Millisecond
		staller = 10
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("i") == strconv.Itoa(staller) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := srv.Client()
	rep := RunOpenLoop(context.Background(), n, rate, 1, func(_, i int) bool {
		resp, err := c.Get(srv.URL + "/?i=" + strconv.Itoa(i))
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	if len(rep.Samples) != n {
		t.Fatalf("got %d samples, want %d", len(rep.Samples), n)
	}
	interval := time.Duration(float64(time.Second) / rate)
	// Request staller+k fell due k intervals after the stall began, so it
	// waited at least until the stall ended.
	for k := 1; k*int(interval) < int(stall)-int(20*time.Millisecond); k++ {
		s := rep.Samples[staller+k]
		floor := stall - time.Duration(k)*interval - 5*time.Millisecond
		if s.Latency < floor {
			t.Errorf("request %d: latency %v, want >= %v (queued behind the stall)", staller+k, s.Latency, floor)
		}
		if s.Late < floor {
			t.Errorf("request %d: sent %v late, want >= %v", staller+k, s.Late, floor)
		}
	}
	if want := int(stall/interval) / 2; rep.BacklogMax < want {
		t.Errorf("backlog max %d, want >= %d", rep.BacklogMax, want)
	}
	if s := rep.Samples[n-1]; s.Late > 50*time.Millisecond {
		t.Errorf("last request still %v late: the backlog never drained", s.Late)
	}
	for i, s := range rep.Samples {
		if !s.OK {
			t.Fatalf("request %d failed", i)
		}
	}
}

// TestNoStallNoBacklog checks that a fast handler at a modest rate leaves
// no backlog at the end and keeps every request close to its due time.
func TestNoStallNoBacklog(t *testing.T) {
	rep := RunOpenLoop(context.Background(), 200, 1000, 2, func(_, i int) bool { return true })
	if rep.BacklogEnd != 0 {
		t.Errorf("backlog at end %d, want 0", rep.BacklogEnd)
	}
	if rep.Elapsed < 199*time.Millisecond {
		t.Errorf("200 requests at 1000/s took %v: the schedule ran early", rep.Elapsed)
	}
}

// TestStreamDeterministic checks that each workload's request stream is a
// function of the seed alone.
func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := w.build(w, 7)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b, err := w.build(w, 7)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		c, err := w.build(w, 8)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !bytes.Equal(encodeStream(a.Stream), encodeStream(b.Stream)) {
			t.Errorf("%s: same seed gave different request streams", w.Name)
		}
		if bytes.Equal(encodeStream(a.Stream), encodeStream(c.Stream)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.Name)
		}
		if len(a.Updates) != len(b.Updates) {
			t.Errorf("%s: same seed gave %d and %d updates", w.Name, len(a.Updates), len(b.Updates))
		}
		for i := range a.Updates {
			if a.Updates[i] != b.Updates[i] {
				t.Errorf("%s: update %d differs between builds", w.Name, i)
				break
			}
		}
	}
}

// TestOracleMatchesCrawler checks the oracle's statement of the served
// body against the crawler's parse of the origin's HTML, for pages of
// every workload's web.
func TestOracleMatchesCrawler(t *testing.T) {
	for _, w := range workloads {
		in, err := w.build(w, 3)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		h := in.Web.Handler()
		for _, url := range in.Pages[:20] {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, url, nil)
			h.ServeHTTP(rec, req)
			p, _ := in.Web.Lookup(url)
			if got, want := servedBody(p), crawl.ParsePage(url, rec.Body.String()).Body; got != want {
				t.Fatalf("%s %s: oracle body differs from the crawler's parse:\n oracle %.120q\ncrawler %.120q", w.Name, url, got, want)
			}
		}
	}
}

// encodeStream serialises a request stream, one request per line.
func encodeStream(s []Request) []byte {
	var b bytes.Buffer
	for _, r := range s {
		b.WriteByte(r.Op)
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(r.Node))
		b.WriteByte(' ')
		b.WriteString(r.Arg)
		b.WriteByte('\n')
	}
	return b.Bytes()
}
