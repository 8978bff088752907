package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// Sample is the generator's record of one request. Latency runs from the
// request's due time, not from when a worker got to it, so time spent
// queued behind a stalled request is charged to the requests it delayed
// (the coordinated-omission correction).
type Sample struct {
	Latency time.Duration // completion - due
	Late    time.Duration // send - due
	OK      bool          // false for a failed, refused or wrong-bytes response
}

// LoadReport summarises one open-loop run.
type LoadReport struct {
	Samples []Sample // ordered by index
	// BacklogMax is the largest number of requests that were due but not
	// yet claimed by a worker, sampled whenever a worker claims one.
	BacklogMax int
	// BacklogEnd is the backlog when the last request was claimed; one
	// that is still large then means the offered rate outran the system.
	BacklogEnd int
	Elapsed    time.Duration
}

// RunOpenLoop offers n requests at a fixed rate (requests per second)
// from `workers` concurrent senders. Request i falls due at
// start + i/rate regardless of how earlier requests fared: each free
// worker claims the next index, sleeps until it is due (or sends at once
// when it is already overdue), so a request waits in the backlog while
// every worker is busy. do is called with the worker index and the
// request index and must be safe for concurrent use by distinct workers.
// Cancelling ctx stops claiming new requests.
func RunOpenLoop(ctx context.Context, n int, rate float64, workers int, do func(worker, i int) bool) LoadReport {
	if n <= 0 || rate <= 0 || workers <= 0 {
		return LoadReport{}
	}
	interval := float64(time.Second) / rate
	start := time.Now()
	due := func(i int) time.Time {
		return start.Add(time.Duration(math.Round(float64(i) * interval)))
	}
	// dueBy is how many requests have fallen due by t.
	dueBy := func(t time.Time) int {
		k := int(float64(t.Sub(start))/interval) + 1
		return min(k, n)
	}
	samples := make([]Sample, n)
	var (
		mu      sync.Mutex
		claimed int
		rep     LoadReport
	)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				i := claimed
				if i == n {
					mu.Unlock()
					return
				}
				claimed++
				// Requests due but not yet claimed, this one excluded.
				backlog := dueBy(time.Now()) - claimed
				rep.BacklogMax = max(rep.BacklogMax, backlog)
				if i == n-1 {
					rep.BacklogEnd = max(0, backlog)
				}
				mu.Unlock()
				d := due(i)
				if !sleepUntil(ctx, d) {
					return
				}
				sent := time.Now()
				ok := do(w, i)
				samples[i] = Sample{Latency: time.Since(d), Late: sent.Sub(d), OK: ok}
			}
		}(w)
	}
	wg.Wait()
	rep.Samples = samples[:claimed]
	rep.Elapsed = time.Since(start)
	return rep
}

// sleepUntil blocks until t or until ctx is done, reporting which came
// first as true for t. It sleeps in nanosleep(2) on the worker's own
// thread: the runtime's timers wake sub-millisecond sleeps up to a
// millisecond late when the process is otherwise idle, which would read
// as server latency at the rates this generator offers.
func sleepUntil(ctx context.Context, t time.Time) bool {
	for {
		if ctx.Err() != nil {
			return false
		}
		d := time.Until(t)
		if d <= 0 {
			return true
		}
		ts := syscall.NsecToTimespec(int64(min(d, 10*time.Millisecond)))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the nap; the loop re-checks
	}
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule;
// xs is sorted in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

// median returns the median of xs (sorted in place), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// latencyMillis returns each sample's latency in milliseconds. A failed
// request counts as missing any latency limit: it is charged +Inf so it
// sorts above every success.
func latencyMillis(s []Sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		if !x.OK {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = float64(x.Latency) / float64(time.Millisecond)
	}
	return out
}

// windowedQuantile splits samples (in due order) into consecutive
// windows of `per` samples, the last one absorbing any remainder, and
// returns the median over windows of each window's q-quantile. A stall
// on the shared machine then moves one window's figure instead of the
// whole run's, while each window still holds enough samples beyond its
// quantile to estimate it.
func windowedQuantile(s []Sample, q float64, per int) float64 {
	if len(s) == 0 {
		return 0
	}
	var qs []float64
	for k := 0; k < len(s); k += per {
		end := k + per
		if len(s)-end < per {
			end = len(s)
		}
		qs = append(qs, quantile(latencyMillis(s[k:end]), q))
		k = end - per
	}
	return median(qs)
}

// window is the window length, in samples, of windowedQuantile for a
// p99: ten samples beyond the quantile.
const window = 1000

// lateMillis returns each sample's send lateness in milliseconds.
func lateMillis(s []Sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(x.Late) / float64(time.Millisecond)
	}
	return out
}
