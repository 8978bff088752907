// Command perfbench is the repository's wire-level benchmark. One process
// hosts the synthetic origin, launches cbfww-serve daemons, offers them
// an open-loop request stream over loopback TCP and checks every served
// body against the origin. With --trace 0 it reports the end-to-end
// metrics from the untraced daemons; with --trace 1 it reports per-layer
// metrics from a traced in-process composition of the same daemon.
//
//	perfbench --workload hot-heap --seed 1 --seconds 10 --trace 0 \
//	    --serve path/to/cbfww-serve --work path/to/scratch
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads, metrics and known gaps.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// Metric is one reported number with its unit and sample count. Info
// metrics are printed in the table but left out of the JSON summary,
// which carries exactly the metrics BENCHMARK.json declares for the mode.
type Metric struct {
	Value float64
	Unit  string
	N     int
	Info  bool
}

// Result is one run's outcome.
type Result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]Metric
}

func (r *Result) set(name string, v float64, unit string, n int) {
	if r.Metrics == nil {
		r.Metrics = map[string]Metric{}
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit, N: n}
}

func (r *Result) info(name string, v float64, unit string, n int) {
	r.set(name, v, unit, n)
	m := r.Metrics[name]
	m.Info = true
	r.Metrics[name] = m
}

// Options are the command-line settings shared by both run modes.
type Options struct {
	Seed    int64
	Seconds float64
	Serve   string // cbfww-serve binary
	Work    string // scratch directory for daemon data and logs
}

func main() {
	var (
		name  = flag.String("workload", "", "workload name")
		seed  = flag.Int64("seed", 1, "input seed")
		secs  = flag.Float64("seconds", 10, "measured seconds of the fixed-rate phase")
		trace = flag.Int("trace", 0, "0: end-to-end metrics from cbfww-serve; 1: per-layer metrics from a traced run")
		serve = flag.String("serve", "", "cbfww-serve binary")
		work  = flag.String("work", "", "scratch directory")
	)
	flag.Parse()
	// The generator collects its own heap, which also holds the hosted
	// web, rarely, so its collections do not show up as server latency.
	// The traced run, which hosts the daemon in this process, sets the
	// daemon's default back.
	debug.SetGCPercent(800)
	if err := run(*name, *trace, Options{Seed: *seed, Seconds: *secs, Serve: *serve, Work: *work}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, trace int, opts Options) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if opts.Seconds <= 0 || opts.Seconds > maxSeconds {
		return fmt.Errorf("--seconds must be in (0, %d]", maxSeconds)
	}
	if opts.Work == "" || opts.Serve == "" {
		return fmt.Errorf("--work and --serve are required")
	}
	// A worker waiting for its next due time sits in nanosleep(2) and
	// keeps its scheduler slot (P) until the runtime's monitor takes it
	// back, which on an idle process can take up to 10 ms. One spare P
	// beyond the workers keeps responses and the hosted origin from
	// waiting for it.
	runtime.GOMAXPROCS(workers() + 1)
	// Each run first deletes earlier runs' directories, so runs never pile
	// up daemon data (a spill-files run writes a few hundred megabytes).
	for _, wl := range workloads {
		old, _ := filepath.Glob(filepath.Join(opts.Work, wl.Name+"-*"))
		for _, d := range old {
			if err := os.RemoveAll(d); err != nil {
				return err
			}
		}
	}
	in, err := w.build(w, opts.Seed)
	if err != nil {
		return fmt.Errorf("build %s inputs: %w", w.Name, err)
	}
	var res Result
	switch trace {
	case 0:
		res, err = runEndToEnd(w, in, opts)
	case 1:
		res, err = runTraced(w, in, opts)
	default:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	printResult(os.Stdout, w.Name, res)
	return nil
}

// printResult writes a readable table (name, value, unit, samples) and
// then the JSON summary as the last line.
func printResult(f *os.File, workload string, r Result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(f, "# %s: correct=%v attempted=%d failed=%d\n", workload, r.Correct, r.Attempted, r.Failed)
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]jm{}}
	for _, n := range names {
		m := r.Metrics[n]
		v := m.Value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// A percentile that landed on a failed request: report it as
			// missing every limit, in a form JSON can carry.
			v = 1e9
		}
		tag := ""
		if m.Info {
			tag = " (info)"
		}
		fmt.Fprintf(f, "%-36s %14.6g %-6s n=%d%s\n", n, v, m.Unit, m.N, tag)
		if !m.Info {
			out.Metrics[n] = jm{Value: v, Unit: m.Unit}
		}
	}
	b, _ := json.Marshal(out) // plain structs and floats: cannot fail
	fmt.Fprintln(f, string(b))
}
