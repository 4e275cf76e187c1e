// Command perfbench is gyokit's end-to-end benchmark. It runs gyod's
// real engine.Server handler in-process behind a loopback HTTP
// listener, drives it with closed-loop clients in the same process,
// checks every answer against a reference computed by an independent
// path, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload query-eval --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 runs a shorter untraced phase, then replays the same
// seeded request sequence by calling each layer's public functions
// directly, twice — once plain and once recording spans — and reports
// the per-layer metrics. See README.md for the metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxClients bounds the closed-loop client goroutines: the reference
// machine has two vCPUs, and more clients only queue behind them.
const maxClients = 2

// A trace-0 run builds its workload from scratch at least minSetups
// times, and more while the set-ups took under setupBudget seconds in
// all; setup_s is the median, so one slow set-up does not decide it.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 2.0
)

// A trace-0 run cuts its measured window into slices of equal length,
// computes every end-to-end figure per slice and reports the median
// over the slices, so a start-up transient or a burst of stolen CPU
// time that covers a few slices does not move the figure. Five slices
// of a 30 s window leave every workload over 200 reads a slice, so
// each slice's p95 has at least ten samples beyond it.
const slices = 5

// endToEnd lists the gated metrics, in the order BENCHMARK.json names
// them. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p95_ms", "ms"},
	{"solve_p50_ms", "ms"},
	{"alloc_kb_per_op", "KiB"},
}

type metricDef struct{ name, unit string }

// bench is one built workload instance.
type bench interface {
	// measure runs the closed-loop clients for d and returns what they
	// completed.
	measure(d time.Duration) (*phase, error)
	// replay re-issues the workload's seeded request sequence for d,
	// calling the layers directly; with a recording tracer it also
	// keeps spans and counters. It returns the requests replayed.
	replay(d time.Duration, tr *tracer) (int, error)
	// stores lists the durable stores whose counters feed the storage
	// metrics (none for in-memory workloads).
	stores() []storeRef
	// verify checks the final state after the run.
	verify() error
	close()
}

// workload is one named traffic mix; BENCHMARK.json and README.md say
// why each exists.
type workload struct {
	name  string
	setup func(seed int64) (bench, error)
}

var workloads = []workload{
	{"query-eval", setupQueryEval},
	{"query-plan", setupQueryPlan},
	{"ingest-mixed", setupIngest},
}

// result is the JSON line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, d)
	} else {
		res, err = runPlain(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runPlain measures the end-to-end metrics with tracing off.
func runPlain(w *workload, seed int64, d time.Duration) (*result, error) {
	var b bench
	var setups []float64
	for spent := 0.0; len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups); {
		if b != nil {
			b.close()
		}
		runtime.GC() // each set-up starts from the same clean heap
		t0 := time.Now()
		var err error
		if b, err = w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	defer b.close()
	if err := warmUp(b, d); err != nil {
		return nil, err
	}
	all := &phase{}
	per := map[string][]float64{}
	extras := map[string][]float64{}
	units := map[string]string{}
	start := time.Now()
	for i := 1; i <= slices; i++ {
		// A slice ends on its share of the window, so an operation
		// still in flight at one boundary shortens the next slice; a
		// slice left with under half its share is skipped rather than
		// read from a handful of operations.
		left := time.Until(start.Add(d * time.Duration(i) / slices))
		if left < d/slices/2 {
			continue
		}
		ph, err := b.measure(left)
		if err != nil {
			return nil, err
		}
		all.merge(ph)
		all.elapsed += ph.elapsed
		for k, v := range sliceMetrics(ph) {
			per[k] = append(per[k], v)
		}
		for k, x := range ph.extra {
			extras[k] = append(extras[k], x.Value)
			units[k] = x.Unit
		}
	}
	if err := b.verify(); err != nil {
		all.fail(err)
	}
	all.extra = map[string]metric{}
	for k, v := range extras {
		all.extra[k] = metric{median(v), units[k]}
	}
	m := map[string]float64{"setup_s": median(setups)}
	for k, v := range per {
		m[k] = median(v)
	}
	all.report(w.name)
	fmt.Printf("%-24s %12.4f %s\n", "setup_s", m["setup_s"], "s")
	return all.result(endToEnd, m), nil
}

// sliceMetrics computes the end-to-end figures of one slice. A figure
// with no samples in the slice is left out rather than read as 0.
func sliceMetrics(ph *phase) map[string]float64 {
	m := map[string]float64{
		"throughput_ops_s": float64(ph.ops()) / ph.elapsed.Seconds(),
		"alloc_kb_per_op":  float64(ph.mem.alloc) / 1024 / float64(ph.ops()),
	}
	if r := ph.reads(); len(r) > 0 {
		m["read_p50_ms"] = quantile(r, 0.50)
		m["read_p95_ms"] = quantile(r, 0.95)
	}
	if s := ph.lat[opSolve]; len(s) > 0 {
		m["solve_p50_ms"] = quantile(s, 0.50)
	}
	return m
}

// warmUp runs the clients briefly before the measured window, so
// lazily built state and the GC pacer are settled, then collects the
// garbage the set-up left behind.
func warmUp(b bench, d time.Duration) error {
	p, err := b.measure(min(d/10, 2*time.Second))
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if p.failed > 0 {
		return fmt.Errorf("warm-up: %s", joinErrs(p.errs))
	}
	runtime.GC()
	return nil
}

// quantile returns the q-quantile of xs (nearest rank); 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// median returns the middle value of xs, or the mean of the two middle
// values; 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// memDelta is the runtime's allocation and GC activity over a window.
type memDelta struct {
	alloc, gcs uint64
	pause      time.Duration
}

func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(a runtime.MemStats) memDelta {
	b := memNow()
	return memDelta{b.TotalAlloc - a.TotalAlloc, uint64(b.NumGC - a.NumGC), time.Duration(b.PauseTotalNs - a.PauseTotalNs)}
}

func joinErrs(errs []string) string { return strings.Join(errs, "; ") }
