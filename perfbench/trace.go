package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"gyokit/internal/engine"
	"gyokit/internal/obs"
	"gyokit/internal/program"
	"gyokit/internal/relation"
)

// perLayer lists the traced-run metrics, in the order BENCHMARK.json
// names them. A layer a workload never calls reports 0.
var perLayer = []metricDef{
	{"engine.handler_us", "us"},
	{"engine.transport_us", "us"},
	{"engine.prepare_us", "us"},
	{"engine.plan_us", "us"},
	{"engine.solve_query_us", "us"},
	{"engine.solve_us", "us"},
	{"engine.bind_us", "us"},
	{"engine.encode_us", "us"},
	{"engine.plan_cache_hit_ratio", "ratio"},
	{"engine.plan_cache_evictions_per_op", "count"},
	{"cq.parse_us", "us"},
	{"cq.compile_us", "us"},
	{"core.prepare_us", "us"},
	{"program.eval_us", "us"},
	{"program.semijoin_us", "us"},
	{"program.join_us", "us"},
	{"program.project_us", "us"},
	{"program.stmts_per_query", "count"},
	{"program.tuples_produced", "count"},
	{"program.max_intermediate", "count"},
	{"program.semijoin_keep_ratio", "ratio"},
	{"program.stmts_after_empty", "count"},
	{"relation.insert_batch_us", "us"},
	{"relation.delete_batch_us", "us"},
	{"storage.append_us", "us"},
	{"storage.append_bytes_per_batch", "bytes"},
	{"storage.checkpoint_us", "us"},
	{"storage.checkpoints", "count"},
	{"storage.compactions", "count"},
	{"storage.chunk_reuse_ratio", "ratio"},
	{"storage.write_amp", "ratio"},
	{"repl.fetch_us", "us"},
	{"repl.read_wal_us", "us"},
	{"repl.decode_us", "us"},
	{"repl.apply_us", "us"},
	{"repl.bytes_per_record", "bytes"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.gc_cycles_per_kop", "1/kop"},
	{"runtime.gc_pause_ms", "ms"},
	{"self.engine_us", "us"},
	{"self.cq_us", "us"},
	{"self.core_us", "us"},
	{"self.program_us", "us"},
	{"self.relation_us", "us"},
	{"self.storage_us", "us"},
	{"self.repl_us", "us"},
	{"trace.overhead_pct", "%"},
}

// maxSpans bounds the spans one traced pass keeps in memory.
const maxSpans = 1 << 20

// span is one timed call into a layer, made from the benchmark's side
// of the layer boundary. Spans of one replayed request share req;
// parent indexes the enclosing span (-1 for a request's root).
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"startNs"` // since the tracer started
	End    int64  `json:"endNs"`
}

// tracer records spans and counters in memory. The zero value (and a
// nil tracer) records nothing, so the same replay code serves the
// untraced pass that the tracing overhead is measured against.
type tracer struct {
	on     bool
	epoch  time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{on: true, epoch: time.Now(), counts: map[string]float64{}}
}

func (t *tracer) begin(name, layer string, req, parent int) int {
	if t == nil || !t.on || len(t.spans) >= maxSpans {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{name, layer, req, parent, now, now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	}
}

// add records a span whose extent is known only from the layer's own
// report (program statements, from program.Stats).
func (t *tracer) add(name, layer string, req, parent int, start, dur int64) int {
	if t == nil || !t.on || len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{name, layer, req, parent, start, start + dur})
	return len(t.spans) - 1
}

func (t *tracer) count(name string, v float64) {
	if t != nil && t.on {
		t.counts[name] += v
	}
}

// cache counts one plan lookup's outcome from the engine's counters.
func (t *tracer) cache(a, b engine.Stats) {
	t.count("cache.hits", float64(b.PlanHits-a.PlanHits))
	t.count("cache.misses", float64(b.PlanMisses-a.PlanMisses))
	t.count("cache.evictions", float64(b.Evictions-a.Evictions))
	t.count("cache.lookups", 1)
}

// program adds an evaluation's statements under the engine call that
// ran it (span id call): the evaluation ends when the call does, and
// its statements run back to back in plan order.
func (t *tracer) program(st *program.Stats, call, req int) {
	if t == nil || !t.on || call < 0 {
		return
	}
	end := t.spans[call].End
	ev := t.add("program.eval", "program", req, call, end-st.Elapsed.Nanoseconds(), st.Elapsed.Nanoseconds())
	at := end - st.Elapsed.Nanoseconds()
	empty := false
	for _, d := range st.Detail {
		// Statements run relation operators; their time is the
		// relation layer's, named by the program statement kind.
		t.add("program."+d.Kind.String(), "relation", req, ev, at, d.Elapsed.Nanoseconds())
		at += d.Elapsed.Nanoseconds()
		if empty {
			t.count("program.after_empty", 1)
		}
		if d.Out == 0 {
			empty = true
		}
		if d.Kind == program.Semijoin {
			t.count("program.sj_in", float64(d.InLeft))
			t.count("program.sj_out", float64(d.Out))
		}
	}
	t.count("program.evals", 1)
	t.count("program.stmts", float64(len(st.Detail)))
	t.count("program.tuples", float64(st.TuplesProduced))
	t.count("program.max_intermediate", float64(st.MaxIntermediate))
}

// sums returns per-name span totals (ns) and counts.
func (t *tracer) sums() (map[string]float64, map[string]float64) {
	tot, n := map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		tot[s.Name] += float64(s.End - s.Start)
		n[s.Name]++
	}
	return tot, n
}

// selfTimes returns, per layer, the summed span durations minus the
// parts their child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Layer] += float64(max(s.End-s.Start-child[i], 0))
	}
	return out
}

// dump writes the spans as JSON lines into the checkout's build
// directory.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// scrape reads a registry's current series.
func scrape(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil
	}
	m, err := obs.ParseText(&buf)
	if err != nil {
		return nil
	}
	return m
}

// storeCounters sums the durability counters over a workload's stores.
func storeCounters(refs []storeRef) map[string]float64 {
	out := map[string]float64{}
	for _, r := range refs {
		st := r.s.Stats()
		out["checkpoints"] += float64(st.Checkpoints)
		out["compactions"] += float64(st.Compactions)
		out["chunks_written"] += float64(st.ChunksWritten)
		out["chunks_reused"] += float64(st.ChunksReused)
		out["checkpoint_bytes"] += float64(st.CheckpointBytes)
		m := scrape(r.reg)
		out["ckpt_sec"] += m["gyo_checkpoint_seconds_sum"]
		out["ckpt_n"] += m["gyo_checkpoint_seconds_count"]
		out["wal_bytes"] += m["gyo_wal_append_bytes_sum"]
	}
	return out
}

// heapSampler tracks the peak heap object bytes until stopped.
func heapSampler() (stop func() uint64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		wg.Wait()
		return peak
	}
}

// runTraced gives the per-layer metrics: an untraced closed-loop phase
// for the runtime, storage and transport figures, then the replay
// twice — plain, then recording spans — for the layer timings and the
// tracing overhead.
func runTraced(w *workload, seed int64, d time.Duration) (*result, error) {
	b, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer b.close()
	if err := warmUp(b, d); err != nil {
		return nil, err
	}
	written := func() float64 { return 0 }
	if x, ok := b.(*ingestBench); ok {
		written = func() float64 { return float64(x.w.userValues.Load()) }
	}
	sc0, u0 := storeCounters(b.stores()), written()
	stop := heapSampler()
	ph, err := b.measure(d / 2)
	peak := stop()
	if err != nil {
		return nil, err
	}
	sc1, u1 := storeCounters(b.stores()), written()

	rate := func(tr *tracer) (float64, int, error) {
		t0 := time.Now()
		n, err := b.replay(d/4, tr)
		return float64(n) / time.Since(t0).Seconds(), n, err
	}
	plain, _, err := rate(&tracer{})
	if err != nil {
		ph.fail(fmt.Errorf("untraced replay: %w", err))
	}
	tr := newTracer()
	traced, reqs, err := rate(tr)
	if err != nil {
		ph.fail(fmt.Errorf("traced replay: %w", err))
	}
	if err := b.verify(); err != nil {
		ph.fail(err)
	}

	tot, n := tr.sums()
	meanUs := func(name string) float64 {
		if n[name] == 0 {
			return 0
		}
		return tot[name] / n[name] / 1e3
	}
	perEval := func(v float64) float64 { return v / max(tr.counts["program.evals"], 1) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var handler, handlerN, readHandler, readN float64
	for name := range tot {
		if strings.HasPrefix(name, "engine.handler.") {
			handler += tot[name]
			handlerN += n[name]
			if name == "engine.handler.query" || name == "engine.handler.solve" {
				readHandler += tot[name]
				readN += n[name]
			}
		}
	}
	m := map[string]float64{
		"engine.handler_us":                  ratio(handler, handlerN) / 1e3,
		"engine.prepare_us":                  meanUs("engine.prepare"),
		"engine.plan_us":                     meanUs("engine.plan"),
		"engine.solve_query_us":              meanUs("engine.solve_query"),
		"engine.solve_us":                    meanUs("engine.solve"),
		"engine.plan_cache_hit_ratio":        ratio(tr.counts["cache.hits"], tr.counts["cache.hits"]+tr.counts["cache.misses"]),
		"engine.plan_cache_evictions_per_op": ratio(tr.counts["cache.evictions"], tr.counts["cache.lookups"]),
		"cq.parse_us":                        meanUs("cq.parse"),
		"cq.compile_us":                      meanUs("cq.compile"),
		"core.prepare_us":                    meanUs("core.prepare"),
		"program.eval_us":                    meanUs("program.eval"),
		"program.semijoin_us":                perEval(tot["program.semijoin"]) / 1e3,
		"program.join_us":                    perEval(tot["program.join"]) / 1e3,
		"program.project_us":                 perEval(tot["program.project"]) / 1e3,
		"program.stmts_per_query":            perEval(tr.counts["program.stmts"]),
		"program.tuples_produced":            perEval(tr.counts["program.tuples"]),
		"program.max_intermediate":           perEval(tr.counts["program.max_intermediate"]),
		"program.semijoin_keep_ratio":        ratio(tr.counts["program.sj_out"], tr.counts["program.sj_in"]),
		"program.stmts_after_empty":          perEval(tr.counts["program.after_empty"]),
		"relation.insert_batch_us":           meanUs("relation.insert_batch"),
		"relation.delete_batch_us":           meanUs("relation.delete_batch"),
		"storage.append_us":                  meanUs("storage.append"),
		"storage.append_bytes_per_batch":     ratio(tr.counts["storage.append_bytes"], n["storage.append"]),
		"storage.checkpoint_us":              ratio(sc1["ckpt_sec"]-sc0["ckpt_sec"], sc1["ckpt_n"]-sc0["ckpt_n"]) * 1e6,
		"storage.checkpoints":                sc1["checkpoints"] - sc0["checkpoints"],
		"storage.compactions":                sc1["compactions"] - sc0["compactions"],
		"storage.chunk_reuse_ratio": ratio(sc1["chunks_reused"]-sc0["chunks_reused"],
			sc1["chunks_reused"]-sc0["chunks_reused"]+sc1["chunks_written"]-sc0["chunks_written"]),
		"storage.write_amp": ratio(sc1["wal_bytes"]-sc0["wal_bytes"]+sc1["checkpoint_bytes"]-sc0["checkpoint_bytes"],
			(u1-u0)*relation.ValueBytes),
		"repl.fetch_us":             meanUs("repl.fetch"),
		"repl.read_wal_us":          meanUs("repl.read_wal"),
		"repl.decode_us":            meanUs("repl.decode"),
		"repl.apply_us":             meanUs("repl.apply"),
		"repl.bytes_per_record":     ratio(tr.counts["repl.bytes"], tr.counts["repl.records"]),
		"runtime.heap_peak_mb":      float64(peak) / 1e6,
		"runtime.gc_cycles_per_kop": float64(ph.mem.gcs) / float64(ph.ops()) * 1e3,
		"runtime.gc_pause_ms":       float64(ph.mem.pause.Nanoseconds()) / 1e6,
		"trace.overhead_pct":        (ratio(plain, traced) - 1) * 100,
	}
	if readN > 0 {
		m["engine.transport_us"] = mean(ph.reads())*1e3 - readHandler/readN/1e3
	}
	if n["engine.solve_query"] > 0 {
		m["engine.bind_us"] = (tot["engine.solve_query"] - evalUnder(tr, "engine.solve_query")) / n["engine.solve_query"] / 1e3
		if q := n["engine.handler.query"]; q > 0 {
			m["engine.encode_us"] = tot["engine.handler.query"]/q/1e3 - m["engine.prepare_us"] - m["engine.solve_query_us"]
		}
	}
	for layer, ns := range tr.selfTimes() {
		m["self."+layer+"_us"] = ns / float64(max(reqs, 1)) / 1e3
	}

	path := fmt.Sprintf(".bench_build/perfbench-spans-%s-%d.jsonl", w.name, seed)
	if err := tr.dump(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	ph.report(w.name + " (untraced phase)")
	fmt.Printf("replay: %d requests traced, %.1f/s untraced vs %.1f/s traced; %d spans in %s\n",
		reqs, plain, traced, len(tr.spans), path)
	for _, d := range perLayer {
		fmt.Printf("%-36s %14.4f %s\n", d.name, m[d.name], d.unit)
	}
	return ph.result(perLayer, m), nil
}

// evalUnder sums the program.eval time of evaluations run by the named
// engine call.
func evalUnder(t *tracer, call string) float64 {
	s := 0.0
	for _, sp := range t.spans {
		if sp.Name == "program.eval" && sp.Parent >= 0 && t.spans[sp.Parent].Name == call {
			s += float64(sp.End - sp.Start)
		}
	}
	return s
}
