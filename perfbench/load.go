package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"gyokit/internal/engine"
)

type opKind int

const (
	opQuery opKind = iota
	opSolve
	opInsert
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"query", "solve", "insert", "delete"}

// op is one client request. check verifies the decoded reply; it runs
// after the latency clock stops.
type op struct {
	kind  opKind
	url   string
	body  []byte
	check func(r *reply) error
}

// reply holds the response fields the checks read; tuples are parsed
// and dropped, which is what any client pays to read an answer.
type reply struct {
	Card    int `json:"card"`
	Applied int `json:"applied"`
	Error   *struct {
		Message string `json:"message"`
	} `json:"error"`
}

// phase is what the clients of one measured window completed.
type phase struct {
	lat       [numKinds][]float64 // ms, successful ops only
	attempted int
	failed    int
	errs      []string // the first few failures, for the report
	elapsed   time.Duration
	mem       memDelta
	extra     map[string]metric // workload-specific figures for the report
}

func (p *phase) ops() int {
	n := 0
	for _, l := range p.lat {
		n += len(l)
	}
	return max(n, 1)
}

func (p *phase) reads() []float64 {
	return append(append([]float64(nil), p.lat[opQuery]...), p.lat[opSolve]...)
}

func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

func (p *phase) merge(q *phase) {
	for k := range p.lat {
		p.lat[k] = append(p.lat[k], q.lat[k]...)
	}
	p.attempted += q.attempted
	p.failed += q.failed
	for _, e := range q.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
}

// report prints every end-to-end figure of the window, including the
// per-op-kind ones the gated metric set cannot carry for every
// workload, and the failures.
func (p *phase) report(workload string) {
	fmt.Printf("workload %s: %d ops attempted, %d failed, %.2fs\n", workload, p.attempted, p.failed, p.elapsed.Seconds())
	for k, l := range p.lat {
		if len(l) == 0 {
			continue
		}
		fmt.Printf("%-24s %12.4f ms   (n=%d)\n", kindNames[k]+"_p50_ms", quantile(l, 0.5), len(l))
		fmt.Printf("%-24s %12.4f ms\n", kindNames[k]+"_p99_ms", quantile(l, 0.99))
	}
	fmt.Printf("%-24s %12.6f\n", "error_rate", float64(p.failed)/float64(max(p.attempted, 1)))
	for name, m := range p.extra {
		fmt.Printf("%-24s %12.4f %s\n", name, m.Value, m.Unit)
	}
	for _, e := range p.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", e)
	}
}

func (p *phase) result(defs []metricDef, vals map[string]float64) *result {
	r := &result{Correct: p.failed == 0, Attempted: max(p.attempted, 1), Failed: p.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		r.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	return r
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxClients + 2, DisableCompression: true}}
}

// do sends one op and decodes the reply.
func do(hc *http.Client, o op) (*reply, error) {
	resp, err := hc.Post(o.url, "application/json", bytes.NewReader(o.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var r reply
	err = json.NewDecoder(resp.Body).Decode(&r)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	if err != nil {
		return nil, fmt.Errorf("%s %s: decoding reply: %w", kindNames[o.kind], o.url, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := resp.Status
		if r.Error != nil {
			msg += ": " + r.Error.Message
		}
		return nil, fmt.Errorf("%s: %s", kindNames[o.kind], msg)
	}
	return &r, nil
}

// runOne times one op into p.
func runOne(hc *http.Client, o op, p *phase) {
	p.attempted++
	t0 := time.Now()
	r, err := do(hc, o)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err == nil && o.check != nil {
		err = o.check(r)
	}
	if err != nil {
		p.fail(err)
		return
	}
	p.lat[o.kind] = append(p.lat[o.kind], ms)
}

// closedLoop runs one goroutine per source until the deadline; each
// sends its next op only after the previous one completed.
func closedLoop(hc *http.Client, until time.Time, sources ...func() op) *phase {
	parts := make([]*phase, len(sources))
	var wg sync.WaitGroup
	for i, next := range sources {
		parts[i] = &phase{}
		wg.Add(1)
		go func(p *phase, next func() op) {
			defer wg.Done()
			for time.Now().Before(until) {
				runOne(hc, next(), p)
			}
		}(parts[i], next)
	}
	wg.Wait()
	out := &phase{}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// timed wraps a closed-loop window with wall time and runtime deltas.
func timed(run func() *phase) *phase {
	m0 := memNow()
	t0 := time.Now()
	p := run()
	p.elapsed = time.Since(t0)
	p.mem = memSince(m0)
	return p
}

// newServer builds the gyod API handler over e with the request rails
// gyod serves with by default.
func newServer(e *engine.Engine) http.Handler {
	db := e.Snapshot()
	s := engine.NewServer(e, db.D.U, db.D)
	s.Gas = 1000000
	s.QueryTimeout = 10 * time.Second
	return s.Handler()
}

// inProcess replays one request through h without a network hop.
func inProcess(h http.Handler, path string, body []byte) (*reply, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var r reply
	if err := json.NewDecoder(rec.Body).Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: decoding reply: %w", path, err)
	}
	if rec.Code != http.StatusOK {
		msg := http.StatusText(rec.Code)
		if r.Error != nil {
			msg += ": " + r.Error.Message
		}
		return nil, fmt.Errorf("%s: %s", path, msg)
	}
	return &r, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and ints are marshalled
	}
	return b
}

func cardIs(want int) func(*reply) error {
	return func(r *reply) error {
		if r.Card != want {
			return fmt.Errorf("card %d, reference %d", r.Card, want)
		}
		return nil
	}
}
