package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gyokit/internal/engine"
	"gyokit/internal/obs"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
	"gyokit/internal/storage"
)

// The write workload serves "ab, bc, cd". ab is a sliding window of
// rows (r, bOf(r)) with r the row number: the writer appends
// insertBatch-row batches and, after every deleteEvery of them,
// deletes the deleteBatch oldest rows, so ab stays between the window
// size and that plus deleteBatch rows. bc holds (b, b) for the b values in a
// seeded half of [0, domain) and cd holds (c, c) for every c, so the
// reader's answers count the window rows whose b is in that half —
// a number the benchmark knows for every published state.
const (
	writeSchema  = "ab, bc, cd"
	ingestWindow = 64 << 10
	ingestDomain = 50000
	insertBatch  = 128
	deleteBatch  = 1024
	deleteEvery  = deleteBatch / insertBatch
	readerQuery  = "ans(A, C) :- ab(A, B), bc(B, C)."
	readerX      = "ac"
)

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// writer is the deterministic write sequence and the answer every
// state along it must give. Op k (0-based) is the delete of the
// oldest deleteBatch rows when k%(deleteEvery+1) == deleteEvery, else
// the next insert batch.
type writer struct {
	seed   uint64
	ab     int // relation index of ab in the serving schema
	window int // rows in ab at the start
	domain int // b values are drawn from [0, domain)

	mu    sync.Mutex
	cards []int // cards[k]: the reader answer after k ops; one ahead of sent ops
	lo    int   // oldest row in the window after the last op handed out
	hi    int   // one past the newest row

	done       atomic.Int64 // ops acknowledged
	userValues atomic.Int64 // tuple values the ops carried, for write amplification
}

func newWriter(seed int64, ab, window, domain int) *writer {
	w := &writer{seed: uint64(seed), ab: ab, window: window, domain: domain, hi: window}
	n := 0
	for r := 0; r < window; r++ {
		if w.match(r) {
			n++
		}
	}
	w.cards = []int{n}
	return w
}

func (w *writer) bOf(r int) int { return int(splitmix(w.seed^0xab<<40^uint64(r)) % uint64(w.domain)) }
func (w *writer) inS(b int) bool {
	return splitmix(w.seed^0xbc<<40^uint64(b))&1 == 0
}
func (w *writer) match(r int) bool { return w.inS(w.bOf(r)) }

func (w *writer) rows(lo, hi int) []relation.Tuple {
	ts := make([]relation.Tuple, 0, hi-lo)
	for r := lo; r < hi; r++ {
		ts = append(ts, relation.Tuple{relation.Value(r), relation.Value(w.bOf(r))})
	}
	return ts
}

// writeOp is one step of the sequence, ready to send.
type writeOp struct {
	kind    opKind
	tuples  []relation.Tuple
	body    []byte
	card    int // ab's cardinality once applied
	applied int
}

// next hands out the next op and records the answer after it.
func (w *writer) next() writeOp {
	w.mu.Lock()
	defer w.mu.Unlock()
	k := len(w.cards) - 1
	o := writeOp{kind: opInsert}
	n := w.cards[k]
	if k%(deleteEvery+1) == deleteEvery {
		o.kind = opDelete
		o.tuples = w.rows(w.lo, w.lo+deleteBatch)
		for r := w.lo; r < w.lo+deleteBatch; r++ {
			if w.match(r) {
				n--
			}
		}
		w.lo += deleteBatch
	} else {
		o.tuples = w.rows(w.hi, w.hi+insertBatch)
		for r := w.hi; r < w.hi+insertBatch; r++ {
			if w.match(r) {
				n++
			}
		}
		w.hi += insertBatch
	}
	w.cards = append(w.cards, n)
	o.applied = len(o.tuples)
	o.card = w.hi - w.lo
	o.body = mustJSON(map[string]any{"rel": "ab", "tuples": o.tuples})
	w.userValues.Add(int64(2 * len(o.tuples)))
	return o
}

func (w *writer) mutation(o writeOp) storage.Mutation {
	if o.kind == opDelete {
		return storage.Delete(w.ab, 2, o.tuples)
	}
	return storage.Insert(w.ab, 2, o.tuples)
}

// httpOp wraps a write op for a client, acknowledging it on success.
func (w *writer) httpOp(base string, o writeOp) op {
	path := "/v1/insert"
	if o.kind == opDelete {
		path = "/v1/delete"
	}
	return op{kind: o.kind, url: base + path, body: o.body, check: func(r *reply) error {
		if r.Applied != o.applied || r.Card != o.card {
			return fmt.Errorf("%s: applied %d card %d, want %d and %d", kindNames[o.kind], r.Applied, r.Card, o.applied, o.card)
		}
		w.done.Add(1)
		return nil
	}}
}

// readCheck accepts an answer that some state published while the
// read was in flight must give: at least the ops acknowledged before
// it was sent (from) and at most those handed out after it returned.
func (w *writer) readCheck(from int) func(*reply) error {
	return func(r *reply) error {
		w.mu.Lock()
		defer w.mu.Unlock()
		for k := from; k < len(w.cards); k++ {
			if w.cards[k] == r.Card {
				return nil
			}
		}
		return fmt.Errorf("read card %d matches no state after op %d (of %d)", r.Card, from, len(w.cards)-1)
	}
}

// readOp builds the i-th reader request: three queries, then a solve.
// An even mix would put the read median between the two requests'
// latency clusters, where it jumps from run to run.
func (w *writer) readOp(base string, i int, from int) op {
	if i%4 != 3 {
		return op{kind: opQuery, url: base + "/v1/query", body: mustJSON(map[string]string{"query": readerQuery}), check: w.readCheck(from)}
	}
	return op{kind: opSolve, url: base + "/v1/solve", body: mustJSON(map[string]string{"x": readerX}), check: w.readCheck(from)}
}

// window returns the relation ab must hold after the acknowledged ops.
func (w *writer) windowRel(u *schema.Universe, set schema.AttrSet) *relation.Relation {
	w.mu.Lock()
	lo, hi := w.lo, w.hi
	w.mu.Unlock()
	r := relation.NewSized(u, set, hi-lo)
	for _, t := range w.rows(lo, hi) {
		r.Insert(t)
	}
	return r
}

// seedBatch is the initial state as one atomic batch: the relations,
// the first window of ab, bc over the matching half and cd.
func (w *writer) seedBatch() ([]storage.Mutation, error) {
	u := schema.NewUniverse()
	d, err := schema.Parse(u, writeSchema)
	if err != nil {
		return nil, err
	}
	batch := storage.CreatesFor(d)
	batch = append(batch, storage.Insert(0, 2, w.rows(0, w.window)))
	var bc, cd []relation.Tuple
	for v := 0; v < w.domain; v++ {
		if w.inS(v) {
			bc = append(bc, relation.Tuple{relation.Value(v), relation.Value(v)})
		}
		cd = append(cd, relation.Tuple{relation.Value(v), relation.Value(v)})
	}
	return append(batch, storage.Insert(1, 2, bc), storage.Insert(2, 2, cd)), nil
}

// storeRef is a durable store with the registry its metrics land in.
type storeRef struct {
	s   *storage.Store
	reg *obs.Registry
}

// node is one durable gyod: store, engine and loopback listener.
type node struct {
	dir   string
	store *storage.Store
	reg   *obs.Registry
	e     *engine.Engine
	h     http.Handler
	ts    *httptest.Server
	opts  storage.Options
}

// scratchDir makes a fresh directory under the checkout's build
// directory; the benchmark writes nowhere else.
func scratchDir(prefix string) (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "perfbench-"+prefix+"-")
}

// openNode opens the store in dir under an engine; the WAL is not
// fsynced, the same on both sides of any comparison.
func openNode(dir string, opts storage.Options) (*node, error) {
	n := &node{dir: dir, reg: obs.NewRegistry()}
	opts.NoSync = true
	opts.Metrics = n.reg
	n.opts = opts
	var err error
	if n.store, err = storage.Open(dir, opts); err != nil {
		return nil, err
	}
	n.e = engine.New(engine.Options{Store: n.store, Metrics: n.reg})
	return n, nil
}

func (n *node) serve(extra func(*http.ServeMux)) {
	n.h = newServer(n.e)
	h := n.h
	if extra != nil {
		mux := http.NewServeMux()
		extra(mux)
		mux.Handle("/", n.h)
		h = mux
	}
	n.ts = httptest.NewServer(h)
}

func (n *node) close() {
	if n.ts != nil {
		n.ts.Close()
	}
	if n.store != nil {
		_ = n.e.Checkpoint() // waits for any background checkpoint before the store closes
		_ = n.store.Close()  // the directory is deleted next
	}
	_ = os.RemoveAll(n.dir)
}

// reopen shuts the node down the way gyod does (final checkpoint, WAL
// close), opens the directory again and returns the recovered state.
func (n *node) reopen() (*relation.Database, error) {
	n.ts.Close()
	n.ts = nil
	if err := n.e.Checkpoint(); err != nil {
		return nil, fmt.Errorf("final checkpoint: %w", err)
	}
	if err := n.store.Close(); err != nil {
		return nil, fmt.Errorf("closing store: %w", err)
	}
	n.store = nil
	opts := n.opts
	opts.Metrics = nil
	s, err := storage.Open(n.dir, opts)
	if err != nil {
		return nil, fmt.Errorf("reopening store: %w", err)
	}
	db := s.State()
	return db, s.Close()
}

func sameDatabase(a, b *relation.Database) error {
	if len(a.Rels) != len(b.Rels) {
		return fmt.Errorf("%d relations, want %d", len(a.Rels), len(b.Rels))
	}
	for i := range a.Rels {
		if !a.Rels[i].Equal(b.Rels[i]) {
			return fmt.Errorf("relation %s differs (%d vs %d tuples)", a.D.U.FormatSet(a.D.Rels[i]), a.Rels[i].Card(), b.Rels[i].Card())
		}
	}
	return nil
}

type ingestBench struct {
	n  *node
	w  *writer
	hc *http.Client
	rd int // reader requests sent
	rp *writeReplay
	rs *replicas // the traced pass's replication pair
}

func setupIngest(seed int64) (bench, error) {
	dir, err := scratchDir("ingest")
	if err != nil {
		return nil, err
	}
	n, err := openNode(dir, storage.Options{})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	b := &ingestBench{n: n, w: newWriter(seed, 0, ingestWindow, ingestDomain), hc: newClient()}
	if err := seedNode(n, b.w); err != nil {
		b.close()
		return nil, err
	}
	n.serve(nil)
	// Warm-up: a few reads so connections are open and plans cached.
	warm := &phase{}
	for i := 0; i < 4; i++ {
		runOne(b.hc, b.w.readOp(n.ts.URL, i, 0), warm)
	}
	if warm.failed > 0 {
		b.close()
		return nil, fmt.Errorf("warm-up: %s", joinErrs(warm.errs))
	}
	return b, nil
}

func seedNode(n *node, w *writer) error {
	batch, err := w.seedBatch()
	if err != nil {
		return err
	}
	_, _, err = n.e.Apply(batch...)
	return err
}

func (b *ingestBench) measure(d time.Duration) (*phase, error) {
	base := b.n.ts.URL
	writerSrc := func() op { return b.w.httpOp(base, b.w.next()) }
	readerSrc := func() op {
		o := b.w.readOp(base, b.rd, int(b.w.done.Load()))
		b.rd++
		return o
	}
	return timed(func() *phase { return closedLoop(b.hc, time.Now().Add(d), writerSrc, readerSrc) }), nil
}

func (b *ingestBench) replay(d time.Duration, tr *tracer) (int, error) {
	if b.rp == nil {
		var err error
		if b.rp, err = newWriteReplay(b.n); err != nil {
			return 0, err
		}
		if b.rs, err = newReplicas(b.rp.db, newClient()); err != nil {
			return 0, err
		}
	}
	return b.rp.run(d, tr, b.w, b.rs.write)
}

func (b *ingestBench) stores() []storeRef { return []storeRef{{b.n.store, b.n.reg}} }

// verify restarts the store and checks that recovery gives back the
// last published snapshot, with ab holding exactly the window.
func (b *ingestBench) verify() error {
	if b.rs != nil {
		if err := b.rs.verify(); err != nil {
			return err
		}
	}
	want := b.n.e.Snapshot()
	got, err := b.n.reopen()
	if err != nil {
		return err
	}
	if err := sameDatabase(got, want); err != nil {
		return fmt.Errorf("recovered state: %w", err)
	}
	ab := got.Rels[b.w.ab]
	if !ab.Equal(b.w.windowRel(got.D.U, got.D.Rels[b.w.ab])) {
		return fmt.Errorf("recovered ab (%d tuples) is not the window", ab.Card())
	}
	return nil
}

func (b *ingestBench) close() {
	b.hc.CloseIdleConnections()
	b.n.close()
	if b.rp != nil {
		b.rp.close()
	}
	if b.rs != nil {
		b.rs.close()
	}
}

// writeReplay re-issues write ops for the per-layer pass: through the
// handler, then Mutation.Apply on a private copy of the snapshot and
// Store.Append on a replay store with the same options. Every
// readEvery-th request is a read instead.
type writeReplay struct {
	n     *node
	db    *relation.Database
	dir   string
	store *storage.Store
	re    *engine.Engine
	reads int
}

const readEvery = 10

func newWriteReplay(n *node) (*writeReplay, error) {
	dir, err := scratchDir("replay")
	if err != nil {
		return nil, err
	}
	opts := n.opts
	opts.Metrics = nil
	s, err := storage.Open(dir, opts)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	return &writeReplay{n: n, db: n.e.Snapshot(), dir: dir, store: s, re: engine.New(engine.Options{})}, nil
}

func (rp *writeReplay) close() {
	_ = rp.store.Close() // the directory is deleted next
	_ = os.RemoveAll(rp.dir)
}

// run replays for d; each write is also handed to replicate.
func (rp *writeReplay) run(d time.Duration, tr *tracer, w *writer, replicate func(tr *tracer, req, parent int, m storage.Mutation) error) (int, error) {
	n := 0
	for until := time.Now().Add(d); time.Now().Before(until); n++ {
		if n%readEvery == readEvery-1 {
			rp.re.Swap(rp.n.e.Snapshot())
			rq := rp.readRequest(w)
			if err := replayRead(tr, n, rp.n.h, rp.re, rp.n.e.Snapshot().D, rq); err != nil {
				return n, err
			}
			continue
		}
		if err := rp.write(tr, n, w, replicate); err != nil {
			return n, err
		}
	}
	return n, nil
}

func (rp *writeReplay) readRequest(w *writer) *request {
	w.mu.Lock()
	want := w.cards[len(w.cards)-1]
	w.mu.Unlock()
	rp.reads++
	if rp.reads%4 != 0 {
		rq := queryRequest(readerQuery, want)
		return &rq
	}
	xs, _ := attrSet(rp.n.e.Snapshot().D.U, readerX)
	return &request{kind: opSolve, xs: xs, body: mustJSON(map[string]string{"x": readerX}), want: want}
}

func (rp *writeReplay) write(tr *tracer, req int, w *writer, replicate func(tr *tracer, req, parent int, m storage.Mutation) error) error {
	root := tr.begin("request", "bench", req, -1)
	defer tr.end(root)
	o := w.next()
	path := "/v1/insert"
	if o.kind == opDelete {
		path = "/v1/delete"
	}
	s := tr.begin("engine.handler."+kindNames[o.kind], "handler", req, root)
	r, err := inProcess(rp.n.h, path, o.body)
	tr.end(s)
	if err == nil {
		err = w.httpOp("", o).check(r)
	}
	if err != nil {
		return err
	}
	m := w.mutation(o)
	s = tr.begin("relation."+kindNames[o.kind]+"_batch", "relation", req, root)
	next, _, err := m.Apply(rp.db)
	tr.end(s)
	if err != nil {
		return err
	}
	next.Freeze() // as the engine publishes it, so the next batch shares its chunks
	rp.db = next
	wal := rp.store.Stats().WALBytes
	s = tr.begin("storage.append", "storage", req, root)
	err = rp.store.Append([]storage.Mutation{m})
	tr.end(s)
	if err != nil {
		return err
	}
	tr.count("storage.append_bytes", float64(rp.store.Stats().WALBytes-wal))
	return replicate(tr, req, root, m)
}
