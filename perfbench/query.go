package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"gyokit/internal/core"
	"gyokit/internal/cq"
	"gyokit/internal/engine"
	"gyokit/internal/program"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// servingSchema is a 5-cycle (ab … ea) plus a pendant path (af, fg):
// cyclic as a whole, so /v1/solve takes the §4 cyclic strategy, while
// most queries over it are acyclic.
const servingSchema = "ab, bc, cd, de, ea, af, fg"

// Workload sizes. query-plan cycles four times as many distinct texts
// as the engine's default plan cache holds, so nearly every request
// misses; query-eval repeats a handful, so every request hits.
const (
	evalRows    = 50000
	evalDomain  = 50000
	planRows    = 200
	planDomain  = 200
	planPool    = 4 * engine.DefaultPlanCacheSize
	hitRatioMin = 0.99
	hitRatioMax = 0.1
)

type atom struct {
	pred string // stored relation, one rune per attribute
	vars []string
}

type cqDef struct {
	head []string
	body []atom
}

// evalSolves are the /v1/solve targets in the query-eval pool, beside
// the six queries.
var evalSolves = []string{"ag", "bf"}

// queryMix is the fixed conjunctive-query mix: a 4-atom chain, two
// free-connex queries, a 4-atom acyclic (not free-connex) query, the
// 5-cycle (empty by construction of the data) and a 4-cycle built
// from self-joins.
var queryMix = []cqDef{
	{[]string{"A", "E"}, []atom{{"ab", []string{"A", "B"}}, {"bc", []string{"B", "C"}}, {"cd", []string{"C", "D"}}, {"de", []string{"D", "E"}}}},                        // chain4
	{[]string{"A", "B", "C"}, []atom{{"ab", []string{"A", "B"}}, {"bc", []string{"B", "C"}}, {"cd", []string{"C", "D"}}}},                                               // freeconnex3
	{[]string{"B", "F"}, []atom{{"ab", []string{"A", "B"}}, {"af", []string{"A", "F"}}, {"fg", []string{"F", "G"}}, {"ea", []string{"E", "A"}}}},                        // acyclic4
	{[]string{"A"}, []atom{{"ab", []string{"A", "B"}}, {"bc", []string{"B", "C"}}, {"cd", []string{"C", "D"}}, {"de", []string{"D", "E"}}, {"ea", []string{"E", "A"}}}}, // cycle5
	{[]string{"A", "C"}, []atom{{"ab", []string{"A", "B"}}, {"bc", []string{"B", "C"}}, {"ab", []string{"A", "X"}}, {"bc", []string{"X", "C"}}}},                        // selfjoin4
	{[]string{"A", "F", "G"}, []atom{{"af", []string{"A", "F"}}, {"fg", []string{"F", "G"}}, {"ab", []string{"A", "B"}}}},                                               // freeconnexfg
}

// text renders q with every variable suffixed, so one template yields
// many distinct query texts (and plan-cache keys) with one answer.
func (q cqDef) text(suffix string) string {
	v := func(names []string) string {
		out := make([]string, len(names))
		for i, n := range names {
			out[i] = n + suffix
		}
		return strings.Join(out, ", ")
	}
	body := make([]string, len(q.body))
	for i, a := range q.body {
		body[i] = a.pred + "(" + v(a.vars) + ")"
	}
	return "ans(" + v(q.head) + ") :- " + strings.Join(body, ", ") + "."
}

// genDatabase draws every relation of the serving schema independently
// (rows uniform pairs over [0, domain)), then deletes the few ea tuples
// that close a 5-cycle so the cycle query's answer is empty.
func genDatabase(rows, domain int, seed int64) (*relation.Database, error) {
	u := schema.NewUniverse()
	d, err := schema.Parse(u, servingSchema)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	db := &relation.Database{D: d}
	for _, set := range d.Rels {
		r := relation.NewSized(u, set, rows)
		block := make([]relation.Value, rows*set.Card())
		for i := range block {
			block[i] = relation.Value(rng.Intn(domain))
		}
		r.InsertBlock(block)
		db.Rels = append(db.Rels, r)
	}
	ea := relIndex(db, "ea")
	cycle := relation.JoinAll(db.Rels[:5]).Project(d.Rels[ea])
	db.Rels[ea], _ = db.Rels[ea].Without(cycle.Tuples())
	return db, nil
}

// relIndex finds the stored relation over the attributes named by
// pred, one rune per attribute.
func relIndex(db *relation.Database, pred string) int {
	set, ok := attrSet(db.D.U, pred)
	if ok {
		for i, r := range db.D.Rels {
			if r.Equal(set) {
				return i
			}
		}
	}
	panic(fmt.Sprintf("perfbench: relation %q not in %s", pred, db.D))
}

func attrSet(u *schema.Universe, pred string) (schema.AttrSet, bool) {
	var set schema.AttrSet
	for _, ch := range pred {
		id, ok := u.Lookup(string(ch))
		if !ok {
			return set, false
		}
		set = set.Add(id)
	}
	return set, true
}

// referenceCard answers q without the query compiler: each atom's
// stored relation is renamed onto the query's variables, and the
// answer is relation.JoinAll of those followed by a projection.
func referenceCard(db *relation.Database, q cqDef) int {
	vu := schema.NewUniverse()
	rels := make([]*relation.Relation, len(q.body))
	for i, at := range q.body {
		stored := db.Rels[relIndex(db, at.pred)]
		scols := stored.Cols()
		var vset schema.AttrSet
		vids := make([]schema.Attr, len(at.vars))
		for p, name := range at.vars {
			vids[p] = vu.Attr(name)
			vset = vset.Add(vids[p])
		}
		src := make([]int, len(at.vars))
		for k, v := range vset.Attrs() {
			p := indexOf(vids, v)
			sa, _ := db.D.U.Lookup(string([]rune(at.pred)[p]))
			src[k] = indexOf(scols, sa)
		}
		rels[i] = stored.Renamed(vu, vset, src)
	}
	var head schema.AttrSet
	for _, h := range q.head {
		head = head.Add(vu.Attr(h))
	}
	return relation.JoinAll(rels).Project(head).Card()
}

func indexOf(list []schema.Attr, a schema.Attr) int {
	for i, x := range list {
		if x == a {
			return i
		}
	}
	panic("perfbench: attribute not in list")
}

// request is one read of a query workload's pool.
type request struct {
	kind opKind
	text string         // opQuery: query text
	xs   schema.AttrSet // opSolve: target over the serving universe
	body []byte
	want int
}

type queryBench struct {
	e    *engine.Engine
	h    http.Handler
	ts   *httptest.Server
	hc   *http.Client
	pool []request
	next atomic.Int64 // next pool position; the clients take turns
	// replay state: a second engine over the same snapshot, so direct
	// layer calls see the plan cache the way the handler's engine does.
	re   *engine.Engine
	rpos int
	// minHits/maxHits bound the measured plan-cache hit ratio: the
	// input property that tells query-eval and query-plan apart.
	minHits, maxHits float64
}

func setupQueryEval(seed int64) (bench, error) {
	db, err := genDatabase(evalRows, evalDomain, seed)
	if err != nil {
		return nil, err
	}
	var pool []request
	for _, q := range queryMix {
		pool = append(pool, queryRequest(q.text(""), referenceCard(db, q)))
	}
	for _, x := range evalSolves {
		pool = append(pool, solveRequest(db, x))
	}
	return newQueryBench(db, pool, seed, hitRatioMin, 1)
}

func setupQueryPlan(seed int64) (bench, error) {
	db, err := genDatabase(planRows, planDomain, seed)
	if err != nil {
		return nil, err
	}
	cards := make([]int, len(queryMix))
	for i, q := range queryMix {
		cards[i] = referenceCard(db, q)
	}
	var pool []request
	for i := 0; i < planPool; i++ {
		q := i % len(queryMix)
		pool = append(pool, queryRequest(queryMix[q].text(fmt.Sprint(i/len(queryMix))), cards[q]))
	}
	// Every non-empty target over the seven attributes: each one's
	// plan is evicted long before the rotation returns to it.
	names := "abcdefg"
	for mask := 1; mask < 1<<len(names); mask++ {
		x := ""
		for i := range names {
			if mask&(1<<i) != 0 {
				x += names[i : i+1]
			}
		}
		pool = append(pool, solveRequest(db, x))
	}
	return newQueryBench(db, pool, seed, 0, hitRatioMax)
}

func queryRequest(text string, want int) request {
	return request{kind: opQuery, text: text, body: mustJSON(map[string]string{"query": text}), want: want}
}

func solveRequest(db *relation.Database, x string) request {
	xs, _ := attrSet(db.D.U, x)
	return request{kind: opSolve, xs: xs, body: mustJSON(map[string]string{"x": x}),
		want: relation.JoinAll(db.Rels).Project(xs).Card()}
}

func newQueryBench(db *relation.Database, pool []request, seed int64, minHits, maxHits float64) (*queryBench, error) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	b := &queryBench{e: engine.New(engine.Options{}), re: engine.New(engine.Options{}), pool: pool, hc: newClient(), minHits: minHits, maxHits: maxHits}
	b.e.Swap(db)
	b.re.Swap(db)
	b.h = newServer(b.e)
	b.ts = httptest.NewServer(b.h)
	// Warm-up: one pass over the pool through HTTP, so every plan that
	// can stay cached is cached and the connections are open.
	warm := &phase{}
	for i := range pool {
		runOne(b.hc, b.op(i), warm)
	}
	if warm.failed > 0 {
		b.close()
		return nil, fmt.Errorf("warm-up: %s", joinErrs(warm.errs))
	}
	return b, nil
}

func (b *queryBench) op(i int) op {
	rq := &b.pool[i%len(b.pool)]
	path := "/v1/query"
	if rq.kind == opSolve {
		path = "/v1/solve"
	}
	return op{kind: rq.kind, url: b.ts.URL + path, body: rq.body, check: func(r *reply) error {
		if err := cardIs(rq.want)(r); err != nil {
			return fmt.Errorf("%s: %w", rq.body, err)
		}
		return nil
	}}
}

func (b *queryBench) measure(d time.Duration) (*phase, error) {
	st0 := b.e.Stats()
	// Both clients draw from one cycle over the pool, so a request comes
	// back only after the whole pool has been sent, however the clients'
	// speeds drift apart.
	sources := make([]func() op, maxClients)
	for c := range sources {
		sources[c] = func() op { return b.op(int(b.next.Add(1) - 1)) }
	}
	p := timed(func() *phase { return closedLoop(b.hc, time.Now().Add(d), sources...) })
	st1 := b.e.Stats()
	ratio := hitRatio(st0, st1)
	p.extra = map[string]metric{"plan_cache_hit_ratio": {ratio, "ratio"}}
	if ratio < b.minHits || ratio > b.maxHits {
		p.fail(fmt.Errorf("plan-cache hit ratio %.3f outside [%.2f, %.2f]: the workload no longer tests what it is named for", ratio, b.minHits, b.maxHits))
	}
	return p, nil
}

func hitRatio(a, b engine.Stats) float64 {
	h, m := float64(b.PlanHits-a.PlanHits), float64(b.PlanMisses-a.PlanMisses)
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// replay re-issues the seeded request cycle from its start: each
// request once through the handler, then once more through the layers'
// public functions on the replay engine.
func (b *queryBench) replay(d time.Duration, tr *tracer) (int, error) {
	n := 0
	for until := time.Now().Add(d); time.Now().Before(until); n++ {
		rq := &b.pool[b.rpos%len(b.pool)]
		b.rpos++
		if err := replayRead(tr, n, b.h, b.re, b.e.Snapshot().D, rq); err != nil {
			return n, err
		}
	}
	return n, nil
}

// replayRead runs one read through the handler and then through the
// layers directly, checking both answers.
func replayRead(tr *tracer, req int, h http.Handler, re *engine.Engine, d *schema.Schema, rq *request) error {
	root := tr.begin("request", "bench", req, -1)
	defer tr.end(root)
	path := "/v1/query"
	if rq.kind == opSolve {
		path = "/v1/solve"
	}
	s := tr.begin("engine.handler."+kindNames[rq.kind], "handler", req, root)
	r, err := inProcess(h, path, rq.body)
	tr.end(s)
	if err == nil {
		err = cardIs(rq.want)(r)
	}
	if err != nil {
		return err
	}
	var out *relation.Relation
	var st *program.Stats
	var ev int
	if rq.kind == opQuery {
		s = tr.begin("cq.parse", "cq", req, root)
		q, err := cq.Parse(rq.text)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("cq.compile", "cq", req, root)
		_, err = q.Compile()
		tr.end(s)
		if err != nil {
			return err
		}
		st0 := re.Stats()
		s = tr.begin("engine.prepare", "engine", req, root)
		pl, err := re.PrepareQuery(rq.text)
		tr.end(s)
		tr.cache(st0, re.Stats())
		if err != nil {
			return err
		}
		ev = tr.begin("engine.solve_query", "engine", req, root)
		out, st, err = re.SolveQuery(pl, 1, program.Limits{})
		tr.end(ev)
		if err != nil {
			return err
		}
	} else {
		s = tr.begin("core.prepare", "core", req, root)
		_, _, err := core.Prepare(d, rq.xs)
		tr.end(s)
		if err != nil {
			return err
		}
		st0 := re.Stats()
		s = tr.begin("engine.plan", "engine", req, root)
		_, err = re.Plan(d, rq.xs)
		tr.end(s)
		tr.cache(st0, re.Stats())
		if err != nil {
			return err
		}
		ev = tr.begin("engine.solve", "engine", req, root)
		out, st, err = re.Solve(d, rq.xs)
		tr.end(ev)
		if err != nil {
			return err
		}
	}
	tr.program(st, ev, req)
	if out.Card() != rq.want {
		return fmt.Errorf("%s: direct card %d, reference %d", kindNames[rq.kind], out.Card(), rq.want)
	}
	return nil
}

func (b *queryBench) stores() []storeRef { return nil }
func (b *queryBench) verify() error      { return nil }

func (b *queryBench) close() {
	b.ts.Close()
	b.hc.CloseIdleConnections()
}
