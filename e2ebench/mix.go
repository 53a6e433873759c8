package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"citare"
	"citare/internal/citegraph"
	"citare/internal/shard"
	"citare/internal/storage"
)

// citegraph-mix: the facade in-process over a ScaleSmall citegraph instance
// hash-partitioned across two shards (Cites routed by Cited, so the Zipf
// head sits on one shard), resilient scatter-gather on, no result cache.
// One closed-loop client sends the default QueryMix as unary cites,
// incoming and co-citation lists as CiteEach streams, reference lists as
// CiteBatchItems, and write batches each followed by Reset.

const (
	mixShards = 2
	mixSetups = 31   // set-ups per run; setup_s is their median
	mixMixLen = 4096 // QueryMix draws; rounds take them in order, by shape
	mixBatch  = 8    // reference lists per CiteBatchItems
	mixCross  = 12   // distinct queries cross-checked before timing
)

type mixEnv struct {
	*inproc
	cfg     citegraph.Config
	sdb     *shard.DB
	rnd     *rand.Rand
	byKind  map[string][]string // QueryMix draws by query shape
	pos     map[string]int
	targets []string // Zipf-drawn works cited at least once: stream targets
	tpos    int
	version int
	written int
}

const citegraphNeutral = "citegraph synthetic citation corpus"

func setupMix(o *options, p *phase) (env, float64, error) {
	// The instance is the library's fixed ScaleSmall graph; the seed makes
	// the traffic.
	cfg := citegraph.ScaleSmall()
	mix := citegraph.QueryMix(cfg, citegraph.DefaultMixWeights(), o.seed, mixMixLen)
	// The set-up's first citation is the mix's first resolution, so that
	// every seed's set-up does the same kind of work.
	var first string
	for _, t := range mix {
		if strings.HasPrefix(t, kRes+" :- ") {
			first = t
			break
		}
	}
	if first == "" {
		return nil, 0, fmt.Errorf("QueryMix drew no resolution")
	}
	var (
		clk setupClock
		db  *storage.DB
		sdb *shard.DB
		c   *citare.Citer
		ct  *citare.Citation
	)
	for i := 0; i < mixSetups; i++ {
		db, sdb, c, ct = nil, nil, nil, nil
		runtime.GC() // no set-up pays for the previous one's garbage
		t0 := clk.start()
		db = citegraph.Generate(cfg)
		var err error
		if sdb, err = shard.FromDB(db, mixShards); err != nil {
			return nil, 0, err
		}
		c, err = citare.NewShardedFromProgram(sdb, citegraph.ViewsProgram,
			citare.WithNeutralCitation(citegraph.DatasetCitation()),
			citare.WithResilience(citare.ResilienceConfig{}))
		if err != nil {
			return nil, 0, err
		}
		if ct, err = c.Cite(context.Background(), citare.Request{Datalog: first}); err == nil {
			_, _, err = toBytes(nil, 0, -1, ct)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("first citation: %w", err)
		}
		clk.stop(t0)
	}
	e := &mixEnv{inproc: newInproc(c, db, citegraphNeutral), cfg: cfg, sdb: sdb,
		rnd: rand.New(rand.NewSource(o.seed)), byKind: map[string][]string{}, pos: map[string]int{}}
	for _, t := range mix {
		head, _, _ := strings.Cut(t, " :- ")
		e.byKind[head] = append(e.byKind[head], t)
	}
	for _, block := range mixBlocks {
		for _, k := range block {
			if len(e.byKind[k]) == 0 {
				return nil, 0, fmt.Errorf("QueryMix drew no %s query", k)
			}
		}
	}
	p.add(0)
	p.check("setup first citation", func() error {
		a, _, err := toBytes(nil, 0, -1, ct)
		if err != nil {
			return err
		}
		return e.checkAnswer(e.headNS, first, a)
	})
	for _, w := range citegraph.ZipfWorks(cfg, o.seed+1, mixMixLen) {
		if e.indeg[w] > 0 {
			e.targets = append(e.targets, w)
		}
	}
	if len(e.targets) == 0 {
		return nil, 0, fmt.Errorf("no cited work among the Zipf draws")
	}
	// Plan independence, path agreement and 2-shard against unsharded
	// agreement on a sample, before any write.
	plain, err := citare.NewFromProgram(db, citegraph.ViewsProgram,
		citare.WithNeutralCitation(citegraph.DatasetCitation()))
	if err != nil {
		return nil, 0, err
	}
	seen := map[string]bool{}
	for _, t := range mix {
		if len(seen) == mixCross {
			break
		}
		if !seen[t] {
			seen[t] = true
			e.crossCheck(p, c, plain, t)
			e.cite(p, "cite", c, e.headNS, t)
			e.batch(p, c, e.headNS, []string{t})
		}
	}
	for i := 0; i < 2; i++ {
		in, co := e.streamTexts()
		for _, t := range []string{in, co} {
			e.crossCheck(p, c, plain, t)
			e.cite(p, "cite", c, e.headNS, t)
			e.stream(p, c, e.headNS, t)
		}
	}
	e.round(p) // warm-up: plans compiled, views materialized
	return e, clk.median(), nil
}

// streamTexts draws the next incoming and co-citation lists.
func (e *mixEnv) streamTexts() (incoming, cocite string) {
	w := e.targets[e.tpos%len(e.targets)]
	e.tpos++
	incoming = citegraph.IncomingQuery(w)
	e.noteIncoming(incoming, w)
	return incoming, citegraph.CoCitationQuery(e.targets[(e.tpos*7)%len(e.targets)])
}

func refListQuery(w string) string { return fmt.Sprintf(`Q(C) :- Cites(G, C), G = %q`, w) }

// The unary cites of a round: QueryMix's draws, sorted by query shape and
// taken in fixed per-round counts that follow its default weights, so every
// round has the same make-up and the median falls at the same place in it.
// Each block starts with an incoming list, so the view rebuild a write
// leaves behind lands on the same kind of operation every time.
var mixBlocks = [4][]string{
	{kInc, kRes, kRes, kChain, kRes, kInc, kRes, kRes, kCocite, kRes},
	{kInc, kRes, kRes, kAuth, kRes, kInc, kRes, kRes, kVenue, kInc},
	{kInc, kRes, kRes, kCocite, kRes, kInc, kRes, kRes, kChain, kRes},
	{kInc, kRes, kRes, kAuth, kRes, kInc, kRes, kCocite, kRes, kInc},
}

// Query shapes of citegraph.QueryMix, by their heads.
const (
	kRes    = "Q(T, Y)"
	kInc    = "Q(G)"
	kCocite = "Q(C2)"
	kChain  = "Q(G2, T)"
	kAuth   = "Q(Pn, T)"
	kVenue  = "Q(Vn, T, Y)"
)

func (e *mixEnv) next(kind string) string {
	q := e.byKind[kind]
	t := q[e.pos[kind]%len(q)]
	e.pos[kind]++
	return t
}

// round: four blocks of ten unary cites, each followed by three CiteEach
// streams (two incoming lists around a co-citation list) and two batches
// of reference lists, with a write batch after the second and fourth block.
func (e *mixEnv) round(p *phase) {
	for b, block := range mixBlocks {
		for _, k := range block {
			e.cite(p, "cite", e.citer, e.headNS, e.next(k))
		}
		in, co := e.streamTexts()
		e.stream(p, e.citer, e.headNS, in)
		e.stream(p, e.citer, e.headNS, co)
		in, _ = e.streamTexts()
		e.stream(p, e.citer, e.headNS, in)
		for i := 0; i < 2; i++ {
			texts := make([]string, mixBatch)
			for k := range texts {
				texts[k] = refListQuery(citegraph.WorkID(e.rnd.Intn(e.cfg.Works)))
			}
			e.batch(p, e.citer, e.headNS, texts)
		}
		if b%2 == 1 {
			e.write(p)
		}
	}
}

// write inserts one new work with as many authors and references as the
// generator gives every work, drawn as it draws them, publishes it with
// Reset, and cites it: the time until the write is visible.
func (e *mixEnv) write(p *phase) {
	tr := p.tr
	req, root := tr.op("write")
	defer tr.end(root)
	w := citegraph.WorkID(e.cfg.Works + e.written)
	e.written++
	var tuples [][]string
	tuples = append(tuples, []string{"Work", w, "Work " + w, citegraph.VenueID(e.rnd.Intn(e.cfg.Venues)), "2018"})
	for a := 0; a < e.cfg.AuthorsPerWork; a++ {
		tuples = append(tuples, []string{"Wrote", citegraph.AuthorID(e.rnd.Intn(e.cfg.Authors)), w})
	}
	refs := map[string]bool{}
	for len(refs) < e.cfg.RefsPerWork {
		t := e.targets[e.rnd.Intn(len(e.targets))]
		if !refs[t] {
			refs[t] = true
			tuples = append(tuples, []string{"Cites", w, t})
		}
	}
	t0 := time.Now()
	var err error
	sp := tr.begin(req, root, "shard.Insert")
	for _, t := range tuples {
		if err = e.sdb.Insert(t[0], t[1:]...); err != nil {
			break
		}
	}
	tr.end(sp)
	if err == nil {
		sp = tr.begin(req, root, "core.Reset")
		r0 := time.Now()
		err = e.citer.Reset()
		p.record("reset", time.Since(r0))
		tr.end(sp)
	}
	p.add(0)
	if err != nil {
		p.fail("write "+w, err, false)
		return
	}
	e.version++
	e.wrote(fmt.Sprintf("v%d", e.version), tuples)
	e.forget(func(ns string) bool { return ns == e.headNS })
	if a := e.cite(p, "visible_cite", e.citer, e.headNS, citegraph.ResolutionQuery(w)); a != nil {
		p.record("visible", time.Since(t0))
	}
	if tr != nil {
		// The storage layer's snapshot cost on this data, timed apart.
		tr.call(req, root, "shard.Snapshot", func() { _ = e.sdb.Snapshot() })
	}
}

func (e *mixEnv) counters() counters {
	c := e.baseCounters()
	for _, s := range e.sdb.OpStats().PerShard {
		c.shardLookups = append(c.shardLookups, s.Lookups)
	}
	return c
}

func (e *mixEnv) extraLayers(st traceStats, out map[string]float64) {
	toBytesExtra(st, out)
	out["core.reset_ms"] = st.meanOf("core.Reset", 1)
	out["storage.snapshot_us"] = st.meanOf("shard.Snapshot", 1000)
}

func (e *mixEnv) close() {}
