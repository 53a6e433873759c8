package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"citare"
	"citare/internal/datalog"
	"citare/internal/obs"
	"citare/internal/sqlfe"
	"citare/internal/storage"
)

// inproc holds what the in-process workloads share: the facade, the
// answer checks, and the texts derived from each query.
type inproc struct {
	*checker
	citer  *citare.Citer
	schema *storage.Schema
	parsed map[string]*query
	sqls   map[string]string
}

func newInproc(c *citare.Citer, db *storage.DB, neutral string) *inproc {
	return &inproc{checker: newChecker(db, neutral), citer: c, schema: db.Schema(),
		parsed: map[string]*query{}, sqls: map[string]string{}}
}

func (ip *inproc) query(text string) *query {
	q, ok := ip.parsed[text]
	if !ok {
		var err error
		if q, err = parseQuery(text); err != nil {
			panic(err) // the workloads generate these texts
		}
		ip.parsed[text] = q
	}
	return q
}

func (ip *inproc) sql(text string) string {
	s, ok := ip.sqls[text]
	if !ok {
		var err error
		if s, err = ip.query(text).sql(ip.schema); err != nil {
			panic(err)
		}
		ip.sqls[text] = s
	}
	return s
}

func (ip *inproc) checkAnswer(ns, text string, a *answer) error {
	return ip.check(ns, text, ip.query(text), a)
}

// opCtx opens a traced operation: the root span, the parser spans on the
// query's texts, and a program trace riding the context.
func opCtx(p *phase, kind string, texts []string, ip *inproc) (context.Context, *obs.Trace, int64, int) {
	tr := p.tr
	req, root := tr.op(kind)
	if tr == nil {
		return context.Background(), nil, req, root
	}
	for _, t := range texts {
		s := ip.sql(t)
		tr.call(req, root, "datalog.ParseQuery", func() { _, _ = datalog.ParseQuery(t) })
		tr.call(req, root, "sqlfe.Parse", func() { _, _ = sqlfe.Parse(ip.schema, s) })
	}
	ot := obs.NewTrace()
	return obs.NewContext(context.Background(), ot, obs.NoSpan), ot, req, root
}

func importObs(tr *tracer, req int64, parent int, ot *obs.Trace) {
	if tr == nil || ot == nil {
		return
	}
	var conv func(ns []*obs.ReportSpan) []*citare.ExplainStage
	conv = func(ns []*obs.ReportSpan) []*citare.ExplainStage {
		out := make([]*citare.ExplainStage, len(ns))
		for i, n := range ns {
			out[i] = &citare.ExplainStage{Name: n.Name, DurationNs: n.DurationNs, Attrs: n.Attrs, Children: conv(n.Children)}
		}
		return out
	}
	tr.importExplain(req, parent, conv(ot.Report().Stages))
}

// toBytes renders a citation to what a client receives: the aggregate in
// its format and every tuple's polynomial.
func toBytes(tr *tracer, req int64, parent int, ct *citare.Citation) (*answer, int, error) {
	a := &answer{rows: ct.Rows()}
	var err error
	sp := tr.begin(req, parent, "format.Rendered")
	a.rendered, err = ct.Rendered()
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	n := len(a.rendered)
	sp = tr.begin(req, parent, "format.TuplePolynomialAt")
	for i := 0; i < ct.NumTuples(); i++ {
		s, err := ct.TuplePolynomialAt(i)
		if err != nil {
			tr.end(sp)
			return nil, 0, err
		}
		a.polys = append(a.polys, s)
		n += len(s)
	}
	tr.end(sp)
	return a, n, nil
}

// cite runs one unary citation plus rendering to bytes, timed as kind.
func (ip *inproc) cite(p *phase, kind string, c *citare.Citer, ns, text string) *answer {
	ctx, ot, req, root := opCtx(p, kind, []string{text}, ip)
	tr := p.tr
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin(req, root, "citare.Cite")
	ct, err := c.Cite(ctx, citare.Request{Datalog: text, Explain: tr != nil})
	tr.end(sp)
	var a *answer
	n := 0
	if err == nil {
		a, n, err = toBytes(tr, req, root, ct)
	}
	d := time.Since(t0)
	p.add(n)
	importObs(tr, req, sp, ot)
	if err != nil {
		p.fail(kind+" "+text, err, false)
		return nil
	}
	p.record(kind, d)
	p.check(kind+" "+text, func() error { return ip.checkAnswer(ns, text, a) })
	return a
}

// stream runs one CiteEach, timing the first callback and the whole stream.
func (ip *inproc) stream(p *phase, c *citare.Citer, ns, text string) {
	ctx, ot, req, root := opCtx(p, "stream", []string{text}, ip)
	tr := p.tr
	defer tr.end(root)
	a := &answer{}
	n := 0
	var first time.Duration
	t0 := time.Now()
	sp := tr.begin(req, root, "citare.CiteEach")
	err := c.CiteEach(ctx, citare.Request{Datalog: text}, func(t citare.Tuple) error {
		if len(a.rows) == 0 {
			first = time.Since(t0)
		}
		a.rows = append(a.rows, t.Values)
		a.polys = append(a.polys, t.Polynomial)
		a.tuples = append(a.tuples, t.CitationJSON)
		n += len(t.Polynomial) + len(t.CitationJSON)
		return nil
	})
	tr.end(sp)
	d := time.Since(t0)
	p.add(n)
	importObs(tr, req, sp, ot)
	if err == nil && len(a.rows) == 0 {
		err = errors.New("stream delivered no tuple")
	}
	if err != nil {
		p.fail("stream "+text, err, false)
		return
	}
	p.record("stream_first", first)
	p.record("stream_total", d)
	p.check("stream "+text, func() error { return ip.checkAnswer(ns, text, a) })
}

// batch runs one CiteBatchItems plus rendering every item to bytes.
func (ip *inproc) batch(p *phase, c *citare.Citer, ns string, texts []string) {
	ctx, ot, req, root := opCtx(p, "batch", texts, ip)
	tr := p.tr
	defer tr.end(root)
	reqs := make([]citare.Request, len(texts))
	for i, t := range texts {
		reqs[i] = citare.Request{Datalog: t, Explain: tr != nil}
	}
	t0 := time.Now()
	sp := tr.begin(req, root, "citare.CiteBatchItems")
	items := c.CiteBatchItems(ctx, reqs)
	tr.end(sp)
	answers := make([]*answer, len(items))
	n := 0
	var err error
	for i, it := range items {
		if it.Err != nil {
			err = fmt.Errorf("item %d: %w", i, it.Err)
			break
		}
		var k int
		if answers[i], k, err = toBytes(tr, req, root, it.Citation); err != nil {
			break
		}
		n += k
	}
	d := time.Since(t0)
	p.add(n)
	importObs(tr, req, sp, ot)
	if err != nil {
		p.fail("batch", err, false)
		return
	}
	p.record("batch", d)
	p.check("batch", func() error {
		for i, t := range texts {
			if err := ip.checkAnswer(ns, t, answers[i]); err != nil {
				return fmt.Errorf("item %d %s: %w", i, t, err)
			}
		}
		return nil
	})
}

// crossCheck cites a query by its datalog, SQL and variant forms on c, and
// by datalog on other (when set), and requires byte-identical citations:
// plan independence, and agreement between two engines.
func (ip *inproc) crossCheck(p *phase, c, other *citare.Citer, text string) {
	q := ip.query(text)
	reqs := []citare.Request{{Datalog: text}, {SQL: ip.sql(text)}, {Datalog: q.variant()}}
	var first *answer
	var firstForm string
	try := func(c *citare.Citer, form string, r citare.Request) {
		p.add(0)
		ct, err := c.Cite(context.Background(), r)
		if err != nil {
			p.fail(form+" "+text, err, false)
			return
		}
		p.check(form+" "+text, func() error {
			a, _, err := toBytes(nil, 0, -1, ct)
			if err != nil {
				return err
			}
			if first == nil {
				first, firstForm = a, form
				return nil
			}
			if err := sameAnswer(first, a); err != nil {
				return fmt.Errorf("differs from the %s form: %w", firstForm, err)
			}
			if a.rendered != first.rendered {
				return fmt.Errorf("citation differs from the %s form", firstForm)
			}
			return nil
		})
	}
	for i, form := range []string{"datalog", "sql", "variant"} {
		try(c, form, reqs[i])
	}
	if other != nil {
		try(other, "unsharded", reqs[0])
	}
}

// In-process counters and memory.

func (ip *inproc) baseCounters() counters {
	var c counters
	eng := ip.citer.Engine()
	tok := eng.TokenCacheStats()
	c.tokenHits, c.tokenMisses = tok.Hits, tok.Misses
	lh, lm := eng.LogicalPlanStats()
	ph, pm := eng.PhysicalPlanStats()
	c.planHits, c.planMisses = lh+ph, lm+pm
	c.totalAlloc, c.gcCPU, c.gcSpan = readRuntime()
	return c
}

func (ip *inproc) programCPU() time.Duration { return selfCPU() }

func (ip *inproc) inProcess() bool { return true }

// peakRSS is the benchmark process's peak resident set sampled over the
// timed pass: the set-ups before it hold the benchmark's own copies of the
// inputs, whose peak would depend on when the collector ran.
func (ip *inproc) peakRSS(sampled float64) (float64, error) { return sampled, nil }

func (ip *inproc) heapLiveMiB() (float64, error) { return liveHeapMiB(), nil }

// ownHeapMiB is the part of the live heap that the answer checks hold: the
// benchmark's copy of the data and the answers kept to compare with. It is
// measured by dropping them, so the checks end with it.
func (ip *inproc) ownHeapMiB() float64 {
	h0 := liveHeapMiB()
	ip.checker, ip.parsed, ip.sqls = nil, nil, nil
	return h0 - liveHeapMiB()
}

func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// toBytesExtra is the in-process time spent rendering to bytes.
func toBytesExtra(st traceStats, out map[string]float64) {
	out["format.to_bytes_ms_per_op"] = st.perOp(st.total["format.Rendered"] + st.total["format.TuplePolynomialAt"])
}
