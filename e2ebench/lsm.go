package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"citare"
	"citare/internal/backend"
	"citare/internal/citegraph"
	"citare/internal/lsm"
	"citare/internal/storage"
)

// citegraph-lsm: the facade in-process over backend.OpenLSM in a fresh
// directory, seeded with a ScaleMedium citegraph instance (larger on disk
// than the 4 MiB block cache), closed and reopened before timing. One
// client alternates write batches committed with the WAL fsync, head reads
// of works drawn uniformly, and AsOf reads at earlier versions.

const (
	lsmSetups   = 3 // set-ups per run; setup_s is their median
	lsmBatch    = 8 // resolutions per CiteBatchItems
	lsmPinEvery = 4 // every this many writes, the new version is pinned
	lsmPins     = 3 // pinned versions kept besides the seed version
)

type lsmEnv struct {
	*inproc
	cfg       citegraph.Config
	b         *backend.LSM
	dir       string
	rnd       *rand.Rand
	refZ      *rand.Zipf // the generator's law for the works a reference cites
	works     []string   // every generated work
	cited     []string   // generated works cited at least once
	written   int
	userBytes int64
	// Flush and compaction counts of the seeding store, closed before the
	// reopen the run measures on.
	seedFlushes, seedCompactions uint64
	seedVersion                  uint64
	head                         uint64 // last committed version
	pins                         []pin
	// recorded lists, per version, the queries read at head while that
	// version was head: the AsOf reads replay them.
	recorded map[uint64][]string
	apos     int
}

type pin struct {
	version uint64
	citer   *citare.Citer
}

func setupLSM(o *options, p *phase) (env, float64, error) {
	var clk setupClock
	var kept *lsmEnv
	for i := 0; i < lsmSetups; i++ {
		if kept != nil {
			kept.close()
			kept = nil
		}
		runtime.GC() // no set-up pays for the previous one's garbage
		e, err := bootLSM(o, p, i, &clk)
		if err != nil {
			if e != nil {
				e.close()
			}
			return nil, 0, err
		}
		kept = e
	}
	e := kept
	e.recorded = map[uint64][]string{}
	e.pins = []pin{{e.seedVersion, nil}}
	if err := e.pinCiter(&e.pins[0]); err != nil {
		e.close()
		return nil, 0, err
	}
	// Plan independence and path agreement on a sample, before any write.
	for i := 0; i < 6; i++ {
		res, in := citegraph.ResolutionQuery(e.uniformWork()), e.incomingText()
		for _, t := range []string{res, in} {
			e.crossCheck(p, e.citer, nil, t)
			e.read(p, "cite", t)
			e.batch(p, e.citer, e.headNS, []string{t})
		}
		e.stream(p, e.citer, e.headNS, in)
	}
	e.round(p) // warm-up
	return e, clk.median(), nil
}

// bootLSM makes the inputs, seeds a fresh store, closes and reopens it,
// builds the facade and asks for the first citation.
func bootLSM(o *options, p *phase, boot int, clk *setupClock) (*lsmEnv, error) {
	t0 := clk.start()
	// The instance is the library's fixed ScaleMedium graph; the seed makes
	// the traffic.
	cfg := citegraph.ScaleMedium()
	db := citegraph.Generate(cfg)
	e := &lsmEnv{cfg: cfg, rnd: rand.New(rand.NewSource(o.seed))}
	e.dir = filepath.Join(o.out, "work", fmt.Sprintf("lsm-%d-%d", os.Getpid(), boot))
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	b, err := backend.OpenLSM(e.dir, citegraph.Schema(cfg), lsm.Options{})
	if err != nil {
		return nil, err
	}
	for _, rs := range db.Schema().Relations() {
		db.Relation(rs.Name).Scan(func(t storage.Tuple) bool {
			if err = b.Insert(rs.Name, t...); err != nil {
				return false
			}
			e.userBytes += tupleBytes(t)
			return true
		})
		if err != nil {
			b.Close()
			return e, err
		}
	}
	if e.seedVersion, err = b.Commit("seed"); err != nil {
		b.Close()
		return e, err
	}
	st := b.Store().Stats()
	e.seedFlushes, e.seedCompactions = st.Flushes, st.Compactions
	if err := b.Close(); err != nil {
		return e, err
	}
	if e.b, err = backend.OpenLSM(e.dir, nil, lsm.Options{}); err != nil {
		return e, err
	}
	c, err := citare.NewBackendFromProgram(e.b, citegraph.ViewsProgram,
		citare.WithNeutralCitation(citegraph.DatasetCitation()))
	if err != nil {
		return e, err
	}
	first := citegraph.ResolutionQuery(citegraph.WorkID(0))
	ct, err := c.Cite(context.Background(), citare.Request{Datalog: first})
	var a *answer
	if err == nil {
		a, _, err = toBytes(nil, 0, -1, ct)
	}
	if err != nil {
		return e, fmt.Errorf("first citation: %w", err)
	}
	clk.stop(t0)
	e.inproc = newInproc(c, db, citegraphNeutral)
	e.head = e.seedVersion
	e.refZ = rand.NewZipf(e.rnd, cfg.ZipfS, cfg.ZipfV, uint64(cfg.Works-1))
	e.wrote(versionNS(e.head), nil) // the seed version is head
	for i := 0; i < cfg.Works; i++ {
		w := citegraph.WorkID(i)
		e.works = append(e.works, w)
		if e.indeg[w] > 0 {
			e.cited = append(e.cited, w)
		}
	}
	p.add(0)
	p.check("setup first citation", func() error { return e.checkAnswer(e.headNS, first, a) })
	return e, nil
}

func tupleBytes(t []string) int64 {
	var n int64
	for _, v := range t {
		n += int64(len(v))
	}
	return n
}

func versionNS(v uint64) string { return "v" + strconv.FormatUint(v, 10) }

func (e *lsmEnv) uniformWork() string { return e.works[e.rnd.Intn(len(e.works))] }

func (e *lsmEnv) incomingText() string {
	w := e.cited[e.rnd.Intn(len(e.cited))]
	t := citegraph.IncomingQuery(w)
	e.noteIncoming(t, w)
	return t
}

func (e *lsmEnv) pinCiter(pn *pin) error {
	c, err := e.citer.AsOf(pn.version)
	if err != nil {
		return fmt.Errorf("AsOf(%d): %w", pn.version, err)
	}
	pn.citer = c
	return nil
}

// read is a head read whose answer AsOf reads later replay.
func (e *lsmEnv) read(p *phase, kind, text string) {
	if e.cite(p, kind, e.citer, e.headNS, text) != nil {
		e.recorded[e.head] = append(e.recorded[e.head], text)
	}
}

// round: one write batch, then head resolutions, incoming-list streams, a
// batch of resolutions and AsOf reads, in a fixed order.
func (e *lsmEnv) round(p *phase) {
	e.write(p)
	for i := 0; i < 4; i++ {
		e.read(p, "cite", citegraph.ResolutionQuery(e.uniformWork()))
		e.stream(p, e.citer, e.headNS, e.incomingText())
		e.asof(p)
		if i == 1 {
			texts := make([]string, lsmBatch)
			for k := range texts {
				texts[k] = citegraph.ResolutionQuery(e.uniformWork())
			}
			e.batch(p, e.citer, e.headNS, texts)
		}
		e.read(p, "cite", citegraph.ResolutionQuery(e.uniformWork()))
	}
}

// asof replays a query recorded while a pinned earlier version was head, on
// a Citer pinned to that version: the answer must not have changed.
func (e *lsmEnv) asof(p *phase) {
	var pool []pin
	for _, pn := range e.pins {
		if pn.version != e.head && len(e.recorded[pn.version]) > 0 {
			pool = append(pool, pn)
		}
	}
	if len(pool) == 0 {
		return
	}
	pn := pool[e.apos%len(pool)]
	texts := e.recorded[pn.version]
	text := texts[(e.apos/len(pool))%len(texts)]
	e.apos++
	if tr := p.tr; tr != nil {
		// The backend's cost of opening a view at that version, timed apart.
		req, root := tr.op("backend.AsOf")
		tr.call(req, root, "backend.AsOf", func() {
			if v, err := e.b.AsOf(pn.version); err == nil {
				v.Release()
			}
		})
		tr.end(root)
	}
	e.cite(p, "asof", pn.citer, versionNS(pn.version), text)
}

// write inserts one new work with as many authors and references as the
// generator gives every work, drawn as it draws them, commits it (WAL
// fsync), publishes it with Reset and cites it.
func (e *lsmEnv) write(p *phase) {
	tr := p.tr
	req, root := tr.op("write")
	defer tr.end(root)
	w := citegraph.WorkID(e.cfg.Works + e.written)
	e.written++
	tuples := [][]string{{"Work", w, "Work " + w, citegraph.VenueID(e.rnd.Intn(e.cfg.Venues)), "2018"}}
	for a := 0; a < e.cfg.AuthorsPerWork; a++ {
		tuples = append(tuples, []string{"Wrote", citegraph.AuthorID(e.rnd.Intn(e.cfg.Authors)), w})
	}
	refs := map[string]bool{}
	for len(refs) < e.cfg.RefsPerWork {
		t := citegraph.WorkID(int(e.refZ.Uint64()))
		if !refs[t] {
			refs[t] = true
			tuples = append(tuples, []string{"Cites", w, t})
		}
	}
	t0 := time.Now()
	var err error
	for _, t := range tuples {
		sp := tr.begin(req, root, "backend.Insert")
		err = e.b.Insert(t[0], t[1:]...)
		tr.end(sp)
		if err != nil {
			break
		}
		e.userBytes += tupleBytes(t[1:])
	}
	var v uint64
	if err == nil {
		sp := tr.begin(req, root, "backend.Commit")
		v, err = e.b.Commit("work " + w)
		tr.end(sp)
	}
	if err == nil {
		sp := tr.begin(req, root, "core.Reset")
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
	e.head = v
	e.wrote(versionNS(v), tuples)
	text := citegraph.ResolutionQuery(w)
	if a := e.cite(p, "visible_cite", e.citer, e.headNS, text); a != nil {
		p.record("visible", time.Since(t0))
		e.recorded[v] = append(e.recorded[v], text)
	}
	if tr != nil {
		tr.call(req, root, "backend.Snapshot", func() {
			if sv, err := e.b.Snapshot(); err == nil {
				sv.Release()
			}
		})
	}
	defer e.forgetUnpinned()
	if e.written%lsmPinEvery == 0 {
		pn := pin{version: v}
		sp := tr.begin(req, root, "citare.AsOf")
		err := e.pinCiter(&pn)
		tr.end(sp)
		if err != nil {
			p.fail("pin", err, false)
			return
		}
		e.pins = append(e.pins, pn)
		if len(e.pins) > lsmPins+1 {
			// Keep the seed version; drop the oldest later pin.
			e.pins = append(e.pins[:1], e.pins[2:]...)
		}
	}
}

// forgetUnpinned drops what the checks keep for versions that are neither
// head nor pinned, so memory stays bounded as the head moves on.
func (e *lsmEnv) forgetUnpinned() {
	keep := map[string]bool{e.headNS: true}
	for _, pn := range e.pins {
		keep[versionNS(pn.version)] = true
	}
	e.forget(func(ns string) bool { return keep[ns] })
	for v := range e.recorded {
		if !keep[versionNS(v)] {
			delete(e.recorded, v)
		}
	}
}

func (e *lsmEnv) counters() counters {
	c := e.baseCounters()
	st := e.b.Store().Stats()
	c.lsmFlushes = e.seedFlushes + st.Flushes
	c.lsmCompacts = e.seedCompactions + st.Compactions
	if e.userBytes > 0 {
		c.diskPerUserByte = float64(dirBytes(e.dir)) / float64(e.userBytes)
	}
	return c
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil // a file compaction just removed is simply not counted
	})
	return n
}

func (e *lsmEnv) extraLayers(st traceStats, out map[string]float64) {
	toBytesExtra(st, out)
	out["core.reset_ms"] = st.meanOf("core.Reset", 1)
	out["lsm.insert_us"] = st.meanOf("backend.Insert", 1000)
	out["lsm.commit_ms"] = st.meanOf("backend.Commit", 1)
	out["backend.snapshot_us"] = st.meanOf("backend.Snapshot", 1000)
	out["backend.asof_us"] = st.meanOf("backend.AsOf", 1000)
}

func (e *lsmEnv) close() {
	if e.b != nil {
		_ = e.b.Close() // the directory is removed next
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}
