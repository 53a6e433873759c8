package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"citare"
	"citare/internal/citegraph"
	"citare/internal/datalog"
	"citare/internal/gtopdb"
	"citare/internal/sqlfe"
	"citare/internal/storage"
)

// gtopdb-wire: citesrv in its default mode (unsharded, in memory, result
// cache and slow log on) serving gtopdb.Generate(DefaultConfig()) loaded
// from CSV, driven over loopback HTTP by two keep-alive connections in a
// closed loop.

const (
	wireBoots     = 9  // set-ups per run; setup_s is their median
	wireRound     = 16 // operations per round, split over the connections
	wireConns     = 2
	wireBatchSize = 3 // as in citesrv's soak test
)

// wireQuery is one query the stream can send, in all three of its forms.
type wireQuery struct {
	q     *query
	key   string    // the datalog form: one key for all forms and paths
	forms [3]string // datalog, SQL, variant
}

type wireEnv struct {
	*checker // the data never changes, so every answer is at version v0
	schema   *storage.Schema
	cmd      *exec.Cmd
	launched time.Time // just before citesrv started: its runtime's epoch
	done     chan struct{}
	base     string
	dir      string
	client   *http.Client
	rnd      *rand.Rand
	pool     map[string]*wireQuery
	famZ     *rand.Zipf
	typeZ    *rand.Zipf
	fams     []string
	types    []string

	mu      sync.Mutex          // guards checked across the connections
	checked map[string][32]byte // request → digest of its checked reply
}

func setupWire(o *options, p *phase) (env, float64, error) {
	var clk setupClock
	var kept *wireEnv
	for i := 0; i < wireBoots; i++ {
		if kept != nil {
			kept.close()
			kept = nil
		}
		t0 := clk.start()
		e, first, err := bootWire(o, i)
		if err != nil {
			if e != nil {
				e.close()
			}
			return nil, 0, err
		}
		clk.stop(t0)
		p.add(0)
		p.check("setup first citation", func() error { return e.checkCite(first, e.firstQuery()) })
		kept = e
	}
	return kept, clk.median(), nil
}

func (e *wireEnv) firstQuery() *wireQuery { return e.query(shapeFamily, e.fams[0]) }

// bootWire makes the inputs, writes them as CSV, boots citesrv on them and
// asks for the first citation.
func bootWire(o *options, boot int) (*wireEnv, *citeResponse, error) {
	// The instance is the generator's default GtoPdb-scale one; the seed
	// makes the traffic.
	db := gtopdb.Generate(gtopdb.DefaultConfig())
	e := &wireEnv{checker: newChecker(db, gtopdbNeutral), schema: db.Schema(),
		pool: map[string]*wireQuery{}, checked: map[string][32]byte{}}
	e.dir = filepath.Join(o.out, "work", fmt.Sprintf("wire-%d-%d", os.Getpid(), boot))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, nil, err
	}
	for _, rs := range db.Schema().Relations() {
		var buf bytes.Buffer
		if err := storage.DumpCSV(db, rs.Name, &buf); err != nil {
			return e, nil, err
		}
		if err := os.WriteFile(filepath.Join(e.dir, rs.Name+".csv"), buf.Bytes(), 0o644); err != nil {
			return e, nil, err
		}
	}
	e.rnd = rand.New(rand.NewSource(o.seed))
	for _, t := range e.ref.tuples("Family") {
		e.fams = append(e.fams, t[0])
	}
	seenType := map[string]bool{}
	for _, t := range e.ref.tuples("Family") {
		if !seenType[t[2]] {
			seenType[t[2]] = true
			e.types = append(e.types, t[2])
		}
	}
	// Popularity follows the generated order, as citegraph's follows work
	// rank, and the popularity law is citegraph's (its OpenCitations-shaped
	// in-degree law): the same families and types are hot under every seed,
	// and the seed draws the requests.
	law := citegraph.ScaleSmall()
	e.famZ = rand.NewZipf(e.rnd, law.ZipfS, law.ZipfV, uint64(len(e.fams)-1))
	e.typeZ = rand.NewZipf(e.rnd, law.ZipfS, law.ZipfV, uint64(len(e.types)-1))

	bin := filepath.Join(o.out, "citesrv")
	e.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-data", e.dir, "-quiet")
	stderr, err := e.cmd.StderrPipe()
	if err != nil {
		return e, nil, err
	}
	e.launched = time.Now()
	if err := e.cmd.Start(); err != nil {
		return e, nil, fmt.Errorf("start %s: %w", bin, err)
	}
	e.done = make(chan struct{})
	addr := make(chan string, 1)
	go func() {
		// Drain the server's log until it exits; the first "listening on"
		// line names the port.
		defer close(e.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if m := listenRE.FindStringSubmatch(line); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
		_ = e.cmd.Wait() // exit status is irrelevant once the log has ended
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			return e, nil, fmt.Errorf("citesrv exited before listening")
		}
		e.base = "http://" + a
	case <-time.After(60 * time.Second):
		return e, nil, fmt.Errorf("citesrv did not start listening within 60s")
	}
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: wireConns, MaxConnsPerHost: wireConns, DisableCompression: true,
	}}
	// The first citation: the server answers once it has loaded and built
	// its engine.
	q := e.firstQuery()
	resp, _, err := e.post("/v1/cite", citeBody(q.forms[0], false))
	if err != nil {
		return e, nil, fmt.Errorf("first citation: %w", err)
	}
	var cr citeResponse
	if err := json.Unmarshal(resp, &cr); err != nil {
		return e, nil, fmt.Errorf("first citation: %w", err)
	}
	return e, &cr, nil
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

type citeResponse struct {
	Columns     []string        `json:"columns"`
	Rows        [][]string      `json:"rows"`
	Polynomials []string        `json:"polynomials"`
	Citation    string          `json:"citation"`
	Explain     *citare.Explain `json:"explain"`
}

type batchResponse struct {
	Results []struct {
		Status int             `json:"status"`
		Result *citeResponse   `json:"result"`
		Error  json.RawMessage `json:"error"`
	} `json:"results"`
}

func citeBody(text string, explain bool) []byte {
	field := "datalog"
	if strings.HasPrefix(text, "SELECT") {
		field = "sql"
	}
	b, _ := json.Marshal(map[string]any{field: text, "explain": explain})
	return b
}

// post sends one request and reads the whole reply.
func (e *wireEnv) post(path string, body []byte) ([]byte, int, error) {
	resp, err := e.client.Post(e.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return b, len(b), fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, truncate(b))
	}
	return b, len(b), nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// The query shapes: family lookups, committee joins and type roll-ups.
const (
	shapeFamily = iota
	shapeCommittee
	shapeType
)

func shapeText(shape int, v string) string {
	switch shape {
	case shapeFamily:
		return fmt.Sprintf(`Q(N, Ty) :- Family(F, N, Ty), F = %q`, v)
	case shapeCommittee:
		return fmt.Sprintf(`Q(N, Pn) :- Family(F, N, Ty), F = %q, FC(F, P), Person(P, Pn, A)`, v)
	default:
		return fmt.Sprintf(`Q(N) :- Family(F, N, Ty), Ty = %q`, v)
	}
}

// shapeWeights carry citegraph's service mix (citegraph.DefaultMixWeights,
// which follows the Zenodo DOI-tracking study) over to GtoPdb: resolutions
// become family lookups; incoming-reference lists and the deeper joins
// become committee joins, the list of people one family leads to; venue
// roll-ups become type roll-ups.
var shapeWeights = func() [3]int {
	w := citegraph.DefaultMixWeights()
	return [3]int{w.Resolution, w.Incoming + w.CoCitation + w.Chain + w.AuthorProv, w.VenueRollup}
}()

// query returns the pooled query of a shape and constant.
func (e *wireEnv) query(shape int, v string) *wireQuery {
	text := shapeText(shape, v)
	if wq, ok := e.pool[text]; ok {
		return wq
	}
	q, err := parseQuery(text)
	if err != nil {
		panic(err) // the shapes above are constants
	}
	s, err := q.sql(e.schema)
	if err != nil {
		panic(err)
	}
	wq := &wireQuery{q: q, key: text, forms: [3]string{text, s, q.variant()}}
	e.pool[text] = wq
	return wq
}

// draw picks the next query: Zipf-skewed families and types, so most
// requests repeat one the server has answered before.
func (e *wireEnv) draw() *wireQuery {
	switch pick(e.rnd, shapeWeights[:]) {
	case shapeFamily:
		return e.query(shapeFamily, e.fams[e.famZ.Uint64()])
	case shapeCommittee:
		return e.query(shapeCommittee, e.fams[e.famZ.Uint64()])
	default:
		return e.query(shapeType, e.types[e.typeZ.Uint64()])
	}
}

// pick draws an index with probability proportional to its weight.
func pick(r *rand.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	x := r.Intn(total)
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

type wireOp struct {
	kind  string // cite, batch or stream
	qs    []*wireQuery
	forms []int
}

// round sends wireRound operations, a third each to /v1/cite,
// /v1/cite/batch and /v1/cite/stream, as citesrv's soak test cycles its
// client behaviours in turn; each request's form (datalog, SQL or the
// variant) is drawn with equal chances.
func (e *wireEnv) round(p *phase) {
	ops := make([]wireOp, wireRound)
	for i := range ops {
		op := wireOp{kind: [3]string{"cite", "batch", "stream"}[e.rnd.Intn(3)]}
		n := 1
		if op.kind == "batch" {
			n = wireBatchSize
		}
		for j := 0; j < n; j++ {
			op.qs = append(op.qs, e.draw())
			op.forms = append(op.forms, e.rnd.Intn(3))
		}
		ops[i] = op
	}
	var wg sync.WaitGroup
	for c := 0; c < wireConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(ops); i += wireConns {
				e.do(p, ops[i])
			}
		}(c)
	}
	wg.Wait()
}

func (e *wireEnv) do(p *phase, op wireOp) {
	tr := p.tr
	req, root := tr.op(op.kind)
	defer tr.end(root)
	if tr != nil {
		// The parsers' cost on this request's texts, as the server pays it.
		for _, wq := range op.qs {
			tr.call(req, root, "datalog.ParseQuery", func() { _, _ = datalog.ParseQuery(wq.forms[0]) })
			tr.call(req, root, "sqlfe.Parse", func() { _, _ = sqlfe.Parse(e.schema, wq.forms[1]) })
		}
	}
	explain := tr != nil
	switch op.kind {
	case "cite":
		wq := op.qs[0]
		sp := tr.begin(req, root, "citesrv.http")
		t0 := time.Now()
		reqBody := citeBody(wq.forms[op.forms[0]], explain)
		body, n, err := e.post("/v1/cite", reqBody)
		d := time.Since(t0)
		tr.end(sp)
		p.add(n)
		if err != nil {
			p.fail("cite", err, false)
			return
		}
		p.record("cite", d)
		var cr citeResponse
		p.check("cite "+wq.key, func() error {
			return e.checkOnce("cite\x00"+string(reqBody), body, func() error {
				if err := json.Unmarshal(body, &cr); err != nil {
					return err
				}
				return e.checkCite(&cr, wq)
			})
		})
		tr.importExplain(req, sp, explainStages(cr.Explain))
	case "batch":
		var reqs []json.RawMessage
		for i, wq := range op.qs {
			reqs = append(reqs, citeBody(wq.forms[op.forms[i]], explain))
		}
		b, _ := json.Marshal(map[string]any{"requests": reqs})
		sp := tr.begin(req, root, "citesrv.http")
		t0 := time.Now()
		body, n, err := e.post("/v1/cite/batch", b)
		d := time.Since(t0)
		tr.end(sp)
		p.add(n)
		if err != nil {
			p.fail("batch", err, false)
			return
		}
		p.record("batch", d)
		var br batchResponse
		p.check("batch", func() error {
			return e.checkOnce("batch\x00"+string(b), body, func() error { return e.checkBatch(body, &br, op) })
		})
		for _, slot := range br.Results {
			if slot.Result != nil {
				tr.importExplain(req, sp, explainStages(slot.Result.Explain))
			}
		}
	case "stream":
		wq := op.qs[0]
		reqBody := citeBody(wq.forms[op.forms[0]], false)
		sp := tr.begin(req, root, "citesrv.http")
		lines, first, total, n, err := e.stream(reqBody)
		tr.end(sp)
		p.add(n)
		if err != nil {
			p.fail("stream", err, false)
			return
		}
		p.record("stream_first", first)
		p.record("stream_total", total)
		var trailer map[string]int64
		p.check("stream "+wq.key, func() error {
			var err error
			if trailer, err = streamTrailer(lines); err != nil {
				return err
			}
			tuples := bytes.Join(lines[:len(lines)-1], nil)
			return e.checkOnce("stream\x00"+string(reqBody), tuples, func() error { return e.checkStream(lines, wq) })
		})
		tr.importStageNs(req, sp, trailer)
	}
}

// checkBatch checks every slot of a batch reply.
func (e *wireEnv) checkBatch(body []byte, br *batchResponse, op wireOp) error {
	if err := json.Unmarshal(body, br); err != nil {
		return err
	}
	if len(br.Results) != len(op.qs) {
		return fmt.Errorf("%d slots for %d requests", len(br.Results), len(op.qs))
	}
	for i, slot := range br.Results {
		if slot.Status != http.StatusOK || slot.Result == nil {
			return fmt.Errorf("slot %d: status %d %s", i, slot.Status, slot.Error)
		}
		if err := e.checkCite(slot.Result, op.qs[i]); err != nil {
			return fmt.Errorf("slot %d: %w", i, err)
		}
	}
	return nil
}

func explainStages(x *citare.Explain) []*citare.ExplainStage {
	if x == nil {
		return nil
	}
	return x.Stages
}

// stream posts to /v1/cite/stream and reads the NDJSON reply line by line,
// timing the first line and the whole stream.
func (e *wireEnv) stream(body []byte) (lines [][]byte, first, total time.Duration, n int, err error) {
	t0 := time.Now()
	resp, err := e.client.Post(e.base+"/v1/cite/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, 0, 0, len(b), fmt.Errorf("stream: status %d: %s", resp.StatusCode, truncate(b))
	}
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			if len(lines) == 0 {
				first = time.Since(t0)
			}
			n += len(line)
			lines = append(lines, line)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, 0, n, err
		}
	}
	return lines, first, time.Since(t0), n, nil
}

const gtopdbNeutral = "IUPHAR/BPS Guide to PHARMACOLOGY"

// checkCite checks a unary or batch answer.
func (e *wireEnv) checkCite(cr *citeResponse, wq *wireQuery) error {
	return e.check(e.headNS, wq.key, wq.q, &answer{rows: cr.Rows, polys: cr.Polynomials, rendered: cr.Citation})
}

// streamTrailer checks a stream's last line and returns its per-stage
// totals.
func streamTrailer(lines [][]byte) (map[string]int64, error) {
	if len(lines) < 2 {
		return nil, fmt.Errorf("stream of %d lines", len(lines))
	}
	var tl struct {
		Trailer struct {
			Tuples  int              `json:"tuples"`
			StageNs map[string]int64 `json:"stage_ns"`
			Error   json.RawMessage  `json:"error"`
		} `json:"trailer"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &tl); err != nil {
		return nil, fmt.Errorf("trailer: %w", err)
	}
	if tl.Trailer.Error != nil || tl.Trailer.Tuples != len(lines)-1 {
		return nil, fmt.Errorf("trailer reports %d tuples, error %s", tl.Trailer.Tuples, tl.Trailer.Error)
	}
	return tl.Trailer.StageNs, nil
}

// checkStream checks an NDJSON answer's tuple lines.
func (e *wireEnv) checkStream(lines [][]byte, wq *wireQuery) error {
	a := &answer{tuples: []string{}}
	for i, l := range lines[:len(lines)-1] {
		var t struct {
			Index      int             `json:"index"`
			Values     []string        `json:"values"`
			Polynomial string          `json:"polynomial"`
			Citation   json.RawMessage `json:"citation"`
		}
		if err := json.Unmarshal(l, &t); err != nil {
			return fmt.Errorf("line %d: %w", i, err)
		}
		if t.Index != i {
			return fmt.Errorf("line %d has index %d", i, t.Index)
		}
		a.rows = append(a.rows, t.Values)
		a.polys = append(a.polys, t.Polynomial)
		a.tuples = append(a.tuples, string(t.Citation))
	}
	return e.check(e.headNS, wq.key, wq.q, a)
}

// checkOnce runs a full check of reply unless an earlier reply to the same
// request was byte-identical and passed it. Skipping the decode of repeated
// replies keeps the client's CPU, which the server shares, small.
func (e *wireEnv) checkOnce(request string, reply []byte, full func() error) error {
	h := sha256.Sum256(reply)
	e.mu.Lock()
	seen, ok := e.checked[request]
	e.mu.Unlock()
	if ok && seen == h {
		return nil
	}
	if err := full(); err != nil {
		return err
	}
	e.mu.Lock()
	e.checked[request] = h
	e.mu.Unlock()
	return nil
}

func (e *wireEnv) programCPU() time.Duration {
	d, err := procCPU(e.cmd.Process.Pid)
	if err != nil {
		return 0
	}
	return d
}

func (e *wireEnv) inProcess() bool { return false }

func (e *wireEnv) peakRSS(float64) (float64, error) {
	return statusMiB(strconv.Itoa(e.cmd.Process.Pid), "VmHWM")
}

func (e *wireEnv) get(path string) ([]byte, error) {
	resp, err := e.client.Get(e.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, err
}

// memStat reads one "# Name = value" line of the runtime.MemStats block
// of /debug/pprof/heap?debug=1.
func memStat(body []byte, name string) float64 {
	m := regexp.MustCompile(`(?m)^# ` + name + ` = (\S+)`).FindSubmatch(body)
	if m == nil {
		return 0
	}
	v, _ := strconv.ParseFloat(string(m[1]), 64)
	return v
}

func (e *wireEnv) counters() counters {
	var c counters
	if b, err := e.get("/stats"); err == nil {
		type hm struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		}
		var st struct {
			hm
			TokenCache    hm `json:"token_cache"`
			LogicalPlans  hm `json:"logical_plans"`
			PhysicalPlans hm `json:"physical_plans"`
		}
		if json.Unmarshal(b, &st) == nil {
			c.resultHits, c.resultMisses = st.Hits, st.Misses
			c.tokenHits, c.tokenMisses = st.TokenCache.Hits, st.TokenCache.Misses
			c.planHits = st.LogicalPlans.Hits + st.PhysicalPlans.Hits
			c.planMisses = st.LogicalPlans.Misses + st.PhysicalPlans.Misses
		}
	}
	if b, err := e.get("/debug/pprof/heap?debug=1"); err == nil {
		c.totalAlloc = uint64(memStat(b, "TotalAlloc"))
		// GCCPUFraction is the collector's share of the CPU from the
		// runtime's start to the last collection's end (LastGC).
		if last := memStat(b, "LastGC"); last > 0 {
			c.gcSpan = (last - float64(e.launched.UnixNano())) / 1e9
			c.gcCPU = memStat(b, "GCCPUFraction") * c.gcSpan
		}
	}
	return c
}

func (e *wireEnv) heapLiveMiB() (float64, error) {
	b, err := e.get("/debug/pprof/heap?debug=1&gc=1")
	if err != nil {
		return 0, err
	}
	return memStat(b, "HeapAlloc") / (1 << 20), nil
}

func (e *wireEnv) extraLayers(st traceStats, out map[string]float64) {
	if st.wireReqs > 0 {
		out["citesrv.wire_ms_per_op"] = st.wireMs / float64(st.wireReqs)
	}
}

// close stops citesrv, waits for it to exit and removes its data.
func (e *wireEnv) close() {
	if e.cmd != nil && e.cmd.Process != nil && e.done != nil {
		_ = e.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-e.done:
		case <-time.After(10 * time.Second):
			_ = e.cmd.Process.Kill()
			<-e.done
		}
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}
