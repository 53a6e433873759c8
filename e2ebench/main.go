// Command e2ebench is the end-to-end citation benchmark. It drives the
// program from outside — citesrv over loopback HTTP, or the citare facade
// in-process — checks every answer against its own evaluation, and prints
// one JSON result line. See README.md for the workloads and metrics.
//
//	bash e2ebench/run.sh --workload citegraph-mix --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // build and scratch directory inside the checkout
}

// env is one workload's running system.
type env interface {
	// round runs one fixed round of operations, recording into p. Runs
	// attempt whole rounds only.
	round(p *phase)
	// programCPU is the CPU time of the process that runs the program.
	programCPU() time.Duration
	// inProcess reports whether the program shares the benchmark's
	// process, so that CPU spent in answer checks must be subtracted.
	inProcess() bool
	// counters reads the layer counters the ratios are made from.
	counters() counters
	// peakRSS is the peak resident set of the program's process, MiB.
	// sampled is the benchmark process's own, taken over the timed pass.
	peakRSS(sampled float64) (float64, error)
	// heapLiveMiB is the live heap after a forced collection.
	heapLiveMiB() (float64, error)
	// extraLayers adds the workload-specific layer figures of a traced pass.
	extraLayers(st traceStats, out map[string]float64)
	close()
}

// counters are cumulative layer counters; a pass reports their deltas.
type counters struct {
	resultHits, resultMisses uint64
	tokenHits, tokenMisses   uint64
	planHits, planMisses     uint64
	totalAlloc               uint64
	// The collector's CPU and the CPU available to the program up to the
	// last collection, seconds: their deltas give the collector's share.
	gcCPU, gcSpan           float64
	shardLookups            []uint64
	lsmFlushes, lsmCompacts uint64
	diskPerUserByte         float64
}

// phase accumulates one pass of operations.
type phase struct {
	mu        sync.Mutex // the wire workload records from two connections
	tr        *tracer
	lat       map[string][]float64 // operation kind → latencies, ms
	blk       map[string][]int     // the block each latency was taken in
	block     int                  // the block being run
	ops       int
	failed    int
	mismatch  int
	checkCPU  time.Duration
	checkMem  uint64 // bytes the checks allocated
	respBytes int64
	errs      []string
}

func newPhase(tr *tracer) *phase {
	return &phase{tr: tr, lat: map[string][]float64{}, blk: map[string][]int{}}
}

func (p *phase) record(kind string, d time.Duration) {
	p.mu.Lock()
	p.lat[kind] = append(p.lat[kind], ms(d))
	p.blk[kind] = append(p.blk[kind], p.block)
	p.mu.Unlock()
}

// add counts one attempted operation and the bytes its answer carried.
func (p *phase) add(n int) {
	p.mu.Lock()
	p.respBytes += int64(n)
	p.ops++
	p.mu.Unlock()
}

// fail counts a failed operation: an error or non-200 reply from the
// program, or (mismatch) an answer that failed its check.
func (p *phase) fail(what string, err error, mismatch bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	if mismatch {
		p.mismatch++
	}
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// check runs an answer check outside the timed sections: its CPU and its
// allocations are kept apart so the in-process CPU and allocation figures
// leave them out. A failed check counts the operation failed.
func (p *phase) check(what string, fn func() error) bool {
	c0, m0 := selfCPU(), heapAllocs()
	err := fn()
	cpu, mem := selfCPU()-c0, heapAllocs()-m0
	p.mu.Lock()
	p.checkCPU += cpu
	p.checkMem += mem
	p.mu.Unlock()
	if err != nil {
		p.fail(what, err, true)
		return false
	}
	return true
}

// pass is what one timed pass measured.
type pass struct {
	p      *phase
	wall   time.Duration
	cpu    time.Duration
	delta  counters // counter increments over the pass's rounds
	last   counters // counters at the end, for the cumulative figures
	steal  float64
	rss    []float64 // in-process: peak VmRSS of each block, MiB
	blocks []block
}

// block is a stretch of whole rounds, about a second long, with the host's
// steal share over it and the CPU and operations it took.
type block struct {
	steal float64
	cpu   time.Duration
	ops   int
}

// quiet picks the blocks the end-to-end figures are taken from (quietOf).
func (ps pass) quiet() map[int]bool {
	st := make([]float64, len(ps.blocks))
	for i, b := range ps.blocks {
		st[i] = b.steal
	}
	q := map[int]bool{}
	for i, ok := range quietOf(st) {
		if ok {
			q[i] = true
		}
	}
	return q
}

// p50 is the median latency of kind over the chosen blocks.
func (ps pass) p50(kind string, in map[int]bool) float64 {
	var xs []float64
	for i, x := range ps.p.lat[kind] {
		if in[ps.p.blk[kind][i]] {
			xs = append(xs, x)
		}
	}
	return median(xs)
}

// cpuPerOpIn is the CPU per operation over the chosen blocks.
func (ps pass) cpuPerOpIn(in map[int]bool) float64 {
	var cpu time.Duration
	ops := 0
	for i, b := range ps.blocks {
		if in[i] {
			cpu += b.cpu
			ops += b.ops
		}
	}
	if ops == 0 {
		return 0
	}
	return ms(cpu) / float64(ops)
}

// measure runs whole rounds for d. With one phase it is one pass; with
// several, the phases take turns in blocks of rounds, so that a traced and
// an untraced pass see the same traffic and the same data growth.
func measure(e env, d time.Duration, phases ...*phase) []pass {
	ps := make([]pass, len(phases))
	for i := range ps {
		ps[i].p = phases[i]
	}
	var smp *rssSampler
	if e.inProcess() {
		smp = startRSS()
	}
	s0 := readCPUTimes()
	t0 := time.Now()
	// A pass runs in blocks of about a second. Interleaved passes take turns
	// every round in-process, and every half second over the wire, where
	// the counters read at each turn cost the server a little.
	blockLen := time.Second
	if len(ps) > 1 {
		blockLen = 500 * time.Millisecond
		if e.inProcess() {
			blockLen = 0
		}
	}
	for b := 0; time.Since(t0) < d; b++ {
		cur := &ps[b%len(ps)]
		cur.p.block = len(cur.blocks)
		c0, cpu0, chk0, ops0, st0, b0 := e.counters(), e.programCPU(), cur.p.checkCPU, cur.p.ops, readCPUTimes(), time.Now()
		for first := true; time.Since(t0) < d && (first || time.Since(b0) < blockLen); first = false {
			e.round(cur.p)
		}
		if smp != nil {
			cur.rss = append(cur.rss, smp.take())
		}
		cur.wall += time.Since(b0)
		cpu := e.programCPU() - cpu0
		if e.inProcess() {
			cpu -= cur.p.checkCPU - chk0
		}
		cur.cpu += cpu
		cur.blocks = append(cur.blocks, block{steal: stealPct(st0, readCPUTimes()), cpu: cpu, ops: cur.p.ops - ops0})
		cur.last = e.counters()
		cur.delta = cur.delta.plus(cur.last.minus(c0))
	}
	steal := stealPct(s0, readCPUTimes())
	if smp != nil {
		smp.finish()
	}
	for i := range ps {
		ps[i].steal = steal
	}
	return ps
}

// rssSampler reads the benchmark process's resident set every 10 ms,
// which catches the peaks of the collector's cycles, and keeps the highest
// reading since it was last taken.
type rssSampler struct {
	stop, done chan struct{}
	peakKiB    atomic.Uint64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.read()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *rssSampler) read() {
	if r, err := statusMiB("self", "VmRSS"); err == nil {
		kib := uint64(r * 1024)
		for old := s.peakKiB.Load(); kib > old && !s.peakKiB.CompareAndSwap(old, kib); old = s.peakKiB.Load() {
		}
	}
}

// take returns the highest reading since the last take, MiB, and starts
// the next stretch.
func (s *rssSampler) take() float64 {
	s.read()
	return float64(s.peakKiB.Swap(0)) / 1024
}

// finish stops the sampler and waits for it to end.
func (s *rssSampler) finish() {
	close(s.stop)
	<-s.done
}

func (c counters) minus(b counters) counters {
	out := counters{
		resultHits: c.resultHits - b.resultHits, resultMisses: c.resultMisses - b.resultMisses,
		tokenHits: c.tokenHits - b.tokenHits, tokenMisses: c.tokenMisses - b.tokenMisses,
		planHits: c.planHits - b.planHits, planMisses: c.planMisses - b.planMisses,
		totalAlloc: c.totalAlloc - b.totalAlloc,
		gcCPU:      c.gcCPU - b.gcCPU, gcSpan: c.gcSpan - b.gcSpan,
	}
	for i := range c.shardLookups {
		out.shardLookups = append(out.shardLookups, c.shardLookups[i]-b.shardLookups[i])
	}
	return out
}

func (c counters) plus(b counters) counters {
	out := counters{
		resultHits: c.resultHits + b.resultHits, resultMisses: c.resultMisses + b.resultMisses,
		tokenHits: c.tokenHits + b.tokenHits, tokenMisses: c.tokenMisses + b.tokenMisses,
		planHits: c.planHits + b.planHits, planMisses: c.planMisses + b.planMisses,
		totalAlloc: c.totalAlloc + b.totalAlloc,
		gcCPU:      c.gcCPU + b.gcCPU, gcSpan: c.gcSpan + b.gcSpan,
	}
	out.shardLookups = append([]uint64(nil), b.shardLookups...)
	for i := range c.shardLookups {
		out.shardLookups[i] += c.shardLookups[i]
	}
	return out
}

func (ps pass) cpuPerOp() float64 {
	if ps.p.ops == 0 {
		return 0
	}
	return ms(ps.cpu) / float64(ps.p.ops)
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps a workload name to its set-up: it builds the system
// (several times where one set-up is too short to time on its own),
// records the set-up operations' checks in p, and returns the system kept
// for the run with the median set-up time in seconds.
var workloads = map[string]func(o *options, p *phase) (env, float64, error){
	"gtopdb-wire":   setupWire,
	"citegraph-mix": setupMix,
	"citegraph-lsm": setupLSM,
}

func main() {
	var o options
	var trace, repeat int
	flag.StringVar(&o.workload, "workload", "", "workload name: gtopdb-wire, citegraph-mix or citegraph-lsm")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the timed pass")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.IntVar(&repeat, "repeat", 0, "steadiness mode: run the workload this many times on successive seeds and report the spread of every metric")
	flag.StringVar(&o.out, "out", ".bench_build", "build and scratch directory")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if repeat > 0 {
		if err := steadiness(o, trace, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func run(o options) error {
	var err error
	if o.out, err = filepath.Abs(o.out); err != nil {
		return err
	}
	setupPhase := newPhase(nil)
	e, setupS, err := workloads[o.workload](&o, setupPhase)
	if err != nil {
		return err
	}
	defer e.close()
	if e.inProcess() {
		// The timed pass starts without the set-ups' memory.
		debug.FreeOSMemory()
	}
	d := time.Duration(o.seconds * float64(time.Second))
	res := result{Metrics: map[string]metric{}}
	ref := map[string]any{"workload": o.workload, "seed": o.seed}
	var passes []pass
	if !o.trace {
		ps := measure(e, d, newPhase(nil))[0]
		passes = append(passes, ps)
		// In-process, the peak is the median of the blocks' peaks: it follows
		// memory that grows over the pass, where the single highest reading
		// follows when the collector last ran (the reference line keeps it).
		rss, err := e.peakRSS(median(ps.rss))
		if err != nil {
			return err
		}
		p := ps.p
		for _, k := range []string{"cite", "stream_first", "batch"} {
			if len(p.lat[k]) == 0 {
				return fmt.Errorf("%s: no %s operation completed in %v", o.workload, k, d)
			}
		}
		q := ps.quiet()
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["cite_p50_ms"] = metric{ps.p50("cite", q), "ms"}
		res.Metrics["stream_first_tuple_p50_ms"] = metric{ps.p50("stream_first", q), "ms"}
		res.Metrics["batch_p50_ms"] = metric{ps.p50("batch", q), "ms"}
		res.Metrics["cpu_ms_per_op"] = metric{ps.cpuPerOpIn(q), "ms"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
		all := map[int]bool{}
		for i := range ps.blocks {
			all[i] = true
		}
		ref["all_blocks"] = map[string]float64{"cite_p50_ms": ps.p50("cite", all),
			"stream_first_tuple_p50_ms": ps.p50("stream_first", all), "batch_p50_ms": ps.p50("batch", all),
			"cpu_ms_per_op": ps.cpuPerOpIn(all)}
		ref["blocks"], ref["quiet_blocks"] = len(ps.blocks), len(q)
		ref["throughput_ops_per_s"] = float64(p.ops) / ps.wall.Seconds()
		ref["steal_pct"] = ps.steal
		if len(ps.rss) > 0 {
			ref["rss_block_peaks_mib"] = ps.rss
		}
		ref["latency_ms"] = latencyFigures(p.lat)
		if ip, ok := e.(interface{ ownHeapMiB() float64 }); ok {
			// In-process, the resident set holds the checks' memory and
			// their garbage adds collector work to the program's calls: how
			// much of each there is.
			ref["check_alloc_share"] = float64(p.checkMem) / float64(max(ps.delta.totalAlloc, 1))
			ref["check_heap_mib"] = ip.ownHeapMiB()
		}
	} else {
		// Untraced and traced blocks take turns: the untraced pass gives the
		// CPU baseline the tracing overhead is measured against, and the
		// cache ratios (Explain bypasses the result cache); the traced pass
		// gives the per-layer figures.
		tr := newTracer()
		ps := measure(e, d, newPhase(nil), newPhase(tr))
		pu, pt := ps[0], ps[1]
		passes = append(passes, pu, pt)
		if err := os.MkdirAll(filepath.Join(o.out, "traces"), 0o755); err != nil {
			return err
		}
		path := filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.writeFile(path); err != nil {
			return err
		}
		spans, err := readTrace(path)
		if err != nil {
			return err
		}
		// Per-layer figures are per operation the pass completed; the trace
		// also holds roots for calls timed apart from any operation.
		st := analyzeTrace(spans)
		st.ops = pt.p.ops
		layers, extra, err := perLayer(e, pu, pt, st)
		if err != nil {
			return err
		}
		for k, v := range layers {
			res.Metrics[k] = v
		}
		ref["trace_file"] = path
		ref["trace_spans"] = len(spans)
		ref["layers_extra"] = extra
		ref["stage_ms_per_op"] = stageBreakdown(st)
		ref["steal_pct"] = (pu.steal + pt.steal) / 2
	}
	res.Correct = setupPhase.mismatch == 0
	res.Attempted, res.Failed = setupPhase.ops, setupPhase.failed
	errs := setupPhase.errs
	for _, ps := range passes {
		res.Attempted += ps.p.ops
		res.Failed += ps.p.failed
		res.Correct = res.Correct && ps.p.mismatch == 0
		errs = append(errs, ps.p.errs...)
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "e2ebench: failed:", e)
	}
	b, _ := json.Marshal(map[string]any{"reference": ref})
	fmt.Println(string(b))
	b, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// latencyFigures are the reference tails: the median, and the highest of
// p90/p99 that has at least ten samples beyond it, with the sample count.
func latencyFigures(lat map[string][]float64) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for k, xs := range lat {
		f := map[string]float64{"n": float64(len(xs)), "p50": median(xs)}
		if len(xs) >= 100 {
			f["p90"] = percentile(xs, 90)
		}
		if len(xs) >= 1000 {
			f["p99"] = percentile(xs, 99)
		}
		out[k] = f
	}
	return out
}

// stageBreakdown is the traced pass's time per operation by span name:
// its total, and its self time (less the part its children cover).
func stageBreakdown(st traceStats) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for name, v := range st.total {
		if !strings.HasPrefix(name, "op:") {
			out[name] = map[string]float64{"total": st.perOp(v), "self": st.perOp(st.self[name])}
		}
	}
	return out
}

// perLayer turns a traced pass (and the untraced half before it) into the
// per-layer metrics every workload reports, plus the figures of layers
// only some workloads run.
func perLayer(e env, pu, pt pass, st traceStats) (map[string]metric, map[string]float64, error) {
	m := map[string]metric{}
	c := pu.delta
	m["citare.result_cache_hit_ratio"] = metric{ratio(c.resultHits, c.resultMisses), "ratio"}
	m["cache.token_hit_ratio"] = metric{ratio(c.tokenHits, c.tokenMisses), "ratio"}
	m["core.plan_cache_hit_ratio"] = metric{ratio(c.planHits, c.planMisses), "ratio"}
	alloc := c.totalAlloc
	if e.inProcess() {
		alloc -= min(alloc, pu.p.checkMem)
	}
	m["runtime.alloc_mib_per_op"] = metric{float64(alloc) / (1 << 20) / float64(max(pu.p.ops, 1)), "MiB"}
	gc := 0.0
	if c.gcSpan > 0 {
		gc = c.gcCPU / c.gcSpan
	}
	m["runtime.gc_cpu_fraction"] = metric{gc, "ratio"}
	peak := 1.0
	if n := len(c.shardLookups); n > 1 {
		var sum, mx float64
		for _, l := range c.shardLookups {
			d := float64(l)
			sum += d
			mx = max(mx, d)
		}
		if sum > 0 {
			peak = mx / (sum / float64(n))
		}
	}
	m["shard.lookup_peak_over_mean"] = metric{peak, "ratio"}
	m["lsm.flushes"] = metric{float64(pt.last.lsmFlushes), "count"}
	m["lsm.compactions"] = metric{float64(pt.last.lsmCompacts), "count"}
	m["lsm.disk_bytes_per_user_byte"] = metric{pt.last.diskPerUserByte, "ratio"}
	heap, err := e.heapLiveMiB()
	if err != nil {
		return nil, nil, err
	}
	m["runtime.heap_live_mib"] = metric{heap, "MiB"}
	m["citesrv.resp_kib_per_op"] = metric{float64(pu.p.respBytes) / 1024 / float64(max(pu.p.ops, 1)), "KiB"}
	base := pu.cpuPerOp()
	overhead := 0.0
	if base > 0 {
		overhead = 100 * (pt.cpuPerOp() - base) / base
	}
	m["obs.trace_overhead_pct"] = metric{overhead, "%"}

	m["datalog.parse_us"] = metric{st.meanOf("datalog.ParseQuery", 1000), "us"}
	m["sqlfe.parse_us"] = metric{st.meanOf("sqlfe.Parse", 1000), "us"}
	m["rewrite.ms_per_op"] = metric{st.perOp(st.total["prog.rewrite"]), "ms"}
	// Per citation the program computed (batches hold several).
	m["rewrite.rewritings_per_op"] = metric{st.attrSum["prog.rewrite.rewritings"] / float64(max(st.count["prog.rewrite"], 1)), "count"}
	compile := st.total["prog.compile"]
	m["eval.compile_ms_per_op"] = metric{st.perOp(compile), "ms"}
	// eval: the eval stage less the compilations it holds.
	m["eval.ms_per_op"] = metric{st.perOp(st.total["prog.eval"] - st.childSum["prog.eval>prog.compile"]), "ms"}
	fpt := 0.0
	if t := st.attrSum["prog.eval.tuples"]; t > 0 {
		fpt = st.attrSum["prog.eval.frames"] / t
	}
	m["eval.frames_per_tuple"] = metric{fpt, "ratio"}
	m["eval.shard_skew"] = metric{st.skew, "ratio"}
	m["eval.retries_per_kop"] = metric{1000 * st.perOp(float64(st.retries)), "count"}
	m["core.views_ms_per_op"] = metric{st.perOp(st.total["prog.views"]), "ms"}
	m["core.gather_ms_per_op"] = metric{st.perOp(st.total["prog.gather"]), "ms"}
	m["format.render_ms_per_op"] = metric{st.perOp(st.total["prog.render"]), "ms"}

	extra := map[string]float64{}
	e.extraLayers(st, extra)
	return m, extra, nil
}

// steadiness runs the workload n times on seeds seed..seed+n-1, each in a
// fresh process, and reports every metric's median, quartiles and spread
// against its BENCHMARK.json bound, with the host fingerprint and each
// run's steal share.
func steadiness(o options, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bj struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(raw, &bj); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bj.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	fmt.Printf("host: cpu %q, nproc %d, GOMAXPROCS %d, %s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	values := map[string][]float64{}
	units := map[string]string{}
	failedShare := map[string]bool{}
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		out, err := runChild(self, o, trace, seed)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		var ref struct {
			Reference map[string]any `json:"reference"`
		}
		if len(lines) >= 2 {
			_ = json.Unmarshal([]byte(lines[len(lines)-2]), &ref) // reference line is informational
		}
		fmt.Printf("run %d seed %d: correct %v attempted %d failed %d steal %.2f%%\n",
			i+1, seed, res.Correct, res.Attempted, res.Failed, ref.Reference["steal_pct"])
		var vals []string
		for _, k := range sortedKeys(res.Metrics) {
			vals = append(vals, fmt.Sprintf("%s=%.4g", k, res.Metrics[k].Value))
		}
		fmt.Printf("  %s\n", strings.Join(vals, " "))
		failedShare[fmt.Sprintf("%.12f", float64(res.Failed)/float64(max(res.Attempted, 1)))] = true
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
	}
	names := sortedKeys(values)
	fmt.Printf("%-32s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, k := range names {
		q1, med, q3 := quartiles(values[k])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		b := "-"
		if bd, ok := bounds[k]; ok {
			b = fmt.Sprintf("%.3f", bd)
		}
		fmt.Printf("%-32s %12.4f %12.4f %12.4f %8.3f %8s %s\n", k, q1, med, q3, spread, b, units[k])
	}
	fmt.Printf("failed share identical across runs: %v\n", len(failedShare) == 1)
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func runChild(self string, o options, trace int, seed int64) (string, error) {
	args := []string{"-out", o.out, "-workload", o.workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace)}
	var stdout strings.Builder
	cmd := exec.Command(self, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", err
	}
	return stdout.String(), nil
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
