package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"citare"
)

// span is one traced interval. Spans of one benchmark operation share Req;
// Parent is -1 for the operation's root. Times are nanoseconds since the
// tracer started.
type span struct {
	Req    int64          `json:"req"`
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the traced pass ends. A nil *tracer
// records nothing, so untraced passes run the same code.
type tracer struct {
	mu    sync.Mutex // the wire workload traces from two connections
	epoch time.Time
	spans []span
	req   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// op opens the root span of one benchmark operation.
func (t *tracer) op(kind string) (req int64, id int) {
	if t == nil {
		return 0, -1
	}
	t.mu.Lock()
	t.req++
	req = t.req
	t.mu.Unlock()
	return req, t.begin(req, -1, "op:"+kind)
}

func (t *tracer) begin(req int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Since(t.epoch).Nanoseconds()
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans), Parent: parent, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.epoch).Nanoseconds()
}

// call wraps fn, a call into one layer of the program, in a span.
func (t *tracer) call(req int64, parent int, name string, fn func()) {
	id := t.begin(req, parent, name)
	fn()
	t.end(id)
}

// importExplain adds the program's own Explain span tree under parent, as
// "prog.<stage>" spans. Explain gives durations but no start times, so
// children are laid end to end from their parent's start when they fit in
// it, and all at its start (overlapping, as concurrent shard spans are)
// when they do not.
func (t *tracer) importExplain(req int64, parent int, stages []*citare.ExplainStage) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var place func(parent int, start int64, ns []*citare.ExplainStage)
	place = func(parent int, start int64, ns []*citare.ExplainStage) {
		var sum int64
		for _, n := range ns {
			sum += n.DurationNs
		}
		seq := sum <= t.spans[parent].End-start
		at := start
		for _, n := range ns {
			t.spans = append(t.spans, span{Req: req, ID: len(t.spans), Parent: parent,
				Name: "prog." + n.Name, Start: at, End: at + n.DurationNs, Attrs: n.Attrs})
			id := len(t.spans) - 1
			place(id, at, n.Children)
			if seq {
				at += n.DurationNs
			}
		}
	}
	place(parent, t.spans[parent].Start, stages)
}

// importStageNs adds a stream trailer's per-stage totals under parent.
func (t *tracer) importStageNs(req int64, parent int, totals map[string]int64) {
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	var stages []*citare.ExplainStage
	for _, n := range names {
		stages = append(stages, &citare.ExplainStage{Name: n, DurationNs: totals[n]})
	}
	t.importExplain(req, parent, stages)
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTrace(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// traceStats are the per-layer figures read back from a trace file.
type traceStats struct {
	ops      int                // operation roots
	total    map[string]float64 // summed duration by span name, ms
	self     map[string]float64 // summed self time by span name, ms
	count    map[string]int     // spans by name
	attrSum  map[string]float64 // "<span>.<attr>" summed over spans
	childSum map[string]float64 // "<parent>><child>" summed child durations, ms
	skew     float64            // mean slowest-over-mean of sibling shard spans
	retries  int                // shard attempts past the first
	wireMs   float64            // round trips minus the server's cite spans
	wireReqs int
}

func attrNum(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	}
	return 0, false
}

func analyzeTrace(spans []span) traceStats {
	st := traceStats{total: map[string]float64{}, self: map[string]float64{},
		count: map[string]int{}, attrSum: map[string]float64{}, childSum: map[string]float64{}}
	kids := make(map[int][]int)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	var skews []float64
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e6
		st.total[s.Name] += d
		st.count[s.Name]++
		if s.Parent < 0 {
			st.ops++
		}
		for k, v := range s.Attrs {
			if n, ok := attrNum(v); ok {
				st.attrSum[s.Name+"."+k] += n
			}
		}
		if s.Name == "prog.shard-attempt" {
			if a, ok := attrNum(s.Attrs["attempt"]); ok && a > 1 {
				st.retries++
			}
		}
		// Self time: the span minus the union of its children's intervals.
		var iv [][2]int64
		var shardDur []float64
		var cite int64
		for _, c := range kids[s.ID] {
			cs := spans[c]
			st.childSum[s.Name+">"+cs.Name] += float64(cs.End-cs.Start) / 1e6
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
			if cs.Name == "prog.shard" || cs.Name == "prog.shard-attempt" {
				shardDur = append(shardDur, float64(cs.End-cs.Start))
			}
			if cs.Name == "prog.cite" {
				cite += cs.End - cs.Start
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, curLo, curHi int64 = 0, -1, -1
		for _, x := range iv {
			if x[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		covered += curHi - curLo
		st.self[s.Name] += d - float64(covered)/1e6
		if len(shardDur) >= 2 {
			var sum, mx float64
			for _, x := range shardDur {
				sum += x
				mx = max(mx, x)
			}
			if sum > 0 {
				skews = append(skews, mx/(sum/float64(len(shardDur))))
			}
		}
		if s.Name == "citesrv.http" {
			st.wireMs += max(0, d-float64(cite)/1e6)
			st.wireReqs++
		}
	}
	st.skew = 1
	if len(skews) > 0 {
		var sum float64
		for _, x := range skews {
			sum += x
		}
		st.skew = sum / float64(len(skews))
	}
	return st
}

// perOp divides a total by the traced operation count.
func (st traceStats) perOp(v float64) float64 {
	if st.ops == 0 {
		return 0
	}
	return v / float64(st.ops)
}

// meanOf is the mean duration of the named spans in unit (1 = ms).
func (st traceStats) meanOf(name string, unit float64) float64 {
	if st.count[name] == 0 {
		return 0
	}
	return st.total[name] / float64(st.count[name]) * unit
}
