package main

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"citare/internal/storage"
)

// checker holds what every answer is compared with: the benchmark's own
// copy of the data, and the first answer seen to each query at each data
// version. The wire workload's two connections share one checker; the
// in-process workloads also move its head version as they write.
type checker struct {
	mu      sync.Mutex
	ref     *refDB
	neutral string // a phrase of the neutral dataset citation
	// rows memoizes the reference answers, and expect the first answer
	// seen, per "<data version>\x00<query>": every later answer at that
	// version, by any path and (for fixity) through AsOf, must equal it.
	rows   map[string]rowSet
	expect map[string]*answer
	// headNS names the head version; incoming maps an incoming-list query
	// to its work and indeg counts that work's citations at head, from the
	// generated and inserted Cites edges.
	headNS   string
	incoming map[string]string
	indeg    map[string]int
}

// answer is what a client received for one query.
type answer struct {
	rows     [][]string
	polys    []string
	rendered string   // unary and batch paths: the aggregate citation
	tuples   []string // stream path: the per-tuple citations
}

func newChecker(db *storage.DB, neutral string) *checker {
	c := &checker{ref: refFromDB(db), neutral: neutral, rows: map[string]rowSet{},
		expect: map[string]*answer{}, headNS: "v0", incoming: map[string]string{}, indeg: map[string]int{}}
	for _, t := range c.ref.tuples("Cites") {
		c.indeg[t[1]]++
	}
	return c
}

// check compares an answer to q (whose datalog text is text) at version ns
// with the benchmark's evaluation of q, and with the first answer to the
// same query at that version: rows, polynomials, the aggregate citation and
// the per-tuple citations must be identical across paths and forms.
func (c *checker) check(ns, text string, q *query, a *answer) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := ns + "\x00" + text
	want, ok := c.rows[k]
	if !ok {
		// Only head reads compute a reference answer; a version's entry
		// outlives the head moving on.
		if ns != c.headNS {
			return fmt.Errorf("no reference answer at version %s", ns)
		}
		want = c.ref.eval(q)
		c.rows[k] = want
	}
	if err := sameRows(a.rows, want); err != nil {
		return err
	}
	if len(a.polys) != len(a.rows) {
		return fmt.Errorf("%d polynomials for %d rows", len(a.polys), len(a.rows))
	}
	if w, ok := c.incoming[text]; ok && ns == c.headNS && len(a.rows) != c.indeg[w] {
		return fmt.Errorf("%d citing works, in-degree of %s is %d", len(a.rows), w, c.indeg[w])
	}
	if a.rendered != "" && !strings.Contains(a.rendered, c.neutral) {
		return fmt.Errorf("aggregate citation lacks the neutral dataset citation")
	}
	x := c.expect[k]
	if x == nil {
		c.expect[k] = a
		return nil
	}
	if err := sameAnswer(x, a); err != nil {
		return err
	}
	switch {
	case a.rendered != "" && x.rendered == "":
		x.rendered = a.rendered
	case a.rendered != "" && a.rendered != x.rendered:
		return fmt.Errorf("citation differs from an earlier answer to the same query")
	case a.tuples != nil && x.tuples == nil:
		x.tuples = a.tuples
	case a.tuples != nil && !slices.Equal(a.tuples, x.tuples):
		return fmt.Errorf("stream path: tuple citations differ from an earlier stream")
	}
	return nil
}

// sameAnswer requires b's tuples and polynomials to equal a's, in order.
func sameAnswer(a, b *answer) error {
	if len(a.rows) != len(b.rows) || len(a.polys) != len(b.polys) {
		return fmt.Errorf("answer size differs from an earlier answer to the same query")
	}
	for i := range a.rows {
		if !slices.Equal(a.rows[i], b.rows[i]) || a.polys[i] != b.polys[i] {
			return fmt.Errorf("tuple %d differs from an earlier answer to the same query", i)
		}
	}
	return nil
}

// noteIncoming marks text as the incoming-reference list of work w, whose
// answer must have as many rows as w's in-degree.
func (c *checker) noteIncoming(text, w string) {
	c.mu.Lock()
	c.incoming[text] = w
	c.mu.Unlock()
}

// wrote records tuples the benchmark committed, which made ns the head.
func (c *checker) wrote(ns string, tuples [][]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range tuples {
		c.ref.insert(t[0], t[1:]...)
		if t[0] == "Cites" {
			c.indeg[t[2]]++
		}
	}
	c.headNS = ns
}

// forget drops the reference answers and first answers of every version
// keep rejects.
func (c *checker) forget(keep func(ns string) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.rows {
		if ns, _, _ := strings.Cut(k, "\x00"); !keep(ns) {
			delete(c.rows, k)
		}
	}
	for k := range c.expect {
		if ns, _, _ := strings.Cut(k, "\x00"); !keep(ns) {
			delete(c.expect, k)
		}
	}
}
