package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"citare/internal/storage"
)

// The benchmark keeps its own model of every query it sends, read from the
// datalog text with a parser of its own, so that the answer checks do not
// rest on the program's parser, planner or evaluator.

// term is a variable or a constant in an atom.
type term struct {
	name  string // variable name, or the constant's value
	konst bool
}

type atom struct {
	rel  string
	args []term
}

// binding is a "Var = const" comparison.
type binding struct{ v, c string }

// query is a conjunctive query: head variables, body atoms and equality
// bindings of variables to constants.
type query struct {
	head  []string
	atoms []atom
	eqs   []binding
}

// parseQuery reads the datalog subset the workloads generate:
//
//	Q(H1, H2) :- Rel(A, B), A = "c", Rel2(B, "d")
func parseQuery(text string) (*query, error) {
	lhs, body, ok := strings.Cut(text, ":-")
	if !ok {
		return nil, fmt.Errorf("query %q: no ':-'", text)
	}
	q := &query{}
	h := strings.TrimSpace(lhs)
	open, close := strings.IndexByte(h, '('), strings.LastIndexByte(h, ')')
	if open < 0 || close < open {
		return nil, fmt.Errorf("query %q: bad head", text)
	}
	for _, v := range splitTop(h[open+1 : close]) {
		q.head = append(q.head, strings.TrimSpace(v))
	}
	for _, part := range splitTop(body) {
		part = strings.TrimSpace(part)
		if v, c, ok := strings.Cut(part, "="); ok && !strings.Contains(v, "(") {
			val, err := strconv.Unquote(strings.TrimSpace(c))
			if err != nil {
				return nil, fmt.Errorf("query %q: constant %s: %v", text, c, err)
			}
			q.eqs = append(q.eqs, binding{strings.TrimSpace(v), val})
			continue
		}
		open, close := strings.IndexByte(part, '('), strings.LastIndexByte(part, ')')
		if open < 0 || close < open {
			return nil, fmt.Errorf("query %q: bad atom %q", text, part)
		}
		a := atom{rel: strings.TrimSpace(part[:open])}
		for _, arg := range splitTop(part[open+1 : close]) {
			arg = strings.TrimSpace(arg)
			if strings.HasPrefix(arg, `"`) {
				val, err := strconv.Unquote(arg)
				if err != nil {
					return nil, fmt.Errorf("query %q: constant %s: %v", text, arg, err)
				}
				a.args = append(a.args, term{name: val, konst: true})
			} else {
				a.args = append(a.args, term{name: arg})
			}
		}
		q.atoms = append(q.atoms, a)
	}
	return q, nil
}

// splitTop splits s at commas outside parentheses and double quotes.
func splitTop(s string) []string {
	var out []string
	depth, inStr, start := 0, false, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inStr && c == '\\':
			i++
		case c == '"':
			inStr = !inStr
		case !inStr && c == '(':
			depth++
		case !inStr && c == ')':
			depth--
		case !inStr && depth == 0 && c == ',':
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if strings.TrimSpace(s[start:]) != "" {
		out = append(out, s[start:])
	}
	return out
}

// variant renders an equivalent datalog form with the atoms in reverse
// order, every variable renamed and the bindings moved to the end: the
// citation must not depend on any of it.
func (q *query) variant() string {
	ren := func(v string) string { return "Z" + v }
	var b strings.Builder
	b.WriteString("Q(")
	for i, v := range q.head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(ren(v))
	}
	b.WriteString(") :- ")
	for i := len(q.atoms) - 1; i >= 0; i-- {
		a := q.atoms[i]
		if i < len(q.atoms)-1 {
			b.WriteString(", ")
		}
		b.WriteString(a.rel + "(")
		for j, t := range a.args {
			if j > 0 {
				b.WriteString(", ")
			}
			if t.konst {
				b.WriteString(strconv.Quote(t.name))
			} else {
				b.WriteString(ren(t.name))
			}
		}
		b.WriteString(")")
	}
	for _, e := range q.eqs {
		fmt.Fprintf(&b, ", %s = %s", ren(e.v), strconv.Quote(e.c))
	}
	return b.String()
}

// sql renders the query as conjunctive SQL over the schema's column names:
// one aliased table per atom, joins on shared variables, bindings as
// literal comparisons.
func (q *query) sql(schema *storage.Schema) (string, error) {
	type pos struct {
		alias, col string
	}
	first := map[string]pos{}
	var from, where []string
	for i, a := range q.atoms {
		rs := schema.Relation(a.rel)
		if rs == nil {
			return "", fmt.Errorf("sql: unknown relation %s", a.rel)
		}
		cols := rs.ColNames()
		if len(cols) != len(a.args) {
			return "", fmt.Errorf("sql: %s arity %d, want %d", a.rel, len(a.args), len(cols))
		}
		alias := fmt.Sprintf("t%d", i)
		from = append(from, a.rel+" "+alias)
		for j, t := range a.args {
			p := pos{alias, cols[j]}
			switch {
			case t.konst:
				where = append(where, fmt.Sprintf("%s.%s = %s", p.alias, p.col, sqlQuote(t.name)))
			default:
				if f, ok := first[t.name]; ok {
					where = append(where, fmt.Sprintf("%s.%s = %s.%s", f.alias, f.col, p.alias, p.col))
				} else {
					first[t.name] = p
				}
			}
		}
	}
	for _, e := range q.eqs {
		f, ok := first[e.v]
		if !ok {
			return "", fmt.Errorf("sql: binding of unused variable %s", e.v)
		}
		where = append(where, fmt.Sprintf("%s.%s = %s", f.alias, f.col, sqlQuote(e.c)))
	}
	var sel []string
	for _, v := range q.head {
		f, ok := first[v]
		if !ok {
			return "", fmt.Errorf("sql: head variable %s not in body", v)
		}
		sel = append(sel, f.alias+"."+f.col)
	}
	s := "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		s += " WHERE " + strings.Join(where, " AND ")
	}
	return s, nil
}

func sqlQuote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// refDB is the benchmark's own copy of the data: every relation as a list
// of tuples, with the writes the benchmark made appended, and a hash index
// on each column a query has bound, built when first needed and kept up to
// date by insert.
type refDB struct {
	rels map[string][][]string
	idx  map[column]map[string][]int // column → value → tuple positions
}

type column struct {
	rel string
	col int
}

func refFromDB(db *storage.DB) *refDB {
	r := &refDB{rels: map[string][][]string{}, idx: map[column]map[string][]int{}}
	for _, rs := range db.Schema().Relations() {
		db.Relation(rs.Name).Scan(func(t storage.Tuple) bool {
			r.rels[rs.Name] = append(r.rels[rs.Name], append([]string(nil), t...))
			return true
		})
	}
	return r
}

func (r *refDB) tuples(rel string) [][]string { return r.rels[rel] }

func (r *refDB) insert(rel string, vals ...string) {
	r.rels[rel] = append(r.rels[rel], vals)
	for c, ix := range r.idx {
		if c.rel == rel {
			ix[vals[c.col]] = append(ix[vals[c.col]], len(r.rels[rel])-1)
		}
	}
}

func (r *refDB) index(rel string, col int) map[string][]int {
	c := column{rel, col}
	ix, ok := r.idx[c]
	if !ok {
		ix = map[string][]int{}
		for i, t := range r.rels[rel] {
			ix[t[col]] = append(ix[t[col]], i)
		}
		r.idx[c] = ix
	}
	return ix
}

// rowSet is a query's distinct answer rows, sorted, with each row's key
// (its values joined by NUL).
type rowSet struct {
	rows [][]string
	keys []string
}

// eval answers q by nested loops over the reference tuples, in atom order.
// Each atom probes the index of its first constant or bound argument, and
// scans its relation when it has none. Nothing is allocated per tuple
// scanned, so the checks leave little garbage for the collector to charge
// to the program's timed calls.
func (r *refDB) eval(q *query) rowSet {
	bind := map[string]string{}
	for _, e := range q.eqs {
		if old, ok := bind[e.v]; ok && old != e.c {
			return rowSet{}
		}
		bind[e.v] = e.c
	}
	var out rowSet
	seen := map[string]bool{}
	set := make([][]string, len(q.atoms)) // per atom: the variables a tuple bound
	var walk func(i int)
	walk = func(i int) {
		if i == len(q.atoms) {
			row := make([]string, len(q.head))
			for j, v := range q.head {
				row[j] = bind[v]
			}
			if k := strings.Join(row, "\x00"); !seen[k] {
				seen[k] = true
				out.rows = append(out.rows, row)
				out.keys = append(out.keys, k)
			}
			return
		}
		a := q.atoms[i]
		ts := r.rels[a.rel]
		var pos []int
		probed := false
		for j, arg := range a.args {
			v, ok := arg.name, arg.konst
			if !ok {
				v, ok = bind[arg.name]
			}
			if ok {
				pos, probed = r.index(a.rel, j)[v], true
				break
			}
		}
		n := len(ts)
		if probed {
			n = len(pos)
		}
		for p := 0; p < n; p++ {
			t := ts[p]
			if probed {
				t = ts[pos[p]]
			}
			s, match := set[i][:0], true
			for j, arg := range a.args {
				if arg.konst {
					match = t[j] == arg.name
				} else if b, ok := bind[arg.name]; ok {
					match = b == t[j]
				} else {
					bind[arg.name] = t[j]
					s = append(s, arg.name)
				}
				if !match {
					break
				}
			}
			if match {
				walk(i + 1)
			}
			for _, v := range s {
				delete(bind, v)
			}
			set[i] = s
		}
	}
	walk(0)
	sort.Sort(byKey(out))
	return out
}

type byKey rowSet

func (b byKey) Len() int           { return len(b.keys) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.rows[i], b.rows[j] = b.rows[j], b.rows[i]
}

// sameRows reports whether got holds exactly the rows of want, in any
// order.
func sameRows(got [][]string, want rowSet) error {
	if len(got) != len(want.keys) {
		return fmt.Errorf("%d rows, reference evaluation gives %d", len(got), len(want.keys))
	}
	keys := make([]string, len(got))
	for i, g := range got {
		keys[i] = strings.Join(g, "\x00")
	}
	sort.Strings(keys)
	for i, k := range keys {
		if k != want.keys[i] {
			return fmt.Errorf("row %d is %q, reference evaluation gives %q",
				i, strings.Split(k, "\x00"), want.rows[i])
		}
	}
	return nil
}
