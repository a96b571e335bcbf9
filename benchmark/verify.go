package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/tpset/tpset"
	"github.com/tpset/tpset/internal/query"
	"github.com/tpset/tpset/internal/ref"
)

// Output verification. Nothing here runs inside a timed window: the
// timed loops only compare counts against what these checks recorded.

// row is one result tuple in comparable form.
type row struct {
	fact    string
	lineage string
	ts, te  int64
	p       float64
}

// wireTuple and wireRelation mirror the service's JSON wire format —
// the contract a client sees — so the checks do not move with internal
// type changes.
type wireTuple struct {
	Fact    []string `json:"fact"`
	Lineage string   `json:"lineage"`
	Ts      int64    `json:"ts"`
	Te      int64    `json:"te"`
	P       float64  `json:"p"`
}

type wireRelation struct {
	Tuples []wireTuple `json:"tuples"`
}

func (t wireTuple) row() row {
	return row{fact: tpset.F(t.Fact...).Key(), lineage: t.Lineage, ts: t.Ts, te: t.Te, p: t.P}
}

func rowsOf(r *tpset.Relation) []row {
	out := make([]row, len(r.Tuples))
	for i := range r.Tuples {
		t := &r.Tuples[i]
		out[i] = row{fact: t.Fact.Key(), lineage: t.Lineage.String(), ts: t.T.Ts, te: t.T.Te, p: t.Prob}
	}
	return out
}

func wireRows(ts []wireTuple) []row {
	out := make([]row, len(ts))
	for i, t := range ts {
		out[i] = t.row()
	}
	return out
}

// decodeStream decodes a whole NDJSON stream body: meta line, tuple
// lines, trailer. It returns the tuples and the payload byte count
// (everything before the trailer line).
func decodeStream(body []byte) ([]row, int64, error) {
	lines := bytes.Split(bytes.TrimSuffix(body, newline), newline)
	if len(lines) < 2 {
		return nil, 0, fmt.Errorf("stream has %d lines, want meta and trailer", len(lines))
	}
	var trailer struct {
		Done   bool `json:"done"`
		Tuples int  `json:"tuples"`
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal(last, &trailer); err != nil || !trailer.Done {
		return nil, 0, fmt.Errorf("stream trailer %q is not done:true (%v)", last, err)
	}
	rows := make([]row, 0, len(lines)-2)
	for i, line := range lines[1 : len(lines)-1] {
		r, ok := scanTuple(line)
		if !ok {
			var t wireTuple
			if err := json.Unmarshal(line, &t); err != nil {
				return nil, 0, fmt.Errorf("stream line %d: %v", i+2, err)
			}
			r = t.row()
		}
		rows = append(rows, r)
	}
	if trailer.Tuples != len(rows) {
		return nil, 0, fmt.Errorf("trailer reports %d tuples, stream carried %d", trailer.Tuples, len(rows))
	}
	return rows, int64(len(body) - len(last) - 1), nil
}

// scanTuple reads one tuple line of the shape the stream encoder writes
// — {"fact":["v"],"lineage":"...","ts":1,"te":2,"p":0.5[,"varProbs":…]}
// with one attribute and no escapes — about ten times faster than
// encoding/json, which matters for a million-line dense result. Any
// other shape reports false and takes the json.Unmarshal path.
func scanTuple(line []byte) (r row, ok bool) {
	str := func(prefix string) (string, bool) {
		if !bytes.HasPrefix(line, []byte(prefix)) {
			return "", false
		}
		line = line[len(prefix):]
		end := bytes.IndexByte(line, '"')
		if end < 0 || bytes.IndexByte(line[:end], '\\') >= 0 {
			return "", false
		}
		v := string(line[:end])
		line = line[end+1:]
		return v, true
	}
	num := func(prefix string) (string, bool) {
		if !bytes.HasPrefix(line, []byte(prefix)) {
			return "", false
		}
		line = line[len(prefix):]
		end := bytes.IndexAny(line, ",}")
		if end < 0 {
			return "", false
		}
		v := string(line[:end])
		line = line[end:]
		return v, true
	}
	var ts, te, p string
	if r.fact, ok = str(`{"fact":["`); !ok {
		return r, false
	}
	if r.lineage, ok = str(`],"lineage":"`); !ok {
		return r, false
	}
	if ts, ok = num(`,"ts":`); !ok {
		return r, false
	}
	if te, ok = num(`,"te":`); !ok {
		return r, false
	}
	if p, ok = num(`,"p":`); !ok {
		return r, false
	}
	var err1, err2, err3 error
	r.ts, err1 = strconv.ParseInt(ts, 10, 64)
	r.te, err2 = strconv.ParseInt(te, 10, 64)
	r.p, err3 = strconv.ParseFloat(p, 64)
	return r, err1 == nil && err2 == nil && err3 == nil
}

// decodeQuery decodes a POST /query response body.
func decodeQuery(body []byte) ([]row, error) {
	var resp struct {
		Result wireRelation `json:"result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return wireRows(resp.Result.Tuples), nil
}

// checkCanonical checks what must hold of any result at any scale:
// canonical (fact, Ts) order, duplicate-freeness (same-fact intervals
// disjoint), maximal intervals (adjacent same-fact tuples that meet
// differ in lineage — change preservation) and probabilities in (0,1].
func checkCanonical(rows []row) error {
	for i := range rows {
		r := &rows[i]
		if r.ts >= r.te {
			return fmt.Errorf("tuple %d: empty interval [%d,%d)", i, r.ts, r.te)
		}
		if !(r.p > 0 && r.p <= 1+1e-12) {
			return fmt.Errorf("tuple %d: probability %v outside (0,1]", i, r.p)
		}
		if i == 0 {
			continue
		}
		prev := &rows[i-1]
		switch {
		case prev.fact > r.fact:
			return fmt.Errorf("tuple %d: fact %q after %q breaks canonical order", i, r.fact, prev.fact)
		case prev.fact < r.fact:
		case prev.te > r.ts:
			return fmt.Errorf("tuple %d (%s): [%d,%d) overlaps or precedes [%d,%d) — not duplicate-free in order",
				i, r.fact, r.ts, r.te, prev.ts, prev.te)
		case prev.te == r.ts && prev.lineage == r.lineage:
			return fmt.Errorf("tuple %d (%s): [%d,%d) and [%d,%d) meet with equal lineage — interval not maximal",
				i, r.fact, prev.ts, prev.te, r.ts, r.te)
		}
	}
	return nil
}

func sortRows(rows []row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].fact != rows[j].fact {
			return rows[i].fact < rows[j].fact
		}
		return rows[i].ts < rows[j].ts
	})
}

// sameRows compares two results tuple for tuple: fact, interval,
// rendered lineage, probability within 1e-9. Both are put in (fact, Ts)
// order first.
func sameRows(got, want []row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tuples, want %d", len(got), len(want))
	}
	sortRows(got)
	sortRows(want)
	for i := range got {
		g, w := got[i], want[i]
		if g.fact != w.fact || g.ts != w.ts || g.te != w.te || g.lineage != w.lineage || math.Abs(g.p-w.p) > 1e-9 {
			return fmt.Errorf("tuple %d: got (%s %s [%d,%d) %v), want (%s %s [%d,%d) %v)",
				i, g.fact, g.lineage, g.ts, g.te, g.p, w.fact, w.lineage, w.ts, w.te, w.p)
		}
	}
	return nil
}

// refRows evaluates q over db with the Def. 3 oracle, one ref.Apply per
// set operation of the tree.
func refRows(q string, db map[string]*tpset.Relation) ([]row, error) {
	n, err := tpset.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	out, err := refEval(n, db)
	if err != nil {
		return nil, err
	}
	return rowsOf(out), nil
}

func refEval(n tpset.Query, db map[string]*tpset.Relation) (*tpset.Relation, error) {
	switch q := n.(type) {
	case *query.Rel:
		r, ok := db[q.Name]
		if !ok {
			return nil, fmt.Errorf("oracle: unknown relation %q", q.Name)
		}
		return r, nil
	case *query.SetOp:
		l, err := refEval(q.Left, db)
		if err != nil {
			return nil, err
		}
		r, err := refEval(q.Right, db)
		if err != nil {
			return nil, err
		}
		return ref.Apply(q.Op, l, r), nil
	}
	return nil, fmt.Errorf("oracle: unsupported query node %T", n)
}

// sameRelationJSON reports whether two relation wire bodies (a PUT body
// and a GET /relations response) hold the same tuples.
func sameRelationJSON(got, want []byte) error {
	var g, w wireRelation
	if err := json.Unmarshal(got, &g); err != nil {
		return err
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return err
	}
	return sameRows(wireRows(g.Tuples), wireRows(w.Tuples))
}

// queryRelations lists the distinct relation names of q.
func queryRelations(q string) []string {
	n, err := tpset.ParseQuery(q)
	if err != nil {
		return nil
	}
	return query.Relations(n)
}

// putBody is a pre-encoded PUT /relations/{name} body plus the byte
// offsets of the fact names a "fresh" variant renames. Renaming is an
// in-place patch of a copy — same length, no re-encoding — so client B
// spends its time waiting for tpserve, not building JSON.
type putBody struct {
	name     string
	template []byte
	offsets  []int
}

var factMark = []byte(`"fact":["`)

// newPutBody encodes rel and finds every tenth fact (by the number its
// name ends in). Fresh names take the form g<gen><rest of name>, which
// is unique per generation while names are distinct after their third
// byte — true of the generators' f%06d / file%06d names up to 10^4 facts.
func newPutBody(name string, rel *tpset.Relation) (*putBody, error) {
	data, err := tpset.MarshalRelationJSON(rel)
	if err != nil {
		return nil, err
	}
	b := &putBody{name: name, template: data}
	seen := map[string]string{}
	for at := 0; ; {
		i := bytes.Index(data[at:], factMark)
		if i < 0 {
			break
		}
		start := at + i + len(factMark)
		end := start + bytes.IndexByte(data[start:], '"')
		at = end
		fact := string(data[start:end])
		if len(fact) < 4 || fact[0] == 'g' {
			return nil, fmt.Errorf("put body %s: fact name %q cannot be renamed in place", name, fact)
		}
		if prev, ok := seen[fact[3:]]; ok && prev != fact {
			return nil, fmt.Errorf("put body %s: fact names %q and %q collide when renamed", name, prev, fact)
		}
		seen[fact[3:]] = fact
		if n := strings.TrimLeft(fact[len(fact)-4:], "0"); n == "" || n[len(n)-1] == '0' {
			b.offsets = append(b.offsets, start)
		}
	}
	if len(b.offsets) == 0 {
		return nil, fmt.Errorf("put body %s: no fact to rename", name)
	}
	return b, nil
}

const base36 = "0123456789abcdefghijklmnopqrstuvwxyz"

// fresh returns a copy of the template in which a tenth of the facts
// carry names the catalog has never seen, forcing the catalog-wide
// dictionary rebuild on admission.
func (b *putBody) fresh(gen int) []byte {
	out := append([]byte(nil), b.template...)
	for _, off := range b.offsets {
		out[off] = 'g'
		out[off+1] = base36[gen/36%36]
		out[off+2] = base36[gen%36]
	}
	return out
}
