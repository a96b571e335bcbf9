package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/tpset/tpset/internal/core"
	"github.com/tpset/tpset/internal/csvio"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/obs"
	"github.com/tpset/tpset/internal/relation"
)

// The differential pin of the wire encoder: whatever tuple it is
// handed, its bytes equal encoding/json's (HTML escaping off) over the
// TupleJSON / RelationJSON / QueryResponse structs — the reflection
// path the server used to run and clients still decode with.

// reflectLine is the reference: v through a json.Encoder as writeJSON
// configures it, newline included.
func reflectLine(v any) (string, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.String(), err
}

// plainNames decode back to themselves: identifiers of the lineage
// parser, valid as fact values. wireNames adds strings chosen to hit
// every branch of JSON string escaping.
var (
	plainNames = []string{"x1", "y.2", "z-3", "w_4", "é变量"}
	wireNames  = append([]string{
		`q"uote`, `back\slash`, "new\nline", "ctl\x01", "del\x7f", "bad\xffutf",
		"<&>", "ls\u2028ps\u2029", "\b\f\r\t", "trunc\xe2\x80", "", "null",
	}, plainNames...)
)

var wireMarginals = []float64{1, 1e-7, 1e-6, 0.1 + 0.2, 5e-324, 0.5, 0.999999999999}

var wireTimes = []int64{0, 1, -1, 7, math.MinInt64, math.MaxInt64, 1<<53 + 1, -1 << 40}

// wireCase is one generated relation. clean reports that every tuple is
// admissible on the decode side (parseable names, non-empty valid-UTF-8
// fact values, valid interval, p in [0,1]), so the encoded form must
// decode back to the source.
type wireCase struct {
	rel   *relation.Relation
	clean bool
}

// genWireCase builds a relation of n tuples from rng: half the cases
// clean, the other half drawing on wireNames, names (the fuzzer's own
// strings), ps (extra tuple probabilities), extreme and empty
// intervals, nil, empty and repeated facts and null lineage.
func genWireCase(rng *rand.Rand, n int, names []string, ps []float64) wireCase {
	clean := rng.Intn(2) == 0
	pool := plainNames
	if !clean {
		pool = append(append([]string{}, wireNames...), names...)
	} else {
		ps = nil
	}
	pick := func() string { return pool[rng.Intn(len(pool))] }

	var gen func(depth int) *lineage.Expr
	gen = func(depth int) *lineage.Expr {
		k := rng.Intn(4)
		if depth == 0 {
			k = 0
		}
		switch k {
		case 0:
			return lineage.Var(pick(), wireMarginals[rng.Intn(len(wireMarginals))])
		case 1:
			return lineage.Not(gen(depth - 1))
		case 2:
			return lineage.And(gen(depth-1), gen(depth-1))
		default:
			return lineage.Or(gen(depth-1), gen(depth-1))
		}
	}

	nattrs := 1 + rng.Intn(3)
	attrs := make([]string, nattrs)
	for i := range attrs {
		attrs[i] = pick()
	}
	rel := relation.New(relation.NewSchema(pick(), attrs...))
	for i := 0; i < n; i++ {
		var t relation.Tuple
		// Distinct facts keep the canonical order of source and decoded
		// relation unambiguous.
		t.Fact = relation.NewFact(fmt.Sprintf("%s#%d", pick(), i))
		for len(t.Fact) < nattrs {
			t.Fact = append(t.Fact, pick())
		}
		t.Lineage = gen(rng.Intn(7))
		t.T.Ts = rng.Int63n(1000)
		t.T.Te = t.T.Ts + 1 + rng.Int63n(50)
		switch c := rng.Intn(5 + len(ps)); {
		case c == 0:
			t.Prob = 0
		case c == 1:
			t.Prob = wireMarginals[rng.Intn(len(wireMarginals))]
		case c == 2 && t.Lineage.Kind() == lineage.KindVar:
			t.Prob = t.Lineage.VarProb() // the varProbs-omitted form
		case c <= 4:
			if leafCount(t.Lineage) <= 12 { // keep Shannon expansion cheap
				t.Prob = t.Lineage.Prob()
			}
		default:
			t.Prob = ps[c-5]
		}
		if !clean {
			switch rng.Intn(20) {
			case 0:
				t.Fact = nil // "fact":null
			case 1:
				t.Lineage = nil // "lineage":"null"
			case 2, 3, 4, 5:
				t.T.Ts = wireTimes[rng.Intn(len(wireTimes))]
				t.T.Te = wireTimes[rng.Intn(len(wireTimes))]
			case 6:
				t.Fact = relation.Fact{} // "fact":[], not null
			case 7, 8:
				// A run of one fact, equal by value: the encoder reuses
				// the row's opening, and must tell nil from empty.
				if i > 0 {
					t.Fact = slices.Clone(rel.Tuples[i-1].Fact)
				}
			}
		}
		rel.Tuples = append(rel.Tuples, t)
	}
	return wireCase{rel: rel, clean: clean}
}

// leafCount is the number of variable occurrences in e.
func leafCount(e *lineage.Expr) int {
	if e == nil {
		return 0
	}
	if e.Kind() == lineage.KindVar {
		return 1
	}
	l, r := e.Operands()
	return leafCount(l) + leafCount(r)
}

// checkWireCase holds the appender to the reflection encoder on one
// relation, twice: the first pass meets the case's variables as the
// marginal-text table holds them — empty slots, or slots an earlier
// case took for other marginals of the same names — and the second
// meets the texts the first published.
func checkWireCase(t *testing.T, rng *rand.Rand, wc wireCase) {
	t.Helper()
	checkWireCaseOnce(t, rng, wc)
	checkWireCaseOnce(t, rng, wc)
}

// checkWireCaseOnce compares tuple by tuple, as a relation body, as a
// /query body, and block by block through batchLines.
func checkWireCaseOnce(t *testing.T, rng *rand.Rand, wc wireCase) {
	t.Helper()
	rel := wc.rel
	enc := getWireEncoder()
	defer enc.release()

	encodable := true
	var wantLines strings.Builder
	for i := range rel.Tuples {
		tup := &rel.Tuples[i]
		var tj TupleJSON
		EncodeTupleInto(&tj, tup, nil)
		want, wantErr := reflectLine(&tj)
		enc.reset()
		enc.buf = append(enc.buf, "prefix"...)
		enc.snapshot()
		gotErr := enc.tuple(tup.Fact, tup.Lineage, tup.T.Ts, tup.T.Te, tup.Prob)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("tuple %d %v: encoding/json error %v, appender error %v", i, tup, wantErr, gotErr)
		}
		if gotErr != nil {
			encodable = false
			if string(enc.buf) != "prefix" {
				t.Fatalf("tuple %d: a refused tuple left %q in the buffer", i, enc.buf)
			}
			continue
		}
		if got := string(enc.buf[len("prefix"):]) + "\n"; got != want {
			t.Fatalf("tuple %d:\n got %s\nwant %s", i, got, want)
		}
		wantLines.WriteString(want)
	}

	version := uint64(rng.Intn(3))
	wantRel, wantErr := reflectLine(EncodeRelation(rel, version))
	enc.reset()
	gotErr := enc.relation(rel, version)
	if (wantErr != nil) != (gotErr != nil) || (gotErr != nil) == encodable {
		t.Fatalf("relation: encoding/json error %v, appender error %v, tuples encodable %v", wantErr, gotErr, encodable)
	}
	if !encodable {
		return
	}
	if got := string(enc.buf) + "\n"; got != wantRel {
		t.Fatalf("relation:\n got %s\nwant %s", got, wantRel)
	}

	enc.reset()
	if err := enc.relation(rel, 0); err != nil {
		t.Fatal(err)
	}
	res := &QueryResult{
		Query:         "(" + rel.Schema.Name + " & <x>)",
		Complexity:    "PTIME",
		Inputs:        []RelVersion{{Name: rel.Schema.Name, Version: 3}},
		Cached:        rng.Intn(2) == 0,
		ElapsedMicros: rng.Int63n(1e6),
		Result:        append([]byte(nil), enc.buf...),
		Tuples:        rel.Len(),
	}
	if rng.Intn(2) == 0 {
		res.Trace = &obs.SpanStats{Op: "a & <b>", TuplesOut: 4, Children: []*obs.SpanStats{{Op: "scan"}}}
	}
	wantBody, err := reflectLine(QueryResponse{
		Query: res.Query, Complexity: res.Complexity, Inputs: res.Inputs, Cached: res.Cached,
		ElapsedMicros: res.ElapsedMicros, Result: EncodeRelation(rel, 0), Trace: res.Trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc.reset()
	if err := enc.queryHead(res); err != nil {
		t.Fatal(err)
	}
	enc.buf = append(enc.buf, res.Result...)
	if err := enc.queryTail(res); err != nil {
		t.Fatal(err)
	}
	if got := string(enc.buf); got != wantBody {
		t.Fatalf("/query body:\n got %s\nwant %s", got, wantBody)
	}

	if wc.clean {
		var rj RelationJSON
		if err := json.Unmarshal([]byte(wantRel), &rj); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeRelation(rj, "")
		if err != nil {
			t.Fatalf("clean case does not decode: %v\n%s", err, wantRel)
		}
		if d := relation.Diff(back, rel); d != "" {
			t.Fatalf("decoded relation differs from the source: %s", d)
		}
	}

	// The stream's read side: blocks of three rows over the relation as
	// built — batchLines reads nothing but the rows, so hostile facts and
	// lineage reach it as they are — then, where the relation can be
	// interned and sorted, the blocks a scan hands out, whose lines must
	// equal the per-tuple ones in sorted order.
	blockLines := func(next func(*core.Batch) bool) string {
		var out []byte
		for b := core.NewBatch(3); next(b); {
			enc.reset()
			if n, err := enc.batchLines(b); err != nil || n != len(b.Tuples) {
				t.Fatalf("batchLines = %d, %v on an encodable batch of %d", n, err, len(b.Tuples))
			}
			out = append(out, enc.buf...)
		}
		return string(out)
	}
	at := 0
	if got := blockLines(func(b *core.Batch) bool {
		b.Tuples = rel.Tuples[at:min(at+b.Cap(), rel.Len())]
		at += len(b.Tuples)
		return len(b.Tuples) > 0
	}); got != wantLines.String() {
		t.Fatalf("row blocks:\n got %s\nwant %s", got, wantLines.String())
	}
	for i := range rel.Tuples {
		if rel.Tuples[i].Fact == nil {
			return // no fact key to intern
		}
	}
	sorted := rel.Clone()
	sorted.Intern()
	sorted.Sort()
	sorted.BuildCols()
	var want []byte
	for i := range sorted.Tuples {
		tup := &sorted.Tuples[i]
		enc.reset()
		enc.snapshot()
		if err := enc.tuple(tup.Fact, tup.Lineage, tup.T.Ts, tup.T.Te, tup.Prob); err != nil {
			t.Fatal(err)
		}
		want = append(append(want, enc.buf...), '\n')
	}
	if got := blockLines(core.NewScanCursor(sorted, nil).NextBatch); got != string(want) {
		t.Fatalf("scan blocks:\n got %s\nwant %s", got, want)
	}
}

// TestWireEncodeMatchesReflection is the seeded table form of
// FuzzWireEncode, plus the non-finite values a fuzzed float rarely is.
func TestWireEncodeMatchesReflection(t *testing.T) {
	extra := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.0, 1e21, 1e-300, 2, -0.25}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var ps []float64
		if seed%4 == 0 {
			ps = extra
		}
		checkWireCase(t, rng, genWireCase(rng, 1+rng.Intn(8), nil, ps))
	}
}

// TestEdgeTimestampsRoundTrip pins rows at the int64 edges of the time
// domain through a CSV round trip, then the wire differential and the
// JSON round trip. Where a row's ts is the previous row's te the
// encoder copies that te's text; the rows take that path and the
// formatting one at both edges, at 20-byte values (MinInt64+k) and
// 19-byte ones (MaxInt64−k).
func TestEdgeTimestampsRoundTrip(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	rel := relation.New(relation.NewSchema("edges", "F"))
	for i, r := range []struct {
		fact   string
		ts, te int64
	}{
		{"a", lo, lo + 2},
		{"a", lo + 2, lo + 3}, // ts is the last te
		{"a", lo + 5, 0},      // and is not
		{"b", hi - 3, hi - 1},
		{"b", hi - 1, hi},
		{"c", lo, hi},
		{"d", lo, lo + 1},
		{"d", hi - 1, hi},
	} {
		rel.AddBase(relation.NewFact(r.fact), fmt.Sprintf("edge%d", i), r.ts, r.te, 0.25*float64(1+i%4))
	}
	var csv bytes.Buffer
	if err := csvio.Write(&csv, rel); err != nil {
		t.Fatal(err)
	}
	back, err := csvio.Read(&csv, "edges")
	if err != nil {
		t.Fatal(err)
	}
	if d := relation.Diff(back, rel); d != "" {
		t.Fatalf("CSV round trip: %s", d)
	}
	checkWireCase(t, rand.New(rand.NewSource(1)), wireCase{rel: back, clean: true})
}

// FuzzWireEncode drives the same differential with fuzzer-chosen names,
// probability bits and shape seed.
func FuzzWireEncode(f *testing.F) {
	f.Add(int64(1), "x", "a b", uint64(0x3fe0000000000000))
	f.Add(int64(2), "\xff\xfe", "\u2028", math.Float64bits(1e-7))
	f.Add(int64(3), `"`, `\`, math.Float64bits(math.NaN()))
	f.Add(int64(4), "<script>&", "\x00\x1f", math.Float64bits(5e-324))
	f.Add(int64(5), "null", "", math.Float64bits(1e21))
	f.Fuzz(func(t *testing.T, seed int64, name1, name2 string, pbits uint64) {
		if len(name1)+len(name2) > 1<<10 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		wc := genWireCase(rng, 1+rng.Intn(4), []string{name1, name2}, []float64{math.Float64frombits(pbits)})
		checkWireCase(t, rng, wc)
	})
}

// TestHTTPBodiesAreReflectionBytes checks the two materialized
// responses end to end: the body a client receives re-encodes, through
// the structs it decodes into, to exactly the bytes it received.
func TestHTTPBodiesAreReflectionBytes(t *testing.T) {
	_, ts := newTestServer(t)

	_, body := do(t, "GET", ts.URL+"/relations/c", nil)
	var rj RelationJSON
	if err := json.Unmarshal(body, &rj); err != nil {
		t.Fatal(err)
	}
	if want, _ := reflectLine(rj); want != string(body) {
		t.Fatalf("GET /relations/c:\n got %s\nwant %s", body, want)
	}
	if rj.Version == 0 || len(rj.Tuples) == 0 {
		t.Fatalf("GET /relations/c carries no version or tuples: %s", body)
	}

	for _, req := range []QueryRequest{
		{Query: "c - (a | b)"},
		{Query: "c - (a | b)"}, // the cached form
		{Query: "(a | b) & c", Trace: true, LazyProb: true},
	} {
		_, body := do(t, "POST", ts.URL+"/query", req)
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if want, _ := reflectLine(qr); want != string(body) {
			t.Fatalf("POST /query %+v:\n got %s\nwant %s", req, body, want)
		}
		if len(qr.Result.Tuples) == 0 || (req.Trace && qr.Trace == nil) {
			t.Fatalf("POST /query %+v: empty result or missing trace: %s", req, body)
		}
	}
}

// TestEscapedNamesUnderConcurrentGrowth pins the escaped view while
// goroutines intern fresh names, some of which need escaping, and read
// it at once: every entry a snapshot resolves is its name as a JSON
// string carries it. Run it under -race: the view is read without a
// lock.
func TestEscapedNamesUnderConcurrentGrowth(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("esc.view.%d.%d", g, i)
				if i%7 == 0 {
					name += "\"\\\n"
				}
				lineage.Var(name, 0.5)
				names := lineage.VarNames()
				esc := escapedNames(names)
				for _, id := range []int{0, len(names) / 2, len(names) - 1} {
					want := appendJSONString(nil, names[id])
					if got := esc[id]; got != string(want[1:len(want)-1]) {
						t.Errorf("entry %d: %q, want %s", id, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
