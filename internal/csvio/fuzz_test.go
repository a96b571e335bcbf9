package csvio

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// FuzzCSVRead pins the loader against the encoding/csv loader it
// replaced (oracleRead): for every input both reject or both accept, and
// on acceptance they give the same schema and the same rows — fact
// values, lineage name, interval and the bits of p — Read's as read and
// the oracle's after Sort, an order that is total on duplicate-free
// input, so the check stays row for row. Read never panics, every
// rejection is a diagnosable "csvio:" error, and everything it accepts
// is a well-formed relation — duplicate-free, interned, in canonical
// order, and serializable back to CSV.
func FuzzCSVRead(f *testing.F) {
	for _, seed := range []string{
		"F,lineage,ts,te,p\na,x1,0,5,0.5\nb,x2,2,9,0.7\n",
		"F,G,lineage,ts,te,p\na,b,x1,0,5,1\n",
		"\xEF\xBB\xBFF,lineage,ts,te,p\r\na,x1,0,5,0.5\r\n",
		"F,lineage,ts,te,p\na,x1 ∧ x2,0,5,0.5\n",
		"F,lineage,ts,te,p\n",
		"F,lineage,ts,te,p\na,x1,5,5,0.5\n",               // empty interval: must error
		"F,lineage,ts,te,p\na,x1,0,5,1.5\n",               // probability out of range
		"F,lineage,ts,te,p\na,x1,0,5,NaN\n",               // NaN probability
		"F,lineage,ts,te,p\na,,0,5,0.5\n",                 // empty lineage
		"F,lineage,ts,te,p\na,x1,zero,5,0.5\n",            // unparsable ts
		"F,lineage,ts,te,p\na,x1,0,5,0.5\na,x2,3,8,0.5\n", // overlap: duplicate
		"too,few\n",
		"",
		`F,lineage,ts,te,p` + "\n" + `"a ""b"", c",x1,0,5,0.5` + "\n" + `"d,e",x2,0,5,0.5` + "\n", // "" escapes, quoted commas
		"F,lineage,ts,te,p\n\"a\nb\",x1,0,5,0.5\n\"c\r\nd\",x2,0,5,0.5\r\n",                       // multi-line fields, CRLF inside quotes
		"F,lineage,ts,te,p\na,x1,0,5,0.5\r",                                                       // trailing \r at EOF
		"F,lineage,ts,te,p\r\na,x1,0,5,0.5\r\r",                                                   // \r kept before the final one
		"F,lineage,ts,te,p\na\"b,x1,0,5,0.5\n",                                                    // bare quote
		"F,lineage,ts,te,p\n\"a\"b,x1,0,5,0.5\n",                                                  // stray quote after a quoted field
		"F,lineage,ts,te,p\n\"a,x1,0,5,0.5\n",                                                     // unterminated quote
		"\xEF\xBB\xBF\nF,lineage,ts,te,p\n\n\r\na,x1,0,5,0.5\n\n",                                 // BOM, blank lines
		"F,lineage,ts,te,p\na,(x1∨y1)∧¬z1,0,5,0.5\nb,ärger_1.x-2,0,5,0.5\n",                       // formula, non-ASCII identifier
		"F,lineage,ts,te,p\na,null,0,5,0.5\nb, x1,0,5,0.5\n",                                      // null, padded name
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := Read(bytes.NewReader(data), "fuzz")
		want, werr := oracleRead(bytes.NewReader(data), "fuzz")
		if (err == nil) != (werr == nil) {
			t.Fatalf("Read error %v, encoding/csv loader error %v", err, werr)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "csvio") {
				t.Fatalf("error lost its csvio context: %v", err)
			}
			return
		}
		want.Sort()
		if d := sameRows(rel, want); d != "" {
			t.Fatalf("Read and the encoding/csv loader differ: %s", d)
		}
		// Accepted input: the relation must satisfy every invariant the
		// loader promises, and must survive re-serialization.
		if err := rel.ValidateDuplicateFree(); err != nil {
			t.Fatalf("accepted relation violates duplicate-freeness: %v", err)
		}
		if rel.Len() > 0 && rel.Dict() == nil {
			t.Fatal("accepted relation was not interned at ingest")
		}
		if !rel.InCanonicalOrder() {
			t.Fatal("accepted relation is not in canonical order")
		}
		if err := Write(io.Discard, rel); err != nil {
			t.Fatalf("accepted relation does not re-serialize: %v", err)
		}
	})
}

// sameRows compares two loaded relations field by field, in row order,
// and describes the first difference ("" when there is none).
func sameRows(got, want *relation.Relation) string {
	if fmt.Sprintf("%q", got.Schema.Attrs) != fmt.Sprintf("%q", want.Schema.Attrs) {
		return fmt.Sprintf("schema %q, want %q", got.Schema.Attrs, want.Schema.Attrs)
	}
	if got.Len() != want.Len() {
		return fmt.Sprintf("%d rows, want %d", got.Len(), want.Len())
	}
	for i := range got.Tuples {
		g, w := &got.Tuples[i], &want.Tuples[i]
		if fmt.Sprintf("%q", g.Fact) != fmt.Sprintf("%q", w.Fact) || g.Lineage.ID() != w.Lineage.ID() ||
			g.T != w.T || math.Float64bits(g.Prob) != math.Float64bits(w.Prob) {
			return fmt.Sprintf("row %d: %q %q %v %v, want %q %q %v %v",
				i, g.Fact, g.Lineage.ID(), g.T, g.Prob, w.Fact, w.Lineage.ID(), w.T, w.Prob)
		}
	}
	return ""
}

// oracleRead is the loader Read replaced, kept as the reference the
// differential fuzz target compares against: encoding/csv splits the
// records, every lineage column is parsed, and every row's leaf is built
// on its own.
func oracleRead(rd io.Reader, name string) (*relation.Relation, error) {
	br := bufio.NewReader(rd)
	if head, err := br.Peek(len(utf8BOM)); err == nil && bytes.Equal(head, utf8BOM) {
		if _, err := br.Discard(len(utf8BOM)); err != nil {
			return nil, fmt.Errorf("csvio: skipping BOM: %w", err)
		}
	}
	cr := csv.NewReader(br)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csvio: reading header: %w", err)
	}
	if len(header) < 5 {
		return nil, fmt.Errorf("csvio: header needs at least one fact column plus lineage,ts,te,p; got %d columns", len(header))
	}
	nf := len(header) - 4
	rel := relation.New(relation.NewSchema(name, header[:nf]...))
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: %w", line, err)
		}
		if len(row) != len(header) {
			return nil, fmt.Errorf("csvio: line %d: %d columns, want %d", line, len(row), len(header))
		}
		ts, err := strconv.ParseInt(row[nf+1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: ts: %w", line, err)
		}
		te, err := strconv.ParseInt(row[nf+2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: te: %w", line, err)
		}
		p, err := strconv.ParseFloat(row[nf+3], 64)
		if err != nil {
			return nil, fmt.Errorf("csvio: line %d: p: %w", line, err)
		}
		if ts >= te {
			return nil, fmt.Errorf("csvio: line %d: empty interval [%d,%d)", line, ts, te)
		}
		if !(p > 0 && p <= 1) {
			return nil, fmt.Errorf("csvio: line %d: probability %v outside (0,1]", line, p)
		}
		for c := 0; c < nf; c++ {
			if row[c] == "" {
				return nil, fmt.Errorf("csvio: line %d: empty fact value in column %q", line, header[c])
			}
		}
		if expr, err := lineage.Parse(row[nf], func(string) (float64, error) { return p, nil }); err != nil {
			return nil, fmt.Errorf("csvio: line %d: unparsable lineage %q: %w", line, row[nf], err)
		} else if expr == nil {
			return nil, fmt.Errorf("csvio: line %d: empty lineage column", line)
		}
		rel.Tuples = append(rel.Tuples, relation.NewBase(relation.Fact(row[:nf]), row[nf], ts, te, p))
	}
	rel.Intern()
	if err := rel.ValidateDuplicateFree(); err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	return rel, nil
}
