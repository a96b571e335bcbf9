package csvio

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/datagen"
	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/relation"
)

func sample() *relation.Relation {
	r := relation.New(relation.NewSchema("r", "Product", "City"))
	r.AddBase(relation.NewFact("milk", "zurich"), "r1", 1, 4, 0.6)
	r.AddBase(relation.NewFact("chips", "basel"), "r2", 2, 9, 0.8)
	return r
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, "r")
	if err != nil {
		t.Fatal(err)
	}
	if d := relation.Diff(got, sample()); d != "" {
		t.Fatalf("round trip: %s", d)
	}
	if len(got.Schema.Attrs) != 2 || got.Schema.Attrs[0] != "Product" {
		t.Errorf("schema: %v", got.Schema)
	}
}

func TestRoundTripGenerated(t *testing.T) {
	r := datagen.Synthetic(datagen.SyntheticConfig{
		Name: "g", NumTuples: 500, NumFacts: 9, MaxLen: 7, MaxGap: 2, Seed: 4,
	})
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, "g")
	if err != nil {
		t.Fatal(err)
	}
	if d := relation.Diff(got, r); d != "" {
		t.Fatalf("round trip: %s", d)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name, data, wantErr string
	}{
		{"short header", "a,b\n", "header"},
		{"bad ts", "F,lineage,ts,te,p\nx,r1,zz,3,0.5\n", "ts"},
		{"bad te", "F,lineage,ts,te,p\nx,r1,1,zz,0.5\n", "te"},
		{"bad p", "F,lineage,ts,te,p\nx,r1,1,3,zz\n", "p"},
		{"empty interval", "F,lineage,ts,te,p\nx,r1,3,3,0.5\n", "interval"},
		{"p out of range", "F,lineage,ts,te,p\nx,r1,1,3,1.5\n", "probability"},
		{"column mismatch", "F,lineage,ts,te,p\nx,r1,1,3\n", ""},
		{"negative interval", "F,lineage,ts,te,p\nx,r1,5,3,0.5\n", "interval"},
		{"zero probability", "F,lineage,ts,te,p\nx,r1,1,3,0\n", "probability"},
		{"empty lineage", "F,lineage,ts,te,p\nx,,1,3,0.5\n", "empty lineage"},
		{"null lineage", "F,lineage,ts,te,p\nx,null,1,3,0.5\n", "empty lineage"},
		{"unparsable lineage", "F,lineage,ts,te,p\nx,r1∧,1,3,0.5\n", "unparsable lineage"},
		{"unparsable lineage parens", "F,lineage,ts,te,p\nx,(r1,1,3,0.5\n", "unparsable lineage"},
		{"duplicate tuples", "F,lineage,ts,te,p\nx,r1,1,5,0.5\nx,r2,3,8,0.5\n", "duplicate fact"},
		{"duplicate tuples same row", "F,lineage,ts,te,p\nx,r1,1,5,0.5\nx,r2,1,5,0.5\n", "duplicate fact"},
		{"NaN probability", "F,lineage,ts,te,p\nx,r1,1,3,NaN\n", "probability NaN outside (0,1]"},
		{"negative probability", "F,lineage,ts,te,p\nx,r1,1,3,-0.2\n", "probability -0.2 outside (0,1]"},
		{"probability above one", "F,lineage,ts,te,p\nx,r1,1,3,1.0001\n", "probability 1.0001 outside (0,1]"},
		{"negative infinity probability", "F,lineage,ts,te,p\nx,r1,1,3,-Inf\n", "probability -Inf outside (0,1]"},
		{"empty fact value", "F,lineage,ts,te,p\n,r1,1,3,0.5\n", `empty fact value in column "F"`},
		{"empty second fact value", "F,G,lineage,ts,te,p\nx,,r1,1,3,0.5\n", `empty fact value in column "G"`},
		// An error names the physical line its record starts on.
		{"line after blank line", "F,lineage,ts,te,p\n\nx,r1,zz,3,0.5\n", "csvio: line 3: ts"},
		{"line after blank CRLF line", "F,lineage,ts,te,p\r\n\r\nx,r1,zz,3,0.5\r\n", "csvio: line 3: ts"},
		{"line after multi-line field", "F,lineage,ts,te,p\n\"a\nb\",r1,1,3,0.5\nx,r2,zz,3,0.5\n", "csvio: line 4: ts"},
		{"line of multi-line bad record", "F,lineage,ts,te,p\n\"a\nb\",r1,zz,3,0.5\n", "csvio: line 2: ts"},
		{"stray quote", "F,lineage,ts,te,p\nx,r1,1,3,0.5\n\"y\"z,r2,1,3,0.5\n", `csvio: line 3: extraneous or missing " in quoted field`},
		{"bare quote", "F,lineage,ts,te,p\nx\"y,r1,1,3,0.5\n", `csvio: line 2: bare " in non-quoted field`},
		{"unterminated quote", "F,lineage,ts,te,p\n\n\"x,r1,1,3,0.5\n", `csvio: line 3: extraneous or missing " in quoted field`},
		{"header quote", "\"F\"x,lineage,ts,te,p\n", `csvio: line 1: reading header: extraneous`},
		{"empty input", "", "csvio: reading header: empty input"},
		{"blank input", "\xEF\xBB\xBF\r\n\n", "csvio: reading header: empty input"},
	}
	for _, tc := range cases {
		_, err := Read(strings.NewReader(tc.data), "r")
		if err == nil {
			t.Errorf("%s: want error", tc.name)
			continue
		}
		if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
		if strings.Count(err.Error(), "line ") > 1 {
			t.Errorf("%s: error %q names more than one line", tc.name, err)
		}
	}
}

func TestReadAcceptsRenderedFormulasAndAdjacency(t *testing.T) {
	// A rendered derived formula stays a legal (opaque) lineage column,
	// and temporally adjacent same-fact rows are NOT duplicates.
	data := "F,lineage,ts,te,p\nx,c1∧¬(a1∨b1),1,4,0.3\nx,c1,4,9,0.6\n"
	r, err := Read(strings.NewReader(data), "r")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("got %d tuples", r.Len())
	}
	if err := r.ValidateDuplicateFree(); err != nil {
		t.Fatal(err)
	}
}

// TestReadWindowsExportedCSV accepts a UTF-8 BOM and CRLF line endings —
// the format Windows tools export — and round-trips it against the same
// data in the native format.
func TestReadWindowsExportedCSV(t *testing.T) {
	var native bytes.Buffer
	if err := Write(&native, sample()); err != nil {
		t.Fatal(err)
	}
	want, err := Read(bytes.NewReader(native.Bytes()), "r")
	if err != nil {
		t.Fatal(err)
	}

	windows := append([]byte{0xEF, 0xBB, 0xBF},
		[]byte(strings.ReplaceAll(native.String(), "\n", "\r\n"))...)
	got, err := Read(bytes.NewReader(windows), "r")
	if err != nil {
		t.Fatalf("BOM+CRLF input rejected: %v", err)
	}
	if d := relation.Diff(got, want); d != "" {
		t.Fatalf("BOM+CRLF round trip: %s", d)
	}
	// The BOM must not leak into the first header name.
	if got.Schema.Attrs[0] != "Product" {
		t.Fatalf("first attribute %q, want %q", got.Schema.Attrs[0], "Product")
	}

	// BOM alone (LF endings) and CRLF alone are each accepted too.
	bomOnly := append([]byte{0xEF, 0xBB, 0xBF}, native.Bytes()...)
	if _, err := Read(bytes.NewReader(bomOnly), "r"); err != nil {
		t.Fatalf("BOM-only input rejected: %v", err)
	}
	crlfOnly := strings.ReplaceAll(native.String(), "\n", "\r\n")
	if _, err := Read(strings.NewReader(crlfOnly), "r"); err != nil {
		t.Fatalf("CRLF-only input rejected: %v", err)
	}
}

// TestStreamWriterMatchesWrite pins the streaming writer against the
// one-shot Write: identical bytes, tuple by tuple.
func TestStreamWriterMatchesWrite(t *testing.T) {
	r := datagen.Synthetic(datagen.SyntheticConfig{
		Name: "g", NumTuples: 200, NumFacts: 7, MaxLen: 5, MaxGap: 2, Seed: 9,
	})
	var oneShot, streamed bytes.Buffer
	if err := Write(&oneShot, r); err != nil {
		t.Fatal(err)
	}
	sw, err := NewStreamWriter(&streamed, r.Schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Tuples {
		if err := sw.WriteTuple(&r.Tuples[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if oneShot.String() != streamed.String() {
		t.Fatal("StreamWriter output differs from Write")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.csv")
	if err := WriteFile(path, sample()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path, "r")
	if err != nil {
		t.Fatal(err)
	}
	if d := relation.Diff(got, sample()); d != "" {
		t.Fatalf("file round trip: %s", d)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.csv"), "x"); !os.IsNotExist(err) {
		t.Errorf("missing file: %v", err)
	}
}

// TestReadAllocations pins the loader's allocation count on a 20,000-row
// file: the reader allocates per file and per column, not per row. A
// warm-up read first interns the file's variable names, so the count
// leaves out the process-wide arena's growth.
func TestReadAllocations(t *testing.T) {
	r := datagen.Synthetic(datagen.SyntheticConfig{
		Name: "alloc", NumTuples: 20000, NumFacts: 200, MaxLen: 7, MaxGap: 2, Seed: 5,
	})
	path := filepath.Join(t.TempDir(), "r.csv")
	if err := WriteFile(path, r); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path, "alloc"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ReadFile(path, "alloc"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for %d rows", allocs, r.Len())
	if allocs > 256 {
		t.Fatalf("ReadFile made %.0f allocations for %d rows, want at most 256", allocs, r.Len())
	}
}

// TestReadNumbersVariablesInRowOrder pins the order leaves are built
// in: a file written in generation order (the facts round-robin, as
// datagen emits them) is read, sorted into canonical order, and the
// fresh variable ids then ascend along the rows — the sort moves rows,
// never ids, so they were assigned in canonical order at ingest. The
// names are this test's own, so they are fresh to the arena.
func TestReadNumbersVariablesInRowOrder(t *testing.T) {
	const facts, perFact = 7, 40
	var b strings.Builder
	b.WriteString("Fact,lineage,ts,te,p\n")
	for k := 0; k < perFact; k++ {
		for f := 0; f < facts; f++ {
			fmt.Fprintf(&b, "f%02d,csvio.order.g%d,%d,%d,0.5\n", f, k*facts+f, 10*k, 10*k+5)
		}
	}
	r, err := Read(strings.NewReader(b.String()), "g")
	if err != nil {
		t.Fatal(err)
	}
	if r.Tuples[0].Lineage.ID() != "csvio.order.g0" || r.Tuples[1].Lineage.ID() != "csvio.order.g1" {
		t.Fatalf("rows moved at ingest: %v, %v", r.Tuples[0].Lineage, r.Tuples[1].Lineage)
	}
	r.Sort()
	for i := 1; i < len(r.Tuples); i++ {
		if a, b := r.Tuples[i-1].Lineage, r.Tuples[i].Lineage; a.VarID() >= b.VarID() {
			t.Fatalf("row %d: %s has id %d after %s's %d; want ids ascending along the sorted rows",
				i, b, b.VarID(), a, a.VarID())
		}
	}
}

// TestReadFileSortedIsReadFileSorted pins the loader tpserve admits its
// files through: ReadFileSorted returns what ReadFile followed by Sort
// returns — the same rows, leaves and fact ids, in canonical order —
// and admission's duplicate check then recognises the order in one pass:
// SortDuplicateFree sorts nothing and allocates nothing. ReadFile keeps
// the file's order (TestReadNumbersVariablesInRowOrder).
func TestReadFileSortedIsReadFileSorted(t *testing.T) {
	r := datagen.Synthetic(datagen.SyntheticConfig{
		Name: "sorted", NumTuples: 5000, NumFacts: 50, MaxLen: 7, MaxGap: 2, Seed: 6,
	})
	path := filepath.Join(t.TempDir(), "r.csv")
	if err := WriteFile(path, r); err != nil {
		t.Fatal(err)
	}
	want, err := ReadFile(path, "sorted")
	if err != nil {
		t.Fatal(err)
	}
	if want.InCanonicalOrder() {
		t.Fatal("the file is already in canonical order: the test shows nothing")
	}
	want.Sort()
	got, err := ReadFileSorted(path, "sorted")
	if err != nil {
		t.Fatal(err)
	}
	if !got.InCanonicalOrder() || got.Len() != want.Len() || got.Dict() == nil {
		t.Fatalf("ReadFileSorted: %d rows, in order %v, bound %v", got.Len(), got.InCanonicalOrder(), got.Dict() != nil)
	}
	for i := range want.Tuples {
		a, b := &got.Tuples[i], &want.Tuples[i]
		if !a.Fact.Equal(b.Fact) || a.T != b.T || a.Prob != b.Prob || a.Lineage.VarID() != b.Lineage.VarID() ||
			got.Dict().Key(keys.FactID(got.FidCol()[i])) != a.Fact.Key() {
			t.Fatalf("row %d: %v (fid %d), want %v", i, a, got.FidCol()[i], b)
		}
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if err := got.SortDuplicateFree(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("admitting the sorted load allocated %v times, want no key sort", allocs)
	}
}
