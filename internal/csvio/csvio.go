package csvio

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// StreamWriter writes a relation's tuples as CSV rows one at a time, so a
// cursor plan can be persisted while it streams — tuples reach the writer
// as they are produced, without a materialized relation in between
// (cmd/tpquery -stream). NewStreamWriter emits the header; WriteTuple
// appends one row; Close flushes. Write is implemented on top of it.
type StreamWriter struct {
	cw  *csv.Writer
	row []string
}

// NewStreamWriter starts a CSV stream for tuples of the given schema,
// writing the header immediately.
func NewStreamWriter(w io.Writer, schema relation.Schema) (*StreamWriter, error) {
	cw := csv.NewWriter(w)
	header := append(append([]string{}, schema.Attrs...), "lineage", "ts", "te", "p")
	if err := cw.Write(header); err != nil {
		return nil, err
	}
	return &StreamWriter{cw: cw, row: make([]string, 0, len(header))}, nil
}

// WriteTuple appends one tuple row.
func (sw *StreamWriter) WriteTuple(t *relation.Tuple) error {
	sw.row = append(append(sw.row[:0], t.Fact...),
		t.Lineage.String(),
		strconv.FormatInt(t.T.Ts, 10),
		strconv.FormatInt(t.T.Te, 10),
		strconv.FormatFloat(t.Prob, 'g', -1, 64),
	)
	return sw.cw.Write(sw.row)
}

// Close flushes buffered rows to the underlying writer.
func (sw *StreamWriter) Close() error {
	sw.cw.Flush()
	return sw.cw.Error()
}

// Write stores r as CSV.
func Write(w io.Writer, r *relation.Relation) error {
	sw, err := NewStreamWriter(w, r.Schema)
	if err != nil {
		return err
	}
	for i := range r.Tuples {
		if err := sw.WriteTuple(&r.Tuples[i]); err != nil {
			return err
		}
	}
	return sw.Close()
}

// WriteFile stores r at path.
func WriteFile(path string, r *relation.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readChunkRows is the size of the row chunks Read collects into before
// it knows how many rows the file holds (a third of a megabyte each).
const readChunkRows = 4096

// utf8BOM is the UTF-8 encoding of U+FEFF, which Windows tools commonly
// prepend to exported CSV files.
var utf8BOM = []byte{0xEF, 0xBB, 0xBF}

// Read loads a relation named name from CSV. Every row becomes a base tuple
// whose lineage variable is the row's lineage column (assumed to be a
// unique identifier within the file). The lineage column must be non-empty
// and syntactically valid lineage (a bare identifier or a rendered
// formula; see lineage.Parse) — a malformed formula is rejected rather
// than silently becoming an opaque variable. The loaded relation is
// checked for the model's duplicate-freeness invariant: two rows with the
// same fact over overlapping intervals are an error.
//
// Windows-exported CSVs are accepted as-is: a leading UTF-8 BOM is
// stripped (it would otherwise become part of the first header name) and
// CRLF line endings are handled by the underlying csv reader.
func Read(rd io.Reader, name string) (*relation.Relation, error) {
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
	// The row count is unknown until EOF, and appending 200K rows to one
	// slice reallocates and re-copies it some three dozen times. Rows
	// collect in chunks instead — the first grows to readChunkRows, every
	// later one is allocated at that size — and rel.Tuples is built once,
	// at its exact length, when the count is known.
	var chunks [][]relation.Tuple
	var chunk []relation.Tuple
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
		// The positive-range check is written so NaN fails it too: NaN
		// compares false to everything, so "p <= 0 || p > 1" would let a
		// NaN probability through.
		if !(p > 0 && p <= 1) {
			return nil, fmt.Errorf("csvio: line %d: probability %v outside (0,1]", line, p)
		}
		for c := 0; c < nf; c++ {
			if row[c] == "" {
				return nil, fmt.Errorf("csvio: line %d: empty fact value in column %q", line, header[c])
			}
		}
		// The lineage column is kept opaque (see the package note) but must
		// at least BE lineage: parsing catches truncated or mangled
		// formulas that would otherwise round-trip as garbage identifiers.
		if expr, err := lineage.Parse(row[nf], func(string) (float64, error) { return p, nil }); err != nil {
			return nil, fmt.Errorf("csvio: line %d: unparsable lineage %q: %w", line, row[nf], err)
		} else if expr == nil {
			return nil, fmt.Errorf("csvio: line %d: empty lineage column", line)
		}
		if len(chunk) == readChunkRows {
			chunks = append(chunks, chunk)
			chunk = make([]relation.Tuple, 0, readChunkRows)
		}
		chunk = append(chunk, relation.NewBase(relation.Fact(row[:nf]), row[nf], ts, te, p))
	}
	if n := len(chunks)*readChunkRows + len(chunk); n > 0 {
		rel.Tuples = make([]relation.Tuple, 0, n)
		for _, c := range append(chunks, chunk) {
			rel.Tuples = append(rel.Tuples, c...)
		}
	}
	// Construct interned fact ids at ingest: the duplicate check below and
	// every later sort/sweep over this relation run on integer compares.
	rel.Intern()
	if err := rel.ValidateDuplicateFree(); err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	return rel, nil
}

// ReadFile loads the relation stored at path; the relation is named after
// the file.
func ReadFile(path, name string) (*relation.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, name)
}
