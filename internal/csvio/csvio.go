package csvio

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// StreamWriter writes a relation's tuples as CSV rows one at a time, so a
// cursor plan can be persisted while it streams — tuples reach the writer
// as they are produced, without a materialized relation in between
// (cmd/tpquery). NewStreamWriter emits the header; WriteTuple
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

// utf8BOM is the UTF-8 encoding of U+FEFF, which Windows tools commonly
// prepend to exported CSV files.
var utf8BOM = []byte{0xEF, 0xBB, 0xBF}

// Read loads a relation named name from CSV. Every row becomes a base tuple
// whose lineage variable is the row's lineage column (assumed to be a
// unique identifier within the file). The lineage column must be non-empty
// and syntactically valid lineage (a bare identifier or a rendered
// formula; see lineage.Parse) — a malformed formula is rejected rather
// than silently becoming an opaque variable. A bare name
// (lineage.IsVarName) is taken as it is; anything else is parsed to be
// checked. The loaded relation is checked for the model's
// duplicate-freeness invariant: two rows with the same fact over
// overlapping intervals are an error.
//
// The input is read into memory whole and copied once into one string;
// fact values and header names are substrings of it (a quoted field with
// a "" escape is the one value built on its own). Records are split by
// hand under encoding/csv's rules for a Reader with FieldsPerRecord = -1
// and LazyQuotes off: a leading UTF-8 BOM is stripped, CRLF line endings
// read as LF inside and outside quotes, a final '\r' is dropped, blank
// lines are skipped, and a bare or stray quote is an error. Every row's
// leaf is built by one lineage.Vars batch, in canonical (fact, Ts, Te)
// order — the rows themselves keep the file's order. An error names the
// physical line its record starts on.
func Read(rd io.Reader, name string) (*relation.Relation, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("csvio: reading: %w", err)
	}
	return parse(data, name, false)
}

// ReadFile loads the relation stored at path; the relation is named after
// the file.
func ReadFile(path, name string) (*relation.Relation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(data, name, false)
}

// ReadFileSorted is ReadFile with the rows laid out in canonical
// (fact, Ts, Te) order — the order the duplicate check already ranked
// them in — their fact ids moved with them (relation.Arrange): a
// catalog that admits the relation recognises the order in one pass
// and sorts nothing (relation.SortDuplicateFree). tpserve loads its
// -rel files with it.
func ReadFileSorted(path, name string) (*relation.Relation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(data, name, true)
}

// parse loads the relation, its rows in file order unless sorted asks
// for canonical order.
func parse(data []byte, name string, sorted bool) (*relation.Relation, error) {
	sp := splitter{s: normalize(data), line: 1}
	header, line, err := sp.next(nil)
	if err == io.EOF {
		return nil, errors.New("csvio: reading header: empty input")
	}
	if err != nil {
		return nil, fmt.Errorf("csvio: line %d: reading header: %w", line, err)
	}
	if len(header) < 5 {
		return nil, fmt.Errorf("csvio: header needs at least one fact column plus lineage,ts,te,p; got %d columns", len(header))
	}
	nf := len(header) - 4
	rel := relation.New(relation.NewSchema(name, header[:nf]...))

	// Every record takes at least one of the remaining lines, so their
	// count sizes every per-row array once — exactly, unless the file has
	// blank lines or quoted fields that span lines. A row that is kept
	// also takes at least 2·len(header)−1 bytes (a non-empty value in
	// every column), which keeps a wide header over many short lines from
	// sizing the fact array quadratically in the input.
	rest := sp.s[sp.pos:]
	most := strings.Count(rest, "\n")
	if rest != "" && rest[len(rest)-1] != '\n' {
		most++
	}
	most = min(most, len(rest)/(2*len(header)-1))
	rows := make([]relation.Tuple, 0, most)
	facts := make([]string, most*nf)
	names := make([]string, 0, most)
	row := make([]string, 0, len(header))
	for {
		row, line, err = sp.next(row[:0])
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
		if id := row[nf]; !lineage.IsVarName(id) {
			if expr, err := lineage.Parse(id, func(string) (float64, error) { return p, nil }); err != nil {
				return nil, fmt.Errorf("csvio: line %d: unparsable lineage %q: %w", line, id, err)
			} else if expr == nil {
				return nil, fmt.Errorf("csvio: line %d: empty lineage column", line)
			}
		}
		i := len(rows)
		fact := facts[i*nf : (i+1)*nf : (i+1)*nf]
		copy(fact, row[:nf])
		rows = append(rows, relation.Tuple{Fact: fact, T: interval.New(ts, te), Prob: p})
		names = append(names, row[nf])
	}
	if len(rows) > 0 {
		rel.Tuples = rows
	}
	// Construct interned fact ids at ingest: the duplicate check below and
	// every later sort/sweep over this relation run on integer compares.
	rel.Intern()
	rank, err := rel.CanonicalRanks()
	if err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	// The leaves are built in the order the duplicate check sorted the
	// rows into, which is the order every sorted copy and every result
	// lists them in: fresh variable ids, the arena's copies of their
	// names and their marginal-text slots ascend along the output, not
	// along the file. Interning reads the names in that order, so they
	// are first packed back to back, where a read out of file order
	// stays in cache; the rows are walked in file order.
	pack(names)
	ranked := make([]string, len(rank))
	probs := make([]float64, len(rank))
	for i, j := range rank {
		ranked[j], probs[j] = names[i], rows[i].Prob
	}
	leaves := lineage.Vars(ranked, probs)
	for i, j := range rank {
		rows[i].Lineage = leaves[j]
	}
	if sorted {
		rel.Arrange(rank)
	}
	return rel, nil
}

// pack points every string of ss into one allocation that holds them
// back to back, in order.
func pack(ss []string) {
	n := 0
	for _, s := range ss {
		n += len(s)
	}
	var b strings.Builder
	b.Grow(n)
	for _, s := range ss {
		b.WriteString(s)
	}
	all := b.String()
	for i, s := range ss {
		ss[i], all = all[:len(s)], all[len(s):]
	}
}

// normalize returns the text the splitter reads — data without a leading
// BOM or a final '\r', every "\r\n" read as "\n", which is how
// encoding/csv reads every line — in the one copy of the input Read
// makes.
func normalize(data []byte) string {
	data = bytes.TrimPrefix(data, utf8BOM)
	if n := len(data); n > 0 && data[n-1] == '\r' {
		data = data[:n-1]
	}
	if bytes.IndexByte(data, '\r') < 0 {
		return string(data)
	}
	var b strings.Builder
	b.Grow(len(data))
	for {
		i := bytes.Index(data, []byte("\r\n"))
		if i < 0 {
			break
		}
		b.Write(data[:i])
		b.WriteByte('\n')
		data = data[i+2:]
	}
	b.Write(data)
	return b.String()
}

var (
	errBareQuote = errors.New(`bare " in non-quoted field`)
	errQuote     = errors.New(`extraneous or missing " in quoted field`)
)

// splitter cuts comma-separated records out of normalized text.
type splitter struct {
	s    string
	pos  int // offset of the next unread byte
	line int // physical line of s[pos], 1-based
}

// next appends the fields of the next record to dst and returns them
// with the line the record starts on. Blank lines before it are skipped;
// at the end of the text it returns io.EOF.
func (sp *splitter) next(dst []string) ([]string, int, error) {
	s := sp.s
	for sp.pos < len(s) && s[sp.pos] == '\n' {
		sp.pos++
		sp.line++
	}
	start := sp.line
	if sp.pos == len(s) {
		return dst, start, io.EOF
	}
	for {
		if sp.pos < len(s) && s[sp.pos] == '"' {
			f, err := sp.quoted()
			if err != nil {
				return dst, start, err
			}
			dst = append(dst, f)
		} else {
			i := sp.pos
			for ; i < len(s) && s[i] != ',' && s[i] != '\n'; i++ {
				if s[i] == '"' {
					return dst, start, errBareQuote
				}
			}
			dst = append(dst, s[sp.pos:i])
			sp.pos = i
		}
		// The field ends at a comma, a newline or the end of the text.
		if sp.pos == len(s) {
			return dst, start, nil
		}
		sp.pos++
		if s[sp.pos-1] == '\n' {
			sp.line++
			return dst, start, nil
		}
	}
}

// quoted reads the quoted field at sp.pos, leaving sp.pos on the byte
// after its closing quote. The value is a substring of the text unless
// it holds a "" escape.
func (sp *splitter) quoted() (string, error) {
	s := sp.s
	sp.pos++
	from := sp.pos
	var esc []byte // the value so far, once an escape forces a copy
	for {
		i := strings.IndexByte(s[sp.pos:], '"')
		if i < 0 {
			return "", errQuote // no closing quote before the end
		}
		sp.line += strings.Count(s[sp.pos:sp.pos+i], "\n")
		sp.pos += i + 1
		if sp.pos < len(s) && s[sp.pos] == '"' {
			esc = append(esc, s[from:sp.pos]...)
			sp.pos++
			from = sp.pos
			continue
		}
		if sp.pos < len(s) && s[sp.pos] != ',' && s[sp.pos] != '\n' {
			return "", errQuote
		}
		if esc == nil {
			return s[from : sp.pos-1], nil
		}
		return string(append(esc, s[from:sp.pos-1]...)), nil
	}
}
