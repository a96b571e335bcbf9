package bench

import (
	"encoding/json"
	"io"
)

// Machine-readable experiment output (tpbench -json): a stable wire
// shape decoupled from the internal Result structs, with durations in
// milliseconds so downstream tooling (CI assertions, plotting) does not
// parse Go duration strings.

// ResultJSON is the wire form of one experiment result.
type ResultJSON struct {
	Name     string       `json:"name"`
	Title    string       `json:"title"`
	XLabel   string       `json:"xLabel,omitempty"`
	Scale    float64      `json:"scale"`
	Footnote string       `json:"footnote,omitempty"`
	Series   []SeriesJSON `json:"series"`
}

// SeriesJSON is one approach's measurements.
type SeriesJSON struct {
	Approach string     `json:"approach"`
	Cells    []CellJSON `json:"cells"`
}

// CellJSON is one measurement. Skipped cells carry only x/label.
type CellJSON struct {
	X       float64 `json:"x"`
	Label   string  `json:"label"`
	Ms      float64 `json:"ms"`
	Output  int     `json:"output"`
	Skipped bool    `json:"skipped,omitempty"`
}

// JSON converts the result to its wire form.
func (res Result) JSON() ResultJSON {
	rj := ResultJSON{
		Name:     res.Name,
		Title:    res.Title,
		XLabel:   res.XLabel,
		Scale:    res.Scale,
		Footnote: res.Footnote,
		Series:   []SeriesJSON{},
	}
	for _, s := range res.Series {
		sj := SeriesJSON{Approach: s.Approach, Cells: []CellJSON{}}
		for _, c := range s.Cells {
			sj.Cells = append(sj.Cells, CellJSON{
				X:       c.X,
				Label:   c.label(),
				Ms:      float64(c.Duration.Microseconds()) / 1000,
				Output:  c.Output,
				Skipped: c.Skipped,
			})
		}
		rj.Series = append(rj.Series, sj)
	}
	return rj
}

// WriteJSON writes the results as one indented JSON document:
// {"experiments": [ResultJSON, ...]}.
func WriteJSON(w io.Writer, results []Result) error {
	doc := struct {
		Experiments []ResultJSON `json:"experiments"`
	}{Experiments: []ResultJSON{}}
	for _, res := range results {
		doc.Experiments = append(doc.Experiments, res.JSON())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
