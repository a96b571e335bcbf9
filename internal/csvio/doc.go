// Package csvio loads and stores TP relations as CSV files.
//
// The on-disk layout has one row per base tuple:
//
//	fact_1,...,fact_m,id,ts,te,p
//
// with a header row naming the conventional attributes followed by the
// fixed columns "lineage", "ts", "te", "p". Only base relations
// round-trip: derived lineage is written in its rendered form and read
// back as an opaque fresh variable carrying the tuple's probability, which
// preserves facts, intervals and marginals but not the original formula
// structure (documented limitation; the JSON wire codec of the query
// service — internal/server, tpset.MarshalRelationJSON — round-trips full
// formula structure when it matters).
//
// Read enforces the model invariants on data of unknown provenance: every
// interval must be non-empty [ts, te), probabilities must lie in (0, 1],
// the lineage column must be non-empty syntactically valid lineage, and
// the loaded relation must be duplicate-free (Def. 1) — two rows with the
// same fact over overlapping intervals are rejected. The relation comes
// back admitted (relation.Admit): bound and in canonical (fact, Ts, Te)
// order, not the file's. Windows-exported
// files are accepted as-is: a leading UTF-8 BOM is stripped and CRLF line
// endings are handled. An error names the physical line its record
// starts on.
//
// Read takes the input into one buffer and makes one string of it; a
// hand-written splitter accepts exactly what encoding/csv's Reader
// accepts (FieldsPerRecord = -1, no lazy quotes), and fact values are
// substrings of that string. A lineage column that is a bare variable
// name (lineage.IsVarName) is taken as it is; any other is checked by
// lineage.Parse. Every row's leaf is then built by one lineage.Vars
// batch, in row order, and each row's Fact is cut from one backing
// array, so a load allocates per file, not per row. encoding/csv is used only to write:
// StreamWriter writes rows one tuple at a time, so a streaming cursor
// plan can be persisted without materializing its result.
//
// Paper map: the persistence layer feeding the §VII experiments and the
// tpquery/tpgen/tpserve CLIs; no direct counterpart in the paper. See
// docs/PAPER_MAP.md.
package csvio
