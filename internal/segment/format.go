// Package segment implements the durable columnar tier: an on-disk
// segment format that mirrors the interned runtime layout
// byte-for-byte, written atomically through a per-catalog write-ahead
// log and read whole on open, so a relation's fid column is decoded once
// and its rows are built in one pass over the other sections — no
// parse, no sort, no validation beyond Decode's.
//
// One segment file holds one relation:
//
//	header (168 B): magic, version, sizes, section table, checksums
//	schema:  relation name + attribute names
//	dict:    the catalog fact dictionary, keys in rank order
//	fid:     n × int64, little-endian — interned fact ids
//	ts, te:  n × int64, little-endian — interval bounds
//	prob:    n × float64, little-endian — cached probabilities
//	lineage: node arena in canonical post-order + n root indices
//
// The fid/ts/te/prob sections are packed 8-byte little-endian columns,
// decoded into heap slices on every host and at any buffer alignment.
// The decoded fid section becomes the relation's fid column; ts/te/prob
// and the lineage roots are read once, into the rows. Every section
// offset is 8-aligned with zero padding, the layout is fully canonical
// (offsets, padding, arena order are all forced), and decode validates
// the semantic admission contract (canonical (fid, Ts, Te) order,
// duplicate-freeness, interval and probability ranges) so an accepted
// segment can enter the catalog without re-validation and re-encodes
// byte-identically.
//
// Every error is "segment:"-prefixed and names the offending offset.
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"github.com/tpset/tpset/internal/interval"
	"github.com/tpset/tpset/internal/keys"
	"github.com/tpset/tpset/internal/lineage"
	"github.com/tpset/tpset/internal/relation"
)

// Magic identifies a segment file; the trailing newline catches
// text-mode transfer mangling like the PNG signature does.
const Magic = "TPSEG01\n"

const (
	version    = 1
	headerSize = 168
	// nilRoot is the root-table sentinel for a tuple with null lineage.
	nilRoot = 0xFFFFFFFF
)

// Fixed header field offsets. The section table runs from offSections,
// one (offset, length) uint64 pair per section in file order.
const (
	offVersion  = 8
	offHdrSize  = 12
	offFileSize = 16
	offN        = 24
	offDictLen  = 32
	offSections = 40
	offReserved = 152
	offBodyCRC  = 160
	offHdrCRC   = 164
	numSections = 7
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// File is a decoded segment: typed heap copies of every section, none
// of which refers to the bytes it was decoded from. Facts caches the
// parsed fact of every dictionary rank, so materializing tuples
// allocates no per-tuple fact storage.
type File struct {
	Name  string
	Attrs []string
	N     int

	Keys  []string        // dictionary keys, rank order (strictly ascending)
	Facts []relation.Fact // Facts[id] is the parsed fact of Keys[id]

	Fid, Ts, Te []int64
	Prob        []float64
	Lam         []*lineage.Expr
}

func align8(x uint64) uint64 { return (x + 7) &^ 7 }

// Decode parses and fully validates a segment. It never panics on
// arbitrary input; every rejection is a "segment:"-prefixed error
// naming the offending offset. An accepted segment satisfies the
// catalog admission contract (canonical order, duplicate-free, valid
// intervals and probabilities) and re-encodes to exactly the input
// bytes.
func Decode(data []byte) (*File, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("segment: truncated header: %d bytes at offset 0, need %d", len(data), headerSize)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("segment: bad magic at offset 0")
	}
	if v := le32(data, offVersion); v != version {
		return nil, fmt.Errorf("segment: unsupported version %d at offset %d", v, offVersion)
	}
	if hs := le32(data, offHdrSize); hs != headerSize {
		return nil, fmt.Errorf("segment: header size %d at offset %d, want %d", hs, offHdrSize, headerSize)
	}
	if got, want := crc32.Checksum(data[:offBodyCRC], castagnoli), le32(data, offHdrCRC); got != want {
		return nil, fmt.Errorf("segment: header checksum mismatch at offset %d: computed %#x, stored %#x", offHdrCRC, got, want)
	}
	fileSize := le64(data, offFileSize)
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("segment: file size %d at offset %d does not match %d available bytes (truncated or padded file)", fileSize, offFileSize, len(data))
	}
	if r := le64(data, offReserved); r != 0 {
		return nil, fmt.Errorf("segment: reserved field %#x at offset %d", r, offReserved)
	}
	if got, want := crc32.Checksum(data[headerSize:], castagnoli), le32(data, offBodyCRC); got != want {
		return nil, fmt.Errorf("segment: body checksum mismatch at offset %d: computed %#x, stored %#x", offBodyCRC, got, want)
	}
	n64 := le64(data, offN)
	dictN64 := le64(data, offDictLen)
	if max := (fileSize - headerSize) / 8; n64 > max {
		return nil, fmt.Errorf("segment: tuple count %d at offset %d exceeds file capacity %d", n64, offN, max)
	}
	if max := (fileSize - headerSize) / 4; dictN64 > max {
		return nil, fmt.Errorf("segment: dictionary length %d at offset %d exceeds file capacity %d", dictN64, offDictLen, max)
	}
	n, dictN := int(n64), int(dictN64)

	// Section table: the layout is canonical — each section starts at
	// the 8-aligned end of its predecessor, padding bytes are zero, and
	// the last section ends exactly at fileSize.
	type section struct{ off, len uint64 }
	var secs [numSections]section
	names := [numSections]string{"schema", "dict", "fid", "ts", "te", "prob", "lineage"}
	want := uint64(headerSize)
	for i := range secs {
		base := offSections + 16*i
		secs[i] = section{off: le64(data, base), len: le64(data, base+8)}
		s := secs[i]
		if s.off != want {
			return nil, fmt.Errorf("segment: %s section at offset %d, canonical layout requires %d", names[i], s.off, want)
		}
		if s.len > fileSize-s.off {
			return nil, fmt.Errorf("segment: %s section length %d at offset %d overruns file of %d bytes", names[i], s.len, s.off, fileSize)
		}
		end := s.off + s.len
		want = align8(end)
		if want > fileSize {
			want = fileSize // the final section need not be padded
		}
		for p := end; p < want; p++ {
			if data[p] != 0 {
				return nil, fmt.Errorf("segment: nonzero padding byte at offset %d after %s section", p, names[i])
			}
		}
	}
	if end := secs[numSections-1].off + secs[numSections-1].len; end != fileSize {
		return nil, fmt.Errorf("segment: %d trailing bytes at offset %d after lineage section", fileSize-end, end)
	}
	for i, name := range []string{"fid", "ts", "te", "prob"} {
		if s := secs[2+i]; s.len != 8*n64 {
			return nil, fmt.Errorf("segment: %s section length %d at offset %d, want %d for %d tuples", name, s.len, s.off, 8*n64, n)
		}
	}

	f := &File{N: n}
	if err := f.parseSchema(data, secs[0].off, secs[0].len); err != nil {
		return nil, err
	}
	if err := f.parseDict(data, secs[1].off, secs[1].len, dictN); err != nil {
		return nil, err
	}

	f.Fid = int64Col(data, secs[2].off, n)
	f.Ts = int64Col(data, secs[3].off, n)
	f.Te = int64Col(data, secs[4].off, n)
	f.Prob = float64Col(data, secs[5].off, n)

	// Semantic admission contract, one integer-only pass: rows sorted by
	// (fid, Ts, Te), duplicate-free (equal fids never overlap in time),
	// intervals non-empty, fids within the dictionary, probabilities in
	// [0, 1]. Offsets in the diagnostics point at the offending row.
	for i := 0; i < n; i++ {
		if f.Fid[i] < 0 || f.Fid[i] >= int64(dictN) {
			return nil, fmt.Errorf("segment: fid %d out of dictionary range [0,%d) at row %d (offset %d)", f.Fid[i], dictN, i, secs[2].off+8*uint64(i))
		}
		if f.Ts[i] >= f.Te[i] {
			return nil, fmt.Errorf("segment: empty interval [%d,%d) at row %d (offset %d)", f.Ts[i], f.Te[i], i, secs[3].off+8*uint64(i))
		}
		if !(f.Prob[i] >= 0 && f.Prob[i] <= 1) {
			return nil, fmt.Errorf("segment: probability %v outside [0,1] at row %d (offset %d)", f.Prob[i], i, secs[5].off+8*uint64(i))
		}
		if i == 0 {
			continue
		}
		switch {
		case f.Fid[i] < f.Fid[i-1]:
			return nil, fmt.Errorf("segment: fid column not sorted at row %d (offset %d)", i, secs[2].off+8*uint64(i))
		case f.Fid[i] == f.Fid[i-1] && f.Ts[i] < f.Te[i-1]:
			return nil, fmt.Errorf("segment: rows %d and %d duplicate fact %d over overlapping intervals (offset %d)", i-1, i, f.Fid[i], secs[3].off+8*uint64(i))
		}
	}

	if err := f.parseLineage(data, secs[6].off, secs[6].len); err != nil {
		return nil, err
	}
	return f, nil
}

// parseSchema reads the schema section: u16 name length + name,
// u16 attribute count, then (u16 length + bytes) per attribute, with
// no slack bytes.
func (f *File) parseSchema(data []byte, off, length uint64) error {
	c := cursor{data: data, pos: off, end: off + length, section: "schema"}
	name, err := c.str16()
	if err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("segment: empty relation name at offset %d", off)
	}
	nAttrs, err := c.u16()
	if err != nil {
		return err
	}
	if nAttrs == 0 {
		return fmt.Errorf("segment: schema with zero attributes at offset %d", off)
	}
	attrs := make([]string, nAttrs)
	for i := range attrs {
		if attrs[i], err = c.str16(); err != nil {
			return err
		}
	}
	if err := c.done(); err != nil {
		return err
	}
	f.Name, f.Attrs = name, attrs
	return nil
}

// parseDict reads the dictionary section — dictN × (u32 length +
// bytes), strictly ascending — and parses each key back into its fact,
// rejecting keys that are not the canonical Fact.Key encoding for the
// schema's attribute count (non-canonical keys would break the
// fid-order ⇔ key-order equivalence every integer compare relies on).
func (f *File) parseDict(data []byte, off, length uint64, dictN int) error {
	c := cursor{data: data, pos: off, end: off + length, section: "dict"}
	ks := make([]string, dictN)
	facts := make([]relation.Fact, dictN)
	for i := 0; i < dictN; i++ {
		at := c.pos
		k, err := c.str32()
		if err != nil {
			return err
		}
		if i > 0 && ks[i-1] >= k {
			return errOrder(at, i)
		}
		fact, err := relation.ParseFactKey(k, len(f.Attrs))
		if err != nil {
			return fmt.Errorf("segment: dict key %d at offset %d: %v", i, at, err)
		}
		if fact.Key() != k {
			return fmt.Errorf("segment: dict key %d at offset %d is not the canonical encoding of its fact", i, at)
		}
		ks[i], facts[i] = k, fact
	}
	if err := c.done(); err != nil {
		return err
	}
	f.Keys, f.Facts = ks, facts
	return nil
}

// parseLineage reads the lineage section: u32 node count, the node
// arena, then N × u32 root indices (nilRoot for null lineage). Nodes
// reference only earlier nodes, so decoding is a single forward pass
// with no recursion; the arena must additionally be in canonical
// order — the exact first-visit post-order Encode emits — so every
// accepted segment re-encodes byte-identically.
func (f *File) parseLineage(data []byte, off, length uint64) error {
	c := cursor{data: data, pos: off, end: off + length, section: "lineage"}
	count, err := c.u32()
	if err != nil {
		return err
	}
	// Smallest node is a negation: 1 kind byte + 4 index bytes.
	if uint64(count) > length/5 {
		return fmt.Errorf("segment: lineage node count %d at offset %d exceeds section capacity", count, off)
	}
	nodes := make([]*lineage.Expr, count)
	// Children by arena index (nilRoot = none), retained for the
	// canonical-order check below: simulating the encoder's traversal on
	// indices costs a []bool instead of a pointer-keyed map — one
	// allocation per section, no hashing per node.
	kidL := make([]uint32, count)
	kidR := make([]uint32, count)
	kinds := make([]lineage.Kind, count)
	// Leaves are validated during the parse but constructed afterwards in
	// one lineage.Vars batch: bulk interning plus slab allocation is far
	// cheaper than tens of thousands of pairwise Var calls. Children only
	// ever reference earlier nodes, so the deferred construction pass is
	// still a single forward sweep.
	var varNames []string
	var varProbs []float64
	for i := uint32(0); i < count; i++ {
		at := c.pos
		kind, err := c.u8()
		if err != nil {
			return err
		}
		kinds[i] = lineage.Kind(kind)
		kidL[i], kidR[i] = nilRoot, nilRoot
		switch lineage.Kind(kind) {
		case lineage.KindVar:
			bits, err := c.u64()
			if err != nil {
				return err
			}
			p := math.Float64frombits(bits)
			if math.IsNaN(p) || p <= 0 || p > 1 {
				return fmt.Errorf("segment: lineage var probability %v outside (0,1] at offset %d", p, at)
			}
			id, err := c.str32view()
			if err != nil {
				return err
			}
			varNames = append(varNames, id)
			varProbs = append(varProbs, p)
		case lineage.KindNot:
			ci, err := c.u32()
			if err != nil {
				return err
			}
			if ci >= i {
				return fmt.Errorf("segment: lineage node %d at offset %d references forward node %d", i, at, ci)
			}
			kidL[i] = ci
		case lineage.KindAnd, lineage.KindOr:
			li, err := c.u32()
			if err != nil {
				return err
			}
			ri, err := c.u32()
			if err != nil {
				return err
			}
			if li >= i || ri >= i {
				return fmt.Errorf("segment: lineage node %d at offset %d references forward node", i, at)
			}
			kidL[i], kidR[i] = li, ri
		default:
			return fmt.Errorf("segment: unknown lineage node kind %d at offset %d", kind, at)
		}
	}
	leaves := lineage.Vars(varNames, varProbs)
	vi := 0
	for i := uint32(0); i < count; i++ {
		switch kinds[i] {
		case lineage.KindVar:
			nodes[i] = leaves[vi]
			vi++
		case lineage.KindNot:
			nodes[i] = lineage.Not(nodes[kidL[i]])
		case lineage.KindAnd:
			nodes[i] = lineage.And(nodes[kidL[i]], nodes[kidR[i]])
		default:
			nodes[i] = lineage.Or(nodes[kidL[i]], nodes[kidR[i]])
		}
	}
	lams := make([]*lineage.Expr, f.N)
	rootIdx := make([]uint32, f.N)
	for i := range lams {
		at := c.pos
		ri, err := c.u32()
		if err != nil {
			return err
		}
		rootIdx[i] = ri
		if ri == nilRoot {
			continue
		}
		if ri >= count {
			return fmt.Errorf("segment: lineage root %d at offset %d out of arena range [0,%d)", ri, at, count)
		}
		lams[i] = nodes[ri]
	}
	if err := c.done(); err != nil {
		return err
	}
	if err := checkArenaCanonical(count, kidL, kidR, rootIdx, off); err != nil {
		return err
	}
	f.Lam = lams
	return nil
}

// checkArenaCanonical re-runs the encoder's arena traversal (arenaEnc:
// first-visit post-order over the roots, dedup by node) on the index
// graph and requires it to visit the arena exactly in storage order and
// cover every node — no unreachable nodes, no permuted order. Decoded
// nodes are pointer-distinct per index, so index-dedup is pointer-dedup,
// and any arena this check accepts is the one Encode would emit:
// Encode(Decode(x)) == x.
func checkArenaCanonical(count uint32, kidL, kidR, rootIdx []uint32, off uint64) error {
	visited := make([]bool, count)
	next := uint32(0)
	type frame struct {
		i     uint32
		stage uint8
	}
	var stack []frame
	for _, ri := range rootIdx {
		if ri == nilRoot || visited[ri] {
			continue
		}
		stack = append(stack[:0], frame{ri, 0})
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			if visited[fr.i] {
				stack = stack[:len(stack)-1]
				continue
			}
			switch fr.stage {
			case 0:
				fr.stage = 1
				if k := kidL[fr.i]; k != nilRoot {
					stack = append(stack, frame{k, 0})
				}
			case 1:
				fr.stage = 2
				if k := kidR[fr.i]; k != nilRoot {
					stack = append(stack, frame{k, 0})
				}
			default:
				if fr.i != next {
					return fmt.Errorf("segment: lineage arena at offset %d not in canonical post-order at node %d", off, next)
				}
				visited[fr.i] = true
				next++
				stack = stack[:len(stack)-1]
			}
		}
	}
	if next != count {
		return fmt.Errorf("segment: lineage arena at offset %d has %d nodes, %d reachable from roots", off, count, next)
	}
	return nil
}

func errOrder(at uint64, i int) error {
	return fmt.Errorf("segment: dict keys not strictly ascending at entry %d (offset %d)", i, at)
}

// Relation materializes the segment as a catalog-ready relation bound
// to d, which must hold every key of the segment. The stored fids are
// ranks of the segment's own key table; the decoded fid section becomes
// the relation's column through one translation of those keys to d's
// ids, rewritten in place. The translation is the identity when the
// segment was written on d, and maps an older dictionary generation —
// a crash can leave mixed ones on disk — onto d; the relation is the
// same either way. It comes back sorted, validated (by Decode) and
// frozen: catalog relations are immutable. Since the section is
// rewritten, a File materializes once (Restore releases it after).
func (f *File) Relation(d *keys.Dict) (*relation.Relation, error) {
	if len(f.Lam) != f.N {
		return nil, fmt.Errorf("segment: row sections of %q were released by an earlier Restore", f.Name)
	}
	ids := make([]int64, len(f.Keys))
	for i, k := range f.Keys {
		id, ok := d.ID(k)
		if !ok {
			return nil, fmt.Errorf("segment: relation %q holds facts outside the catalog dictionary", f.Name)
		}
		ids[i] = int64(id)
	}
	rel := relation.New(relation.NewSchema(f.Name, f.Attrs...))
	rel.Tuples = make([]relation.Tuple, f.N)
	for i, rank := range f.Fid {
		rel.Tuples[i] = relation.Tuple{Fact: f.Facts[rank], Lineage: f.Lam[i],
			T: interval.Interval{Ts: f.Ts[i], Te: f.Te[i]}, Prob: f.Prob[i]}
		f.Fid[i] = ids[rank]
	}
	if err := rel.SetBinding(d, f.Fid); err != nil {
		return nil, fmt.Errorf("segment: %v", err)
	}
	rel.Freeze()
	return rel, nil
}

// Encode serializes a catalog-admitted relation (bound, sorted,
// duplicate-free) into segment bytes. Encoding is deterministic — the
// lineage arena is emitted in first-visit post-order over the tuples'
// roots with pointer dedup — so re-encoding a decoded segment
// reproduces it byte-for-byte, which is what makes WAL payloads and
// applied segment files interchangeable.
func Encode(r *relation.Relation) ([]byte, error) {
	d, fids := r.Dict(), r.FidCol()
	if d == nil {
		return nil, fmt.Errorf("segment: encode of unbound relation %q", r.Schema.Name)
	}
	name, attrs := r.Schema.Name, r.Schema.Attrs
	if name == "" {
		return nil, fmt.Errorf("segment: encode of unnamed relation")
	}
	if len(name) > 0xFFFF || len(attrs) == 0 || len(attrs) > 0xFFFF {
		return nil, fmt.Errorf("segment: encode of relation %q: unsupported schema shape (%d attrs)", name, len(attrs))
	}
	for _, a := range attrs {
		if len(a) > 0xFFFF {
			return nil, fmt.Errorf("segment: encode of relation %q: attribute name longer than 65535 bytes", name)
		}
	}
	n := r.Len()

	// Lineage arena: deterministic first-visit post-order, deduped by
	// node pointer so the DAG sharing the operators produce survives on
	// disk.
	var a arenaEnc
	a.idx = make(map[*lineage.Expr]uint32, n)
	roots := make([]uint32, n)
	for i := range r.Tuples {
		roots[i] = a.add(r.Tuples[i].Lineage)
	}
	if len(a.nodes) >= nilRoot {
		return nil, fmt.Errorf("segment: encode of relation %q: lineage arena of %d nodes exceeds format limit", name, len(a.nodes))
	}

	schemaLen := uint64(2 + len(name) + 2)
	for _, at := range attrs {
		schemaLen += uint64(2 + len(at))
	}
	dictKeys := d.Keys()
	var dictLen uint64
	for _, k := range dictKeys {
		dictLen += uint64(4 + len(k))
	}
	colLen := uint64(8 * n)
	lamLen := uint64(4)
	for _, e := range a.nodes {
		switch e.Kind() {
		case lineage.KindVar:
			lamLen += 1 + 8 + 4 + uint64(len(e.ID()))
		case lineage.KindNot:
			lamLen += 1 + 4
		default:
			lamLen += 1 + 4 + 4
		}
	}
	lamLen += uint64(4 * n)

	schemaOff := uint64(headerSize)
	dictOff := align8(schemaOff + schemaLen)
	fidOff := align8(dictOff + dictLen)
	tsOff := fidOff + colLen
	teOff := tsOff + colLen
	probOff := teOff + colLen
	lamOff := probOff + colLen
	fileSize := lamOff + lamLen

	buf := make([]byte, fileSize)
	copy(buf, Magic)
	put32(buf, offVersion, version)
	put32(buf, offHdrSize, headerSize)
	put64(buf, offFileSize, fileSize)
	put64(buf, offN, uint64(n))
	put64(buf, offDictLen, uint64(len(dictKeys)))
	for i, s := range [numSections][2]uint64{
		{schemaOff, schemaLen}, {dictOff, dictLen}, {fidOff, colLen},
		{tsOff, colLen}, {teOff, colLen}, {probOff, colLen}, {lamOff, lamLen},
	} {
		put64(buf, offSections+16*i, s[0])
		put64(buf, offSections+16*i+8, s[1])
	}

	w := writer{buf: buf, pos: schemaOff}
	w.u16(uint16(len(name)))
	w.bytes([]byte(name))
	w.u16(uint16(len(attrs)))
	for _, at := range attrs {
		w.u16(uint16(len(at)))
		w.bytes([]byte(at))
	}
	w.pos = dictOff
	for _, k := range dictKeys {
		w.u32(uint32(len(k)))
		w.bytes([]byte(k))
	}

	w.pos = fidOff
	for i := range r.Tuples {
		t, fid := &r.Tuples[i], fids[i]
		w.u64At(fidOff+8*uint64(i), uint64(fid))
		w.u64At(tsOff+8*uint64(i), uint64(t.T.Ts))
		w.u64At(teOff+8*uint64(i), uint64(t.T.Te))
		if !(t.Prob >= 0 && t.Prob <= 1) {
			return nil, fmt.Errorf("segment: encode of relation %q: tuple %d probability %v outside [0,1]", name, i, t.Prob)
		}
		w.u64At(probOff+8*uint64(i), math.Float64bits(t.Prob))
		if i > 0 {
			prev, pfid := &r.Tuples[i-1], fids[i-1]
			if fid < pfid || (fid == pfid && t.T.Ts < prev.T.Te) {
				return nil, fmt.Errorf("segment: encode of relation %q: rows %d and %d not in canonical duplicate-free order", name, i-1, i)
			}
		}
	}

	w.pos = lamOff
	w.u32(uint32(len(a.nodes)))
	for _, e := range a.nodes {
		w.u8(uint8(e.Kind()))
		switch e.Kind() {
		case lineage.KindVar:
			w.u64(math.Float64bits(e.VarProb()))
			id := e.ID()
			w.u32(uint32(len(id)))
			w.bytes([]byte(id))
		case lineage.KindNot:
			left, _ := e.Operands()
			w.u32(a.idx[left])
		default:
			left, right := e.Operands()
			w.u32(a.idx[left])
			w.u32(a.idx[right])
		}
	}
	for _, ri := range roots {
		w.u32(ri)
	}
	if w.pos != fileSize {
		return nil, fmt.Errorf("segment: encode of relation %q: wrote %d bytes, sized %d", name, w.pos, fileSize)
	}

	put32(buf, offBodyCRC, crc32.Checksum(buf[headerSize:], castagnoli))
	put32(buf, offHdrCRC, crc32.Checksum(buf[:offBodyCRC], castagnoli))
	return buf, nil
}

// arenaEnc assigns arena indices in first-visit post-order over the
// lineage DAG, deduping by node pointer. The walk is iterative — fuzzed
// segments and adversarial queries can produce negation chains deeper
// than any comfortable recursion budget.
type arenaEnc struct {
	idx   map[*lineage.Expr]uint32
	nodes []*lineage.Expr
}

func (a *arenaEnc) add(root *lineage.Expr) uint32 {
	if root == nil {
		return nilRoot
	}
	if i, ok := a.idx[root]; ok {
		return i
	}
	type frame struct {
		e     *lineage.Expr
		stage int
	}
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		e := f.e
		if _, done := a.idx[e]; done {
			stack = stack[:len(stack)-1]
			continue
		}
		left, right := e.Operands()
		switch f.stage {
		case 0:
			f.stage = 1
			if left != nil {
				stack = append(stack, frame{left, 0})
			}
		case 1:
			f.stage = 2
			if right != nil {
				stack = append(stack, frame{right, 0})
			}
		default:
			a.idx[e] = uint32(len(a.nodes))
			a.nodes = append(a.nodes, e)
			stack = stack[:len(stack)-1]
		}
	}
	return a.idx[root]
}

// int64Col decodes the n little-endian words of the column at off into a
// heap slice. The caller has validated that 8n bytes are available.
func int64Col(data []byte, off uint64, n int) []int64 {
	if n == 0 {
		return nil
	}
	src := data[off : off+8*uint64(n)]
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return out
}

// float64Col is int64Col for the probability column.
func float64Col(data []byte, off uint64, n int) []float64 {
	if n == 0 {
		return nil
	}
	src := data[off : off+8*uint64(n)]
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return out
}

// cursor is a bounds-checked little-endian reader over one section;
// every failure names the section and the offset it occurred at.
type cursor struct {
	data    []byte
	pos     uint64
	end     uint64
	section string
}

func (c *cursor) need(n uint64) error {
	if c.end-c.pos < n || c.end < c.pos {
		return fmt.Errorf("segment: %s section truncated at offset %d: need %d bytes, %d left", c.section, c.pos, n, c.end-c.pos)
	}
	return nil
}

func (c *cursor) u8() (byte, error) {
	if err := c.need(1); err != nil {
		return 0, err
	}
	v := c.data[c.pos]
	c.pos++
	return v, nil
}

func (c *cursor) u16() (uint16, error) {
	if err := c.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(c.data[c.pos:])
	c.pos += 2
	return v, nil
}

func (c *cursor) u32() (uint32, error) {
	if err := c.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(c.data[c.pos:])
	c.pos += 4
	return v, nil
}

func (c *cursor) u64() (uint64, error) {
	if err := c.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(c.data[c.pos:])
	c.pos += 8
	return v, nil
}

func (c *cursor) str16() (string, error) {
	n, err := c.u16()
	if err != nil {
		return "", err
	}
	if err := c.need(uint64(n)); err != nil {
		return "", err
	}
	s := string(c.data[c.pos : c.pos+uint64(n)])
	c.pos += uint64(n)
	return s, nil
}

func (c *cursor) str32() (string, error) {
	n, err := c.u32()
	if err != nil {
		return "", err
	}
	if err := c.need(uint64(n)); err != nil {
		return "", err
	}
	s := string(c.data[c.pos : c.pos+uint64(n)])
	c.pos += uint64(n)
	return s, nil
}

// str32view reads a str32 as a zero-copy view into the underlying
// buffer. Decoded structures must not retain it, or the whole read
// buffer would outlive the decode — parseLineage hands views straight
// to the intern arena, which copies on first sight. A relation-scale
// lineage section holds one name per tuple, and skipping those copies is
// a measurable slice of restart cold-open.
func (c *cursor) str32view() (string, error) {
	n, err := c.u32()
	if err != nil {
		return "", err
	}
	if err := c.need(uint64(n)); err != nil {
		return "", err
	}
	if n == 0 {
		return "", nil
	}
	b := c.data[c.pos : c.pos+uint64(n)]
	c.pos += uint64(n)
	return unsafe.String(unsafe.SliceData(b), len(b)), nil
}

func (c *cursor) done() error {
	if c.pos != c.end {
		return fmt.Errorf("segment: %s section has %d slack bytes at offset %d", c.section, c.end-c.pos, c.pos)
	}
	return nil
}

// writer fills a pre-sized buffer; Encode computed every section size
// up front, so writes cannot overrun.
type writer struct {
	buf []byte
	pos uint64
}

func (w *writer) u8(v uint8) {
	w.buf[w.pos] = v
	w.pos++
}

func (w *writer) u16(v uint16) {
	binary.LittleEndian.PutUint16(w.buf[w.pos:], v)
	w.pos += 2
}

func (w *writer) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[w.pos:], v)
	w.pos += 4
}

func (w *writer) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[w.pos:], v)
	w.pos += 8
}

func (w *writer) u64At(off, v uint64) {
	binary.LittleEndian.PutUint64(w.buf[off:], v)
}

func (w *writer) bytes(b []byte) {
	copy(w.buf[w.pos:], b)
	w.pos += uint64(len(b))
}

func le32(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }
func le64(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }

func put32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
func put64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
