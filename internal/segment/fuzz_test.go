package segment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/tpset/tpset/internal/keys"
)

// FuzzSegmentOpen drives Decode with arbitrary bytes: it must never
// panic, every rejection must be a "segment:"-prefixed error, and —
// the strong half of the contract — every accepted segment must
// materialize and re-encode byte-identically, so a file that survives
// validation can be WAL-shipped, rewritten and re-opened forever
// without drift. Seeds cover a populated segment, an empty one, and
// corrupted/truncated variants (the committed corpus lives under
// testdata/fuzz/FuzzSegmentOpen).
// TestWriteSeedCorpus regenerates the committed corpus from the same
// inputs FuzzSegmentOpen seeds via f.Add; run with
// TPSET_WRITE_CORPUS=1 after a format change.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("TPSET_WRITE_CORPUS") == "" {
		t.Skip("set TPSET_WRITE_CORPUS=1 to regenerate testdata/fuzz")
	}
	valid, err := Encode(testRelation(t, "seed", 9))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	empty, err := Encode(testRelation(t, "empty", 0))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	dir := filepath.Join("testdata", "fuzz", "FuzzSegmentOpen")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"valid-segment":    valid,
		"empty-segment":    empty,
		"flipped-byte":     flipped,
		"truncated-header": valid[:headerSize+3],
		"bare-magic":       []byte(Magic),
	} {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir = filepath.Join("testdata", "fuzz", "FuzzReplayWAL")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, seed := range walSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n[]byte(%s)\n", strconv.Quote(string(seed[0])), strconv.Quote(string(seed[1])))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// walSeeds returns the FuzzReplayWAL seeds as (log, garbage) pairs: a
// three-record log with every op, its torn and bit-flipped forms, and a
// log whose tail breaks the sequence.
func walSeeds() map[string][2][]byte {
	put := encodeRecord(1, opPut, "r", []byte("payload-bytes"))
	drop := encodeRecord(2, opDrop, "gone/with a slash", nil)
	noop := encodeRecord(3, opNoop, "", nil)
	log := append(append(append([]byte(nil), put...), drop...), noop...)
	flipped := append([]byte(nil), log...)
	flipped[len(put)+9] ^= 0x01 // inside the second record's name length
	return map[string][2][]byte{
		"three-records":  {log, []byte("trailing garbage")},
		"torn-tail":      {log[:len(log)-3], nil},
		"flipped-middle": {flipped, noop},
		"stale-sequence": {append(append([]byte(nil), put...), encodeRecord(7, opPut, "s", []byte("x"))...), drop},
		"empty":          {nil, put},
	}
}

func FuzzSegmentOpen(f *testing.F) {
	valid, err := Encode(testRelation(f, "seed", 9))
	if err != nil {
		f.Fatalf("Encode seed: %v", err)
	}
	f.Add(valid)
	empty, err := Encode(testRelation(f, "empty", 0))
	if err != nil {
		f.Fatalf("Encode empty seed: %v", err)
	}
	f.Add(empty)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(valid[:headerSize+3])
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := Decode(data)
		if err != nil {
			if sf != nil {
				t.Fatalf("Decode returned a file alongside error %v", err)
			}
			if !strings.HasPrefix(err.Error(), "segment:") {
				t.Fatalf("rejection lacks segment: prefix: %v", err)
			}
			return
		}
		rel, err := sf.Relation(keys.FromSorted(sf.Keys))
		if err != nil {
			t.Fatalf("accepted segment failed to materialize: %v", err)
		}
		out, err := Encode(rel)
		if err != nil {
			t.Fatalf("accepted segment failed to re-encode: %v", err)
		}
		if !bytes.Equal(data, out) {
			t.Fatalf("write→open→write not byte-identical: %d in, %d out", len(data), len(out))
		}
	})
}

// FuzzReplayWAL drives the WAL record framing with arbitrary bytes:
// replay never panics; what it accepts is exactly a byte prefix of the
// input — the accepted records, re-encoded, reproduce it, with
// consecutive sequence numbers from 1 — so nothing past a torn or
// corrupt record is ever applied; and appending arbitrary garbage to a
// valid log never changes the records it already held (the garbage may
// at most happen to be further valid records).
func FuzzReplayWAL(f *testing.F) {
	for _, seed := range walSeeds() {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, data, garbage []byte) {
		recs := replayWAL(data)
		var valid []byte
		for i, r := range recs {
			if r.seq != uint64(i)+1 {
				t.Fatalf("record %d carries sequence number %d", i, r.seq)
			}
			valid = append(valid, encodeRecord(r.seq, r.op, r.name, r.payload)...)
		}
		if !bytes.HasPrefix(data, valid) {
			t.Fatalf("the %d accepted records re-encode to %d bytes that are not a prefix of the %d-byte input", len(recs), len(valid), len(data))
		}
		extended := replayWAL(append(valid[:len(valid):len(valid)], garbage...))
		if len(extended) < len(recs) {
			t.Fatalf("%d bytes of garbage after a valid log of %d records left %d", len(garbage), len(recs), len(extended))
		}
		for i, r := range recs {
			if e := extended[i]; e.seq != r.seq || e.op != r.op || e.name != r.name || !bytes.Equal(e.payload, r.payload) {
				t.Fatalf("record %d changed once garbage followed the log: %+v, was %+v", i, e, r)
			}
		}
	})
}
