package relation

import "testing"

// FuzzSkipToFid is the differential pin on the shard cut's primitive:
// on arbitrary fuzzer-derived sorted id columns, the galloping search
// must land on exactly the index a linear scan finds — the first entry
// not below the probe. Deltas are cumulated so any byte string yields a
// valid non-decreasing column; the probe covers below-, inside- and
// past-range targets.
func FuzzSkipToFid(f *testing.F) {
	f.Add([]byte{1, 0, 3, 3, 7}, uint16(2))
	f.Add([]byte{0, 0, 0, 0}, uint16(0))
	f.Add([]byte{5}, uint16(9))
	f.Add([]byte{}, uint16(1))
	f.Add([]byte{15, 15, 15, 1, 1, 1, 0, 2}, uint16(40))
	f.Fuzz(func(t *testing.T, deltas []byte, probe uint16) {
		if len(deltas) > 2048 {
			deltas = deltas[:2048]
		}
		fid := make([]int64, len(deltas))
		var acc int64
		for i, d := range deltas {
			acc += int64(d % 8) // runs of equal ids every few entries
			fid[i] = acc
		}
		target := int64(probe) % (acc + 2) // below, within and past the column

		got := SkipToFid(fid, target)
		want := 0
		for want < len(fid) && fid[want] < target {
			want++
		}
		if got != want {
			t.Fatalf("SkipToFid(%v, %d) = %d, want %d", fid, target, got, want)
		}
	})
}

// FuzzSkipTo is the differential pin on the sweep's run-skipping
// primitive: on arbitrary fuzzer-derived blocks — a sorted id column
// over rows whose intervals, per fact, are disjoint and ascending, the
// shape of every duplicate-free sorted relation — the gallop to a
// (fact, time) point must land on exactly the index a linear scan
// finds: the first row that is not of a smaller fact and not of the
// target fact ending at or before the time. Each byte is one row: its
// low two bits open a new fact or stay (runs of a few rows per fact),
// the rest are the gap to the previous interval of the fact (0–3, so
// adjacency occurs) and the length. Probes cover facts below, inside and
// past the block, times before, inside and past a fact's chain, and the
// minimum time, which must agree with SkipToFid.
func FuzzSkipTo(f *testing.F) {
	f.Add([]byte{0x00, 0x15, 0x26, 0x37, 0x00, 0x41}, uint16(1), int16(5))
	f.Add([]byte{0x00, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11}, uint16(1), int16(6)) // one fact (the Fig. 7 shape), adjacent intervals
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}, uint16(2), int16(-1))                        // one row per fact, minimum time
	f.Add([]byte{0x01, 0x02, 0x03}, uint16(9), int16(3))                               // target beyond the block
	f.Add([]byte{}, uint16(0), int16(0))                                               // empty block
	f.Add([]byte{0x00, 0x75, 0x75, 0x00, 0x75}, uint16(1), int16(1000))                // time past the fact's chain: into the next fact
	f.Fuzz(func(t *testing.T, data []byte, probeFact uint16, probeTime int16) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		fid := make([]int64, len(data))
		rows := make([]Tuple, len(data))
		var acc, cursor, maxTe int64
		for i, d := range data {
			if d&3 == 0 {
				acc, cursor = acc+1, 0
			}
			ts := cursor + int64(d>>2&3)
			cursor = ts + 1 + int64(d>>4)
			fid[i], rows[i].T.Ts, rows[i].T.Te = acc, ts, cursor
			maxTe = max(maxTe, cursor)
		}
		target := int64(probeFact) % (acc + 2) // below, within and past the block
		te := MinTime
		if probeTime >= 0 {
			te = int64(probeTime) % (maxTe + 2) // before, within and past every chain
		}

		got := SkipTo(fid, rows, target, te)
		want := 0
		for want < len(fid) && (fid[want] < target || (fid[want] == target && rows[want].T.Te <= te)) {
			want++
		}
		if got != want {
			t.Fatalf("SkipTo(%v, %v, %d, %d) = %d, want %d", fid, rows, target, te, got, want)
		}
		if byFid := SkipToFid(fid, target); te == MinTime && got != byFid {
			t.Fatalf("SkipTo(…, %d, MinTime) = %d, SkipToFid = %d", target, got, byFid)
		}
	})
}
