package relation

import "testing"

// FuzzSkipToFid is the differential pin on the run-skipping primitive:
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
