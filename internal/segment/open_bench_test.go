package segment

import (
	"testing"
)

// BenchmarkOpenStore measures the restart cold-open path against a
// cleanly closed two-relation data dir: WAL inspection, reading, decode
// and validation for every segment.
func BenchmarkOpenStore(b *testing.B) {
	dir := b.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Put("r", testRelation(b, "r", 20000), nil); err != nil {
		b.Fatal(err)
	}
	if err := st.Put("s", testRelation(b, "s", 20000), nil); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore measures catalog materialization over an open store:
// tuple reconstruction and fid-column binding for every segment.
func BenchmarkRestore(b *testing.B) {
	dir := b.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Put("r", testRelation(b, "r", 20000), nil); err != nil {
		b.Fatal(err)
	}
	if err := st.Put("s", testRelation(b, "s", 20000), nil); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Restore consumes the decoded row sections, so every iteration
		// needs a freshly opened store; only the Restore is timed.
		b.StopTimer()
		st, err := OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := st.Restore(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := st.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
