package obs

import (
	"context"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanSnapshotTree(t *testing.T) {
	root := NewSpan("∩Tp")
	l := root.NewChild("scan(r)")
	r := root.NewChild("scan(s)")
	l.tuples.Add(10)
	l.batches.Add(1)
	r.tuples.Add(7)
	root.tuples.Add(5)
	root.SetWindows(17)
	root.SetGallops(3)
	root.AddWall(30 * time.Microsecond)
	l.AddWall(10 * time.Microsecond)
	r.AddWall(5 * time.Microsecond)

	st := root.Snapshot()
	if st.Op != "∩Tp" || st.TuplesOut != 5 || st.TuplesIn != 17 {
		t.Fatalf("root snapshot wrong: %+v", st)
	}
	if st.Windows != 17 || st.Gallops != 3 {
		t.Fatalf("advancer counters wrong: %+v", st)
	}
	if len(st.Children) != 2 || st.Children[0].TuplesOut != 10 || st.Children[1].TuplesOut != 7 {
		t.Fatalf("children wrong: %+v", st.Children)
	}
	if st.SelfMicros != 30-15 {
		t.Fatalf("self time: got %d, want 15", st.SelfMicros)
	}

	var b strings.Builder
	st.WriteIndented(&b)
	out := b.String()
	if !strings.Contains(out, "∩Tp") || !strings.Contains(out, "  scan(r)") {
		t.Fatalf("indented rendering missing nodes:\n%s", out)
	}
	if strings.Count(out, "\n") != 3 {
		t.Fatalf("want 3 lines, got:\n%s", out)
	}
}

// TestSpanPull pins what one pull records: its wall time always, its
// tuples and one batch only when it delivered any; a nil span — an
// untraced plan node — records nothing and does not panic.
func TestSpanPull(t *testing.T) {
	sp := NewSpan("scan(r)")
	sp.Pull(time.Now().Add(-3*time.Microsecond), 7)
	sp.Pull(time.Now().Add(-2*time.Microsecond), 0)
	if st := sp.Snapshot(); st.TuplesOut != 7 || st.Batches != 1 || st.WallMicros < 5 {
		t.Fatalf("two pulls, one of 7 tuples: %+v", st)
	}
	var untraced *Span
	untraced.Pull(time.Now(), 3)
	untraced.AddGallops(1)
}

func TestSpanConcurrentSnapshot(t *testing.T) {
	root := NewSpan("merge")
	shards := make([]*Span, 4)
	for i := range shards {
		shards[i] = root.NewChild("shard")
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, sp := range shards {
		wg.Add(1)
		go func(sp *Span) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					sp.Pull(time.Now(), 1)
					sp.AddGallops(1)
				}
			}
		}(sp)
	}
	for i := 0; i < 100; i++ {
		_ = root.Snapshot() // must be race-free against writers
	}
	close(stop)
	wg.Wait()
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		us   int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10},
		{1 << 25, histMaxExp}, {1<<25 + 1, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.us); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.us, got, c.want)
		}
	}
}

func TestHistogramSnapshotAndQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket le=128µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond) // bucket le=16384µs
	}
	st := h.Snapshot()
	if st.Count != 100 {
		t.Fatalf("count: got %d", st.Count)
	}
	if want := int64(90*100 + 10*10000); st.SumMicros != want {
		t.Fatalf("sum: got %d, want %d", st.SumMicros, want)
	}
	if st.P50Micros != 128 || st.P90Micros != 128 {
		t.Fatalf("p50/p90: got %g/%g, want 128/128", st.P50Micros, st.P90Micros)
	}
	if st.P99Micros != 16384 {
		t.Fatalf("p99: got %g, want 16384", st.P99Micros)
	}
}

func TestHistogramPrometheusFormat(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Microsecond)
	h.Observe(2 * time.Minute) // +Inf bucket
	var b strings.Builder
	h.WritePrometheus(&b, "tpset_test_seconds", "test histogram")
	out := b.String()
	for _, want := range []string{
		"# TYPE tpset_test_seconds histogram",
		`tpset_test_seconds_bucket{le="1e-06"} 0`,
		`tpset_test_seconds_bucket{le="4e-06"} 1`,
		`tpset_test_seconds_bucket{le="+Inf"} 2`,
		"tpset_test_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Buckets must be cumulative and non-decreasing.
	if strings.Index(out, `{le="+Inf"} 2`) < strings.Index(out, `{le="4e-06"} 1`) {
		t.Fatalf("buckets not cumulative:\n%s", out)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const per = 1000
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
				_ = h.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8*per {
		t.Fatalf("count: got %d, want %d", got, 8*per)
	}
	st := h.Snapshot()
	if math.IsInf(st.P99Micros, 1) {
		t.Fatalf("p99 inf on bounded observations")
	}
}

func TestRequestIDAndLoggerContext(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b || a == "" {
		t.Fatalf("request IDs not unique: %q %q", a, b)
	}
	if Logger(context.Background()) != nil {
		t.Fatal("empty ctx Logger should be nil")
	}
	l := slog.Default()
	ctx := WithLogger(context.Background(), l)
	if Logger(ctx) != l {
		t.Fatal("Logger round-trip failed")
	}
}
