package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"github.com/tpset/tpset/internal/segment"
)

// Degraded read-only mode. When the attached store's WAL append or
// fsync fails — disk full, dying device — the store latches degraded
// (segment.Store.Degraded) and refuses every later mutation with
// segment.ErrDegraded before it touches the disk; the server answers
// 503 (persistError). The catalog installs a mutation only after the
// store has made it durable, so a refused one is never visible and
// memory and disk never diverge during the outage, while reads keep
// serving the in-memory catalog exactly as before. A closed store
// refuses writes the same way, so a request that outlives a timed-out
// shutdown gets a 503 too. A background
// probe (StartRecoveryProbe) retries the store's recovery sequence until
// the disk returns, after which writes re-arm without a restart.
// /healthz reports the state so operators and load balancers can see it.

// DefaultProbeInterval is the recovery probe cadence when the caller
// passes none: frequent enough that a transient ENOSPC (log rotation,
// compaction elsewhere) clears in seconds, rare enough that a dead disk
// costs one failed append per interval.
const DefaultProbeInterval = 5 * time.Second

// degradedRetryAfter is the Retry-After hint on 503 responses while
// degraded — the probe cadence, since recovery cannot happen faster.
const degradedRetryAfter = 5

// storeDegraded returns the store's degradation cause, nil when healthy
// or memory-only.
func (s *Server) storeDegraded() error {
	if s.store == nil {
		return nil
	}
	return s.store.Degraded()
}

// storeWALErrors returns the store's cumulative WAL write-failure
// count, 0 when memory-only.
func (s *Server) storeWALErrors() uint64 {
	if s.store == nil {
		return 0
	}
	return s.store.WALErrorCount()
}

// persistError classifies a store mutation failure: the refusal of a
// degraded store and WAL-level failures (the append or fsync that would
// have been the acknowledgement) map to 503 — the caller must retry
// after recovery, nothing was lost — anything else stays a 500.
func persistError(verb, name string, err error) error {
	msg := fmt.Sprintf("persisting %s %q: %v", verb, name, err)
	var werr *segment.WALError
	if errors.Is(err, segment.ErrDegraded) || errors.As(err, &werr) {
		return &httpError{status: http.StatusServiceUnavailable,
			msg:        msg + " (store degraded; retry after recovery)",
			retryAfter: degradedRetryAfter}
	}
	return errors.New(msg)
}

// StartRecoveryProbe launches the background re-arm loop: every
// interval (DefaultProbeInterval when <= 0) it checks the store and,
// if degraded, runs segment.Store.TryRecover — flush what the WAL
// already acknowledged, truncate any torn tail, prove append+fsync
// works again with a no-op record. On success the store un-latches and
// mutations flow again. The goroutine exits when ctx is cancelled; a
// memory-only server starts nothing.
func (s *Server) StartRecoveryProbe(ctx context.Context, interval time.Duration) {
	st := s.store
	if st == nil {
		return
	}
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			cause := st.Degraded()
			if cause == nil {
				continue
			}
			if err := st.TryRecover(); err != nil {
				s.logDegrade(ctx, slog.LevelWarn, "recovery probe failed; store stays degraded", err)
				continue
			}
			s.logDegrade(ctx, slog.LevelInfo, "store recovered; mutations re-enabled", cause)
		}
	}()
}

// logDegrade emits a degraded-mode transition record when logging is
// configured; err carries the probe failure or the cleared cause.
func (s *Server) logDegrade(ctx context.Context, level slog.Level, msg string, err error) {
	if s.cfg.Logger == nil {
		return
	}
	s.cfg.Logger.LogAttrs(ctx, level, msg, slog.Any("cause", err))
}
