package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"sync/atomic"
)

// Request-scoped observability plumbing: a request ID minted per HTTP
// request, and a request-scoped structured logger tagged with it and
// carried through context, so the engine's shard workers can emit logs
// that correlate with the request that spawned them.

type ctxKey int

const ctxKeyLogger ctxKey = 0

// reqPrefix is a per-process random prefix so request IDs from
// different server instances do not collide in aggregated logs.
var reqPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req"
	}
	return hex.EncodeToString(b[:])
}()

var reqCounter atomic.Uint64

// NewRequestID mints a process-unique request identifier: a random
// per-process prefix plus a sequence number. Cheap (one atomic add, no
// allocation beyond the string) and unique enough to grep a request
// across interleaved JSON log lines.
func NewRequestID() string {
	return fmt.Sprintf("%s-%06d", reqPrefix, reqCounter.Add(1))
}

// WithLogger returns a context carrying a request-scoped logger
// (typically already tagged with the request ID via Logger.With).
func WithLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, ctxKeyLogger, l)
}

// Logger returns the context's request-scoped logger, or nil when none
// is set. Callers on hot paths check for nil before assembling log
// attributes, so un-logged executions pay one context lookup at most.
func Logger(ctx context.Context) *slog.Logger {
	l, _ := ctx.Value(ctxKeyLogger).(*slog.Logger)
	return l
}
