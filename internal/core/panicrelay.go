package core

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
)

// PanicRelay carries a panic off a plan's helper goroutines —
// PrepareLeaves' sort workers, the engine's shard producers — to the
// goroutine that consumes the plan. A panic nobody recovers on a helper
// goroutine ends the process, whatever net the caller has spread on its
// own goroutine (the server's per-request recover, a library caller's);
// relayed, it reaches that net, as it would have from the sequential
// plan. The zero value is ready to use.
type PanicRelay struct {
	first atomic.Pointer[PlanPanic]
}

// PlanPanic is what Reraise panics with: the value a helper goroutine
// panicked with and that goroutine's stack at the time.
type PlanPanic struct {
	Value any
	Stack []byte
}

func (p *PlanPanic) Error() string {
	return fmt.Sprintf("panic on a plan goroutine: %v\n\n%s", p.Value, p.Stack)
}

// Unwrap exposes a panic value that is itself an error (a runtime.Error,
// say) to errors.As at the recover site.
func (p *PlanPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// Capture recovers a panic on the helper goroutine and records the first
// one, with its stack. It must be the deferred call itself:
// defer relay.Capture().
func (r *PanicRelay) Capture() {
	if p := recover(); p != nil {
		r.first.CompareAndSwap(nil, &PlanPanic{Value: p, Stack: debug.Stack()})
	}
}

// Caught reports whether a panic has been captured: the plan has failed,
// and helpers that check stop working on it.
func (r *PanicRelay) Caught() bool { return r.first.Load() != nil }

// Reraise panics on the calling goroutine with the first captured panic
// (a *PlanPanic); without one it returns.
func (r *PanicRelay) Reraise() {
	if p := r.first.Load(); p != nil {
		panic(p)
	}
}
