package core

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// TestFanOutPanicSurfacesOnCaller raises a panic on one of the worker
// goroutines PrepareLeaves sorts its clones on: it must come out on the
// caller's goroutine — the original value (here a runtime.Error) and
// the worker's stack — after every worker has finished, not end the
// process.
func TestFanOutPanicSurfacesOnCaller(t *testing.T) {
	var ran atomic.Int32
	var raised any
	func() {
		defer func() { raised = recover() }()
		fanOut(4, 2, func(i int) {
			defer ran.Add(1)
			if i == 1 {
				var empty []int
				_ = empty[i]
			}
		})
		t.Error("fanOut returned, want the worker's panic")
	}()
	p, _ := raised.(*PlanPanic)
	var rte runtime.Error
	if p == nil || !errors.As(p, &rte) || !strings.Contains(p.Error(), "index out of range") || !strings.Contains(string(p.Stack), "core.fanOut") {
		t.Fatalf("recovered %v, want a *PlanPanic carrying the worker's runtime error and stack", raised)
	}
	if ran.Load() != 4 {
		t.Fatalf("%d of 4 workers had finished when the panic surfaced", ran.Load())
	}
}
