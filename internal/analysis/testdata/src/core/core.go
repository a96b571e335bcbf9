// Package core is the fixture stub for internal/core: the analyzers
// match packages by name/path suffix and members by name, so this
// mirror of the pooled-batch API is all a hermetic fixture needs.
package core

type Dict struct{ n int }

type Tuple struct{ Fact []string }

type Batch struct {
	Tuples []Tuple
	Fid    []int64
	Dict   *Dict
}

func GetBatch() *Batch      { return &Batch{} }
func PutBatch(b *Batch)     {}
func NewBatch(n int) *Batch { return &Batch{Tuples: make([]Tuple, 0, n)} }
