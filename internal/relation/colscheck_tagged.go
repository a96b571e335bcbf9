//go:build tpinvariants

package relation

import (
	"fmt"
	"unsafe"
)

// checkFidRegion is the tpinvariants-build body of the FidCol accessor
// hook: when the cached column was installed by SetBinding over a
// foreign region (an mmap'd segment), it must still lie entirely inside
// that region — a column that escaped the mapping means the pointer
// fixup or a segment replace went wrong, and reading it would fault or
// serve another relation's bytes. Violations panic with a site-naming
// diagnostic like the internal/invariant layer (the check lives here
// because invariant imports relation, so relation cannot import it
// back).
func (r *Relation) checkFidRegion() {
	if len(r.fid) == 0 || r.region == nil {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(r.region)))
	hi := lo + uintptr(len(r.region))
	start := uintptr(unsafe.Pointer(unsafe.SliceData(r.fid)))
	end := start + 8*uintptr(len(r.fid))
	if start < lo || end > hi || end < start {
		panic(fmt.Sprintf(
			"invariant violation at relation.FidCol(%s): fid column spans [%#x,%#x) outside mapped region [%#x,%#x)",
			r.Schema.Name, start, end, lo, hi))
	}
}
