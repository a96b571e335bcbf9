//go:build !tpinvariants

package relation

// checkFidRegion is a no-op without the tpinvariants tag; the FidCol
// accessor call compiles away. See colscheck_tagged.go for the checked
// body.
func (r *Relation) checkFidRegion() {}
