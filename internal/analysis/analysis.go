// Package analysis is the repository's static-analysis layer: a small,
// dependency-free implementation of the go/analysis pattern (Analyzer,
// Pass, Diagnostic) plus the four repo-specific analyzers that
// machine-check the execution stack's hand-enforced invariants —
// batch-pool Get/Put discipline, atomic-field access discipline,
// catalog lock/snapshot discipline and producer cancellation. The suite runs over the whole module via
// cmd/tpvet (a multichecker in the vet mold) and over golden fixtures
// in the package tests.
//
// The framework is deliberately self-contained: the build environment
// bakes in only the standard library, so instead of depending on
// golang.org/x/tools/go/analysis the package re-creates the slice of it
// the analyzers need. Loading mirrors how the real drivers work —
// `go list -deps -export` supplies compiled export data for every
// dependency, target packages are type-checked from source against it
// (load.go) — and the analyzers themselves are written so a future
// migration onto x/tools is a mechanical port.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, positioned in a loaded package.
type Diagnostic struct {
	Analyzer string    // reporting analyzer's name
	Pos      token.Pos // position of the offending expression
	Message  string
}

// Analyzer is one named, documented check. Run inspects a single
// type-checked package and reports findings through the pass. Collect,
// when non-nil, is executed over every loaded package before any Run —
// the cross-package fact-gathering phase (atomicfield records which
// struct fields are accessed atomically anywhere before flagging plain
// accesses everywhere). Analyzers that keep Collect state are built
// fresh per driver run via their New* constructor, so runs never share
// state.
type Analyzer struct {
	Name    string
	Doc     string
	Collect func(*Pass)
	Run     func(*Pass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns a fresh instance of the full tpvet suite, in the
// order findings should be reported.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NewBatchPool(),
		NewAtomicField(),
		NewLockSnap(),
		NewCtxDone(),
	}
}

// ByName returns a fresh instance of the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the analyzers over the loaded packages: every Collect
// phase over every package first, then every Run. Diagnostics are
// filtered through //tpvet:ignore directives and returned sorted by
// position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		if a.Collect == nil {
			continue
		}
		for _, pkg := range pkgs {
			a.Collect(pkg.pass(a, collect))
		}
	}
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			a.Run(pkg.pass(a, collect))
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if !suppressed(pkgs, d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Pos != kept[j].Pos {
			return kept[i].Pos < kept[j].Pos
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept
}

// pass binds a package to an analyzer run.
func (p *Package) pass(a *Analyzer, report func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer: a,
		Fset:     p.Fset,
		Files:    p.Files,
		Pkg:      p.Types,
		Info:     p.Info,
		report:   report,
	}
}

// suppressed reports whether a //tpvet:ignore directive covers the
// diagnostic: a comment of the form
//
//	//tpvet:ignore <analyzer> <justification>
//
// on the diagnostic's line or the line directly above it, in the same
// file, with a non-empty justification. The directive is deliberately
// narrow — one analyzer, one site, a recorded reason — mirroring
// staticcheck's lint:ignore contract.
func suppressed(pkgs []*Package, d Diagnostic) bool {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if f.Pos() <= d.Pos && d.Pos <= f.End() {
				line := pkg.Fset.Position(d.Pos).Line
				for _, cg := range f.Comments {
					for _, c := range cg.List {
						cl := pkg.Fset.Position(c.Pos()).Line
						if cl != line && cl != line-1 {
							continue
						}
						rest, ok := strings.CutPrefix(c.Text, "//tpvet:ignore ")
						if !ok {
							continue
						}
						fields := strings.Fields(rest)
						if len(fields) >= 2 && fields[0] == d.Analyzer {
							return true
						}
					}
				}
				return false
			}
		}
	}
	return false
}

// --- shared type-matching helpers ---

// isPkg reports whether pkg is the named repository package: the path
// is either exactly name (fixture stubs), ends in "/"+name (the real
// module layout), or — for stdlib matches like "sync/atomic" — equals
// the full path. nil pkg (universe scope) never matches.
func isPkg(pkg *types.Package, name string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == name || strings.HasSuffix(p, "/"+name)
}

// namedType unwraps pointers and aliases down to a *types.Named, or nil.
func namedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named
// type pkg.name, with pkg matched via isPkg.
func isNamed(t types.Type, pkg, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil {
		return false
	}
	return n.Obj().Name() == name && isPkg(n.Obj().Pkg(), pkg)
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (through plain idents and selector expressions), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// isCallTo reports whether call invokes the function pkg.name.
func isCallTo(info *types.Info, call *ast.CallExpr, pkg, name string) bool {
	f := calleeFunc(info, call)
	return f != nil && f.Name() == name && isPkg(f.Pkg(), pkg)
}

// exprString keys guard/fact maps by an expression's source form.
func exprString(e ast.Expr) string { return types.ExprString(e) }

// terminates reports whether the statement list definitely transfers
// control out of the enclosing block: its last statement is a return,
// a branch (break/continue/goto), or a call to panic. Used for the
// early-exit guard idiom (`if b.Dict == nil { return }`).
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch s := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok.String() == "break" || s.Tok.String() == "continue" || s.Tok.String() == "goto"
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	}
	return false
}
