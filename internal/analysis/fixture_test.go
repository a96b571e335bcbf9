package analysis

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFixture loads testdata/src/<path>, runs the analyzer over it, and
// matches diagnostics against `// want "regex"` comments analysistest-
// style: every diagnostic must be wanted by a regex on its line, and
// every want must be matched by exactly the diagnostics on its line.
func runFixture(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadFixture(root, path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{a})

	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[string][]*want) // "file:line" -> expectations
	wantRx := regexp.MustCompile("`([^`]*)`|\"([^\"]*)\"")
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRx.FindAllStringSubmatch(rest, -1) {
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, expr, err)
					}
					key := posKey(pos)
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		ws := wants[posKey(pos)]
		matched := false
		for _, w := range ws {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.re)
			}
		}
	}
}

func posKey(pos token.Position) string {
	return pos.Filename + ":" + itoa(pos.Line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [16]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestBatchPoolFixture(t *testing.T)   { runFixture(t, NewBatchPool(), "batchpool/a") }
func TestAtomicFieldFixture(t *testing.T) { runFixture(t, NewAtomicField(), "atomicfield/a") }
func TestLockSnapFixture(t *testing.T)    { runFixture(t, NewLockSnap(), "locksnap/server") }
func TestCtxDoneFixture(t *testing.T)     { runFixture(t, NewCtxDone(), "ctxdone/a") }

// TestSuiteCleanOnTree pins the tentpole acceptance bar: the whole
// module runs clean under every analyzer. New code that violates a
// checked invariant fails this test (and cmd/tpvet in CI) until it is
// fixed or carries a justified //tpvet:ignore.
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool to list and load the module")
	}
	pkgs, err := Load([]string{"github.com/tpset/tpset/..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags := Run(pkgs, Analyzers())
	for _, d := range diags {
		t.Errorf("%s: %s: %s", pkgs[0].Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
