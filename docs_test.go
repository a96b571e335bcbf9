package tpset_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docPackage is what the prose may name of one package: its top-level
// declarations, and per type its methods and fields (members["Batch"]
// holds "Tuples" and "Append"; every type has an entry). aliases maps a
// type declared as `X = other.Y` to ("other", "Y"), so
// tpset.Options.Span resolves against core.Options.
type docPackage struct {
	decls   map[string]bool
	members map[string]map[string]bool
	aliases map[string][2]string
}

// moduleDocPackages parses every Go file of the root module (benchmark/
// is its own module; testdata holds fuzz corpora): non-test files
// indexed by package name, the Test/Benchmark/Fuzz/Example functions
// the _test.go files declare, by directory ("." is the root package),
// and the package doc comments of the non-test files, by path.
func moduleDocPackages(t *testing.T) (map[string]*docPackage, map[string]map[string]bool, map[string]string) {
	t.Helper()
	pkgs := map[string]*docPackage{}
	tests := map[string]map[string]bool{}
	docs := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "benchmark" || path == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if tests[dir] == nil {
				tests[dir] = map[string]bool{}
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && docTestName.MatchString(fn.Name.Name) {
					tests[dir][fn.Name.Name] = true
				}
			}
			return nil
		}
		if f.Doc != nil {
			docs[path] = f.Doc.Text()
		}
		p := pkgs[f.Name.Name]
		if p == nil {
			p = &docPackage{decls: map[string]bool{}, members: map[string]map[string]bool{}, aliases: map[string][2]string{}}
			pkgs[f.Name.Name] = p
		}
		member := func(typ, name string) {
			if p.members[typ] == nil {
				p.members[typ] = map[string]bool{}
			}
			p.members[typ][name] = true
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					p.decls[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok { // generic receiver
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							p.decls[n.Name] = true
						}
					case *ast.TypeSpec:
						p.decls[s.Name.Name] = true
						if p.members[s.Name.Name] == nil {
							p.members[s.Name.Name] = map[string]bool{}
						}
						switch typ := s.Type.(type) {
						case *ast.StructType:
							for _, field := range typ.Fields.List {
								for _, n := range field.Names {
									member(s.Name.Name, n.Name)
								}
							}
						case *ast.InterfaceType:
							for _, m := range typ.Methods.List {
								for _, n := range m.Names {
									member(s.Name.Name, n.Name)
								}
							}
						case *ast.SelectorExpr:
							if x, ok := typ.X.(*ast.Ident); ok && s.Assign.IsValid() {
								p.aliases[s.Name.Name] = [2]string{x.Name, typ.Sel.Name}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs, tests, docs
}

var (
	docFence = regexp.MustCompile("(?ms)^```.*?^```")
	docSpan  = regexp.MustCompile("`[^`]+`")
	// pkg.Symbol or pkg.Type.Member, not inside a path or a longer chain.
	docName = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Za-z]\w*)(?:\.([A-Za-z]\w*))?`)
	// A test, benchmark, fuzz target or example; a trailing * names every
	// function the prefix starts (`TestMarginalTexts*`).
	docTestName = regexp.MustCompile(`(?:^|[^\w.])((?:Test|Benchmark|Fuzz|Example)[A-Z_]\w*)(\*?)`)
	// A repo path, possibly a glob or a go-list pattern (`./internal/...`),
	// up to any `:symbol` suffix.
	docPath = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?((?:internal|cmd|docs|examples)/[\w./*-]+)`)
)

// TestDocSymbolsResolve keeps the paper→code concordance honest: every
// backticked `pkg.Symbol` / `pkg.Type.Member` in DESIGN.md, README.md and
// docs/PAPER_MAP.md, and every such name in a package doc comment (doc.go
// files and cmd/* included), whose pkg is a package of this module must
// name a declaration of it — a top-level name, or a method or field of
// one of its types (`relation.SetBinding`, as go doc resolves it) — so a
// deletion or a rename cannot leave a dangling name in the prose. Names
// BENCHMARK.json declares are metrics (`bench.trace_overhead_ratio`),
// not symbols; `server.go` is a file. A backticked `Test*`,
// `Benchmark*`, `Fuzz*` or `Example*` name must be a function some
// _test.go file of the module declares, and a backticked repo path
// (`internal/…`, `cmd/…`, `docs/…`, `examples/…`) must exist.
func TestDocSymbolsResolve(t *testing.T) {
	pkgs, byDir, pkgDocs := moduleDocPackages(t)
	tests := map[string]bool{}
	for _, names := range byDir {
		for name := range names {
			tests[name] = true
		}
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var named struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &named); err != nil {
		t.Fatal(err)
	}
	metrics := map[string]bool{}
	for _, m := range append(named.EndToEnd, named.PerLayer...) {
		metrics[m.Name] = true
	}

	// names checks every qualified name in text whose package is one of
	// the module's, and returns how many it checked.
	names := func(where, text string) (checked int) {
		for _, m := range docName.FindAllStringSubmatch(text, -1) {
			p, sym, member := pkgs[m[1]], m[2], m[3]
			if p == nil || sym == "go" || metrics[m[1]+"."+sym] {
				continue
			}
			checked++
			ok := p.decls[sym]
			if !ok { // pkg.Method, pkg.Field: a member of any type, as go doc resolves it
				for _, members := range p.members {
					ok = ok || members[sym]
				}
			} else if p.members[sym] != nil && member != "" { // pkg.Type.Member, through one alias hop
				tp, typ := p, sym
				if a, aliased := p.aliases[sym]; aliased && pkgs[a[0]] != nil {
					tp, typ = pkgs[a[0]], a[1]
				}
				ok = tp.members[typ][member]
			}
			if !ok {
				t.Errorf("%s: %s names nothing in package %s", where, strings.TrimRight(strings.Join(m[1:], "."), "."), m[1])
			}
		}
		return checked
	}

	for _, doc := range []string{"DESIGN.md", "README.md", "docs/PAPER_MAP.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, span := range docSpan.FindAllString(docFence.ReplaceAllString(string(text), ""), -1) {
			checked += names(doc, strings.Trim(span, "`"))
			for _, m := range docTestName.FindAllStringSubmatch(strings.Trim(span, "`"), -1) {
				checked++
				ok := tests[m[1]]
				if m[2] == "*" {
					for name := range tests {
						ok = ok || strings.HasPrefix(name, m[1])
					}
				}
				if !ok {
					t.Errorf("%s: %s names no test function of the module", doc, span)
				}
			}
			for _, m := range docPath.FindAllStringSubmatch(strings.Trim(span, "`"), -1) {
				checked++
				path := strings.TrimSuffix(strings.TrimRight(m[1], "."), "/")
				if hits, _ := filepath.Glob(path); len(hits) == 0 {
					t.Errorf("%s: %s names %s, which does not exist", doc, span, path)
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no backticked package-qualified name found; the extraction is broken", doc)
		}
	}
	checked := 0
	for path, text := range pkgDocs {
		checked += names(path+" (package doc)", text)
	}
	if checked == 0 {
		t.Error("package doc comments: no package-qualified name found; the extraction is broken")
	}
}

// shellContinuation is a backslash-newline and the indent after it.
var shellContinuation = regexp.MustCompile(`\\\n\s*`)

// goTestCmd is one `go test` command line of ci.yml or the Makefile: the
// packages it names and its -run, -bench and -fuzz patterns by flag.
type goTestCmd struct {
	line     string
	pkgs     []string
	patterns map[string][]string
}

// goTestCmds returns the go test commands of a CI or Makefile text:
// comment lines dropped, backslash continuations joined, each command
// read up to an unquoted |, ;, &, > or #, with sh's quoting.
func goTestCmds(text string) []goTestCmd {
	text = strings.NewReplacer("$(GO)", "go", "$$", "$").Replace(text)
	text = shellContinuation.ReplaceAllString(text, " ")
	var cmds []goTestCmd
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		for rest := line; ; {
			i := strings.Index(rest, "go test ")
			if i < 0 {
				break
			}
			rest = rest[i+len("go test "):]
			cmd := goTestCmd{line: strings.TrimSpace(line), patterns: map[string][]string{}}
			words := shellWords(rest)
			for j := 0; j < len(words); j++ {
				w := words[j]
				flag, val, eq := strings.Cut(w, "=")
				switch flag {
				case "-run", "-bench", "-fuzz":
					if !eq && j+1 < len(words) {
						j++
						val = words[j]
					}
					cmd.patterns[flag] = append(cmd.patterns[flag], val)
				default:
					if strings.HasPrefix(w, ".") {
						cmd.pkgs = append(cmd.pkgs, w)
					}
				}
			}
			if len(cmd.pkgs) == 0 {
				cmd.pkgs = []string{"."}
			}
			cmds = append(cmds, cmd)
		}
	}
	return cmds
}

// shellWords splits s into words as sh would for the quoting these
// files use, up to the first unquoted |, ;, &, > or #.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	open, quote := false, byte(0)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			w.WriteByte(c)
		case c == '\'' || c == '"':
			quote, open = c, true
		case c == ' ' || c == '\t' || strings.IndexByte("|;&>#", c) >= 0:
			if open {
				words = append(words, w.String())
				w.Reset()
				open = false
			}
			if c != ' ' && c != '\t' {
				return words
			}
		default:
			w.WriteByte(c)
			open = true
		}
	}
	if open {
		words = append(words, w.String())
	}
	return words
}

// markdownCode returns the code of a Markdown text, one span or fenced
// block per line: the verify skill quotes its go test commands inline,
// and a span may wrap.
func markdownCode(text string) string {
	var code []string
	for _, fence := range docFence.FindAllString(text, -1) {
		code = append(code, strings.Trim(fence, "`"))
	}
	for _, span := range docSpan.FindAllString(docFence.ReplaceAllString(text, ""), -1) {
		code = append(code, strings.ReplaceAll(strings.Trim(span, "`"), "\n", " "))
	}
	return strings.Join(code, "\n")
}

// TestCIPatternsResolve fails on a test name in CI, the Makefile or a
// skill's recipes (the verify skill's SKILL.md) that selects nothing: go test exits 0 on a
// -fuzz, -bench or -run pattern that matches no function ("no fuzz tests
// to fuzz"), so a renamed or deleted target would pass silently. Every
// alternative of every such pattern other than ^$ and . must match a
// function of its kind — Fuzz for -fuzz, Benchmark for -bench, Test,
// Fuzz or Example for -run (for -run and -bench the part before a /
// names the top-level function) — in the packages the command names.
func TestCIPatternsResolve(t *testing.T) {
	_, byDir, _ := moduleDocPackages(t)
	kinds := map[string][]string{"-fuzz": {"Fuzz"}, "-bench": {"Benchmark"}, "-run": {"Test", "Fuzz", "Example"}}
	skills, _ := filepath.Glob(".*/skills/*/SKILL.md")
	if len(skills) == 0 {
		t.Fatal("no skill recipe file found; the glob is broken")
	}
	for _, file := range append([]string{".github/workflows/ci.yml", "Makefile"}, skills...) {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if strings.HasSuffix(file, ".md") {
			text = markdownCode(text)
		}
		checked := 0
		for _, cmd := range goTestCmds(text) {
			var names []string
			for _, pkg := range cmd.pkgs {
				dir := strings.TrimPrefix(pkg, "./")
				found := false
				for d, fns := range byDir {
					if d == dir || (strings.HasSuffix(dir, "...") && (dir == "..." || strings.HasPrefix(d+"/", strings.TrimSuffix(dir, "...")))) {
						found = true
						for name := range fns {
							names = append(names, name)
						}
					}
				}
				if !found && len(cmd.patterns) > 0 {
					t.Errorf("%s: `%s` names package %s, which has no tests", file, cmd.line, pkg)
				}
			}
			for flag, pats := range cmd.patterns {
				for _, pat := range pats {
					if pat == "^$" || pat == "." {
						continue
					}
					for _, alt := range strings.Split(pat, "|") {
						if flag != "-fuzz" {
							alt, _, _ = strings.Cut(alt, "/")
						}
						re, err := regexp.Compile(alt)
						if err != nil {
							t.Errorf("%s: `%s`: %s %q: %v", file, cmd.line, flag, pat, err)
							continue
						}
						checked++
						ok := false
						for _, name := range names {
							for _, kind := range kinds[flag] {
								ok = ok || (strings.HasPrefix(name, kind) && re.MatchString(name))
							}
						}
						if !ok {
							t.Errorf("%s: `%s`: %s alternative %q matches no %s function in %v", file, cmd.line, flag, alt, kinds[flag][0], cmd.pkgs)
						}
					}
				}
			}
		}
		if file != "Makefile" && checked == 0 {
			t.Errorf("%s: no -run, -bench or -fuzz pattern found; the extraction is broken", file)
		}
	}
}
