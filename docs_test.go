package dive

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// updateGolden rewrites EXPERIMENTS.md's perf ledger (make experiments).
var updateGolden = flag.Bool("update-golden", false, "rewrite EXPERIMENTS.md's perf ledger from BENCH_*.json")

// ledgerAnchorPR is the ROADMAP re-anchor the ledger's running product of
// fps ratios starts after.
const ledgerAnchorPR = 30

// TestPerfLedger: EXPERIMENTS.md's perf ledger, between the <!-- ledger -->
// markers, is the one perfLedger builds from the committed BENCH_<pr>.json
// files, so a new file lands together with its row.
func TestPerfLedger(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	open, end := "<!-- ledger -->\n", "<!-- /ledger -->\n"
	i, j := strings.Index(string(doc), open), strings.Index(string(doc), end)
	if strings.Count(string(doc), open) != 1 || strings.Count(string(doc), end) != 1 || j < i {
		t.Fatalf("EXPERIMENTS.md: want exactly one %q … %q block", open, end)
	}
	want := string(doc[:i+len(open)]) + perfLedger(t) + string(doc[j:])
	if *updateGolden {
		if err := os.WriteFile("EXPERIMENTS.md", []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want != string(doc) {
		t.Error("EXPERIMENTS.md's perf ledger differs from BENCH_*.json; regenerate it with make experiments")
	}
}

// benchFile is the part of a BENCH_<pr>.json file the ledger reads.
type benchFile struct {
	RunMeta struct {
		Claim string `json:"claim"`
	} `json:"run_meta"`
	Workloads map[string]struct {
		Pairs   int `json:"pairs"`
		Metrics map[string]struct {
			Parent      struct{ Median float64 } `json:"parent"`
			Change      struct{ Median float64 } `json:"change"`
			ChangeWins  int                      `json:"change_wins"`
			PerPair     [][2]float64             `json:"per_pair"`
			WithinBound *bool                    `json:"within_bound"`
		} `json:"metrics"`
	} `json:"workloads"`
}

// perfLedger renders one row per BENCH_<pr>.json, in PR order: the file's
// claim, the claimed metric (claimedCell), each BENCHMARK.json workload's
// fps change/parent median ratio with the pairs the change won, and whether
// every end-to-end metric stayed within its bound ("—" where a file does
// not say); then the product of the fps ratios since the ledgerAnchorPR
// re-anchor.
func perfLedger(t *testing.T) string {
	var spec benchSpec
	readJSON(t, "BENCHMARK.json", &spec)
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_*.json files (%v)", err)
	}
	prOf := func(path string) int {
		pr, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(path, "BENCH_"), ".json"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return pr
	}
	sort.Slice(paths, func(i, j int) bool { return prOf(paths[i]) < prOf(paths[j]) })

	var b strings.Builder
	b.WriteString("| PR | claim | claimed metric |")
	product := map[string]float64{}
	for _, w := range spec.Workloads {
		fmt.Fprintf(&b, " `%s` fps |", w.Name)
		product[w.Name] = 1
	}
	b.WriteString(" within bound |\n|---|---|---|" + strings.Repeat("---|", len(spec.Workloads)+1) + "\n")
	var since []string
	for _, path := range paths {
		pr := prOf(path)
		var f benchFile
		readJSON(t, path, &f)
		claim := strings.Join(strings.Fields(f.RunMeta.Claim), " ")
		if claim == "" {
			claim = "—"
		}
		fmt.Fprintf(&b, "| %d | %s | %s |", pr, strings.ReplaceAll(claim, "|", `\|`), claimedCell(t, path, spec, f))
		if pr > ledgerAnchorPR {
			since = append(since, strconv.Itoa(pr))
		}
		var over []string
		unjudged := false
		for _, w := range spec.Workloads {
			wl := f.Workloads[w.Name]
			fps := wl.Metrics["fps"]
			if fps.Parent.Median == 0 {
				t.Fatalf("%s: no fps medians for %s", path, w.Name)
			}
			ratio := fps.Change.Median / fps.Parent.Median
			fmt.Fprintf(&b, " ×%.3f (%d/%d) |", ratio, fps.ChangeWins, wl.Pairs)
			if pr > ledgerAnchorPR {
				product[w.Name] *= ratio
			}
			for _, m := range spec.EndToEnd {
				switch mt, ok := wl.Metrics[m.Name]; {
				case !ok || mt.WithinBound == nil:
					unjudged = true
				case !*mt.WithinBound:
					over = append(over, m.Name+" on "+w.Name)
				}
			}
		}
		switch {
		case len(over) > 0:
			fmt.Fprintf(&b, " no: %s |\n", strings.Join(over, ", "))
		case unjudged:
			b.WriteString(" — |\n")
		default:
			b.WriteString(" yes |\n")
		}
	}
	var products []string
	for _, w := range spec.Workloads {
		products = append(products, fmt.Sprintf("`%s` ×%.2f", w.Name, product[w.Name]))
	}
	fmt.Fprintf(&b, "\nProduct of the fps ratios since the PR %d re-anchor (PRs %s): %s.\n",
		ledgerAnchorPR, strings.Join(since, ", "), strings.Join(products, ", "))
	return b.String()
}

// benchSpec is the part of BENCHMARK.json the ledger reads.
type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string
		Better string
	} `json:"end_to_end"`
}

// claimedCell is the ledger cell of a file's claim: for each end-to-end
// metric and each workload the claim names (as whole words, in
// BENCHMARK.json order), the metric's change/parent median ratio on that
// workload and the pairs the change won, a win being a pair where the
// change moved the metric in its "better" direction. A claim of none, an
// empty claim and one that names no metric and workload read "—".
func claimedCell(t *testing.T, path string, spec benchSpec, f benchFile) string {
	claim := strings.ToLower(f.RunMeta.Claim)
	if strings.HasPrefix(strings.TrimSpace(claim), "none") {
		return "—"
	}
	named := map[string]bool{}
	for _, w := range strings.FieldsFunc(claim, func(r rune) bool {
		return !(r == '_' || r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	}) {
		named[w] = true
	}
	var cells []string
	for _, m := range spec.EndToEnd {
		for _, w := range spec.Workloads {
			if !named[m.Name] || !named[w.Name] {
				continue
			}
			wl := f.Workloads[w.Name]
			mt, ok := wl.Metrics[m.Name]
			if !ok || mt.Parent.Median == 0 || len(mt.PerPair) == 0 {
				t.Fatalf("%s: the claimed %s on %s has no medians or pairs", path, m.Name, w.Name)
			}
			wins := 0
			for _, p := range mt.PerPair {
				if m.Better == "higher" && p[1] > p[0] || m.Better == "lower" && p[1] < p[0] {
					wins++
				}
			}
			cells = append(cells, fmt.Sprintf("`%s` on `%s` ×%.3f (%d/%d)",
				m.Name, w.Name, mt.Change.Median/mt.Parent.Median, wins, len(mt.PerPair)))
		}
	}
	if len(cells) == 0 {
		return "—"
	}
	return strings.Join(cells, ", ")
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestDocsNameWhatExists keeps README.md, DESIGN.md and EXPERIMENTS.md from
// naming what the tree lacks: every `make <target>` in a code span or fenced
// block must be a Makefile target, every internal/<pkg> named in one must be
// a directory, and every -flag that follows a cmd/<binary> name inside one
// must be defined by that binary's flag set (read from its source: the
// string literal of each fs.<Type>("name", …) call). A span that starts with
// a flag and names no binary ("the send window (`-window`)") must be some
// binary's flag, or one of go test's (the benchmark's run.sh takes
// double-dash options and is not checked). In README.md and DESIGN.md, every
// <pkg>.<Ident> in a code span or fenced block, where internal/<pkg> exists,
// must name a function, method, type, variable or constant declared in that
// package's non-test files, a <pkg>.<Type>.<Name> must name a field or
// method of that type, and a metric name (a dive_, codec_, netsim_, edge_,
// e2e_, slo_, go_ or obs_ token ending in a unit suffix, less a histogram's
// _count / _sum / _bucket) must be the value of an internal/obs constant.
func TestDocsNameWhatExists(t *testing.T) {
	targets := map[string]bool{}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}

	flags := map[string]map[string]bool{} // binary → defined flags
	anyBinary := map[string]bool{"race": true, "cpu": true, "run": true, "bench": true, "benchmem": true, "benchtime": true, "count": true}
	dirs, err := filepath.Glob("cmd/*")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no cmd/* directories (%v)", err)
	}
	flagDef := regexp.MustCompile(`\bfs\.[A-Z]\w*\(\s*(?:&?[\w.]+,\s*)?"([^"]+)"`)
	for _, dir := range dirs {
		defined := map[string]bool{"h": true, "help": true}
		srcs, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, src := range srcs {
			if strings.HasSuffix(src, "_test.go") {
				continue
			}
			b, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagDef.FindAllStringSubmatch(string(b), -1) {
				defined[m[1]] = true
			}
		}
		if len(defined) == 2 {
			t.Fatalf("%s: found no flag definitions; has the FlagSet variable been renamed from fs?", dir)
		}
		flags[filepath.Base(dir)] = defined
		for name := range defined {
			anyBinary[name] = true
		}
	}

	declared := map[string]*pkgDecls{} // internal package → what it declares
	goUse := regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
	metrics := declaredNames(t, filepath.Join("internal", "obs")).strings
	metricUse := regexp.MustCompile(`\b((?:dive|codec|netsim|edge|e2e|slo|go|obs)_\w*_(?:total|seconds|bps|bytes|fraction))(?:_count|_sum|_bucket)?\b`)

	makeUse := regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)
	pkgUse := regexp.MustCompile(`\binternal/([a-z][a-z0-9_]*)`)
	flagUse := regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range codeSegments(string(b)) {
			for _, m := range makeUse.FindAllStringSubmatch(seg, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: `make %s` is not a Makefile target (in %q)", doc, m[1], seg)
				}
			}
			for _, m := range pkgUse.FindAllStringSubmatch(seg, -1) {
				if fi, err := os.Stat(filepath.Join("internal", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s: internal/%s is not a directory (in %q)", doc, m[1], seg)
				}
			}
			if doc != "EXPERIMENTS.md" {
				for _, m := range metricUse.FindAllStringSubmatch(seg, -1) {
					if !metrics[m[1]] {
						t.Errorf("%s: no internal/obs constant names the metric %s (in %q)", doc, m[1], seg)
					}
				}
				for _, m := range goUse.FindAllStringSubmatch(seg, -1) {
					decls, ok := declared[m[1]]
					if !ok {
						decls = declaredNames(t, filepath.Join("internal", m[1]))
						declared[m[1]] = decls
					}
					switch {
					case decls == nil:
					case !decls.names[m[2]]:
						t.Errorf("%s: internal/%s declares no %s (in %q)", doc, m[1], m[2], seg)
					case m[3] != "" && decls.members[m[2]] != nil && !decls.members[m[2]][m[3]]:
						// members[m[2]] is nil when m[2] is not a type.
						t.Errorf("%s: %s.%s has no field or method %s (in %q)", doc, m[1], m[2], m[3], seg)
					}
				}
			}
			bin := ""
			for _, tok := range strings.Fields(seg) {
				switch tok {
				case "|", "||", "&&", ";", "&":
					bin = ""
					continue
				}
				if name := filepath.Base(tok); flags[name] != nil {
					bin = name
					continue
				}
				m := flagUse.FindStringSubmatch(tok)
				switch {
				case m == nil:
				case bin != "" && !flags[bin][m[1]]:
					t.Errorf("%s: %s defines no -%s (in %q)", doc, bin, m[1], seg)
				case bin == "" && strings.HasPrefix(seg, "-") && !strings.HasPrefix(seg, "--") && !anyBinary[m[1]]:
					t.Errorf("%s: no cmd/* binary defines -%s (in %q)", doc, m[1], seg)
				}
			}
		}
	}
}

// pkgDecls is what one package declares at top level: every name, for
// each type the fields (of a struct) or methods (of an interface) its
// declaration lists plus the methods declared on it, and the values of its
// string constants.
type pkgDecls struct {
	names   map[string]bool
	members map[string]map[string]bool
	strings map[string]bool
}

// declaredNames returns the functions, methods, types, variables and
// constants declared at top level in dir's non-test Go files (a doc may
// write a method as pkg.Method) with the members of each type, or nil when
// dir is not a directory.
func declaredNames(t *testing.T, dir string) *pkgDecls {
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return nil
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}, strings: map[string]bool{}}
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		if name != "" {
			d.members[typ][name] = true
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					d.names[decl.Name.Name] = true
					if decl.Recv != nil {
						member(typeName(decl.Recv.List[0].Type), decl.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							d.names[spec.Name.Name] = true
							member(spec.Name.Name, "")
							var fields *ast.FieldList
							switch typ := spec.Type.(type) {
							case *ast.StructType:
								fields = typ.Fields
							case *ast.InterfaceType:
								fields = typ.Methods
							}
							if fields == nil {
								continue
							}
							for _, field := range fields.List {
								for _, n := range field.Names {
									member(spec.Name.Name, n.Name)
								}
								if len(field.Names) == 0 { // embedded
									member(spec.Name.Name, typeName(field.Type))
								}
							}
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								d.names[n.Name] = true
							}
							for _, v := range spec.Values {
								if lit, ok := v.(*ast.BasicLit); ok && decl.Tok == token.CONST && lit.Kind == token.STRING {
									s, _ := strconv.Unquote(lit.Value)
									d.strings[s] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return d
}

// typeName is the bare name of a receiver or embedded type: T for T, *T,
// T[P] and pkg.T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// codeSegments returns the inline code spans (which may wrap across the lines
// of a paragraph) and the fenced-block lines of a markdown document, a fenced
// line ending in a backslash joined to the next.
func codeSegments(md string) []string {
	var segs []string
	fenced, cont, para := false, "", ""
	flush := func() {
		for i, span := range strings.Split(para, "`") {
			if i%2 == 1 {
				segs = append(segs, span)
			}
		}
		para = ""
	}
	for _, line := range strings.Split(md, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			flush()
			fenced = !fenced
		case fenced:
			cont += line
			if strings.HasSuffix(cont, `\`) {
				cont = strings.TrimSuffix(cont, `\`) + " "
				continue
			}
			segs = append(segs, cont)
			cont = ""
		case strings.TrimSpace(line) == "":
			flush()
		default:
			para += line + " "
		}
	}
	flush()
	return segs
}
