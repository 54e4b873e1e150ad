package dive

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

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
// package's non-test files.
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

	declared := map[string]map[string]bool{} // internal package → its top-level names
	goUse := regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)`)

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
				for _, m := range goUse.FindAllStringSubmatch(seg, -1) {
					names, ok := declared[m[1]]
					if !ok {
						names = declaredNames(t, filepath.Join("internal", m[1]))
						declared[m[1]] = names
					}
					if names != nil && !names[m[2]] {
						t.Errorf("%s: internal/%s declares no %s (in %q)", doc, m[1], m[2], seg)
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

// declaredNames returns the names of the functions, methods, types,
// variables and constants declared at top level in dir's non-test Go files
// (a doc may write a method as pkg.Method), or nil when dir is not a
// directory.
func declaredNames(t *testing.T, dir string) map[string]bool {
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return nil
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					names[d.Name.Name] = true
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names[spec.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								names[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return names
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
