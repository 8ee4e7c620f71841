// Structural rules of the design, stated over the parsed source (go/parser)
// so that tier-1 runs them: a rule that only a CI grep checks cannot fail in
// a builder's local loop.
package pseudocircuit_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// concurrencyIn lists what makes a file concurrent: a go statement, a channel
// type, an import of sync or sync/atomic.
func concurrencyIn(fset *token.FileSet, f *ast.File) []string {
	var found []string
	at := func(n ast.Node, what string) {
		found = append(found, fmt.Sprintf("%s: %s", fset.Position(n.Pos()), what))
	}
	for _, imp := range f.Imports {
		if p := strings.Trim(imp.Path.Value, `"`); p == "sync" || p == "sync/atomic" {
			at(imp, "imports "+p)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.GoStmt:
			at(n, "go statement")
		case *ast.ChanType:
			at(n, "channel type")
		}
		return true
	})
	return found
}

// TestCycleKernelIsOneGoroutine: a simulated cycle runs on the goroutine that
// called Step. More CPUs go to whole simulations side by side
// (experiments.forEach, nocd's job workers), so the packages a cycle runs in
// start no goroutine, declare no channel and import no lock. The sharded
// kernel that did was deleted by measurement (EXPERIMENTS.md "Cycle kernel
// schedules"); this is what keeps it from growing back unmeasured.
func TestCycleKernelIsOneGoroutine(t *testing.T) {
	for _, dir := range []string{"internal/network", "internal/router", "internal/core", "internal/evc"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range concurrencyIn(fset, f) {
				t.Error(c)
			}
		}
	}

	t.Run("checker sees each", func(t *testing.T) {
		for what, src := range map[string]string{
			"go statement":        "package p\nfunc f() { go f() }",
			"channel type":        "package p\ntype s struct{ work chan bool }",
			"imports sync":        "package p\nimport \"sync\"\nvar mu sync.Mutex",
			"imports sync/atomic": "package p\nimport \"sync/atomic\"\nvar n atomic.Int64",
		} {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "p.go", src, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := concurrencyIn(fset, f); len(got) != 1 || !strings.HasSuffix(got[0], what) {
				t.Errorf("source with a %s: checker reported %q", what, got)
			}
		}
		fset := token.NewFileSet()
		f, _ := parser.ParseFile(fset, "p.go", "package p\nfunc f() { f() }", 0)
		if got := concurrencyIn(fset, f); len(got) != 0 {
			t.Errorf("plain source: checker reported %q", got)
		}
	})
}
