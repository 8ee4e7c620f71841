// Structural rules of the design, stated over the parsed source (go/parser)
// so that tier-1 runs them: a rule that only a CI grep checks cannot fail in
// a builder's local loop.
package pseudocircuit_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
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
		enforce(t, concurrencyIn, filepath.Join(dir, "*.go"), false)
	}
	t.Run("checker sees each", func(t *testing.T) {
		seesEach(t, concurrencyIn, map[string]string{
			"go statement":        "package p\nfunc f() { go f() }",
			"channel type":        "package p\ntype s struct{ work chan bool }",
			"imports sync":        "package p\nimport \"sync\"\nvar mu sync.Mutex",
			"imports sync/atomic": "package p\nimport \"sync/atomic\"\nvar n atomic.Int64",
		}, "package p\nfunc f() { f() }")
	})
}

// checker lists what breaks one rule in a parsed file, one "pos: what" each.
type checker func(fset *token.FileSet, f *ast.File) []string

// enforce runs check over the Go files glob matches (test files too when
// withTests) and reports every finding.
func enforce(t *testing.T, check checker, glob string, withTests bool) {
	t.Helper()
	files, err := filepath.Glob(glob)
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no Go files (%v)", glob, err)
	}
	for _, name := range files {
		if !withTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range check(fset, f) {
			t.Error(c)
		}
	}
}

// seesEach feeds check one source per finding it must report, each of which
// must come back as exactly that finding, and a clean source that must come
// back empty: the failing case of the rule.
func seesEach(t *testing.T, check checker, bad map[string]string, clean string) {
	t.Helper()
	parse := func(src string) []string {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		return check(fset, f)
	}
	for what, src := range bad {
		if got := parse(src); len(got) != 1 || !strings.HasSuffix(got[0], what) {
			t.Errorf("source with %s: checker reported %q", what, got)
		}
	}
	if got := parse(clean); len(got) != 0 {
		t.Errorf("clean source: checker reported %q", got)
	}
}

// pipelinePhases are router.Router's phase methods; a policy that declared
// one again would be a second pipeline growing back.
var pipelinePhases = map[string]bool{
	"admitHeads": true, "allocateVCs": true, "classify": true, "switchArbitrate": true,
	"processArrivals": true, "popBuffer": true, "holdsFlits": true,
}

// phasesIn lists methods named after a pipeline phase.
func phasesIn(fset *token.FileSet, f *ast.File) []string {
	var found []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && pipelinePhases[fn.Name.Name] {
			found = append(found, fmt.Sprintf("%s: redeclares phase %s", fset.Position(fn.Pos()), fn.Name.Name))
		}
	}
	return found
}

// routerCopies are the names the pseudo-circuit registers had as router
// fields before core.RegFile held them.
var routerCopies = map[string]bool{"pcValid": true, "pcByOut": true, "pcInVC": true, "pcOut": true}

// writesRegister reports whether assigning to e writes pseudo-circuit state:
// a field (or element of one) of a value named pc, as in r.pc.Out[in], or a
// router-side copy of a register. Assigning pc itself takes the view.
func writesRegister(e ast.Expr) bool {
	selected := false // e is the value a field is selected from
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if routerCopies[x.Sel.Name] || selected && x.Sel.Name == "pc" {
				return true
			}
			e, selected = x.X, true
		case *ast.Ident:
			return routerCopies[x.Name] || selected && x.Name == "pc"
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// registerWritesIn lists assignments and ++/-- that write pseudo-circuit
// state: core.RegFile's four operations are the only writers, which is what
// keeps its derived masks in step.
func registerWritesIn(fset *token.FileSet, f *ast.File) []string {
	var found []string
	at := func(n ast.Node, lhs ast.Expr) {
		found = append(found, fmt.Sprintf("%s: assigns %s", fset.Position(n.Pos()), types.ExprString(lhs)))
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if writesRegister(lhs) {
					at(s, lhs)
				}
			}
		case *ast.IncDecStmt:
			if writesRegister(s.X) {
				at(s, s.X)
			}
		}
		return true
	})
	return found
}

// pcHelpersIn lists methods of Router whose name starts with pc.
func pcHelpersIn(fset *token.FileSet, f *ast.File) []string {
	var found []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || !strings.HasPrefix(fn.Name.Name, "pc") {
			continue
		}
		recv := fn.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok && id.Name == "Router" {
			found = append(found, fmt.Sprintf("%s: declares (*Router).%s", fset.Position(fn.Pos()), fn.Name.Name))
		}
	}
	return found
}

// TestOneRouterPipeline: internal/evc is a policy on internal/router's
// pipeline and declares none of its phases again. The pseudo-circuit
// registers have one home too: core.RegFile writes them and keeps what is
// derived from them in step (ByOut, HeldMask, and HistMask, whose bits say
// which outputs speculation can revive); router.go reads them, assigns none
// and holds no pc* helper of its own.
func TestOneRouterPipeline(t *testing.T) {
	t.Run("evc redeclares no phase", func(t *testing.T) {
		enforce(t, phasesIn, "internal/evc/*.go", true)
		seesEach(t, phasesIn, map[string]string{
			"redeclares phase classify": "package evc\ntype Router struct{}\nfunc (r *Router) classify() {}",
		}, "package evc\ntype Router struct{}\nfunc (r *Router) Latch() {}\nfunc classify() {}")
	})
	t.Run("router assigns no register", func(t *testing.T) {
		enforce(t, registerWritesIn, "internal/router/router.go", false)
		body := func(stmt string) string {
			return "package router\nfunc (r *Router) f(in, out int) {\n" + stmt + "\n}"
		}
		seesEach(t, registerWritesIn, map[string]string{
			"assigns r.pc.Out[in]":       body("r.pc.Out[in] = out"),
			"assigns r.pc.HistIn[out]":   body("out, r.pc.HistIn[out] = in, in"),
			"assigns r.pc.HistMask":      body("r.pc.HistMask &^= 1 << uint(out)"),
			"assigns r.pc.ValidMask":     body("r.pc.ValidMask |= 1"),
			"assigns r.pc.Hist[in].Keep": body("r.pc.Hist[in].Keep++"),
			"assigns pc.HeldMask":        body("pc := r.pc\npc.HeldMask = 0"),
			"assigns r.pcOut[in]":        body("r.pcOut[in] = out"),
		}, body("r.pc = nil\nr.pcCand[in] = -1\nx := r.pc.Out[in]\n_, _ = r.pc.Connect(in, x, out)"))
	})
	t.Run("router has no pc helper", func(t *testing.T) {
		enforce(t, pcHelpersIn, "internal/router/router.go", false)
		seesEach(t, pcHelpersIn, map[string]string{
			"declares (*Router).pcRevive": "package router\ntype Router struct{}\nfunc (r *Router) pcRevive() {}",
		}, "package router\ntype Router struct{}\nfunc (r *Router) maintainPseudoCircuits() {}\nfunc pcMask() {}")
	})
}
