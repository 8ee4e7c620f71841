// Structural rules of the design, stated over the parsed source (go/parser)
// so that `go test ./...` runs them: a rule that only a CI grep checks cannot
// fail in a local test run.
package pseudocircuit_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
// kernel that did was deleted by measurement (EXPERIMENTS.md "Simulator
// performance"); this is what keeps it from growing back unmeasured.
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
	for _, c := range findings(t, check, glob, withTests) {
		t.Error(c)
	}
}

// findings runs check over the Go files glob matches (test files too when
// withTests) and returns what it reports.
func findings(t *testing.T, check checker, glob string, withTests bool) []string {
	t.Helper()
	files, err := filepath.Glob(glob)
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no Go files (%v)", glob, err)
	}
	var found []string
	for _, name := range files {
		if !withTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		found = append(found, check(fset, f)...)
	}
	return found
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

// laneHelpers are router.go's lane helpers, the only writers of laneWords.
var (
	laneHelpers = map[string]bool{"pushBuf": true, "popHead": true, "removeBufAt": true, "admit": true, "resetLane": true}
	laneWords   = map[string]bool{"occ": true, "act": true, "occPorts": true, "actPorts": true}
)

// writesLaneWord reports whether assigning to e writes a lane word: a field
// named in laneWords, or an element of one.
func writesLaneWord(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			return laneWords[x.Sel.Name]
		default:
			return false
		}
	}
}

// setsView reports whether assigning to e in function fn is New pointing the
// occ or act view at its slab region: the slice header, not a word in it.
func setsView(fn string, e ast.Expr) bool {
	s, ok := e.(*ast.SelectorExpr)
	return ok && fn == "New" && (s.Sel.Name == "occ" || s.Sel.Name == "act")
}

// laneWordWritesIn lists assignments and ++/-- to a lane word in a function
// other than the lane helpers.
func laneWordWritesIn(fset *token.FileSet, f *ast.File) []string {
	var found []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil || laneHelpers[fn.Name.Name] {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			var lhs []ast.Expr
			switch s := n.(type) {
			case *ast.AssignStmt:
				lhs = s.Lhs
			case *ast.IncDecStmt:
				lhs = []ast.Expr{s.X}
			}
			for _, e := range lhs {
				if writesLaneWord(e) && !setsView(fn.Name.Name, e) {
					found = append(found, fmt.Sprintf("%s: %s assigns %s", fset.Position(e.Pos()), fn.Name.Name, types.ExprString(e)))
				}
			}
			return true
		})
	}
	return found
}

// TestOneRouterPipeline: internal/evc is a policy on internal/router's
// pipeline and declares none of its phases again. The pseudo-circuit
// registers have one home too: core.RegFile writes them and keeps what is
// derived from them in step (ByOut, HeldMask, and HistMask, whose bits say
// which outputs speculation can revive); router.go reads them, assigns none
// and holds no pc* helper of its own. The lane words have one set of writers:
// the occupancy and active masks and the two port words derived from them are
// assigned only by the five lane helpers, which is what keeps them in step
// (New, which builds a router in place, points the two mask views at their
// slab regions and writes no word).
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
			"assigns r.pc.Out[in]":     body("r.pc.Out[in] = out"),
			"assigns r.pc.HistIn[out]": body("out, r.pc.HistIn[out] = in, in"),
			"assigns r.pc.HistMask":    body("r.pc.HistMask &^= 1 << uint(out)"),
			"assigns r.pc.ValidMask":   body("r.pc.ValidMask |= 1"),
			"assigns r.pc.InVC[in]":    body("r.pc.InVC[in] = int8(out)"),
			"assigns pc.HeldMask":      body("pc := r.pc\npc.HeldMask = 0"),
			"assigns r.pcOut[in]":      body("r.pcOut[in] = out"),
		}, body("r.pc = nil\nr.pcCand[in] = -1\nx := r.pc.Out[in]\n_, _ = r.pc.Connect(in, x, out)"))
	})
	t.Run("router has no pc helper", func(t *testing.T) {
		enforce(t, pcHelpersIn, "internal/router/router.go", false)
		seesEach(t, pcHelpersIn, map[string]string{
			"declares (*Router).pcRevive": "package router\ntype Router struct{}\nfunc (r *Router) pcRevive() {}",
		}, "package router\ntype Router struct{}\nfunc (r *Router) maintainPseudoCircuits() {}\nfunc pcMask() {}")
	})
	t.Run("lane words have one set of writers", func(t *testing.T) {
		enforce(t, laneWordWritesIn, "internal/router/router.go", false)
		method := func(name, stmt string) string {
			return "package router\nfunc (r *Router) " + name + "(in, vc int) {\n" + stmt + "\n}"
		}
		seesEach(t, laneWordWritesIn, map[string]string{
			"Tick assigns r.occPorts":      method("Tick", "r.occPorts = 0"),
			"FaultScan assigns r.act[in]":  method("FaultScan", "r.act[in] &^= 1 << uint(vc)"),
			"grant assigns r.actPorts":     method("grant", "vc, r.actPorts = 0, 1"),
			"classify assigns (r.occ)[in]": method("classify", "(r.occ)[in]++"),
			"New assigns r.act[in]":        "package router\nfunc New(in int) { r := &Router{}; r.act[in] = 1 }",
			"New assigns r.occPorts":       "package router\nfunc New() { r := &Router{}; r.occPorts = 1 }",
		}, method("pushBuf", "r.occ[in] |= 1\nr.occPorts |= 1")+"\n"+
			"func New() { r := &Router{}; r.occ, r.act = nil, nil }\n"+
			"func (r *Router) resetLane(in, vc int) { r.act[in] = 0; r.actPorts = 0 }\n"+
			"func (r *Router) Tick(in, vc int) { r.ports = r.occPorts; r.va[in] |= 1; x := &Router{occ: nil}; _ = x }")
	})
	t.Run("timedTick is Tick with the clock's laps", func(t *testing.T) {
		enforce(t, timedTickDriftIn, "internal/router/router.go", false)
		const tick = "package router\n" +
			"func (r *Router) Tick() bool {\n\tif r.cfg.Stages != nil {\n\t\treturn r.timedTick()\n\t}\n" +
			"\tr.a()\n\tif r.p {\n\t\tr.b()\n\t}\n\treturn r.done()\n}\n"
		timed := func(body string) string {
			return tick + "func (r *Router) timedTick() bool {\n\tc := r.cfg.Stages\n\tt := clockNS()\n" + body + "}\n"
		}
		seesEach(t, timedTickDriftIn, map[string]string{
			`timedTick has "" where Tick has "return r.done()"`: timed(
				"r.a()\nt = c.lap(0, t)\nif r.p {\nr.b()\n}\n"),
			`timedTick has "if r.q" where Tick has "if r.p"`: timed(
				"r.a()\nt = c.lap(0, t)\nif r.q {\nr.b()\n}\nreturn r.done()\n"),
			`timedTick has "r.b()" where Tick has "r.a()"`: timed(
				"r.b()\nif r.p {\nr.a()\n}\nreturn r.done()\n"),
		}, timed("r.a()\nt = c.lap(0, t)\nif r.p {\nr.b()\nt = c.lap(1, t)\n} else {\nc.skip(1, 1)\n}\n"+
			"again := r.done()\nc.lap(2, t)\nreturn again\n"))
	})
}

// timedTickDriftIn reports where router.timedTick stops being Tick with the
// stage clock added. With every statement that names the clock (c) or its lap
// start (t) left out, an else left empty by that dropped, and the closing
// `again := x; return again` read as `return x`, timedTick must read
// statement for statement as Tick after Tick's hand-over to it: the untimed
// tick keeps its one nil test, and a change to Tick cannot leave the timed
// copy behind.
func timedTickDriftIn(fset *token.FileSet, f *ast.File) []string {
	var tick, timed *ast.FuncDecl
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv != nil && fn.Body != nil {
			switch fn.Name.Name {
			case "Tick":
				tick = fn
			case "timedTick":
				timed = fn
			}
		}
	}
	if tick == nil || timed == nil || len(tick.Body.List) == 0 {
		return nil
	}
	want := tickLines(fset, tick.Body.List[1:], false)
	got := tickLines(fset, timed.Body.List, true)
	if n := len(got); n >= 2 && strings.HasPrefix(got[n-2], "again := ") && got[n-1] == "return again" {
		got = append(got[:n-2], "return "+strings.TrimPrefix(got[n-2], "again := "))
	}
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return []string{fmt.Sprintf("%s: timedTick has %q where Tick has %q", fset.Position(timed.Pos()), g, w)}
		}
	}
	return nil
}

// tickLines flattens a statement list to one line per statement, an if
// opened and closed around its branches, so that two bodies compare without
// their positions or comments. With untimed it leaves out what timedTick
// adds to Tick (timedTickDriftIn).
func tickLines(fset *token.FileSet, list []ast.Stmt, untimed bool) []string {
	src := func(n ast.Node) string {
		var b strings.Builder
		printer.Fprint(&b, fset, n)
		return b.String()
	}
	var out []string
	for _, s := range list {
		is, ok := s.(*ast.IfStmt)
		if !ok {
			if !untimed || !namesClock(s) {
				out = append(out, src(s))
			}
			continue
		}
		head := "if " + src(is.Cond)
		if is.Init != nil {
			head = "if " + src(is.Init) + "; " + src(is.Cond)
		}
		out = append(out, head)
		out = append(out, tickLines(fset, is.Body.List, untimed)...)
		if is.Else != nil {
			els := []ast.Stmt{is.Else}
			if b, ok := is.Else.(*ast.BlockStmt); ok {
				els = b.List
			}
			if lines := tickLines(fset, els, untimed); len(lines) > 0 {
				out = append(append(out, "else"), lines...)
			}
		}
		out = append(out, "end if")
	}
	return out
}

// namesClock reports whether s names timedTick's clock c or lap start t.
func namesClock(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (id.Name == "c" || id.Name == "t") {
			found = true
		}
		return !found
	})
	return found
}

// declaredIn lists declarations of banned names. "T.f" is field f of struct
// type T, "T.f type" the same field only when it has that type; a bare name
// is a top-level function or a defined (not aliased) type.
func declaredIn(banned ...string) checker {
	return func(fset *token.FileSet, f *ast.File) []string {
		var found []string
		at := func(n ast.Node, what string) {
			for _, b := range banned {
				if what == b {
					found = append(found, fmt.Sprintf("%s: declares %s", fset.Position(n.Pos()), what))
				}
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					at(d, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || ts.Assign.IsValid() {
						continue
					}
					at(ts, ts.Name.Name)
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, n := range fld.Names {
							at(n, ts.Name.Name+"."+n.Name)
							at(n, ts.Name.Name+"."+n.Name+" "+types.ExprString(fld.Type))
						}
					}
				}
			}
		}
		return found
	}
}

// namesIn lists where a source names something banned: an identifier
// ("outSends", matched exactly), or, however deep it is reached (r.cfg.Stats
// for "cfg.Stats"), a selector, an == or != comparison ("rs != nil"), a call
// ("Store.Get("), a comma-ok read an if tests ("m.inflight[key]; ok"), or an
// import path.
func namesIn(banned ...string) checker {
	return func(fset *token.FileSet, f *ast.File) []string {
		var found []string
		ast.Inspect(f, func(n ast.Node) bool {
			var s string
			switch x := n.(type) {
			case *ast.Ident:
				for _, b := range banned {
					if x.Name == b {
						found = append(found, fmt.Sprintf("%s: names %s", fset.Position(x.Pos()), b))
					}
				}
				return true
			case *ast.SelectorExpr:
				s = types.ExprString(x)
			case *ast.BinaryExpr:
				if x.Op == token.EQL || x.Op == token.NEQ {
					s = types.ExprString(x)
				}
			case *ast.CallExpr:
				s = types.ExprString(x.Fun) + "("
			case *ast.IfStmt:
				if a, ok := x.Init.(*ast.AssignStmt); ok && len(a.Lhs) == 2 && len(a.Rhs) == 1 {
					s = types.ExprString(a.Rhs[0]) + "; " + types.ExprString(x.Cond)
				}
			case *ast.ImportSpec:
				s = strings.Trim(x.Path.Value, `"`)
			}
			for _, b := range banned {
				if s != "" && !token.IsIdentifier(b) && (s == b || strings.HasSuffix(s, "."+b)) {
					found = append(found, fmt.Sprintf("%s: names %s", fset.Position(n.Pos()), b))
				}
			}
			return true
		})
		return found
	}
}

// TestStructuralRules states, over the parsed source, the structural rules of
// DESIGN.md, so `go test ./...` runs them. Each subtest feeds its checkers a
// source per banned form first: the failing case.
func TestStructuralRules(t *testing.T) {
	// A router event is counted in one place: the row the router owns in
	// stats.Registry. Network-wide figures and energy are sums of rows, so a
	// second sink in the router, a second accumulator with its merge, or a
	// switch that turns the rows off would be the mirror growing back.
	t.Run("counted once", func(t *testing.T) {
		sink := namesIn("rs != nil", "cfg.Stats", "cfg.Energy", "outSends")
		merge := namesIn("shardStats", "shardEnergy", "MergeCounters", "MergeCounts", "MergeAll")
		perRouter := namesIn("PerRouter")
		seesEach(t, sink, map[string]string{
			"names rs != nil":  "package router\nfunc (r *Router) f() { if r.rs != nil { r.rs.SAGrants++ } }",
			"names cfg.Stats":  "package router\nfunc (r *Router) f() { r.cfg.Stats.SAGrants++ }",
			"names cfg.Energy": "package router\nfunc (r *Router) f() { r.cfg.Energy.Add(1) }",
			"names outSends":   "package router\ntype Router struct{ outSends []uint64 }",
		}, "package router\nfunc (r *Router) f() { r.rs.SAGrants++; _ = r.cfg.Reg; _ = r.tr != nil }")
		seesEach(t, merge, map[string]string{
			"names MergeCounters": "package stats\nfunc (s *Network) MergeCounters(o *Network) {}",
		}, "package stats\nfunc (r *Registry) Totals() {}")
		seesEach(t, perRouter, map[string]string{
			"names PerRouter": "package noc\ntype Experiment struct{ PerRouter bool }",
		}, "package noc\ntype Experiment struct{ NaiveKernel bool }")

		enforce(t, sink, "internal/router/router.go", false)
		enforce(t, merge, "internal/*/*.go", false)
		for _, glob := range []string{"noc/*.go", "cmd/*/*.go", "internal/*/*.go"} {
			enforce(t, perRouter, glob, true)
		}
	})

	// Every field of the cycle kernel's per-router state is the record of a
	// fact, the layout's index, or an accelerator with a price (DESIGN.md §17,
	// "State inventory"). Each name below was a second record once: a
	// per-slot arrival stamp, a []bool beside the mask word that holds the
	// bit, a per-lane copy of a field the lane's packet holds, an NI-side copy
	// of VC occupancy or of the packet's route class, a router-per-entry
	// []bool beside the tick index, a reassembly map beside the count the
	// packet carries, a pointer per node in front of the generators, a
	// `worked` flag beside the dry word, a route class on every flit, a credit
	// riding the flit ring (a `vc` on every delivery) and the deferred-credit
	// record a purge of that ring needed.
	t.Run("one record per fact", func(t *testing.T) {
		second := declaredIn(
			"Slab.At", "Slab.Active", "Slab.PCValid", "Slab.HistValid",
			"Slab.Class", "Slab.Src", "Slab.Dst",
			"RegFile.Valid", "RegFile.HistValid",
			"Router.at", "Router.activeL", "Router.worked", "Router.classL", "Router.srcL", "Router.dstL",
			"ni.busy", "ni.rx", "ni.class", "Network.active",
			"Synthetic.rngs []*sim.RNG", "Flit.RouteClass", "delivery.vc", "credRet",
		)
		seesEach(t, second, map[string]string{
			"declares Slab.Class":                "package router\ntype Slab struct{ i8 []int8; Class []int }",
			"declares ni.class":                  "package network\ntype ni struct{ idx, class int }",
			"declares Flit.RouteClass":           "package flit\ntype Flit struct{ RouteClass int }",
			"declares Synthetic.rngs []*sim.RNG": "package traffic\ntype Synthetic struct{ rngs []*sim.RNG }",
			"declares delivery.vc":               "package network\ntype delivery struct{ router, port, vc int32 }",
			"declares credRet":                   "package network\ntype credRet struct{ router, out, vc int }",
		}, "package router\ntype Records struct{ Active bool; Class int }\ntype Synthetic struct{ rngs []sim.RNG }\n"+
			"type Packet struct{ RouteClass int }\ntype Flit = struct{ RouteClass int }\nfunc (s *Slab) Class() {}\n"+
			"type delivery struct{ router, port int32 }\ntype upCredit struct{ router, out, vc int32 }")

		for _, dir := range []string{"core", "router", "network", "traffic", "flit"} {
			enforce(t, second, filepath.Join("internal", dir, "*.go"), false)
		}
	})

	// The per-lane and per-port records are stored in the width DESIGN.md
	// §17 gives them (int8 port and VC ids, int16 counts and pointers), which
	// is what keeps a 24×24 mesh's sparse cycle in cache. An int there is a
	// record widened back to 64 bits.
	t.Run("widths stay chosen", func(t *testing.T) {
		seesEach(t, wideFields, map[string]string{
			"declares Slab.i16 []int":      "package router\ntype Slab struct{ routers []Router; i16 []int }",
			"declares Router.outVC []int":  "package router\ntype Router struct{ nIn int; ejection uint64; outVC []int }",
			"declares Router.rrIn []int":   "package router\ntype Router struct{ nIn int; rrVC []int16; rrIn []int }",
			"declares reservation.out int": "package router\ntype reservation struct{ f *flit.Flit; in, vc int8; out int }",
			"declares upstream.out int":    "package network\ntype upstream struct{ router int32; out int }",
			"declares ni.credits []int":    "package network\ntype ni struct{ node int; credits []int }",
		}, "package router\ntype Slab struct{ routers []Router; i16 []int16; i8 []int8; words []uint64 }\n"+
			"type Router struct{ nIn, V int; bufLen []int16 }\ntype upstream struct{ router, out int32 }\ntype delivery struct{ port int }")
		for _, glob := range []string{"internal/core/*.go", "internal/router/*.go", "internal/network/*.go"} {
			enforce(t, wideFields, glob, false)
		}
	})

	// A router's state has one store, router.Slab, and one package knows its
	// layout: the network-wide lane store that sat beside it in core, and the
	// router config field that handed it over, do not grow back.
	t.Run("one store", func(t *testing.T) {
		store := declaredIn("LaneStore", "NewLaneStore", "Config.Lanes")
		seesEach(t, store, map[string]string{
			"declares LaneStore":    "package core\ntype LaneStore struct{ BufLen []int16 }",
			"declares NewLaneStore": "package core\nfunc NewLaneStore(numVCs int) {}",
			"declares Config.Lanes": "package router\ntype Config struct{ NumVCs int; Lanes *Slab }",
		}, "package router\ntype Config struct{ Slab *Slab }\nfunc NewSlab() {}\nfunc (r *Router) Records() {}")
		globs := []string{"*.go", "noc/*.go", "cmd/*/*.go", "nocdclient/*.go"}
		dirs, _ := filepath.Glob("internal/*")
		for _, dir := range dirs {
			if dir != filepath.Join("internal", "router") {
				globs = append(globs, filepath.Join(dir, "*.go"))
			}
		}
		for _, glob := range globs {
			enforce(t, store, glob, false)
		}
		enforce(t, declaredIn("Config.Lanes"), "internal/router/*.go", false)
	})

	// Every layer asks the one fault view, fault.State, itself (DESIGN.md
	// §13): routing takes it as an argument, the routers and the EVC policy
	// read it from their config, and a storm hands each router the kernel's
	// hoisted kill callback. The context of closures a storm rebuilt per
	// router, the interface that hid the teardown from Node, the config
	// closures in front of the view, the per-router closures and the second
	// neighbour table behind them do not grow back.
	t.Run("one fault view", func(t *testing.T) {
		front := declaredIn("FaultContext", "faultNode", "Config.LinkUp", "Config.Reroute")
		closures := namesIn("wiredFn", "deadFn", "routeFor", "NeighborTable")
		seesEach(t, front, map[string]string{
			"declares FaultContext":   "package router\ntype FaultContext struct{ RouterDead bool; Kill func(p *flit.Packet) }",
			"declares faultNode":      "package network\ntype faultNode interface{ FaultScan(all bool) }",
			"declares Config.LinkUp":  "package router\ntype Config struct{ NumVCs int; LinkUp func(id, out int) bool }",
			"declares Config.Reroute": "package router\ntype Config struct{ Reroute func(id, dst, class int) int }",
		}, "package router\ntype Config struct{ Faults *fault.State; Routing *routing.Engine }\n"+
			"func (r *Router) FaultScan(all bool) {}\nconst Reroute = 1")
		seesEach(t, closures, map[string]string{
			"names wiredFn":       "package network\ntype Network struct{ wiredFn []func(out int) bool }",
			"names deadFn":        "package network\nfunc f(n *Network) bool { return n.deadFn[0](1) }",
			"names routeFor":      "package network\nfunc (n *Network) routeFor(r, dst, class int) int { return 0 }",
			"names NeighborTable": "package network\nvar nbr = fault.NeighborTable(topo)",
		}, "package network\nfunc f(n *Network) { n.engine.RouteAvoid(0, 1, 0, n.faults); _ = n.faults.Wired(0, 1) }")
		for _, glob := range []string{"*.go", "noc/*.go", "cmd/*/*.go", "internal/*/*.go", "nocdclient/*.go", "bench/*.go"} {
			enforce(t, front, glob, false)
			enforce(t, closures, glob, true)
		}
	})

	// noc.Spec.Experiment and noc.WorkloadSpec.Workload turn names into an
	// experiment for nocsim -config, the flags and the service alike; a
	// parser in a command would be a second grammar growing back. What a
	// valid experiment is has one home too, noc's validate: the service keeps
	// resource bounds only, the sweep API decodes an axis value with the
	// field it sets, and a topology prints its own name.
	t.Run("one spec front door", func(t *testing.T) {
		parsers := declaredIn("parseTopo", "parseScheme", "parseRouting", "parsePolicy", "parsePattern")
		service := namesIn("UseEVC", "HasPrefix")
		axes := namesIn("axisSetters", "axisValue", "dimsOf")
		seesEach(t, parsers, map[string]string{
			"declares parseTopo": "package main\nfunc parseTopo(s string) (noc.Topology, error) { return nil, nil }",
		}, "package main\nfunc (f *flags) parseTopo() {}\nfunc parse() {}")
		seesEach(t, service, map[string]string{
			"names UseEVC":    "package service\nfunc f(e noc.Experiment) bool { return e.UseEVC }",
			"names HasPrefix": "package service\nvar ok = strings.HasPrefix(\"mesh8x8\", \"mesh\")",
		}, "package service\nfunc f(e noc.Experiment) error { return e.Validate() }")
		seesEach(t, axes, map[string]string{
			"names dimsOf": "package noc\nfunc dimsOf(t Topology) (int, int) { return 0, 0 }",
		}, "package noc\nfunc (t Topology) Name() string { return \"\" }")

		enforce(t, parsers, "cmd/*/*.go", true)
		enforce(t, service, "internal/service/spec.go", false)
		enforce(t, axes, "internal/sweepapi/*.go", true)
		enforce(t, axes, "noc/*.go", true)
	})

	// Where a finished result may come from, and in what order, is one
	// function: service.Manager.walk (memory, in-flight, disk, fleet owner,
	// simulate here). The sweep API has no dispatch branch of its own, the
	// fleet tier does not know the sweep API, each wire struct is declared
	// once (nocdclient/wire.go) and aliased elsewhere, and no flit pool
	// crosses from one job to the next.
	t.Run("one result walk", func(t *testing.T) {
		dispatcher := declaredIn("Dispatcher")
		dispatch := namesIn("Dispatch")
		sweepAPI := namesIn("pseudocircuit/internal/sweepapi")
		walkSites := []string{"m.answers[key]; ok && a.cached", "m.inflight[key]; ok", "Store.Get(", "Dispatch("}
		wire := declaredIn("Job", "Request", "SweepStatus", "Status", "SweepPoint", "PointStatus", "SweepLine", "sweepLine")
		pool := namesIn("Pool", "NewPool")
		seesEach(t, dispatcher, map[string]string{
			"declares Dispatcher": "package sweepapi\ntype Dispatcher interface{ Dispatch() }",
		}, "package sweepapi\ntype Fleet = service.Fleet")
		seesEach(t, dispatch, map[string]string{
			"names Dispatch": "package sweepapi\nfunc f(fl Fleet) { fl.Dispatch() }",
		}, "package sweepapi\nfunc f(m *service.Manager) { m.Submit() }")
		seesEach(t, sweepAPI, map[string]string{
			"names pseudocircuit/internal/sweepapi": "package cluster\nimport _ \"pseudocircuit/internal/sweepapi\"",
		}, "package cluster\nimport _ \"pseudocircuit/nocdclient\"")
		body := func(stmt string) string { return "package service\nfunc (m *Manager) f(key string) {\n" + stmt + "\n}" }
		seesEach(t, namesIn(walkSites...), map[string]string{
			"names m.answers[key]; ok && a.cached": body("if a, ok := m.answers[key]; ok && a.cached { _ = a }"),
			"names m.inflight[key]; ok":            body("if j, ok := m.inflight[key]; ok { _ = j }"),
			"names Store.Get(":                     body("payload, ok := m.cfg.Store.Get(key)"),
			"names Dispatch(":                      body("fleet.Dispatch(ctx, key)"),
		}, body("a, ok := m.answers[key]\nif ok && a.cached { m.answers[key] = a }\nm.inflight[key] = j\nm.cfg.Store.Put(key)"))
		seesEach(t, wire, map[string]string{
			"declares SweepLine": "package nocd\ntype SweepLine struct{ Type string }",
		}, "package sweepapi\ntype (\n\tStatus = nocdclient.SweepStatus\n\tLine = nocdclient.SweepLine\n)")
		seesEach(t, pool, map[string]string{
			"names NewPool": "package noc\nvar pool = flit.NewPool()",
		}, "package noc\nvar n = network.New(cfg)")

		enforce(t, dispatcher, "internal/sweepapi/*.go", false)
		enforce(t, dispatch, "internal/sweepapi/*.go", false)
		enforce(t, sweepAPI, "internal/cluster/*.go", false)
		const walk = "internal/service/service.go:"
		for _, site := range walkSites {
			var sites []string
			for _, glob := range []string{"internal/service/*.go", "internal/sweepapi/*.go", "cmd/nocd/*.go"} {
				sites = append(sites, findings(t, namesIn(site), glob, false)...)
			}
			if len(sites) != 1 || !strings.HasPrefix(sites[0], walk) {
				t.Errorf("%q: want one site, in %s; found %q", site, walk, sites)
			}
		}
		var decls []string
		for _, glob := range []string{"internal/*/*.go", "nocdclient/*.go", "noc/*.go", "cmd/*/*.go"} {
			decls = append(decls, findings(t, wire, glob, false)...)
		}
		if len(decls) != 5 {
			t.Errorf("want the five wire structs, all in nocdclient/wire.go; found %q", decls)
		}
		for _, d := range decls {
			if !strings.HasPrefix(d, "nocdclient/wire.go:") {
				t.Errorf("wire struct declared outside nocdclient/wire.go: %s", d)
			}
		}
		enforce(t, pool, "noc/noc.go", false)
	})

	// A finished sweep point is a view of the job record that answered it
	// (DESIGN.md §16): the sweep keeps the record and the route, and builds
	// the wire PointStatus when a stream reads it. A PointStatus held in a
	// sweepapi struct would be the second copy of every point growing back.
	t.Run("one record per point", func(t *testing.T) {
		copies := fieldsOfType("PointStatus", "[]PointStatus", "*PointStatus", "nocdclient.SweepPoint", "[]nocdclient.SweepPoint")
		seesEach(t, copies, map[string]string{
			"declares a []PointStatus field": "package sweepapi\ntype sweep struct{ mu sync.Mutex; points []PointStatus }",
			"declares a PointStatus field":   "package sweepapi\ntype point struct{ PointStatus }",
			"declares a *PointStatus field":  "package sweepapi\nvar last struct{ p *PointStatus }",
		}, "package sweepapi\ntype point struct{ rec *service.Record; source string }\n"+
			"func (p point) status(i int) PointStatus { return PointStatus{Index: i} }\nvar out []PointStatus")
		enforce(t, copies, "internal/sweepapi/*.go", false)
	})

	// nocd is assembled in one place, newDaemon, from its command line: main
	// and every test that starts a daemon call it. A store, service, sweep
	// manager, dispatcher or mux built anywhere else in the command would be
	// a second assembly, which is how the tests came to drain in another
	// order than main and to serve a handler main did not.
	t.Run("one daemon assembly", func(t *testing.T) {
		parts := outside("newDaemon", namesIn("service.New", "sweepapi.New", "cluster.New", "store.Open", "newMux"))
		seesEach(t, parts, map[string]string{
			"names service.New": "package main\nfunc testServer() { m := service.New(service.Config{}); _ = m }",
			"names newMux":      "package main\nvar h = newMux(nil, nil)",
			"names store.Open":  "package main\nfunc (d *daemon) reopen() { d.st, _ = store.Open(dir, 0) }",
		}, "package main\nfunc newDaemon() { m := service.New(cfg); _ = newMux(m, sweepapi.New(m, c)) }\n"+
			"func newMux() {}\nfunc f() { _ = cluster.NewRing(nil); d.jobs.Submit(r) }")
		enforce(t, parts, "cmd/nocd/*.go", true)
	})

	// A bounded observation store is an obs.Ring, and a JSONL stream is read
	// by obs.ReadJSONL. The flit tracer, the time series and the span log
	// each kept their own wrap code and their own strict scanner before; a
	// probe declaring a ring head or a drop count, or a scanner outside
	// ReadJSONL, is that copy growing back. The Prometheus validator reads
	// another format and keeps its own.
	t.Run("one ring and one line reader", func(t *testing.T) {
		copies := declaredIn("Tracer.head", "Tracer.dropped", "Series.head", "Series.dropped",
			"SpanLog.head", "SpanLog.dropped")
		scanner := outside("ReadJSONL", namesIn("bufio.NewScanner"))
		seesEach(t, copies, map[string]string{
			"declares Series.dropped": "package stats\ntype Series struct{ window int; dropped uint64 }",
		}, "package stats\ntype Series struct{ window int; ring obs.Ring[Sample] }")
		seesEach(t, scanner, map[string]string{
			"names bufio.NewScanner": "package telemetry\nfunc ValidateSpansJSONL(r io.Reader) { sc := bufio.NewScanner(r); _ = sc }",
		}, "package obs\nfunc ReadJSONL(r io.Reader) { sc := bufio.NewScanner(r); _ = sc }")
		enforce(t, copies, "internal/*/*.go", false)
		for _, dir := range []string{"internal/obs", "internal/stats", "internal/telemetry"} {
			for _, f := range findings(t, scanner, filepath.Join(dir, "*.go"), false) {
				if !strings.HasPrefix(f, filepath.Join("internal", "telemetry", "prometheus.go")+":") {
					t.Error(f)
				}
			}
		}
	})

	// Every figure is one measurement protocol: warm up, reset the counters,
	// measure. noc.Experiment.RunWindows is its home, and its hook is where
	// a caller acts at a window boundary, so a ResetStats call anywhere but
	// noc and internal/network (which owns it) is the loop grown back by hand.
	t.Run("one measurement protocol", func(t *testing.T) {
		reset := namesIn("ResetStats(")
		seesEach(t, reset, map[string]string{
			"names ResetStats(": "package experiments\nfunc f(n *noc.Network) { n.Run(w, 1000); n.ResetStats() }",
		}, "package experiments\nfunc f(e noc.Experiment) { e.RunWindows(ctx, n, w, nil, 0, func(n *noc.Network) { w.ResetSystemStats() }) }")
		for _, glob := range []string{"*.go", "cmd/*/*.go", "internal/*/*.go", "nocdclient/*.go", "bench/*.go"} {
			for _, f := range findings(t, reset, glob, false) {
				if !strings.HasPrefix(f, "internal/network/") {
					t.Error(f)
				}
			}
		}
	})

	// A finished result is one *noc.Result per key inside the service tier:
	// the cache entry, every job record and snapshot of the key and every
	// sweep point share it (DESIGN.md §11). Outside noc, which fills it in,
	// nothing writes through a Result field, so a change made for one
	// reader cannot show up in another's answer.
	t.Run("results are read-only", func(t *testing.T) {
		body := func(stmt string) string { return "package service\nfunc f(j *Job, p []Point) {\n" + stmt + "\n}" }
		seesEach(t, resultWritesIn, map[string]string{
			"writes through j.Result":    body("j.Result.AvgLatency = 0"),
			"writes through p[0].Result": body("p[0].Result.Cycles++"),
			"writes through p[1].Result": body("*(p[1].Result) = noc.Result{}"),
		}, body("j.Result = &res\nr := *j.Result\nr.Cycles = 0\nx := j.Result.Cycles == 0"))
		for _, glob := range []string{"*.go", "cmd/*/*.go", "internal/*/*.go", "nocdclient/*.go"} {
			enforce(t, resultWritesIn, glob, true)
		}
	})
}

// fieldsOfType lists the fields, of any struct type, declared with one of
// the banned types.
func fieldsOfType(banned ...string) checker {
	return func(fset *token.FileSet, f *ast.File) []string {
		var found []string
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					if typ := types.ExprString(fld.Type); slices.Contains(banned, typ) {
						found = append(found, fmt.Sprintf("%s: declares a %s field", fset.Position(fld.Pos()), typ))
					}
				}
			}
			return true
		})
		return found
	}
}

// outside restricts check to what a file says outside the top-level function
// fn. A function's own name is not a use of it, so every other function is
// checked from its signature down.
func outside(fn string, check checker) checker {
	return func(fset *token.FileSet, f *ast.File) []string {
		var found []string
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fd.Recv == nil && fd.Name.Name == fn {
					continue
				}
				d = &ast.FuncDecl{Recv: fd.Recv, Name: ast.NewIdent("_"), Type: fd.Type, Body: fd.Body}
			}
			found = append(found, check(fset, &ast.File{Name: f.Name, Decls: []ast.Decl{d}})...)
		}
		return found
	}
}

// resultWritesIn lists the assignments and increments that write through a
// Result field (x.Result.Cycles = …, x.Result.Cycles++, *x.Result = …):
// setting the field itself is allowed, changing what it points at is not.
func resultWritesIn(fset *token.FileSet, f *ast.File) []string {
	var found []string
	check := func(lhs ast.Expr) {
		for e := lhs; ; {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				if x.Sel.Name == "Result" && e != lhs {
					found = append(found, fmt.Sprintf("%s: writes through %s", fset.Position(lhs.Pos()), types.ExprString(x)))
					return
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE {
				for _, lhs := range x.Lhs {
					check(lhs)
				}
			}
		case *ast.IncDecStmt:
			check(x.X)
		}
		return true
	})
	return found
}

// narrowRecords names, per struct type, the fields that hold per-lane or
// per-port state: every region of Slab, one per kind; Router's lanes and
// per-port records; the ports and VCs of a grant or an SA request; both fields
// of upstream; an NI's credit counters.
var narrowRecords = map[string]func(field string) bool{
	"Slab": func(string) bool { return true },
	"Router": func(f string) bool {
		return strings.Contains(" bufLen outPort outVC credits rrVC lastOut rrIn chosen pcCand ", " "+f+" ")
	},
	"reservation": func(f string) bool { return f != "f" },
	"saRequest":   func(string) bool { return true },
	"upstream":    func(string) bool { return true },
	"ni":          func(f string) bool { return f == "credits" },
}

// wideFields lists the narrowRecords fields declared int or []int.
func wideFields(fset *token.FileSet, f *ast.File) []string {
	var found []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		narrow := narrowRecords[ts.Name.Name]
		if !ok || narrow == nil {
			return false
		}
		for _, fld := range st.Fields.List {
			typ := types.ExprString(fld.Type)
			for _, name := range fld.Names {
				if (typ == "int" || typ == "[]int") && narrow(name.Name) {
					found = append(found, fmt.Sprintf("%s: declares %s.%s %s", fset.Position(name.Pos()), ts.Name.Name, name.Name, typ))
				}
			}
		}
		return false
	})
	return found
}

// pkgNode is a package of the module as TestEveryPackageIsReached sees it:
// whether it is a command, whether it has a _test.go of its own, whether a CI
// step or the benchmark script names it, and what its non-test files import.
type pkgNode struct {
	main, tested, named bool
	imports             []string
}

// unreached lists, by import path, every library no other package imports
// from a non-test file and every command that has no test of its own and that
// no script names: surface nothing reaches.
func unreached(pkgs map[string]pkgNode) []string {
	imported := map[string]bool{}
	for path, p := range pkgs {
		for _, imp := range p.imports {
			if imp != path {
				imported[imp] = true
			}
		}
	}
	var found []string
	for path, p := range pkgs {
		switch {
		case p.main && !p.tested && !p.named:
			found = append(found, path+": command with no test of its own, named by no CI step or bench/run.sh")
		case !p.main && !imported[path]:
			found = append(found, path+": imported by no other package's non-test file")
		}
	}
	slices.Sort(found)
	return found
}

// modulePackages reads every package directory of the module outside bench/
// (which is a module of its own) into the graph unreached takes.
func modulePackages(t *testing.T) map[string]pkgNode {
	t.Helper()
	var scripts string
	for _, name := range []string{".github/workflows/ci.yml", "bench/run.sh"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		scripts += string(b)
	}
	pkgs := map[string]pkgNode{}
	err := filepath.WalkDir(".", func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(name))
		path := "pseudocircuit"
		if dir != "." {
			path += "/" + dir
		}
		p := pkgs[path]
		if strings.HasSuffix(name, "_test.go") {
			p.tested = true
		} else {
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			p.main = f.Name.Name == "main"
			p.named = regexp.MustCompile(`(\./|pseudocircuit/)` + regexp.QuoteMeta(dir) + `\b`).MatchString(scripts)
			for _, imp := range f.Imports {
				p.imports = append(p.imports, strings.Trim(imp.Path.Value, `"`))
			}
		}
		pkgs[path] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestEveryPackageIsReached: every package and command is reached by
// something that runs. A library has a non-test importer outside itself; a
// command has tests of its own or is run by CI or the benchmark. What nothing
// reaches is surface no figure, oracle or daemon path depends on, and it goes.
//
// The root package is exempt: it is imported by nothing by design, because
// its doc.go exists to carry the repo's cross-package tier-1 tests
// (determinism, architecture, benchmarks).
func TestEveryPackageIsReached(t *testing.T) {
	pkgs := modulePackages(t)
	if len(pkgs) < 20 || !pkgs["pseudocircuit/cmd/nocd"].main {
		t.Fatalf("read %d packages; the walk missed the module", len(pkgs))
	}
	delete(pkgs, "pseudocircuit")
	for _, f := range unreached(pkgs) {
		t.Error(f)
	}

	t.Run("checker sees each", func(t *testing.T) {
		clean := func() map[string]pkgNode {
			return map[string]pkgNode{
				"m/cmd/run":   {main: true, tested: true, imports: []string{"m/lib", "fmt"}},
				"m/cmd/tool":  {main: true, named: true, imports: []string{"m/lib"}},
				"m/lib":       {imports: []string{"m/lib/inner"}},
				"m/lib/inner": {},
			}
		}
		if got := unreached(clean()); len(got) != 0 {
			t.Errorf("clean graph: reported %q", got)
		}
		for what, mutate := range map[string]func(g map[string]pkgNode){
			"m/orphan: imported by no other": func(g map[string]pkgNode) { g["m/orphan"] = pkgNode{imports: []string{"m/lib"}} },
			"m/self: imported by no other":   func(g map[string]pkgNode) { g["m/self"] = pkgNode{imports: []string{"m/self"}} },
			"m/cmd/demo: command with no test": func(g map[string]pkgNode) {
				g["m/cmd/demo"] = pkgNode{main: true, imports: []string{"m/lib"}}
			},
		} {
			g := clean()
			mutate(g)
			if got := unreached(g); len(got) != 1 || !strings.HasPrefix(got[0], what) {
				t.Errorf("%s: reported %q", what, got)
			}
		}
	})
}
