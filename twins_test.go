package reco_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// ctxlessTwinsAllowed lists the exported functions that may still exist only
// to call their context-taking twin with context.Background(), each with the
// reason it has not been deleted yet.
var ctxlessTwinsAllowed = map[string]string{
	"core.RecoSin": "bench/suite.go is its one caller outside tests; ROADMAP item 9 (g) moves the benchmark to core.RecoSinCtx, then item 13 deletes it",
}

// TestNoCtxlessTwins keeps one entry point per kernel: no exported function
// or method in a non-test file under internal/ may have a whole body of
// `return XCtx(context.Background(), …)`. A caller without a context of its
// own passes context.Background() to the Ctx name itself.
func TestNoCtxlessTwins(t *testing.T) {
	var found []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || !delegatesWithBackground(fn) {
				continue
			}
			name := file.Name.Name + "." + fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				name = file.Name.Name + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			if _, ok := ctxlessTwinsAllowed[name]; ok {
				continue
			}
			found = append(found, name+" ("+fset.Position(fn.Pos()).String()+")")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s only calls its Ctx twin with context.Background(); delete it and call the Ctx name", f)
	}
}

// delegatesWithBackground reports whether fn's whole body is one return of a
// call to a function or method named …Ctx whose first argument is
// context.Background().
func delegatesWithBackground(fn *ast.FuncDecl) bool {
	if fn.Body == nil || len(fn.Body.List) != 1 {
		return false
	}
	ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	var callee string
	switch f := call.Fun.(type) {
	case *ast.Ident:
		callee = f.Name
	case *ast.SelectorExpr:
		callee = f.Sel.Name
	}
	if !strings.HasSuffix(callee, "Ctx") {
		return false
	}
	bg, ok := call.Args[0].(*ast.CallExpr)
	if !ok || len(bg.Args) != 0 {
		return false
	}
	sel, ok := bg.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Background" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "context"
}

// recvType names a method receiver's type without its pointer.
func recvType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// kernelsBehindRows are the kernels the registry rows run (reco-sin,
// reco-mul, reco-sparse, tms-bvn, sunflow, solstice), by import path and
// name. A consumer that replays a row asks the registry for it,
// algo.MustGet(name).Schedule, so that the request is validated and the
// pipeline exists once.
var kernelsBehindRows = []string{
	"reco/internal/core.RecoSin",
	"reco/internal/core.RecoSinCtx",
	"reco/internal/core.ScheduleMulCtx",
	"reco/internal/core.RecoSparseCtx",
	"reco/internal/tms.ScheduleBvN",
	"reco/internal/sunflow.Schedule",
	"reco/internal/solstice.Schedule",
}

// kernelCallsAllowed lists the consumer functions that may still call one of
// kernelsBehindRows, keyed "package.Function: kernel", each with the reason
// the registry row cannot serve it.
var kernelCallsAllowed = map[string]string{
	"experiments.ExtFull: solstice.Schedule": "ext-full builds its 526 Solstice schedules in parallel; the sebf-solstice row builds them one after another",
}

// TestConsumersScheduleThroughRegistry keeps the consumers — the facade, the
// commands, the examples, the experiment tables, the online controller and
// the API — on the registry: no non-test file there calls a kernel a
// registry row wraps, outside kernelCallsAllowed.
func TestConsumersScheduleThroughRegistry(t *testing.T) {
	banned := map[string]bool{}
	for _, k := range kernelsBehindRows {
		banned[k] = true
	}
	var found []string
	for _, root := range []string{".", "cmd", "examples", "internal/experiments", "internal/online", "internal/api"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if root == "." && path != "." {
					return filepath.SkipDir // the root package only
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			imports := map[string]string{} // local name → import path
			for _, imp := range file.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				name := p[strings.LastIndex(p, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = p
			}
			for _, decl := range file.Decls {
				fn := file.Name.Name
				if f, ok := decl.(*ast.FuncDecl); ok {
					fn += "." + f.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					pkg, ok := sel.X.(*ast.Ident)
					if !ok || !banned[imports[pkg.Name]+"."+sel.Sel.Name] {
						return true
					}
					kernel := pkg.Name + "." + sel.Sel.Name
					if _, ok := kernelCallsAllowed[fn+": "+kernel]; !ok {
						found = append(found, fmt.Sprintf("%s: %s (%s)", fn, kernel, fset.Position(sel.Pos())))
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range found {
		t.Errorf("%s runs a registry row's kernel; call algo.MustGet(name).Schedule instead", f)
	}
}
