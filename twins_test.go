package reco_test

import (
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
	"core.RecoSin": "bench/probe.go calls it; ROADMAP item 9 (g) moves the benchmark to core.RecoSinCtx first",
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
