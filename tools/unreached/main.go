// Command unreached lists the functions and methods declared under internal/
// that no program of the module links in: no main package of `go list ./...`
// and not the repository benchmark in bench/. Code only tests call shows up
// here. Each entry must be named, with a reason, in allow.txt next to this
// file; the command exits 1 on an entry the allow-list lacks and on an
// allow-list line that names nothing unreached any more.
//
// Reachability is the linker's: every program is built with inlining off
// (-gcflags=all=-l, so a function inlined everywhere still has a symbol)
// and -ldflags=-dumpdep, which prints each edge of the reachable symbol
// graph. The declared set comes from the source, so the wrappers the
// compiler generates (promoted methods, interface method stubs, closures)
// are never candidates. Run it from the module root:
//
//	go run ./tools/unreached
package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(1)
	}
}

func run() error {
	module, err := goOutput(".", "list", "-m")
	if err != nil {
		return err
	}
	module = strings.TrimSpace(module)
	list, err := goOutput(".", "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \",\"}}", "./...")
	if err != nil {
		return err
	}
	var mains []string
	var declared []decl
	for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			return fmt.Errorf("unexpected go list line %q", line)
		}
		path, name, dir, files := f[0], f[1], f[2], f[3]
		if name == "main" {
			mains = append(mains, path)
		}
		if !strings.HasPrefix(path, module+"/internal/") || files == "" {
			continue
		}
		ds, err := declaredFuncs(path, dir, strings.Split(files, ","))
		if err != nil {
			return err
		}
		declared = append(declared, ds...)
	}

	tmp, err := os.MkdirTemp("", "unreached")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	reached := map[string]bool{}
	for _, b := range []struct {
		dir  string
		pkgs []string
	}{{".", mains}, {"bench", []string{"."}}} {
		args := append([]string{"build", "-o", tmp + string(filepath.Separator), "-gcflags=all=-l", "-ldflags=-dumpdep"}, b.pkgs...)
		dump, err := goOutput(b.dir, args...)
		if err != nil {
			return err
		}
		addEdges(reached, dump)
	}

	allow, err := readAllow(filepath.Join("tools", "unreached", "allow.txt"))
	if err != nil {
		return err
	}
	var unreached, fresh []decl
	for _, d := range declared {
		if reached[d.sym] {
			continue
		}
		unreached = append(unreached, d)
		if !allow[d.name(module)] {
			fresh = append(fresh, d)
		}
		delete(allow, d.name(module))
	}
	for _, d := range fresh {
		fmt.Printf("NEW   %s (%s)\n", d.name(module), d.pos)
	}
	var stale []string
	for name := range allow {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		fmt.Printf("STALE %s (allow-listed, but reached or gone)\n", name)
	}
	fmt.Printf("unreached: %d of %d functions under internal/ linked by no program; %d new, %d stale allow-list lines\n",
		len(unreached), len(declared), len(fresh), len(stale))
	if len(fresh) > 0 || len(stale) > 0 {
		return errors.New("allow-list out of date (tools/unreached/allow.txt: one name and reason a line)")
	}
	return nil
}

// goOutput runs the go command in dir and returns what it printed; the
// linker writes -dumpdep to stderr, so both streams are kept.
func goOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go %s (in %s): %v\n%s", args[0], dir, err, out.String())
	}
	return out.String(), nil
}

// decl is one declared function or method: sym is its linker symbol with
// type arguments stripped ("reco/internal/ocs.(*Core).Run"). A value-receiver
// method called through a pointer is reached too: the pointer wrapper the
// compiler generates calls it.
type decl struct {
	sym, pos string
}

// name is the symbol relative to the module, as the allow-list spells it.
func (d decl) name(module string) string { return strings.TrimPrefix(d.sym, module+"/") }

// declaredFuncs parses a package's build files and returns every function
// and method it declares, init functions excepted.
func declaredFuncs(path, dir string, files []string) ([]decl, error) {
	fset := token.NewFileSet()
	var out []decl
	for _, file := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, file), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			pos := fset.Position(fn.Pos())
			dc := decl{pos: fmt.Sprintf("%s:%d", filepath.Join(filepath.Base(dir), file), pos.Line)}
			if fn.Recv == nil {
				dc.sym = path + "." + fn.Name.Name
			} else if typ, ptr := recvType(fn.Recv.List[0].Type); ptr {
				dc.sym = path + ".(*" + typ + ")." + fn.Name.Name
			} else {
				dc.sym = path + "." + typ + "." + fn.Name.Name
			}
			out = append(out, dc)
		}
	}
	return out, nil
}

// recvType names a receiver's type without type parameters and says
// whether it is a pointer.
func recvType(e ast.Expr) (string, bool) {
	ptr := false
	if s, ok := e.(*ast.StarExpr); ok {
		ptr, e = true, s.X
	}
	switch t := e.(type) {
	case *ast.IndexExpr:
		e = t.X
	case *ast.IndexListExpr:
		e = t.X
	}
	return e.(*ast.Ident).Name, ptr
}

// addEdges adds both ends of every "from -> to" line of a -dumpdep dump to
// reached, with type arguments stripped.
func addEdges(reached map[string]bool, dump string) {
	sc := bufio.NewScanner(strings.NewReader(dump))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		reached[stripTypeArgs(from)] = true
		reached[stripTypeArgs(to)] = true
	}
}

// stripTypeArgs drops every bracketed type-argument list from a symbol:
// "p.Sort[go.shape.int]" is "p.Sort", "p.(*Pool[go.shape.int]).Get" is
// "p.(*Pool).Get".
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readAllow reads the allow-list: one symbol a line, relative to the
// module, then its reason; blank lines and #-comments are skipped.
func readAllow(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, name)
		}
		allow[name] = true
	}
	return allow, nil
}
