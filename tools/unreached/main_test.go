package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestStripTypeArgs(t *testing.T) {
	for in, want := range map[string]string{
		"reco/internal/ocs.(*Core).Run":                           "reco/internal/ocs.(*Core).Run",
		"reco/internal/radix.Sort[go.shape.int]":                  "reco/internal/radix.Sort",
		"p.(*Pool[go.shape.struct { a []int }]).Get":              "p.(*Pool).Get",
		"p.Map[go.shape.string,go.shape.map[int]go.shape.bool].F": "p.Map.F",
	} {
		if got := stripTypeArgs(in); got != want {
			t.Errorf("stripTypeArgs(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestDeclaredFuncs: a package's functions and methods get the linker's
// spelling, type parameters dropped, init skipped.
func TestDeclaredFuncs(t *testing.T) {
	dir := t.TempDir()
	src := `package p

func init() {}
func F() {}
type T struct{}
func (T) Value() {}
func (*T) Ptr() {}
type G[K comparable, V any] struct{}
func (g *G[K, V]) Len() int { return 0 }
func (g G[K, V]) Cap() int { return 0 }
type H[E any] struct{}
func (H[E]) One() {}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := declaredFuncs("m/internal/p", dir, []string{"p.go"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range ds {
		got = append(got, d.name("m"))
	}
	want := []string{"internal/p.F", "internal/p.T.Value", "internal/p.(*T).Ptr", "internal/p.(*G).Len", "internal/p.G.Cap", "internal/p.H.One"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("declared %v, want %v", got, want)
	}
}

func TestAddEdges(t *testing.T) {
	reached := map[string]bool{}
	addEdges(reached, "# m/cmd/x\nmain.main -> m/internal/p.F\nm/internal/p.F -> m/internal/q.Sort[go.shape.int]\n")
	for _, sym := range []string{"main.main", "m/internal/p.F", "m/internal/q.Sort"} {
		if !reached[sym] {
			t.Errorf("%s not reached", sym)
		}
	}
	if len(reached) != 3 {
		t.Errorf("reached %v, want three symbols", reached)
	}
}

func TestReadAllowNeedsReason(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow.txt")
	if err := os.WriteFile(path, []byte("# comment\n\ninternal/p.F kept for tests\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	allow, err := readAllow(path)
	if err != nil || !allow["internal/p.F"] || len(allow) != 1 {
		t.Fatalf("readAllow = %v, %v", allow, err)
	}
	if err := os.WriteFile(path, []byte("internal/p.F\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAllow(path); err == nil {
		t.Error("an entry without a reason was accepted")
	}
}
