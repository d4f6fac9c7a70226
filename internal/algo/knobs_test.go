package algo

import (
	"errors"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"reco/internal/matrix"
)

// capsFake is a Scheduler with chosen capabilities.
type capsFake struct {
	fake
	caps Capabilities
}

func (c capsFake) Caps() Capabilities { return c.caps }

// TestKnobTableRows holds each row to the Knobs field it describes and to
// the invariants the consumer loops rely on: row i is field i, the wire
// key is the field's JSON tag, the zero value is in range and unset, and
// Cap is the tag of exactly the capability the row's gate reads.
func TestKnobTableRows(t *testing.T) {
	typ := reflect.TypeOf(Knobs{})
	if typ.NumField() != len(KnobTable) {
		t.Fatalf("Knobs has %d fields, KnobTable %d rows", typ.NumField(), len(KnobTable))
	}
	seen := map[string]bool{}
	for i := range KnobTable {
		kn, field := &KnobTable[i], typ.Field(i)
		if tag := field.Tag.Get("json"); tag != kn.Key+",omitempty" {
			t.Errorf("row %d: key %q, but field %s is tagged %q", i, kn.Key, field.Name, tag)
		}
		if isFloat := field.Type.Kind() == reflect.Float64; isFloat != kn.Float ||
			(!isFloat && field.Type.Kind() != reflect.Int) {
			t.Errorf("%s: Float=%v, but field %s is a %s", kn.Key, kn.Float, field.Name, field.Type)
		}
		if seen[kn.Key] || seen[kn.Flag()] || kn.Key == "" || kn.Doc == "" || strings.Contains(kn.Flag(), "_") {
			t.Errorf("%s: empty or duplicate key, flag %q or doc", kn.Key, kn.Flag())
		}
		seen[kn.Key], seen[kn.Flag()] = true, true
		if !(kn.Min <= 0 && 0 <= kn.Unset && kn.Unset < kn.Max) {
			t.Errorf("%s: want Min ≤ 0 ≤ Unset < Max, have %v, %v, %v", kn.Key, kn.Min, kn.Unset, kn.Max)
		}
		if kn.IsSet(Knobs{}) {
			t.Errorf("%s: the zero value counts as set", kn.Key)
		}

		// load and store address field i and nothing else.
		var k Knobs
		if kn.Float {
			k = kn.SetFloat(k, 0.5)
		} else {
			k = kn.SetInt(k, -7)
		}
		v := reflect.ValueOf(k)
		for j := 0; j < v.NumField(); j++ {
			if zero := v.Field(j).IsZero(); zero != (j != i) {
				t.Errorf("%s: after a store, field %s zero = %v", kn.Key, typ.Field(j).Name, zero)
			}
		}
		if want := map[bool]string{true: "0.5", false: "-7"}[kn.Float]; kn.Format(k) != want {
			t.Errorf("%s: stored %s, reads back %s", kn.Key, want, kn.Format(k))
		}
		if kn.Float && kn.Bits(k) != math.Float64bits(0.5) || !kn.Float && int64(kn.Bits(k)) != -7 {
			t.Errorf("%s: Bits = %#x", kn.Key, kn.Bits(k))
		}

		// Cap names the one capability bit the gate reads.
		caps := reflect.New(reflect.TypeOf(Capabilities{})).Elem()
		owners := 0
		for j := 0; j < caps.NumField(); j++ {
			caps.Field(j).SetBool(true)
			c := caps.Interface().(Capabilities)
			if kn.has(c) {
				owners++
				if c.Tags() != "["+kn.Cap+"]" {
					t.Errorf("%s: gated by the capability tagged %s, Cap says %q", kn.Key, c.Tags(), kn.Cap)
				}
				if tag := caps.Type().Field(j).Tag.Get("json"); tag != kn.Cap {
					t.Errorf("%s: /v1/algorithms lists the capability as %q, Cap says %q", kn.Key, tag, kn.Cap)
				}
			}
			caps.Field(j).SetBool(false)
		}
		if owners != 1 || kn.has(Capabilities{}) {
			t.Errorf("%s: %d capabilities open the gate, want exactly 1", kn.Key, owners)
		}
		if KnobIndex([]byte(kn.Key)) != i {
			t.Errorf("KnobIndex(%q) = %d, want %d", kn.Key, KnobIndex([]byte(kn.Key)), i)
		}
	}
	if KnobIndex([]byte("delta")) != -1 {
		t.Error("KnobIndex finds a knob named delta")
	}
}

// TestKnobRanges: every row rejects the values just outside its range, and
// a float row rejects NaN and the infinities, through ValidateRequest and
// CheckKnobs alike; the bounds themselves pass. The named cases are the
// two that used to get through: a core count that asks for gigabytes of
// demand shares, and a NaN that no `v < lo || v > hi` test catches.
func TestKnobRanges(t *testing.T) {
	d, err := matrix.FromRows([][]int64{{0, 5}, {5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	all := capsFake{fake{"all-caps"}, Capabilities{Cores: true, Sparse: true, Hybrid: true}}
	check := func(name string, k Knobs, ok bool) {
		t.Helper()
		errV := ValidateRequest(Request{Demands: []*matrix.Matrix{d}, Delta: 10, Knobs: k})
		errC := CheckKnobs(all, k)
		if (errV == nil) != ok || (errC == nil) != ok {
			t.Errorf("%s: ValidateRequest %v, CheckKnobs %v, want ok = %v", name, errV, errC, ok)
		}
		if !ok && (!errors.Is(errV, ErrBadRequest) || !errors.Is(errC, ErrBadRequest)) {
			t.Errorf("%s: errors %v, %v are not ErrBadRequest", name, errV, errC)
		}
	}
	for i := range KnobTable {
		kn := &KnobTable[i]
		set := func(v float64) Knobs {
			if kn.Float {
				return kn.SetFloat(Knobs{}, v)
			}
			return kn.SetInt(Knobs{}, int(v))
		}
		check(kn.Key+" at Min", set(kn.Min), true)
		check(kn.Key+" at Max", set(kn.Max), true)
		check(kn.Key+" below Min", set(kn.Min-1), false)
		check(kn.Key+" above Max", set(kn.Max+1), false)
		if kn.Float {
			check(kn.Key+" NaN", set(math.NaN()), false)
			check(kn.Key+" +Inf", set(math.Inf(1)), false)
			check(kn.Key+" -Inf", set(math.Inf(-1)), false)
		} else {
			check(kn.Key+" MaxInt", kn.SetInt(Knobs{}, math.MaxInt), false)
			check(kn.Key+" MinInt", kn.SetInt(Knobs{}, math.MinInt), false)
		}
	}
	check("cores 200000", Knobs{Cores: 200000}, false)
	check("elec_frac NaN", Knobs{ElecFrac: math.NaN()}, false)
}

// TestCheckKnobsCapabilityGate: a set knob needs its capability, anything
// up to Unset needs none, and the message names knob, value, algorithm and
// capability.
func TestCheckKnobsCapabilityGate(t *testing.T) {
	none := capsFake{fake{"plain"}, Capabilities{SingleCoflow: true}}
	if err := CheckKnobs(none, Knobs{Cores: 1}); err != nil {
		t.Errorf("cores 1 needs no capability, got %v", err)
	}
	cases := []struct {
		k    Knobs
		want string
	}{
		{Knobs{Cores: 3}, "algo: bad request: cores 3: algorithm plain has no cores capability"},
		{Knobs{K: 2}, "algo: bad request: k 2: algorithm plain has no sparse capability"},
		{Knobs{ElecFrac: 0.25}, "algo: bad request: elec_frac 0.25: algorithm plain has no hybrid capability"},
		{Knobs{Cores: -1}, "algo: bad request: cores -1 outside [0, 1024]"},
	}
	for _, tc := range cases {
		if err := CheckKnobs(none, tc.k); err == nil || err.Error() != tc.want {
			t.Errorf("CheckKnobs(%+v) = %v, want %q", tc.k, err, tc.want)
		}
	}
	if err := CheckKnobs(capsFake{fake{"wide"}, Capabilities{Cores: true}}, Knobs{Cores: 3}); err != nil {
		t.Errorf("cores 3 with the cores capability: %v", err)
	}
}

// TestKnobFlags: KnobFlags registers one flag per row, defaulting to the
// zero value, and parsing stores into the Knobs — NaN included, which is
// Validate's to reject, not the flag's to hide.
func TestKnobFlags(t *testing.T) {
	var k Knobs
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	KnobFlags(fs, &k)
	var args []string
	for i := range KnobTable {
		kn := &KnobTable[i]
		f := fs.Lookup(kn.Flag())
		if f == nil || f.DefValue != "0" || !strings.HasPrefix(f.Usage, kn.Doc) {
			t.Fatalf("flag -%s: %+v", kn.Flag(), f)
		}
		args = append(args, "-"+kn.Flag(), map[bool]string{true: "NaN", false: "3"}[kn.Float])
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if k.Cores != 3 || k.K != 3 || !math.IsNaN(k.ElecFrac) {
		t.Errorf("parsed %+v", k)
	}
	if k.Validate() == nil {
		t.Error("NaN from a flag passes Validate")
	}
	if err := fs.Parse([]string{"-" + KnobTable[0].Flag(), "1.5"}); err == nil {
		t.Error("an int knob's flag accepts 1.5")
	}
}

// TestKnobsDeclaredOnce: the layers that only pass knobs along name none.
// No non-test Go file of the CLIs, the API or the plan cache may use a
// Knobs field as an identifier, or spell a wire key or flag as a string
// literal (comments are free to); they loop over KnobTable instead, so a
// new knob is one row here plus the scheduler that reads it.
func TestKnobsDeclaredOnce(t *testing.T) {
	idents, literals := map[string]bool{}, map[string]bool{}
	typ := reflect.TypeOf(Knobs{})
	for i := range KnobTable {
		idents[typ.Field(i).Name] = true
		literals[KnobTable[i].Key] = true
		literals[KnobTable[i].Flag()] = true
	}
	for _, dir := range []string{"../../cmd", "../api", "../plancache"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			fset := token.NewFileSet()
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if idents[n.Name] {
						t.Errorf("%s names the knob field %s", fset.Position(n.Pos()), n.Name)
					}
				case *ast.BasicLit:
					if n.Kind != token.STRING {
						break
					}
					if s, err := strconv.Unquote(n.Value); err == nil && literals[s] {
						t.Errorf("%s spells the knob %q", fset.Position(n.Pos()), s)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDocsListKnobTable keeps the prose in step with the table: the "Knobs"
// table of docs/ARCHITECTURE.md has exactly one row per KnobTable row,
// with its key, flag, type, range, unset bound, capability and doc; its
// capability table lists every Capabilities field with its tag; and the
// wire grammar of docs/SERVICE.md lists every key with its type.
func TestDocsListKnobTable(t *testing.T) {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	arch, service := read("../../docs/ARCHITECTURE.md"), read("../../docs/SERVICE.md")
	var rows []string
	for _, line := range strings.Split(arch, "\n") {
		if strings.HasPrefix(line, "| `") && strings.Contains(line, "| `-") {
			rows = append(rows, line)
		}
	}
	if len(rows) != len(KnobTable) {
		t.Errorf("docs/ARCHITECTURE.md has %d knob rows, KnobTable %d", len(rows), len(KnobTable))
	}
	for i := range KnobTable {
		kn := &KnobTable[i]
		typ := map[bool]string{true: "number", false: "int"}[kn.Float]
		want := "| `" + kn.Key + "` | `-" + kn.Flag() + "` | " + typ + " | " + kn.Range() + " | " + bound(kn.Unset) +
			" | `" + kn.Cap + "` | " + kn.Doc + " |"
		if i < len(rows) && rows[i] != want {
			t.Errorf("docs/ARCHITECTURE.md knob row %d:\n have %s\n want %s", i, rows[i], want)
		}
		if field := `[, "` + kn.Key + `": ` + typ + `]`; !strings.Contains(service, field) {
			t.Errorf("docs/SERVICE.md wire grammar lacks %s", field)
		}
	}
	caps := reflect.New(reflect.TypeOf(Capabilities{})).Elem()
	for j := 0; j < caps.NumField(); j++ {
		caps.Field(j).SetBool(true)
		tag := strings.Trim(caps.Interface().(Capabilities).Tags(), "[]")
		if cell := "| `" + caps.Type().Field(j).Name + "` | `" + tag + "` |"; !strings.Contains(arch, cell) {
			t.Errorf("docs/ARCHITECTURE.md capability table lacks a row starting %s", cell)
		}
		caps.Field(j).SetBool(false)
	}
}
