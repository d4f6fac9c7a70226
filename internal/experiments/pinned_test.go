package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// pinnedIDs is every registry id except ext-full (the 526-coflow run takes
// ~12 s and has no tiny form: it ignores the scale knobs), sorted.
func pinnedIDs() []string {
	var ids []string
	for id := range Registry() {
		if id != "ext-full" {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// TestTablesPinnedAtTinyConfig holds every table's CSV at tinyConfig to the
// SHA-256 recorded in testdata/tiny_tables.sha256 (sha256sum format),
// generated before the runners were rewritten on the shared helpers. The
// tiny workload reaches shapes `make results-check` at default scale does
// not — thin classes, two-batch pools — so a refactor that is only
// byte-identical at the default scale still fails here. A deliberate change
// to a table re-pins its line from the failure message.
func TestTablesPinnedAtTinyConfig(t *testing.T) {
	data, err := os.ReadFile("testdata/tiny_tables.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("malformed digest line %q", line)
		}
		want[f[1]] = f[0]
	}
	ids := pinnedIDs()
	if len(want) != len(ids) {
		t.Errorf("testdata pins %d tables, the registry has %d besides ext-full", len(want), len(ids))
	}
	registry := Registry()
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			tbl, err := registry[id](tinyConfig)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(tbl.CSV()))); got != want[id] {
				t.Errorf("pinned %s; the table now hashes to the line\n%s  %s\n%s", want[id], got, id, tbl.CSV())
			}
		})
	}
}
