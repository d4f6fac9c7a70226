package faults

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"reco/internal/parallel"
)

// raceBuild is set in a -race build (race_test.go).
var raceBuild bool

// refPortEvents is Generate's port loop as first written, with a fresh
// parallel.Rand source per port: the streams Generate must reproduce.
func refPortEvents(cfg GenConfig) []PortEvent {
	var evs []PortEvent
	for p := 0; p < cfg.N && cfg.PortFailRate > 0; p++ {
		rng := parallel.Rand(cfg.Seed, streamPort, int64(p))
		if rng.Float64() >= cfg.PortFailRate {
			continue
		}
		fail := rng.Int63n(cfg.Horizon)
		evs = append(evs, PortEvent{Tick: fail, Port: p, Down: true})
		if cfg.RepairAfter > 0 {
			evs = append(evs, PortEvent{Tick: fail + cfg.RepairAfter, Port: p, Down: false})
		}
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].Tick != evs[b].Tick {
			return evs[a].Tick < evs[b].Tick
		}
		return evs[a].Port < evs[b].Port
	})
	return evs
}

// TestGenerateMatchesFreshSources: Generate re-seeds one source per port,
// and every schedule must be the one a fresh source per port draws, over
// seeds, fabric sizes, rates, horizons (1 included) and repair times.
func TestGenerateMatchesFreshSources(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, n := range []int{1, 2, 17, 60, 200} {
			for _, rate := range []float64{0.05, 0.5, 1} {
				for _, horizon := range []int64{1, 977, math.MaxInt64 / 4} {
					cfg := GenConfig{N: n, Seed: seed, Horizon: horizon, PortFailRate: rate, RepairAfter: seed % 3 * 50}
					s, err := Generate(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if want := refPortEvents(cfg); !reflect.DeepEqual(s.PortEvents, want) {
						t.Fatalf("%+v: events %v, want %v", cfg, s.PortEvents, want)
					}
				}
			}
		}
	}
}

// TestGenerateAllocsFlatInN holds Generate to one allocation budget at
// every N from 16 to 1024 ports, every port failing and repairing: one
// source serves all the ports, and only the event list's doublings add a
// few allocations as N grows (12 at N = 16, 19 at N = 1024), where a fresh
// 607-word source and generator per port cost two allocations per port
// (42 at N = 16, 2067 at N = 1024). It is skipped under -race.
func TestGenerateAllocsFlatInN(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts under -race measure the detector")
	}
	const budget = 24
	for _, n := range []int{16, 64, 256, 1024} {
		cfg := GenConfig{N: n, Seed: 3, Horizon: 5000, PortFailRate: 1, RepairAfter: 700}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Generate(cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("N = %d: %.0f allocations", n, allocs)
		if allocs > budget {
			t.Errorf("Generate at N = %d: %.0f allocations, budget %d", n, allocs, budget)
		}
	}
}
