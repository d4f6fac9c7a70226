package algo

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrUnknown reports a name that resolves to no registered algorithm.
var ErrUnknown = fmt.Errorf("algo: unknown algorithm")

var (
	mu       sync.RWMutex
	registry = map[string]Scheduler{}
)

// checked is the form every registered Scheduler is handed out in: Schedule
// runs ValidateRequest and refuses an already-cancelled context before the
// algorithm sees the request, so no registration can forget either.
type checked struct{ Scheduler }

func (c checked) Schedule(ctx context.Context, req Request) (*Result, error) {
	if err := ValidateRequest(req); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.Scheduler.Schedule(ctx, req)
}

// Register adds s to the process-global registry. It panics on an empty
// name or a duplicate registration — both are programmer errors caught the
// first time the process runs, exactly like http.ServeMux or database/sql
// driver registration.
func Register(s Scheduler) {
	name := s.Name()
	if name == "" {
		panic("algo: Register with empty name")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("algo: Register called twice for %q", name))
	}
	registry[name] = checked{s}
}

// Get resolves a registered algorithm by name. The error of an unknown name
// enumerates the valid names so callers can surface it verbatim.
func Get(name string) (Scheduler, error) {
	mu.RLock()
	s, ok := registry[name]
	mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (valid: %s)", ErrUnknown, name, strings.Join(Names(), ", "))
	}
	return s, nil
}

// MustGet is Get for names known at compile time; it panics on an unknown
// name.
func MustGet(name string) Scheduler {
	s, err := Get(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Names returns every registered name in sorted order — the registry's
// deterministic iteration order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns every registered Scheduler ordered by name.
func All() []Scheduler {
	names := Names()
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Scheduler, len(names))
	for i, name := range names {
		out[i] = registry[name]
	}
	return out
}
