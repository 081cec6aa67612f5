package iotlan

import (
	"reflect"
	"testing"
	"time"
)

// The shared analysis prerequisites (decode-once index, communication
// graph, identifier extraction) are memoized per Study: however many
// artifacts consume them, at any worker count and across repeated passes,
// each is built exactly once, and a repeated pass renders the same bytes.
// A regression to per-artifact rebuilds shows up as Calls > 1.
func TestPrereqsBuiltOncePerStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full study")
	}
	s := New(5,
		WithIdleDuration(2*time.Minute),
		WithInteractions(8),
		WithHouseholds(60),
		WithApps(6),
		WithWorkers(4),
	)
	first := s.Everything()
	second := s.Everything()

	calls := map[string]int{}
	for _, p := range s.Profiler.Phases() {
		calls[p.Name] = p.Calls
	}
	for _, name := range []string{"index", "graph", "identifiers"} {
		if calls[name] != 1 {
			t.Errorf("prerequisite %q built %d times, want 1", name, calls[name])
		}
	}

	if len(first) != len(second) {
		t.Fatalf("second pass: %d results, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i].ID != second[i].ID || first[i].Rendered != second[i].Rendered ||
			!reflect.DeepEqual(first[i].Metrics, second[i].Metrics) {
			t.Fatalf("second pass: artifact %q diverged from the first", first[i].ID)
		}
	}
}
