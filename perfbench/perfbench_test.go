package main

import "testing"

// TestEffortDeterminism pins the property the per-layer sat counts rest
// on: on a one-client workload the daemon sees the same request sequence
// on every run, so the stream's solver-effort totals repeat exactly for a
// seed and change with it.
func TestEffortDeterminism(t *testing.T) {
	const ops = 300
	for _, name := range []string{"reuse", "churn"} {
		var w *workload
		for _, c := range workloads {
			if c.name == name {
				w = c
			}
		}
		totals := func(seed int64) effort {
			t.Helper()
			p, err := runPass(w, seed, 0, ops, false, 1, 0)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if p.log.failed != 0 {
				t.Fatalf("%s seed %d: %d failed operations: %v", name, seed, p.log.failed, p.log.failures)
			}
			return p.log.prefix
		}
		a, b, c := totals(1), totals(1), totals(2)
		if a.misses == 0 || a.conflicts == 0 {
			t.Fatalf("%s: no solver work in the counted prefix: %+v", name, a)
		}
		if a.conflicts != b.conflicts || a.propagations != b.propagations {
			t.Errorf("%s seed 1 twice: conflicts %d vs %d, propagations %d vs %d", name, a.conflicts, b.conflicts, a.propagations, b.propagations)
		}
		if a.conflicts == c.conflicts && a.propagations == c.propagations {
			t.Errorf("%s seeds 1 and 2 gave identical totals: conflicts %d, propagations %d", name, a.conflicts, a.propagations)
		}
	}
}
