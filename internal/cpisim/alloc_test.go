package cpisim

import (
	"testing"

	"pipecache/internal/cache"
)

// TestReplaySteadyStateAllocs pins the arena guarantee of the replay
// tier: once a trace's chunk plans are compiled and the pools are warm,
// a replay pass allocates only its fixed per-pass bookkeeping (cursor
// and budget slices, the Result) — nothing proportional to the
// instruction count. A regression here means the hot loop started
// allocating per event, per chunk, or per probe.
func TestReplaySteadyStateAllocs(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 30_000
	cfg := Config{
		BranchSlots: 2,
		LoadSlots:   2,
		ICaches:     []cache.Config{icfg()},
		DCaches:     []cache.Config{icfg()},
		Quantum:     20_000,
	}
	tr := captureTrace(t, ws, insts, 1)
	defer tr.Release()

	sim, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: compiles the chunk plans onto the trace's aux cache.
	if _, err := sim.Replay(insts, tr); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sim.Replay(insts, tr); err != nil {
			t.Fatal(err)
		}
	})
	// ~10 fixed allocations today (names/seeds/cursors/remaining slices,
	// Result and its bench slice); the bound leaves headroom for harmless
	// drift while catching anything that scales with the stream.
	if allocs > 64 {
		t.Errorf("steady-state replay makes %.0f allocations per pass; want fixed per-pass bookkeeping only (<= 64)", allocs)
	}
}

// TestSimReleaseRecycles pins the construction side of the arena
// guarantee: building and releasing simulators in a steady loop recycles
// the pooled slabs (bank tables, Direct views) instead of growing the
// heap per pass. The translation is rebuilt per Sim (it is cheap and
// proportional to the program, not the pass), so the bound is loose —
// the point is that it does not scale with the instruction budget.
func TestSimReleaseRecycles(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 30_000
	cfg := Config{
		BranchSlots: 2,
		ICaches:     []cache.Config{icfg()},
		DCaches:     []cache.Config{icfg()},
		Quantum:     20_000,
	}
	tr := captureTrace(t, ws, insts, 1)
	defer tr.Release()

	run := func() {
		sim, err := New(cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Replay(insts, tr); err != nil {
			t.Fatal(err)
		}
		sim.Release()
	}
	run() // warm pools and plan cache
	perInst := testing.AllocsPerRun(10, run) / float64(insts)
	if perInst > 0.01 {
		t.Errorf("construct+replay+release allocates %.4f allocations per instruction; construction cost must not scale with the budget", perInst)
	}
}
