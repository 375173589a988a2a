package cpisim

import (
	"reflect"
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/obs"
	"pipecache/internal/trace"
)

// replayWorkloads builds a two-benchmark multiprogrammed set so replay
// exercises the round-robin re-interleaving, not just a single stream.
func replayWorkloads(t testing.TB) []Workload {
	t.Helper()
	p1 := tinyLoop(t, 0.9)
	p2 := tinyLoop(t, 0.3)
	p2.Name = "tiny2"
	return []Workload{
		{Prog: p1, Seed: 9, Weight: 0.5},
		{Prog: p2, Seed: 77, Weight: 0.5},
	}
}

// captureTrace runs one live pass of cfg with a recorder teed in and
// returns both the live result and the captured trace (caller releases).
func captureTrace(t *testing.T, cfg Config, ws []Workload, insts int64) (*Result, *trace.EventTrace) {
	t.Helper()
	sim, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder("test", insts)
	sim.SetCapture(rec)
	res, err := sim.Run(insts)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.Finish()
}

// liveAndReplay runs cfg both ways from the same trace and returns the two
// results plus the counter maps each pass published.
func liveAndReplay(t *testing.T, cfg Config, ws []Workload, insts int64, tr *trace.EventTrace) (live, replay *Result, liveC, replayC map[string]int64) {
	t.Helper()
	liveSim, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	liveReg := obs.NewRegistry()
	liveSim.SetObs(liveReg)
	live, err = liveSim.Run(insts)
	if err != nil {
		t.Fatal(err)
	}
	replaySim, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	replayReg := obs.NewRegistry()
	replaySim.SetObs(replayReg)
	replay, err = replaySim.Replay(insts, tr)
	if err != nil {
		t.Fatal(err)
	}
	return live, replay, liveReg.Snapshot().Counters, replayReg.Snapshot().Counters
}

// TestReplayBitIdentical is the core differential guarantee: a replayed
// pass produces a bit-identical Result and identical published counters to
// a live run of the same configuration — across branch schemes, delay
// depths, cache geometries, and even a quantum different from the
// capturing pass's.
func TestReplayBitIdentical(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 30_000

	captureCfg := Config{
		BranchSlots: 1,
		ICaches:     []cache.Config{icfg()},
		DCaches:     []cache.Config{icfg()},
		Quantum:     20_000,
	}
	liveCapture, tr := captureTrace(t, captureCfg, ws, insts)
	defer tr.Release()

	big := cache.Config{SizeKW: 8, BlockWords: 8, Assoc: 2, WriteBack: false}
	cfgs := map[string]Config{
		"same-as-capture": captureCfg,
		"deeper-slots": {BranchSlots: 3, LoadSlots: 2,
			ICaches: []cache.Config{icfg()}, DCaches: []cache.Config{icfg()}, Quantum: 20_000},
		"btb-scheme": {BranchScheme: BranchBTB,
			ICaches: []cache.Config{icfg(), big}, DCaches: []cache.Config{icfg(), big}, Quantum: 20_000},
		"different-quantum": {BranchSlots: 2,
			ICaches: []cache.Config{big}, DCaches: []cache.Config{big}, Quantum: 7_000},
		"dynamic-loads": {LoadSlots: 2, LoadScheme: LoadDynamic,
			DCaches: []cache.Config{icfg()}, Quantum: 20_000},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			live, replay, liveC, replayC := liveAndReplay(t, cfg, ws, insts, tr)
			if !reflect.DeepEqual(live, replay) {
				t.Errorf("replayed result differs from live:\n live:   %+v\n replay: %+v", live, replay)
			}
			if !reflect.DeepEqual(liveC, replayC) {
				t.Errorf("published counters differ:\n live:   %v\n replay: %v", liveC, replayC)
			}
		})
	}

	// The capturing pass itself (recorder teed in) must match a plain live
	// run too: the tee is observationally transparent.
	plain, err := New(captureCfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	plainRes, err := plain.Run(insts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainRes, liveCapture) {
		t.Error("capturing pass's result differs from an untapped live run")
	}
}

// TestReplayValidation: mismatched budgets, workloads, or seeds must be
// rejected before any state is driven.
func TestReplayValidation(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 10_000
	cfg := Config{ICaches: []cache.Config{icfg()}, DCaches: []cache.Config{icfg()}, Quantum: 5_000}
	_, tr := captureTrace(t, cfg, ws, insts)
	defer tr.Release()

	sim, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Replay(insts+1, tr); err == nil {
		t.Error("budget mismatch accepted")
	}
	if _, err := sim.Replay(insts, nil); err == nil {
		t.Error("nil trace accepted")
	}

	short, err := New(cfg, ws[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := short.Replay(insts, tr); err == nil {
		t.Error("workload-count mismatch accepted")
	}

	wsWrongSeed := replayWorkloads(t)
	wsWrongSeed[1].Seed++
	wrong, err := New(cfg, wsWrongSeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrong.Replay(insts, tr); err == nil {
		t.Error("seed mismatch accepted")
	}
}
