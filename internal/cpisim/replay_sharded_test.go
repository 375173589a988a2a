package cpisim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/obs"
	"pipecache/internal/trace"
)

// The pass is sharded twice on its way to a Result: trace.Record captures
// each benchmark's stream on its own goroutine, and every replay of the
// trace — cancelled or not, on a cold or warm plan cache — reads the same
// shared chunks. These tests hold every such replay to the live oracle.

// shardLadder is a small all-direct-mapped ladder mixing write policies,
// the lane-packed shape the ablation sweeps use.
func shardLadder() []cache.Config {
	return []cache.Config{
		{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: true},
		{SizeKW: 2, BlockWords: 4, Assoc: 1, WriteBack: true},
		{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: false},
	}
}

// passOutcome is everything a pass publishes: the Result, every
// configuration's folded bank statistics, and the obs counters.
type passOutcome struct {
	res      *Result
	iStats   []cache.Stats
	dStats   []cache.Stats
	counters map[string]int64
}

// runPass drives cfg once on a fresh simulator, live when tr is nil and
// from tr otherwise.
func runPass(t *testing.T, cfg Config, ws []Workload, insts int64, tr *trace.EventTrace) passOutcome {
	t.Helper()
	sim, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sim.SetObs(reg)
	var res *Result
	if tr == nil {
		res, err = sim.Run(insts)
	} else {
		res, err = sim.Replay(insts, tr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return passOutcome{res, bankStats(sim.ibank, len(cfg.ICaches)), bankStats(sim.dbank, len(cfg.DCaches)), reg.Snapshot().Counters}
}

// diffOutcome reports every way got differs from the live outcome want.
func diffOutcome(t *testing.T, what string, got, want passOutcome) {
	t.Helper()
	if !reflect.DeepEqual(got.res, want.res) {
		t.Errorf("%s: result differs from live:\n replay: %+v\n live:   %+v", what, got.res, want.res)
	}
	if !reflect.DeepEqual(got.iStats, want.iStats) {
		t.Errorf("%s: I-bank stats differ from live:\n replay: %+v\n live:   %+v", what, got.iStats, want.iStats)
	}
	if !reflect.DeepEqual(got.dStats, want.dStats) {
		t.Errorf("%s: D-bank stats differ from live:\n replay: %+v\n live:   %+v", what, got.dStats, want.dStats)
	}
	if !reflect.DeepEqual(got.counters, want.counters) {
		t.Errorf("%s: published counters differ from live:\n replay: %v\n live:   %v", what, got.counters, want.counters)
	}
}

// cutContext cancels a replay at a turn boundary: ReplayContext polls Err
// once before every turn of its round-robin schedule, so the first cut
// polls succeed and every later one reports context.Canceled. A negative
// cut never cancels and just counts the pass's turns.
type cutContext struct {
	context.Context
	cut, polls int
}

func (c *cutContext) Err() error {
	c.polls++
	if c.cut >= 0 && c.polls > c.cut {
		return context.Canceled
	}
	return nil
}

// TestShardedReplayEveryCut cancels a replay at EVERY turn boundary of
// its schedule and then replays the same trace in full. The cancelled
// pass must fail with the context's error, and the full pass — which
// finds the trace's shared plan cache holding exactly the cancelled
// prefix's compiled chunks — must still match a live run bit for bit:
// Result, bank statistics and published counters. The degenerate cases
// are a whole uncancelled pass before the measured one (a fully warm
// cache) and a cancellation at every turn in succession on one trace.
func TestShardedReplayEveryCut(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 6_000
	cfg := Config{
		BranchSlots: 2,
		LoadSlots:   2,
		ICaches:     shardLadder(),
		DCaches:     shardLadder(),
		Quantum:     700, // small quantum: a dense set of turn boundaries
	}
	want := runPass(t, cfg, ws, insts, nil)

	// replayTo runs cfg from tr until the cut-th turn boundary; a cut at
	// or past the end of the schedule completes the pass.
	replayTo := func(t *testing.T, tr *trace.EventTrace, cut int) (int, error) {
		t.Helper()
		sim, err := New(cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &cutContext{Context: context.Background(), cut: cut}
		_, err = sim.ReplayContext(ctx, insts, tr)
		return ctx.polls, err
	}

	counter := captureTrace(t, ws, insts, 2)
	last, err := replayTo(t, counter, -1)
	counter.Release()
	if err != nil {
		t.Fatal(err)
	}
	if last < 4 {
		t.Fatalf("schedule too short to exercise cuts: %d turns", last)
	}

	check := func(t *testing.T, cuts []int) {
		t.Helper()
		tr := captureTrace(t, ws, insts, 2)
		defer tr.Release()
		for _, c := range cuts {
			_, err := replayTo(t, tr, c)
			if c < last && !errors.Is(err, context.Canceled) {
				t.Fatalf("replay cut after %d of %d turns: err = %v, want context.Canceled", c, last, err)
			}
			if c >= last && err != nil {
				t.Fatalf("uncut replay: %v", err)
			}
		}
		diffOutcome(t, fmt.Sprintf("after cuts %v", cuts), runPass(t, cfg, ws, insts, tr), want)
	}

	for c := 1; c < last; c++ {
		t.Run(fmt.Sprintf("cut-%d-of-%d", c, last), func(t *testing.T) {
			check(t, []int{c})
		})
	}
	t.Run("degenerate-one-shard", func(t *testing.T) {
		check(t, []int{last})
	})
	t.Run("degenerate-shard-per-turn", func(t *testing.T) {
		cuts := make([]int, 0, last)
		for c := 0; c < last; c++ {
			cuts = append(cuts, c)
		}
		check(t, cuts)
	})
}

// TestShardedReplayWorkers pins capture parallelism: a trace recorded at
// any worker count {1, 2, 3, 8, 64} — counts beyond the workload count
// clamp to one goroutine per benchmark — replays bit-identically to a
// live run.
func TestShardedReplayWorkers(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 12_000
	cfgs := map[string]Config{
		"ladder": {BranchSlots: 2, LoadSlots: 1,
			ICaches: shardLadder(), DCaches: shardLadder(), Quantum: 1_000},
		"single-config": {BranchSlots: 1,
			ICaches: []cache.Config{icfg()}, DCaches: []cache.Config{icfg()}, Quantum: 1_000},
		"icache-only": {BranchSlots: 2,
			ICaches: shardLadder(), Quantum: 1_000},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			want := runPass(t, cfg, ws, insts, nil)
			for _, workers := range []int{1, 2, 3, 8, 64} {
				tr := captureTrace(t, ws, insts, workers)
				diffOutcome(t, fmt.Sprintf("workers=%d", workers), runPass(t, cfg, ws, insts, tr), want)
				tr.Release()
			}
		})
	}
}

// TestShardedReplayGateFallback: configurations outside the fast gates —
// a set-associative bank, which cannot lane-pack, and the BTB scheme,
// which has no CTI table and so no compiled chunk plans — replay through
// the general kernels and the event-at-a-time column loop, and must
// still match a live run.
func TestShardedReplayGateFallback(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 8_000
	assoc := cache.Config{SizeKW: 2, BlockWords: 4, Assoc: 2, WriteBack: true}
	cfgs := map[string]Config{
		"set-associative": {BranchSlots: 1,
			ICaches: []cache.Config{icfg(), assoc}, DCaches: []cache.Config{icfg()}, Quantum: 2_000},
		"btb": {BranchScheme: BranchBTB,
			ICaches: []cache.Config{icfg()}, DCaches: []cache.Config{icfg()}, Quantum: 2_000},
	}
	tr := captureTrace(t, ws, insts, 2)
	defer tr.Release()

	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			sim, err := New(cfg, ws)
			if err != nil {
				t.Fatal(err)
			}
			if sim.ibank.AllPacked() && sim.benches[0].ctis != nil {
				t.Fatal("configuration unexpectedly inside both fast gates")
			}
			diffOutcome(t, name, runPass(t, cfg, ws, insts, tr), runPass(t, cfg, ws, insts, nil))
		})
	}
}

// TestShardedReplaySingleBench: a lone workload replays as one
// whole-stream turn, while the live pass runs it in per-quantum turns;
// the two must still agree bit for bit.
func TestShardedReplaySingleBench(t *testing.T) {
	ws := replayWorkloads(t)[:1]
	const insts = 10_000
	cfg := Config{BranchSlots: 2, LoadSlots: 2,
		ICaches: shardLadder(), DCaches: shardLadder(), Quantum: 900}
	tr := captureTrace(t, ws, insts, 4)
	defer tr.Release()
	diffOutcome(t, "single bench", runPass(t, cfg, ws, insts, tr), runPass(t, cfg, ws, insts, nil))
}
