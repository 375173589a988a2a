package cpisim

import (
	"reflect"
	"strings"
	"testing"

	"pipecache/internal/cache"
)

// policyLadder is a small mixed ladder under one replacement policy.
func policyLadder(pol cache.Policy) []cache.Config {
	return []cache.Config{
		{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: true, Policy: pol},
		{SizeKW: 2, BlockWords: 4, Assoc: 2, WriteBack: true, Policy: pol},
		{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: false, Policy: pol},
	}
}

// TestReplayAfterReleaseRejected is the plan-lifetime regression: compiled
// replay plans key on column slices whose backing chunks recycle to the
// mempool at the trace's final Release, so replaying a released trace
// must fail cleanly instead of delivering plans against recycled memory.
func TestReplayAfterReleaseRejected(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 8_000
	cfg := Config{ICaches: []cache.Config{icfg()}, DCaches: []cache.Config{icfg()}, Quantum: 2_000}
	tr := captureTrace(t, ws, insts, 1)

	// A live trace replays fine (and compiles plans onto its Aux cache).
	sim, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Replay(insts, tr); err != nil {
		t.Fatal(err)
	}

	// An extra Retain/Release pair keeps it live: replay must still work.
	tr.Retain()
	tr.Release()
	sim2, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim2.Replay(insts, tr); err != nil {
		t.Fatalf("replay of a retained trace failed: %v", err)
	}

	// The final Release recycles the chunks; replay must reject the dead
	// trace before touching them.
	tr.Release()
	if tr.Refs() != 0 {
		t.Fatalf("refs = %d after final release", tr.Refs())
	}
	fresh, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fresh.Replay(insts, tr)
	if err == nil {
		t.Fatal("replay accepted a released trace")
	}
	if !strings.Contains(err.Error(), "released") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// TestReplayPolicyConfigs holds FIFO and Tree-PLRU ladders — which never
// lane-pack and so run on the general bank kernels — to the live oracle:
// the replayed Result and every configuration's bank statistics must be
// bit-identical to a live pass.
func TestReplayPolicyConfigs(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 8_000
	tr := captureTrace(t, ws, insts, 2)
	defer tr.Release()

	for _, pol := range []cache.Policy{cache.PolicyFIFO, cache.PolicyTreePLRU} {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{BranchSlots: 2, LoadSlots: 1,
				ICaches: policyLadder(pol), DCaches: policyLadder(pol), Quantum: 1_000}
			drive := func(replay bool) (*Result, []cache.Stats, []cache.Stats) {
				sim, err := New(cfg, ws)
				if err != nil {
					t.Fatal(err)
				}
				var res *Result
				if replay {
					res, err = sim.Replay(insts, tr)
				} else {
					res, err = sim.Run(insts)
				}
				if err != nil {
					t.Fatal(err)
				}
				return res, bankStats(sim.ibank, len(cfg.ICaches)), bankStats(sim.dbank, len(cfg.DCaches))
			}
			live, liveI, liveD := drive(false)
			got, gotI, gotD := drive(true)
			if !reflect.DeepEqual(got, live) {
				t.Errorf("%v replay result differs from live", pol)
			}
			if !reflect.DeepEqual(gotI, liveI) || !reflect.DeepEqual(gotD, liveD) {
				t.Errorf("%v replay bank stats differ from live", pol)
			}
		})
	}
}
