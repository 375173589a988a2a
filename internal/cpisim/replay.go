package cpisim

import (
	"context"
	"fmt"

	"pipecache/internal/trace"
)

// The replay tier. A pass's event streams are a pure function of (program,
// seed, budget) — see the stream invariance contract in internal/interp —
// while every architectural knob (branch scheme and slots, load scheme,
// cache banks, profiles, even the multiprogramming quantum) is applied by
// benchSink on the way down. trace.Record captures the streams once, each
// benchmark on its own goroutine; ReplayContext then drives benchSink
// straight from the stored columns for any configuration, with no
// interpreter decode, and produces Results and published obs counters
// bit-identical to a live RunContext.

// checkTraceLive rejects a nil or fully released trace before any of its
// chunks are touched. Compiled chunk plans (plan.go) key on column slices
// whose backing chunks recycle to the pool at the last Release; replaying
// a dead trace would deliver plans — and raw columns — against memory the
// pool may already have handed to someone else, a silent use-after-release.
// The refcount makes that a clean error instead.
func checkTraceLive(tr *trace.EventTrace) error {
	if tr == nil {
		return fmt.Errorf("cpisim: nil trace")
	}
	if tr.Refs() <= 0 {
		return fmt.Errorf("cpisim: trace %q already released (refs=%d); its chunks may be recycled", tr.Key(), tr.Refs())
	}
	return nil
}

// Replay is ReplayContext without cancellation.
func (s *Sim) Replay(instsPerBench int64, tr *trace.EventTrace) (*Result, error) {
	return s.ReplayContext(context.Background(), instsPerBench, tr)
}

// ReplayContext runs the pass from a captured event trace instead of the
// interpreters: per-benchmark cursors re-interleave the stored streams
// round-robin at this simulator's quantum, delivering whole blocks until
// each turn's target is met — exactly the rule interp.RunEvents applies —
// so the sequence of state transitions, the Result, and the published
// counters are bit-identical to a live run of the same configuration.
//
// The trace must have been captured over the same workloads (names and
// seeds, in order) at the same per-benchmark budget; the quantum and every
// architectural knob may differ from the capturing pass. A validation or
// exhaustion error leaves the simulator in an undefined intermediate
// state; build a fresh Sim to fall back to live interpretation.
func (s *Sim) ReplayContext(ctx context.Context, instsPerBench int64, tr *trace.EventTrace) (*Result, error) {
	if instsPerBench <= 0 {
		return nil, fmt.Errorf("cpisim: non-positive instruction budget")
	}
	if err := checkTraceLive(tr); err != nil {
		return nil, err
	}
	names := make([]string, len(s.benches))
	seeds := make([]uint64, len(s.benches))
	for i, b := range s.benches {
		names[i] = b.prog.Name
		seeds[i] = b.seed
	}
	if err := tr.Validate(instsPerBench, names, seeds); err != nil {
		return nil, err
	}
	cursors := make([]trace.Cursor, len(s.benches))
	for i := range cursors {
		cursors[i] = tr.Cursor(i)
	}
	// Expose the trace's plan cache to the column dispatch for the
	// duration of the pass (plan.go); cleared on success so the simulator
	// does not pin a released trace's memory.
	s.replayAux = tr.Aux()
	defer func() { s.replayAux = nil }()
	remaining := make([]int64, len(s.benches))
	for i := range remaining {
		remaining[i] = instsPerBench
	}
	active := len(s.benches)
	for active > 0 {
		for i, b := range s.benches {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if remaining[i] <= 0 {
				continue
			}
			q := s.cfg.Quantum
			if len(s.benches) == 1 {
				// A single workload has no interleaving: its turns
				// concatenate into the same event sequence whatever the
				// quantum, so one whole-stream turn replaces the per-quantum
				// loop and lets Turn deliver whole chunks wholesale.
				q = remaining[i]
			} else if q > remaining[i] {
				q = remaining[i]
			}
			ran := cursors[i].Turn(q, s.evbuf, b.sink)
			if ran == 0 {
				return nil, fmt.Errorf("cpisim: trace %q exhausted for %s with %d instructions remaining",
					tr.Key(), b.prog.Name, remaining[i])
			}
			remaining[i] -= ran
			if remaining[i] <= 0 {
				active--
			}
		}
	}
	res := &Result{Config: s.cfg}
	for _, b := range s.benches {
		res.Benches = append(res.Benches, b.res)
	}
	s.publish(res)
	return res, nil
}
