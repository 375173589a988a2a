package cpisim

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"pipecache/internal/cache"
	"pipecache/internal/interp"
	"pipecache/internal/stats"
	"pipecache/internal/trace"
)

// The sharded replay tier: one replay pass cut across workers, merged
// back bit-identically.
//
// A replay pass is a deterministic sequence of multiprogramming turns;
// every turn boundary is a block boundary of one benchmark's stream with
// every other benchmark parked on one too, so cutting the pass at turn
// boundaries splits it into segments whose event sequences concatenate
// to the sequential pass exactly. Per-benchmark counters are additive
// over segments, and the only cross-segment state is (a) each
// benchmark's pending delay-slot skip — a pure function of the event
// before the cut (PrevEvent) — and (b) the cache bank contents, which
// boundary-mode banks defer: each shard probes a cold bank that logs its
// first touches, and ShardChain resolves the logs against the carried
// state in shard order, attributing every late-resolved miss to the
// benchmark that probed (the probe tag). The merged counters and bank
// state are bit-identical to ReplayContext at any shard count and any
// GOMAXPROCS.
//
// Phases: walk (sequential, cheap — advance cursors through the turn
// schedule against a discarding sink and snapshot the cut states), shard
// (parallel — each worker replays its turn range on a boundary-bank
// clone), merge (sequential — absorb shard banks onto the carried banks
// in stream order and fold the per-benchmark counters).

// shardBoundary is one legal cut of the replay schedule: the full
// re-interleaving state at a turn boundary.
type shardBoundary struct {
	cursors   []trace.Cursor
	remaining []int64
	schedI    int   // next bench index in the round-robin sweep
	active    int   // benches with budget left
	skips     []int // per-bench pending delay-slot skip
	turns     int   // turns completed before this boundary
	insts     int64 // cumulative instructions replayed before this boundary
}

// discardSink consumes events without effect; the schedule walker uses
// it to advance cursors through the exact turn sequence of a pass.
type discardSink struct{}

func (discardSink) Events([]interp.Event)                    {}
func (discardSink) EventColumns([]uint8, []uint32, []uint32) {}

// pendingSkip reconstructs a benchmark's delay-slot state at a turn
// boundary from the stream alone: a pending skip exists exactly when the
// event before the cut is a taken CTI whose static prediction was taken,
// and its value is that CTI's precomputed handoff (zero for indirect
// jumps, which never replicate target instructions).
func pendingSkip(c *trace.Cursor, metas []blockMeta) int {
	kind, a, _, ok := c.PrevEvent()
	if !ok || interp.EventKind(kind) != interp.EvCTITaken {
		return 0
	}
	m := &metas[a]
	if !m.predTaken {
		return 0
	}
	return int(m.skip)
}

// shardableReplay reports whether this configuration can replay sharded:
// compiled chunk plans must cover it (static scheme, no BTB, no L2,
// compact block tables) and every bank must be lane-packed
// (direct-mapped), the shape boundary mode supports.
func (s *Sim) shardableReplay() bool {
	if !s.plannable() {
		return false
	}
	for _, b := range s.benches {
		if b.ctis == nil {
			return false
		}
	}
	if s.ibank != nil && !s.ibank.AllPacked() {
		return false
	}
	if s.dbank != nil && !s.dbank.AllPacked() {
		return false
	}
	return true
}

// walkSchedule advances cursors through the pass's turn sequence against
// a discarding sink and returns every turn boundary, start and final
// state included. The sequence is ReplayContext's with the lone-workload
// whole-stream shortcut disabled: a single workload's turns concatenate
// into the same event sequence at any quantum, so per-quantum turns cut
// legally there too.
func (s *Sim) walkSchedule(instsPerBench int64, tr *trace.EventTrace) ([]shardBoundary, error) {
	n := len(s.benches)
	cursors := make([]trace.Cursor, n)
	for i := range cursors {
		cursors[i] = tr.Cursor(i)
	}
	remaining := make([]int64, n)
	for i := range remaining {
		remaining[i] = instsPerBench
	}
	active := n
	var total int64
	turns := 0
	var bounds []shardBoundary
	snap := func(schedI int) shardBoundary {
		b := shardBoundary{
			cursors:   append([]trace.Cursor(nil), cursors...),
			remaining: append([]int64(nil), remaining...),
			schedI:    schedI,
			active:    active,
			skips:     make([]int, n),
			turns:     turns,
			insts:     total,
		}
		for i := range b.skips {
			b.skips[i] = pendingSkip(&cursors[i], s.benches[i].ctis)
		}
		return b
	}
	bounds = append(bounds, snap(0))
	for active > 0 {
		for i := 0; i < n; i++ {
			if remaining[i] <= 0 {
				continue
			}
			q := s.cfg.Quantum
			if q > remaining[i] {
				q = remaining[i]
			}
			ran := cursors[i].Turn(q, nil, discardSink{})
			if ran == 0 {
				return nil, fmt.Errorf("cpisim: trace %q exhausted for %s with %d instructions remaining",
					tr.Key(), s.benches[i].prog.Name, remaining[i])
			}
			remaining[i] -= ran
			if remaining[i] <= 0 {
				active--
			}
			total += ran
			turns++
			bounds = append(bounds, snap(i+1))
		}
	}
	return bounds, nil
}

// shardSim builds a replay clone of s with cold boundary-mode banks: it
// shares the immutable per-workload tables (translation, block metas)
// and carries its own counters, sinks, and banks. No interpreters — the
// clone only ever replays.
func (s *Sim) shardSim() (*Sim, error) {
	sh := &Sim{cfg: s.cfg}
	var err error
	if s.ibank != nil {
		if sh.ibank, err = cache.NewBoundaryBank(s.cfg.ICaches); err != nil {
			return nil, err
		}
	}
	if s.dbank != nil {
		if sh.dbank, err = cache.NewBoundaryBank(s.cfg.DCaches); err != nil {
			if sh.ibank != nil {
				sh.ibank.Release()
			}
			return nil, err
		}
	}
	for _, b := range s.benches {
		bs := &benchState{prog: b.prog, seed: b.seed, xlat: b.xlat, slots: b.slots, prof: b.prof, ctis: b.ctis}
		bs.sink = &benchSink{s: sh, b: bs}
		bs.res.Name = b.res.Name
		bs.res.Weight = b.res.Weight
		bs.res.IMisses = make([]int64, len(s.cfg.ICaches))
		bs.res.DReadMisses = make([]int64, len(s.cfg.DCaches))
		bs.res.DWriteMisses = make([]int64, len(s.cfg.DCaches))
		bs.res.Eps = stats.NewHist(epsBins)
		bs.res.EpsBlock = stats.NewHist(epsBins)
		sh.benches = append(sh.benches, bs)
	}
	return sh, nil
}

// runShard replays the turns in [from, to) on a shard clone, starting
// from the cut state. Every probe is tagged with the benchmark index of
// the turn it belongs to, so late-resolved misses attribute correctly
// at merge time.
func (sh *Sim) runShard(ctx context.Context, tr *trace.EventTrace, from, to *shardBoundary) error {
	sh.replayAux = tr.Aux()
	defer func() { sh.replayAux = nil }()
	n := len(sh.benches)
	cursors := append([]trace.Cursor(nil), from.cursors...)
	remaining := append([]int64(nil), from.remaining...)
	active := from.active
	for i, b := range sh.benches {
		b.skip = from.skips[i]
	}
	target := to.insts - from.insts
	var done int64
	i := from.schedI
	for done < target {
		if err := ctx.Err(); err != nil {
			return err
		}
		if active == 0 {
			return fmt.Errorf("cpisim: shard schedule underran its boundary")
		}
		if i == n {
			i = 0
		}
		if remaining[i] <= 0 {
			i++
			continue
		}
		q := sh.cfg.Quantum
		if q > remaining[i] {
			q = remaining[i]
		}
		if sh.ibank != nil {
			sh.ibank.SetProbeTag(uint32(i))
		}
		if sh.dbank != nil {
			sh.dbank.SetProbeTag(uint32(i))
		}
		ran := cursors[i].Turn(q, nil, sh.benches[i].sink)
		if ran == 0 {
			return fmt.Errorf("cpisim: trace %q exhausted for %s with %d instructions remaining",
				tr.Key(), sh.benches[i].prog.Name, remaining[i])
		}
		remaining[i] -= ran
		if remaining[i] <= 0 {
			active--
		}
		done += ran
		i++
	}
	if done != target {
		return fmt.Errorf("cpisim: shard overran its boundary by %d instructions", done-target)
	}
	return nil
}

// mergeBenchResult folds one shard's per-benchmark counters into dst.
// Every BenchResult field live under the sharded gate (static scheme, no
// BTB, no L2) is additive over stream segments; the histograms merge
// bin-wise (bin counts always match — both sides are built at epsBins).
func mergeBenchResult(dst, src *BenchResult) {
	dst.Insts += src.Insts
	dst.CTIs += src.CTIs
	dst.BranchStall += src.BranchStall
	dst.FillStall += src.FillStall
	dst.PredTaken += src.PredTaken
	dst.PredTakenRight += src.PredTakenRight
	dst.PredNotTaken += src.PredNotTaken
	dst.PredNotTakenRight += src.PredNotTakenRight
	dst.Loads += src.Loads
	dst.LoadUses += src.LoadUses
	dst.LoadStall += src.LoadStall
	dst.Eps.Merge(src.Eps)
	dst.EpsBlock.Merge(src.EpsBlock)
	dst.IFetches += src.IFetches
	dst.DReads += src.DReads
	dst.DWrites += src.DWrites
	for i := range dst.IMisses {
		dst.IMisses[i] += src.IMisses[i]
	}
	for i := range dst.DReadMisses {
		dst.DReadMisses[i] += src.DReadMisses[i]
	}
	for i := range dst.DWriteMisses {
		dst.DWriteMisses[i] += src.DWriteMisses[i]
	}
}

// replayShardedAt executes the sharded pass over explicit cut points:
// cuts indexes bounds, strictly increasing, starting at the first
// boundary and ending at the last. Split out from ReplayShardedContext
// so tests can pin bit-identity at every legal cut, degenerate ones
// included.
func (s *Sim) replayShardedAt(ctx context.Context, tr *trace.EventTrace, bounds []shardBoundary, cuts []int) (*Result, error) {
	nsh := len(cuts) - 1
	shards := make([]*Sim, nsh)
	for k := range shards {
		sh, err := s.shardSim()
		if err != nil {
			for _, p := range shards[:k] {
				p.Release()
			}
			return nil, err
		}
		shards[k] = sh
	}
	release := func() {
		for _, sh := range shards {
			sh.Release()
		}
	}

	// Phase A: replay every shard's turn range independently.
	errs := make([]error, nsh)
	var wg sync.WaitGroup
	for k := 0; k < nsh; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = shards[k].runShard(ctx, tr, &bounds[cuts[k]], &bounds[cuts[k+1]])
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			release()
			return nil, err
		}
	}

	// Phase B: absorb shard banks onto the carried banks in stream order,
	// attributing late-resolved misses by probe tag, and fold the
	// per-benchmark counters.
	var ic, dc *cache.ShardChain
	var err error
	if s.ibank != nil {
		ic, err = cache.NewShardChain(s.ibank, func(tag uint32, ci int, write bool) {
			s.benches[tag].res.IMisses[ci]++
		})
		if err != nil {
			release()
			return nil, err
		}
		defer ic.Release()
	}
	if s.dbank != nil {
		dc, err = cache.NewShardChain(s.dbank, func(tag uint32, ci int, write bool) {
			b := s.benches[tag]
			if write {
				b.res.DWriteMisses[ci]++
			} else {
				b.res.DReadMisses[ci]++
			}
		})
		if err != nil {
			release()
			return nil, err
		}
		defer dc.Release()
	}
	for _, sh := range shards {
		if ic != nil {
			if err := ic.Absorb(sh.ibank); err != nil {
				release()
				return nil, err
			}
		}
		if dc != nil {
			if err := dc.Absorb(sh.dbank); err != nil {
				release()
				return nil, err
			}
		}
		for i, b := range s.benches {
			mergeBenchResult(&b.res, &sh.benches[i].res)
		}
		sh.Release()
	}
	for i, b := range s.benches {
		b.skip = bounds[len(bounds)-1].skips[i]
	}

	res := &Result{Config: s.cfg}
	for _, b := range s.benches {
		res.Benches = append(res.Benches, b.res)
	}
	s.publish(res)
	return res, nil
}

// pickCuts selects up to workers shard ranges from the walked boundary
// list: the turn boundary nearest each k/workers fraction of the total
// instruction count, deduplicated (a short schedule yields fewer shards
// than workers).
func pickCuts(bounds []shardBoundary, workers int) []int {
	last := len(bounds) - 1
	total := bounds[last].insts
	cuts := []int{0}
	for k := 1; k < workers; k++ {
		target := total * int64(k) / int64(workers)
		j := sort.Search(len(bounds), func(j int) bool { return bounds[j].insts >= target })
		if j >= last {
			break
		}
		if j > cuts[len(cuts)-1] {
			cuts = append(cuts, j)
		}
	}
	return append(cuts, last)
}

// ReplaySharded is ReplayShardedContext without cancellation.
func (s *Sim) ReplaySharded(instsPerBench int64, tr *trace.EventTrace, workers int) (*Result, error) {
	return s.ReplayShardedContext(context.Background(), instsPerBench, tr, workers)
}

// ReplayShardedContext is ReplayContext cut across workers: the pass's
// turn schedule is split into up to workers contiguous segments, each
// segment replays concurrently against boundary-mode bank clones, and
// the segments merge back in stream order. The Result, the carried bank
// statistics, and the published counters are bit-identical to
// ReplayContext at any worker count and any GOMAXPROCS.
//
// Configurations outside the sharded gate — a non-static branch scheme,
// a BTB, a second level, or a set-associative configuration in either
// bank — and worker counts below two fall back to the sequential
// ReplayContext transparently. Error semantics match ReplayContext: a
// validation or exhaustion error leaves the simulator in an undefined
// intermediate state.
func (s *Sim) ReplayShardedContext(ctx context.Context, instsPerBench int64, tr *trace.EventTrace, workers int) (*Result, error) {
	if workers <= 1 || !s.shardableReplay() {
		return s.ReplayContext(ctx, instsPerBench, tr)
	}
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
	bounds, err := s.walkSchedule(instsPerBench, tr)
	if err != nil {
		return nil, err
	}
	cuts := pickCuts(bounds, workers)
	if len(cuts) < 3 {
		// One shard would just be the sequential pass with extra steps.
		return s.ReplayContext(ctx, instsPerBench, tr)
	}
	return s.replayShardedAt(ctx, tr, bounds, cuts)
}
