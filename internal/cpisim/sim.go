package cpisim

import (
	"context"
	"fmt"
	"math/bits"
	"sync"

	"pipecache/internal/btb"
	"pipecache/internal/cache"
	"pipecache/internal/interp"
	"pipecache/internal/obs"
	"pipecache/internal/program"
	"pipecache/internal/sched"
	"pipecache/internal/stats"
)

// Workload is one process of the multiprogrammed mix.
type Workload struct {
	Prog   *program.Program
	Seed   uint64
	Weight float64 // weight in the harmonic-mean CPI

	// Profile optionally supplies branch-bias training data; the static
	// delayed-branch scheme then predicts each conditional branch in its
	// profiled direction instead of by the backward/forward heuristic.
	Profile *sched.Profile
}

// Sim runs a multiprogrammed suite against shared caches (and BTB),
// context-switching between the processes every Quantum instructions, as
// the paper's multiprogramming traces do.
//
// Each cache level is a fused cache.Bank: every candidate configuration
// of the level is evaluated by one probe returning a miss bitmask, rather
// than by a separate Cache probed per configuration. The interpreter
// drives the banks through its compact event stream (interp.RunEvents),
// so the per-event work is a direct switch dispatch instead of interface
// calls.
type Sim struct {
	cfg     Config
	ibank   *cache.Bank // nil when no I-caches are configured
	dbank   *cache.Bank // nil when no D-caches are configured
	l2bank  *cache.Bank // nil when no two-level hierarchy is configured
	btb     *btb.BTB
	benches []*benchState
	evbuf   []interp.Event
	obs     *obs.Registry

	// Call-free single-configuration probe views; non-nil only when the
	// corresponding bank is a single direct-mapped configuration. direct
	// gates the inlined plan probe loop (plan.go): every configured bank
	// must have a view.
	ibd, dbd *cache.Direct
	direct   bool

	// replayAux is the active trace's plan cache (plan.go) while a replay
	// is running; nil during live runs, where no columns arrive anyway.
	replayAux *sync.Map
}

type benchState struct {
	res  BenchResult
	it   *interp.Interp
	prog *program.Program
	seed uint64
	xlat *sched.Translation
	// slots and prof pin the translation's identity (together with prog)
	// for the compiled-chunk plan cache: xlat itself is rebuilt per Sim,
	// but these inputs are stable across simulators over one workload.
	slots int
	prof  *sched.Profile
	sink  *benchSink
	skip  int // delay-slot instructions already executed for the next block

	// ctis is the precomputed static-scheme CTI table the compiled replay
	// plans decode against (fast.go, plan.go); nil when the configuration
	// needs the generic dispatch.
	ctis []blockMeta

	// Deferred BTB resolution: the target address of a taken CTI is the
	// next block's address, which arrives with the next Block event.
	btbPending bool
	btbAddr    uint32
	btbTaken   bool
}

// New builds a simulator for the configured architecture over the given
// workloads. The delay-slot translation is derived here: BranchSlots slots
// for the static scheme, zero slots (the paper's zero-delay translation)
// for the BTB scheme.
func New(cfg Config, ws []Workload) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ws) == 0 {
		return nil, fmt.Errorf("cpisim: no workloads")
	}
	cfg = cfg.withDefaults()
	s := &Sim{cfg: cfg}

	var err error
	if len(cfg.ICaches) > 0 {
		if s.ibank, err = cache.NewBank(cfg.ICaches); err != nil {
			return nil, err
		}
	}
	if len(cfg.DCaches) > 0 {
		if s.dbank, err = cache.NewBank(cfg.DCaches); err != nil {
			return nil, err
		}
	}
	if cfg.BranchScheme == BranchBTB {
		b, err := btb.New(cfg.BTB)
		if err != nil {
			return nil, err
		}
		s.btb = b
	}
	if len(cfg.L2.Caches) > 0 {
		if s.l2bank, err = cache.NewBank(cfg.L2.Caches); err != nil {
			return nil, err
		}
	}
	slots := cfg.BranchSlots
	if cfg.BranchScheme == BranchBTB {
		slots = 0
	}
	for _, w := range ws {
		prof := w.Profile
		if cfg.BranchScheme != BranchStatic {
			prof = nil
		}
		var xlat *sched.Translation
		var err error
		if prof != nil {
			xlat, err = sched.TranslateProfiled(w.Prog, slots, prof)
		} else {
			xlat, err = sched.Translate(w.Prog, slots)
		}
		if err != nil {
			return nil, err
		}
		it, err := interp.New(w.Prog, w.Seed)
		if err != nil {
			return nil, err
		}
		bs := &benchState{it: it, prog: w.Prog, seed: w.Seed, xlat: xlat, slots: slots, prof: prof}
		bs.sink = &benchSink{s: s, b: bs}
		bs.res.Name = w.Prog.Name
		bs.res.Weight = w.Weight
		bs.res.IMisses = make([]int64, len(cfg.ICaches))
		bs.res.DReadMisses = make([]int64, len(cfg.DCaches))
		bs.res.DWriteMisses = make([]int64, len(cfg.DCaches))
		bs.res.Eps = stats.NewHist(epsBins)
		bs.res.EpsBlock = stats.NewHist(epsBins)
		if cfg.L2.Enabled() {
			bs.res.L2 = &L2Result{Misses: make([]int64, len(cfg.L2.Caches))}
		}
		s.benches = append(s.benches, bs)
	}
	if s.plannable() {
		for _, bs := range s.benches {
			if blockMetaFits(bs.xlat) {
				bs.ctis = cachedBlockMeta(bs.prog, bs.xlat, bs.slots, bs.prof)
			}
		}
		if s.ibank != nil {
			s.ibd = s.ibank.Direct()
		}
		if s.dbank != nil {
			s.dbd = s.dbank.Direct()
		}
		s.direct = (s.ibank == nil || s.ibd != nil) && (s.dbank == nil || s.dbd != nil)
	}
	return s, nil
}

// Release returns the simulator's pooled resources (cache bank slabs, CTI
// tables). Optional — the GC reclaims everything anyway — but a sweep
// building thousands of simulators recycles the same slab shapes, keeping
// steady-state passes allocation-free. The simulator must not be used
// after Release.
func (s *Sim) Release() {
	if s.ibank != nil {
		s.ibank.Release()
	}
	if s.dbank != nil {
		s.dbank.Release()
	}
	if s.l2bank != nil {
		s.l2bank.Release()
	}
	// ctis tables are shared through blockMetaCache, not pooled; just drop
	// the references.
	for _, b := range s.benches {
		b.ctis = nil
	}
	if s.ibd != nil {
		s.ibd.Release()
		s.ibd = nil
	}
	if s.dbd != nil {
		s.dbd.Release()
		s.dbd = nil
	}
}

// Run executes instsPerBench useful instructions of every workload,
// round-robin with the configured quantum, and returns the cycle
// decompositions.
func (s *Sim) Run(instsPerBench int64) (*Result, error) {
	return s.RunContext(context.Background(), instsPerBench)
}

// RunContext is Run with cooperative cancellation: the pass polls ctx at
// every quantum boundary (one benchmark's context-switch interval, the
// natural granularity of the multiprogrammed loop) and returns ctx's error
// without a result once it is cancelled. A cancelled pass leaves the
// simulator in an undefined intermediate state; build a fresh Sim to retry.
func (s *Sim) RunContext(ctx context.Context, instsPerBench int64) (*Result, error) {
	if instsPerBench <= 0 {
		return nil, fmt.Errorf("cpisim: non-positive instruction budget")
	}
	if s.evbuf == nil {
		// Allocated on first live run only: replays stream stored columns
		// through the zero-copy path and never touch the buffer.
		s.evbuf = make([]interp.Event, 4096)
	}
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
			if q > remaining[i] {
				q = remaining[i]
			}
			ran := b.it.RunEvents(q, s.evbuf, b.sink)
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

// benchSink decodes one workload's event stream onto the shared simulator
// state. The decode loop dispatches with a switch to concrete methods, so
// the per-event path inlines instead of going through an interface.
type benchSink struct {
	s *Sim
	b *benchState
}

// Events consumes one batch of interpreter events in program order.
func (h *benchSink) Events(evs []interp.Event) {
	for i := range evs {
		ev := evs[i]
		switch ev.Kind {
		case interp.EvBlock:
			h.block(int(ev.A), int64(ev.B))
		case interp.EvLoadUse:
			h.loadUse(int(ev.A), int(ev.B))
		case interp.EvMemLoad:
			h.mem(ev.A, false)
		case interp.EvMemStore:
			h.mem(ev.A, true)
		case interp.EvCTITaken:
			h.cti(int(ev.A), true)
		case interp.EvCTINotTaken:
			h.cti(int(ev.A), false)
		}
	}
}

// EventColumns consumes one batch in columnar form — the zero-copy replay
// path (interp.ColumnSink): trace chunks are stored as parallel
// kind/A/B arrays, and this dispatch reads them in place instead of
// materializing Event records. A replay of a configuration with CTI
// tables (static scheme, no BTB, no L2) books each delivery through the
// chunk's compiled plan (plan.go); every other configuration takes the
// column loop below, whose switch bodies are identical to Events, so live
// and replayed streams drive exactly the same state transitions.
func (h *benchSink) EventColumns(kinds []uint8, as, bs []uint32) {
	if aux := h.s.replayAux; aux != nil && h.b.ctis != nil && len(kinds) > 0 {
		h.applyPlan(h.planFor(aux, kinds, as, bs))
		return
	}
	// Reslicing to the kind column's length lets the compiler drop the
	// per-event bounds checks on the value columns.
	as = as[:len(kinds)]
	bs = bs[:len(kinds)]
	for i := range kinds {
		switch interp.EventKind(kinds[i]) {
		case interp.EvBlock:
			h.block(int(as[i]), int64(bs[i]))
		case interp.EvLoadUse:
			h.loadUse(int(as[i]), int(bs[i]))
		case interp.EvMemLoad:
			h.mem(as[i], false)
		case interp.EvMemStore:
			h.mem(as[i], true)
		case interp.EvCTITaken:
			h.cti(int(as[i]), true)
		case interp.EvCTINotTaken:
			h.cti(int(as[i]), false)
		}
	}
}

// block fetches the translated image of the entered block through the
// I-cache bank, honouring delay-slot skips from a correctly predicted
// taken CTI.
func (h *benchSink) block(id int, nInsts int64) {
	b := h.b
	x := &b.xlat.Blocks[id]

	if b.btbPending {
		h.resolveBTB(x.NewAddr)
	}

	skip := b.skip
	b.skip = 0
	if pad := skip - x.NewLen; pad > 0 {
		// The predicted-taken CTI's delay slots held more replicas than
		// the target block has instructions; the paper pads with noops,
		// which execute and are wasted.
		b.res.BranchStall += int64(pad)
	}
	addr, n := b.xlat.Fetches(id, skip)
	h.fetchRange(addr, n)
	b.res.Insts += nInsts
}

// fetchRange sends n consecutive instruction words through the I-cache
// bank, one grouped probe per minimum-block-sized run: the block number
// is derived once per run rather than once per word per cache size, and
// within a run only the first word can miss (the line it fills stays
// resident), so the grouped probe is bit-identical to per-word probing.
func (h *benchSink) fetchRange(addr uint32, n int) {
	h.b.res.IFetches += int64(n)
	ib := h.s.ibank
	if ib == nil {
		return
	}
	probe := ib.ProbeWords()
	for n > 0 {
		run := int(probe - addr&(probe-1))
		if run > n {
			run = n
		}
		if miss := ib.AccessRange(addr, run); miss != 0 {
			h.iMisses(addr, miss)
		}
		addr += uint32(run)
		n -= run
	}
}

// iMisses books the missing configurations of one I-fetch probe and
// forwards the designated configuration's miss to the L2.
func (h *benchSink) iMisses(addr uint32, miss uint64) {
	for m := miss; m != 0; m &= m - 1 {
		ci := bits.TrailingZeros64(m)
		h.b.res.IMisses[ci]++
		if ci == h.s.cfg.L2.IIndex {
			h.accessL2(addr, false)
		}
	}
}

// accessL2 sends a designated L1 miss through the unified L2 bank.
func (h *benchSink) accessL2(addr uint32, write bool) {
	if h.b.res.L2 == nil {
		return
	}
	h.b.res.L2.Accesses++
	miss := h.s.l2bank.Access(addr, write)
	for m := miss; m != 0; m &= m - 1 {
		h.b.res.L2.Misses[bits.TrailingZeros64(m)]++
	}
}

// mem sends the data reference through the D-cache bank.
func (h *benchSink) mem(addr uint32, isStore bool) {
	b := h.b
	if isStore {
		b.res.DWrites++
	} else {
		b.res.DReads++
		b.res.Loads++
	}
	db := h.s.dbank
	if db == nil {
		return
	}
	miss := db.Access(addr, isStore)
	for m := miss; m != 0; m &= m - 1 {
		ci := bits.TrailingZeros64(m)
		if isStore {
			b.res.DWriteMisses[ci]++
		} else {
			b.res.DReadMisses[ci]++
		}
		if ci == h.s.cfg.L2.DIndex {
			h.accessL2(addr, isStore)
		}
	}
}

// cti applies the branch-handling scheme to the resolved control transfer.
func (h *benchSink) cti(id int, taken bool) {
	b := h.b
	x := &b.xlat.Blocks[id]
	b.res.CTIs++

	// Static prediction bookkeeping (Table 3); valid in both schemes
	// because the prediction flags do not depend on the slot count.
	if x.PredTaken {
		b.res.PredTaken++
		if taken {
			b.res.PredTakenRight++
		}
	} else {
		b.res.PredNotTaken++
		if !taken {
			b.res.PredNotTakenRight++
		}
	}

	switch h.s.cfg.BranchScheme {
	case BranchStatic:
		b.res.BranchStall += int64(b.xlat.WastedSlots(id, taken))
		if !x.PredTaken && taken {
			// Predicted not-taken but taken: the s sequential delay-slot
			// instructions were fetched (and squashed) from the
			// fall-through block before control transferred.
			if ft := b.prog.Block(id).Fallthrough; ft != program.None {
				fx := &b.xlat.Blocks[ft]
				n := x.S
				if n > fx.NewLen {
					n = fx.NewLen
				}
				h.fetchRange(fx.NewAddr, n)
			}
		}
		if x.PredTaken && taken && !x.Indirect {
			b.skip = x.S
		}
	case BranchBTB:
		// Defer resolution until the target address is known (the next
		// Block event).
		b.btbPending = true
		b.btbAddr = x.CTIAddr
		b.btbTaken = taken
	}
}

func (h *benchSink) resolveBTB(nextAddr uint32) {
	b := h.b
	b.btbPending = false
	target := uint32(0)
	if b.btbTaken {
		target = nextAddr
	}
	out := h.s.btb.Resolve(b.btbAddr, b.btbTaken, target)
	b.res.BTBOutcomes[out]++
	if !out.Hidden() {
		b.res.BranchStall += int64(h.s.cfg.BranchSlots)
	}
	if out.FillStall() {
		b.res.FillStall++
	}
}

// loadUse applies the load-delay scheme to one consumed load and records
// the epsilon distributions.
func (h *benchSink) loadUse(eps, epsBlock int) {
	b := h.b
	b.res.LoadUses++
	b.res.Eps.Add(eps)
	b.res.EpsBlock.Add(epsBlock)
	l := h.s.cfg.LoadSlots
	if l == 0 {
		return
	}
	hidden := epsBlock
	if h.s.cfg.LoadScheme == LoadDynamic {
		hidden = eps
	}
	if hidden < l {
		b.res.LoadStall += int64(l - hidden)
	}
}
