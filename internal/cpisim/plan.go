package cpisim

import (
	"sync"

	"pipecache/internal/interp"
	"pipecache/internal/program"
	"pipecache/internal/sched"
	"pipecache/internal/stats"
)

// The compiled-chunk replay tier. A trace chunk is immutable and replayed
// many times (a design-space sweep replays one capture at every ladder
// configuration), yet the event-at-a-time dispatch re-decodes the same
// columns on every pass. Under the fast-path conditions (static branch
// scheme, no BTB, no L2) everything except the cache probes is a pure
// function of (chunk columns, translation): the instruction, fetch, CTI,
// and prediction counters, the epsilon histograms, and the delay-slot
// skip carried out of the chunk. buildChunkPlan evaluates that function
// once and stores the residue — pre-summed counter deltas, pre-binned
// histograms, and flat probe streams (I-fetch ranges, D references) —
// keyed on the trace's Aux cache. Every later delivery of the same
// columns collapses to a dozen counter additions, two histogram merges,
// and two tight probe loops: the replay kernel streams probe addresses
// instead of interpreting events.
//
// Correctness hinges on the key. The plan is keyed by the column slice
// identity (base pointer and length — turns may deliver partial chunks,
// and a prefix is a different slice), by the translation identity
// (program, slot count, profile), and by the delay-slot skip carried
// into the delivery (a different quantum interleaves differently, so the
// same columns may arrive with a different pending skip; the skip is
// bounded by the slot budget, so the key space stays small).
// Configuration knobs the plan must NOT bake in are applied at delivery
// time instead: cache geometry through the probe loops, and the
// load-stall policy by weighting the stored epsilon histogram (stall =
// sum over hidden < l of (l - hidden) * count, exactly the per-event
// accumulation reordered).
type chunkPlan struct {
	insts       int64
	ifetches    int64
	branchStall int64
	ctis        int64
	predT       int64
	predTR      int64
	predNT      int64
	predNTR     int64
	dreads      int64
	dwrites     int64
	loadUses    int64

	eps      *stats.Hist
	epsBlock *stats.Hist

	// fetches is the resolved I-fetch stream: uint64(addr)<<16 | words.
	// Skip consumption, noop padding, and mispredict squash fetches are
	// already folded in, so applying the stream is pure probing.
	fetches []uint64
	// drefs is the D-reference stream: uint64(addr)<<1 | isStore.
	drefs []uint64

	skipOut int32 // delay-slot skip carried to the next delivery
}

// planKey identifies one compiled chunk: the exact column slice
// delivered, the translation it was decoded against, and the delay-slot
// skip carried into it.
type planKey struct {
	col    *uint8 // base of the delivered kind column
	n      int    // events in the delivery (a prefix is a distinct slice)
	prog   *program.Program
	slots  int
	prof   *sched.Profile
	skipIn int
}

// loadStall evaluates the configured load-delay policy against the
// plan's epsilon histograms: identical to summing the per-event stalls,
// reassociated into one pass over the first l bins.
func (p *chunkPlan) loadStall(l int, dynamic bool) int64 {
	if l == 0 {
		return 0
	}
	h := p.epsBlock
	if dynamic {
		h = p.eps
	}
	var stall int64
	for v := 0; v < l; v++ {
		stall += int64(l-v) * int64(h.Count(v))
	}
	return stall
}

// buildChunkPlan decodes one delivered column slice against the block
// table, starting from the carried delay-slot skip. The arithmetic is the
// generic per-event handlers', reordered into plan form.
//
// The probe streams are allocated once, at their final size: a counting
// pass bounds the fetch stream (one range per block, plus one per taken
// CTI with a squash fetch; only a block the carried skip swallows whole
// adds nothing) and sizes the D-reference stream exactly. Plans stay
// resident for the trace's life, so append's doubling slack would be held
// by every plan of every pass.
func buildChunkPlan(metas []blockMeta, kinds []uint8, as, bvals []uint32, skipIn int) *chunkPlan {
	as = as[:len(kinds)]
	bvals = bvals[:len(kinds)]
	var nFetch, nMem int
	for i, k := range kinds {
		switch interp.EventKind(k) {
		case interp.EvBlock:
			nFetch++
		case interp.EvMemLoad, interp.EvMemStore:
			nMem++
		case interp.EvCTITaken:
			if m := &metas[as[i]]; !m.predTaken && m.squashN > 0 {
				nFetch++
			}
		}
	}
	p := &chunkPlan{
		eps:      stats.NewHist(epsBins),
		epsBlock: stats.NewHist(epsBins),
		fetches:  make([]uint64, 0, nFetch),
		drefs:    make([]uint64, 0, nMem),
	}
	skip := skipIn
	for i := range kinds {
		switch interp.EventKind(kinds[i]) {
		case interp.EvBlock:
			x := &metas[as[i]]
			addr := x.newAddr
			n := int(x.newLen)
			if skip != 0 {
				if pad := skip - n; pad > 0 {
					p.branchStall += int64(pad)
				}
				if skip >= n {
					n = 0
				} else {
					addr += uint32(skip)
					n -= skip
				}
				skip = 0
			}
			p.ifetches += int64(n)
			if n > 0 {
				p.fetches = append(p.fetches, uint64(addr)<<16|uint64(n))
			}
			p.insts += int64(bvals[i])
		case interp.EvLoadUse:
			p.loadUses++
			p.eps.Add(int(as[i]))
			p.epsBlock.Add(int(bvals[i]))
		case interp.EvMemLoad:
			p.dreads++
			p.drefs = append(p.drefs, uint64(as[i])<<1)
		case interp.EvMemStore:
			p.dwrites++
			p.drefs = append(p.drefs, uint64(as[i])<<1|1)
		case interp.EvCTITaken:
			m := &metas[as[i]]
			p.ctis++
			if m.predTaken {
				p.predT++
				p.predTR++
				p.branchStall += int64(m.wastedTaken)
				skip = int(m.skip)
			} else {
				p.predNT++
				p.branchStall += int64(m.wastedTaken)
				if m.squashN > 0 {
					// The squashed slots were fetched from the fall-through
					// block before control transferred.
					p.ifetches += int64(m.squashN)
					p.fetches = append(p.fetches, uint64(m.squashAddr)<<16|uint64(m.squashN))
				}
			}
		case interp.EvCTINotTaken:
			m := &metas[as[i]]
			p.ctis++
			if m.predTaken {
				p.predT++
			} else {
				p.predNT++
				p.predNTR++
			}
			p.branchStall += int64(m.wastedNT)
		}
	}
	p.skipOut = int32(skip)
	return p
}

// planFor returns the compiled plan for a delivered column slice,
// building and caching it on first sight. LoadOrStore keeps one
// canonical instance when concurrent replays (the passes of a sweep share
// the trace's cache) compile the same chunk at once; the build is a pure
// function of the key, so either instance is identical.
func (h *benchSink) planFor(aux *sync.Map, kinds []uint8, as, bvals []uint32) *chunkPlan {
	b := h.b
	key := planKey{col: &kinds[0], n: len(kinds), prog: b.prog, slots: b.slots, prof: b.prof, skipIn: b.skip}
	if v, ok := aux.Load(key); ok {
		return v.(*chunkPlan)
	}
	p := buildChunkPlan(b.ctis, kinds, as, bvals, b.skip)
	v, _ := aux.LoadOrStore(key, p)
	return v.(*chunkPlan)
}

// applyPlan books one compiled chunk: counter additions, histogram
// merges, the load-stall weighting, and the two probe streams, through
// the single-configuration views when every bank has one and through
// the full bank kernels otherwise.
func (h *benchSink) applyPlan(p *chunkPlan) {
	b := h.b
	res := &b.res
	res.Insts += p.insts
	res.IFetches += p.ifetches
	res.BranchStall += p.branchStall
	res.CTIs += p.ctis
	res.PredTaken += p.predT
	res.PredTakenRight += p.predTR
	res.PredNotTaken += p.predNT
	res.PredNotTakenRight += p.predNTR
	res.DReads += p.dreads
	res.DWrites += p.dwrites
	res.Loads += p.dreads
	res.LoadUses += p.loadUses
	res.Eps.Merge(p.eps)
	res.EpsBlock.Merge(p.epsBlock)
	res.LoadStall += p.loadStall(h.s.cfg.LoadSlots, h.s.cfg.LoadScheme == LoadDynamic)
	b.skip = int(p.skipOut)

	if h.s.direct {
		h.probePlanDirect(p)
	} else {
		h.probePlanBanks(p)
	}
}

// probePlanDirect streams the plan's probes through the inlined
// single-configuration views.
func (h *benchSink) probePlanDirect(p *chunkPlan) {
	res := &h.b.res
	if ibd := h.s.ibd; ibd != nil {
		// One probe per block touched by the range: a single-configuration
		// probe is exactly one block wide, so the probe split collapses to
		// iterating block numbers (never empty — zero-length ranges are
		// not planned).
		bb := ibd.BlockBits()
		for _, f := range p.fetches {
			addr := uint32(f >> 16)
			last := (addr + uint32(f&0xffff) - 1) >> bb
			for blk := addr >> bb; ; blk++ {
				if !ibd.ReadHitBlock(blk) {
					ibd.ReadMissBlock(blk)
					res.IMisses[0]++
				}
				if blk >= last {
					break
				}
			}
		}
		ibd.AddAccesses(uint64(p.ifetches), 0)
	}
	if dbd := h.s.dbd; dbd != nil {
		for _, r := range p.drefs {
			addr := uint32(r >> 1)
			if r&1 != 0 {
				if !dbd.WriteHit(addr) {
					dbd.WriteMiss(addr)
					res.DWriteMisses[0]++
				}
			} else {
				if !dbd.ReadHit(addr) {
					dbd.ReadMiss(addr)
					res.DReadMisses[0]++
				}
			}
		}
		dbd.AddAccesses(uint64(p.dreads), uint64(p.dwrites))
	}
}

// probePlanBanks streams the plan's probes through the full bank kernels
// (multi-configuration ladders); miss masks book per-configuration
// counters exactly as the per-event path does.
func (h *benchSink) probePlanBanks(p *chunkPlan) {
	if ib := h.s.ibank; ib != nil {
		probe := ib.ProbeWords()
		probeM := probe - 1
		for _, f := range p.fetches {
			addr := uint32(f >> 16)
			n := int(f & 0xffff)
			for n > 0 {
				run := int(probe - addr&probeM)
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
	}
	if db := h.s.dbank; db != nil {
		for _, r := range p.drefs {
			addr := uint32(r >> 1)
			isStore := r&1 != 0
			if miss := db.Access(addr, isStore); miss != 0 {
				h.dMisses(addr, miss, isStore)
			}
		}
	}
}
