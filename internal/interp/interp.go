// Package interp executes synthesized programs and produces the dynamic
// event stream that drives the trace-driven cache and pipeline simulation.
//
// The interpreter walks the control-flow graph, resolves branch outcomes
// from each block's behavioural model, generates concrete data addresses
// from the program's data layout, and measures the dynamic register
// dependency distances around loads (the c and d of Section 3.2) both
// unrestricted (Figure 6) and truncated at basic-block boundaries
// (Figure 7).
//
// Instruction fetch is reported at block granularity; consumers that model
// rescheduled code (delay slots, squashing) translate block entries into
// fetch address streams using the translation tables from the sched
// package, exactly as the paper's translation files were applied to its
// traces.
package interp

import (
	"fmt"

	"pipecache/internal/isa"
	"pipecache/internal/program"
	"pipecache/internal/stats"
)

// EpsCap is the ceiling applied to reported dependency distances; distances
// at least EpsCap behave identically for every pipeline depth under study
// (the paper's histograms top out at ">= 3").
const EpsCap = 64

// Handler receives the dynamic event stream decoded from RunEvents (see
// Run). Methods are called in program order. Implementations must not
// retain the *program.Block pointers past the call.
type Handler interface {
	// Block reports entry into b: the events up to the next Block come
	// from b's instructions.
	Block(b *program.Block)
	// Mem reports one data reference made by an instruction of b.
	Mem(b *program.Block, addr uint32, isStore bool)
	// CTI reports the outcome of b's terminating control transfer.
	// For unconditional transfers taken is true.
	CTI(b *program.Block, taken bool)
	// LoadUse reports the resolved dependency distances of one executed
	// load at the moment of its first use: eps is the unrestricted
	// epsilon = c + d (Figure 6), epsBlock is the same truncated at basic
	// block boundaries (Figure 7). Loads whose values are never consumed
	// are not reported.
	LoadUse(eps, epsBlock int)
}

// Interp executes one program.
type Interp struct {
	prog *program.Program
	rng  *stats.RNG

	cur     int   // current block ID
	icount  int64 // executed instructions
	curProc int
	stack   []frame
	cursors []uint32 // per-region array walk positions

	// meta is the static per-block decode, indexed by block ID, built by
	// the first RunEvents call; insts holds every block's per-instruction
	// decode, block by block.
	meta  []blockMeta
	insts []instMeta

	lastDef [isa.NumRegs]int64
	pending [isa.NumRegs]loadRec
	// nPending counts active records in pending; most instructions execute
	// with none in flight, and the count lets them skip the source-register
	// resolution scan entirely.
	nPending  int
	heapDrift uint32
}

type frame struct {
	returnBlock int
	proc        int
}

type loadRec struct {
	active bool
	at     int64
	c      int // dynamic distance to the address register's definition
	maxC   int // block-restricted ceiling on c
	maxD   int // block-restricted ceiling on d
}

// New returns an interpreter for the program. The seed fixes branch
// outcomes and heap addresses; the same (program, seed) pair always
// produces the same stream.
func New(p *program.Program, seed uint64) (*Interp, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}
	if err := p.ValidateData(); err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}
	it := &Interp{
		prog:    p,
		rng:     stats.NewRNG(seed),
		curProc: p.Entry,
		cur:     p.Procs[p.Entry].Entry,
		cursors: make([]uint32, len(p.Data.Regions)),
	}
	for i := range it.lastDef {
		it.lastDef[i] = -(1 << 40)
	}
	return it, nil
}

// Executed returns the number of instructions executed so far.
func (it *Interp) Executed() int64 { return it.icount }

// Run executes at least n further instructions (stopping at the first block
// boundary at or past the target) and reports events to h. It returns the
// number of instructions executed by this call. Run is RunEvents with the
// stream decoded into Handler calls, so h sees events in batches: after
// the interpreter has executed them, in program order.
func (it *Interp) Run(n int64, h Handler) int64 {
	var cur *program.Block
	return it.RunEvents(n, make([]Event, 0, runBatch), EventSinkFunc(func(evs []Event) {
		for _, e := range evs {
			switch e.Kind {
			case EvBlock:
				cur = it.prog.Blocks[e.A]
				h.Block(cur)
			case EvLoadUse:
				h.LoadUse(int(e.A), int(e.B))
			case EvMemLoad, EvMemStore:
				h.Mem(cur, e.A, e.Kind == EvMemStore)
			case EvCTITaken, EvCTINotTaken:
				h.CTI(it.prog.Blocks[e.A], e.Kind == EvCTITaken)
			}
		}
	}))
}

// runBatch is Run's event batch size: one indirect call per batch is
// already amortized at a few hundred events, and a small buffer keeps
// short runs (suite calibration runs one per candidate program) cheap.
const runBatch = 256

func capEps(e int) int {
	if e > EpsCap {
		return EpsCap
	}
	return e
}

// dataAddr turns a memory instruction's behaviour into a word address.
func (it *Interp) dataAddr(in *program.Inst) uint32 {
	d := &it.prog.Data
	switch in.Mem.Kind {
	case program.MemGP:
		return d.GPBase + uint32(in.Mem.Offset)%d.GPSize
	case program.MemStack:
		fid := uint32(it.prog.Procs[it.curProc].FrameID)
		return d.StackBase + fid*d.FrameSize + uint32(in.Mem.Offset)%d.FrameSize
	case program.MemArray:
		r := &d.Regions[in.Mem.Region]
		it.cursors[in.Mem.Region] += uint32(in.Mem.Stride)
		return r.Base + (it.cursors[in.Mem.Region]+uint32(in.Mem.Offset))%r.Size
	case program.MemHeap:
		// Heap references cluster: most hit a hot window that drifts
		// slowly through the region (allocation locality), the rest
		// scatter (pointer chasing).
		r := &d.Regions[in.Mem.Region]
		if it.rng.Bool(0.9) {
			window := r.Size / 16
			if window < 64 {
				window = r.Size
			}
			it.heapDrift++
			base := (it.heapDrift / 4096 * (window / 2)) % r.Size
			return r.Base + (base+uint32(it.rng.Intn(int(window))))%r.Size
		}
		return r.Base + uint32(it.rng.Intn(int(r.Size)))
	default:
		// Validation prevents this.
		panic(fmt.Sprintf("interp: memory op %q without behaviour", in.Inst))
	}
}
