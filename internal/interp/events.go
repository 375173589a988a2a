package interp

import (
	"pipecache/internal/isa"
	"pipecache/internal/program"
)

// The interpreter. RunEvents executes the program and encodes its dynamic
// stream as a flat buffer of compact Event records delivered in batches
// instead of one interface method call per event. Consumers decode the
// batch with a switch and call their own concrete methods directly, so the
// per-event work inlines; only one indirect call is paid per batch. Run
// decodes the same stream into Handler calls. The tests hold RunEvents to
// a naive per-event handler loop (oracle_test.go), event for event and
// RNG draw for RNG draw.
//
// Stream invariance contract: the event stream of one interpreter is a
// pure function of (program, seed, instruction budget). Delay-slot
// translations, branch-handling schemes, load schemes, cache geometry, and
// the multiprogramming quantum are all applied downstream by the consumer
// — the interpreter never sees them — so a stream captured once can be
// replayed under any of those without re-execution. The trace package's
// capture/replay tier and its differential tests rely on this contract;
// any change that makes the stream depend on consumer configuration must
// also invalidate trace.EventTrace keys.

// EventKind discriminates Event records.
type EventKind uint8

const (
	// EvBlock: the instructions of block A are about to execute; B is the
	// block's instruction count (saving the consumer the block lookup).
	EvBlock EventKind = iota
	// EvLoadUse: a load's value was first consumed; A is the unrestricted
	// epsilon, B the block-restricted epsilon.
	EvLoadUse
	// EvMemLoad / EvMemStore: one data reference at word address A.
	EvMemLoad
	EvMemStore
	// EvCTITaken / EvCTINotTaken: block A's terminating control transfer
	// resolved taken or not taken.
	EvCTITaken
	EvCTINotTaken
)

// Event is one record of the compact stream. The meaning of A and B
// depends on Kind.
type Event struct {
	Kind EventKind
	A, B uint32
}

// EventSink consumes batches of events in program order. The slice is
// reused between calls; implementations must not retain it.
type EventSink interface {
	Events([]Event)
}

// EventSinkFunc adapts a function to the EventSink interface.
type EventSinkFunc func([]Event)

// Events implements EventSink.
func (f EventSinkFunc) Events(evs []Event) { f(evs) }

// ColumnSink consumes batches in columnar form (parallel kind/A/B arrays)
// without materializing Event records. Replay from a columnar trace
// delivers zero-copy sub-slices of the stored columns to it. The same
// batching and retention rules as EventSink apply: slices are only valid
// for the duration of the call.
type ColumnSink interface {
	EventColumns(kind []uint8, a, b []uint32)
}

// instMeta is the per-instruction static decode: the class-derived flags,
// single def register and source registers, decoded once instead of
// re-derived from opcode tables on every dynamic execution.
type instMeta struct {
	flags uint8
	def   isa.Reg
	nsrc  uint8
	src   [2]isa.Reg
}

const (
	metaIsMem uint8 = 1 << iota
	metaIsStore
	metaHasDef
)

// blockMeta caches one block's decode: where its instructions start in
// the interpreter's instMeta slab, and the class of its terminator
// (ClassNop when the block is straight-line code, which falls through
// like any other non-CTI class).
type blockMeta struct {
	off   int32
	term  isa.Class
	isJAL bool
}

// decode builds the static decode table for the whole program, every
// block's instructions in one exactly-sized slab. It runs once per
// interpreter, on the first RunEvents call.
func (it *Interp) decode() {
	total := 0
	for _, b := range it.prog.Blocks {
		total += len(b.Insts)
	}
	it.meta = make([]blockMeta, len(it.prog.Blocks))
	it.insts = make([]instMeta, 0, total)
	for i, b := range it.prog.Blocks {
		bm := &it.meta[i]
		bm.off = int32(len(it.insts))
		for j := range b.Insts {
			in := &b.Insts[j]
			var m instMeta
			s, n := in.SrcRegs()
			m.src = s
			m.nsrc = uint8(n)
			if d, ok := in.Def(); ok {
				m.def = d
				m.flags |= metaHasDef
			}
			if in.Op.IsMem() {
				m.flags |= metaIsMem
			}
			if in.Op.IsStore() {
				m.flags |= metaIsStore
			}
			it.insts = append(it.insts, m)
		}
		if term, ok := b.Terminator(); ok {
			bm.term = term.Op.Class()
			bm.isJAL = term.Op == isa.JAL
		} else {
			bm.term = isa.ClassNop
		}
	}
}

// defaultEventBuf is the batch size allocated when the caller does not
// supply a buffer.
const defaultEventBuf = 4096

// RunEvents executes at least n further instructions (stopping at the
// first block boundary at or past the target), delivering the stream to
// sink in batches written into buf (allocated internally when nil or too
// small). It returns the number of instructions executed by this call.
func (it *Interp) RunEvents(n int64, buf []Event, sink EventSink) int64 {
	if it.meta == nil {
		it.decode()
	}
	evs := buf[:0]
	if cap(evs) < 64 {
		evs = make([]Event, 0, defaultEventBuf)
	}
	start := it.icount
	target := start + n
	for it.icount < target {
		b := it.prog.Blocks[it.cur]
		// A block emits at most one Block, one CTI and three events per
		// instruction (two load-uses + one memory reference); flush ahead
		// of the block so the per-event appends never check capacity.
		need := 3*len(b.Insts) + 2
		if cap(evs)-len(evs) < need {
			if len(evs) > 0 {
				sink.Events(evs)
				evs = evs[:0]
			}
			if cap(evs) < need {
				evs = make([]Event, 0, 2*need)
			}
		}
		evs = it.stepEvents(b, evs)
	}
	if len(evs) > 0 {
		sink.Events(evs)
	}
	return it.icount - start
}

// stepEvents executes block b, appending its events to evs, and advances
// to the successor, with the static per-instruction facts read from the
// decode table.
func (it *Interp) stepEvents(b *program.Block, evs []Event) []Event {
	evs = append(evs, Event{Kind: EvBlock, A: uint32(b.ID), B: uint32(len(b.Insts))})
	bm := &it.meta[b.ID]
	blockLen := len(b.Insts)
	insts := it.insts[bm.off : int(bm.off)+blockLen]
	for idx := range insts {
		m := &insts[idx]
		it.icount++
		now := it.icount

		// Resolve pending loads on first use of their destinations.
		if it.nPending != 0 {
			for _, u := range m.src[:m.nsrc] {
				rec := &it.pending[u]
				if !rec.active {
					continue
				}
				rec.active = false
				it.nPending--
				d := int(now - rec.at - 1)
				if d > EpsCap {
					d = EpsCap
				}
				eps := capEps(rec.c + d)
				dBlk := d
				if dBlk > rec.maxD {
					dBlk = rec.maxD
				}
				cBlk := rec.c
				if cBlk > rec.maxC {
					cBlk = rec.maxC
				}
				evs = append(evs, Event{Kind: EvLoadUse, A: uint32(eps), B: uint32(capEps(cBlk + dBlk))})
			}
		}

		if m.flags&metaIsMem != 0 {
			in := &b.Insts[idx]
			addr := it.dataAddr(in)
			if m.flags&metaIsStore != 0 {
				evs = append(evs, Event{Kind: EvMemStore, A: addr})
			} else {
				evs = append(evs, Event{Kind: EvMemLoad, A: addr})
				if in.Rd != isa.Zero {
					c := int(now - it.lastDef[in.Rs] - 1)
					if c > EpsCap {
						c = EpsCap
					}
					if !it.pending[in.Rd].active {
						it.nPending++
					}
					it.pending[in.Rd] = loadRec{
						active: true,
						at:     now,
						c:      c,
						maxC:   idx,
						maxD:   blockLen - idx - 1,
					}
					it.lastDef[in.Rd] = now
					continue
				}
			}
		}

		if m.flags&metaHasDef != 0 {
			d := m.def
			it.lastDef[d] = now
			if it.pending[d].active {
				it.pending[d].active = false
				it.nPending--
			}
		}
	}

	switch bm.term {
	case isa.ClassBranch:
		taken := it.rng.Bool(b.TakenProb)
		if taken {
			evs = append(evs, Event{Kind: EvCTITaken, A: uint32(b.ID)})
			it.cur = b.Taken
		} else {
			evs = append(evs, Event{Kind: EvCTINotTaken, A: uint32(b.ID)})
			it.cur = b.Fallthrough
		}
	case isa.ClassJump:
		evs = append(evs, Event{Kind: EvCTITaken, A: uint32(b.ID)})
		if bm.isJAL {
			it.stack = append(it.stack, frame{returnBlock: b.Fallthrough, proc: it.curProc})
			it.curProc = b.CallProc
			it.cur = it.prog.Procs[b.CallProc].Entry
		} else {
			it.cur = b.Taken
		}
	case isa.ClassJumpReg:
		evs = append(evs, Event{Kind: EvCTITaken, A: uint32(b.ID)})
		if b.IsReturn {
			if len(it.stack) == 0 {
				it.curProc = it.prog.Entry
				it.cur = it.prog.Procs[it.curProc].Entry
				return evs
			}
			f := it.stack[len(it.stack)-1]
			it.stack = it.stack[:len(it.stack)-1]
			it.curProc = f.proc
			it.cur = f.returnBlock
		} else {
			it.cur = b.Taken
		}
	default:
		it.cur = b.Fallthrough
	}
	return evs
}
