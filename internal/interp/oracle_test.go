package interp

import (
	"pipecache/internal/isa"
	"pipecache/internal/program"
)

// The handler interpreter: a naive per-event execution loop, which walks
// the program's instructions, re-deriving each one's static facts from
// the opcode tables, and calls the Handler for each event as it happens. It is the oracle the production interpreter (RunEvents
// and its decode table) is held to, event for event and RNG draw for RNG
// draw; see TestRunEventsMatchesHandler and FuzzEventsDifferential.

// runOracle executes at least n further instructions (stopping at the
// first block boundary at or past the target) and reports events to h. It
// returns the number of instructions executed by this call.
func (it *Interp) runOracle(n int64, h Handler) int64 {
	start := it.icount
	target := start + n
	for it.icount < target {
		it.step(h)
	}
	return it.icount - start
}

// step executes the current block and advances to its successor.
func (it *Interp) step(h Handler) {
	b := it.prog.Block(it.cur)
	h.Block(b)
	blockLen := len(b.Insts)
	for idx := range b.Insts {
		it.execInst(b, idx, blockLen, h)
	}
	it.advance(b, h)
}

func (it *Interp) execInst(b *program.Block, idx, blockLen int, h Handler) {
	in := &b.Insts[idx]
	it.icount++
	now := it.icount

	// Resolve pending loads on first use of their destinations.
	if it.nPending != 0 {
		srcs, ns := in.SrcRegs()
		for _, u := range srcs[:ns] {
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
			h.LoadUse(eps, capEps(cBlk+dBlk))
		}
	}

	if in.Op.IsMem() {
		addr := it.dataAddr(in)
		h.Mem(b, addr, in.Op.IsStore())
		if in.Op.IsLoad() && in.Rd != isa.Zero {
			aReg, _ := in.AddrReg()
			c := int(now - it.lastDef[aReg] - 1)
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
		}
	}

	// Record the definition; a redefinition kills an unconsumed load
	// (dead value, no interlock stall would occur).
	if d, ok := in.Def(); ok {
		it.lastDef[d] = now
		if !(in.Op.IsLoad() && d == in.Rd) && it.pending[d].active {
			it.pending[d].active = false
			it.nPending--
		}
	}
}

// advance follows the block's outgoing edge.
func (it *Interp) advance(b *program.Block, h Handler) {
	term, ok := b.Terminator()
	if !ok {
		it.cur = b.Fallthrough
		return
	}
	switch term.Op.Class() {
	case isa.ClassBranch:
		taken := it.rng.Bool(b.TakenProb)
		h.CTI(b, taken)
		if taken {
			it.cur = b.Taken
		} else {
			it.cur = b.Fallthrough
		}
	case isa.ClassJump:
		h.CTI(b, true)
		if term.Op == isa.JAL {
			it.stack = append(it.stack, frame{returnBlock: b.Fallthrough, proc: it.curProc})
			it.curProc = b.CallProc
			it.cur = it.prog.Procs[b.CallProc].Entry
		} else {
			it.cur = b.Taken
		}
	case isa.ClassJumpReg:
		h.CTI(b, true)
		if b.IsReturn {
			if len(it.stack) == 0 {
				// Returning from the entry procedure: restart it. The
				// generator's driver never returns, but hand-built
				// programs may.
				it.curProc = it.prog.Entry
				it.cur = it.prog.Procs[it.curProc].Entry
				return
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
}
