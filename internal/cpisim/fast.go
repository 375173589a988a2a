package cpisim

import (
	"math/bits"
	"sync"

	"pipecache/internal/program"
	"pipecache/internal/sched"
)

// Per-block static-scheme metadata for the compiled replay plans
// (plan.go). Under the static branch scheme with no BTB and no second
// level — the shape of every ladder sweep — a block's CTI consequences
// (wasted slots, delay-slot skip, squash fetch) are a pure function of
// the translation, so they are tabulated once per translation identity
// and read by buildChunkPlan as table lookups. Plans reproduce the
// generic handlers' arithmetic exactly, so live runs and replays produce
// bit-identical results.

// blockMeta is one block's entry: the translated fetch geometry plus the
// precomputed consequence of the block's CTI under the static scheme
// (zero for blocks without a CTI, which never emit CTI events). Fetch and
// CTI data share one entry deliberately — a CTI event always follows its
// own block's Block event closely, so the entry the Block case pulled
// into cache is still resident when the CTI case reads it. Entries are
// squeezed to 16 bytes — four per cache line — because the table is
// indexed by block id in trace order, an effectively random pattern: the
// narrow fields (lengths, slot counts, and skips are bounded by the
// translation's block-length cap, far below 16 bits) halve the footprint.
type blockMeta struct {
	newAddr     uint32 // translated fetch address (Translation.NewAddr)
	squashAddr  uint32 // fall-through fetch address on a taken mispredict
	newLen      uint16 // translated fetch length (Translation.NewLen)
	squashN     uint8  // squashed delay-slot fetches on a taken mispredict
	wastedTaken uint8  // WastedSlots(id, true)
	wastedNT    uint8  // WastedSlots(id, false)
	skip        uint8  // delay-slot skip handed to the next block when taken
	predTaken   bool
}

// blockMetaCache shares one table per translation identity across
// simulators: a sweep builds thousands of Sims over the same few
// workloads, and the table is a pure function of (program, slot budget,
// profile), so rebuilding it per Sim was a measurable slice of every
// replay iteration. Entries are read-only once published and live as
// long as the process (the key pins the program, which sweeps hold
// anyway); the key space is tiny — programs x slot budgets x profiles.
var blockMetaCache sync.Map // metaKey -> []blockMeta

type metaKey struct {
	prog  *program.Program
	slots int
	prof  *sched.Profile
}

// cachedBlockMeta returns the shared table for one translation identity,
// building it on first sight. Concurrent builders (sharded replays
// constructing shard Sims in parallel) converge on one canonical table.
func cachedBlockMeta(prog *program.Program, xlat *sched.Translation, slots int, prof *sched.Profile) []blockMeta {
	key := metaKey{prog: prog, slots: slots, prof: prof}
	if v, ok := blockMetaCache.Load(key); ok {
		return v.([]blockMeta)
	}
	ms := buildBlockMeta(prog, xlat)
	v, _ := blockMetaCache.LoadOrStore(key, ms)
	return v.([]blockMeta)
}

// blockMetaFits reports whether every translated block length fits the
// table's 16-bit field; the delay-slot counts are bounded by the
// validated slot budget and always fit. Oversized translations (not
// produced by any current workload) fall back to the generic dispatch.
func blockMetaFits(xlat *sched.Translation) bool {
	for id := range xlat.Blocks {
		if xlat.Blocks[id].NewLen > 0xffff {
			return false
		}
	}
	return true
}

// buildBlockMeta tabulates every block's fetch geometry and static-scheme
// CTI consequences from one workload's translation.
func buildBlockMeta(prog *program.Program, xlat *sched.Translation) []blockMeta {
	ms := make([]blockMeta, len(xlat.Blocks))
	for id := range xlat.Blocks {
		x := &xlat.Blocks[id]
		m := &ms[id]
		m.newAddr = x.NewAddr
		m.newLen = uint16(x.NewLen)
		if !x.HasCTI {
			continue
		}
		m.predTaken = x.PredTaken
		m.wastedTaken = uint8(xlat.WastedSlots(id, true))
		m.wastedNT = uint8(xlat.WastedSlots(id, false))
		if x.PredTaken && !x.Indirect {
			m.skip = uint8(x.S)
		}
		if !x.PredTaken {
			if ft := prog.Block(id).Fallthrough; ft != program.None {
				fx := &xlat.Blocks[ft]
				n := x.S
				if n > fx.NewLen {
					n = fx.NewLen
				}
				m.squashAddr = fx.NewAddr
				m.squashN = uint8(n)
			}
		}
	}
	return ms
}

// plannable reports whether compiled chunk plans cover this
// configuration: the static branch scheme (no deferred BTB resolution)
// and no second level (no L1-miss forwarding).
func (s *Sim) plannable() bool {
	return s.cfg.BranchScheme == BranchStatic && s.btb == nil && s.l2bank == nil
}

// dMisses books the missing configurations of one D-cache probe of a
// planned chunk, identically to mem's miss half.
func (h *benchSink) dMisses(addr uint32, miss uint64, isStore bool) {
	b := h.b
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
