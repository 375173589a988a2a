package cache

import "pipecache/internal/mempool"

// Direct is a call-free probing view of a single-configuration packed
// bank: the replay loop's dominant cost at one configuration is the
// probe itself, so Direct exposes the hit path as methods small enough
// to inline into the caller — one shift, one masked load, one compare.
// The hit test and the miss booking are split (ReadHit/ReadMiss,
// WriteHit/WriteMiss) because a combined probe exceeds the compiler's
// inlining budget: the caller inlines the hit test and calls the miss
// half only on the rare fall-through.
//
// The view probes a private 32-bit table (tag<<2 | dirty | valid per
// set) seeded from the bank's packed state when the view is taken: at
// one configuration the replay loop is bound by random-access misses on
// its tag table, and halving the entry width halves the footprint that
// competes with the streamed event columns for cache. The miss halves
// mirror the packed kernel's single-lane semantics exactly (same
// counters, same installs, same writebacks), so a Direct-driven pass is
// bit-identical to Access-driven probing of the same bank.
//
// Taking a view transfers probing ownership: the bank's own table no
// longer reflects accesses, so do not mix Direct probes with Bank.Access
// calls (counter reads through Bank.Stats remain valid). The caller also
// owns the bank-level access counters: Reads/Writes are not advanced per
// probe — fold the batch totals in through AddAccesses before reading
// Stats. Release returns the private table to its pool.
type Direct struct {
	table     []uint32
	st        *Stats
	b         *Bank
	blockBits uint32
	setBits   uint32
	writeBack bool
}

const (
	directValid    = uint32(1)
	directDirty    = uint32(2)
	directTagShift = 2
)

// Direct returns the call-free view, or nil when the bank is not a
// single-configuration packed bank (multiple lanes or general configs)
// or its tags do not fit the compact entry.
func (b *Bank) Direct() *Direct {
	if !b.fullyPacked {
		return nil
	}
	g := b.packed[0]
	if len(g.lanes) != 1 {
		return nil
	}
	if g.blockBits+g.setBits < directTagShift {
		return nil // tag would not fit 30 bits
	}
	d := &Direct{
		table:     mempool.Uint32s(len(g.table)),
		st:        g.lanes[0].st,
		b:         b,
		blockBits: g.blockBits,
		setBits:   g.setBits,
		writeBack: g.writeBack,
	}
	// Seed from the bank's current packed state (all-zero for a fresh
	// bank), then retire the bank's own probe state: the memo could
	// otherwise keep claiming a block the view has since evicted.
	for s, e := range g.table {
		if e&1 != 0 {
			ce := uint32(e>>32)<<directTagShift | directValid
			if e&(1<<16) != 0 {
				ce |= directDirty
			}
			d.table[s] = ce
		}
	}
	b.memoOK = false
	return d
}

// Release returns the view's private table to its pool. The view must
// not be used afterwards.
func (d *Direct) Release() {
	if d.table != nil {
		mempool.PutUint32s(d.table)
		d.table = nil
	}
}

// ReadHit probes one read of the block containing addr and reports
// whether it hit; on false the caller must follow with ReadMiss(addr).
// The table length is the set count (a power of two), so the len-derived
// mask lets the compiler drop the bounds check.
func (d *Direct) ReadHit(addr uint32) bool {
	t := d.table
	block := addr >> d.blockBits
	e := t[block&uint32(len(t)-1)]
	return e>>directTagShift == block>>d.setBits && e&directValid != 0
}

// ReadMiss books the read miss ReadHit just reported: miss counter,
// dirty-victim writeback, clean install.
func (d *Direct) ReadMiss(addr uint32) {
	t := d.table
	block := addr >> d.blockBits
	s := block & uint32(len(t)-1)
	d.st.ReadMisses++
	if t[s]&directDirty != 0 {
		d.st.Writebacks++
	}
	t[s] = block>>d.setBits<<directTagShift | directValid
}

// WriteHit probes one write of the block containing addr and reports
// whether it hit (marking the line dirty under write-back); on false the
// caller must follow with WriteMiss(addr). Write-through hits need no
// bookkeeping here: Throughs is derived from the bank-level write count
// (see Bank.Stats).
func (d *Direct) WriteHit(addr uint32) bool {
	t := d.table
	block := addr >> d.blockBits
	s := block & uint32(len(t)-1)
	e := t[s]
	if e>>directTagShift == block>>d.setBits && e&directValid != 0 {
		if d.writeBack {
			t[s] = e | directDirty
		}
		return true
	}
	return false
}

// WriteMiss books the write miss WriteHit just reported: miss counter,
// then under write-back a dirty-victim writeback and a dirty install
// (write-through write misses do not allocate).
func (d *Direct) WriteMiss(addr uint32) {
	d.st.WriteMisses++
	if !d.writeBack {
		return
	}
	t := d.table
	block := addr >> d.blockBits
	s := block & uint32(len(t)-1)
	if t[s]&directDirty != 0 {
		d.st.Writebacks++
	}
	t[s] = block>>d.setBits<<directTagShift | directDirty | directValid
}

// AddAccesses folds a batch's deferred bank-level access counts in; call
// before reading Stats.
func (d *Direct) AddAccesses(reads, writes uint64) {
	d.b.reads += reads
	d.b.writes += writes
}

// BlockBits returns log2 of the configuration's block size in words.
// A fetch range [addr, addr+n) probes exactly the blocks addr>>BlockBits
// through (addr+n-1)>>BlockBits, so a caller streaming ranges can
// iterate block numbers directly (ReadHitBlock/ReadMissBlock) instead of
// re-deriving the probe split and the shift for every probe.
func (d *Direct) BlockBits() uint32 { return d.blockBits }

// ReadHitBlock is ReadHit for a precomputed block number
// (addr >> BlockBits); on false the caller must follow with
// ReadMissBlock(block).
func (d *Direct) ReadHitBlock(block uint32) bool {
	t := d.table
	e := t[block&uint32(len(t)-1)]
	return e>>directTagShift == block>>d.setBits && e&directValid != 0
}

// ReadMissBlock is ReadMiss for a precomputed block number.
func (d *Direct) ReadMissBlock(block uint32) {
	t := d.table
	s := block & uint32(len(t)-1)
	d.st.ReadMisses++
	if t[s]&directDirty != 0 {
		d.st.Writebacks++
	}
	t[s] = block>>d.setBits<<directTagShift | directValid
}
