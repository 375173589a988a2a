package cache

import (
	"math/bits"

	"pipecache/internal/obs"
)

// The naive per-configuration cache model: the scalar set-associative
// cache the fused Bank is held to. Every differential test and fuzz target
// in this package drives a refCache per configuration beside one Bank over
// the same access stream and demands identical miss masks and Stats.

// refResult describes the outcome of one access.
type refResult struct {
	Hit bool
	// Fill is true when the access allocates a line (and so pays the
	// refill penalty).
	Fill bool
	// Writeback is true when the allocation evicted a dirty line.
	Writeback bool
}

// refCache is one level of cache. It is not safe for concurrent use.
type refCache struct {
	cfg       Config
	sets      int
	blockBits uint
	// tagShift is the total shift from a word address's block number to
	// its tag (log2 of the set count), hoisted out of the per-access path.
	tagShift uint
	setMask  uint32

	// Per-way arrays, indexed [set*assoc + way].
	tags  []uint32
	valid []bool
	dirty []bool
	// lruTick[i] holds the last-use timestamp for LRU selection; under
	// FIFO it holds the fill timestamp instead (hits never refresh it).
	lruTick []uint64
	tick    uint64
	// plru[set] is the per-set Tree-PLRU bit tree (unused otherwise).
	plru []uint64

	stats Stats
}

// newRefCache builds a cache from the configuration.
func newRefCache(cfg Config) (*refCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	words := cfg.SizeKW * 1024
	sets := words / (cfg.BlockWords * cfg.Assoc)
	n := sets * cfg.Assoc
	c := &refCache{
		cfg:       cfg,
		sets:      sets,
		blockBits: uint(bits.TrailingZeros32(uint32(cfg.BlockWords))),
		tagShift:  uint(bits.TrailingZeros32(uint32(sets))),
		setMask:   uint32(sets - 1),
		tags:      make([]uint32, n),
		valid:     make([]bool, n),
		dirty:     make([]bool, n),
		lruTick:   make([]uint64, n),
	}
	if cfg.Policy == PolicyTreePLRU {
		c.plru = make([]uint64, sets)
	}
	return c, nil
}

// Config returns the cache's configuration.
func (c *refCache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *refCache) Sets() int { return c.sets }

// Stats returns a copy of the access statistics.
func (c *refCache) Stats() Stats { return c.stats }

// ResetStats clears the statistics without touching cache contents; use it
// after warmup.
func (c *refCache) ResetStats() { c.stats = Stats{} }

// Publish registers the cache under prefix in reg and folds the current
// statistics in as counter additions. The Stats struct is the cache's
// zero-synchronization shard: the hot path increments plain fields, and
// Publish merges them with one atomic add per metric when the owning
// simulation pass completes. Call it once per run.
func (c *refCache) Publish(reg *obs.Registry, prefix string) {
	PublishStats(reg, prefix, c.stats)
}

// Flush invalidates every line (dirty lines are counted as writebacks for a
// write-back cache) and leaves statistics alone.
func (c *refCache) Flush() {
	for i := range c.valid {
		if c.valid[i] && c.dirty[i] {
			c.stats.Writebacks++
		}
		c.valid[i] = false
		c.dirty[i] = false
	}
	// Reset the replacement trees too, matching a freshly built cache
	// (and Bank.Flush): refills repopulate them deterministically.
	for s := range c.plru {
		c.plru[s] = 0
	}
}

// Access performs one read (write=false) or write (write=true) of the word
// at addr and returns the outcome.
func (c *refCache) Access(addr uint32, write bool) refResult {
	block := addr >> c.blockBits
	set := int(block & c.setMask)
	tag := block >> c.tagShift

	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	c.tick++

	// Direct-mapped fast path: one candidate line, no LRU bookkeeping.
	if c.cfg.Assoc == 1 {
		if c.valid[set] && c.tags[set] == tag {
			if write {
				if c.cfg.WriteBack {
					c.dirty[set] = true
				} else {
					c.stats.Throughs++
				}
			}
			return refResult{Hit: true}
		}
		if write {
			c.stats.WriteMisses++
			if !c.cfg.WriteBack {
				c.stats.Throughs++
				return refResult{}
			}
		} else {
			c.stats.ReadMisses++
		}
		res := refResult{Fill: true}
		if c.valid[set] && c.dirty[set] {
			c.stats.Writebacks++
			res.Writeback = true
		}
		c.valid[set] = true
		c.dirty[set] = write && c.cfg.WriteBack
		c.tags[set] = tag
		return res
	}

	base := set * c.cfg.Assoc
	// Hit path.
	for w := 0; w < c.cfg.Assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			switch c.cfg.Policy {
			case PolicyLRU:
				c.lruTick[i] = c.tick
			case PolicyFIFO:
				// FIFO age is the fill time; a hit changes nothing.
			case PolicyTreePLRU:
				c.plru[set] = plruTouch(c.plru[set], uint32(w), uint32(bits.TrailingZeros32(uint32(c.cfg.Assoc))))
			}
			if write {
				if c.cfg.WriteBack {
					c.dirty[i] = true
				} else {
					c.stats.Throughs++
				}
			}
			return refResult{Hit: true}
		}
	}

	// Miss path.
	if write {
		c.stats.WriteMisses++
		if !c.cfg.WriteBack {
			// No-write-allocate: forward the write, do not fill.
			c.stats.Throughs++
			return refResult{}
		}
	} else {
		c.stats.ReadMisses++
	}

	// Allocate: the first invalid way if one exists (every policy fills
	// empty ways first), otherwise the policy's victim — oldest use for
	// LRU, oldest fill for FIFO, or the way the bit tree selects.
	victim := -1
	for w := 0; w < c.cfg.Assoc; w++ {
		if !c.valid[base+w] {
			victim = base + w
			break
		}
	}
	if victim < 0 {
		if c.cfg.Policy == PolicyTreePLRU {
			victim = base + int(plruVictim(c.plru[set], uint32(bits.TrailingZeros32(uint32(c.cfg.Assoc)))))
		} else {
			victim = base
			for w := 1; w < c.cfg.Assoc; w++ {
				if c.lruTick[base+w] < c.lruTick[victim] {
					victim = base + w
				}
			}
		}
	}
	res := refResult{Fill: true}
	if c.valid[victim] && c.dirty[victim] {
		c.stats.Writebacks++
		res.Writeback = true
	}
	c.valid[victim] = true
	c.dirty[victim] = write && c.cfg.WriteBack
	c.tags[victim] = tag
	c.lruTick[victim] = c.tick
	if c.cfg.Policy == PolicyTreePLRU {
		c.plru[set] = plruTouch(c.plru[set], uint32(victim-base), uint32(bits.TrailingZeros32(uint32(c.cfg.Assoc))))
	}
	return res
}

// Contains reports whether the word at addr is currently cached (without
// touching LRU state or statistics).
func (c *refCache) Contains(addr uint32) bool {
	block := addr >> c.blockBits
	set := int(block & c.setMask)
	tag := block >> c.tagShift
	base := set * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			return true
		}
	}
	return false
}
