// Package cache implements the cache model of the trace-driven simulator
// (the paper's cacheSIM): Bank, which evaluates a ladder of direct-mapped
// or set-associative configurations in one pass, each with a pluggable
// replacement policy (LRU by default, plus FIFO and Tree-PLRU; see
// Policy), configurable block size, and write-back or write-through write
// policy. A single cache is a one-configuration Bank.
//
// All addresses and sizes are in 32-bit words, matching the paper's units
// (cache sizes in K-words, block sizes of 4, 8 and 16 words).
package cache

import (
	"fmt"

	"pipecache/internal/obs"
)

// Config describes one cache.
type Config struct {
	// SizeKW is the capacity in K-words (1 KW = 1024 words = 4 KB).
	SizeKW int
	// BlockWords is the line size in words.
	BlockWords int
	// Assoc is the set associativity; 1 means direct-mapped.
	Assoc int
	// WriteBack selects write-back with write-allocate when true, or
	// write-through with no-write-allocate when false.
	WriteBack bool
	// Policy selects the replacement policy; the zero value is LRU (the
	// paper's policy), so pre-existing configurations are unchanged.
	Policy Policy
}

// Validate checks that the configuration is realizable: positive
// power-of-two capacity, block size and associativity, with at least one
// set.
func (c Config) Validate() error {
	if c.SizeKW <= 0 || !isPow2(c.SizeKW) {
		return fmt.Errorf("cache: size %d KW must be a positive power of two", c.SizeKW)
	}
	if c.BlockWords <= 0 || !isPow2(c.BlockWords) {
		return fmt.Errorf("cache: block size %d words must be a positive power of two", c.BlockWords)
	}
	if c.Assoc <= 0 || !isPow2(c.Assoc) {
		return fmt.Errorf("cache: associativity %d must be a positive power of two", c.Assoc)
	}
	words := c.SizeKW * 1024
	if c.BlockWords*c.Assoc > words {
		return fmt.Errorf("cache: %d-word blocks x %d ways exceed %d-word capacity", c.BlockWords, c.Assoc, words)
	}
	if !c.Policy.Valid() {
		return fmt.Errorf("cache: unknown replacement policy %d", c.Policy)
	}
	return nil
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// String renders the configuration, e.g. "8KW/4W direct write-back".
func (c Config) String() string {
	org := "direct"
	if c.Assoc > 1 {
		org = fmt.Sprintf("%d-way", c.Assoc)
	}
	pol := "write-through"
	if c.WriteBack {
		pol = "write-back"
	}
	if c.Policy != PolicyLRU {
		// Only non-default policies render, so pre-existing strings (and
		// everything derived from them) are byte-identical.
		return fmt.Sprintf("%dKW/%dW %s %s %s", c.SizeKW, c.BlockWords, org, pol, c.Policy)
	}
	return fmt.Sprintf("%dKW/%dW %s %s", c.SizeKW, c.BlockWords, org, pol)
}

// Label renders the configuration as a compact metric-name segment,
// e.g. "8kw-b4-a1-wb".
func (c Config) Label() string {
	pol := "wt"
	if c.WriteBack {
		pol = "wb"
	}
	if c.Policy != PolicyLRU {
		return fmt.Sprintf("%dkw-b%d-a%d-%s-%s", c.SizeKW, c.BlockWords, c.Assoc, pol, c.Policy)
	}
	return fmt.Sprintf("%dkw-b%d-a%d-%s", c.SizeKW, c.BlockWords, c.Assoc, pol)
}

// Stats accumulates access outcomes.
type Stats struct {
	Reads       uint64
	Writes      uint64
	ReadMisses  uint64
	WriteMisses uint64
	Writebacks  uint64 // dirty lines written back on eviction (write-back)
	Throughs    uint64 // writes forwarded to the next level (write-through)
}

// Accesses returns the total access count.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses returns the total miss count.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// MissRatio returns misses per access, or 0 with no accesses.
func (s Stats) MissRatio() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(a)
}

// PublishStats folds one configuration's statistics into reg under
// prefix, with the counter names Bank.Publish uses per configuration.
func PublishStats(reg *obs.Registry, prefix string, s Stats) {
	reg.Counter(prefix + ".probes").Add(int64(s.Accesses()))
	reg.Counter(prefix + ".reads").Add(int64(s.Reads))
	reg.Counter(prefix + ".writes").Add(int64(s.Writes))
	reg.Counter(prefix + ".read_misses").Add(int64(s.ReadMisses))
	reg.Counter(prefix + ".write_misses").Add(int64(s.WriteMisses))
	reg.Counter(prefix + ".writebacks").Add(int64(s.Writebacks))
	reg.Counter(prefix + ".write_throughs").Add(int64(s.Throughs))
}
