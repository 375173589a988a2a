// Package btb implements the branch-target buffer evaluated in Section 3.1
// of the paper: a small cache of branch addresses and their targets with
// the 2-bit saturating-counter prediction scheme of Lee and Smith [LS84].
//
// The paper's BTB holds 256 entries (two 32-bit addresses plus 2 bits of
// prediction per entry, about 2 KB of SRAM — the largest SRAM that allows
// single-cycle access at the target cycle time).
package btb

import (
	"fmt"

	"pipecache/internal/obs"
)

// Config describes a branch-target buffer.
type Config struct {
	Entries int // total entries (power of two)
	Assoc   int // set associativity (power of two, <= Entries)
}

// PaperConfig returns the 256-entry direct-mapped configuration the paper
// evaluates.
func PaperConfig() Config { return Config{Entries: 256, Assoc: 1} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("btb: entries %d must be a positive power of two", c.Entries)
	}
	if c.Assoc <= 0 || c.Assoc&(c.Assoc-1) != 0 || c.Assoc > c.Entries {
		return fmt.Errorf("btb: associativity %d invalid for %d entries", c.Assoc, c.Entries)
	}
	return nil
}

// StorageBytes returns the SRAM cost of the configuration: two 32-bit
// addresses plus a 2-bit counter per entry, rounded up to whole bytes.
func (c Config) StorageBytes() int {
	bitsPerEntry := 32 + 32 + 2
	return (c.Entries*bitsPerEntry + 7) / 8
}

// Prediction is the outcome of a lookup.
type Prediction struct {
	Hit    bool   // the instruction address is in the buffer
	Taken  bool   // predicted direction (meaningful only when Hit)
	Target uint32 // predicted target word address (when Hit && Taken)
}

// Stats counts lookup and prediction outcomes.
type Stats struct {
	Lookups     uint64
	Resolves    uint64
	Hits        uint64
	CorrectDir  uint64 // hits whose 2-bit direction prediction was right
	WrongDir    uint64
	WrongTarget uint64 // direction right (taken) but target stale
	Inserts     uint64
	Evictions   uint64
}

// Consultations returns the number of CTIs checked against the buffer.
// Callers that predict with Lookup then train with Resolve consult once
// per CTI, as does the CPI simulator's Resolve-only fast path, so the
// count is the larger of the two.
func (s Stats) Consultations() uint64 {
	if s.Resolves > s.Lookups {
		return s.Resolves
	}
	return s.Lookups
}

// HitRatio returns hits per consulted CTI.
func (s Stats) HitRatio() float64 {
	n := s.Consultations()
	if n == 0 {
		return 0
	}
	return float64(s.Hits) / float64(n)
}

// BTB is a branch-target buffer. Not safe for concurrent use.
type BTB struct {
	cfg     Config
	sets    int
	valid   []bool
	tags    []uint32
	targets []uint32
	counter []uint8 // 2-bit saturating: 0,1 predict not-taken; 2,3 taken
	lruTick []uint64
	tick    uint64
	stats   Stats
}

// New builds a BTB.
func New(cfg Config) (*BTB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Entries
	return &BTB{
		cfg:     cfg,
		sets:    n / cfg.Assoc,
		valid:   make([]bool, n),
		tags:    make([]uint32, n),
		targets: make([]uint32, n),
		counter: make([]uint8, n),
		lruTick: make([]uint64, n),
	}, nil
}

// Config returns the configuration.
func (b *BTB) Config() Config { return b.cfg }

// Stats returns a copy of the statistics.
func (b *BTB) Stats() Stats { return b.stats }

// Publish registers the buffer under prefix in reg and folds the current
// statistics in as counter additions. Like cache.Bank, the plain Stats
// struct is the hot path's shard; Publish merges it once per run.
func (b *BTB) Publish(reg *obs.Registry, prefix string) {
	s := b.stats
	reg.Counter(prefix + ".lookups").Add(int64(s.Consultations()))
	reg.Counter(prefix + ".hits").Add(int64(s.Hits))
	reg.Counter(prefix + ".correct_dir").Add(int64(s.CorrectDir))
	reg.Counter(prefix + ".mispredicts").Add(int64(s.WrongDir + s.WrongTarget))
	reg.Counter(prefix + ".wrong_dir").Add(int64(s.WrongDir))
	reg.Counter(prefix + ".wrong_target").Add(int64(s.WrongTarget))
	reg.Counter(prefix + ".inserts").Add(int64(s.Inserts))
	reg.Counter(prefix + ".evictions").Add(int64(s.Evictions))
}

func (b *BTB) find(pc uint32) (int, bool) {
	set := int(pc) & (b.sets - 1)
	base := set * b.cfg.Assoc
	tag := pc / uint32(b.sets)
	for w := 0; w < b.cfg.Assoc; w++ {
		i := base + w
		if b.valid[i] && b.tags[i] == tag {
			return i, true
		}
	}
	return base, false
}

// Lookup consults the buffer for the CTI at word address pc. Every fetch
// address is checked against the BTB in hardware; the simulator only calls
// Lookup for actual CTIs because non-CTI addresses can hit only after
// aliasing, which a 64-bit tag comparison rules out here.
func (b *BTB) Lookup(pc uint32) Prediction {
	b.stats.Lookups++
	i, hit := b.find(pc)
	if !hit {
		return Prediction{}
	}
	b.tick++
	b.lruTick[i] = b.tick
	return Prediction{
		Hit:    true,
		Taken:  b.counter[i] >= 2,
		Target: b.targets[i],
	}
}

// Resolve records the actual outcome of the CTI at pc and updates
// prediction state: counters train on hits; taken CTIs that missed are
// inserted (weakly taken). It returns the penalty category the paper
// charges for this CTI:
//
//   - correct (hit, right direction, right target): no stall;
//   - a direction or target misprediction, or a taken CTI that missed:
//     the full branch delay plus the one-cycle BTB fill stall;
//   - a not-taken CTI that missed: sequential fetch was correct anyway.
func (b *BTB) Resolve(pc uint32, taken bool, target uint32) Outcome {
	b.stats.Resolves++
	i, hit := b.find(pc)
	if hit {
		b.stats.Hits++
		predTaken := b.counter[i] >= 2
		predTarget := b.targets[i]
		// Train the 2-bit counter.
		if taken && b.counter[i] < 3 {
			b.counter[i]++
		}
		if !taken && b.counter[i] > 0 {
			b.counter[i]--
		}
		if taken {
			b.targets[i] = target
		}
		switch {
		case predTaken != taken:
			b.stats.WrongDir++
			return OutcomeWrongDirection
		case taken && predTarget != target:
			b.stats.WrongTarget++
			return OutcomeWrongTarget
		default:
			b.stats.CorrectDir++
			return OutcomeCorrect
		}
	}
	if !taken {
		// Not-taken CTIs are not inserted: they would pollute the buffer
		// and sequential fetch predicts them for free.
		return OutcomeMissNotTaken
	}
	// Insert, evicting LRU within the set.
	set := int(pc) & (b.sets - 1)
	base := set * b.cfg.Assoc
	victim := base
	for w := 0; w < b.cfg.Assoc; w++ {
		j := base + w
		if !b.valid[j] {
			victim = j
			break
		}
		if b.lruTick[j] < b.lruTick[victim] {
			victim = j
		}
	}
	if b.valid[victim] {
		b.stats.Evictions++
	}
	b.valid[victim] = true
	b.tags[victim] = pc / uint32(b.sets)
	b.targets[victim] = target
	b.counter[victim] = 2 // weakly taken
	b.tick++
	b.lruTick[victim] = b.tick
	b.stats.Inserts++
	return OutcomeMissTaken
}

// Outcome classifies the resolution of one CTI against the BTB.
type Outcome uint8

const (
	// OutcomeCorrect: hit with correct direction and target; the branch
	// delay is fully hidden.
	OutcomeCorrect Outcome = iota
	// OutcomeWrongDirection: hit but the 2-bit counter pointed the wrong
	// way; full delay plus the fill stall.
	OutcomeWrongDirection
	// OutcomeWrongTarget: predicted taken and taken, but to a different
	// target (e.g. an indirect jump that moved); same cost as a wrong
	// direction.
	OutcomeWrongTarget
	// OutcomeMissTaken: not in the buffer and taken; full delay plus fill.
	OutcomeMissTaken
	// OutcomeMissNotTaken: not in the buffer and not taken; sequential
	// fetch was correct, no stall.
	OutcomeMissNotTaken
)

// Hidden reports whether the branch delay was fully hidden for this
// outcome.
func (o Outcome) Hidden() bool {
	return o == OutcomeCorrect || o == OutcomeMissNotTaken
}

// FillStall reports whether the one-cycle BTB update stall applies.
func (o Outcome) FillStall() bool {
	return o == OutcomeWrongDirection || o == OutcomeWrongTarget || o == OutcomeMissTaken
}

func (o Outcome) String() string {
	switch o {
	case OutcomeCorrect:
		return "correct"
	case OutcomeWrongDirection:
		return "wrong-direction"
	case OutcomeWrongTarget:
		return "wrong-target"
	case OutcomeMissTaken:
		return "miss-taken"
	case OutcomeMissNotTaken:
		return "miss-not-taken"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}
