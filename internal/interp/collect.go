package interp

import (
	"pipecache/internal/isa"
	"pipecache/internal/program"
	"pipecache/internal/stats"
)

// Collector is a Handler that accumulates the workload statistics the paper
// reports: the dynamic instruction mix (Table 1), CTI kind and outcome
// counts, and the epsilon distributions of Figures 6 and 7.
type Collector struct {
	Insts  int64
	Loads  int64
	Stores int64
	CTIs   int64

	CondBranches int64
	CondTaken    int64
	Jumps        int64 // direct jumps and calls
	IndirectCTIs int64 // register-indirect jumps (returns, dispatch)
	Syscalls     int64

	// Eps and EpsBlock are the dynamic distributions of epsilon = c + d
	// per executed-and-consumed load, unrestricted (Figure 6) and
	// truncated at basic-block boundaries (Figure 7). Bin i counts loads
	// with epsilon == i; the overflow bin is ">= bins".
	Eps      *stats.Hist
	EpsBlock *stats.Hist
}

// NewCollector returns a Collector with epsilon histograms of the given bin
// count (the paper plots 0..7+).
func NewCollector(epsBins int) *Collector {
	return &Collector{
		Eps:      stats.NewHist(epsBins),
		EpsBlock: stats.NewHist(epsBins),
	}
}

// Block implements Handler.
func (c *Collector) Block(b *program.Block) {
	c.Insts += int64(len(b.Insts))
	for i := range b.Insts {
		if b.Insts[i].Op.Class() == isa.ClassSyscall {
			c.Syscalls++
		}
	}
}

// Mem implements Handler.
func (c *Collector) Mem(b *program.Block, addr uint32, isStore bool) {
	if isStore {
		c.Stores++
	} else {
		c.Loads++
	}
}

// CTI implements Handler.
func (c *Collector) CTI(b *program.Block, taken bool) {
	c.CTIs++
	term, _ := b.Terminator()
	switch term.Op.Class() {
	case isa.ClassBranch:
		c.CondBranches++
		if taken {
			c.CondTaken++
		}
	case isa.ClassJump:
		c.Jumps++
	case isa.ClassJumpReg:
		c.IndirectCTIs++
	}
}

// LoadUse implements Handler.
func (c *Collector) LoadUse(eps, epsBlock int) {
	c.Eps.Add(eps)
	c.EpsBlock.Add(epsBlock)
}

// LoadFrac returns the dynamic load fraction.
func (c *Collector) LoadFrac() float64 { return frac(c.Loads, c.Insts) }

// StoreFrac returns the dynamic store fraction.
func (c *Collector) StoreFrac() float64 { return frac(c.Stores, c.Insts) }

// CTIFrac returns the dynamic control-transfer fraction.
func (c *Collector) CTIFrac() float64 { return frac(c.CTIs, c.Insts) }

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
