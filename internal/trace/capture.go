package trace

import (
	"pipecache/internal/program"
	"pipecache/internal/sched"
)

// Capture is an interp.Handler that records a process's reference stream —
// instruction fetches through a delay-slot translation, plus data
// references — into a Writer.
type Capture struct {
	W    *Writer
	Xlat *sched.Translation
	PID  uint8

	skip int
	err  error
}

// Err returns the first write error, if any; the interpreter has no error
// channel so captures fail quietly and report here.
func (c *Capture) Err() error { return c.err }

func (c *Capture) write(r Ref) {
	if c.err != nil {
		return
	}
	c.err = c.W.Write(r)
}

// Block implements interp.Handler.
func (c *Capture) Block(b *program.Block) {
	skip := c.skip
	c.skip = 0
	addr, n := c.Xlat.Fetches(b.ID, skip)
	for i := 0; i < n; i++ {
		c.write(Ref{Kind: IFetch, PID: c.PID, Addr: addr + uint32(i)})
	}
}

// Mem implements interp.Handler.
func (c *Capture) Mem(b *program.Block, addr uint32, isStore bool) {
	k := Load
	if isStore {
		k = Store
	}
	c.write(Ref{Kind: k, PID: c.PID, Addr: addr})
}

// CTI implements interp.Handler, reproducing the translation-file fetch
// semantics: extra squashed fetches on a not-taken-predicted taken CTI, and
// a delay-slot skip into the target of a correctly predicted taken CTI.
func (c *Capture) CTI(b *program.Block, taken bool) {
	x := &c.Xlat.Blocks[b.ID]
	if !x.HasCTI {
		return
	}
	if !x.PredTaken && taken && b.Fallthrough != program.None {
		fx := &c.Xlat.Blocks[b.Fallthrough]
		n := x.S
		if n > fx.NewLen {
			n = fx.NewLen
		}
		for i := 0; i < n; i++ {
			c.write(Ref{Kind: IFetch, PID: c.PID, Addr: fx.NewAddr + uint32(i)})
		}
	}
	if x.PredTaken && taken && !x.Indirect {
		c.skip = x.S
	}
}

// LoadUse implements interp.Handler; dependency distances are not part of
// an address trace.
func (c *Capture) LoadUse(eps, epsBlock int) {}
