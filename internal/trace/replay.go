package trace

import (
	"io"

	"pipecache/internal/cache"
)

// ReplayStats summarizes a trace replay.
type ReplayStats struct {
	Refs     uint64
	IFetches uint64
	Loads    uint64
	Stores   uint64
}

// ReplayBank runs every record of the trace through fused instruction and
// data cache banks (either may be nil), so one replay pass evaluates a
// whole ladder of configurations at once with the single-pass kernel; the
// banks accumulate per-configuration statistics. It returns the reference
// counts; a single cache is a one-configuration bank. A one-configuration
// direct-mapped bank is probed through its call-free Direct view, which
// is detached (its state written back to the bank) when the replay ends.
func ReplayBank(r *Reader, ibank, dbank *cache.Bank) (st ReplayStats, err error) {
	id, dd := directView(ibank), directView(dbank)
	defer func() {
		if id != nil {
			id.AddAccesses(st.IFetches, 0)
			id.Detach()
		}
		if dd != nil {
			dd.AddAccesses(st.Loads, st.Stores)
			dd.Detach()
		}
	}()
	for {
		ref, err := r.Read()
		if err == io.EOF {
			return st, nil
		}
		if err != nil {
			return st, err
		}
		st.Refs++
		switch ref.Kind {
		case IFetch:
			st.IFetches++
			if id != nil {
				if !id.ReadHit(ref.Addr) {
					id.ReadMiss(ref.Addr)
				}
			} else if ibank != nil {
				ibank.Access(ref.Addr, false)
			}
		case Load:
			st.Loads++
			if dd != nil {
				if !dd.ReadHit(ref.Addr) {
					dd.ReadMiss(ref.Addr)
				}
			} else if dbank != nil {
				dbank.Access(ref.Addr, false)
			}
		case Store:
			st.Stores++
			if dd != nil {
				if !dd.WriteHit(ref.Addr) {
					dd.WriteMiss(ref.Addr)
				}
			} else if dbank != nil {
				dbank.Access(ref.Addr, true)
			}
		}
	}
}

// directView returns b's Direct view, or nil when b is nil or has none.
func directView(b *cache.Bank) *cache.Direct {
	if b == nil {
		return nil
	}
	return b.Direct()
}

// Mix interleaves several single-process traces into one multiprogrammed
// trace, quantum records from each source in rotation, until every source
// is exhausted. It mirrors how the paper built multiprogramming traces from
// per-benchmark traces.
func Mix(w *Writer, quantum int, sources ...*Reader) error {
	done := make([]bool, len(sources))
	active := len(sources)
	for active > 0 {
		for i, src := range sources {
			if done[i] {
				continue
			}
			for n := 0; n < quantum; n++ {
				ref, err := src.Read()
				if err == io.EOF {
					done[i] = true
					active--
					break
				}
				if err != nil {
					return err
				}
				if err := w.Write(ref); err != nil {
					return err
				}
			}
		}
	}
	return w.Flush()
}
