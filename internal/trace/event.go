package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pipecache/internal/interp"
)

// The in-memory event-trace tier: a capture-once/replay-many encoding of
// the interpreter's compact event stream (interp.Event). The paper drove
// cacheSIM from pre-captured multiprogrammed traces precisely so one
// expensive trace could be amortized over many cache configurations; this
// is the same idea applied to the reproduction's own execution engine.
//
// The stream of one interpreter is a pure function of (program, seed,
// instruction budget) — see the stream invariance contract in
// internal/interp/events.go. Delay-slot translations, branch and load
// schemes, cache banks, and even the multiprogramming quantum are applied
// by the consumer, so a trace captured on one pass replays bit-identically
// under any of them. The trace therefore stores one flat stream per
// benchmark, and Cursor re-interleaves them at replay time with the same
// block-granular scheduling rule the live simulator uses.
//
// Storage is columnar (parallel kind/A/B arrays) in fixed-size chunks
// drawn from a package-level pool: 9 bytes per event for the columns (vs
// the 12 of a padded []interp.Event) plus a block-boundary index, no large
// contiguous allocations, and chunk reuse across capture/evict cycles.
// Replay hands zero-copy column sub-slices to sinks implementing
// interp.ColumnSink.

// chunkEvents is the capacity of one columnar chunk (16Ki events ≈ 150 KB
// with the block index).
const chunkEvents = 1 << 14

// chunkBytes is the accounted storage cost of one chunk: 9 bytes per event
// for the kind/a/b columns plus 4 for the worst-case block index.
const chunkBytes = chunkEvents * 13

type chunk struct {
	kind []uint8
	a, b []uint32
	// insts is the sum of the EvBlock B fields stored in this chunk,
	// maintained on append. Cursor.Turn uses it to deliver chunks that
	// cannot reach the stop threshold wholesale, without scanning for
	// block boundaries.
	insts int64
	// blockPos indexes the EvBlock events in the chunk (ascending offsets
	// into kind/a/b), so Turn walks block boundaries directly instead of
	// testing every event's kind.
	blockPos []int32
}

var chunkPool = sync.Pool{New: func() any {
	return &chunk{
		kind: make([]uint8, 0, chunkEvents),
		a:    make([]uint32, 0, chunkEvents),
		b:    make([]uint32, 0, chunkEvents),
	}
}}

func (c *chunk) reset() {
	c.kind = c.kind[:0]
	c.a = c.a[:0]
	c.b = c.b[:0]
	c.insts = 0
	c.blockPos = c.blockPos[:0]
}

// BenchEvents is one benchmark's captured event stream.
type BenchEvents struct {
	name   string
	seed   uint64
	insts  int64 // total instructions (sum of EvBlock B fields)
	events int64
	chunks []*chunk
}

// Name returns the benchmark's name.
func (b *BenchEvents) Name() string { return b.name }

// Seed returns the workload seed the stream was captured under.
func (b *BenchEvents) Seed() uint64 { return b.seed }

// Insts returns the total captured instruction count (including the
// block-boundary overshoot past the capture budget).
func (b *BenchEvents) Insts() int64 { return b.insts }

// Events returns the number of captured events.
func (b *BenchEvents) Events() int64 { return b.events }

func (b *BenchEvents) append(evs []interp.Event) {
	var cur *chunk
	if n := len(b.chunks); n > 0 {
		cur = b.chunks[n-1]
	}
	for _, ev := range evs {
		if cur == nil || len(cur.kind) == chunkEvents {
			cur = chunkPool.Get().(*chunk)
			cur.reset()
			b.chunks = append(b.chunks, cur)
		}
		cur.kind = append(cur.kind, uint8(ev.Kind))
		cur.a = append(cur.a, ev.A)
		cur.b = append(cur.b, ev.B)
		if ev.Kind == interp.EvBlock {
			b.insts += int64(ev.B)
			cur.insts += int64(ev.B)
			cur.blockPos = append(cur.blockPos, int32(len(cur.kind)-1))
		}
	}
	b.events += int64(len(evs))
}

// EventTrace is a complete multiprogrammed capture: one event stream per
// benchmark plus the identity it was captured under. Traces are shared
// between the Store and concurrent replays via reference counting; when
// the last reference is released the chunks return to the pool.
type EventTrace struct {
	key           string
	instsPerBench int64
	benches       []*BenchEvents
	bytes         int64
	refs          atomic.Int32

	// aux carries replay-tier caches derived from this trace's immutable
	// streams (e.g. compiled chunk plans); see Aux.
	aux sync.Map
}

// Aux returns the trace's auxiliary cache: an arbitrarily-keyed map for
// derived data whose lifetime must match the trace's, such as the replay
// tier's compiled chunk plans. The streams are immutable, so a derivation
// computed once stays valid for the trace's whole life; consumers must
// choose keys that distinct derivations cannot collide on (chunk column
// pointers are unique within one trace, and the pooled slabs they point
// into are only recycled after the last Release).
func (t *EventTrace) Aux() *sync.Map { return &t.aux }

// Key returns the capture key the trace was recorded under.
func (t *EventTrace) Key() string { return t.key }

// InstsPerBench returns the per-benchmark instruction budget of the
// capturing pass; a replay must request exactly this budget.
func (t *EventTrace) InstsPerBench() int64 { return t.instsPerBench }

// Len returns the number of benchmark streams.
func (t *EventTrace) Len() int { return len(t.benches) }

// Bench returns the i'th benchmark stream.
func (t *EventTrace) Bench(i int) *BenchEvents { return t.benches[i] }

// Bytes returns the accounted storage size of the trace.
func (t *EventTrace) Bytes() int64 { return t.bytes }

// Events returns the total event count across all benchmarks.
func (t *EventTrace) Events() int64 {
	var n int64
	for _, b := range t.benches {
		n += b.events
	}
	return n
}

// Retain adds a reference. Every Retain (and the implicit reference held
// by the creator) must be matched by a Release.
func (t *EventTrace) Retain() { t.refs.Add(1) }

// Refs returns the current reference count; the chaos suite's leak check
// asserts a settled resident trace is held by exactly the store.
func (t *EventTrace) Refs() int32 { return t.refs.Load() }

// Release drops one reference; the last release returns the chunks to the
// pool. Using a trace after its last release is a bug.
func (t *EventTrace) Release() {
	if t.refs.Add(-1) != 0 {
		return
	}
	for _, b := range t.benches {
		for _, c := range b.chunks {
			chunkPool.Put(c)
		}
		b.chunks = nil
	}
}

// seal accounts the trace's storage and hands the creator its one
// reference. Record calls it once every stream is complete.
func (t *EventTrace) seal() *EventTrace {
	for _, b := range t.benches {
		t.bytes += int64(len(b.chunks)) * chunkBytes
	}
	t.bytes += int64(len(t.benches)) * 64 // struct overhead, coarse
	t.refs.Store(1)
	return t
}

// Cursor walks one benchmark stream during replay. The zero value is not
// useful; obtain cursors from EventTrace.Cursor.
type Cursor struct {
	be  *BenchEvents
	ci  int // chunk index
	off int // offset within chunk
}

// Cursor returns a cursor at the start of the i'th benchmark stream.
func (t *EventTrace) Cursor(i int) Cursor { return Cursor{be: t.benches[i]} }

// Done reports whether the stream is exhausted.
func (c *Cursor) Done() bool {
	return c.ci >= len(c.be.chunks) ||
		(c.ci == len(c.be.chunks)-1 && c.off >= len(c.be.chunks[c.ci].kind))
}

// Turn replays one multiprogramming turn: whole blocks are delivered until
// at least target instructions have been replayed, mirroring the
// interpreter's RunEvents rule exactly (stop at the first block boundary
// at or past the target). It returns the number of instructions replayed,
// zero once the stream is exhausted.
//
// Batches go through sink.EventColumns as zero-copy column sub-slices when
// the sink implements interp.ColumnSink; otherwise they are materialized
// into buf (allocated internally when too small) and delivered through
// sink.Events. Batch boundaries differ from the live run's — sinks must be
// batch-boundary agnostic, which interp.EventSink already requires.
func (c *Cursor) Turn(target int64, buf []interp.Event, sink interp.EventSink) int64 {
	cs, columnar := sink.(interp.ColumnSink)
	if !columnar && cap(buf) < 64 {
		buf = make([]interp.Event, 0, 4096)
	}
	evs := buf[:0]
	var ran int64
	for c.ci < len(c.be.chunks) {
		ch := c.be.chunks[c.ci]
		kinds := ch.kind
		start := c.off
		if start == 0 && ran+ch.insts <= target {
			// The whole chunk stays below the stop threshold: every block
			// boundary inside it would be checked with ran < target
			// (blocks execute at least one instruction), so the chunk can
			// be delivered wholesale without scanning block boundaries.
			if columnar {
				cs.EventColumns(kinds, ch.a, ch.b)
			} else {
				evs = materialize(evs, ch, 0, len(kinds), sink)
			}
			ran += ch.insts
			c.ci++
			continue
		}
		bp := ch.blockPos
		bi := sort.Search(len(bp), func(j int) bool { return int(bp[j]) >= start })
		for ; bi < len(bp); bi++ {
			i := int(bp[bi])
			if ran >= target {
				// Deliver everything up to (not including) the block that
				// would overshoot, and park the cursor on it.
				if columnar {
					if i > start {
						cs.EventColumns(kinds[start:i], ch.a[start:i], ch.b[start:i])
					}
				} else {
					evs = materialize(evs, ch, start, i, sink)
					if len(evs) > 0 {
						sink.Events(evs)
					}
				}
				c.off = i
				return ran
			}
			ran += int64(ch.b[i])
		}
		if columnar {
			if len(kinds) > start {
				cs.EventColumns(kinds[start:], ch.a[start:], ch.b[start:])
			}
		} else {
			evs = materialize(evs, ch, start, len(kinds), sink)
		}
		c.ci++
		c.off = 0
	}
	if !columnar && len(evs) > 0 {
		sink.Events(evs)
	}
	return ran
}

// materialize copies chunk columns [lo,hi) into evs, flushing to sink
// whenever the buffer fills, and returns the (possibly flushed) buffer.
func materialize(evs []interp.Event, ch *chunk, lo, hi int, sink interp.EventSink) []interp.Event {
	for i := lo; i < hi; i++ {
		if len(evs) == cap(evs) {
			sink.Events(evs)
			evs = evs[:0]
		}
		evs = append(evs, interp.Event{Kind: interp.EventKind(ch.kind[i]), A: ch.a[i], B: ch.b[i]})
	}
	return evs
}

// Validate checks that the trace can replay a pass over the given
// workloads (same benchmarks, same seeds, same budget, in order).
func (t *EventTrace) Validate(instsPerBench int64, names []string, seeds []uint64) error {
	if instsPerBench != t.instsPerBench {
		return fmt.Errorf("trace: captured at %d insts/bench, replay wants %d", t.instsPerBench, instsPerBench)
	}
	if len(names) != len(t.benches) {
		return fmt.Errorf("trace: %d captured benchmarks, replay has %d", len(t.benches), len(names))
	}
	for i, b := range t.benches {
		if b.name != names[i] || b.seed != seeds[i] {
			return fmt.Errorf("trace: bench %d is %s/%#x, replay wants %s/%#x",
				i, b.name, b.seed, names[i], seeds[i])
		}
	}
	return nil
}
