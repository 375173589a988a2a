package trace

import (
	"reflect"
	"testing"

	"pipecache/internal/interp"
)

// synthStream builds a deterministic synthetic event stream of n blocks,
// each EvBlock followed by a little memory and control traffic, with
// instsPerBlock instructions per block.
func synthStream(n int, instsPerBlock uint32) []interp.Event {
	var evs []interp.Event
	for i := 0; i < n; i++ {
		evs = append(evs,
			interp.Event{Kind: interp.EvBlock, A: uint32(i), B: instsPerBlock},
			interp.Event{Kind: interp.EvMemLoad, A: uint32(0x1000 + 4*i)},
			interp.Event{Kind: interp.EvLoadUse, A: 0, B: uint32(i % 4)},
		)
		if i%2 == 0 {
			evs = append(evs, interp.Event{Kind: interp.EvCTITaken, A: uint32(i)})
		} else {
			evs = append(evs, interp.Event{Kind: interp.EvMemStore, A: uint32(0x2000 + 4*i)})
		}
	}
	return evs
}

// synthTrace builds a single-bench trace from evs, appended in batchSize
// batches (chunking must not depend on the batch boundaries).
func synthTrace(evs []interp.Event, batchSize int, insts int64) *EventTrace {
	be := &BenchEvents{name: "b", seed: 7}
	for lo := 0; lo < len(evs); lo += batchSize {
		be.append(evs[lo:min(lo+batchSize, len(evs))])
	}
	return (&EventTrace{key: "k", instsPerBench: insts, benches: []*BenchEvents{be}}).seal()
}

// columnSink gathers replayed events from the zero-copy column batches.
type columnSink struct{ evs []interp.Event }

func (c *columnSink) EventColumns(kind []uint8, a, b []uint32) {
	for i := range kind {
		c.evs = append(c.evs, interp.Event{Kind: interp.EventKind(kind[i]), A: a[i], B: b[i]})
	}
}

// TestCursorTurnMatchesRunEventsRule replays a stream turn by turn and
// checks the delivered sequence and per-turn instruction counts against
// the interpreter's rule: whole blocks until the running total reaches the
// target, stopping before the block that would overshoot.
func TestCursorTurnMatchesRunEventsRule(t *testing.T) {
	const blocks, per = 40_000, 3 // > 2 chunks of events
	evs := synthStream(blocks, per)
	tr := synthTrace(evs, 4096, blocks*per)
	defer tr.Release()

	for _, target := range []int64{1, 2, 3, 7, 100, 12_345} {
		// Reference: walk evs directly with the RunEvents stop rule.
		ref := func(pos *int, target int64) (int64, []interp.Event) {
			var ran int64
			start := *pos
			for i := start; i < len(evs); i++ {
				if evs[i].Kind == interp.EvBlock {
					if ran >= target {
						*pos = i
						return ran, evs[start:i]
					}
					ran += int64(evs[i].B)
				}
			}
			*pos = len(evs)
			return ran, evs[start:]
		}

		cur := tr.Cursor(0)
		sink := &columnSink{}
		pos := 0
		for turn := 0; ; turn++ {
			wantRan, wantEvs := ref(&pos, target)
			sink.evs = sink.evs[:0]
			ran := cur.Turn(target, sink)
			if ran != wantRan {
				t.Fatalf("target %d turn %d: ran %d, want %d", target, turn, ran, wantRan)
			}
			if !reflect.DeepEqual(append([]interp.Event{}, sink.evs...), append([]interp.Event{}, wantEvs...)) {
				t.Fatalf("target %d turn %d: delivered events diverge", target, turn)
			}
			if ran == 0 {
				if !cur.Done() {
					t.Fatal("ran 0 but cursor not done")
				}
				break
			}
		}
	}
}

func TestEventTraceValidate(t *testing.T) {
	tr := synthTrace(synthStream(10, 5), 64, 50)
	defer tr.Release()
	if err := tr.Validate(50, []string{"b"}, []uint64{7}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(49, []string{"b"}, []uint64{7}); err == nil {
		t.Error("budget mismatch accepted")
	}
	if err := tr.Validate(50, []string{"x"}, []uint64{7}); err == nil {
		t.Error("name mismatch accepted")
	}
	if err := tr.Validate(50, []string{"b"}, []uint64{8}); err == nil {
		t.Error("seed mismatch accepted")
	}
	if err := tr.Validate(50, []string{"b", "c"}, []uint64{7, 7}); err == nil {
		t.Error("count mismatch accepted")
	}
}

func TestEventTraceRefcount(t *testing.T) {
	tr := synthTrace(synthStream(10, 5), 64, 50)
	tr.Retain()
	tr.Release()
	if len(tr.Bench(0).chunks) == 0 {
		t.Fatal("chunks freed while a reference was live")
	}
	tr.Release()
	if len(tr.Bench(0).chunks) != 0 {
		t.Fatal("chunks not returned to the pool at refcount zero")
	}
}
