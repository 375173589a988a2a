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

// collectSink gathers replayed events through the plain Events interface.
type collectSink struct{ evs []interp.Event }

func (c *collectSink) Events(e []interp.Event) { c.evs = append(c.evs, e...) }

// columnSink gathers replayed events through the zero-copy column path.
type columnSink struct{ evs []interp.Event }

func (c *columnSink) Events(e []interp.Event) { c.evs = append(c.evs, e...) }
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

	for _, sinkName := range []string{"plain", "columnar"} {
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
			var sink interp.EventSink
			var got *[]interp.Event
			if sinkName == "plain" {
				cs := &collectSink{}
				sink, got = cs, &cs.evs
			} else {
				cs := &columnSink{}
				sink, got = cs, &cs.evs
			}
			pos := 0
			buf := make([]interp.Event, 0, 256)
			for turn := 0; ; turn++ {
				wantRan, wantEvs := ref(&pos, target)
				*got = (*got)[:0]
				ran := cur.Turn(target, buf, sink)
				if ran != wantRan {
					t.Fatalf("%s target %d turn %d: ran %d, want %d", sinkName, target, turn, ran, wantRan)
				}
				if !reflect.DeepEqual(append([]interp.Event{}, *got...), append([]interp.Event{}, wantEvs...)) {
					t.Fatalf("%s target %d turn %d: delivered events diverge", sinkName, target, turn)
				}
				if ran == 0 {
					if !cur.Done() {
						t.Fatalf("%s: ran 0 but cursor not done", sinkName)
					}
					break
				}
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
