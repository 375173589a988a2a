package trace

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pipecache/internal/fault"
	"pipecache/internal/interp"
	"pipecache/internal/isa"
	"pipecache/internal/program"
)

// loopProgram is a small branchy loop with loads, stores, and load-use
// distances: enough event variety to fill several chunks per benchmark.
func loopProgram(t *testing.T, name string, takenProb float64) *program.Program {
	t.Helper()
	bd := program.NewBuilder(name, 0)
	main := bd.StartProc("main")
	b0, b1, b2 := bd.NewBlock(), bd.NewBlock(), bd.NewBlock()
	bd.ALU(b0, isa.ADDU, isa.T0, isa.A0, isa.A1)
	bd.Store(b0, isa.T0, isa.GP, 4, program.MemBehavior{Kind: program.MemGP, Offset: 4})
	bd.Fallthrough(b0, b1)
	bd.Load(b1, isa.T2, isa.GP, 0, program.MemBehavior{Kind: program.MemGP, Offset: 0})
	bd.ALU(b1, isa.ADDU, isa.T3, isa.T2, isa.T0)
	bd.ALU(b1, isa.SLT, isa.T9, isa.T3, isa.T1)
	bd.Branch(b1, isa.BNE, isa.T9, isa.Zero, b1, b2, takenProb)
	bd.Jump(b2, b0)
	bd.SetEntry(main)
	p, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p.Data = program.DataLayout{GPBase: 0x10000, GPSize: 64, StackBase: 0x20000, FrameSize: 64}
	return p
}

func recordSet(t *testing.T) ([]*program.Program, []uint64) {
	t.Helper()
	return []*program.Program{loopProgram(t, "a", 0.9), loopProgram(t, "b", 0.3), loopProgram(t, "c", 0.6)},
		[]uint64{9, 77, 5}
}

// interpretedStream is the reference: one interpreter driven in turns of
// quantum instructions under the RunEvents stop rule, the way a live
// multiprogrammed pass drives it.
func interpretedStream(t *testing.T, p *program.Program, seed uint64, insts, quantum int64) []interp.Event {
	t.Helper()
	it := mustInterp(t, p, seed)
	var evs []interp.Event
	sink := interp.EventSinkFunc(func(e []interp.Event) { evs = append(evs, e...) })
	for remaining := insts; remaining > 0; {
		remaining -= it.RunEvents(min(quantum, remaining), nil, sink)
	}
	return evs
}

// streamOf flattens one captured benchmark stream.
func streamOf(be *BenchEvents) []interp.Event {
	var evs []interp.Event
	for _, c := range be.chunks {
		for i := range c.kind {
			evs = append(evs, interp.Event{Kind: interp.EventKind(c.kind[i]), A: c.a[i], B: c.b[i]})
		}
	}
	return evs
}

// TestRecordMatchesInterpreter: at every worker count, Record captures
// exactly the stream a quantum-driven interpreter produces, in identical
// chunks, under the right identity and accounting.
func TestRecordMatchesInterpreter(t *testing.T) {
	progs, seeds := recordSet(t)
	const insts = 60_000
	var ref *EventTrace
	for _, workers := range []int{1, 2, 3, 8} {
		tr, err := Record(context.Background(), "k", insts, progs, seeds, workers)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Release()
		if tr.Len() != len(progs) || tr.Key() != "k" || tr.InstsPerBench() != insts || tr.Bytes() <= 0 {
			t.Fatalf("workers=%d: identity/accounting: len=%d key=%q insts=%d bytes=%d",
				workers, tr.Len(), tr.Key(), tr.InstsPerBench(), tr.Bytes())
		}
		for i, p := range progs {
			be := tr.Bench(i)
			if be.Name() != p.Name || be.Seed() != seeds[i] {
				t.Fatalf("workers=%d bench %d: identity %s/%d", workers, i, be.Name(), be.Seed())
			}
			if len(be.chunks) < 2 {
				t.Fatalf("bench %d fits one chunk; the test needs several", i)
			}
			want := interpretedStream(t, p, seeds[i], insts, 7_000)
			got := streamOf(be)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d bench %d: captured stream differs from the interpreter's", workers, i)
			}
			if be.Events() != int64(len(want)) || be.Insts() < insts {
				t.Fatalf("workers=%d bench %d: events=%d insts=%d", workers, i, be.Events(), be.Insts())
			}
		}
		if ref == nil {
			ref = tr
			continue
		}
		for i := range progs {
			if !reflect.DeepEqual(tr.Bench(i).chunks, ref.Bench(i).chunks) {
				t.Fatalf("workers=%d bench %d: chunk columns differ from workers=1", workers, i)
			}
		}
	}
}

// waitGoroutines waits for the goroutine count to settle back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRecordContainsFailures: a cancelled context, an injected error, and
// an injected panic each surface as Record's error at every worker count,
// with every capture goroutine gone by the time Record returns.
func TestRecordContainsFailures(t *testing.T) {
	progs, seeds := recordSet(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
		plan string
		want error
	}{
		{"cancelled", cancelled, "", context.Canceled},
		{"injected-error", context.Background(), "kinds=error", fault.ErrInjected},
		{"injected-panic", context.Background(), "kinds=panic", ErrCapturePanic},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				if c.plan != "" {
					p, err := fault.ParsePlan("seed=1,rate=1024/1024,maxfires=1,points=lab.trace.capture," + c.plan)
					if err != nil {
						t.Fatal(err)
					}
					fault.Enable(p)
					defer fault.Disable()
				}
				base := runtime.NumGoroutine()
				tr, err := Record(c.ctx, "k", 60_000, progs, seeds, workers)
				if !errors.Is(err, c.want) || tr != nil {
					t.Fatalf("Record = %v, %v; want error %v", tr, err, c.want)
				}
				waitGoroutines(t, base)
			})
		}
	}
}
